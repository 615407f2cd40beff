import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlab.effects import (
    BpScenario,
    ClockSynthConfig,
    DampingSpec,
    DeflationStallError,
    SubnormalShiftError,
    bp_error,
    damping_attenuation,
    rtc_drift_to_bp,
    synth_output_freq,
)

from oracles import simulate_deflation_readings


def _scenario(freq_shift=0.0, p0=180.0, s=120.0, d=80.0, v0=3.0, dp=3.0 / 1024.0):
    return BpScenario(
        initial_pressure=p0, systolic=s, diastolic=d,
        deflation_rate=v0, pressure_per_cycle=dp, freq_shift=freq_shift,
    )


class TestBpError:
    def test_no_shift_no_error(self):
        ds, dd, rate = bp_error(_scenario(0.0))
        assert ds == 0.0 and dd == 0.0
        assert rate == 3.0

    def test_ten_percent_shift_example(self):
        # dP * df / V0 = 0.1 with P0 - S = 60 gives +6 mmHg systolic error
        s = _scenario(freq_shift=0.1 * 3.0 / (3.0 / 1024.0))
        ds, dd, rate = bp_error(s)
        assert ds == pytest.approx(6.0, rel=1e-12)
        assert dd == pytest.approx(10.0, rel=1e-12)
        assert ds > 0.0

    def test_negative_shift_stalls_deflation(self):
        s = _scenario(freq_shift=-3.0 / (3.0 / 1024.0))
        with pytest.raises(DeflationStallError):
            bp_error(s)

    @pytest.mark.parametrize("s", [
        _scenario(math.inf),
        _scenario(-math.inf),
        _scenario(1e300, dp=1e10),
        _scenario(1e307, p0=1e308, s=2.0, d=1.0),
    ], ids=["inf", "-inf", "shift-overflows", "error-overflows"])
    def test_non_finite_result_refused(self, s):
        with pytest.raises(OverflowError, match=r"^a timing shift of .* Hz takes"):
            bp_error(s)

    def test_envelope_simulation_cross_check(self):
        # Independent oracle: simulate the deflation with a synthetic
        # envelope; agreement is first-order in dP*df/V0.
        s = _scenario(freq_shift=0.02 * 3.0 / (3.0 / 1024.0))
        ds, dd, _ = bp_error(s)
        rep_s, rep_d = simulate_deflation_readings(
            s.initial_pressure, s.systolic, s.diastolic,
            s.deflation_rate, s.pressure_per_cycle, s.freq_shift,
        )
        assert rep_s - s.systolic == pytest.approx(ds, rel=0.05)
        assert rep_d - s.diastolic == pytest.approx(dd, rel=0.05)

    @given(
        p0=st.floats(min_value=150.0, max_value=250.0),
        s=st.floats(min_value=90.0, max_value=140.0),
        d=st.floats(min_value=50.0, max_value=85.0),
        # BpScenario rejects nonzero subnormal shifts (their errors underflow
        # to +-0.0), so draw from the domain it accepts.
        df=st.floats(min_value=-200.0, max_value=800.0, allow_subnormal=False),
    )
    @example(p0=150.0, s=90.0, d=50.0, df=sys.float_info.min)
    @example(p0=250.0, s=140.0, d=85.0, df=-sys.float_info.min)
    @settings(max_examples=200, deadline=None)
    def test_sign_and_proportionality_laws(self, p0, s, d, df):
        scenario = _scenario(freq_shift=df, p0=p0, s=s, d=d)
        try:
            ds, dd, rate = bp_error(scenario)
        except DeflationStallError:
            assert scenario.deflation_rate + scenario.pressure_per_cycle * df <= 0
            return
        if df > 0:
            assert ds > 0 and dd > 0
        elif df < 0:
            assert ds < 0 and dd < 0
        else:
            assert ds == dd == 0.0
        if df != 0:
            assert ds / dd == pytest.approx((p0 - s) / (p0 - d), rel=1e-9)

    @given(df=st.floats(min_value=-sys.float_info.min,
                        max_value=sys.float_info.min,
                        exclude_min=True, exclude_max=True).filter(bool))
    @example(df=5e-324)
    @example(df=-5e-324)
    @settings(max_examples=50, deadline=None)
    def test_rejects_subnormal_shift(self, df):
        # the true errors here (~3e-325) lie below the smallest subnormal
        with pytest.raises(SubnormalShiftError):
            _scenario(freq_shift=df, p0=150.0, s=90.0, d=50.0)

    def test_rejects_inverted_pressures(self):
        with pytest.raises(ValueError):
            BpScenario(initial_pressure=100.0, systolic=120.0, diastolic=80.0,
                       deflation_rate=3.0, pressure_per_cycle=0.01)


class TestDriftRateBridge:
    def test_identity_rate(self):
        s = rtc_drift_to_bp(1.0, _scenario())
        assert s.freq_shift == 0.0

    def test_doubled_rate_full_tick_frequency(self):
        s = rtc_drift_to_bp(2.0, _scenario(), tick_freq=1024.0)
        assert s.freq_shift == pytest.approx(1024.0)

    def test_half_rate_underreads(self):
        s = rtc_drift_to_bp(0.5, _scenario(), tick_freq=1024.0)
        assert s.freq_shift == pytest.approx(-512.0)
        ds, dd, _ = bp_error(s)
        assert ds < 0 and dd < 0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            rtc_drift_to_bp(0.0, _scenario())


class TestDamping:
    def test_static_transmission(self):
        spec = DampingSpec(omega_n=100.0, zeta=0.5)
        assert damping_attenuation(spec, 0.0) == 1.0

    def test_resonance_half_damping(self):
        spec = DampingSpec(omega_n=100.0, zeta=0.5)
        assert damping_attenuation(spec, 100.0) == pytest.approx(1.0, rel=1e-12)

    def test_resonance_light_damping(self):
        spec = DampingSpec(omega_n=100.0, zeta=0.1)
        assert damping_attenuation(spec, 100.0) == pytest.approx(5.0, rel=1e-12)

    def test_rolls_off_to_zero(self):
        spec = DampingSpec(omega_n=100.0, zeta=0.3)
        assert damping_attenuation(spec, 1e6) < 1e-4

    @given(
        zeta=st.floats(min_value=1.0 / math.sqrt(2.0), max_value=5.0),
        w1=st.floats(min_value=0.0, max_value=1000.0),
        w2=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_for_heavy_damping(self, zeta, w1, w2):
        spec = DampingSpec(omega_n=123.0, zeta=zeta)
        lo, hi = sorted((w1, w2))
        assert damping_attenuation(spec, hi) <= damping_attenuation(spec, lo) + 1e-12

    def test_from_components(self):
        spec = DampingSpec.from_components(damping_coeff=2.0, stiffness=100.0,
                                           mass=1.0)
        assert spec.omega_n == pytest.approx(10.0)
        assert spec.zeta == pytest.approx(0.1)

    @pytest.mark.parametrize("omega_n, zeta", [
        (math.inf, 0.5), (100.0, math.inf), (math.nan, 0.5), (100.0, math.nan),
        (0.0, 0.5), (100.0, 0.0),
    ])
    def test_rejects_non_finite_or_nonpositive(self, omega_n, zeta):
        with pytest.raises(ValueError, match="finite and > 0"):
            DampingSpec(omega_n=omega_n, zeta=zeta)

    def test_components_leaving_the_floats_rejected(self):
        # k / m overflows: an infinite natural frequency
        with pytest.raises(ValueError, match="finite and > 0"):
            DampingSpec.from_components(damping_coeff=0.2, stiffness=4e4, mass=5e-324)


class TestClockSynth:
    def test_reference_parameters_hit_nominal(self):
        f = synth_output_freq(ClockSynthConfig())
        assert abs(f - 32768.0) < 1e-3

    def test_inverse_construction_exact(self):
        div = 36.0 * 25e6 / 32768.0
        f = synth_output_freq(ClockSynthConfig(pll_mult=36.0, multisynth_div=div))
        assert f == 32768.0

    def test_linear_in_pll(self):
        base = synth_output_freq(ClockSynthConfig())
        doubled = synth_output_freq(ClockSynthConfig(pll_mult=72.0))
        assert doubled == pytest.approx(2.0 * base, rel=1e-15)

    def test_rational_inputs_stay_exact(self):
        cfg = ClockSynthConfig(
            ref_freq=Fraction(25_000_000),
            pll_mult=Fraction(36),
            multisynth_div=Fraction(900_000_000, 32768),
        )
        out = synth_output_freq(cfg)
        assert out == Fraction(32768)
        for _ in range(5):
            assert synth_output_freq(cfg) == out
