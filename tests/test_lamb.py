import cmath
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import lamb
from driftlab.lamb import (
    InconsistentModeError,
    MediumSpec,
    NoRootError,
    NotArrivedError,
    dispersion_residual,
    displacement_wave,
    load_media,
    mode_coefficients,
    mode_matrix,
    normalize_mode_vector,
    propagation_delay,
    solve_dispersion,
    surface_displacement,
)
from driftlab.signals import TWO_PI, Sinusoid

from oracles import scalar_scan_bracket, scan_dispersion_root

F_OSC = 32768.0


@pytest.fixture(scope="module")
def acrylic():
    return load_media(thickness=5e-3)["acrylic glass"]


@pytest.fixture(scope="module")
def acrylic_mode(acrylic):
    return solve_dispersion(acrylic, F_OSC)


class TestMediumSpec:
    def test_rejects_transverse_faster_than_longitudinal(self):
        with pytest.raises(ValueError):
            MediumSpec("bogus", c_l=1000.0, c_t=2000.0, density=1000.0, thickness=5e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["c_l", "c_t", "density", "thickness",
                                       "attenuation_ratio"])
    def test_rejects_non_finite_field_by_name(self, field, bad):
        values = dict(c_l=2700.0, c_t=1300.0, density=1180.0, thickness=5e-3,
                      attenuation_ratio=0.9)
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            MediumSpec("x", **{**values, field: bad})

    def test_table_loads_with_converted_density(self):
        media = load_media(thickness=5e-3)
        assert len(media) == 7
        acr = media["acrylic glass"]
        assert acr.c_l == 2700.0
        assert acr.c_t == 1300.0
        assert acr.density == 1180.0  # 1.18 g/cm3 -> kg/m3


class TestSolveDispersion:
    def test_acrylic_root_subsonic_and_tight(self, acrylic, acrylic_mode):
        assert acrylic_mode.c_s < acrylic.c_t
        res = dispersion_residual(acrylic, acrylic_mode.omega, acrylic_mode.k_a)
        assert res < 1e-9

    def test_acrylic_matches_scan_oracle(self, acrylic, acrylic_mode):
        oracle = scan_dispersion_root(F_OSC, acrylic.c_l, acrylic.c_t,
                                      acrylic.thickness / 2)
        assert acrylic_mode.c_s == pytest.approx(oracle, rel=1e-9)

    def test_quartz_glass_root(self):
        quartz = load_media(thickness=5e-3)["quartz glass"]
        mode = solve_dispersion(quartz, F_OSC)
        assert mode.c_s < quartz.c_t
        acrylic = load_media(thickness=5e-3)["acrylic glass"]
        assert mode.c_s < acrylic.c_l
        oracle = scan_dispersion_root(F_OSC, quartz.c_l, quartz.c_t,
                                      quartz.thickness / 2)
        assert mode.c_s == pytest.approx(oracle, rel=1e-9)

    def test_deterministic(self, acrylic):
        a = solve_dispersion(acrylic, F_OSC)
        b = solve_dispersion(acrylic, F_OSC)
        assert a == b  # bitwise-identical dataclass

    def test_thickness_monotonicity(self):
        prev = 0.0
        for d_mm in (5, 10, 15, 20):
            medium = load_media(thickness=d_mm * 1e-3)["acrylic glass"]
            mode = solve_dispersion(medium, F_OSC)
            assert mode.c_s > prev
            prev = mode.c_s

    def test_no_root_reports_range(self, acrylic, monkeypatch):
        # scanning a sliver of velocity space that holds no root
        monkeypatch.setattr(lamb, "SCAN_START", acrylic.c_t - 2.0)
        with pytest.raises(NoRootError, match=re.escape(
                "scan (1298.0, 1300.0) m/s with step 1.0 m/s")):
            solve_dispersion(acrylic, F_OSC)

    def test_rejects_bad_frequency(self, acrylic):
        with pytest.raises(ValueError):
            solve_dispersion(acrylic, 0.0)


def _outcome(medium, f):
    try:
        return solve_dispersion(medium, f)
    except (NoRootError, InconsistentModeError) as exc:
        return type(exc), str(exc)


def _scalar_outcome(medium, f):
    """solve_dispersion with the scan replaced by the scalar loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lamb, "_scan_bracket", scalar_scan_bracket)
        return _outcome(medium, f)


ALL_MEDIA = sorted(load_media(thickness=1e-3))
# The frequency range the benchmark's dispersion sweeps cover.
SWEEP_FREQS = np.linspace(19.5e3, 60.5e3, 3)


class TestChunkedScan:
    @pytest.mark.parametrize("step", [1.0, 0.37])
    @pytest.mark.parametrize("name", ALL_MEDIA)
    def test_modes_equal_scalar_scan(self, name, step, monkeypatch):
        monkeypatch.setattr(lamb, "SCAN_STEP", step)
        for d_mm in (0.5, 3.0, 12.0, 60.0):
            medium = load_media(thickness=d_mm * 1e-3)[name]
            for f in SWEEP_FREQS:
                assert _outcome(medium, f) == _scalar_outcome(medium, f), (d_mm, f)

    @settings(max_examples=60, deadline=None)
    @given(
        c_t=st.floats(300.0, 6000.0),
        ratio=st.floats(1.05, 3.0),
        thickness=st.floats(2e-4, 0.08),
        f=st.floats(20.0, 4e5),
        step=st.sampled_from([1.0, 0.37, 2.9]),
        share=st.sampled_from([0.5, 1.0]),
    )
    def test_bracket_equals_scalar_scan(self, c_t, ratio, thickness, f, step,
                                        share):
        medium = MediumSpec("drawn", c_l=c_t * ratio, c_t=c_t, density=2000.0,
                            thickness=thickness)
        omega = TWO_PI * f
        h = share * thickness
        assert lamb._scan_bracket(medium, omega, h, 10.0, step) == \
            scalar_scan_bracket(medium, omega, h, 10.0, step)

    @pytest.mark.parametrize("root, scale, tie", [
        (10.0, 1.0, False),      # an exact zero at scan_start: (lo, lo)
        (137.0, 1.0, False),     # ... on the grid
        (267.0, 1.0, False),     # ... in the first pair of the second chunk
        (3079.0, 1.0, False),    # ... on the last point below c_t = 3080
        (400.5, 1e-170, False),  # products underflow to zero
        (700.5, 1.0, True),      # real and imaginary parts tie
    ])
    @pytest.mark.parametrize("step", [1.0, 0.37])
    def test_edge_values_bracket_like_scalar_scan(self, root, scale, tie, step,
                                                  monkeypatch):
        def terms(medium, omega, k, h, xp=cmath):
            # Zero exactly where c == root: k is omega / c on both paths.
            t1 = (tie + 1j) * scale * (k - omega / root)
            return t1, 0.0 * k

        monkeypatch.setattr(lamb, "_characteristic_terms", terms)
        medium = load_media(thickness=5e-3)["aluminum"]
        omega = TWO_PI * F_OSC
        assert lamb._scan_bracket(medium, omega, 0.0025, 10.0, step) == \
            scalar_scan_bracket(medium, omega, 0.0025, 10.0, step)

    @pytest.mark.parametrize("name", ["acrylic glass", "aluminum"])
    def test_every_point_doubtful_gives_same_mode(self, name, monkeypatch):
        medium = load_media(thickness=5e-3)[name]
        want = _scalar_outcome(medium, F_OSC)
        calls = []
        scalar = lamb._characteristic_value
        monkeypatch.setattr(lamb, "_SCAN_MARGIN", math.inf)
        monkeypatch.setattr(lamb, "_characteristic_value",
                            lambda *args: calls.append(args) or scalar(*args))
        assert solve_dispersion(medium, F_OSC) == want
        # Every scan point up to the bracket went through cmath.
        assert len(calls) > (want.c_s - lamb.SCAN_START) / lamb.SCAN_STEP

    def test_few_scalar_evaluations(self, monkeypatch):
        # The medium, thickness and frequency of the CLI tests' scenario.
        calls = []
        scalar = lamb._characteristic_value
        monkeypatch.setattr(lamb, "_characteristic_value",
                            lambda *args: calls.append(args) or scalar(*args))
        mode = solve_dispersion(load_media(thickness=5e-3)["acrylic glass"], F_OSC)
        assert mode.c_s > 500.0  # a scalar scan would take over 490 evaluations
        assert len(calls) < 100

    @pytest.mark.parametrize("name", ALL_MEDIA)
    def test_margin_far_above_numpy_cmath_difference(self, name):
        medium = load_media(thickness=5e-3)[name]
        h = 0.5 * medium.thickness
        c = np.arange(10.0, medium.c_t, 0.5)
        for f in (50.0, F_OSC, 3e5):
            omega = TWO_PI * f
            t1, t2 = lamb._characteristic_terms(medium, omega, omega / c, h, np)
            total = t1 + t2
            vec = np.where(np.abs(total.imag) >= np.abs(total.real),
                           total.imag, total.real)
            ref = np.array([lamb._characteristic_value(medium, omega, float(x), h)
                            for x in c])
            gap = np.abs(vec - ref) / (np.abs(t1) + np.abs(t2))
            assert gap.max() < 1e-3 * lamb._SCAN_MARGIN

    @pytest.mark.parametrize("c_t, points", [(1e7, "1e+07"), (math.nan, "nan")])
    def test_scan_point_limit_refused_before_scanning(self, c_t, points):
        medium = MediumSpec("fast", c_l=2e7, c_t=1e3, density=2000.0,
                            thickness=5e-3)
        # MediumSpec refuses a NaN c_t itself; the scan's own limit is
        # checked on a record set past that check.
        object.__setattr__(medium, "c_t", c_t)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                f"gives {points} scan points; a scan may cover at most 1000000")):
            solve_dispersion(medium, F_OSC)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("points, accepted", [
        (lamb.SCAN_POINTS_MAX, True), (2 * lamb.SCAN_POINTS_MAX, False),
    ])
    def test_scan_point_limit_edge(self, points, accepted):
        c_t = lamb.SCAN_START + points * lamb.SCAN_STEP
        medium = MediumSpec("fast", c_l=2.0 * c_t, c_t=c_t, density=2000.0,
                            thickness=5e-3)
        if accepted:
            # The root lies about 22,700 points into the scan.
            mode = solve_dispersion(medium, F_OSC)
            assert dispersion_residual(medium, mode.omega, mode.k_a) < 1e-9
        else:
            with pytest.raises(ValueError, match="a scan may cover"):
                solve_dispersion(medium, F_OSC)

    @pytest.mark.parametrize("f, thickness", [(1e9, 5e-3), (F_OSC, 1e6), (1e300, 5e-3)])
    def test_overflow_is_a_named_no_root(self, f, thickness):
        medium = load_media(thickness=thickness)["aluminum"]
        with pytest.raises(NoRootError, match=re.escape(
                f"'aluminum' at {f} Hz and thickness {thickness} m: the "
                "characteristic function overflows")):
            solve_dispersion(medium, f)

    def test_degenerate_boundary_system_is_a_named_no_root(self):
        # A subnormal thickness in metres zeroes the boundary matrix at the
        # solved root.
        thickness = 2.2250738585072014e-308 * 1e-3
        medium = load_media(thickness=thickness)["acrylic glass"]
        with pytest.raises(NoRootError, match=re.escape(
                f"'acrylic glass' at {F_OSC} Hz and thickness {thickness} m: "
                "degenerate boundary system")):
            solve_dispersion(medium, F_OSC)


class TestModeCoefficients:
    def test_null_space_annihilated(self, acrylic, acrylic_mode):
        a, b = mode_coefficients(acrylic_mode, acrylic)
        m = mode_matrix(acrylic, acrylic_mode.omega, acrylic_mode.k_a)
        vec = np.array([a, b])
        assert np.linalg.norm(m @ vec) < 1e-6
        assert max(abs(a), abs(b)) == pytest.approx(1.0)

    def test_scale_invariant_normalisation(self, acrylic, acrylic_mode):
        a, b = mode_coefficients(acrylic_mode, acrylic)
        a2, b2 = normalize_mode_vector(2.0 * a, 2.0 * b)
        assert a2 == pytest.approx(a, abs=1e-15)
        assert b2 == pytest.approx(b, abs=1e-15)
        a3, b3 = normalize_mode_vector(1j * a, 1j * b)
        assert a3 == pytest.approx(a, abs=1e-15)
        assert b3 == pytest.approx(b, abs=1e-15)

    def test_off_root_rejected(self, acrylic, acrylic_mode):
        from dataclasses import replace

        bogus = replace(acrylic_mode, k_a=acrylic_mode.k_a * 1.5)
        with pytest.raises(InconsistentModeError):
            mode_coefficients(bogus, acrylic)


class TestSurfaceDisplacement:
    def test_zero_drive_gives_prestress(self, acrylic, acrylic_mode):
        drive = Sinusoid(0.0, F_OSC, 0.0)
        out = surface_displacement(
            acrylic_mode, acrylic, drive, z=0.055, t=1.0, prestress=0.25
        )
        assert out == 0.25

    def test_phase_zero_crossing(self, acrylic, acrylic_mode):
        drive = Sinusoid(20.0, F_OSC, 0.0)
        wave, t_t = displacement_wave(acrylic_mode, acrylic, drive, 0.0)
        # pick t where the sine argument is an exact multiple of pi
        n = 40
        t = (n * math.pi - wave.phase) / acrylic_mode.omega
        assert t > t_t
        out = surface_displacement(acrylic_mode, acrylic, drive, 0.0, t)
        assert abs(out) < 1e-9 * wave.amplitude

    def test_against_complex_field_oracle(self, acrylic, acrylic_mode):
        # Re{(alpha A - i k B) V e^(i(w(t - t_T) + phi - k z))} sampled over a
        # period must equal lambda sin(w t + Phi).
        drive = Sinusoid(20.0, F_OSC, 0.7)
        z = 0.055
        coupling = 1e-12
        wave, t_t = displacement_wave(
            acrylic_mode, acrylic, drive, z, coupling=coupling
        )
        a, b = acrylic_mode.coeff_a, acrylic_mode.coeff_b
        omega, k = acrylic_mode.omega, acrylic_mode.k_a
        alpha = cmath.sqrt(complex((omega / acrylic.c_l) ** 2 - k * k))
        coeff = alpha * a - 1j * k * b
        v_eff = drive.amplitude * coupling * acrylic.attenuation_ratio ** z
        for t in np.linspace(t_t * 1.01, t_t * 1.01 + 1.0 / F_OSC, 33):
            field = coeff * v_eff * cmath.exp(
                1j * (omega * (t - t_t) + drive.phase - k * z)
            )
            direct = surface_displacement(
                acrylic_mode, acrylic, drive, z, t, coupling=coupling
            )
            assert direct == pytest.approx(field.real, abs=1e-12 * v_eff + 1e-24)

    def test_linear_in_drive_amplitude(self, acrylic, acrylic_mode):
        w1, _ = displacement_wave(acrylic_mode, acrylic, Sinusoid(10.0, F_OSC, 0.2), 0.1)
        w2, _ = displacement_wave(acrylic_mode, acrylic, Sinusoid(30.0, F_OSC, 0.2), 0.1)
        assert w2.amplitude == pytest.approx(3.0 * w1.amplitude, rel=1e-12)

    def test_not_arrived_raises_unless_quiescent(self, acrylic, acrylic_mode):
        drive = Sinusoid(20.0, F_OSC, 0.0)
        z = 0.2
        t_t = z / acrylic_mode.c_s
        with pytest.raises(NotArrivedError):
            surface_displacement(acrylic_mode, acrylic, drive, z, t_t * 0.5)
        quiet = surface_displacement(
            acrylic_mode, acrylic, drive, z, t_t * 0.5,
            prestress=0.1, quiescent_ok=True,
        )
        assert quiet == 0.1


class TestPropagationDelay:
    def test_zero_distance(self, acrylic):
        assert propagation_delay(acrylic, F_OSC, 0.0) == 0.0

    def test_linear_in_distance(self, acrylic):
        d1 = propagation_delay(acrylic, F_OSC, 0.1)
        d2 = propagation_delay(acrylic, F_OSC, 0.2)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)

    def test_matches_solved_velocity(self, acrylic, acrylic_mode):
        assert propagation_delay(acrylic, F_OSC, 0.2) == pytest.approx(
            0.2 / acrylic_mode.c_s, rel=1e-12
        )
