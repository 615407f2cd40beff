import math

import pytest

from driftlab.chain import NonFiniteSignalError, TransducerSpec, build_context
from driftlab.crystal import CrystalSpec
from driftlab.lamb import load_media
from driftlab.rtc import RtcConfig
from driftlab.signals import wrap_phase


@pytest.fixture(scope="module")
def context():
    medium = load_media(thickness=5e-3)["acrylic glass"]
    return build_context(
        medium, CrystalSpec(), RtcConfig(),
        TransducerSpec(position=0.055, drive_amplitude=20.0),
        circuit_phase_offset=1.3,
    )


class TestChain:
    def test_nominal_injection_scale(self, context):
        # default gain chain: 20 V drive at 5.5 cm lands a few millivolts
        # against the 80 mV oscillation
        amp = context.injected_amplitude()
        assert 0.003 < amp < 0.008

    def test_induced_frequency_matches_oscillator(self, context):
        sig = context.induced_signal(0.0)
        assert sig.frequency == context.rtc.nominal_freq

    def test_drive_phase_shift_passes_through(self, context):
        base = context.induced_signal(0.0).phase
        for shift in (0.3, 1.0, 4.2):
            shifted = context.induced_signal(shift).phase
            assert shifted == pytest.approx(wrap_phase(base + shift), abs=1e-9)

    def test_amplitude_linear_in_drive(self, context):
        a1 = context.induced_signal(0.0, drive_amplitude=10.0).amplitude
        a2 = context.induced_signal(0.0, drive_amplitude=30.0).amplitude
        assert a2 == pytest.approx(3.0 * a1, rel=1e-9)

    def test_attenuation_with_distance(self, context):
        near = context.induced_signal(0.0, z=0.02).amplitude
        far = context.induced_signal(0.0, z=0.5).amplitude
        assert far < near

    def test_propagation_delay_from_mode(self, context):
        assert context.propagation_delay() == pytest.approx(
            0.055 / context.mode.c_s
        )

    @pytest.mark.parametrize("crystal", [
        CrystalSpec(tip_mass=1e300),                       # nan amplitude
        CrystalSpec(thickness=2.2250738585072014e-308),    # inf amplitude
    ])
    def test_non_finite_signal_is_named(self, context, crystal):
        from dataclasses import replace

        with pytest.raises(NonFiniteSignalError, match=r"^\$\.crystal: "):
            replace(context, crystal=crystal).induced_signal(0.0)
