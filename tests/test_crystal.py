import math

import numpy as np
import pytest

from driftlab.crystal import CrystalSpec, induced_signal, steady_state_stress
from driftlab.signals import TWO_PI, Sinusoid, wrap_phase

from oracles import ode_steady_state_stress

UNIT_SPEC = CrystalSpec(
    tip_mass=1.0, damping=0.1, stiffness=1.0, width=1.0, thickness=1.0,
    piezo_constant=2.3e-12, volts_per_displacement=1.0,
)


def _accel(amp, omega, phase=0.0):
    return Sinusoid(amp, omega / TWO_PI, phase)


class TestSteadyStateStress:
    def test_zero_acceleration(self):
        out = steady_state_stress(UNIT_SPEC, _accel(0.0, 1.0))
        assert out.amplitude == 0.0

    def test_resonance_point_value(self):
        # M=K=b=d=1, S=0.1, w=1: numerator sqrt(0 + 0.01) = 0.1 over 0.01.
        out = steady_state_stress(UNIT_SPEC, _accel(1.0, 1.0))
        assert out.amplitude == pytest.approx(10.0, rel=1e-12)
        assert out.phase == pytest.approx(math.pi / 2, abs=1e-12)

    def test_static_limit_vanishes(self):
        out = steady_state_stress(UNIT_SPEC, _accel(1.0, 1e-6))
        assert out.amplitude < 1e-11

    def test_frequency_preserved(self):
        acc = _accel(2.0, 0.7, 1.1)
        out = steady_state_stress(UNIT_SPEC, acc)
        assert out.frequency == acc.frequency

    def test_resonance_peak_near_natural_frequency(self):
        spec = CrystalSpec(
            tip_mass=1.0, damping=0.05, stiffness=4.0, width=1.0, thickness=1.0,
            piezo_constant=1e-12, volts_per_displacement=1.0,
        )
        omegas = np.linspace(0.5, 4.0, 400)
        amps = [steady_state_stress(spec, _accel(1.0, w)).amplitude for w in omegas]
        w_peak = omegas[int(np.argmax(amps))]
        assert w_peak == pytest.approx(spec.natural_freq, rel=0.02)

    @pytest.mark.parametrize("omega", [0.3, 0.8, 1.0, 1.3, 2.5])
    @pytest.mark.parametrize("damping", [0.05, 0.1, 0.2, 0.5])
    def test_against_ode_oracle(self, omega, damping):
        spec = CrystalSpec(
            tip_mass=1.0, damping=damping, stiffness=1.0, width=1.0,
            thickness=1.0, piezo_constant=1e-12, volts_per_displacement=1.0,
        )
        phase_in = 0.35
        out = steady_state_stress(spec, _accel(1.0, omega, phase_in))
        amp, phase = ode_steady_state_stress(
            1.0, damping, 1.0, 1.0, 1.0, 1.0, omega, phase_in
        )
        assert out.amplitude == pytest.approx(amp, rel=1e-3)
        # compare phases on the circle
        d = wrap_phase(out.phase - phase)
        assert min(d, TWO_PI - d) < 1e-3


class TestInducedSignal:
    def test_zero_stress(self):
        out = induced_signal(UNIT_SPEC, Sinusoid(0.0, 1.0, 0.0))
        assert out.amplitude == 0.0

    def test_linear_in_piezo_constant(self):
        stress = Sinusoid(1e6, 32768.0, 0.3)
        base = CrystalSpec()
        doubled = CrystalSpec(piezo_constant=2 * base.piezo_constant)
        assert induced_signal(doubled, stress).amplitude == pytest.approx(
            2.0 * induced_signal(base, stress).amplitude, rel=1e-12
        )

    def test_millivolt_scale_arithmetic(self):
        # 2.3e-12 C/N * 1e6 Pa = 2.3e-6 C/m^2; a 1e3 V/(C/m^2) readout gain
        # puts the injected signal at millivolt scale.
        spec = CrystalSpec(piezo_constant=2.3e-12, volts_per_displacement=1e3)
        out = induced_signal(spec, Sinusoid(1e6, 32768.0, 0.0))
        assert out.amplitude == pytest.approx(2.3e-3, rel=1e-12)

    def test_circuit_phase_offset_applied(self):
        stress = Sinusoid(1.0, 10.0, 1.0)
        out = induced_signal(UNIT_SPEC, stress, circuit_phase_offset=0.5)
        assert out.phase == pytest.approx(1.5, abs=1e-12)

    def test_frequency_preserved(self):
        stress = Sinusoid(1.0, 123.0, 0.0)
        assert induced_signal(UNIT_SPEC, stress).frequency == 123.0
