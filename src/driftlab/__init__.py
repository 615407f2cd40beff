"""driftlab: deterministic simulation of acoustic timing-drift attacks on
RTC circuits, from plate-wave propagation to downstream device effects."""

__version__ = "0.1.0"

from .chain import ChainContext, TransducerSpec, build_context
from .crystal import CrystalSpec, induced_signal, steady_state_stress
from .effects import (
    BpScenario,
    ClockSynthConfig,
    DampingSpec,
    DeflationStallError,
    bp_error,
    damping_attenuation,
    rtc_drift_to_bp,
    synth_output_freq,
)
from .fingerprint import (
    CaptureConfig,
    SscProfile,
    classify,
    denoise,
    load_profile_library,
    scale,
    synthesize,
)
from .lamb import (
    LambMode,
    MediumSpec,
    load_media,
    solve_dispersion,
    surface_displacement,
)
from .planner import (
    AttackPlan,
    BurstTrain,
    DriftGoal,
    InfeasiblePlanError,
    PhaseMap,
    calibrate_phase_map,
    plan_backward,
    plan_forward,
    simulate_plan,
)
from .rtc import (
    InjectionBurst,
    RtcConfig,
    RtcState,
    apply_phase_advance,
    initial_state,
    measure_drift,
    step,
    with_injection,
)
from .signals import SampledTrace, Sinusoid, phase_after_superposition, render, superpose
