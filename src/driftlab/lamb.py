"""Fundamental antisymmetric plate-wave dispersion and surface response.

The plate carries the injected vibration from the transducer to the crystal.
At the excitation frequencies of interest (tens of kHz) and desk-scale plate
thicknesses, the fundamental antisymmetric mode is subsonic: its phase
velocity sits below the transverse bulk speed, which puts the through-
thickness wavenumbers on the imaginary axis.  All trigonometric factors are
therefore evaluated in complex arithmetic (tan(ix) = i tanh(x)) so a single
code path covers both sides of the bulk-speed cutoffs.

The characteristic equation, in cross-multiplied residual form with
``q = k**2 - beta**2``:

    tan(alpha*h) * q**2  +  4*alpha*beta*k**2 * tan(beta*h)  =  0,

with ``alpha**2 = (w/c_l)**2 - k**2`` and ``beta**2 = (w/c_t)**2 - k**2``.
``h`` is half the plate thickness: the tangent arguments span the mid-plane
to the surface.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .signals import TWO_PI, Sinusoid, wrap_phase

# Bracketing resolution of the phase-velocity scan (m/s) and its lower edge.
SCAN_STEP = 1.0
SCAN_START = 10.0
# Most grid points one scan may cover, which bounds the transverse speed of
# a medium to about 1e6 m/s.  At about 0.4 us a point (2 vCPUs), a full
# scan takes under half a second; the bundled media need a few thousand.
SCAN_POINTS_MAX = 1_000_000
# Grid points the scan evaluates in one numpy pass.
_SCAN_CHUNK = 256
# numpy's complex sqrt and tan differ from cmath's by a few ulp, so a scan
# value whose sign or component choice lies within this fraction of
# |t1| + |t2| of flipping is recomputed with cmath before it is used.
_SCAN_MARGIN = 1e-9
# Values below this magnitude are recomputed too: the product of two values
# above it cannot underflow to zero.
_SCAN_TINY = 2.0 ** -500

RESIDUAL_LIMIT = 1e-9
DETERMINANT_LIMIT = 1e-6


class NoRootError(RuntimeError):
    """The phase-velocity scan found no sign change in its bracket."""


class InconsistentModeError(ValueError):
    """Mode coefficients requested at a point that does not satisfy the
    dispersion relation."""


class NotArrivedError(ValueError):
    """Displacement queried before the wavefront reaches the position."""


@dataclass(frozen=True)
class MediumSpec:
    """Solid plate material record.

    Wave speeds in m/s, density in kg/m^3, thickness in metres.
    ``attenuation_ratio`` is the per-metre amplitude decay factor applied as
    ``attenuation_ratio ** z`` along the propagation path.
    """

    name: str
    c_l: float
    c_t: float
    density: float
    thickness: float
    attenuation_ratio: float = 0.9

    def __post_init__(self):
        for field in ("c_l", "c_t", "density", "thickness", "attenuation_ratio"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ValueError(
                    f"{field} must be finite, got {value!r} for {self.name!r}")
        if self.c_l <= 0.0 or self.c_t <= 0.0:
            raise ValueError("wave speeds must be > 0")
        if self.c_t >= self.c_l:
            raise ValueError(
                f"transverse speed must be below longitudinal "
                f"({self.c_t} >= {self.c_l}) for {self.name!r}"
            )
        if self.density <= 0.0:
            raise ValueError("density must be > 0")
        if self.thickness <= 0.0:
            raise ValueError("thickness must be > 0")
        if not 0.0 < self.attenuation_ratio <= 1.0:
            raise ValueError("attenuation_ratio must lie in (0, 1]")


@dataclass(frozen=True)
class LambMode:
    """Solved fundamental antisymmetric mode at one frequency.

    ``lambda_amp`` is the out-of-plane surface displacement per volt of drive
    at unit transducer coupling; ``phi_offset`` is the drive-independent part
    of the displacement phase.
    """

    omega: float
    k_a: float
    c_s: float
    coeff_a: complex
    coeff_b: complex
    lambda_amp: float
    phi_offset: float


def _wavenumbers(medium: MediumSpec, omega: float, k, xp=cmath):
    """Through-thickness wavenumbers; ``xp`` is ``cmath`` for a scalar ``k``
    or ``numpy`` for an array of them."""
    alpha = xp.sqrt((omega / medium.c_l) ** 2 - k * k + 0j)
    beta = xp.sqrt((omega / medium.c_t) ** 2 - k * k + 0j)
    return alpha, beta


def _characteristic_terms(medium: MediumSpec, omega: float, k, h: float, xp=cmath):
    alpha, beta = _wavenumbers(medium, omega, k, xp)
    q = k * k - beta * beta
    t1 = xp.tan(alpha * h) * q * q
    t2 = 4.0 * alpha * beta * k * k * xp.tan(beta * h)
    return t1, t2


def dispersion_residual(medium: MediumSpec, omega: float, k_a: float) -> float:
    """Normalised magnitude of the characteristic equation at (omega, k_a)."""
    t1, t2 = _characteristic_terms(medium, omega, k_a, 0.5 * medium.thickness)
    denom = abs(t1) + abs(t2)
    if denom == 0.0:
        return math.inf
    return abs(t1 + t2) / denom


def _characteristic_value(medium: MediumSpec, omega: float, c_s: float, h: float) -> float:
    """Real-valued characteristic function used for bracketing.

    Below both bulk speeds the cross-multiplied form is purely imaginary, so
    the imaginary part is the natural scan function; the dominant component
    is selected to stay robust against rounding residue.
    """
    t1, t2 = _characteristic_terms(medium, omega, omega / c_s, h)
    total = t1 + t2
    if abs(total.imag) >= abs(total.real):
        return total.imag
    return total.real


def _scan_values(medium: MediumSpec, omega: float, c: np.ndarray, h: float) -> np.ndarray:
    """``_characteristic_value`` at every phase velocity of ``c``.

    The values are computed with numpy.  Where one of them lies near zero or
    near a tie between its real and imaginary parts, it and its two
    neighbours are recomputed with ``_characteristic_value``: every adjacent
    pair then has the zero test and the sign of its product that the scalar
    values give.
    """
    # Overflow and NaN here need no warning: such values count as doubtful.
    with np.errstate(all="ignore"):
        t1, t2 = _characteristic_terms(medium, omega, omega / c, h, np)
        total = t1 + t2
        re, im = np.abs(total.real), np.abs(total.imag)
        values = np.where(im >= re, total.imag, total.real)
        margin = _SCAN_MARGIN * (np.abs(t1) + np.abs(t2))
        doubtful = ~((np.abs(values) > np.maximum(margin, _SCAN_TINY))
                     & (np.abs(im - re) > margin))
    recheck = doubtful.copy()
    recheck[1:] |= doubtful[:-1]
    recheck[:-1] |= doubtful[1:]
    for i in np.flatnonzero(recheck):
        values[i] = _characteristic_value(medium, omega, float(c[i]), h)
    return values


def _scan_bracket(
    medium: MediumSpec, omega: float, h: float, scan_start: float, scan_step: float
) -> tuple[float, float] | None:
    """First sign-change bracket of the phase-velocity scan, or None.

    The grid is scan_start, scan_start + scan_step, ... summed one step at a
    time, below the transverse bulk speed.  The bracket is (lo, lo) when the
    value at lo is zero and lo has a successor on the grid, else the first
    adjacent pair whose values have a product <= 0.  The grid is evaluated
    ``_SCAN_CHUNK`` points at a time and the scan stops at the first chunk
    that holds the bracket.
    """
    steps = np.full(_SCAN_CHUNK + 1, scan_step)
    c = scan_start
    while True:
        steps[0] = c
        grid = np.add.accumulate(steps)
        grid = grid[: np.searchsorted(grid, medium.c_t)]
        if len(grid) < 2:
            return None
        values = _scan_values(medium, omega, grid, h)
        f_lo, f_hi = values[:-1], values[1:]
        with np.errstate(invalid="ignore"):  # 0 * inf, as the scalar loop allows
            hits = np.flatnonzero((f_lo == 0.0) | (f_lo * f_hi <= 0.0))
        if hits.size:
            i = hits[0]
            lo = float(grid[i])
            return (lo, lo) if f_lo[i] == 0.0 else (lo, float(grid[i + 1]))
        if len(grid) <= _SCAN_CHUNK:
            return None
        c = grid[-1]


def mode_matrix(medium: MediumSpec, omega: float, k_a: float) -> np.ndarray:
    """Traction-free boundary system whose null space gives the mode shape."""
    h = 0.5 * medium.thickness
    alpha, beta = _wavenumbers(medium, omega, k_a)
    q = k_a * k_a - beta * beta
    return np.array(
        [
            [2j * k_a * alpha * cmath.cos(alpha * h), q * cmath.cos(beta * h)],
            [q * cmath.sin(alpha * h), 2j * k_a * beta * cmath.sin(beta * h)],
        ],
        dtype=complex,
    )


def normalize_mode_vector(a: complex, b: complex) -> tuple[complex, complex]:
    """Scale a null vector so max(|a|, |b|) = 1 with a deterministic phase.

    The component of larger magnitude is rotated onto the positive real axis,
    which makes the normalisation invariant to any complex rescaling of the
    input vector.
    """
    if a == 0 and b == 0:
        raise ValueError("null vector must be nonzero")
    pivot = a if abs(a) >= abs(b) else b
    scale = abs(pivot) / pivot / max(abs(a), abs(b))
    return a * scale, b * scale


def _null_space_coefficients(
    medium: MediumSpec, omega: float, k_a: float
) -> tuple[complex, complex]:
    m = mode_matrix(medium, omega, k_a)
    scale = np.sqrt((np.abs(m[0]) ** 2).sum() * (np.abs(m[1]) ** 2).sum())
    if scale == 0.0:
        raise InconsistentModeError("degenerate boundary system")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) / scale > DETERMINANT_LIMIT:
        raise InconsistentModeError(
            f"boundary determinant {abs(det) / scale:.3e} not near zero; "
            "point does not satisfy the dispersion relation"
        )
    _, _, vh = np.linalg.svd(m)
    vec = vh[-1].conj()
    return normalize_mode_vector(vec[0], vec[1])


def _surface_response(alpha: complex, beta: complex, k_a: float,
                      coeff_a: complex, coeff_b: complex) -> complex:
    # Out-of-plane displacement coefficient at the surface (x = 0).
    return alpha * coeff_a - 1j * k_a * coeff_b


def solve_dispersion(medium: MediumSpec, f: float) -> LambMode:
    """Locate the fundamental antisymmetric root at frequency ``f``.

    Scans phase velocity upward in ``SCAN_STEP`` steps from ``SCAN_START``
    to the transverse bulk speed, brackets the first sign change, then
    bisects the bracket down to machine precision.  Raises NoRootError when
    the scan sees no sign change, the characteristic function overflows or
    the boundary system at the root is inconsistent, and ValueError when the
    scan up to the medium's transverse speed would cover more than
    ``SCAN_POINTS_MAX`` points.
    """
    if f <= 0.0:
        raise ValueError("frequency must be > 0")
    points = (medium.c_t - SCAN_START) / SCAN_STEP
    if not points <= SCAN_POINTS_MAX:  # NaN included
        raise ValueError(
            f"transverse speed {medium.c_t!r} m/s of {medium.name!r} gives "
            f"{points:.3g} scan points; a scan may cover at most {SCAN_POINTS_MAX}"
        )
    try:
        return _solve(medium, f)
    except (OverflowError, InconsistentModeError) as exc:
        reason = ("the characteristic function overflows"
                  if isinstance(exc, OverflowError) else str(exc))
        raise NoRootError(
            f"no dispersion root for {medium.name!r} at {f} Hz and thickness "
            f"{medium.thickness} m: {reason}"
        ) from None


def _solve(medium: MediumSpec, f: float) -> LambMode:
    """``solve_dispersion`` on arguments it has checked."""
    omega = TWO_PI * f
    h = 0.5 * medium.thickness

    bracket = _scan_bracket(medium, omega, h, SCAN_START, SCAN_STEP)
    if bracket is None:
        raise NoRootError(
            f"no dispersion root for {medium.name!r} at {f} Hz in phase-velocity "
            f"scan ({SCAN_START}, {medium.c_t}) m/s with step {SCAN_STEP} m/s"
        )
    a, b = bracket
    f_a = _characteristic_value(medium, omega, a, h)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        f_mid = _characteristic_value(medium, omega, mid, h)
        if f_mid == 0.0:
            a = b = mid
            break
        if f_a * f_mid < 0.0:
            b = mid
        else:
            a, f_a = mid, f_mid
    c_s = 0.5 * (a + b)
    k_a = omega / c_s

    residual = dispersion_residual(medium, omega, k_a)
    if residual > RESIDUAL_LIMIT:
        raise NoRootError(
            f"bisection failed to converge for {medium.name!r} at {f} Hz "
            f"(residual {residual:.3e})"
        )

    coeff_a, coeff_b = _null_space_coefficients(medium, omega, k_a)
    alpha, beta = _wavenumbers(medium, omega, k_a)
    resp = _surface_response(alpha, beta, k_a, coeff_a, coeff_b)
    return LambMode(
        omega=omega,
        k_a=k_a,
        c_s=c_s,
        coeff_a=coeff_a,
        coeff_b=coeff_b,
        lambda_amp=abs(resp),
        phi_offset=math.atan2(resp.imag, resp.real) + 0.5 * math.pi,
    )


def displacement_wave(
    mode: LambMode,
    medium: MediumSpec,
    drive: Sinusoid,
    z: float,
    *,
    coupling: float = 1.0,
) -> tuple[Sinusoid, float]:
    """Surface displacement sinusoid at distance ``z`` plus its arrival time.

    The drive amplitude is scaled by the transducer coupling (metres of modal
    amplitude per volt) and by the per-metre attenuation of the medium.
    """
    if z < 0.0:
        raise ValueError("distance must be >= 0")
    t_t = z / mode.c_s
    v_eff = drive.amplitude * coupling * medium.attenuation_ratio ** z
    lam = v_eff * mode.lambda_amp
    phi = -mode.omega * t_t + drive.phase - mode.k_a * z + mode.phi_offset
    return Sinusoid(lam, drive.frequency, wrap_phase(phi)), t_t


def surface_displacement(
    mode: LambMode,
    medium: MediumSpec,
    drive: Sinusoid,
    z: float,
    t: float,
    *,
    prestress: float = 0.0,
    coupling: float = 1.0,
    quiescent_ok: bool = False,
) -> float:
    """Out-of-plane surface displacement (metres) at distance ``z``, time ``t``.

    Before the wavefront arrives the plate sits at its prestress offset;
    querying that region raises unless ``quiescent_ok`` is set.
    """
    wave, t_t = displacement_wave(mode, medium, drive, z, coupling=coupling)
    if t <= t_t:
        if quiescent_ok:
            return prestress
        raise NotArrivedError(f"wave reaches z={z} m only at t={t_t:.6g} s (asked {t} s)")
    return prestress + wave.value_at(t)


def load_media(
    thickness: float, attenuation_ratio: float = MediumSpec.attenuation_ratio
) -> dict[str, MediumSpec]:
    """Load the bundled medium table as MediumSpec records at ``thickness``.

    The table stores wave speeds in m/s and densities in g/cm^3; densities
    are converted to kg/m^3 while loading.
    """
    source = resources.files("driftlab").joinpath("data/media.csv")
    text = source.read_text(encoding="utf-8")
    media = {}
    reader = csv.DictReader(text.splitlines())
    for row in reader:
        name = row["name"].strip()
        media[name] = MediumSpec(
            name=name,
            c_l=float(row["c_l_m_per_s"]),
            c_t=float(row["c_t_m_per_s"]),
            density=1000.0 * float(row["density_g_per_cm3"]),
            thickness=thickness,
            attenuation_ratio=attenuation_ratio,
        )
    return media
