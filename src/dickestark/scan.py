"""Qubit-frequency sweeps: evolve an initial state for a transition-specific
duration at every grid point, record excitation observables, and locate
resonance peaks.

The scan axis is the dimensionless ratio (omega_r - omega_q) / omega_r.
Every ratio, its omega_q and the duration are checked before the first
build. The kernel's per-scan checks (``dynamics._Sector``) run once, on the
first point's H. Each point then costs one build, of the model retuned to
its omega_q without re-running the model's checks (``model._retuned``), and
one ``eigh`` of its sector block (``_Sector.eigh``), written into one row of
a SCAN_CHUNK-row table of eigenvalues and one of eigenvectors. Each full
table, and the last partial one, is evaluated at once: its final amplitudes
are one call of the kernel's final-state route (``dynamics._evolved``) on
the stacked eigenpairs, and its populations, cutoff guard and excitation
numbers are batched array products, in grid order, so repeated runs with
identical inputs produce bit-identical output. A final state with more
than CUTOFF_POPULATION in the top photon level stops the scan with
CutoffExceededError, which names the first such ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .dynamics import CUTOFF_POPULATION, CutoffExceededError, _evolved, _Sector
from .dynamics import observables, propagate  # not called here: perfbench/tracer.py wraps these names
from .effective import ResonanceTarget, omega_q_from_ratio
from .model import HilbertSpace, ModelParams, StateVector, _retuned, build_hamiltonian

# Bounds the grid's memory and run time (each point diagonalizes one H).
MAX_SCAN_POINTS = 100_001
# Points per eigenpair table, evaluated together. On the scan benchmark
# (2 vCPUs, 3 alternating rounds), 8 -> 32 gained about 4 % in ops_per_s for
# +0.3 MB of peak RSS; 64 was within noise of 32 and took another 0.5 MB.
SCAN_CHUNK = 32
# The defaults of a scan job: grid points, and the minimum peak prominence.
DEFAULT_SCAN_POINTS = 801
DEFAULT_MIN_HEIGHT = 0.5


@dataclass(frozen=True)
class ScanCurve:
    """Final-time observables against the frequency-ratio grid."""

    ratios: np.ndarray
    nq: np.ndarray
    nph: np.ndarray
    duration: float

    def __post_init__(self) -> None:
        for arr in (self.ratios, self.nq, self.nph):
            arr.flags.writeable = False


@dataclass(frozen=True)
class Peak:
    location: float
    height: float


def resonance_scan(
    psi0: StateVector,
    ratios: np.ndarray,
    duration: float,
    params: ModelParams,
    space: HilbertSpace,
) -> ScanCurve:
    """For each grid ratio, rebuild the Hamiltonian with that qubit frequency,
    evolve ``psi0`` for ``duration``, and record the mean atomic and photonic
    excitation numbers at the final time. Raises CutoffExceededError at the
    first point whose final state reaches the top photon level. Per chunk,
    the final amplitudes are one stacked ``_evolved`` call, and the
    populations are re^2 + im^2."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        raise ValueError("grid must be nonempty")
    with np.errstate(over="ignore"):  # an overflow is refused below, naming its ratio
        omega_qs = omega_q_from_ratio(ratios, params)
    bad = np.flatnonzero(~np.isfinite(omega_qs))  # a non-finite ratio too
    if bad.size:
        ratio, omega_q = ratios[bad[0]].item(), omega_qs[bad[0]].item()
        raise ValueError(f"scan ratio {ratio!r} gives omega_q {omega_q!r}; both must be finite")
    if not np.all(np.diff(ratios) > 0):
        raise ValueError("grid must be strictly increasing")
    if psi0.space != space:
        raise ValueError("initial state does not live in the scan space")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration}")
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    hamiltonians = (build_hamiltonian(_retuned(params, w), space) for w in omega_qs.tolist())
    first = next(hamiltonians)
    sector = _Sector(first, psi0.amplitudes)  # every point's H shares the first one's off-diagonal
    m = sector.kept.size
    values, vectors = np.empty((SCAN_CHUNK, m)), np.empty((SCAN_CHUNK, m, m))
    psi = psi0.amplitudes[sector.kept, None]
    ks, ns = (numbers[sector.kept] for numbers in space.excitation_numbers())
    readouts = np.column_stack([ks, ns, ns == space.n_max])  # nq, nph and the top photon level's population
    curve = np.empty((ratios.size, 3))
    points = chain([first], hamiltonians)
    for start in range(0, ratios.size, SCAN_CHUNK):
        size = min(SCAN_CHUNK, ratios.size - start)
        for row, h in enumerate(islice(points, size)):
            values[row], vectors[row] = sector.eigh(h)
        final = _evolved(values[:size], vectors[:size], psi, duration)[..., 0]
        pops = final.real**2 + final.imag**2
        chunk = np.matmul(pops, readouts, out=curve[start : start + size])
        over = np.flatnonzero(~(chunk[:, 2] <= CUTOFF_POPULATION))  # a NaN population is over too
        if over.size:
            raise CutoffExceededError(f"scan ratio {ratios[start + over[0]].item()!r}", float(chunk[over[0], 2]))
    return ScanCurve(ratios=ratios.copy(), nq=curve[:, 0].copy(), nph=curve[:, 1].copy(), duration=duration)


def detect_peaks(ratios: np.ndarray, values: np.ndarray, min_height: float) -> list[Peak]:
    """Local maxima rising at least ``min_height`` above their surroundings
    (topographic prominence, so a nonzero baseline does not drown detection),
    refined to sub-grid accuracy with a three-point parabola."""
    ratios = np.asarray(ratios, dtype=float)
    values = np.asarray(values, dtype=float)
    if ratios.size == 0:
        raise ValueError("curve must be nonempty")
    peaks = []
    for idx in _prominent_maxima(values, min_height):
        location, height = _parabolic_refine(ratios, values, idx)
        peaks.append(Peak(location=location, height=height))
    return peaks


def _prominent_maxima(y: np.ndarray, min_prominence: float) -> list[int]:
    """Indices of the interior local maxima of ``y`` whose topographic
    prominence is at least ``min_prominence``. A flat top counts once, at the
    middle sample (lower middle for an even run). A maximum's prominence is
    its height above the higher of its two bases, the lowest value on each
    side before the curve first exceeds the maximum or ends."""
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])  # runs of equal values
    ends = np.r_[starts[1:] - 1, y.size - 1]
    v = y[starts]
    found = []
    for j in np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1:
        bases = []
        for side in (y[starts[j] - 1 :: -1], y[ends[j] + 1 :]):
            higher = np.flatnonzero(~(side <= v[j]))  # a NaN also ends the side
            bases.append(side[: higher[0] if higher.size else side.size].min())
        if v[j] - max(bases) >= min_prominence:
            found.append(int(starts[j] + ends[j]) // 2)
    return found


def _parabolic_refine(x: np.ndarray, y: np.ndarray, idx: int) -> tuple[float, float]:
    if idx == 0 or idx == len(x) - 1:
        return float(x[idx]), float(y[idx])
    y0, y1, y2 = y[idx - 1], y[idx], y[idx + 1]
    denom = y0 - 2 * y1 + y2
    if denom == 0:
        return float(x[idx]), float(y[idx])
    shift = 0.5 * (y0 - y2) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    step = 0.5 * (x[idx + 1] - x[idx - 1])
    location = float(x[idx] + shift * step)
    height = float(y1 - 0.25 * (y0 - y2) * shift)
    return location, height


def scan_grid(window: tuple[float, float], points: int = DEFAULT_SCAN_POINTS) -> np.ndarray:
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"window must be finite with hi > lo, got {window}")
    if not 2 <= points <= MAX_SCAN_POINTS:
        raise ValueError(f"points must lie in 2..{MAX_SCAN_POINTS}, got {points}")
    return np.linspace(lo, hi, points)


@dataclass(frozen=True)
class PeakReport:
    """Detected peak against the closed-form prediction for a scan's target."""

    location: float
    height: float
    predicted_location: float
    abs_error: float


def peak_report(
    curve: ScanCurve, target: ResonanceTarget, predicted_ratio: float, min_height: float = DEFAULT_MIN_HEIGHT
) -> PeakReport:
    """The strongest detected peak, paired with the predicted location of the
    target resonance."""
    peaks = detect_peaks(curve.ratios, curve.nq, min_height)
    if not peaks:
        raise ValueError(f"no peak above prominence {min_height} for {target.label()}")
    best = max(peaks, key=lambda p: p.height)
    return PeakReport(
        location=best.location,
        height=best.height,
        predicted_location=predicted_ratio,
        abs_error=abs(best.location - predicted_ratio),
    )
