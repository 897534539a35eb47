"""Qubit-frequency sweeps: evolve an initial state for a transition-specific
duration at every grid point, record excitation observables, and locate
resonance peaks.

The scan axis is the dimensionless ratio (omega_r - omega_q) / omega_r.
Grid points are independent; evaluation order is the grid order, so repeated
runs with identical inputs produce bit-identical output. Every point is
checked against the photon cutoff: a final state with more than
CUTOFF_POPULATION in the top photon level stops the scan with
CutoffExceededError, which names the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import observables, propagate, require_below_cutoff
from .effective import ResonanceTarget, omega_q_from_ratio
from .model import HilbertSpace, ModelParams, StateVector, build_hamiltonian

# Bounds the grid's memory and run time (each point diagonalizes one H).
MAX_SCAN_POINTS = 100_001


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
    first point whose final state reaches the top photon level."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        raise ValueError("grid must be nonempty")
    if not np.all(np.diff(ratios) > 0):
        raise ValueError("grid must be strictly increasing")
    if psi0.space != space:
        raise ValueError("initial state does not live in the scan space")
    nq = np.empty(ratios.size)
    nph = np.empty(ratios.size)
    for i, ratio in enumerate(ratios.tolist()):
        tuned = replace(params, omega_q=omega_q_from_ratio(ratio, params))
        h = build_hamiltonian(tuned, space)
        final = propagate(h, psi0, duration)
        require_below_cutoff(final.populations, space, f"scan ratio {ratio!r}")
        nq[i], nph[i] = observables(final)
    return ScanCurve(ratios=ratios.copy(), nq=nq, nph=nph, duration=duration)


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


def scan_grid(window: tuple[float, float], points: int = 801) -> np.ndarray:
    lo, hi = window
    if not (hi > lo):
        raise ValueError(f"window must satisfy hi > lo, got {window}")
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
    curve: ScanCurve, target: ResonanceTarget, predicted_ratio: float, min_height: float = 0.5
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
