"""Exact time evolution under time-independent Hamiltonians, observable
extraction, frame transforms, fidelities, and the photon-cutoff guard.

Propagation is spectral: U(t) = V exp(-i w t) V^T from the eigendecomposition
of the real symmetric H (an ``Operator`` is real), exact up to linear-algebra
error, so no integrator tolerances enter the production paths. Every state
lives in the symmetric (Dicke ladder x Fock) space. Each H is diagonalized
once, and only where the state lives: H conserves the excitation parity
(-1)^(k+n) (``HilbertSpace.parities``), so the kernel keeps the parity
sector(s) the initial amplitudes occupy and runs one real ``eigh`` on that
block. If H couples the kept sectors to the rest, the block is the whole space.

``_Sector`` holds those sectors. It checks the symmetry of H (the builder
does not) and that H leaves the kept block invariant. Both read only the
off-diagonal of H, which all the H of a frequency scan, and all the steps of
a protocol, share, so a scan and a protocol run them once; ``propagate``
runs them once per H, and ``evolve`` unless it is given them.
``_Sector.eigh`` diagonalizes an H's kept block on the cached index sets:
the package's one ``eigh`` outside the validation suite's product-basis
oracle. The kernel's math, V exp(-i w t) V^T psi on those eigenpairs
(w, V), lives here only, as two routes in real arithmetic (``_times``):
``_evolved``, the final state of one H or of a stack of H (``propagate`` and
``validate`` through ``_propagated``, the scan per table of points), and
``_on_grid``, a uniform time grid in blocks (``evolve``, and ``validate``'s
conservation check).

``evolve`` walks its uniform time grid in blocks of about EVOLVE_BLOCK
samples. The phases exp(-i w t_s) are block products of about
2 sqrt(samples) complex exponentials per eigenvalue (``_on_grid``), exact
to the rounding of w t itself; each block's sector amplitudes live only
until its populations (re^2 + im^2) and excitation numbers are written into
the trajectory's preallocated full-space arrays. ``Trajectory`` keeps those
arrays and the final state, the last sample's amplitudes, but no other
sample's. Nothing is renormalized: ``Trajectory`` checks the norm of every
sample, so its drift check measures the kernel's unitarity. A block's
populations are staged in one small (block samples x dimension) array, zero
off the kept sector, and copied into the populations as whole rows, so
nothing zeroes the populations first: ``evolve`` called alone allocates them
uninitialized, and a protocol run hands each step a row of one (steps,
samples, dimension) block (``_out``) as it stands, so a run holds steps x
samples x dimension floats in one block, and each step's ``Trajectory`` is a
read-only view that keeps the whole block alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    HilbertSpace,
    Operator,
    StateVector,
    NORM_TOL,
    _read_only,
)

DEFAULT_SAMPLES = 400
# A trajectory keeps every sample's full-space populations (samples x dimension
# floats), and a protocol run all its steps' in one block (steps x samples x
# dimension), whose buffer the process keeps for later runs, so memory grows
# linearly in samples: 5x the largest sampling in use (2000).
MAX_SAMPLES = 10_001
# Samples per block of ``evolve``'s time grid, in whole rows of the block
# product: a block's phases and amplitudes stay small enough to be reused
# from the allocator's free memory instead of being mapped afresh.
EVOLVE_BLOCK = 256

CUTOFF_POPULATION = 1e-6


class CutoffExceededError(RuntimeError):
    """More than CUTOFF_POPULATION reached the top photon level, so the Fock
    cutoff truncates the dynamics. ``where`` names the step or scan point."""

    def __init__(self, where: str, population: float):
        self.population = population
        super().__init__(
            f"{where}: population {population:.2e} in the top photon level"
            f" exceeds {CUTOFF_POPULATION}; raise n_max"
        )


def require_below_cutoff(populations: np.ndarray, space: HilbertSpace, where: str) -> None:
    """Raise CutoffExceededError if any row of the full-space ``populations``
    (one row per sample, or one state's populations) holds more than
    CUTOFF_POPULATION in the top photon level; a NaN population raises too."""
    top = float(np.max(populations[..., space.excitation_numbers()[1] == space.n_max].sum(axis=-1)))
    if not top <= CUTOFF_POPULATION:
        raise CutoffExceededError(where, top)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled evolution record over a HilbertSpace.

    ``populations[i, j]`` is the probability of flat index j at sample i;
    ``nq`` and ``nph`` are the mean atomic and photonic excitation numbers
    per sample, and ``final`` the state at the last sample. Construction
    checks that every sample's norm is 1 to within NORM_TOL.
    """

    space: HilbertSpace
    times: np.ndarray
    populations: np.ndarray
    nq: np.ndarray
    nph: np.ndarray
    final: StateVector

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        # row sums, as one matrix-vector product: faster than sum(axis=1) on short rows
        norms = np.sqrt(self.populations @ np.ones(self.space.dimension))
        drift = float(np.max(np.abs(norms - 1.0)))
        if not drift <= NORM_TOL:
            raise ValueError(f"trajectory norm drift {drift:.3e} exceeds {NORM_TOL}")
        for arr in (self.times, self.populations, self.nq, self.nph):
            arr.flags.writeable = False


class _Sector:
    """The parity sector(s) that a vector occupies under H, read through the
    cached index sets of ``_sector``, after H's symmetry check and the check
    that H leaves them invariant: valid for every H with H's off-diagonal."""

    def __init__(self, h: Operator, amplitudes: np.ndarray):
        h.require_hermitian()
        occupied = np.zeros(2, dtype=bool)
        occupied[h.space.parities()[amplitudes != 0]] = True
        self.kept, self.block, coupling = _sector(h.space, *occupied.tolist())
        if coupling is not None and h.matrix.take(coupling).any():
            self.kept, self.block, _ = _sector(h.space, True, True)  # the kept sectors are not invariant under H
        self.dimension = h.space.dimension

    def eigh(self, h: Operator) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of H's kept block, the package's one
        ``eigh``, for an H whose off-diagonal this sector was checked on."""
        return np.linalg.eigh(h.matrix.take(self.block).reshape(self.kept.size, self.kept.size))

    def whole(self, sector: np.ndarray) -> np.ndarray:
        """The kept amplitudes ``sector`` over the whole space, zero elsewhere, in a new array."""
        out = np.zeros(self.dimension, dtype=complex)
        out[self.kept] = sector
        return out


def _evolved(values: np.ndarray, vectors: np.ndarray, psi: np.ndarray, t: float) -> np.ndarray:
    """V exp(-i w t) V^T psi: the kept amplitudes of exp(-i H t) applied to
    the kept amplitudes ``psi``, one complex column (m, 1), from H's sector
    eigenpairs (w, V). ``values`` (..., m) and ``vectors`` (..., m, m) may
    stack several H on leading axes, which the result (..., m, 1) keeps."""
    coeffs = _times(vectors.swapaxes(-1, -2), psi)
    return _times(vectors, np.exp(-1j * (values[..., None] * t)) * coeffs)


def _on_grid(values: np.ndarray, vectors: np.ndarray, psi: np.ndarray, duration: float, samples: int):
    """Yield (start, amplitudes) blocks of V exp(-i w t_s) V^T psi, as for
    ``_evolved`` with one H, for t_s = s * duration / (samples - 1), the
    times of np.linspace(0, duration, samples): ``amplitudes`` has one row
    per kept index and one column per time from t_start on, and the blocks
    cover the grid in order.

    With b = ceil(sqrt(samples)) and s = a b + r, each phase is the product
    of a row factor exp(-i w (a b) step) and a column factor exp(-i w r step),
    so about 2 sqrt(samples) complex exponentials per eigenvalue replace
    ``samples`` of them. A block holds EVOLVE_BLOCK // b whole rows a (at
    least one), the last block what is left. Rounding (a b) step + r step
    differs from rounding s step by a few ulps of w t, so each phase agrees
    with the direct exp(-i w t_s) to within a small multiple of
    2^-52 max(1, max|w t|). The last column's phases are computed directly,
    exactly as ``_evolved`` does at t = duration.
    """
    coeffs = _times(vectors.T, psi)
    step = duration / (samples - 1)
    b = math.isqrt(samples - 1) + 1  # ceil(sqrt(samples))
    rows = np.exp(-1j * np.multiply.outer(values, np.arange(0, samples, b) * step)) * coeffs
    cols = np.exp(-1j * np.multiply.outer(values, np.arange(b) * step))
    per_block = max(1, EVOLVE_BLOCK // b)
    for first in range(0, rows.shape[1], per_block):
        start = first * b
        block = rows[:, first : first + per_block, None] * cols[:, None, :]
        block = block.reshape(values.size, -1)[:, : samples - start]
        if start + block.shape[1] == samples:
            block[:, -1:] = np.exp(-1j * (values[:, None] * duration)) * coeffs
        yield start, _times(vectors, block)


@lru_cache(maxsize=8)
def _sector(space: HilbertSpace, even: bool, odd: bool):
    """Read-only index sets of the given occupied parities of ``space``,
    computed once per (space, parities): the kept flat indices, the flat
    (C-order) matrix positions of the kept block, and those from kept rows to
    dropped columns (None when nothing is dropped)."""
    keep = np.array([even, odd])[space.parities()]
    kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
    rows = kept[:, None] * space.dimension
    block = (rows + kept).ravel()
    coupling = (rows + dropped).ravel() if dropped.size else None
    for a in (kept, block, coupling):
        if a is not None:
            a.flags.writeable = False
    return kept, block, coupling


def _times(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real m (..., r, c) and a complex z (..., c, k), in real
    arithmetic: z's real and imaginary parts are multiplied as interleaved
    real columns."""
    return (m @ z.view(np.float64)).view(np.complex128)


def _propagated(h: Operator, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) applied to ``amplitudes``, over the whole space, from one
    ``eigh`` of H's occupied sector: ``propagate`` without its
    ``StateVector`` norm check."""
    sector = _Sector(h, amplitudes)
    values, vectors = sector.eigh(h)
    return sector.whole(_evolved(values, vectors, amplitudes[sector.kept, None], t)[:, 0])


def propagate(h: Operator, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t) |psi0>, without building the matrix exp(-i H t)."""
    if psi0.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return StateVector(h.space, _read_only(_propagated(h, psi0.amplitudes, float(t))))


def observables(psi: StateVector) -> tuple[float, float]:
    """(mean atomic excitation, mean photon number) of a state."""
    ks, ns = psi.space.excitation_numbers()
    return float(ks @ psi.populations), float(ns @ psi.populations)


def _require_samples(samples: int) -> None:
    """Refuse a time grid of fewer than 2 or more than MAX_SAMPLES samples."""
    if not 2 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in 2..{MAX_SAMPLES}, got {samples}")


def evolve(
    psi0: StateVector,
    h: Operator,
    duration: float,
    samples: int = DEFAULT_SAMPLES,
    sector: _Sector | None = None,
    _out: np.ndarray | None = None,
) -> Trajectory:
    """Evolve |psi0> under H for ``duration``, sampled uniformly on
    [0, duration] (np.linspace). ``sector``, a ``_Sector``, is checked on
    this H unless given. The populations go into a new uninitialized
    array, or into ``_out``, which only ``protocol.run_protocol`` passes: a
    row of its run block, whatever it holds, that the trajectory makes
    read-only. Every element of it is written.

    Only the occupied parity sector is evaluated, about EVOLVE_BLOCK samples
    at a time: a block's amplitudes come from ``_on_grid``, its populations
    are re^2 + im^2 of those and nq and nph are read from the populations.
    The populations go into the kept columns of one staging array, zeroed
    once, whose rows are copied whole into the trajectory's; nq and nph are
    written straight into theirs. The amplitudes are
    dropped with their block, except the last sample's: the final state,
    whose phases are those of ``propagate(H, psi0, duration)`` and which
    differs from it only by the rounding of the matrix product. No sample is
    renormalized; ``Trajectory`` checks every norm."""
    if psi0.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    _require_samples(samples)
    if not (np.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    sector = sector or _Sector(h, psi0.amplitudes)
    kept = sector.kept
    ks, ns = (numbers[kept] for numbers in h.space.excitation_numbers())
    populations = np.empty((samples, h.space.dimension)) if _out is None else _out
    nq, nph = np.empty(samples), np.empty(samples)
    staged = None
    for start, amplitudes in _on_grid(*sector.eigh(h), psi0.amplitudes[kept, None], duration, samples):
        last = amplitudes[:, -1].copy()  # the last block's is the final state
        parts = amplitudes.view(np.float64)  # (re, im) per amplitude
        np.square(parts, out=parts)
        block = parts[:, 0::2] + parts[:, 1::2]  # (kept, block samples)
        stop = start + block.shape[1]
        if staged is None:  # the first block is the largest; its dropped columns stay 0.0
            staged = np.zeros((block.shape[1], h.space.dimension))
        rows = staged[: block.shape[1]]
        rows[:, kept] = block.T
        populations[start:stop] = rows
        np.matmul(ks, block, out=nq[start:stop])
        np.matmul(ns, block, out=nph[start:stop])
    return Trajectory(
        space=h.space,
        times=np.linspace(0.0, duration, samples),
        populations=populations,
        nq=nq,
        nph=nph,
        final=StateVector(h.space, _read_only(sector.whole(last))),
    )


def fidelity(psi: StateVector, target: StateVector) -> float:
    """|<target|psi>|^2."""
    if psi.space != target.space:
        raise ValueError("states live in different spaces")
    return float(abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2)


def to_rotating_frame(psi: StateVector, h: Operator, t: float) -> StateVector:
    """Apply R'(t) = exp(+i H0 t), where H0 is the diagonal (free) part of H:
    the interaction-picture image of a lab-frame state. Populations are
    untouched; only phases rotate."""
    if psi.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    diag = np.diagonal(h.matrix)
    amps = psi.amplitudes * np.exp(1j * diag * t)
    return StateVector(psi.space, _read_only(amps))
