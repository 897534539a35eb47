"""Core Dicke-Stark model: parameters, Hilbert-space indexing, Dicke
states, and exact Hamiltonian builders.

Conventions
-----------
Frequencies are quoted in units of the resonator frequency, so omega_r = 1
fixes the time unit 1/omega_r. The symmetric basis stores amplitudes k-major
with flat index ``k*(n_max+1) + n`` for k atomic excitations and n photons.
Every state the model prepares is permutation-symmetric, so this (N+1)(n_max+1)
space is the only one built here; the full 2^N product basis is the
validation suite's independent oracle (``validate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

# Dense matrices only: beyond this the desk-scale design assumptions break.
MAX_DIMENSION = 4096

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10


class BasisKind(Enum):
    """The one basis a space indexes: the Dicke ladder (N+1 levels) x Fock.
    Kept only as ``build_space``'s optional argument, which the benchmark's
    workloads still pass."""

    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the Dicke-Stark Hamiltonian.

    Attributes
    ----------
    n_qubits : int
        Number N of identical two-level systems.
    omega_r : float
        Resonator frequency (the unit frequency).
    omega_q : float
        Qubit transition frequency.
    coupling : float
        Qubit-resonator coupling strength lambda (>= 0; sign conventions are
        absorbed into the states).
    stark_u : float
        Strength U of the photon-number-dependent qubit shift
        (U/2N) a'a sum_j sigma_j^z.
    n_max : int
        Photon-number cutoff of the Fock space.
    """

    n_qubits: int
    omega_r: float = 1.0
    omega_q: float = 1.0
    coupling: float = 0.006
    stark_u: float = -0.5
    n_max: int = 8

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        for name in ("omega_r", "omega_q", "coupling", "stark_u"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega_r <= 0:
            raise ValueError(f"omega_r must be positive, got {self.omega_r}")
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")


def default_n_max(n_initial: int, n_qubits: int) -> int:
    """Default photon cutoff for a run whose largest initial photon number is
    ``n_initial``: the protocols reach at most n_initial + 2 photons and
    leakage beyond is perturbative, so n_initial + N + 4 leaves a wide margin
    (cutoff-doubling checks confirm 1e-8 stability)."""
    return n_initial + n_qubits + 4


@dataclass(frozen=True)
class HilbertSpace:
    """Indexing of the symmetric basis, with bijective (k, n) <-> flat maps."""

    n_qubits: int
    n_max: int
    dimension: int

    def index(self, k: int, n: int) -> int:
        """Flat index of |D_N^k> x |n>."""
        if not (0 <= k <= self.n_qubits):
            raise ValueError(f"k={k} outside 0..{self.n_qubits}")
        if not (0 <= n <= self.n_max):
            raise ValueError(f"n={n} outside 0..{self.n_max}")
        return k * (self.n_max + 1) + n

    def label(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`index`: (k, n) for a flat index."""
        if not (0 <= index < self.dimension):
            raise ValueError(f"index {index} outside 0..{self.dimension - 1}")
        return divmod(index, self.n_max + 1)

    def labels(self) -> list[tuple[int, int]]:
        """All (k, n) labels in flat-index order."""
        return [divmod(i, self.n_max + 1) for i in range(self.dimension)]

    def excitation_numbers(self) -> tuple[np.ndarray, np.ndarray]:
        """(k, n) of every flat index as two read-only float arrays: the
        diagonals of N_q and a'a. Computed once per space."""
        return self._excitation_numbers

    def parities(self) -> np.ndarray:
        """Excitation parity (k + n) mod 2 of every flat index, as a read-only
        array computed once per space. H conserves (-1)^(k+n): its
        coupling term (a + a') Jx flips both."""
        return self._parities

    @cached_property
    def _excitation_numbers(self) -> tuple[np.ndarray, np.ndarray]:
        k, n = np.divmod(np.arange(self.dimension), self.n_max + 1)
        return _read_only(k.astype(float)), _read_only(n.astype(float))

    @cached_property
    def _parities(self) -> np.ndarray:
        k, n = np.divmod(np.arange(self.dimension), self.n_max + 1)
        return _read_only((k + n) % 2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _owned(m, dtype) -> np.ndarray:
    """``m`` as a read-only ``dtype`` array. A read-only array that owns its
    data is taken as is (the builder and the kernel hand over fresh arrays);
    any other array is copied, so the caller's array stays the caller's and
    no view of it can change the result."""
    owned = isinstance(m, np.ndarray) and m.base is None and not m.flags.writeable
    return _read_only(m if owned and m.dtype == dtype else np.array(m, dtype=dtype))


@dataclass(frozen=True)
class Operator:
    """Dense matrix over a HilbertSpace; treated as immutable. A real matrix
    is kept real (float64), so a real symmetric H takes the real ``eigh``;
    a complex one stays complex."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _owned(self.matrix, complex if np.iscomplexobj(self.matrix) else float)
        if m.shape != (self.space.dimension, self.space.dimension):
            raise ValueError(
                f"matrix shape {m.shape} does not match dimension {self.space.dimension}"
            )
        object.__setattr__(self, "matrix", m)

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def require_hermitian(self, tol: float = HERMITICITY_TOL) -> None:
        defect = self.hermiticity_defect()
        if not defect <= tol:
            raise ValueError(f"operator is not Hermitian: max|M - M^dag| = {defect:.3e}")


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over a HilbertSpace; immutable.
    The amplitudes are copied unless they are a read-only array that owns
    its data."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = _owned(self.amplitudes, complex)
        if a.shape != (self.space.dimension,):
            raise ValueError(
                f"amplitude shape {a.shape} does not match dimension {self.space.dimension}"
            )
        norm = float(np.linalg.norm(a))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", a)

    def population(self, k: int, n: int) -> float:
        return float(abs(self.amplitudes[self.space.index(k, n)]) ** 2)

    @cached_property
    def populations(self) -> np.ndarray:
        """|amplitude|^2 of every flat index, read-only, computed once per
        state."""
        return _read_only(np.abs(self.amplitudes) ** 2)


def build_space(params: ModelParams, kind: BasisKind = BasisKind.SYMMETRIC) -> HilbertSpace:
    """Construct the symmetric-basis Hilbert space for these parameters.
    ``kind`` admits only BasisKind.SYMMETRIC."""
    if kind is not BasisKind.SYMMETRIC:
        raise ValueError(f"unknown basis kind {kind!r}")
    dim = (params.n_qubits + 1) * (params.n_max + 1)
    if dim > MAX_DIMENSION:
        raise ValueError(
            f"dimension {dim} exceeds the supported maximum {MAX_DIMENSION};"
            " reduce n_qubits or n_max"
        )
    return HilbertSpace(n_qubits=params.n_qubits, n_max=params.n_max, dimension=dim)


def ladder_coupling(k: int, n_qubits: int) -> float:
    """Dicke-ladder matrix element f(k) = sqrt((k+1)(N-k)) of the collective
    flip between k and k+1 excitations; zero outside 0 <= k < N, so there is
    no coupling out of the top of the ladder."""
    if k < 0 or k >= n_qubits:
        return 0.0
    return math.sqrt((k + 1) * (n_qubits - k))


def build_hamiltonian(params: ModelParams, space: HilbertSpace) -> Operator:
    """Exact Dicke-Stark Hamiltonian on the symmetric space, as a real
    symmetric matrix:

        H = (omega_q/2) Jz + omega_r a'a + (lambda/sqrt(N)) (a + a') Jx
            + (U/2N) a'a Jz

    It is written from its closed form, which is affine in omega_q: H = H(0) + omega_q Jz/2. The diagonal entry of H(0) at (k, n)
    is (nU/N)(k - N/2) + n omega_r, and its coupling element between (k, n)
    and (k+1, n+1), and between (k, n+1) and (k+1, n), equals
    lambda f(k) sqrt(n+1) / sqrt(N). H(0) and the diagonal k - N/2 of Jz/2
    are cached per (N, n_max, lambda, U, omega_r) (``_affine_parts``), so a
    frequency scan copies H(0) and adds one diagonal per point. The
    validation suite checks it against the operator sums above assembled with
    Kronecker products on the full product basis, an independent route.

    The matrix is not checked for Hermiticity here: the one ``eigh`` route
    (``dynamics.propagate`` and ``evolve``) checks the H it is given, once.
    """
    n = params.n_qubits
    h0, jz_half = _affine_parts(n, params.n_max, params.coupling, params.stark_u, params.omega_r)
    h = h0.copy()
    h.flat[:: h.shape[0] + 1] += params.omega_q * jz_half
    return Operator(space, _read_only(h))


@lru_cache(maxsize=4)
def _affine_parts(
    n: int, n_max: int, coupling: float, stark_u: float, omega_r: float
) -> tuple[np.ndarray, np.ndarray]:
    """(H(0), diagonal of Jz/2) of the symmetric-basis H, both read-only. A
    scan needs one entry; the bound keeps the memory flat."""
    levels = n_max + 1
    k, nph = np.divmod(np.arange((n + 1) * levels), levels)
    jz_half = k - n / 2
    h0 = np.diag(nph * stark_u / n * jz_half + nph * omega_r)
    # (k, n) -> (k+1, n+1) and (k, n+1) -> (k+1, n) for k < N, n < n_max
    lower = np.flatnonzero((k < n) & (nph < n_max))
    f = np.sqrt((k[lower] + 1.0) * (n - k[lower]))
    g = (coupling / math.sqrt(n)) * (f * np.sqrt(nph[lower] + 1.0))
    for i, j in ((lower, lower + levels + 1), (lower + 1, lower + levels)):
        h0[i, j] = h0[j, i] = g
    return _read_only(h0), _read_only(jz_half)


def dicke_state(space: HilbertSpace, k: int, n: int) -> StateVector:
    """The state |D_N^k> x |n>, a unit basis vector."""
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(k, n)] = 1.0
    return StateVector(space, _read_only(amps))

