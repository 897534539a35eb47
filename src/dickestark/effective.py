"""Effective-theory layer: first- and second-order couplings, detunings,
Stark shifts, resonance conditions, the detuned-Rabi lineshape, and
selectivity (rotating-wave validity) diagnostics.

All closed forms below refer to the interaction picture of the Dicke-Stark
Hamiltonian with respect to its diagonal part. A coupling term that raises
the atomic excitation k -> k+1 while lowering the photon number n+1 -> n
oscillates at

    delta_minus(n, k) = omega_q - omega_r + U (n - k + N/2) / N

and the pair-creating term (k -> k+1, n -> n+1) oscillates at

    delta_plus(n, k) = omega_r + omega_q + U (n + k + 1 - N/2) / N,

both with amplitude Omega(n, k) = lambda f(k) sqrt(n+1) / sqrt(N).
Zeroing one of these frequencies for a single (n0, k0) while every other
channel stays fast yields a selective two-level interaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import HilbertSpace, ModelParams, Operator, ladder_coupling

# Denominators closer to zero than this mark a degenerate parameter point.
DEGENERACY_FLOOR = 1e-9

# |delta| / Omega below this flags a competing channel as a selectivity risk:
# the detuned-Rabi amplitude 4 Omega^2 / (4 Omega^2 + delta^2) then allows
# population leakage above the percent level.
SELECTIVITY_RATIO = 10.0

ROOT_TOLERANCE = 1e-10


class DegenerateDetuningError(ValueError):
    """A first-order detuning required by a second-order coefficient is
    numerically zero; the parameter point is rejected rather than regularized."""


class ResonanceBracketError(ValueError):
    """The root bracket for a second-order resonance does not enclose a sign
    change (or the solve failed to converge)."""


def rabi_frequency(n: int, k: int, params: ModelParams) -> float:
    """First-order coupling Omega(n, k) = lambda f(k) sqrt(n+1) / sqrt(N) of
    the transition |D^k+1, .> <-> |D^k, .> moving one photon."""
    if k == params.n_qubits:
        raise ValueError(f"k={k} has no upward coupling (f(N) = 0)")
    if not (0 <= k < params.n_qubits):
        raise ValueError(f"k={k} outside 0..{params.n_qubits - 1}")
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    return _omega(n, k, params)


def _omega(n: int, k: int, params: ModelParams) -> float:
    """Omega(n, k), extended by zero outside the physical index range so the
    second-order sums need no explicit boundary guards."""
    if n < 0:
        return 0.0
    f = ladder_coupling(k, params.n_qubits)
    return params.coupling * f * math.sqrt(n + 1) / math.sqrt(params.n_qubits)


def delta_minus(n: int, k: int, params: ModelParams) -> float:
    n_q = params.n_qubits
    return params.omega_q - params.omega_r + params.stark_u * (n - k + n_q / 2) / n_q


def delta_plus(n: int, k: int, params: ModelParams) -> float:
    n_q = params.n_qubits
    return params.omega_r + params.omega_q + params.stark_u * (n + k + 1 - n_q / 2) / n_q


@dataclass(frozen=True)
class ResonanceTarget:
    """A selective transition to tune to: order 1 couples (k0+1, n0) with
    (k0, n0+1) ('tc') or (k0, n0) with (k0+1, n0+1) ('atc'); order 2 moves
    two excitations, pairing (k0+2, n0) with (k0, n0+2) or (k0, n0) with
    (k0+2, n0+2)."""

    kind: str  # "tc" | "atc"
    order: int  # 1 | 2
    n0: int
    k0: int

    def __post_init__(self) -> None:
        if self.kind not in ("tc", "atc"):
            raise ValueError(f"kind must be 'tc' or 'atc', got {self.kind!r}")
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.n0 < 0 or self.k0 < 0:
            raise ValueError("n0 and k0 must be non-negative")

    def pair(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two (k, n) cells the selected interaction couples."""
        m = self.order
        if self.kind == "tc":
            return (self.k0 + m, self.n0), (self.k0, self.n0 + m)
        return (self.k0, self.n0), (self.k0 + m, self.n0 + m)

    def validate(self, params: ModelParams) -> None:
        if self.k0 + self.order > params.n_qubits:
            raise ValueError(
                f"k0={self.k0} with order {self.order} exceeds N={params.n_qubits}"
            )
        for _, n in self.pair():
            if n > params.n_max:
                raise ValueError(f"target needs photon number {n} > n_max={params.n_max}")

    def label(self) -> str:
        prefix = {"tc": "TC", "atc": "aTC"}[self.kind]
        sup = "" if self.order == 1 else "(2)"
        return f"{prefix}{sup}({self.n0},{self.k0})"


def solve_first_order_resonance(target: ResonanceTarget, params: ModelParams) -> float:
    """The unique omega_q zeroing delta_minus('tc') or delta_plus('atc') at
    (n0, k0); params.omega_q is ignored."""
    if target.order != 1:
        raise ValueError("target must be first order")
    # each detuning is omega_q plus its value at omega_q = 0
    delta = delta_minus if target.kind == "tc" else delta_plus
    return 0.0 - delta(target.n0, target.k0, replace(params, omega_q=0.0))


def _ratio_over(num: float, den: float) -> float:
    if num == 0.0:
        return 0.0
    if abs(den) < DEGENERACY_FLOOR:
        raise DegenerateDetuningError(
            f"first-order detuning {den:.3e} below the {DEGENERACY_FLOOR} floor"
        )
    return num / den


def stark_shift(n: int, k: int, params: ModelParams) -> float:
    """Second-order diagonal energy correction Delta(n, k) of the cell (k, n),
    summing the level repulsion from its four dispersive first-order channels
    (terms whose coupling vanishes at the index boundary drop out)."""
    return (
        _ratio_over(_omega(n, k - 1, params) ** 2, delta_minus(n, k - 1, params))
        + _ratio_over(_omega(n - 1, k - 1, params) ** 2, delta_plus(n - 1, k - 1, params))
        - _ratio_over(_omega(n - 1, k, params) ** 2, delta_minus(n - 1, k, params))
        - _ratio_over(_omega(n, k, params) ** 2, delta_plus(n, k, params))
    )


@dataclass(frozen=True)
class SecondOrderCoeffs:
    """Second-order couplings and oscillation frequencies at (n, k).

    ``omega_*`` are the two-excitation coupling amplitudes (tc: two photons
    absorbed, atc: two created, r: photon-conserving double atomic flip,
    a: atomic-state-conserving photon pair), ``delta_*`` their bare
    oscillation frequencies, and ``tilde_*`` the same frequencies corrected
    by the Stark-shift differences of the coupled cells.
    """

    n: int
    k: int
    stark_shift: float
    omega_tc2: float
    omega_atc2: float
    omega_r2: float
    omega_a2: float
    delta_tc2: float
    delta_atc2: float
    delta_r2: float
    delta_a2: float
    tilde_tc2: float
    tilde_atc2: float
    tilde_r2: float
    tilde_a2: float


def second_order_coeffs(n: int, k: int, params: ModelParams) -> SecondOrderCoeffs:
    om = lambda nn, kk: _omega(nn, kk, params)
    dm = lambda nn, kk: delta_minus(nn, kk, params)
    dp = lambda nn, kk: delta_plus(nn, kk, params)

    omega_tc2 = 0.5 * _pair_coupling(om(n, k + 1) * om(n + 1, k), dm(n, k + 1), dm(n + 1, k), -1)
    omega_atc2 = 0.5 * _pair_coupling(om(n, k) * om(n + 1, k + 1), dp(n + 1, k + 1), dp(n, k), -1)
    omega_r2 = 0.5 * (
        _pair_coupling(om(n - 1, k) * om(n - 1, k + 1), dp(n - 1, k + 1), dm(n - 1, k), -1)
        + _pair_coupling(om(n, k) * om(n, k + 1), dm(n, k + 1), dp(n, k), -1)
    )
    omega_a2 = 0.5 * (
        _pair_coupling(om(n, k - 1) * om(n + 1, k - 1), dp(n + 1, k - 1), dm(n, k - 1), +1)
        - _pair_coupling(om(n, k) * om(n + 1, k), dp(n, k), dm(n + 1, k), +1)
    )

    delta_tc2 = dm(n + 1, k) + dm(n, k + 1)
    delta_atc2 = dp(n, k) + dp(n + 1, k + 1)
    delta_r2 = dp(n, k) + dm(n, k + 1)
    delta_a2 = dp(n, k) - dm(n + 1, k)

    shift = lambda nn, kk: stark_shift(nn, kk, params)
    d_nk = shift(n, k)
    return SecondOrderCoeffs(
        n=n,
        k=k,
        stark_shift=d_nk,
        omega_tc2=omega_tc2,
        omega_atc2=omega_atc2,
        omega_r2=omega_r2,
        omega_a2=omega_a2,
        delta_tc2=delta_tc2,
        delta_atc2=delta_atc2,
        delta_r2=delta_r2,
        delta_a2=delta_a2,
        tilde_tc2=delta_tc2 + shift(n, k + 2) - shift(n + 2, k),
        tilde_atc2=delta_atc2 + shift(n + 2, k + 2) - d_nk,
        tilde_r2=delta_r2 + shift(n, k + 2) - d_nk,
        tilde_a2=delta_a2 + shift(n + 2, k) - d_nk,
    )


def _pair_coupling(product: float, den_a: float, den_b: float, sign: int) -> float:
    """product * (1/den_a + sign/den_b) with the zero-numerator convention."""
    if product == 0.0:
        return 0.0
    return _ratio_over(product, den_a) + sign * _ratio_over(product, den_b)


def second_order_coupling(target: ResonanceTarget, params: ModelParams) -> float:
    """Signed two-excitation coupling amplitude for a second-order target."""
    coeffs = second_order_coeffs(target.n0, target.k0, params)
    return coeffs.omega_tc2 if target.kind == "tc" else coeffs.omega_atc2


def tilde_frequency(target: ResonanceTarget, params: ModelParams) -> float:
    """Stark-corrected oscillation frequency of a second-order target."""
    coeffs = second_order_coeffs(target.n0, target.k0, params)
    return coeffs.tilde_tc2 if target.kind == "tc" else coeffs.tilde_atc2


def _bare_second_order_omega_q(target: ResonanceTarget, params: ModelParams) -> float:
    """Zero of the bare (lambda -> 0) second-order frequency, linear in omega_q."""
    n_q = params.n_qubits
    n0, k0 = target.n0, target.k0
    if target.kind == "tc":
        return params.omega_r - params.stark_u * (2 * n0 - 2 * k0 + n_q) / (2 * n_q)
    return -params.omega_r - params.stark_u * (2 * n0 + 2 * k0 + 4 - n_q) / (2 * n_q)


def solve_second_order_resonance(
    target: ResonanceTarget,
    params: ModelParams,
    bracket: tuple[float, float] | None = None,
) -> float:
    """omega_q zeroing the Stark-corrected frequency of a second-order target,
    found by bracketed false-position (Illinois) refinement (the tilde
    frequency depends on omega_q nonlinearly through the Stark shifts).

    The default bracket is the bare linear solution widened by
    10 lambda^2 N / |U|, since the Stark corrections are O(lambda^2 / delta).
    """
    if target.order != 2:
        raise ValueError("target must be second order")
    target.validate(params)
    if params.stark_u == 0.0:
        raise ValueError("second-order selectivity requires a nonzero Stark coupling")
    if bracket is None:
        center = _bare_second_order_omega_q(target, params)
        width = 10.0 * params.coupling**2 * params.n_qubits / abs(params.stark_u)
        width = max(width, 1e-6)
        bracket = (center - width, center + width)

    def objective(omega_q: float) -> float:
        return tilde_frequency(target, replace(params, omega_q=omega_q))

    lo, hi = sorted(bracket)
    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise ResonanceBracketError(
            f"no sign change of the tilde frequency over omega_q in [{lo}, {hi}]"
        )
    root = _illinois(objective, lo, hi, f_lo, f_hi)
    residual = objective(root)
    if not abs(residual) <= ROOT_TOLERANCE:
        raise ResonanceBracketError(
            f"root refinement left |tilde frequency| = {abs(residual):.3e} > {ROOT_TOLERANCE}"
        )
    return float(root)


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of ``f`` inside [lo, hi], where f_lo and f_hi differ in sign, by
    false position with the Illinois rule: when the same end survives twice
    in a row its value is halved, so both ends close in. Every iterate stays
    at least ``tol`` (two ulps) inside the bracket, so each step shrinks it.
    Stops at an exact zero or once the bracket is 2 tol wide."""
    tol = 2 * math.ulp(max(abs(lo), abs(hi)))
    side = 0
    while hi - lo > 2 * tol:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = min(max(x, lo + tol), hi - tol)
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0) == (f_hi > 0):
            hi, f_hi = x, f_x
            if side == -1:
                f_lo *= 0.5
            side = -1
        else:
            lo, f_lo = x, f_x
            if side == 1:
                f_hi *= 0.5
            side = 1
    return lo if abs(f_lo) < abs(f_hi) else hi


def solve_resonance(target: ResonanceTarget, params: ModelParams) -> float:
    """omega_q putting the target on resonance, at its order."""
    if target.order == 1:
        target.validate(params)
        return solve_first_order_resonance(target, params)
    return solve_second_order_resonance(target, params)


def target_coupling(target: ResonanceTarget, params: ModelParams) -> float:
    """Signed coupling amplitude of the selected transition (first order:
    Omega(n0, k0); second order: the two-excitation amplitude)."""
    if target.order == 1:
        return rabi_frequency(target.n0, target.k0, params)
    return second_order_coupling(target, params)


def pulse_duration(target: ResonanceTarget, params: ModelParams, fraction: float = 0.5) -> float:
    """Duration of a pulse driving the selected transition: ``fraction`` of
    the population-oscillation period pi/|Omega| (0.5 transfers fully, 0.25
    prepares the equal superposition)."""
    omega = abs(target_coupling(target, params))
    if omega == 0.0:
        raise ValueError(f"target {target.label()} has zero coupling")
    return fraction * math.pi / omega


def build_effective_hamiltonian(
    target: ResonanceTarget, params: ModelParams, space: HilbertSpace
) -> Operator:
    """The selective two-level Hamiltonian: nonzero only on the target pair,
    with the (signed) coupling amplitude on the two symmetric off-diagonal
    positions. Meaningful when params are tuned to the target's resonance."""
    target.validate(params)
    (k_a, n_a), (k_b, n_b) = target.pair()
    i, j = space.index(k_a, n_a), space.index(k_b, n_b)
    omega = target_coupling(target, params)
    h = np.zeros((space.dimension, space.dimension), dtype=complex)
    h[i, j] = omega
    h[j, i] = omega
    return Operator(space, h)


def detuned_rabi_probability(omega: float, delta: float, t: float) -> float:
    """Transfer probability of a two-level system with coupling ``omega`` and
    detuning ``delta`` after time ``t``:

        P(t) = 4 omega^2 / (4 omega^2 + delta^2)
               * sin^2( sqrt(4 omega^2 + delta^2) t / 2 )
    """
    if omega < 0:
        raise ValueError("omega must be >= 0")
    if omega == 0.0:
        return 0.0
    general = math.sqrt(4 * omega**2 + delta**2)
    amplitude = 4 * omega**2 / general**2
    return amplitude * math.sin(0.5 * general * t) ** 2


@dataclass(frozen=True)
class ChannelReport:
    """Selectivity data for one interaction channel at fixed parameters."""

    kind: str  # "tc" | "atc" | "tc2" | "atc2" | "r2" | "a2"
    n: int
    k: int
    coupling: float
    detuning: float
    ratio: float  # |detuning| / |coupling|; inf when the channel is uncoupled
    no_coupling: bool  # coupling == 0.0
    selected: bool  # member of the target's resonant family
    adjacent: bool  # shares a basis cell with the target pair
    risk: bool  # competing channel with ratio below SELECTIVITY_RATIO


@dataclass(frozen=True)
class RwaReport:
    """Ratio table over every channel of the space for one tuned target."""

    target: ResonanceTarget
    omega_q: float
    channels: tuple[ChannelReport, ...]

    def risks(self) -> list[ChannelReport]:
        return [c for c in self.channels if c.risk]

    def min_ratio(self, adjacent_only: bool = False) -> float:
        pool = [
            c.ratio
            for c in self.channels
            if not c.selected and not c.no_coupling and (c.adjacent or not adjacent_only)
        ]
        return min(pool, default=math.inf)


_CHANNEL_PAIRS = {
    "tc": lambda n, k: ((k + 1, n), (k, n + 1)),
    "atc": lambda n, k: ((k, n), (k + 1, n + 1)),
    "tc2": lambda n, k: ((k + 2, n), (k, n + 2)),
    "atc2": lambda n, k: ((k, n), (k + 2, n + 2)),
    "r2": lambda n, k: ((k + 2, n), (k, n)),
    "a2": lambda n, k: ((k, n + 2), (k, n)),
}


def _in_family(kind: str, n: int, k: int, target: ResonanceTarget) -> bool:
    """Whether channel (kind, n, k) belongs to the target's resonant family:
    the same-kind channels whose detuning vanishes simultaneously (n - k
    fixed for tc-like, n + k fixed for atc-like)."""
    order_kind = target.kind if target.order == 1 else target.kind + "2"
    if kind != order_kind:
        return False
    if target.kind == "tc":
        return n - k == target.n0 - target.k0
    return n + k == target.n0 + target.k0


def rwa_validity_report(
    target: ResonanceTarget, params: ModelParams, space: HilbertSpace
) -> RwaReport:
    """Tabulate |detuning| / |coupling| for every channel of the space at the
    given parameters (normally tuned to the target's resonance). First-order
    channels are always listed; the four second-order families are added for
    second-order targets. Channels below SELECTIVITY_RATIO that are not part
    of the selected family are flagged as risks; uncoupled channels report an
    infinite ratio."""
    target.validate(params)
    pair = set(target.pair())
    n_q, n_max = params.n_qubits, params.n_max

    def exists(cell: tuple[int, int]) -> bool:
        k, n = cell
        return 0 <= k <= n_q and 0 <= n <= n_max

    channels: list[ChannelReport] = []

    def add(kind: str, n: int, k: int, coupling: float, detuning: float) -> None:
        cells = _CHANNEL_PAIRS[kind](n, k)
        if not all(exists(c) for c in cells):
            coupling = 0.0
        if coupling == 0.0:
            ratio = math.inf
        else:
            ratio = abs(detuning) / abs(coupling)
        selected = _in_family(kind, n, k, target)
        adjacent = bool(pair & set(cells))
        channels.append(
            ChannelReport(
                kind=kind,
                n=n,
                k=k,
                coupling=coupling,
                detuning=detuning,
                ratio=ratio,
                no_coupling=coupling == 0.0,
                selected=selected,
                adjacent=adjacent,
                risk=(not selected) and ratio < SELECTIVITY_RATIO,
            )
        )

    for n in range(n_max + 1):
        for k in range(n_q + 1):
            omega = _omega(n, k, params)
            add("tc", n, k, omega, delta_minus(n, k, params))
            add("atc", n, k, omega, delta_plus(n, k, params))

    if target.order == 2:
        for n in range(n_max + 1):
            for k in range(n_q + 1):
                c = second_order_coeffs(n, k, params)
                add("tc2", n, k, c.omega_tc2, c.tilde_tc2)
                add("atc2", n, k, c.omega_atc2, c.tilde_atc2)
                add("r2", n, k, c.omega_r2, c.tilde_r2)
                add("a2", n, k, c.omega_a2, c.tilde_a2)

    return RwaReport(target=target, omega_q=params.omega_q, channels=tuple(channels))


def ratio_from_omega_q(omega_q: float, params: ModelParams) -> float:
    """(omega_r - omega_q) / omega_r, the scan axis used throughout."""
    return (params.omega_r - omega_q) / params.omega_r


def omega_q_from_ratio(ratio: float, params: ModelParams) -> float:
    return params.omega_r * (1.0 - ratio)
