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

The Stark shift (``_shift``) and the four second-order families
(``_second_order``) are written once, over accessors for Omega, delta-/+ and
division: ``second_order_coeffs`` evaluates them for one cell with floats,
``rwa_validity_report`` once over its whole (n, k) grid with arrays. The
report lists rows over n, then k, then kind: tc, atc for every cell, then
tc2, atc2, r2, a2 for every cell at a second-order target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import HilbertSpace, ModelParams, ladder_coupling

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


# The two basis cells each channel kind at (n, k) couples, as (dk, dn)
# offsets from the cell (k, n).
_CELLS = {
    "tc": ((1, 0), (0, 1)),
    "atc": ((0, 0), (1, 1)),
    "tc2": ((2, 0), (0, 2)),
    "atc2": ((0, 0), (2, 2)),
    "r2": ((2, 0), (0, 0)),
    "a2": ((0, 2), (0, 0)),
}


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

    @property
    def channel(self) -> str:
        """The channel kind of the selected interaction: tc, atc, tc2 or atc2."""
        return self.kind if self.order == 1 else self.kind + "2"

    def pair(self) -> tuple[tuple[int, int], ...]:
        """The two (k, n) cells the selected interaction couples."""
        return tuple((self.k0 + dk, self.n0 + dn) for dk, dn in _CELLS[self.channel])

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


def _grid_over(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``_ratio_over`` on every cell of a grid, raising as it does."""
    live = num != 0.0
    low = live & (np.abs(den) < DEGENERACY_FLOOR)
    if low.any():
        _ratio_over(num[low][0], den[low][0])
    return np.divide(num, den, out=np.zeros_like(num), where=live)


def _cell_accessors(params: ModelParams):
    """(om, dm, dp, over) of one cell: the scalar functions at integer (n, k)."""
    return (
        lambda n, k: _omega(n, k, params),
        lambda n, k: delta_minus(n, k, params),
        lambda n, k: delta_plus(n, k, params),
        _ratio_over,
    )


def _shift(n, k, om, dm, dp, over):
    """Stark shift Delta(n, k): the level repulsion on the cell (k, n) from its
    four dispersive first-order channels. ``n``, ``k`` are ints or index arrays;
    ``om``, ``dm``, ``dp`` read Omega and delta-/+ there and ``over`` divides."""
    a, b, c, d = om(n, k - 1), om(n - 1, k - 1), om(n - 1, k), om(n, k)
    return (
        over(a * a, dm(n, k - 1))
        + over(b * b, dp(n - 1, k - 1))
        - over(c * c, dm(n - 1, k))
        - over(d * d, dp(n, k))
    )


def stark_shift(n: int, k: int, params: ModelParams) -> float:
    """Second-order diagonal energy correction Delta(n, k) of the cell (k, n)."""
    return _shift(n, k, *_cell_accessors(params))


class SecondOrderCoeffs(NamedTuple):
    """Second-order couplings and oscillation frequencies at (n, k): floats
    for one cell, arrays over the grid of ``rwa_validity_report``.

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
    return _second_order(n, k, *_cell_accessors(params))


def _second_order(n, k, om, dm, dp, over) -> SecondOrderCoeffs:
    """The four second-order families at (n, k), over the accessors of
    ``_shift``: floats for one cell, arrays over a grid."""
    w, w_k, w_n = om(n, k), om(n, k + 1), om(n + 1, k)
    tc, atc = w_k * w_n, w * om(n + 1, k + 1)
    r_lo, r_hi = om(n - 1, k) * om(n - 1, k + 1), w * w_k
    a_lo, a_hi = om(n, k - 1) * om(n + 1, k - 1), w * w_n
    omega_tc2 = 0.5 * (over(tc, dm(n, k + 1)) - over(tc, dm(n + 1, k)))
    omega_atc2 = 0.5 * (over(atc, dp(n + 1, k + 1)) - over(atc, dp(n, k)))
    omega_r2 = 0.5 * (
        (over(r_lo, dp(n - 1, k + 1)) - over(r_lo, dm(n - 1, k)))
        + (over(r_hi, dm(n, k + 1)) - over(r_hi, dp(n, k)))
    )
    omega_a2 = 0.5 * (
        (over(a_lo, dp(n + 1, k - 1)) + over(a_lo, dm(n, k - 1)))
        - (over(a_hi, dp(n, k)) + over(a_hi, dm(n + 1, k)))
    )

    delta_tc2 = dm(n + 1, k) + dm(n, k + 1)
    delta_atc2 = dp(n, k) + dp(n + 1, k + 1)
    delta_r2 = dp(n, k) + dm(n, k + 1)
    delta_a2 = dp(n, k) - dm(n + 1, k)

    shift = lambda nn, kk: _shift(nn, kk, om, dm, dp, over)
    d_00, d_02, d_20, d_22 = shift(n, k), shift(n, k + 2), shift(n + 2, k), shift(n + 2, k + 2)
    return SecondOrderCoeffs(
        n, k, d_00, omega_tc2, omega_atc2, omega_r2, omega_a2,
        delta_tc2, delta_atc2, delta_r2, delta_a2,
        tilde_tc2=delta_tc2 + d_02 - d_20,
        tilde_atc2=delta_atc2 + d_22 - d_00,
        tilde_r2=delta_r2 + d_02 - d_00,
        tilde_a2=delta_a2 + d_20 - d_00,
    )


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
    coeffs = second_order_coeffs(target.n0, target.k0, params)
    return coeffs.omega_tc2 if target.kind == "tc" else coeffs.omega_atc2


def pulse_duration(target: ResonanceTarget, params: ModelParams, fraction: float = 0.5) -> float:
    """Duration of a pulse driving the selected transition: ``fraction`` of
    the population-oscillation period pi/|Omega| (0.5 transfers fully, 0.25
    prepares the equal superposition)."""
    omega = abs(target_coupling(target, params))
    if omega == 0.0:
        raise ValueError(f"target {target.label()} has zero coupling")
    return fraction * math.pi / omega


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


class ChannelReport(NamedTuple):
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


def rwa_validity_report(
    target: ResonanceTarget, params: ModelParams, space: HilbertSpace
) -> RwaReport:
    """Tabulate |detuning| / |coupling| for every channel of the space at the
    given parameters (normally tuned to the target's resonance), in the row
    order of the module docstring. Channels below SELECTIVITY_RATIO outside
    the selected family (same kind, n - k fixed for tc-like, n + k for
    atc-like) are risks; a channel with a cell outside the space is uncoupled
    and reports an infinite ratio."""
    target.validate(params)
    n_q, n_max = params.n_qubits, params.n_max
    n, k = np.arange(n_max + 1)[:, None], np.arange(n_q + 1)
    shape = (n_max + 1, n_q + 1)
    # Omega over n = -1..n_max+2, k = -1..N+2, every index the formulas reach
    table = np.array([[_omega(i, j, params) for j in range(-1, n_q + 3)] for i in range(-1, n_max + 3)])
    om = lambda nn, kk: table[nn + 1, kk + 1]
    dm = lambda nn, kk: delta_minus(nn, kk, params)
    dp = lambda nn, kk: delta_plus(nn, kk, params)

    kinds = {"tc": (om(n, k), dm(n, k)), "atc": (om(n, k), dp(n, k))}
    if target.order == 2:
        c = _second_order(n, k, om, dm, dp, _grid_over)
        kinds.update(tc2=(c.omega_tc2, c.tilde_tc2), atc2=(c.omega_atc2, c.tilde_atc2))
        kinds.update(r2=(c.omega_r2, c.tilde_r2), a2=(c.omega_a2, c.tilde_a2))

    sign = -1 if target.kind == "tc" else 1  # n - k or n + k is fixed along a family
    on_line = n + sign * k == target.n0 + sign * target.k0
    columns = []
    for kind, (coupling, detuning) in kinds.items():
        exists, adjacent = np.ones(shape, bool), np.zeros(shape, bool)
        for dk, dn in _CELLS[kind]:
            exists &= (k + dk <= n_q) & (n + dn <= n_max)
            for pk, pn in target.pair():
                adjacent |= (k + dk == pk) & (n + dn == pn)
        coupling = np.where(exists, coupling, 0.0)
        no_coupling = coupling == 0.0
        ratio = np.divide(
            np.abs(detuning), np.abs(coupling), out=np.full(shape, math.inf), where=~no_coupling
        )
        selected = on_line & (kind == target.channel)
        risk = ~selected & (ratio < SELECTIVITY_RATIO)
        columns.append((kind, n, k, coupling, detuning, ratio, no_coupling, selected, adjacent, risk))
    fields = []
    for values in zip(*columns):
        # rows run over n, then k, then kind, the first-order block first
        grid = np.stack([np.broadcast_to(v, shape) for v in values], axis=-1)
        fields.append(grid[..., :2].ravel().tolist() + grid[..., 2:].ravel().tolist())
    channels = tuple(map(ChannelReport._make, zip(*fields)))
    return RwaReport(target=target, omega_q=params.omega_q, channels=channels)


def ratio_from_omega_q(omega_q: float, params: ModelParams) -> float:
    """(omega_r - omega_q) / omega_r, the scan axis used throughout."""
    return (params.omega_r - omega_q) / params.omega_r


def omega_q_from_ratio(ratio: float, params: ModelParams) -> float:
    return params.omega_r * (1.0 - ratio)
