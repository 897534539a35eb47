"""Multi-step pulse sequences preparing Dicke and GHZ states.

A protocol is an ordered list of (qubit frequency, duration) pulses; each
pulse drives one selective transition at its resonance for a computed
fraction of the Rabi period. Execution evolves the exact Hamiltonian with
instantaneous frequency switches between steps and accumulates the state in
the rotating frame of the (diagonal) free Hamiltonian, so that step outcomes
compose the way the effective two-level picture predicts.

Fidelities against superposition targets are reported in two variants: the
phase-exact overlap in that frame, and a phase-optimized value
max_phi |<GHZ(phi)|psi>|^2. The relative phase between the two GHZ
components depends on the frame convention (the lab-frame phase spins at
~ 4 omega_q, and second-order Stark shifts contribute O(1) radians per
step), so only the optimized value is frame-invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .dynamics import DEFAULT_SAMPLES, Trajectory, evolve, fidelity, to_rotating_frame
from .dynamics import CutoffExceededError, require_below_cutoff  # run_protocol raises the former
from .effective import ResonanceTarget, pulse_duration, solve_resonance
from .model import (
    HilbertSpace,
    ModelParams,
    StateVector,
    build_hamiltonian,
    default_n_max,
    dicke_state,
)

HALF_PERIOD = 0.5
QUARTER_PERIOD = 0.25

DURATION_RULE_NAMES = {HALF_PERIOD: "half_period", QUARTER_PERIOD: "quarter_period"}
DURATION_RULES = {v: k for k, v in DURATION_RULE_NAMES.items()}


@dataclass(frozen=True)
class StepRule:
    """Recipe for one pulse: which transition, and what fraction of the
    population-oscillation period to drive it for."""

    target: ResonanceTarget
    fraction: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fraction) and self.fraction > 0):
            raise ValueError(f"fraction must be positive and finite, got {self.fraction}")


@dataclass(frozen=True)
class PulseStep:
    omega_q: float
    duration: float
    label: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega_q):
            raise ValueError(f"step omega_q must be finite, got {self.omega_q}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"step duration must be positive and finite, got {self.duration}")


@dataclass(frozen=True)
class Protocol:
    """Compiled pulse sequence with its initial and target states.

    ``params`` are the model parameters the steps were solved for; their
    omega_q and n_max play no part. ``expected`` lists, per step, the cells
    that should carry essentially all population at the step boundary.
    ``target_kind`` is "basis" for a single (k, n) cell or "ghz" for
    (|D^0> - |D^N>)/sqrt(2) x |0>.
    """

    name: str
    params: ModelParams
    steps: tuple[PulseStep, ...]
    rules: tuple[StepRule, ...]
    initial: tuple[int, int]
    target_kind: str
    target_cell: tuple[int, int] | None
    expected: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("protocol must contain at least one step")
        if len(self.steps) != len(self.rules) or len(self.steps) != len(self.expected):
            raise ValueError("steps, rules, and expected cells must align")
        if self.target_kind not in ("basis", "ghz"):
            raise ValueError(f"unknown target kind {self.target_kind!r}")
        if self.target_kind == "basis" and self.target_cell is None:
            raise ValueError("basis target requires a target cell")

    def target_state(self, space: HilbertSpace) -> StateVector:
        if self.target_kind == "basis":
            return dicke_state(space, *self.target_cell)
        amps = np.zeros(space.dimension, dtype=complex)
        amps[space.index(0, 0)] = 1 / math.sqrt(2)
        amps[space.index(space.n_qubits, 0)] = -1 / math.sqrt(2)
        return StateVector(space, amps)

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "N": self.params.n_qubits,
            "omega_r": self.params.omega_r,
            "lambda": self.params.coupling,
            "U": self.params.stark_u,
            "initial": {"k": self.initial[0], "n": self.initial[1]},
            "target": (
                {"kind": "ghz"}
                if self.target_kind == "ghz"
                else {"kind": "basis", "k": self.target_cell[0], "n": self.target_cell[1]}
            ),
            "steps": [
                {
                    **asdict(rule.target),
                    "duration_rule": DURATION_RULE_NAMES.get(rule.fraction, rule.fraction),
                }
                for rule in self.rules
            ],
        }
        return json.dumps(doc, indent=2)


def highest_start_photon(initial: tuple[int, int], rules) -> int:
    """The highest photon number a protocol starts a transition from: its
    initial cell's or any rule's n0."""
    return max([initial[1]] + [rule.target.n0 for rule in rules])


def parse_steps(steps) -> tuple[StepRule, ...]:
    """The step grammar of INI ``steps =`` lines and protocol JSON alike: each
    step is ``kind order n0 k0 [duration_rule]``, the rule a DURATION_RULES
    name or a fraction of the Rabi period (default half_period)."""
    rules = []
    for index, values in enumerate(steps, start=1):
        try:
            if len(values) not in (4, 5):
                raise ValueError(f"expected 'kind order n0 k0 [duration_rule]', got {_show(values)}")
            kind, order, n0, k0, rule = [*values, HALF_PERIOD][:5]
            numbers = (_number("order", order), _number("n0", n0), _number("k0", k0))
            rules.append(StepRule(ResonanceTarget(str(kind).lower(), *numbers), _fraction(rule)))
        except ValueError as exc:
            raise ValueError(f"protocol step {index}: {exc}") from None
    if not rules:
        raise ValueError("protocol has no steps")
    return tuple(rules)


def parse_target(values) -> tuple[str, tuple[int, int] | None]:
    """The target grammar, ``ghz`` or ``basis K N``, as (target_kind, target_cell)."""
    if values == ["ghz"]:
        return "ghz", None
    if values[:1] == ["basis"] and len(values) == 3:
        return "basis", parse_cell(values[1:])
    raise ValueError(f"target must be 'ghz' or 'basis K N', got {_show(values)}")


def parse_cell(values) -> tuple[int, int]:
    """A basis cell, ``K N``."""
    if len(values) != 2:
        raise ValueError(f"expected 'K N', got {_show(values)}")
    return _number("k", values[0]), _number("n", values[1])


def _show(values) -> str:
    return repr(" ".join(map(str, values)))


def _number(name: str, value, convert=int):
    """``convert(value)``, refusing what int() would truncate, such as 1.5."""
    try:
        if convert(value) == float(value):
            return convert(value)
    except (TypeError, ValueError):
        pass
    what = "an integer" if convert is int else "a number"
    raise ValueError(f"{name} must be {what}, got {value!r}")


def _fraction(rule) -> float:
    try:
        return float(DURATION_RULES.get(rule, rule))
    except (TypeError, ValueError):
        names = ", ".join(DURATION_RULES)
        raise ValueError(f"duration_rule must be {names} or a number, got {rule!r}") from None


def compile_from_rules(
    name: str,
    params: ModelParams,
    rules: list[StepRule],
    initial: tuple[int, int],
    target_kind: str,
    target_cell: tuple[int, int] | None,
) -> Protocol:
    """Resolve step frequencies and durations from the effective theory.

    Frequencies are the resonance solutions of each rule's target and
    durations the requested fraction of pi/|coupling|; nothing is
    hand-entered."""
    steps = []
    expected = []
    cell = initial
    for rule in rules:
        omega_q = solve_resonance(rule.target, params)
        tuned = replace(params, omega_q=omega_q)
        duration = pulse_duration(rule.target, tuned, rule.fraction)
        steps.append(PulseStep(omega_q=omega_q, duration=duration, label=rule.target.label()))
        cell, cells = _step_outcome(cell, rule)
        expected.append(cells)
    return Protocol(
        name=name,
        params=params,
        steps=tuple(steps),
        rules=tuple(rules),
        initial=initial,
        target_kind=target_kind,
        target_cell=target_cell,
        expected=tuple(expected),
    )


def _step_outcome(
    cell: tuple[int, int], rule: StepRule
) -> tuple[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Predicted dominant cell(s) after driving ``rule`` from ``cell``."""
    pair = set(rule.target.pair())
    if cell not in pair:
        # the pulse does not touch the current cell; population stays put
        return cell, (cell,)
    other = (pair - {cell}).pop()
    if rule.fraction == QUARTER_PERIOD:
        return other, (cell, other)
    return other, (other,)


def compile_dicke_ladder(n_qubits: int, k_target: int, params: ModelParams) -> Protocol:
    """Alternating pair-creating / photon-absorbing ladder from (k=0, n=0):
    odd steps drive the pair-creating transition at (n0=0, k0=j-1), even
    steps the photon-absorbing one, each for a half oscillation, walking the
    population up one Dicke level per step. The same alternation is compiled
    for any 0 < k_target <= N, including regimes with no reference data
    (odd N, partial ladders)."""
    if not (0 < k_target <= n_qubits):
        raise ValueError(f"k_target must lie in 1..{n_qubits}, got {k_target}")
    if params.n_qubits != n_qubits:
        raise ValueError("params.n_qubits disagrees with n_qubits")
    rules = []
    for j in range(1, k_target + 1):
        kind = "atc" if j % 2 == 1 else "tc"
        rules.append(StepRule(ResonanceTarget(kind, 1, 0, j - 1), HALF_PERIOD))
    return compile_from_rules(
        name=f"dicke_ladder_{n_qubits}" if k_target == n_qubits else f"dicke_ladder_{n_qubits}_k{k_target}",
        params=params,
        rules=rules,
        initial=(0, 0),
        target_kind="basis",
        target_cell=(k_target, k_target % 2),
    )


def compile_ghz4(params: ModelParams) -> Protocol:
    """Two-step GHZ sequence for N = 4: a quarter-period two-excitation
    pair-creating pulse at (n0=0, k0=0) builds the equal superposition of
    (0, 0) and (2, 2); a half-period two-photon-absorbing pulse at
    (n0=0, k0=2) carries the (2, 2) component to (4, 0)."""
    if params.n_qubits != 4:
        raise ValueError("the GHZ sequence is compiled for N = 4")
    rules = [
        StepRule(ResonanceTarget("atc", 2, 0, 0), QUARTER_PERIOD),
        StepRule(ResonanceTarget("tc", 2, 0, 2), HALF_PERIOD),
    ]
    return compile_from_rules(
        name="ghz_4",
        params=params,
        rules=rules,
        initial=(0, 0),
        target_kind="ghz",
        target_cell=None,
    )


@dataclass(frozen=True)
class ProtocolResult:
    final: StateVector
    per_step: tuple[Trajectory, ...]
    fidelity: float
    fidelity_optimized: float
    target_phase: float | None  # realized arg(psi_N0 / psi_00) for GHZ targets

    def step_boundary_populations(self) -> list[dict[tuple[int, int], float]]:
        out = []
        for traj in self.per_step:
            pops = traj.scatter(traj.sector_populations[:, -1])
            out.append({traj.space.label(i): float(p) for i, p in enumerate(pops)})
        return out


def run_protocol(
    protocol: Protocol,
    params: ModelParams,
    space: HilbertSpace,
    samples: int = DEFAULT_SAMPLES,
) -> ProtocolResult:
    """Execute the sequence: exact evolution under the full Hamiltonian with
    each step's qubit frequency, frame-unwound at the step boundaries, with a
    top-photon-level guard along every trajectory."""
    compiled = protocol.params
    mismatched = [
        f"{f.name} = {getattr(params, f.name)} does not match the protocol's compiled"
        f" {getattr(compiled, f.name)}"
        for f in fields(ModelParams)
        if f.name not in ("omega_q", "n_max") and getattr(params, f.name) != getattr(compiled, f.name)
    ]
    if mismatched:
        raise ValueError("; ".join(mismatched))

    psi = dicke_state(space, *protocol.initial)
    trajectories = []
    for index, step in enumerate(protocol.steps, start=1):
        tuned = replace(params, omega_q=step.omega_q)
        h = build_hamiltonian(tuned, space)
        traj = evolve(psi, h, step.duration, samples=samples)
        require_below_cutoff(
            traj.sector_populations, space, f"step {index}", step_index=index, kept=traj.kept
        )
        trajectories.append(traj)
        psi = to_rotating_frame(traj.final, h, step.duration)

    target = protocol.target_state(space)
    exact = fidelity(psi, target)
    if protocol.target_kind == "ghz":
        a = psi.amplitudes[space.index(0, 0)]
        b = psi.amplitudes[space.index(space.n_qubits, 0)]
        optimized = 0.5 * (abs(a) + abs(b)) ** 2
        phase = float(np.angle(b / a)) if a != 0 else None
    else:
        optimized = exact
        phase = None
    return ProtocolResult(
        final=psi,
        per_step=tuple(trajectories),
        fidelity=exact,
        fidelity_optimized=optimized,
        target_phase=phase,
    )


def protocol_from_json(text: str) -> Protocol:
    """Rebuild a protocol from its serialized rules, recomputing frequencies
    and durations (they are never stored). Steps and target follow the same
    grammar as an INI ``[protocol]`` section."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"protocol document is not valid JSON: {exc}") from None
    try:
        params = ModelParams(
            n_qubits=_number("N", doc["N"]),
            omega_r=_number("omega_r", doc["omega_r"], float),
            coupling=_number("lambda", doc["lambda"], float),
            stark_u=_number("U", doc["U"], float),
        )
        initial = parse_cell([doc["initial"]["k"], doc["initial"]["n"]])
        target = doc["target"]
        kind, cell = parse_target([target["kind"], *(target[f] for f in ("k", "n") if f in target)])
        rules = parse_steps(
            [e["kind"], e["order"], e["n0"], e["k0"], e.get("duration_rule", HALF_PERIOD)]
            for e in doc["steps"]
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(
            f"protocol document has a missing field or a field of the wrong type: {exc}"
        ) from None
    # detunings are cutoff-independent: compile at the default cutoff
    n_max = default_n_max(highest_start_photon(initial, rules), params.n_qubits)
    return compile_from_rules(
        name=str(doc.get("name", "custom")),
        params=replace(params, n_max=n_max),
        rules=rules,
        initial=initial,
        target_kind=kind,
        target_cell=cell,
    )
