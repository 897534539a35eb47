"""Multi-step pulse sequences preparing Dicke and GHZ states.

A protocol is an ordered list of (qubit frequency, duration) pulses; each
pulse drives one selective transition at its resonance for a computed
fraction of the Rabi period. Presets, protocol files and INI steps give one
record, ProtocolSpec, and compile_from_rules is the one compile call.
Execution evolves the exact Hamiltonian with instantaneous frequency
switches between steps and accumulates the state in the rotating frame of
the (diagonal) free Hamiltonian, so that step outcomes compose the way the
effective two-level picture predicts.

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
import threading
import weakref
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .dynamics import DEFAULT_SAMPLES, Trajectory, _Sector, _require_samples, evolve, fidelity, to_rotating_frame
from .dynamics import CutoffExceededError, require_below_cutoff  # run_protocol raises the former
from .effective import HALF_PERIOD, QUARTER_PERIOD, ResonanceTarget, pulse_duration, solve_resonance
from .effective import _require_fraction
from .model import (
    HilbertSpace,
    ModelParams,
    Operator,
    StateVector,
    _affine,
    _retuned,
    build_hamiltonian,
    build_space,
    default_n_max,
    dicke_state,
)

# Predicted population shares at or below this do not list a cell.
SHARE_FLOOR = 1e-9

DURATION_RULE_NAMES = {HALF_PERIOD: "half_period", QUARTER_PERIOD: "quarter_period"}
DURATION_RULES = {v: k for k, v in DURATION_RULE_NAMES.items()}


@dataclass(frozen=True)
class StepRule:
    """Recipe for one pulse: which transition, and what fraction of the
    population-oscillation period to drive it for."""

    target: ResonanceTarget
    fraction: float

    def __post_init__(self) -> None:
        _require_fraction(self.fraction)


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
class ProtocolSpec:
    """What a protocol is compiled from: its rules, initial (k, n) cell and
    target, and the model it is compiled for, or None for inline steps,
    which take the run's [model]. ``target_kind`` is "basis" for the single
    cell ``target_cell`` or "ghz" for (|D^0> - |D^N>)/sqrt(2) x |0>.
    ``to_json`` writes the record that ``protocol_from_json`` reads."""

    name: str
    params: ModelParams | None
    rules: tuple[StepRule, ...]
    initial: tuple[int, int]
    target_kind: str
    target_cell: tuple[int, int] | None

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("protocol must contain at least one step")
        if self.target_kind not in ("basis", "ghz"):
            raise ValueError(f"unknown target kind {self.target_kind!r}")
        if self.target_kind == "basis" and self.target_cell is None:
            raise ValueError("basis target requires a target cell")

    @property
    def highest_start_photon(self) -> int:
        """The highest photon number the protocol starts a transition from:
        its initial cell's or any rule's n0."""
        return max([self.initial[1]] + [rule.target.n0 for rule in self.rules])

    def target_state(self, space: HilbertSpace) -> StateVector:
        if self.target_kind == "basis":
            return dicke_state(space, *self.target_cell)
        amps = np.zeros(space.dimension, dtype=complex)
        amps[space.index(0, 0)] = 1 / math.sqrt(2)
        amps[space.index(space.n_qubits, 0)] = -1 / math.sqrt(2)
        return StateVector(space, amps)

    def to_json(self) -> str:
        if self.params is None:
            raise ValueError(
                f"protocol {self.name!r} has no model (N, omega_r, lambda, U) to write;"
                " compile it at one first"
            )
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


@dataclass(frozen=True)
class Protocol(ProtocolSpec):
    """A record compiled at ``params`` (whose omega_q and n_max play no
    part), with one solved step per rule. ``expected`` lists, per step and
    in (k, n) order, the cells predicted to carry essentially all population
    at the step boundary: those whose two-level share (``_step_shares``) is
    above SHARE_FLOOR."""

    steps: tuple[PulseStep, ...]
    expected: tuple[tuple[tuple[int, int], ...], ...]


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
    """``convert(value)``, refusing what int() would truncate, such as 1.5,
    and JSON's true and false, which int() and float() read as 1 and 0."""
    try:
        if not isinstance(value, bool) and convert(value) == float(value):
            return convert(value)
    except (TypeError, ValueError):
        pass
    what = "an integer" if convert is int else "a number"
    raise ValueError(f"{name} must be {what}, got {value!r}")


def _fraction(rule) -> float:
    """A DURATION_RULES name or a number, refusing JSON's true and false as
    ``_number`` does."""
    try:
        if not isinstance(rule, bool):
            return float(DURATION_RULES.get(rule, rule))
    except (TypeError, ValueError):
        pass
    names = ", ".join(DURATION_RULES)
    raise ValueError(f"duration_rule must be {names} or a number, got {rule!r}")


def compile_from_rules(spec: ProtocolSpec, params: ModelParams) -> Protocol:
    """Compile ``spec`` at ``params``, which must hold the N of a record that
    carries its model. Frequencies are the resonance solutions of each
    rule's target and durations the requested fraction of pi/|coupling|;
    nothing is hand-entered. A step that cannot be solved or timed is
    refused with the error's own type, its message prefixed by the step's
    number and label; an initial or target cell outside the space of
    ``params`` is refused first, naming the field."""
    if spec.params is not None and spec.params.n_qubits != params.n_qubits:
        raise ValueError(
            f"protocol {spec.name!r} is compiled for N = {spec.params.n_qubits}, got n_qubits = {params.n_qubits}"
        )
    space = build_space(params)  # the initial and target cells, before any step is solved
    for name, cell in (("initial", spec.initial), ("target", spec.target_cell)):
        if cell is not None:
            try:
                space.index(*cell)
            except ValueError as exc:
                raise ValueError(f"protocol {name} {cell}: {exc}") from None
    steps = []
    expected = []
    shares = {spec.initial: 1.0}
    for index, rule in enumerate(spec.rules, start=1):
        label = rule.target.label()
        try:
            omega_q = solve_resonance(rule.target, params)
            duration = pulse_duration(rule.target, _retuned(params, omega_q), rule.fraction)
        except ValueError as exc:
            raise type(exc)(f"protocol step {index} {label}: {exc}") from None
        steps.append(PulseStep(omega_q=omega_q, duration=duration, label=label))
        shares = _step_shares(shares, rule)
        expected.append(tuple(sorted(c for c, share in shares.items() if share > SHARE_FLOOR)))
    return Protocol(**{**vars(spec), "params": params}, steps=tuple(steps), expected=tuple(expected))


def _step_shares(
    shares: dict[tuple[int, int], float], rule: StepRule
) -> dict[tuple[int, int], float]:
    """Predicted population share per cell after driving ``rule``: when one
    cell of the target's pair is occupied, sin^2(pi fraction) of its share
    moves to the other (the Rabi period is pi/|Omega|). When both are, the
    transfer depends on their relative phase, which is not tracked, so every
    share stays."""
    a, b = rule.target.pair()
    occupied = [cell for cell in (a, b) if shares.get(cell, 0.0) > SHARE_FLOOR]
    if len(occupied) != 1:
        return shares
    source = occupied[0]
    moved = shares[source] * math.sin(math.pi * rule.fraction) ** 2
    return {**shares, source: shares[source] - moved, b if source == a else a: moved}


def compile_dicke_ladder(n_qubits: int, k_target: int, params: ModelParams) -> Protocol:
    """Alternating pair-creating / photon-absorbing ladder from (k=0, n=0):
    odd steps drive the pair-creating transition at (n0=0, k0=j-1), even
    steps the photon-absorbing one, each for a half oscillation, walking the
    population up one Dicke level per step. The same alternation is compiled
    for any 0 < k_target <= N, including regimes with no reference data
    (odd N, partial ladders); at N = k_target = 4 it is the dicke_ladder_4
    preset."""
    if not (0 < k_target <= n_qubits):
        raise ValueError(f"k_target must lie in 1..{n_qubits}, got {k_target}")
    rules = tuple(
        StepRule(ResonanceTarget("atc" if j % 2 == 1 else "tc", 1, 0, j - 1), HALF_PERIOD)
        for j in range(1, k_target + 1)
    )
    name = f"dicke_ladder_{n_qubits}" if k_target == n_qubits else f"dicke_ladder_{n_qubits}_k{k_target}"
    spec = ProtocolSpec(name, replace(params, n_qubits=n_qubits), rules, (0, 0), "basis", (k_target, k_target % 2))
    return compile_from_rules(spec, params)


def compile_ghz4(params: ModelParams) -> Protocol:
    """The ghz_4 preset compiled at ``params``, which must have N = 4."""
    from .presets import PROTOCOL_PRESETS  # which builds its records with this module's grammar

    return compile_from_rules(PROTOCOL_PRESETS["ghz_4"], params)


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
            out.append({cell: float(p) for cell, p in zip(traj.space.labels(), traj.populations[-1])})
        return out


class _Buffer(np.ndarray):
    """Memory that protocol runs take their population blocks from. Its own
    type stops numpy from collapsing a block's views onto it, so every row
    keeps its block alive, and the block's death frees the buffer."""


_spare: list[_Buffer] = []  # the largest buffer that no block views
# Reentrant: a block in a reference cycle can die, and run _keep_spare, at any
# allocation, including one made while this thread holds the lock.
_spare_lock = threading.RLock()


def _population_block(shape: tuple[int, int, int]) -> np.ndarray:
    """An uninitialized float64 block of ``shape`` on the spare buffer when
    that is large enough, else on a new one. When the block and its last view
    die, the buffer becomes the spare again, unless a larger one already is.

    So a process that runs many protocols keeps one buffer the size of its
    largest run, written in place run after run, instead of mapping and
    faulting in fresh memory for every run. A larger run frees the spare
    before it allocates, so a process holds a second buffer only while two
    runs' trajectories live at once. The buffer is read-only outside this
    call: once the block is made read-only too, no view of it can be made
    writeable."""
    size = math.prod(shape)
    with _spare_lock:
        buffer = _spare.pop() if _spare else None
    if buffer is None or buffer.size < size:
        del buffer  # a smaller spare is freed before the larger buffer is allocated
        buffer = _Buffer(size)
    buffer.flags.writeable = True
    block = np.ndarray(shape, buffer=buffer)
    buffer.flags.writeable = False
    weakref.finalize(block, _keep_spare, buffer).atexit = False
    return block


def _keep_spare(buffer: _Buffer) -> None:
    with _spare_lock:
        if not _spare or _spare[0].size < buffer.size:
            _spare[:] = [buffer]


def run_protocol(
    protocol: Protocol,
    params: ModelParams,
    space: HilbertSpace,
    samples: int = DEFAULT_SAMPLES,
) -> ProtocolResult:
    """Execute the sequence: exact evolution under the full Hamiltonian with
    each step's qubit frequency, frame-unwound at the step boundaries, with a
    top-photon-level guard along every trajectory.

    The kernel's symmetry and sector checks (``dynamics._Sector``) run once,
    before the first step, on the model's cached H(0) (``model._affine``):
    every step's H shares its off-diagonal, and H conserves parity, so the
    occupied sector never changes. Each step still builds its H, at the
    step's omega_q (``model._retuned``), and diagonalizes its sector block.

    The steps' populations are the rows of one (steps, samples, dimension)
    block (``_population_block``), taken after ``samples`` is checked and
    not zeroed: ``evolve`` writes every element of its row, the dropped
    parity's as exact zeros. The block is made read-only once filled: each
    ``Trajectory.populations`` is a view that keeps the whole block alive."""
    compiled = protocol.params
    mismatched = [
        f"{f.name} = {getattr(params, f.name)} does not match the protocol's compiled"
        f" {getattr(compiled, f.name)}"
        for f in fields(ModelParams)
        if f.name not in ("omega_q", "n_max") and getattr(params, f.name) != getattr(compiled, f.name)
    ]
    if mismatched:
        raise ValueError("; ".join(mismatched))

    _require_samples(samples)
    block = _population_block((len(protocol.steps), samples, space.dimension))
    psi = dicke_state(space, *protocol.initial)
    h0, _ = _affine(params, space)
    sector = _Sector(Operator(space, h0), psi.amplitudes)
    trajectories = []
    for index, (step, out) in enumerate(zip(protocol.steps, block), start=1):
        h = build_hamiltonian(_retuned(params, step.omega_q), space)
        try:
            traj = evolve(psi, h, step.duration, samples=samples, sector=sector, _out=out)
        except ValueError as exc:  # the phase limit, named for the step as the cutoff guard is
            raise ValueError(f"step {index}: {exc}") from None
        require_below_cutoff(traj.populations, space, f"step {index}")
        trajectories.append(traj)
        psi = to_rotating_frame(traj.final, h, step.duration)
    block.flags.writeable = False

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


# The keys ``ProtocolSpec.to_json`` writes, per object of a protocol document.
# ``name`` and a step's ``duration_rule`` are optional; a ghz target has no k, n.
_JSON_KEYS = {
    "document": {"name", "N", "omega_r", "lambda", "U", "initial", "target", "steps"},
    "initial": {"k", "n"},
    "target": {"kind", "k", "n"},
    "step": {"kind", "order", "n0", "k0", "duration_rule"},
}


def _require_keys(entry, kind: str, where: str | None = None):
    """``entry``, refusing a JSON object with a key outside ``_JSON_KEYS[kind]``,
    naming the keys and ``where`` (default ``kind``) they sit. Anything but
    an object passes, for the field reads to refuse."""
    unknown = sorted(set(entry) - _JSON_KEYS[kind]) if isinstance(entry, dict) else []
    if unknown:
        raise ValueError(f"unknown keys in protocol {where or kind}: {', '.join(map(repr, unknown))}")
    return entry


def protocol_from_json(text: str) -> ProtocolSpec:
    """The record a protocol document holds; frequencies and durations are
    recompiled, never stored. Steps and target follow the same grammar as an
    INI ``[protocol]`` section, and an unknown key is refused, as it is
    there. The model is cut off at the default for the record's highest
    start photon: detunings do not depend on the cutoff."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"protocol document is not valid JSON: {exc}") from None
    try:
        _require_keys(doc, "document")
        params = ModelParams(
            n_qubits=_number("N", doc["N"]),
            omega_r=_number("omega_r", doc["omega_r"], float),
            coupling=_number("lambda", doc["lambda"], float),
            stark_u=_number("U", doc["U"], float),
        )
        start = _require_keys(doc["initial"], "initial")
        initial = parse_cell([start["k"], start["n"]])
        target = _require_keys(doc["target"], "target")
        kind, cell = parse_target([target["kind"], *(target[f] for f in ("k", "n") if f in target)])
        steps = [_require_keys(e, "step", f"step {i}") for i, e in enumerate(doc["steps"], start=1)]
        rules = parse_steps(
            [e["kind"], e["order"], e["n0"], e["k0"], e.get("duration_rule", HALF_PERIOD)] for e in steps
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(
            f"protocol document has a missing field or a field of the wrong type: {exc}"
        ) from None
    spec = ProtocolSpec(str(doc.get("name", "custom")), params, rules, initial, kind, cell)
    return replace(spec, params=replace(params, n_max=default_n_max(spec.highest_start_photon, params.n_qubits)))
