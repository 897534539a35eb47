"""Workload inputs and operations.

``make_ops(workload, seed)`` draws a workload's op list from the seed alone,
and ``cli_ops(seed)`` the CLI commands of the traced run; the program only
ever sees the generated inputs. ``run_op`` executes one op through the
package's public functions, or one cold CLI command, and checks the outputs.
Every call into the package goes through a module attribute
(``scan.resonance_scan``, not a name imported at load time), so the traced
run's wrappers see it.

An op ends in one of three states:

* ``ok``      the program answered and the answer passed its check;
* ``refused`` the program declined the input with one of its typed
  refusals (``ResonanceBracketError``, ``DegenerateDetuningError``), which
  only the ``effective`` draw reaches;
* ``failed``  anything else: a wrong answer, an unexpected exception, a
  nonzero exit or unreadable output.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import dickestark.dynamics as dynamics
import dickestark.effective as effective
import dickestark.model as model
import dickestark.presets as presets
import dickestark.protocol as protocol
import dickestark.scan as scan

WORKLOADS = ("scan", "protocol", "effective")

# Reference values from the paper's figures and the acceptance suite.
PEAK_REFERENCES = {
    "fig2a": -0.250,
    "fig2b": 2.125,
    "fig3": 2.125,
    "fig4": -0.125,
    "fig5": 1.875,
    "fig6": 0.125,
    "fig7": 2.0003,
    "fig8": 0.0046,
}
GHZ4_FIDELITY = 0.9952
GHZ4_FIDELITY_TOL = 0.002
DICKE_LADDER4_FINAL_POP = 0.9903
DICKE_LADDER4_FINAL_POP_TOL = 0.002
# Floors for drawn Dicke ladders (measured worst case 0.982 at N = 6).
LADDER_MIN_FIDELITY = 0.98
LADDER_MIN_STEP_POP = 0.95
# |tilde| at a second-order root, as validate.TILDE_RESIDUAL_LIMIT.
TILDE_RESIDUAL_LIMIT = 1e-9

# Scan op list: the core, which every pass repeats, then full-size jobs,
# which the first pass runs and checks. A core job is zoomed: it scans
# SCAN_ZOOM_STEPS grid steps either side of its resonance, at the grid step
# of the full-size job of the same kind, so it resolves the same peak with
# the same per-point work on 81 points (20-170 ms). The core has all eight
# presets, centred on their reference peaks, and drawn jobs of both orders
# for every N. Drawn second-order jobs get twice the half-width, since their
# peaks sit up to 35 steps from the bare closed form that centres them.
# Full-size jobs are the eight presets on their 801-point grids and a drawn
# second-order job on a 1201-point grid. Drawn jobs are (order, N, grid
# points); target kind, k0 and n0 come from the seed.
#
# Drawn first-order jobs run at lambda = 0.003, where the first-order closed
# form stays within 0.45 grid steps of the exact peak for N <= 6; at the
# preset lambda = 0.006 the dispersive shift reaches 2.3 steps at N = 6.
# Drawn second-order jobs run at lambda = 0.05, U = -16 for N <= 5; mid-ladder
# N = 6 second-order peaks sit 1-3 steps from the tilde root, a limit of the
# second-order theory rather than of the scan, so they are not drawn.
SCAN_PRESETS = ("fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
SCAN_ZOOM_STEPS = 40
SCAN_CORE_DRAWN = tuple((1, n, 2 * SCAN_ZOOM_STEPS + 1) for n in range(2, 7)) + tuple(
    (2, n, 4 * SCAN_ZOOM_STEPS + 1) for n in range(2, 6)
)
SCAN_FULL_DRAWN = ((2, 2, 1201),)
SCAN_DRAWN_PARAMS = {1: (0.003, -0.5, 0.0005), 2: (0.05, -16.0, 0.0001)}  # lambda, U, grid step
PROTOCOL_SAMPLES = (400, 2000)
EFFECTIVE_PER_CELL = 17


@dataclass
class Outcome:
    status: str  # "ok" | "refused" | "failed"
    detail: str = ""
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------- op lists


def make_ops(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        return _scan_ops(rng)
    if workload == "protocol":
        return _protocol_ops(rng)
    if workload == "effective":
        return _effective_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _scan_ops(rng: random.Random) -> list[dict]:
    def drawn(order, n_qubits, points):
        op = {
            "kind": "drawn",
            "order": order,
            "n_qubits": n_qubits,
            "target": rng.choice(("tc", "atc")),
            "k0": rng.randrange(0, n_qubits - order + 1),
            "n0": rng.randrange(0, 2) if order == 1 else 0,
            "points": points,
        }
        op["window"] = _drawn_window(op)
        return op

    ops = [{"kind": "preset", "name": name, "zoom": True} for name in SCAN_PRESETS]
    ops += [drawn(*shape) for shape in SCAN_CORE_DRAWN]
    ops += [{"kind": "preset", "name": name} for name in SCAN_PRESETS]
    ops += [drawn(*shape) for shape in SCAN_FULL_DRAWN]
    return ops


def core_size(workload: str, ops: list[dict]) -> int:
    """How many ops, from the front of the list, every pass repeats; the
    rest run in the first pass only."""
    return len(SCAN_PRESETS) + len(SCAN_CORE_DRAWN) if workload == "scan" else len(ops)


def _drawn_window(op: dict) -> tuple[float, float]:
    """Scan window centred on the bare closed-form resonance (omega_r = 1),
    computed here so that the program sees only the window."""
    n_qubits, n0, k0 = op["n_qubits"], op["n0"], op["k0"]
    _, stark_u, step = SCAN_DRAWN_PARAMS[op["order"]]
    if op["order"] == 1:
        if op["target"] == "tc":
            omega_q = 1.0 - stark_u * (n0 - k0 + n_qubits / 2) / n_qubits
        else:
            omega_q = -1.0 - stark_u * (n0 + k0 + 1 - n_qubits / 2) / n_qubits
    elif op["target"] == "tc":
        omega_q = 1.0 - stark_u * (2 * n0 - 2 * k0 + n_qubits) / (2 * n_qubits)
    else:
        omega_q = -1.0 - stark_u * (2 * n0 + 2 * k0 + 4 - n_qubits) / (2 * n_qubits)
    center = 1.0 - omega_q
    half = step * (op["points"] - 1) / 2
    return (center - half, center + half)


def _protocol_ops(rng: random.Random) -> list[dict]:
    """The two presets, then every full and partial Dicke ladder for
    N = 2..6 at both sample counts, in seed-shuffled order."""
    ladders = [
        {"kind": "ladder", "n_qubits": n, "k_target": k, "samples": samples}
        for n in range(2, 7)
        for k in range(1, n + 1)
        for samples in PROTOCOL_SAMPLES
    ]
    rng.shuffle(ladders)
    return [
        {"kind": "preset", "name": "dicke_ladder_4", "samples": 400},
        {"kind": "preset", "name": "ghz_4", "samples": 400},
    ] + ladders


def _effective_ops(rng: random.Random) -> list[dict]:
    """EFFECTIVE_PER_CELL targets for every (N, order, n0) cell, so every seed
    has the same mix of sizes, in seed-shuffled order; coupling, Stark term,
    kind and k0 are drawn."""
    ops = []
    for n_qubits in range(2, 7):
        for order in (1, 2):
            for n0 in range(3):
                for _ in range(EFFECTIVE_PER_CELL):
                    ops.append(
                        {
                            "n_qubits": n_qubits,
                            "coupling": rng.uniform(0.01, 0.2),
                            "stark_u": rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-1.0, 5.0),
                            "target": rng.choice(("tc", "atc")),
                            "order": order,
                            "k0": rng.randrange(0, n_qubits - order + 1),
                            "n0": n0,
                        }
                    )
    rng.shuffle(ops)
    return ops


def cli_ops(seed: int) -> list[dict]:
    """The cold CLI commands the traced run starts: four presets and one
    seed-drawn INI-config command."""
    rng = random.Random(f"cli:{seed}")
    n_qubits = rng.randint(2, 6)
    config = {
        "n_qubits": n_qubits,
        "coupling": round(rng.uniform(0.002, 0.05), 6),
        "stark_u": round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 4.0), 6),
        "target": rng.choice(("tc", "atc")),
        "k0": rng.randrange(0, n_qubits),
        "n0": rng.randrange(0, 3),
    }
    return [
        {"command": "scan", "args": ["scan", "--preset", "fig3"]},
        {"command": "protocol", "args": ["protocol", "--preset", "ghz_4"]},
        {"command": "effective", "args": ["effective", "--preset", "fig7"]},
        {"command": "validate", "args": ["validate"]},
        {"command": "config", "args": ["effective"], "config": config},
    ]


# ---------------------------------------------------------------- ops


def run_op(workload: str, op: dict, ctx: "Context") -> Outcome:
    runner = {
        "scan": _run_scan,
        "protocol": _run_protocol,
        "effective": _run_effective,
        "cli": _run_cli,
    }[workload]
    try:
        return runner(op, ctx)
    except (effective.ResonanceBracketError, effective.DegenerateDetuningError) as exc:
        if workload != "effective":
            return Outcome("failed", f"{type(exc).__name__}: {exc}")
        return Outcome("refused", type(exc).__name__, {type(exc).__name__: 1})
    except protocol.CutoffExceededError as exc:
        return Outcome("failed", f"CutoffExceededError: {exc}", {"cutoff_trips": 1})
    except Exception as exc:  # an op that raises is a failed op, never a crash of the run
        return Outcome("failed", f"{type(exc).__name__}: {exc}")


def _scan_job(op: dict):
    if op["kind"] == "preset":
        preset = presets.SCAN_PRESETS[op["name"]]
        window, points = preset.window, preset.points
        if op.get("zoom"):
            step = (window[1] - window[0]) / (points - 1)
            center = PEAK_REFERENCES[op["name"]]
            window = (center - SCAN_ZOOM_STEPS * step, center + SCAN_ZOOM_STEPS * step)
            points = 2 * SCAN_ZOOM_STEPS + 1
        return preset.params, preset.target, (preset.initial_k, preset.initial_n), window, points, preset.min_height
    coupling, stark_u, _ = SCAN_DRAWN_PARAMS[op["order"]]
    target = effective.ResonanceTarget(op["target"], op["order"], op["n0"], op["k0"])
    # start in the pair's cell that the transition empties
    initial = target.pair()[0] if op["target"] == "atc" else target.pair()[1]
    # The cutoff is fixed per N (the default for an initial photon number of 2,
    # the most any drawn job starts with), so a job's cost depends on its
    # shape alone and every seed sees the same mix of sizes.
    params = model.ModelParams(
        n_qubits=op["n_qubits"],
        coupling=coupling,
        stark_u=stark_u,
        n_max=model.default_n_max(2, op["n_qubits"]),
    )
    return params, target, initial, op["window"], op["points"], 0.5


def _run_scan(op: dict, ctx: "Context") -> Outcome:
    params, target, initial, window, points, min_height = _scan_job(op)
    omega_q = effective.solve_resonance(target, params)
    predicted = effective.ratio_from_omega_q(omega_q, params)
    duration = effective.pulse_duration(target, replace(params, omega_q=omega_q), 0.5)
    space = model.build_space(params, model.BasisKind.SYMMETRIC)
    psi0 = model.dicke_state(space, *initial)
    grid = scan.scan_grid(window, points)
    curve = scan.resonance_scan(psi0, grid, duration, params, space)
    report = scan.peak_report(curve, target, predicted, min_height)

    step = float(grid[1] - grid[0])
    err_steps = abs(report.location - predicted) / step
    counts = {"points": int(grid.size), "peak_err_steps_max": err_steps}
    problems = []
    if err_steps > 1.0:
        problems.append(f"peak {report.location:.6f} is {err_steps:.2f} steps from the prediction {predicted:.6f}")
    if op["kind"] == "preset":
        reference = PEAK_REFERENCES[op["name"]]
        if abs(report.location - reference) > step:
            problems.append(f"{op['name']} peak {report.location:.6f} not within a step of {reference}")
    if problems:
        return Outcome("failed", "; ".join(problems), counts)
    return Outcome("ok", "", counts)


def _protocol_params(n_qubits: int, coupling: float, stark_u: float) -> model.ModelParams:
    return model.ModelParams(
        n_qubits=n_qubits, coupling=coupling, stark_u=stark_u, n_max=model.default_n_max(0, n_qubits)
    )


def _run_protocol(op: dict, ctx: "Context") -> Outcome:
    if op["kind"] == "preset" and op["name"] == "ghz_4":
        params = _protocol_params(4, presets.SECOND_ORDER_COUPLING, presets.SECOND_ORDER_STARK)
        proto = protocol.compile_ghz4(params)
    else:
        n_qubits = 4 if op["kind"] == "preset" else op["n_qubits"]
        k_target = 4 if op["kind"] == "preset" else op["k_target"]
        params = _protocol_params(n_qubits, presets.FIRST_ORDER_COUPLING, presets.FIRST_ORDER_STARK)
        proto = protocol.compile_dicke_ladder(n_qubits, k_target, params)
    space = model.build_space(params, model.BasisKind.SYMMETRIC)
    result = protocol.run_protocol(proto, params, space, samples=op["samples"])
    dynamics.observables(result.final)

    problems = []
    if op["kind"] == "preset" and op["name"] == "ghz_4":
        if abs(result.fidelity_optimized - GHZ4_FIDELITY) > GHZ4_FIDELITY_TOL:
            problems.append(f"ghz_4 fidelity {result.fidelity_optimized:.4f} outside {GHZ4_FIDELITY} +- {GHZ4_FIDELITY_TOL}")
    else:
        if op["kind"] == "preset":
            final_pop = result.final.population(4, 0)
            if abs(final_pop - DICKE_LADDER4_FINAL_POP) > DICKE_LADDER4_FINAL_POP_TOL:
                problems.append(f"dicke_ladder_4 final population {final_pop:.4f} outside {DICKE_LADDER4_FINAL_POP} +- {DICKE_LADDER4_FINAL_POP_TOL}")
        if result.fidelity < LADDER_MIN_FIDELITY:
            problems.append(f"{proto.name} fidelity {result.fidelity:.4f} < {LADDER_MIN_FIDELITY}")
        for traj, cells in zip(result.per_step, proto.expected):
            pop = float(traj.populations[-1][space.index(*cells[0])])
            if pop < LADDER_MIN_STEP_POP:
                problems.append(f"{proto.name} step population {pop:.4f} in {cells[0]} < {LADDER_MIN_STEP_POP}")
    if problems:
        return Outcome("failed", "; ".join(problems))
    return Outcome("ok")


def _run_effective(op: dict, ctx: "Context") -> Outcome:
    target = effective.ResonanceTarget(op["target"], op["order"], op["n0"], op["k0"])
    top = max(n for _, n in target.pair())
    params = model.ModelParams(
        n_qubits=op["n_qubits"],
        coupling=op["coupling"],
        stark_u=op["stark_u"],
        n_max=model.default_n_max(top, op["n_qubits"]),
    )
    omega_q = effective.solve_resonance(target, params)
    tuned = replace(params, omega_q=omega_q)
    space = model.build_space(tuned, model.BasisKind.SYMMETRIC)
    duration = effective.pulse_duration(target, tuned, 0.5)
    report = effective.rwa_validity_report(target, tuned, space)

    # The target's own channel: its detuning (tilde frequency at second order)
    # must vanish at the returned root, and its pulse must be a finite
    # half period of its coupling.
    kind = target.kind if target.order == 1 else target.kind + "2"
    (channel,) = [c for c in report.channels if (c.kind, c.n, c.k) == (kind, target.n0, target.k0)]
    scale = 1e-12 * max(1.0, abs(params.stark_u)) if target.order == 1 else TILDE_RESIDUAL_LIMIT
    problems = []
    if not abs(channel.detuning) <= scale:
        problems.append(f"{target.label()} detuning {channel.detuning:.3e} at the root")
    if not (math.isfinite(duration) and abs(duration * abs(channel.coupling) - 0.5 * math.pi) < 1e-9):
        problems.append(f"{target.label()} duration {duration!r} is not half a period")
    if problems:
        return Outcome("failed", "; ".join(problems))
    return Outcome("ok")


# ---------------------------------------------------------------- cold CLI

CLI_EXPECTED_FILES = {
    "scan": ("scan.csv", "peaks.json"),
    "protocol": ("protocol.json", "summary.json", "step1_trajectory.csv", "step2_trajectory.csv"),
    "effective": ("effective.json",),
    "validate": ("validation.json",),
    "config": ("effective.json",),
}


@dataclass
class Context:
    """What ops need beyond their inputs: the checkout, a scratch directory
    inside it, and whether CLI commands run under the span-recording shim
    (whose span files are collected in ``span_files``)."""

    root: Path
    work: Path
    traced: bool = False
    span_files: list = field(default_factory=list)
    serial: int = 0


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _config_text(config: dict, out_dir: Path) -> str:
    return (
        "[model]\n"
        f"n_qubits = {config['n_qubits']}\n"
        f"lambda = {config['coupling']}\n"
        f"stark_u = {config['stark_u']}\n\n"
        "[effective]\n"
        f"kind = {config['target']}\n"
        "order = 1\n"
        f"n0 = {config['n0']}\n"
        f"k0 = {config['k0']}\n\n"
        "[output]\n"
        f"directory = {out_dir}\n"
        "format = json\n"
    )


def _run_cli(op: dict, ctx: Context) -> Outcome:
    ctx.serial += 1
    out_dir = ctx.work / f"cli{ctx.serial}"
    args = list(op["args"])
    if "config" in op:
        config_path = ctx.work / f"cli{ctx.serial}.ini"
        config_path.write_text(_config_text(op["config"], out_dir), encoding="utf-8")
        args += ["--config", str(config_path)]
    else:
        args += ["--out", str(out_dir)]
    runner = [sys.executable, "-m", "dickestark"]
    if ctx.traced:
        spans = ctx.work / f"cli{ctx.serial}.spans.json"
        runner = [sys.executable, str(ctx.root / "perfbench" / "cli_child.py"), "--spans", str(spans), "--"]
        ctx.span_files.append(spans)
    proc = subprocess.run(runner + args, cwd=ctx.root, capture_output=True, text=True, timeout=150)
    try:
        return _check_cli(op, proc, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _check_cli(op: dict, proc, out_dir: Path) -> Outcome:
    command = op["command"]
    if proc.returncode != 0:
        return Outcome("failed", f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    counts = {"out_bytes": 0}
    docs = {}
    for name in CLI_EXPECTED_FILES[command]:
        path = out_dir / name
        if not path.is_file():
            return Outcome("failed", f"{command} did not write {name}")
        counts["out_bytes"] += path.stat().st_size
        if name.endswith(".json"):
            try:
                docs[name] = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
            except ValueError as exc:
                return Outcome("failed", f"{command} wrote invalid JSON {name}: {exc}")
    problem = ""
    if command == "scan":
        location = docs["peaks.json"]["location"]
        preset = presets.SCAN_PRESETS["fig3"]
        step = (preset.window[1] - preset.window[0]) / (preset.points - 1)
        if abs(location - PEAK_REFERENCES["fig3"]) > step:
            problem = f"fig3 peak {location} not within a step of {PEAK_REFERENCES['fig3']}"
    elif command == "protocol":
        fid = docs["summary.json"]["fidelity"]
        if abs(fid - GHZ4_FIDELITY) > GHZ4_FIDELITY_TOL:
            problem = f"ghz_4 fidelity {fid} outside {GHZ4_FIDELITY} +- {GHZ4_FIDELITY_TOL}"
    elif command == "effective":
        ratio = docs["effective.json"]["ratio"]
        if abs(ratio - PEAK_REFERENCES["fig7"]) > 1e-4:
            problem = f"fig7 ratio {ratio} not within 1e-4 of {PEAK_REFERENCES['fig7']}"
    elif command == "validate":
        if docs["validation.json"]["passed"] is not True:
            problem = "validation reported failures"
    if problem:
        return Outcome("failed", problem, counts)
    return Outcome("ok", "", counts)


# ---------------------------------------------------------------- host


# Every how many ops a pass runs the reference kernel: every 10-30 ms.
REF_EVERY = {"scan": 1, "protocol": 1, "effective": 10}

_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((24, 24)) + 1j * _REF_RNG.standard_normal((24, 24))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.conj().T


def ref_kernel_seconds() -> float:
    """One timing, in seconds, of a fixed kernel of about 0.3 ms that uses
    nothing of the package: a pure-Python arithmetic loop and a table of
    small objects, as in the effective layer, and one dense 24x24 complex
    Hermitian eigendecomposition, as at a scan grid point. It tracks the
    host's speed, not the program's."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1000):
        total += math.sqrt(i) * (i % 7)
    table = {k: (0.5 * k, str(k), k % 3 == 0) for k in range(100)}
    sorted(table.values(), key=lambda row: -row[0])
    np.linalg.eigh(_REF_MATRIX)
    return time.perf_counter() - start
