"""Benchmark of the dickestark package: one command, three workloads.

    python3 perfbench/run.py --workload {scan,protocol,effective} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. It measures set-up in fresh
interpreters, runs the workload's ops in a closed loop from one client for
``--seconds``, checks every output, prints the environment and every metric
by name and unit on ``#`` lines, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced re-run of the same ops. See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scan", "protocol", "effective")
SETUP_SAMPLES = 3
CLI_COMMANDS = ("scan", "protocol", "effective", "validate")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed with the end-to-end metrics but not in the JSON line: the latencies
# in wall time, which swing with the host; the reference kernel's time, which
# tracks the host's speed, not the program's; and fail_frac, which is zero on
# two workloads, so it has no relative bound.
REPORTED_ONLY = (
    ("wall_ops_per_s", "1/s"),
    ("wall_op_ms_p50", "ms"),
    ("wall_op_ms_tail", "ms"),
    ("ref_kernel_ms", "ms"),
    ("fail_frac", "1"),
)
# Latencies are given at the host speed at which the reference kernel
# (workloads.ref_kernel_seconds) takes this long, about its fastest time on
# the 2-vCPU Xeon VM the benchmark was built on.
REF_NOMINAL_MS = 0.3

PER_LAYER = (
    ("model.build_hamiltonian.calls", "count"),
    ("model.build_hamiltonian.self_ms", "ms"),
    ("model.require_hermitian.calls", "count"),
    ("model.require_hermitian.self_ms", "ms"),
    ("dynamics.eigh.calls", "count"),
    ("dynamics.eigh.self_ms", "ms"),
    ("dynamics.eigh.dim3_sum", "count"),
    ("dynamics.eigh.bytes_in", "bytes"),
    ("dynamics.propagate.self_ms", "ms"),
    ("dynamics.evolve.self_ms", "ms"),
    ("dynamics.evolve.samples", "count"),
    ("dynamics.observables.calls", "count"),
    ("dynamics.observables.self_ms", "ms"),
    ("scan.points", "count"),
    ("scan.resonance_scan.self_ms", "ms"),
    ("scan.detect_peaks.self_ms", "ms"),
    ("scan.peak_err_steps_max", "steps"),
    ("effective.solve_resonance.calls", "count"),
    ("effective.solve_resonance.self_ms", "ms"),
    ("effective.tilde_evals", "count"),
    ("effective.rwa_validity_report.self_ms", "ms"),
    ("effective.fail_bracket", "count"),
    ("effective.fail_degenerate", "count"),
    ("protocol.compile.self_ms", "ms"),
    ("protocol.run_protocol.self_ms", "ms"),
    ("protocol.cutoff_trips", "count"),
    ("validate.run_validation.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.out_bytes", "bytes"),
    ("cli.import_dickestark_ms", "ms"),
    ("cli.import_scipy_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.scan_s", "s"),
    ("cli.protocol_s", "s"),
    ("cli.effective_s", "s"),
    ("cli.validate_s", "s"),
    ("fail_frac", "1"),
    ("host.ref_kernel_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.overhead_pct", "%"),
)

IMPORTS = {
    "cli.import_dickestark_ms": "dickestark",
    "cli.import_scipy_ms": "scipy.optimize, scipy.signal",
    "cli.import_numpy_ms": "numpy",
}


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts: the package from the
    checkout's ``src``, BLAS and OpenMP pinned to one thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a nonempty sequence."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """The highest quantile with at least ten samples beyond it, never below
    the median (with fewer than 20 samples it is the median)."""
    return max(0.5, 1.0 - 10.0 / n)


def source_revision(root: Path) -> dict:
    rev = "none"
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            )
            rev = out.stdout.strip() or "none"
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_revision": rev, "src_sha256": digest.hexdigest()[:16]}


def start_worker(root: Path, env: dict, args, work: Path, setup_only: bool):
    """Start a worker in a fresh interpreter; return it with its set-up time,
    from the start of the process until it reports that its first op is
    ready."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        _, err = finish(proc, 30)
        raise BenchError(f"worker did not start: {line.strip()} {err.strip()[-500:]}")
    return proc, ready


def finish(proc, timeout: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None


def import_ms(root: Path, env: dict, module: str) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print((time.perf_counter() - t) * 1e3)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    if out.returncode != 0:
        raise BenchError(f"import {module} failed: {out.stderr.strip()[-300:]}")
    return float(out.stdout.split()[-1])


def ref_kernel_ms(passes: list[dict]) -> float:
    """The reference kernel's median time over the untraced passes: how fast
    the host ran."""
    return 1e3 * statistics.median(t for p in passes for t in p["ref_slots_s"])


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict, dict]:
    """End-to-end metrics of the untraced passes, the printed extras, and
    notes. Each run of a core op is divided by the mean of the reference
    kernel's two times around it, in the same pass: the last before it and the
    next after it. The op's latency is the median of these ratios over the
    passes, times REF_NOMINAL_MS. Ops that did not succeed every time are
    left out of the latencies and counted in fail_frac. ops_per_s is the rate
    those latencies add up to. The extras give the same latencies in wall
    time: each op's median over the passes."""
    passes = result["passes"]
    every = result["ref_every"]
    core = range(len(passes[-1]["statuses"]))
    ok = [i for i in core if all(p["statuses"][i] == "ok" for p in passes)]

    def around(p, i):
        slots = p["ref_slots_s"]
        return (slots[i // every] + slots[i // every + 1]) / 2

    lat = [REF_NOMINAL_MS * statistics.median(p["latencies_s"][i] / around(p, i) for p in passes) for i in ok]
    wall = [1e3 * statistics.median(p["latencies_s"][i] for p in passes) for i in ok]
    q = tail_quantile(len(lat)) if lat else 0.5
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": 1e3 * len(lat) / sum(lat) if lat else 0.0,
        "op_ms_p50": quantile(lat, 0.5) if lat else 0.0,
        "op_ms_tail": quantile(lat, q) if lat else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    statuses = [s for p in passes for s in p["statuses"]]
    extras = {
        "wall_ops_per_s": 1e3 * len(wall) / sum(wall) if wall else 0.0,
        "wall_op_ms_p50": quantile(wall, 0.5) if wall else 0.0,
        "wall_op_ms_tail": quantile(wall, q) if wall else 0.0,
        "ref_kernel_ms": ref_kernel_ms(passes),
        "fail_frac": sum(s != "ok" for s in statuses) / len(statuses),
    }
    notes = {
        "passes": len(passes),
        "core_ops_ok": len(ok),
        "tail_percentile": round(100 * q, 2),
        "setup_samples": setup,
    }
    return metrics, extras, notes


def per_layer(result: dict, imports: dict) -> dict:
    from tracer import merge_summaries  # benchmark-local; imports nothing of the package

    # The workload's layers come from its traced pass; the cli and validate
    # layers from the traced CLI commands, kept apart so that the counts of
    # one workload are not mixed with the CLI's.
    summary = result["trace_summary"]
    counts = result["trace_counts"]
    cli_summary: dict = {}
    for path in result["cli_span_files"]:
        merge_summaries(cli_summary, json.loads(Path(path).read_text(encoding="utf-8"))["summary"])
    traced = result["traced"]
    outcome = traced["counts"]

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_ms(name):
        source = cli_summary if name.startswith(("cli.", "validate.")) else summary
        return source.get(name, {}).get("self_ms", 0.0)

    cli = result["cli"]
    first = result["passes"][0]
    untraced_s = first["wall_s"] - sum(first["ref_slots_s"])
    values = {
        "scan.points": outcome.get("points", 0),
        "scan.peak_err_steps_max": outcome.get("peak_err_steps_max", 0.0),
        "dynamics.eigh.dim3_sum": counts.get("dynamics.eigh.dim3_sum", 0),
        "dynamics.eigh.bytes_in": counts.get("dynamics.eigh.bytes_in", 0),
        "dynamics.evolve.samples": counts.get("dynamics.evolve.samples", 0),
        "effective.tilde_evals": calls("effective.tilde_frequency"),
        "effective.fail_bracket": outcome.get("ResonanceBracketError", 0),
        "effective.fail_degenerate": outcome.get("DegenerateDetuningError", 0),
        "protocol.cutoff_trips": outcome.get("cutoff_trips", 0),
        "cli.out_bytes": cli["counts"].get("out_bytes", 0),
        "fail_frac": sum(s != "ok" for s in traced["statuses"]) / len(traced["statuses"]),
        "host.ref_kernel_ms": ref_kernel_ms(result["passes"]),
        "trace.ops": len(traced["statuses"]),
        "trace.overhead_pct": 100.0 * (traced["wall_s"] / untraced_s - 1.0),
    }
    values.update(imports)
    for command, seconds, status in zip(result["cli_commands"], cli["latencies_s"], cli["statuses"]):
        if command in CLI_COMMANDS:
            values[f"cli.{command}_s"] = seconds if status == "ok" else 0.0
    for name, _ in PER_LAYER:
        if name in values:
            continue
        layer, _, kind = name.rpartition(".")
        values[name] = calls(layer) if kind == "calls" else self_ms(layer)
    return values


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "dickestark" / "__init__.py").is_file():
        raise BenchError(f"no package source at {root / 'src' / 'dickestark'}; run from the root of a checkout")
    env = child_env(root)
    # compile bytecode now, so that no timed import pays for it
    for directory in (root / "src", HERE):
        compileall.compile_dir(str(directory), quiet=1)
    work = HERE / "_work" / f"run{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_worker(root, env, args, work, setup_only=True)
            finish(proc, 60)
            setup.append(ready)
        proc, ready = start_worker(root, env, args, work, setup_only=False)
        setup.append(ready)
        out, err = finish(proc, args.seconds * 2 + 150)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-800:]}")
        result = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            layers = per_layer(result, {name: import_ms(root, env, module) for name, module in IMPORTS.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, extras, notes = end_to_end(result, setup)
    runs = result["passes"] + ([result["traced"], result["cli"], result["cli_traced"]] if args.trace else [])
    statuses = [s for p in runs for s in p["statuses"]]
    failed = statuses.count("failed")
    environment = {
        **source_revision(root),
        **result["environment"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print("# environment " + json.dumps(environment, sort_keys=True))
    units = dict(END_TO_END + REPORTED_ONLY)
    for name, value in list(metrics.items()) + list(extras.items()):
        print(f"# {name} = {value:.6g} {units[name]}")
    print("# " + json.dumps(notes))
    for line in (f for p in runs for f in p["failures"]):
        print(f"# FAILED {line}")
    if args.trace:
        per_layer_units = dict(PER_LAYER)
        chosen = {name: layers[name] for name, _ in PER_LAYER}
        for name, value in chosen.items():
            print(f"# {name} = {value:.6g} {per_layer_units[name]}")
        reported = {name: {"value": value, "unit": per_layer_units[name]} for name, value in chosen.items()}
    else:
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(statuses), "failed": failed, "metrics": reported}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        summary = run(args)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
