"""One measured benchmark process, started by run.py in a fresh interpreter.

It imports the package from the checkout's ``src``, draws the workload's ops
from the seed, prints ``READY`` (run.py times set-up up to that line), and
then, unless ``--setup-only``, runs the ops in a closed loop from a single
client and prints one JSON line of raw results.

The ops run in passes. The first pass runs the whole op list once; later
passes repeat its core (``workloads.core_size``: all of it, except on
``scan``, whose full-size jobs are too long to repeat) while another pass
still fits in ``--seconds``. Untraced passes also time a fixed reference
kernel (``workloads.ref_kernel_seconds``) before every
``workloads.REF_EVERY``-th op and after the last. The host's own speed swings
by up to a factor of two, so run.py divides each op's run by the reference
kernel's time around it and takes the median over the passes; repeating the
same ops is what makes that possible.

With ``--trace 1`` the untraced passes get half the time, then the tracer is
installed and the whole op list runs once more, so the per-layer numbers and
the tracing overhead refer to exactly the ops of the first pass. Last, the
five cold CLI commands of ``workloads.cli_ops`` run once plain, for their
wall times, and once under the span-recording shim ``cli_child.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads  # imports the package


def run_pass(workload, ops, ctx, tracer=None) -> dict:
    # The reference kernel runs before every workloads.REF_EVERY[workload]-th
    # op and after the last, so that it samples the host at the same moments
    # as the ops. It would show up in the trace, so traced passes skip it.
    every = workloads.REF_EVERY.get(workload) if tracer is None else None
    latencies, statuses, counts, failures, ref_slots = [], [], {}, [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if every and i % every == 0:
            ref_slots.append(workloads.ref_kernel_seconds())
        t0 = time.perf_counter()
        if tracer is None:
            outcome = workloads.run_op(workload, op, ctx)
        else:
            tracer.op_id = i
            with tracer.span("op"):
                outcome = workloads.run_op(workload, op, ctx)
        latencies.append(time.perf_counter() - t0)
        statuses.append(outcome.status)
        for key, value in outcome.counts.items():
            if key.endswith("_max"):
                counts[key] = max(counts.get(key, value), value)
            else:
                counts[key] = counts.get(key, 0) + value
        if outcome.status == "failed" and len(failures) < 5:
            failures.append(f"op {i}: {outcome.detail}")
    if every:
        ref_slots.append(workloads.ref_kernel_seconds())
    return {
        "wall_s": time.perf_counter() - start,
        "latencies_s": latencies,
        "statuses": statuses,
        "counts": counts,
        "failures": failures,
        "ref_slots_s": ref_slots,
    }


def run_passes(workload, ops, ctx, seconds: float) -> list[dict]:
    """The first pass over all ops, then passes over the core while the next
    one, at the mean core pass time so far, still ends within ``seconds``."""
    start = time.perf_counter()
    passes = [run_pass(workload, ops, ctx)]
    core = ops[: workloads.core_size(workload, ops)]
    while True:
        elapsed = time.perf_counter() - start
        mean = sum(p["wall_s"] for p in passes[1:]) / (len(passes) - 1) if len(passes) > 1 else 0.0
        if len(passes) > 1 and elapsed + mean > seconds:
            return passes
        passes.append(run_pass(workload, core, ctx))


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.make_ops(args.workload, args.seed)
    ctx = workloads.Context(root=Path.cwd(), work=args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"environment": _environment(), "ref_every": workloads.REF_EVERY.get(args.workload)}
    if not args.trace:
        result["passes"] = run_passes(args.workload, ops, ctx, args.seconds)
    else:
        from tracer import Tracer

        result["passes"] = run_passes(args.workload, ops, ctx, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = run_pass(args.workload, ops, ctx, tracer=tracer)
        finally:
            tracer.uninstall()
        result["trace_summary"] = tracer.summary()
        result["trace_counts"] = dict(tracer.counts)
        # The CLI layers: each command cold, once plain and once under the shim.
        probe = workloads.cli_ops(args.seed)
        result["cli_commands"] = [op["command"] for op in probe]
        result["cli"] = run_pass("cli", probe, ctx)
        ctx.traced = True
        result["cli_traced"] = run_pass("cli", probe, ctx)
        result["cli_span_files"] = [str(p) for p in ctx.span_files]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
