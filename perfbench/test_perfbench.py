"""Tests of the benchmark itself, not of the package. Run from the repository
root:

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_ops(workload):
    assert workloads.make_ops(workload, 7) == workloads.make_ops(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_ops(workload):
    assert workloads.make_ops(workload, 7) != workloads.make_ops(workload, 8)


def test_cli_commands_follow_the_seed():
    assert workloads.cli_ops(7) == workloads.cli_ops(7)
    assert workloads.cli_ops(7) != workloads.cli_ops(8)


def _traced(workload, ops, tmp_path):
    ctx = workloads.Context(root=ROOT, work=tmp_path)
    t = tracer.Tracer()
    original = np.linalg.eigh
    t.install()
    try:
        outcomes = []
        for i, op in enumerate(ops):
            t.op_id = i
            with t.span("op"):
                outcomes.append(workloads.run_op(workload, op, ctx))
    finally:
        t.uninstall()
    assert np.linalg.eigh is original
    return t, outcomes


def test_self_times_of_an_op_sum_to_its_span(tmp_path):
    ops = workloads.make_ops("protocol", 3)[:4]
    t, outcomes = _traced("protocol", ops, tmp_path)
    assert [o.status for o in outcomes] == ["ok"] * 4
    own = t.self_times()
    for i in range(len(ops)):
        (root,) = [s for s in t.spans if s[0] == "op" and s[4] == i]
        inside = sum(o for s, o in zip(t.spans, own) if s[4] == i)
        assert inside == pytest.approx(root[2] - root[1], abs=1e-6)
        assert len([s for s in t.spans if s[4] == i]) > 10
    assert all(o >= -1e-6 for o in own)


def test_scan_traces_one_build_and_one_eigh_per_grid_point(tmp_path):
    (op,) = [o for o in workloads.make_ops("scan", 1) if o.get("n_qubits") == 2][:1]
    t, (outcome,) = _traced("scan", [op], tmp_path)
    assert outcome.status == "ok"
    summary = t.summary()
    assert summary["model.build_hamiltonian"]["calls"] == op["points"]
    assert summary["dynamics.eigh"]["calls"] == op["points"]
    assert outcome.counts["points"] == op["points"]


def test_effective_runs_no_eigh(tmp_path):
    ops = workloads.make_ops("effective", 1)[:50]
    t, outcomes = _traced("effective", ops, tmp_path)
    assert "dynamics.eigh" not in t.summary()
    assert {o.status for o in outcomes} <= {"ok", "refused"}


def test_corrupted_reference_fails_the_check(tmp_path, monkeypatch):
    ctx = workloads.Context(root=ROOT, work=tmp_path)
    op = {"kind": "preset", "name": "fig7"}
    assert workloads.run_op("scan", op, ctx).status == "ok"
    monkeypatch.setitem(workloads.PEAK_REFERENCES, "fig7", 2.001)
    outcome = workloads.run_op("scan", op, ctx)
    assert outcome.status == "failed" and "fig7" in outcome.detail

    ghz = {"kind": "preset", "name": "ghz_4", "samples": 400}
    assert workloads.run_op("protocol", ghz, ctx).status == "ok"
    monkeypatch.setattr(workloads, "GHZ4_FIDELITY", 0.97)
    assert workloads.run_op("protocol", ghz, ctx).status == "failed"


def test_cli_check_rejects_non_finite_json_and_missing_files(tmp_path):
    op = {"command": "validate"}
    done = SimpleNamespace(returncode=0, stderr="")
    assert workloads._check_cli(op, done, tmp_path).status == "failed"  # no file
    (tmp_path / "validation.json").write_text('{"passed": true, "worst": NaN}')
    outcome = workloads._check_cli(op, done, tmp_path)
    assert outcome.status == "failed" and "NaN" in outcome.detail
    (tmp_path / "validation.json").write_text('{"passed": true}')
    assert workloads._check_cli(op, done, tmp_path).status == "ok"
    assert workloads._check_cli(op, SimpleNamespace(returncode=2, stderr="x"), tmp_path).status == "failed"


def test_traced_cli_command_records_cli_and_validate_spans(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    ctx = workloads.Context(root=ROOT, work=tmp_path, traced=True)
    (op,) = [o for o in workloads.cli_ops(1) if o["command"] == "validate"]
    assert workloads.run_op("cli", op, ctx).status == "ok"
    (spans,) = ctx.span_files
    summary = json.loads(spans.read_text())["summary"]
    assert summary["cli.main"]["calls"] == 1
    assert summary["validate.run_validation"]["calls"] == 1


def test_tail_quantile_keeps_ten_samples_beyond():
    assert run.tail_quantile(1000) == pytest.approx(0.99)
    assert run.tail_quantile(15) == 0.5
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_end_to_end_divides_each_run_by_the_reference_around_it():
    def run_pass(latencies, statuses, refs):
        return {"latencies_s": latencies, "statuses": statuses, "ref_slots_s": refs}

    result = {
        "peak_rss_mb": 100.0,
        "ref_every": 1,
        "passes": [
            run_pass([0.4, 0.2, 0.3], ["ok", "refused", "ok"], [0.001, 0.001, 0.002, 0.002]),
            run_pass([0.2, 0.3, 0.6], ["ok", "refused", "ok"], [0.0004, 0.0006, 0.002, 0.002]),
        ],
    }
    metrics, extras, _ = run.end_to_end(result, [1.0, 3.0, 2.0])
    # op 0: ratios 400 and 400; op 2: ratios 150 and 300, median 225
    lat = [400 * run.REF_NOMINAL_MS, 225 * run.REF_NOMINAL_MS]
    assert metrics["op_ms_p50"] == pytest.approx(sum(lat) / 2)
    assert metrics["ops_per_s"] == pytest.approx(1e3 * 2 / sum(lat))
    assert metrics["setup_s"] == 2.0
    assert extras["wall_op_ms_p50"] == pytest.approx((300.0 + 450.0) / 2)
    assert extras["ref_kernel_ms"] == pytest.approx(1.5)
    assert extras["fail_frac"] == pytest.approx(2 / 6)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
