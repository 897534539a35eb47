"""The paper's numbers, pinned in tests/reference.json and read from the
CLI's own outputs.

    PYTHONPATH=src python tests/reference.py          # rewrite tests/reference.json
    PYTHONPATH=src python tests/reference.py --check  # exit 1 naming each number that moved

The commands run in-process, through ``dickestark.cli.main``, into a
temporary directory:
- every scan preset: its ``peaks.json``, the duration, nq and nph at every
  STRIDE-th grid point, and the exact sums (math.fsum) of the whole nq and
  nph curves;
- every scan preset's ``effective.json``: the root, the coupling, both
  durations and both minimum selectivity ratios, and the count of its
  channel rows and of those marked selected, adjacent, risk and
  no_coupling;
- the ghz_4 and dicke_ladder_4 presets' and the N = 6 ladder's
  ``summary.json`` (LADDER6_INI, the 2000-sample ladder of the CI job);
- ``validation.json`` at its defaults: every check's name, scale, verdict
  and threshold, and the value and detail of the checks that measure
  physics. The other checks' values are rounding error (ERROR_CHECKS): their
  verdict, value <= threshold, is what is pinned.

Numbers compare within TOL relative, or TOL absolute below 1, everything
else exactly. An intended output change regenerates the file in the same change,
naming each number that moved.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from dickestark import cli
from dickestark.presets import SCAN_PRESETS

PATH = Path(__file__).with_name("reference.json")
STRIDE = 20
EFFECTIVE_KEYS = (
    "omega_q",
    "coupling",
    "duration_half_period",
    "duration_quarter_period",
    "min_competing_ratio_adjacent",
    "min_competing_ratio_all",
)
CHANNEL_MASKS = ("selected", "adjacent", "risk", "no_coupling")
LADDER6_INI = """\
[model]
n_qubits = 6
lambda = 0.006
stark_u = -0.5

[protocol]
samples = 2000
steps =
    atc 1 0 0 half_period
    tc 1 0 1 half_period
    atc 1 0 2 half_period
    tc 1 0 3 half_period
    atc 1 0 4 half_period
    tc 1 0 5 half_period
target = basis 6 0
"""
# validate checks whose value is a rounding error of order 1e-16..1e-13,
# which moves with the BLAS kernel; only their verdict is pinned.
ERROR_CHECKS = frozenset(
    {"unitarity", "norm-and-energy-conservation", "basis-equivalence", "cutoff-doubling-stability"}
)
# A number x may move by TOL max(1, |x|). OpenBLAS's SkylakeX, Haswell,
# Sandybridge, Nehalem and Katmai kernels (OPENBLAS_CORETYPE), at one and two
# threads and with numpy's AVX2/AVX-512 loops switched off
# (NPY_DISABLE_CPU_FEATURES), moved the record by at most 4.3e-12 (an nph of
# fig8; ghz_4's target_phase by 2.1e-12): phases of eigenvalue rounding times
# t ~ 1e3. TOL is about five times that, and fifty times below a change of
# one part in 1e9 of a number of size 1 or more.
TOL = 2e-11


def collect(work: Path) -> dict:
    """Run the pinned commands with outputs under ``work`` and return the
    reference record they give."""

    def run(name: str, *args: str) -> Path:
        out = work / name
        if cli.main([*args, "--out", str(out)]) != 0:
            raise RuntimeError(f"dickestark {' '.join(args)} failed")
        return out

    def read(path: Path):
        return json.loads(path.read_text(encoding="utf-8"))

    record = {"scan": {}, "effective": {}, "protocol": {}}
    for name in sorted(SCAN_PRESETS):
        out = run(f"scan_{name}", "scan", "--preset", name, "--format", "json")
        curve = read(out / "scan.json")
        record["scan"][name] = {
            "peaks": read(out / "peaks.json"),
            "duration": curve["duration"],
            "nq": curve["nq"][::STRIDE],
            "nph": curve["nph"][::STRIDE],
            "nq_fsum": math.fsum(curve["nq"]),
            "nph_fsum": math.fsum(curve["nph"]),
        }
        effective = read(run(f"effective_{name}", "effective", "--preset", name) / "effective.json")
        record["effective"][name] = {key: effective[key] for key in EFFECTIVE_KEYS}
        rows = effective["channels"]
        counts = {mask: sum(row[mask] for row in rows) for mask in CHANNEL_MASKS}
        record["effective"][name]["channel_counts"] = {"rows": len(rows), **counts}
    for name in ("ghz_4", "dicke_ladder_4"):
        record["protocol"][name] = read(run(name, "protocol", "--preset", name) / "summary.json")
    config = work / "ladder6.ini"
    config.write_text(LADDER6_INI, encoding="utf-8")
    record["protocol"]["ladder6"] = read(run("ladder6", "protocol", "--config", str(config)) / "summary.json")
    validation = read(run("validate", "validate") / "validation.json")
    for check in validation["checks"]:
        if check["name"] in ERROR_CHECKS:
            del check["value"], check["detail"]
    record["validate"] = validation
    return record


def differences(got, pinned, where: str = "") -> list[str]:
    """Every place where ``got`` departs from ``pinned``: a number by more
    than TOL max(1, |number|), anything else at all."""
    if isinstance(pinned, dict) and isinstance(got, dict):
        if got.keys() != pinned.keys():
            return [f"{where}: keys {sorted(got)} != pinned {sorted(pinned)}"]
        return [d for key in pinned for d in differences(got[key], pinned[key], f"{where}/{key}")]
    if isinstance(pinned, list) and isinstance(got, list):
        if len(got) != len(pinned):
            return [f"{where}: {len(got)} entries != pinned {len(pinned)}"]
        return [d for i, (g, p) in enumerate(zip(got, pinned)) for d in differences(g, p, f"{where}[{i}]")]
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (got, pinned))
    if numbers and abs(got - pinned) <= TOL * max(1.0, abs(got), abs(pinned)):
        return []
    if got == pinned and type(got) is type(pinned):
        return []
    return [f"{where}: {got!r} != pinned {pinned!r}"]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        record = collect(Path(work))
    if argv == ["--check"]:
        problems = differences(record, json.loads(PATH.read_text(encoding="utf-8")))
        for problem in problems:
            print(problem)
        print(f"reference: {len(problems)} difference(s) from {PATH.name}")
        return 1 if problems else 0
    PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"reference: wrote {PATH} ({PATH.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
