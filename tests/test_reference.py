"""Every pinned output of tests/reference.json: the scan presets' peaks and
curves, the effective roots, durations and selectivity row counts, the
protocol summaries and the validation report, read from the CLI's own
outputs (tests/reference.py)."""

import json

import pytest

import reference


@pytest.fixture(scope="module")
def pinned():
    return json.loads(reference.PATH.read_text(encoding="utf-8"))


def test_cli_outputs_match_the_pinned_reference(pinned, tmp_path):
    assert reference.differences(reference.collect(tmp_path), pinned) == []


@pytest.mark.parametrize(
    "path",
    [
        ("effective", "fig3", "omega_q"),
        ("protocol", "ghz_4", "steps", 1, "duration"),
        ("scan", "fig8", "nq", 20),
        ("validate", "checks", 5, "value"),
    ],
)
def test_a_one_in_1e9_change_is_named(pinned, path):
    moved = json.loads(json.dumps(pinned))
    holder = moved
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] *= 1 + 1e-9
    assert len(reference.differences(moved, pinned)) == 1
