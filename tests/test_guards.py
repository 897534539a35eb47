"""Guard raises that no other test reaches, one case each, matched by the
message that names the cause."""

import re
from dataclasses import replace

import numpy as np
import pytest

from dickestark.dynamics import Trajectory, evolve, propagate, to_rotating_frame
from dickestark.effective import (
    ResonanceTarget,
    pulse_duration,
    solve_first_order_resonance,
    solve_second_order_resonance,
)
from dickestark.model import ModelParams, Operator, StateVector, build_hamiltonian, build_space, dicke_state
from dickestark.presets import protocol_preset
from dickestark.protocol import compile_ghz4, run_protocol
from dickestark.scan import ScanCurve, detect_peaks, peak_report, resonance_scan, scan_grid

PARAMS = ModelParams(n_qubits=1, coupling=0.1, stark_u=-1.0, n_max=0)
SPACE = build_space(PARAMS)  # dimension 2
OTHER = replace(PARAMS, n_max=1)  # dimension 4
PSI = dicke_state(SPACE, 0, 0)


def _other_h():
    return build_hamiltonian(OTHER, build_space(OTHER))


def _trajectory_at_equal_times():
    pops = np.array([[1.0, 0.0], [1.0, 0.0]])
    return Trajectory(SPACE, np.zeros(2), pops, np.zeros(2), np.zeros(2), PSI)


def _scan_from_another_space():
    other = build_space(OTHER)
    return resonance_scan(dicke_state(other, 0, 0), np.array([0.0, 0.1]), 1.0, PARAMS, SPACE)


def _ghz_run(samples):
    params = ModelParams(n_qubits=4, n_max=6)
    return run_protocol(compile_ghz4(params), params, build_space(params), samples=samples)


def _flat_curve_report():
    curve = ScanCurve(np.linspace(0.0, 1.0, 5), np.zeros(5), np.zeros(5), 1.0)
    return peak_report(curve, ResonanceTarget("tc", 1, 0, 0), 0.5)


CASES = {
    "trajectory-times": (_trajectory_at_equal_times, "times must be strictly increasing"),
    "propagate-space": (
        lambda: propagate(_other_h(), PSI, 1.0),
        "state and Hamiltonian live in different spaces",
    ),
    "rotating-frame-space": (
        lambda: to_rotating_frame(PSI, _other_h(), 1.0),
        "state and Hamiltonian live in different spaces",
    ),
    "first-order-target": (
        lambda: solve_first_order_resonance(ResonanceTarget("tc", 2, 0, 0), PARAMS),
        "target must be first order",
    ),
    "second-order-target": (
        lambda: solve_second_order_resonance(ResonanceTarget("tc", 1, 0, 0), PARAMS),
        "target must be second order",
    ),
    "operator-shape": (
        lambda: Operator(SPACE, np.eye(3)),
        "matrix shape (3, 3) does not match dimension 2",
    ),
    "state-shape": (
        lambda: StateVector(SPACE, np.ones(3) / np.sqrt(3.0)),
        "amplitude shape (3,) does not match dimension 2",
    ),
    "protocol-target-kind": (
        lambda: replace(protocol_preset("ghz_4"), target_kind="w"),
        "unknown target kind 'w'",
    ),
    "protocol-target-cell": (
        lambda: replace(protocol_preset("ghz_4"), target_kind="basis", target_cell=None),
        "basis target requires a target cell",
    ),
    "scan-space": (_scan_from_another_space, "initial state does not live in the scan space"),
    "scan-no-peak": (_flat_curve_report, "no peak above prominence 0.5 for TC(0,0)"),
    # a ratio array longer than the values used to give peaks read against its head
    **{
        f"peaks-{name}": (
            lambda r=r, v=v: detect_peaks(r, v, 0.5),
            f"ratios and values must be 1-D and of one length, got shapes {shapes}",
        )
        for name, r, v, shapes in [
            ("short-ratios", np.arange(3.0), np.array([0, 1, 0, 1, 0.0]), "(3,) and (5,)"),
            ("long-ratios", np.arange(9.0), np.array([0, 1, 0, 1, 0.0]), "(9,) and (5,)"),
            ("2-d", np.zeros((2, 3)), np.zeros((2, 3)), "(2, 3) and (2, 3)"),
        ]
    },
    # counts that used to raise numpy's TypeError; a bool is an int below 2
    "evolve-float-samples": (
        lambda: evolve(PSI, build_hamiltonian(PARAMS, SPACE), 1.0, samples=2.5),
        "samples must be an integer, got 2.5",
    ),
    "evolve-bool-samples": (
        lambda: evolve(PSI, build_hamiltonian(PARAMS, SPACE), 1.0, samples=True),
        "samples must lie in 2..",
    ),
    "protocol-float-samples": (lambda: _ghz_run(400.0), "samples must be an integer, got 400.0"),
    "grid-float-points": (lambda: scan_grid((0.0, 1.0), 2.5), "points must be an integer, got 2.5"),
    "grid-bool-points": (lambda: scan_grid((0.0, 1.0), True), "points must lie in 2.."),
    # used to return -523.6, 0.0, nan and inf
    **{
        f"pulse-fraction-{f}": (
            lambda f=f: pulse_duration(ResonanceTarget("atc", 1, 0, 0), ModelParams(n_qubits=4), f),
            f"fraction must be positive and finite, got {f}",
        )
        for f in (-1.0, 0.0, float("nan"), float("inf"))
    },
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_guard_names_its_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
