"""Guard raises that no other test reaches, one case each, matched by the
message that names the cause."""

import re
from dataclasses import replace

import numpy as np
import pytest

from dickestark.dynamics import Trajectory, propagate, to_rotating_frame
from dickestark.effective import ResonanceTarget, solve_first_order_resonance, solve_second_order_resonance
from dickestark.model import ModelParams, Operator, StateVector, build_hamiltonian, build_space, dicke_state
from dickestark.presets import protocol_preset
from dickestark.scan import ScanCurve, peak_report, resonance_scan

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
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_guard_names_its_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
