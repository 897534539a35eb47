"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured values. Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines on passing runs too)."""

import time
from dataclasses import replace

import numpy as np

from dickestark.effective import (
    pulse_duration,
    ratio_from_omega_q,
    solve_resonance,
)
from dickestark.model import build_space, dicke_state
from dickestark.presets import scan_preset
from dickestark.protocol import compile_dicke_ladder, compile_ghz4, run_protocol
from dickestark.scan import detect_peaks, resonance_scan, scan_grid
from dickestark.validate import (
    check_basis_equivalence,
    check_cutoff_stability,
    check_selectivity,
    check_unitarity,
    check_conservation,
)
from oracles import cell_omega, detuned_rabi_probability


def _report(number: int, title: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {number} [{status}] {title}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert not failures, "; ".join(failures)


def _run_preset_scan(name: str):
    preset = scan_preset(name)
    params = preset.params
    omega_q_star = solve_resonance(preset.target, params)
    predicted = ratio_from_omega_q(omega_q_star, params)
    tuned = replace(params, omega_q=omega_q_star)
    duration = pulse_duration(preset.target, tuned)
    space = build_space(params)
    psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
    grid = scan_grid(preset.window, preset.points)
    start = time.perf_counter()
    curve = resonance_scan(psi0, grid, duration, params, space)
    elapsed = time.perf_counter() - start
    peaks = detect_peaks(curve.ratios, curve.nq, preset.min_height)
    best = max(peaks, key=lambda p: p.height) if peaks else None
    step = float(grid[1] - grid[0])
    return predicted, best, elapsed, step, curve


def test_criterion_1_first_order_resonance_locations():
    expected = {"fig3": 2.125, "fig4": -0.125, "fig5": 1.875, "fig6": 0.125, "fig2a": -0.250}
    failures, details = [], []
    for name, ratio in expected.items():
        predicted, best, elapsed, _, _ = _run_preset_scan(name)
        if best is None:
            failures.append(f"{name}: no peak found")
            continue
        error = abs(best.location - ratio)
        details.append(f"{name}: {best.location:+.4f} ({elapsed:.1f}s)")
        if error > 0.005:
            failures.append(f"{name}: |{best.location} - {ratio}| = {error:.2e} > 0.005")
        if elapsed > 10.0:
            failures.append(f"{name}: scan took {elapsed:.1f}s > 10s")
        if abs(predicted - ratio) > 1e-9:
            failures.append(f"{name}: closed form {predicted} != {ratio}")
    _report(1, "first-order resonance locations (801-point scans < 10 s)", failures, ", ".join(details))


def test_criterion_2_second_order_resonance_locations():
    expected = {"fig7": 2.0003, "fig8": 0.0046}
    failures, details = [], []
    for name, ratio in expected.items():
        predicted, best, elapsed, step, _ = _run_preset_scan(name)
        if best is None:
            failures.append(f"{name}: no peak found")
            continue
        details.append(f"{name}: scan {best.location:+.5f}, solver {predicted:+.5f}")
        if abs(best.location - ratio) > 0.0005:
            failures.append(f"{name}: scan peak off by {abs(best.location - ratio):.2e} > 5e-4")
        if abs(predicted - best.location) > step:
            failures.append(
                f"{name}: solver/scan disagreement {abs(predicted - best.location):.2e}"
                f" > grid step {step:.1e}"
            )
        if elapsed > 10.0:
            failures.append(f"{name}: scan took {elapsed:.1f}s > 10s")
    _report(2, "second-order resonance locations (solver vs scan argmax)", failures, ", ".join(details))


def test_criterion_3_ghz_fidelity():
    preset = scan_preset("fig7")
    params = preset.params
    start = time.perf_counter()
    proto = compile_ghz4(params)
    space = build_space(params)
    result = run_protocol(proto, params, space)
    elapsed = time.perf_counter() - start
    failures = []
    # the phase-optimized fidelity is the frame-invariant overlap with the
    # two-component GHZ target; the phase-exact variant is reported but
    # depends on the rotating-frame convention (see README)
    if abs(result.fidelity_optimized - 0.9952) > 0.002:
        failures.append(f"fidelity {result.fidelity_optimized:.4f} outside 0.9952 +- 0.002")
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.1f}s > 5s")
    _report(
        3,
        "GHZ two-step protocol fidelity",
        failures,
        f"F_opt = {result.fidelity_optimized:.4f}, F_exact = {result.fidelity:.4f},"
        f" {elapsed:.2f}s",
    )


def test_criterion_4_dicke_ladder_populations():
    preset = scan_preset("fig3")
    params = preset.params
    proto = compile_dicke_ladder(4, 4, params)
    space = build_space(params)
    result = run_protocol(proto, params, space)
    failures = []
    final_pop = result.final.population(4, 0)
    if final_pop < 0.98:
        failures.append(f"final population {final_pop:.4f} < 0.98")
    boundary = []
    for j, (traj, cells) in enumerate(zip(result.per_step, proto.expected), start=1):
        (cell,) = cells
        pop = float(traj.populations[-1][space.index(*cell)])
        boundary.append(f"step{j}->{cell}: {pop:.3f}")
        if pop < 0.95:
            failures.append(f"step {j} population {pop:.4f} in {cell} < 0.95")
    _report(
        4,
        "Dicke ladder final and intermediate populations",
        failures,
        f"final (4,0) = {final_pop:.4f}; " + ", ".join(boundary),
    )


def test_criterion_5_detuned_rabi_lineshape():
    preset = scan_preset("fig2a")
    params = preset.params
    omega = cell_omega(0, 0, params)
    duration = pulse_duration(preset.target, params, 0.5)
    r_star = ratio_from_omega_q(solve_resonance(preset.target, params), params)
    space = build_space(params)
    psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
    grid = scan_grid(preset.window, preset.points)
    curve = resonance_scan(psi0, grid, duration, params, space)
    worst = 0.0
    compared = 0
    for ratio, nq in zip(curve.ratios, curve.nq):
        delta = -(ratio - r_star) * params.omega_r
        if abs(delta) > 20 * omega:
            continue
        compared += 1
        predicted = detuned_rabi_probability(omega, delta, duration)
        worst = max(worst, abs(nq - predicted))
    failures = []
    if compared == 0:
        failures.append("no grid points within 20 Omega of the peak")
    if worst > 0.05:
        failures.append(f"worst lineshape deviation {worst:.4f} > 0.05")
    _report(
        5,
        "detuned-Rabi lineshape around the -0.250 peak",
        failures,
        f"max |nq - P| = {worst:.4f} over {compared} points with |delta| <= 20 Omega",
    )


def test_criterion_6_basis_equivalence():
    rng = np.random.default_rng(0)
    check = check_basis_equivalence(rng, draws=100)
    failures = [] if check.passed else [f"max norm error {check.value:.2e} > 1e-8"]
    _report(
        6,
        "product-basis oracle equivalence (100 random draws)",
        failures,
        f"max projected-evolution error {check.value:.2e}",
    )


def test_criterion_7_property_suite():
    rng = np.random.default_rng(1)
    checks = [
        check_unitarity(rng),
        check_conservation(rng),
        check_cutoff_stability(),
        check_selectivity(),
    ]
    failures = [
        f"{c.name}: value {c.value} vs threshold {c.threshold}" for c in checks if not c.passed
    ]
    detail = ", ".join(f"{c.name}={c.value:.2e}" if c.value else c.name for c in checks)
    _report(7, "property suite (unitarity, conservation, cutoff, selectivity)", failures, detail)
