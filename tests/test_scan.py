
import numpy as np
import pytest

from dickestark.effective import (
    detuned_rabi_probability,
    pulse_duration,
    rabi_frequency,
    ratio_from_omega_q,
    solve_first_order_resonance,
)
from dickestark.model import BasisKind, build_space, dicke_state
from dickestark.presets import scan_preset
from dickestark.scan import (
    MAX_SCAN_POINTS,
    Peak,
    _parabolic_refine,
    detect_peaks,
    peak_report,
    resonance_scan,
    scan_grid,
)


def run_preset(name, points=None):
    preset = scan_preset(name)
    space = build_space(preset.params, BasisKind.SYMMETRIC)
    psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
    duration = pulse_duration(preset.target, preset.params, preset.duration_fraction)
    grid = scan_grid(preset.window, points or preset.points)
    curve = resonance_scan(psi0, grid, duration, preset.params, space)
    return preset, curve


class TestDetectPeaks:
    def test_synthetic_lorentzian(self):
        x = np.linspace(-1, 1, 401)
        center = 0.1234
        y = 1.0 / (1.0 + ((x - center) / 0.05) ** 2)
        peaks = detect_peaks(x, y, min_height=0.5)
        assert len(peaks) == 1
        assert abs(peaks[0].location - center) < (x[1] - x[0])

    def test_flat_curve(self):
        x = np.linspace(0, 1, 100)
        assert detect_peaks(x, np.full(100, 2.0), min_height=0.1) == []

    def test_raised_baseline(self):
        x = np.linspace(0, 1, 201)
        y = 2.0 + np.exp(-(((x - 0.5) / 0.02) ** 2))
        peaks = detect_peaks(x, y, min_height=0.5)
        assert len(peaks) == 1
        assert peaks[0].location == pytest.approx(0.5, abs=0.005)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            detect_peaks(np.array([]), np.array([]), 0.5)

    def test_flat_top_counts_once_at_its_middle(self):
        x = np.arange(8.0)
        # plateau 1..4 peaks at (1 + 4) // 2; the plateau touching the end does not
        y = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 2.0])
        assert detect_peaks(x, y, min_height=0.5) == [Peak(location=2.0, height=1.0)]

    def test_matches_scipy_find_peaks_on_random_curves(self):
        # scipy is a test-only oracle: the same maxima, refined the same way
        from scipy.signal import find_peaks

        rng = np.random.default_rng(7)
        for trial in range(1200):
            n = int(rng.integers(1, 61))
            y = rng.normal(size=n)
            if trial % 4 == 1:
                y = np.round(2 * y) / 2  # plateaus
            elif trial % 4 == 2:
                y = np.cumsum(y)  # random walk
            elif trial % 4 == 3:
                y = np.round(2 * np.cumsum(y)) / 2  # random walk with plateaus
            x = np.sort(rng.uniform(-1.0, 1.0, size=n))
            h = float(rng.uniform(0.0, 2.0))
            indices, _ = find_peaks(y, prominence=h)
            expected = [Peak(*_parabolic_refine(x, y, int(i))) for i in indices]
            assert detect_peaks(x, y, min_height=h) == expected, (trial, y.tolist(), h)


class TestResonanceScan:
    def test_fig3_peak_location_and_height(self):
        preset, curve = run_preset("fig3", points=161)
        peaks = detect_peaks(curve.ratios, curve.nq, min_height=0.5)
        assert len(peaks) == 1
        assert peaks[0].location == pytest.approx(2.125, abs=0.004)
        assert peaks[0].height == pytest.approx(1.0, abs=0.05)

    def test_fig5_peak_from_excited_start(self):
        preset, curve = run_preset("fig5", points=161)
        peaks = detect_peaks(curve.ratios, curve.nq, min_height=0.5)
        assert len(peaks) == 1
        assert peaks[0].location == pytest.approx(1.875, abs=0.004)

    def test_far_detuned_point_is_inert(self):
        # |delta| > 100 Omega caps the transfer at 4/(100^2 + 4).
        preset = scan_preset("fig3")
        space = build_space(preset.params, BasisKind.SYMMETRIC)
        psi0 = dicke_state(space, 0, 0)
        duration = pulse_duration(preset.target, preset.params)
        grid = np.array([2.124, 3.2])  # second point ~1.1 away from resonance
        curve = resonance_scan(psi0, grid, duration, preset.params, space)
        nq0, _, _ = (0.0, 0.0, None)
        assert abs(curve.nq[1] - 0.0) < 0.01

    def test_lineshape_matches_detuned_rabi(self):
        # Transfer probability against the closed form across the peak at
        # ratio -0.250, with the initial-state nq as baseline.
        preset, curve = run_preset("fig2a", points=161)
        params = preset.params
        omega = rabi_frequency(0, 0, params)
        duration = pulse_duration(preset.target, params)
        resonant = solve_first_order_resonance(preset.target, params)
        r_star = ratio_from_omega_q(resonant, params)
        for ratio, nq in zip(curve.ratios, curve.nq):
            delta = -(ratio - r_star) * params.omega_r
            if abs(delta) > 20 * omega:
                continue
            predicted = detuned_rabi_probability(omega, delta, duration)
            assert abs(nq - predicted) < 0.05

    def test_grid_validation(self):
        preset = scan_preset("fig3")
        space = build_space(preset.params, BasisKind.SYMMETRIC)
        psi0 = dicke_state(space, 0, 0)
        with pytest.raises(ValueError):
            resonance_scan(psi0, np.array([]), 1.0, preset.params, space)
        with pytest.raises(ValueError):
            resonance_scan(psi0, np.array([1.0, 0.5]), 1.0, preset.params, space)

    def test_grid_size_is_capped(self):
        assert scan_grid((0.0, 1.0), MAX_SCAN_POINTS).size == MAX_SCAN_POINTS
        with pytest.raises(ValueError, match=f"points must lie in 2..{MAX_SCAN_POINTS}"):
            scan_grid((0.0, 1.0), MAX_SCAN_POINTS + 1)
        with pytest.raises(ValueError, match="points must lie in"):
            scan_grid((0.0, 1.0), 1)

    def test_peak_report(self):
        preset, curve = run_preset("fig6", points=161)
        resonant = solve_first_order_resonance(preset.target, preset.params)
        predicted = ratio_from_omega_q(resonant, preset.params)
        report = peak_report(curve, preset.target, predicted)
        assert report.predicted_location == pytest.approx(0.125, abs=1e-12)
        assert report.abs_error < 0.004

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6"])
    def test_closed_form_within_one_grid_step(self, name):
        # Full-resolution invariant: the closed-form resonance coincides with
        # the scan argmax to within one grid step for every ladder step.
        preset, curve = run_preset(name)
        step = float(curve.ratios[1] - curve.ratios[0])
        resonant = solve_first_order_resonance(preset.target, preset.params)
        predicted = ratio_from_omega_q(resonant, preset.params)
        peaks = detect_peaks(curve.ratios, curve.nq, preset.min_height)
        best = max(peaks, key=lambda p: p.height)
        assert abs(best.location - predicted) <= step
