import math

import numpy as np
import pytest

from dickestark.dynamics import (
    MAX_SAMPLES,
    Trajectory,
    _evolved,
    _on_grid,
    _Sector,
    evolve,
    fidelity,
    observables,
    propagate,
    to_rotating_frame,
)
from dickestark.effective import (
    ResonanceTarget,
    delta_minus,
    delta_plus,
    solve_first_order_resonance,
)
from dickestark.model import (
    ModelParams,
    Operator,
    StateVector,
    build_hamiltonian,
    build_space,
    dicke_state,
)
from oracles import build_effective_hamiltonian, cell_omega, full_space_evolution, grid_states


def random_state(space, rng):
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    return StateVector(space, amps / np.linalg.norm(amps))


@pytest.fixture
def small_system():
    params = ModelParams(n_qubits=3, omega_q=0.9, coupling=0.08, stark_u=-0.6, n_max=4)
    space = build_space(params)
    return params, space, build_hamiltonian(params, space)


def propagated_columns(h, t):
    """exp(-i H t) as a matrix, one ``propagate`` per basis vector."""
    identity = np.eye(h.space.dimension)
    return np.column_stack([propagate(h, StateVector(h.space, e), t).amplitudes for e in identity])


class TestPropagator:
    def test_zero_time_is_identity(self, small_system):
        _, space, h = small_system
        u = propagated_columns(h, 0.0)
        assert np.max(np.abs(u - np.eye(space.dimension))) < 1e-12

    def test_unitary(self, small_system):
        _, space, h = small_system
        u = propagated_columns(h, 7.3)
        defect = np.max(np.abs(u.conj().T @ u - np.eye(space.dimension)))
        assert defect < 1e-10

    def test_preserves_norm(self, small_system):
        _, space, h = small_system
        rng = np.random.default_rng(3)
        for _ in range(5):
            psi = random_state(space, rng)
            out = propagate(h, psi, 11.0)
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_group_property(self, small_system):
        _, space, h = small_system
        psi = random_state(space, np.random.default_rng(7))
        stepped = propagate(h, propagate(h, psi, 2.2), 5.9)
        direct = propagate(h, psi, 8.1)
        assert np.max(np.abs(stepped.amplitudes - direct.amplitudes)) < 1e-10

    def test_rejects_non_hermitian(self, small_system):
        _, space, _ = small_system
        bad = Operator(space, np.triu(np.ones((space.dimension, space.dimension))))
        psi0 = dicke_state(space, 0, 0)
        with pytest.raises(ValueError, match="not Hermitian"):
            propagate(bad, psi0, 1.0)
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve(psi0, bad, duration=1.0)


class TestEvolve:
    def test_final_state_matches_propagator(self, small_system):
        _, space, h = small_system
        rng = np.random.default_rng(11)
        psi0 = random_state(space, rng)
        traj = evolve(psi0, h, duration=13.0, samples=57)
        direct = full_space_evolution(h.matrix, psi0.amplitudes, 13.0)[0]
        assert np.max(np.abs(grid_states(h, psi0, 13.0, 57)[-1] - direct)) < 1e-10
        assert np.max(np.abs(traj.final.amplitudes - direct)) < 1e-10

    def test_diagonal_hamiltonian_freezes_populations(self, small_system):
        _, space, h = small_system
        rng = np.random.default_rng(5)
        psi0 = random_state(space, rng)
        free = Operator(space, np.diag(np.diag(h.matrix)))
        traj = evolve(psi0, free, duration=9.0, samples=40)
        assert np.max(np.abs(traj.populations - traj.populations[0])) < 1e-12

    def test_last_sample_is_the_propagated_state(self, small_system):
        _, space, h = small_system
        rng = np.random.default_rng(29)
        for samples in (2, 3, 400, 2001):
            psi0 = random_state(space, rng)
            duration = float(rng.uniform(1.0, 3000.0))
            traj = evolve(psi0, h, duration, samples=samples)
            final = propagate(h, psi0, duration).amplitudes
            assert np.max(np.abs(grid_states(h, psi0, duration, samples)[-1] - final)) <= 1e-15
            assert np.max(np.abs(traj.final.amplitudes - final)) <= 1e-15

    @pytest.mark.parametrize("samples", [2, 3, 255, 256, 257, 400, 2000, MAX_SAMPLES])
    def test_blocks_write_the_kernel_grid(self, small_system, samples):
        # Every block of the time grid, its edges included, lands in the
        # full-space populations and in nq and nph, each sample once; the
        # final state is the last column of the grid, bit for bit.
        _, space, h = small_system
        rng = np.random.default_rng(samples)
        ks, ns = space.excitation_numbers()
        for psi0 in (dicke_state(space, 1, 2), random_state(space, rng)):  # one parity, then both
            duration = float(rng.uniform(1.0, 3000.0))
            traj = evolve(psi0, h, duration, samples=samples)
            sector = _Sector(h, psi0.amplitudes)
            values, vectors = sector.eigh(h)
            psi = psi0.amplitudes[sector.kept, None]
            blocks = _on_grid(values, vectors, psi, duration, samples)
            grid = np.concatenate([block for _, block in blocks], axis=1)
            expected = np.zeros((samples, space.dimension))
            expected[:, sector.kept] = (np.abs(grid) ** 2).T
            assert traj.populations.shape == (samples, space.dimension)
            assert np.max(np.abs(traj.populations - expected)) <= 1e-15
            assert np.max(np.abs(traj.nq - expected @ ks)) <= 1e-14
            assert np.max(np.abs(traj.nph - expected @ ns)) <= 1e-14
            assert np.array_equal(traj.final.amplitudes, sector.whole(grid[:, -1]))
            final = sector.whole(_evolved(values, vectors, psi, duration)[:, 0])
            assert np.max(np.abs(traj.final.amplitudes - final)) <= 1e-15
            for arr in (traj.times, traj.populations, traj.nq, traj.nph):
                assert not arr.flags.writeable

    @pytest.mark.parametrize("samples", [2, 3, 257, 2000])
    def test_dropped_parity_columns_are_exactly_zero(self, small_system, samples):
        # Nothing zeroes the populations before evolve writes them: each block
        # is staged whole, zero off the kept sector, so the NaN of a stale
        # ``_out`` cannot survive in a dropped column, the last block's
        # included (2000 samples end partway through a block).
        _, space, h = small_system
        for k, n in ((1, 1), (1, 2)):  # the even parity, then the odd
            psi0 = dicke_state(space, k, n)
            dropped = space.parities() != (k + n) % 2
            alone = evolve(psi0, h, 700.0, samples=samples)
            stale = np.full((samples, space.dimension), np.nan)
            run = evolve(psi0, h, 700.0, samples=samples, _out=stale)
            assert np.shares_memory(run.populations, stale)
            assert np.array_equal(run.populations, alone.populations)
            for traj in (alone, run):
                assert np.all(traj.populations[:, dropped] == 0.0)
                assert not np.signbit(traj.populations[:, dropped]).any()

    def test_norm_conservation(self, small_system):
        _, space, h = small_system
        rng = np.random.default_rng(17)
        psi0 = random_state(space, rng)
        norms = np.linalg.norm(grid_states(h, psi0, 200.0, 400), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_energy_conservation(self, small_system):
        _, space, h = small_system
        rng = np.random.default_rng(23)
        psi0 = random_state(space, rng)
        states = grid_states(h, psi0, 150.0, 150)
        energies = np.array([np.vdot(state, h.matrix @ state).real for state in states])
        scale = max(abs(energies[0]), 1.0)
        assert np.max(np.abs(energies - energies[0])) / scale < 1e-10

    def test_ladder_first_step_transfer(self):
        # Pair-creating resonance from the collective ground state: after a
        # half oscillation nearly all population sits in (k=1, n=1).
        base = dict(n_qubits=4, omega_r=1.0, coupling=0.006, stark_u=-0.5, n_max=8)
        omega_q = solve_first_order_resonance(
            ResonanceTarget("atc", 1, 0, 0), ModelParams(**base)
        )
        params = ModelParams(omega_q=omega_q, **base)
        space = build_space(params)
        h = build_hamiltonian(params, space)
        psi0 = dicke_state(space, 0, 0)
        duration = math.pi / (2 * cell_omega(0, 0, params))
        traj = evolve(psi0, h, duration, samples=100)
        assert traj.final.population(1, 1) >= 0.98

    @pytest.mark.parametrize(
        "kind,n0,k0,start",
        [("tc", 0, 1, (1, 1)), ("atc", 0, 0, (0, 0))],
    )
    def test_effective_two_level_matches_full(self, kind, n0, k0, start):
        # Selective step at its resonance: the rank-2 effective model tracks
        # the exact populations within 0.02 over one Rabi period.
        base = dict(n_qubits=4, omega_r=1.0, coupling=0.006, stark_u=-0.5, n_max=8)
        target = ResonanceTarget(kind, 1, n0, k0)
        omega_q = solve_first_order_resonance(target, ModelParams(**base))
        params = ModelParams(omega_q=omega_q, **base)
        space = build_space(params)
        h_full = build_hamiltonian(params, space)
        h_eff = build_effective_hamiltonian(target, params, space)
        psi0 = dicke_state(space, *start)
        period = math.pi / cell_omega(n0, k0, params)
        t_full = evolve(psi0, h_full, period, samples=160)
        t_eff = evolve(psi0, h_eff, period, samples=160)
        assert np.max(np.abs(t_full.populations - t_eff.populations)) < 0.02

    def test_argument_validation(self, small_system):
        params, space, h = small_system
        psi0 = dicke_state(space, 0, 0)
        with pytest.raises(ValueError):
            evolve(psi0, h, duration=1.0, samples=1)
        other = build_space(ModelParams(n_qubits=2, n_max=4))
        with pytest.raises(ValueError):
            evolve(dicke_state(other, 0, 0), h, duration=1.0)

    def test_samples_above_the_cap_rejected(self, small_system):
        # a trajectory's memory grows linearly in samples; used to be unbounded
        _, space, h = small_system
        psi0 = dicke_state(space, 0, 0)
        with pytest.raises(ValueError, match=f"samples must lie in 2..{MAX_SAMPLES}, got {MAX_SAMPLES + 1}"):
            evolve(psi0, h, duration=1.0, samples=MAX_SAMPLES + 1)
        assert len(evolve(psi0, h, duration=1.0, samples=MAX_SAMPLES).times) == MAX_SAMPLES

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, small_system, duration):
        _, space, h = small_system
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            evolve(dicke_state(space, 0, 0), h, duration)

    def test_nan_time_propagation_rejected(self, small_system):
        # used to return an all-NaN StateVector
        _, space, h = small_system
        with pytest.raises(ValueError, match="t must be finite"):
            propagate(h, dicke_state(space, 0, 0), float("nan"))

    def test_trajectory_rejects_one_sample_off_in_norm(self, small_system):
        _, space, h = small_system
        traj = evolve(dicke_state(space, 0, 0), h, duration=40.0, samples=9)
        pops = np.array(traj.populations)
        pops[4] *= (1.0 + 1e-9) ** 2
        with pytest.raises(ValueError, match="norm drift 1.0..e-09 exceeds"):
            Trajectory(space, traj.times, pops, traj.nq, traj.nph, traj.final)

    def test_nan_trajectory_rejected(self, small_system):
        _, space, _ = small_system
        pops, zeros = np.full((2, space.dimension), np.nan), np.zeros(2)
        with pytest.raises(ValueError, match="norm drift nan"):
            Trajectory(space, np.array([0.0, 1.0]), pops, zeros, zeros.copy(), dicke_state(space, 0, 0))


class TestObservables:
    def test_basis_state(self):
        params = ModelParams(n_qubits=4, n_max=3)
        space = build_space(params)
        psi = dicke_state(space, 2, 0)
        nq, nph = observables(psi)
        assert nq == pytest.approx(2.0)
        assert nph == pytest.approx(0.0)
        assert psi.population(2, 0) == pytest.approx(1.0)

    def test_superposition(self):
        params = ModelParams(n_qubits=4, n_max=3)
        space = build_space(params)
        amps = np.zeros(space.dimension, dtype=complex)
        amps[space.index(0, 0)] = 1 / math.sqrt(2)
        amps[space.index(2, 2)] = 1 / math.sqrt(2)
        psi = StateVector(space, amps)
        nq, nph = observables(psi)
        assert nq == pytest.approx(1.0)
        assert nph == pytest.approx(1.0)
        assert sum(psi.population(k, n) for k, n in space.labels()) == pytest.approx(1.0, abs=1e-10)


class TestFidelity:
    def test_identical_and_orthogonal(self):
        params = ModelParams(n_qubits=2, n_max=2)
        space = build_space(params)
        a = dicke_state(space, 0, 0)
        b = dicke_state(space, 1, 1)
        assert fidelity(a, a) == pytest.approx(1.0)
        assert fidelity(a, b) == pytest.approx(0.0)

    def test_space_mismatch(self):
        s1 = build_space(ModelParams(n_qubits=2, n_max=2))
        s2 = build_space(ModelParams(n_qubits=2, n_max=3))
        with pytest.raises(ValueError):
            fidelity(dicke_state(s1, 0, 0), dicke_state(s2, 0, 0))


class TestRotatingFrame:
    def test_identity_at_zero(self, small_system):
        _, space, h = small_system
        rng = np.random.default_rng(2)
        psi = random_state(space, rng)
        out = to_rotating_frame(psi, h, 0.0)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    @pytest.mark.parametrize("t", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_time_refused(self, small_system, t):
        # inf used to warn and fail on the NaN norm, nan to fail on the norm
        _, space, h = small_system
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            to_rotating_frame(random_state(space, np.random.default_rng(5)), h, t)

    def test_populations_invariant(self, small_system):
        _, space, h = small_system
        rng = np.random.default_rng(4)
        psi = random_state(space, rng)
        out = to_rotating_frame(psi, h, 37.0)
        assert np.allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes))

    def test_matches_channelwise_interaction_picture(self):
        # Oracle: integrate the interaction-picture Hamiltonian assembled
        # channel by channel, i d psi/dt = sum_c Omega_c (M_c e^{i delta_c t}
        # + h.c.) psi, with fixed-step fourth-order stepping, and compare to
        # the frame-transformed exact evolution.
        params = ModelParams(n_qubits=2, omega_q=0.9, coupling=0.05, stark_u=-0.8, n_max=3)
        space = build_space(params)
        h = build_hamiltonian(params, space)

        channels = []
        for n in range(params.n_max):
            for k in range(params.n_qubits):
                omega = cell_omega(n, k, params)
                up_tc = np.zeros((space.dimension, space.dimension), dtype=complex)
                up_tc[space.index(k + 1, n), space.index(k, n + 1)] = omega
                channels.append((up_tc, delta_minus(n, k, params)))
                up_atc = np.zeros((space.dimension, space.dimension), dtype=complex)
                up_atc[space.index(k + 1, n + 1), space.index(k, n)] = omega
                channels.append((up_atc, delta_plus(n, k, params)))

        mats = np.array([m for m, _ in channels])
        deltas = np.array([d for _, d in channels])

        def h_int(t):
            phased = np.tensordot(np.exp(1j * deltas * t), mats, axes=1)
            return phased + phased.conj().T

        amps = np.zeros(space.dimension, dtype=complex)
        for cell in ((0, 1), (1, 0), (2, 2)):
            amps[space.index(*cell)] = 1 / math.sqrt(3)
        psi0 = StateVector(space, amps)

        duration, steps = 20.0, 10_000
        dt = duration / steps
        psi = psi0.amplitudes.copy()
        t = 0.0
        for _ in range(steps):
            k1 = -1j * (h_int(t) @ psi)
            k2 = -1j * (h_int(t + dt / 2) @ (psi + dt / 2 * k1))
            k3 = -1j * (h_int(t + dt / 2) @ (psi + dt / 2 * k2))
            k4 = -1j * (h_int(t + dt) @ (psi + dt * k3))
            psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt

        exact = to_rotating_frame(propagate(h, psi0, duration), h, duration)
        assert np.linalg.norm(exact.amplitudes - psi) < 1e-6


class TestExcitationStructure:
    def test_total_excitation_conserved_without_pair_terms(self):
        # Zeroing the matrix elements between (k, n) and (k+1, n+1) leaves a
        # Hamiltonian that commutes with the total excitation number exactly.
        params = ModelParams(n_qubits=3, omega_q=0.7, coupling=0.2, stark_u=-1.1, n_max=4)
        space = build_space(params)
        h = np.array(build_hamiltonian(params, space).matrix)
        for k in range(params.n_qubits):
            for n in range(params.n_max):
                i, j = space.index(k + 1, n + 1), space.index(k, n)
                h[i, j] = 0.0
                h[j, i] = 0.0
        total = np.diag([k + n for k, n in space.labels()]).astype(float)
        assert np.max(np.abs(h @ total - total @ h)) == 0.0
