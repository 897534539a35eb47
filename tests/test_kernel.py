"""The spectral kernel against its oracles: the closed-form H against the
Kronecker-product builders, parity-sector propagation against one complex
``eigh`` of the whole space, the time grid of ``evolve`` against direct
exponentials and against values recorded before it was rewritten, and the
photon-cutoff guard of the scan."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickestark import dynamics, model, protocol, scan
from dickestark.dynamics import CutoffExceededError, _evolved, _Sector, evolve, observables, propagate
from dickestark.effective import ResonanceTarget, omega_q_from_ratio, pulse_duration, solve_resonance
from dickestark.model import (
    ModelParams,
    Operator,
    StateVector,
    build_hamiltonian,
    build_space,
    default_n_max,
    dicke_state,
)
from dickestark.presets import SCAN_PRESETS, protocol_preset, scan_preset
from dickestark.scan import resonance_scan, scan_grid
from dickestark.validate import (
    UNITARITY_LIMIT,
    _product_hamiltonian,
    _product_isometry,
    check_unitarity,
)
from oracles import full_space_evolution, grid_states, kron_hamiltonian


def draw_params(rng, n_qubits, n_max):
    return ModelParams(
        n_qubits=n_qubits,
        omega_r=float(rng.uniform(0.5, 1.5)),
        omega_q=float(rng.uniform(-2.0, 2.0)),
        coupling=float(rng.uniform(0.0, 0.3)),
        stark_u=float(rng.uniform(-4.0, 4.0)),
        n_max=n_max,
    )


def product_parities(params):
    """(popcount(s) + n) mod 2 of every product-basis index s*(n_max+1) + n."""
    levels = params.n_max + 1
    cells = range(2**params.n_qubits * levels)
    return np.array([(bin(i // levels).count("1") + i % levels) % 2 for i in cells])


def random_state(space, rng, sectors=(0, 1)):
    """A random normalized state supported on the given parity sectors."""
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    amps[~np.isin(space.parities(), sectors)] = 0.0
    return StateVector(space, amps / np.linalg.norm(amps))


class TestClosedFormHamiltonian:
    @pytest.mark.parametrize("n_qubits", range(1, 7))
    def test_matches_kron_builder(self, n_qubits):
        # Several omega_q per parameter set, with repeats and sign flips, so an
        # H(0) or Jz/2 diagonal that a cached entry kept from an earlier
        # omega_q would show.
        rng = np.random.default_rng(100 + n_qubits)
        for n_max in range(13):
            params = draw_params(rng, n_qubits, n_max)
            space = build_space(params)
            w = params.omega_q
            for omega_q in (w, -w, float(rng.uniform(-2.0, 2.0)), w, 0.0, -w):
                tuned = replace(params, omega_q=omega_q)
                h = build_hamiltonian(tuned, space).matrix
                oracle = kron_hamiltonian(tuned)
                assert h.dtype == np.float64
                assert np.max(np.abs(h - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n_qubits", range(1, 8))
    def test_omega_q_moves_only_the_diagonal(self, n_qubits):
        # The scan checks symmetry and sector invariance on its first H only:
        # complete because H(w1) - H(w2) is (w1 - w2) Jz/2, and every
        # off-diagonal element is bit-identical across omega_q.
        rng = np.random.default_rng(700 + n_qubits)
        for n_max in range(7):
            params = draw_params(rng, n_qubits, n_max)
            space = build_space(params)
            jz_half = np.divmod(np.arange(space.dimension), n_max + 1)[0] - n_qubits / 2
            w1, w2 = (float(w) for w in rng.uniform(-2.0, 2.0, 2))
            h1 = build_hamiltonian(replace(params, omega_q=w1), space).matrix
            h2 = build_hamiltonian(replace(params, omega_q=w2), space).matrix
            off = ~np.eye(space.dimension, dtype=bool)
            assert h1[off].tobytes() == h2[off].tobytes()
            # rounding of w jz, h0 + w jz, the difference and the reference
            h0 = np.diagonal(build_hamiltonian(replace(params, omega_q=0.0), space).matrix)
            bound = 2.0**-51 * (np.abs(h0) + (abs(w1) + abs(w2)) * np.abs(jz_half))
            assert np.all(np.abs(np.diagonal(h1 - h2) - (w1 - w2) * jz_half) <= bound)

    def test_conserves_parity_in_both_bases(self):
        rng = np.random.default_rng(3)
        for n_qubits in range(1, 6):
            params = draw_params(rng, n_qubits, 3)
            space = build_space(params)
            for parity, h in [
                (space.parities(), build_hamiltonian(params, space).matrix),
                (product_parities(params), _product_hamiltonian(params)),
            ]:
                assert not np.any(h[parity[:, None] != parity[None, :]])

    def test_parities_agree_across_bases(self):
        for n_qubits in range(1, 6):
            params = ModelParams(n_qubits=n_qubits, n_max=2)
            sym = build_space(params)
            rows, cols = np.nonzero(_product_isometry(params))
            assert np.array_equal(product_parities(params)[rows], sym.parities()[cols])
        sym = build_space(ModelParams(n_qubits=3, n_max=2))
        assert [sym.parities()[sym.index(k, n)] for k, n in [(0, 0), (1, 0), (2, 1), (3, 2)]] == [0, 1, 1, 1]


class TestCachedArrays:
    def test_cached_arrays_are_read_only(self):
        params = ModelParams(n_qubits=3, omega_q=0.8, coupling=0.1, stark_u=-2.0, n_max=4)
        space = build_space(params)
        h = build_hamiltonian(params, space)
        h0, jz_half = model._affine_parts(3, 4, 0.1, -2.0, 1.0)
        psi = dicke_state(space, 1, 2)
        assert psi.populations is psi.populations  # computed once per state
        cached = [h0, jz_half, h.matrix, space.parities(), *space.excitation_numbers()]
        cached.append(psi.populations)
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 7
        assert np.array_equal(build_hamiltonian(params, space).matrix, h.matrix)

    def test_scans_in_sequence_share_no_state(self):
        def curve(name):
            preset = scan_preset(name)
            space = build_space(preset.params)
            psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
            duration = pulse_duration(preset.target, preset.params)
            return resonance_scan(psi0, scan_grid(preset.window, 61), duration, preset.params, space)

        model._affine_parts.cache_clear()
        first, _, again = curve("fig3"), curve("fig8"), curve("fig3")
        assert first.nq.tobytes() == again.nq.tobytes()
        assert first.nph.tobytes() == again.nph.tobytes()


class TestOperatorDtype:
    def test_real_matrices_are_kept_as_float64(self):
        space = build_space(ModelParams(n_qubits=1, n_max=0))
        assert Operator(space, np.eye(2, dtype=int)).matrix.dtype == np.float64
        assert Operator(space, np.eye(2)).matrix.dtype == np.float64

    @pytest.mark.parametrize(
        "m", [np.eye(2) * 1j, np.eye(2, dtype=complex), [[1.0, 1j], [-1j, 1.0]]]
    )
    def test_refuses_a_complex_matrix_naming_the_cause(self, m):
        # a cast to float would drop the imaginary part, even of a Hermitian matrix
        space = build_space(ModelParams(n_qubits=1, n_max=0))
        with pytest.raises(ValueError, match="operator matrix must be real"):
            Operator(space, m)

    @pytest.mark.parametrize("dtype", [int, float])
    def test_leaves_the_callers_array_writeable(self, dtype):
        space = build_space(ModelParams(n_qubits=1, n_max=0))
        m = np.eye(2, dtype=dtype)
        assert not Operator(space, m).matrix.flags.writeable
        m[0, 0] = 2.0

    def test_takes_a_read_only_array_it_owns_without_copying(self):
        space = build_space(ModelParams(n_qubits=1, n_max=0))
        owned = np.eye(2)
        owned.flags.writeable = False
        assert Operator(space, owned).matrix is owned
        view = np.eye(2)[:]  # read-only, but its base stays writeable
        view.flags.writeable = False
        assert not np.shares_memory(Operator(space, view).matrix, view)
        params = ModelParams(n_qubits=2, n_max=3)
        h = build_hamiltonian(params, build_space(params))
        assert h.matrix.base is None and not h.matrix.flags.writeable


class TestStateVectorOwnership:
    def test_a_view_of_the_callers_array_cannot_change_the_state(self):
        space = build_space(ModelParams(n_qubits=2, n_max=1))
        b = np.zeros(space.dimension, dtype=complex)
        b[0] = 1
        v = b[:]
        psi = StateVector(space, b)
        v[0] = 5
        assert np.linalg.norm(psi.amplitudes) == 1.0
        assert b.flags.writeable and not psi.amplitudes.flags.writeable

    def test_takes_the_kernels_read_only_outputs_without_copying(self, monkeypatch):
        taken = []
        owned = model._owned

        def spy(m, dtype):
            a = owned(m, dtype)
            taken.append(a is m)
            return a

        params = ModelParams(n_qubits=3, omega_q=0.8, coupling=0.1, stark_u=-2.0, n_max=4)
        space = build_space(params)
        h = build_hamiltonian(params, space)
        monkeypatch.setattr(model, "_owned", spy)
        psi0 = dicke_state(space, 1, 2)
        final = propagate(h, psi0, 3.0)
        dynamics.to_rotating_frame(evolve(psi0, h, 3.0, samples=5).final, h, 3.0)
        assert taken == [True] * 4
        fresh = np.array(final.amplitudes)
        fresh.flags.writeable = False
        assert StateVector(space, fresh).amplitudes is fresh


class TestSectorPropagation:
    @pytest.mark.parametrize("n_qubits", range(1, 7))
    def test_propagate_and_evolve_match_full_space(self, n_qubits):
        rng = np.random.default_rng(10 * n_qubits)
        n_max = int(rng.integers(1, 6))
        params = draw_params(rng, n_qubits, n_max)
        space = build_space(params)
        h = build_hamiltonian(params, space)
        k = int(rng.integers(0, n_qubits + 1))
        states = [
            dicke_state(space, k, int(rng.integers(0, n_max + 1))),
            random_state(space, rng, sectors=(0,)),
            random_state(space, rng, sectors=(1,)),
            random_state(space, rng),  # across both parities
        ]
        for psi0 in states:
            t = float(rng.uniform(0.0, 50.0))
            oracle = full_space_evolution(h.matrix, psi0.amplitudes, t)[0]
            got = propagate(h, psi0, t).amplitudes
            assert np.max(np.abs(got - oracle / np.linalg.norm(oracle))) <= 1e-12
            oracle = full_space_evolution(h.matrix, psi0.amplitudes, np.linspace(0.0, t, 7))
            assert np.max(np.abs(grid_states(h, psi0, t, 7) - oracle)) <= 1e-12
            assert np.max(np.abs(evolve(psi0, h, t, samples=7).final.amplitudes - oracle[-1])) <= 1e-12

    @pytest.mark.parametrize("n_qubits", range(1, 8))
    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        n_max=st.integers(0, 6),
        coupling=st.floats(0.0, 0.3),
        stark_u=st.floats(-4.0, 4.0),
        omega_q=st.floats(-2.0, 2.0),
        t=st.floats(1e-3, 50.0),
        sectors=st.sampled_from([(0,), (1,), (0, 1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_models_match_full_space(self, n_qubits, n_max, coupling, stark_u, omega_q, t, sectors, seed):
        # beyond the fixed draws above: up to N = 7, with every N given to
        # the test so that each meets a state on both parities, whose sector
        # keeps every index and still scatters; the sector keeps exactly the
        # occupied parities' indices, and its block is H's on them
        params = ModelParams(n_qubits=n_qubits, omega_q=omega_q, coupling=coupling, stark_u=stark_u, n_max=n_max)
        space = build_space(params)
        h = build_hamiltonian(params, space)
        parity = space.parities()
        assert not np.any(h.matrix[parity[:, None] != parity[None, :]])
        psi0 = random_state(space, np.random.default_rng(seed), sectors)
        sector = _Sector(h, psi0.amplitudes)
        kept = np.arange(space.dimension) if sectors == (0, 1) else np.flatnonzero(parity == sectors[0])
        assert np.array_equal(sector.kept, kept)
        assert np.array_equal(h.matrix.take(sector.block), h.matrix[np.ix_(kept, kept)].ravel())
        oracle = full_space_evolution(h.matrix, psi0.amplitudes, t)[0]
        assert np.max(np.abs(propagate(h, psi0, t).amplitudes - oracle)) <= 1e-12
        assert np.max(np.abs(evolve(psi0, h, t, samples=3).final.amplitudes - oracle)) <= 1e-12

    def test_diagonalizes_only_the_occupied_sector(self):
        params = ModelParams(n_qubits=4, omega_q=0.9, coupling=0.05, stark_u=-0.8, n_max=6)
        space = build_space(params)
        h = build_hamiltonian(params, space)
        sector = _Sector(h, dicke_state(space, 1, 2).amplitudes)
        assert np.array_equal(sector.kept, np.flatnonzero(space.parities() == 1))
        assert sector.eigh(h)[0].size == np.count_nonzero(space.parities() == 1) < space.dimension
        both = random_state(space, np.random.default_rng(0))
        assert _Sector(h, both.amplitudes).kept.size == space.dimension

    def test_operator_coupling_the_sectors_falls_back_to_the_whole_space(self):
        params = ModelParams(n_qubits=3, omega_q=0.7, coupling=0.1, stark_u=-1.0, n_max=3)
        space = build_space(params)
        m = build_hamiltonian(params, space).matrix.copy()
        i, j = space.index(0, 0), space.index(1, 0)  # parities 0 and 1
        m[i, j] = m[j, i] = 0.05
        h = Operator(space, m)
        psi0 = dicke_state(space, 0, 0)
        assert _Sector(h, psi0.amplitudes).kept.size == space.dimension
        oracle = full_space_evolution(m, psi0.amplitudes, 30.0)[0]
        assert np.max(np.abs(propagate(h, psi0, 30.0).amplitudes - oracle)) <= 1e-12
        assert abs(oracle[j]) > 1e-3  # the coupling moved population across

    def test_unitarity_check_runs_this_kernel(self, monkeypatch):
        # A kernel that keeps every norm but is not unitary: the invariant
        # suite's unitarity check must see it.
        def bent_evolved(*args):
            out = _evolved(*args)
            out[0] += 1e-6
            return out / np.linalg.norm(out)

        assert check_unitarity(np.random.default_rng(0)).passed
        monkeypatch.setattr(dynamics, "_evolved", bent_evolved)
        check = check_unitarity(np.random.default_rng(0))
        assert not check.passed
        assert check.value > UNITARITY_LIMIT

    @pytest.mark.parametrize("n_qubits", [1, 2, 4, 7])
    def test_stacked_evolution_equals_one_h_at_a_time(self, n_qubits):
        # A scan chunk evaluates its H on a leading axis of _evolved; each
        # H's final state must be the one its own call gives.
        rng = np.random.default_rng(n_qubits)
        params = draw_params(rng, n_qubits, int(rng.integers(2, 9)))
        space = build_space(params)
        for sectors in ((0,), (1,), (0, 1)):
            psi0 = random_state(space, rng, sectors)
            sector = _Sector(build_hamiltonian(params, space), psi0.amplitudes)
            hs = [build_hamiltonian(replace(params, omega_q=w), space) for w in rng.uniform(-2.0, 2.0, 5)]
            pairs = [sector.eigh(h) for h in hs]
            values, vectors = (np.stack(parts) for parts in zip(*pairs))
            psi = psi0.amplitudes[sector.kept, None]
            t = float(rng.uniform(0.0, 3000.0))
            stacked = _evolved(values, vectors, psi, t)
            assert stacked.shape == (5, sector.kept.size, 1)
            for got, (w, v) in zip(stacked, pairs):
                assert np.max(np.abs(got - _evolved(w, v, psi, t))) <= 1e-15


class TestSpaceTables:
    """The kernel reads its sector index sets from the space it is given: the
    interned space of (N, n_max) shares them across runs, and a space built
    directly, which shares nothing, gives the same bits on every path."""

    def test_one_sector_keeps_the_spaces_index_set(self):
        params = ModelParams(n_qubits=4, omega_q=0.9, coupling=0.05, stark_u=-0.8, n_max=6)
        for space in (build_space(params), model.HilbertSpace(4, 6)):
            h = build_hamiltonian(params, space)
            for parity, cell in enumerate([(0, 0), (1, 0)]):
                sector = _Sector(h, dicke_state(space, *cell).amplitudes)
                assert sector.kept is space.parity_indices[parity]
            both = random_state(space, np.random.default_rng(1))
            assert np.array_equal(_Sector(h, both.amplitudes).kept, np.arange(space.dimension))

    def test_every_kernel_path_gives_the_same_bits_on_a_directly_built_space(self):
        spec = protocol_preset("dicke_ladder_4")
        params = spec.params
        compiled = protocol.compile_from_rules(spec, params)
        interned = build_space(params)
        direct = model.HilbertSpace(params.n_qubits, params.n_max)
        assert direct == interned and direct is not interned
        tuned = replace(params, omega_q=0.93)

        def outputs(space):
            h = build_hamiltonian(tuned, space)
            rng = np.random.default_rng(3)
            states = [dicke_state(space, 1, 2), random_state(space, rng, (0,)), random_state(space, rng)]
            out = []
            for psi0 in states:
                out.append(propagate(h, psi0, 7.5).amplitudes)
                traj = evolve(psi0, h, 7.5, samples=9)
                out += [traj.populations, traj.nq, traj.nph, traj.final.amplitudes]
                out.append(np.array(observables(traj.final)))
            psi0 = dicke_state(space, 1, 0)
            curve = resonance_scan(psi0, scan_grid((-0.1, 0.1), 40), 300.0, params, space)
            out += [curve.nq, curve.nph]
            result = protocol.run_protocol(compiled, params, space, samples=50)
            out += [traj.populations for traj in result.per_step]
            out += [result.final.amplitudes, np.array([result.fidelity, result.fidelity_optimized])]
            return out

        shared = outputs(interned)
        alone = outputs(direct)
        assert len(shared) == len(alone)
        for a, b in zip(shared, alone):
            assert a.tobytes() == b.tobytes()
        for name in ("parity_indices", "_parities", "_excitation_numbers"):  # the direct space built its own
            assert name in vars(direct) and vars(direct)[name] is not vars(interned)[name], name


# Rounding bound of the block-product phases, in units of 2^-52 max(1, max|w t|):
# the times (a b) step + r step and s step, the products w t and the
# exponentials each round by at most an ulp, which stays below 2 units; 8
# leaves room for the eigenvalues of two different diagonalizations.
PHASE_ULPS = 8


def phase_bound(w, times):
    return PHASE_ULPS * 2.0**-52 * max(1.0, float(np.max(np.abs(np.multiply.outer(w, times)))))


class TestTimeGrid:
    @pytest.mark.parametrize("samples", [2, 3, 4, 17, 400, 401, 2000])
    def test_phases_match_direct_exponentials(self, samples):
        # With V = I the amplitudes are the phases times psi, exactly: each
        # product with the identity's rows adds only exact zeros.
        rng = np.random.default_rng(samples)
        w = rng.uniform(-8.0, 8.0, 30)
        coeffs = rng.normal(size=30) + 1j * rng.normal(size=30)
        coeffs /= np.linalg.norm(coeffs)
        duration = 800.0
        times = np.linspace(0.0, duration, samples)
        blocks = list(dynamics._on_grid(w, np.eye(30), coeffs[:, None], duration, samples))
        # whole rows of the b x b product per block, in order, covering the grid once
        b = math.isqrt(samples - 1) + 1
        starts = [start for start, _ in blocks]
        widths = [phases.shape[1] for _, phases in blocks]
        assert starts == list(range(0, samples, max(1, dynamics.EVOLVE_BLOCK // b) * b))
        assert np.diff(starts).tolist() == widths[:-1] and sum(widths) == samples
        got = np.concatenate([phases for _, phases in blocks], axis=1)
        direct = coeffs[:, None] * np.exp(-1j * np.outer(w, times))
        assert got.shape == (30, samples)
        assert np.max(np.abs(got - direct)) <= phase_bound(w, times)
        assert np.array_equal(got[:, -1], np.exp(-1j * (w * duration)) * coeffs)

    def test_long_evolution_matches_full_space(self):
        rng = np.random.default_rng(3000)
        for n_qubits in (2, 3, 5):
            params = draw_params(rng, n_qubits, int(rng.integers(2, 9)))
            space = build_space(params)
            h = build_hamiltonian(params, space)
            for sectors in ((0,), (1,), (0, 1)):
                psi0 = random_state(space, rng, sectors)
                times = np.linspace(0.0, 3000.0, 401)
                oracle = full_space_evolution(h.matrix, psi0.amplitudes, times)
                bound = phase_bound(np.linalg.eigvalsh(h.matrix), times)
                assert np.max(np.abs(grid_states(h, psi0, 3000.0, 401) - oracle)) <= bound


# (step nq and nph at samples 0, 133, 266, 399; final populations above 1e-3)
# of the two protocol presets at 400 samples, recorded before evolve took its
# phases from block products and stopped renormalizing.
SAMPLE_INDICES = [0, 133, 266, 399]
RECORDED_STEPS = {
    "ghz_4": [
        (
            [2.3304383245915907e-32, 0.13558497957630927, 0.496927627989377, 0.9962655722803233],
            [4.891223968790934e-32, 0.13549562914249988, 0.49661723884545134, 0.9956598327527125],
            {(0, 0): 0.502035343881647, (2, 2): 0.4971593510722577},
        ),
        (
            [0.9962655722803255, 1.2389749033296162, 1.7289465586010881, 1.9725423053552227],
            [0.9956598327527147, 0.7500430344587636, 0.2607177882629275, 0.007032773072276365],
            {(0, 0): 0.5034240227355242, (1, 1): 0.004062369820017838, (4, 0): 0.49140289821934435},
        ),
    ],
    "dicke_ladder_4": [
        (
            [7.415245276035366e-34, 0.25000640741489166, 0.7501470871345786, 1.000426670754977],
            [2.2299740569120752e-33, 0.2500069485142243, 0.7501483470260663, 1.0004281765152878],
            {(0, 0): 0.0012643025161344955, (1, 1): 0.997022331495472, (2, 2): 0.0016906740738423295},
        ),
        (
            [1.000426670754977, 1.2452019256823645, 1.7431657665717748, 1.9956075609023327],
            [1.0004281765152878, 0.7536749376695597, 0.2567997743624832, 0.004582436214779655],
            {
                (0, 0): 0.0014625168911396884,
                (0, 2): 0.0010546288844043852,
                (2, 0): 0.9954956950804114,
                (3, 1): 0.0010706687961953086,
            },
        ),
        (
            [1.9956075609023334, 2.2605763679292226, 2.7578965790380807, 2.9903213832089537],
            [0.004582436214779676, 0.2692251658147762, 0.7664337362734036, 0.9990581709275924],
            {
                (0, 0): 0.001473774093644284,
                (2, 0): 0.0024497921948112397,
                (3, 1): 0.9930667697498803,
                (4, 2): 0.0011512540854075658,
            },
        ),
        (
            [2.9903213832089537, 3.2320176676838295, 3.7313967802556705, 3.9787151444876994],
            [0.9990581709275924, 0.7557466556004813, 0.2561056912230851, 0.009134496020408504],
            {
                (0, 0): 0.0014811401953346728,
                (2, 0): 0.002831143299103837,
                (2, 2): 0.0012032282517500906,
                (3, 1): 0.001542250580982366,
                (4, 0): 0.9903456074734046,
            },
        ),
    ],
}


@pytest.mark.parametrize("name", sorted(RECORDED_STEPS))
def test_protocol_preset_trajectories_match_the_recorded_values(name):
    spec = protocol_preset(name)
    params = spec.params
    compiled = protocol.compile_from_rules(spec, params)
    space = build_space(params)
    result = protocol.run_protocol(compiled, params, space, samples=400)
    assert len(result.per_step) == len(RECORDED_STEPS[name])
    for traj, (nq, nph, final) in zip(result.per_step, RECORDED_STEPS[name]):
        assert np.max(np.abs(traj.nq[SAMPLE_INDICES] - nq)) <= 1e-12
        assert np.max(np.abs(traj.nph[SAMPLE_INDICES] - nph)) <= 1e-12
        cells = [space.index(k, n) for k, n in final]
        assert np.max(np.abs(traj.populations[-1, cells] - list(final.values()))) <= 1e-12


def per_point_scan(psi0, ratios, duration, params):
    """The scan as one complex full-space eigh of the Kronecker H per point."""
    rows = []
    for ratio in ratios:
        tuned = replace(params, omega_q=omega_q_from_ratio(float(ratio), params))
        amps = full_space_evolution(kron_hamiltonian(tuned), psi0.amplitudes, duration)[0]
        rows.append(observables(StateVector(psi0.space, amps / np.linalg.norm(amps))))
    return np.array(rows).T


@pytest.mark.parametrize("name", sorted(SCAN_PRESETS))
def test_preset_scan_curve_matches_per_point_oracle(name):
    preset = scan_preset(name)
    space = build_space(preset.params)
    psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
    duration = pulse_duration(preset.target, preset.params)
    grid = scan_grid(preset.window, 101)
    curve = resonance_scan(psi0, grid, duration, preset.params, space)
    nq, nph = per_point_scan(psi0, grid, duration, preset.params)
    assert np.max(np.abs(curve.nq - nq)) <= 1e-10
    assert np.max(np.abs(curve.nph - nph)) <= 1e-10


def count_kernel_calls(monkeypatch, caller):
    """Count the calls of ``caller``'s build_hamiltonian, of the symmetry
    check and of np.linalg.eigh, in the returned dict."""
    calls = {"build": 0, "hermitian": 0, "eigh": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(caller, "build_hamiltonian", counting("build", caller.build_hamiltonian))
    monkeypatch.setattr(Operator, "require_hermitian", counting("hermitian", Operator.require_hermitian))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    return calls


def checked_matrices(monkeypatch) -> list:
    """The matrices the symmetry check is called on, in call order; patched
    over ``count_kernel_calls``, whose count still sees every call."""
    seen = []
    check = Operator.require_hermitian

    def recording(op):
        seen.append(op.matrix)
        return check(op)

    monkeypatch.setattr(Operator, "require_hermitian", recording)
    return seen


def assert_bit_equal_to_h0(matrix, params):
    """``matrix`` is the model's cached H(0), bit for bit."""
    h0, _ = model._affine_parts(params.n_qubits, params.n_max, params.coupling, params.stark_u, params.omega_r)
    assert (matrix.dtype, matrix.shape, matrix.tobytes()) == (h0.dtype, h0.shape, h0.tobytes())


def test_scan_point_builds_checks_and_diagonalizes_once(monkeypatch):
    """One build and one eigh per grid point, and one Hermiticity check per
    scan: the builder does not check, and the points' H share their
    off-diagonal with H(0), which the kernel checks once."""
    calls = count_kernel_calls(monkeypatch, scan)
    checked = checked_matrices(monkeypatch)
    preset = scan_preset("fig3")
    space = build_space(preset.params)
    psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
    duration = pulse_duration(preset.target, preset.params)
    curve = resonance_scan(psi0, scan_grid(preset.window, 17), duration, preset.params, space)
    assert curve.nq.size == 17
    assert calls == {"build": 17, "hermitian": 1, "eigh": 17}
    assert_bit_equal_to_h0(*checked, preset.params)


@pytest.mark.parametrize("name, steps", [("ghz_4", 2), ("dicke_ladder_4", 4)])
def test_protocol_step_builds_checks_and_diagonalizes_once(monkeypatch, name, steps):
    """One build and one eigh per step, and one Hermiticity check per
    protocol, on H(0): every step's H shares its off-diagonal, and H
    conserves parity, so the occupied sector never changes."""
    spec = protocol_preset(name)
    compiled = protocol.compile_from_rules(spec, spec.params)
    space = build_space(spec.params)
    calls = count_kernel_calls(monkeypatch, protocol)
    checked = checked_matrices(monkeypatch)
    result = protocol.run_protocol(compiled, spec.params, space)
    assert len(result.per_step) == steps
    assert calls == {"build": steps, "hermitian": 1, "eigh": steps}
    assert_bit_equal_to_h0(*checked, spec.params)


def per_point_propagate_scan(psi0, ratios, duration, params, space):
    """``resonance_scan`` one point at a time: ``propagate``, the full-space
    cutoff check and ``observables`` per grid point, in grid order."""
    rows = []
    for ratio in ratios.tolist():
        h = build_hamiltonian(replace(params, omega_q=omega_q_from_ratio(ratio, params)), space)
        final = propagate(h, psi0, duration)
        dynamics.require_below_cutoff(final.populations, space, f"scan ratio {ratio!r}")
        rows.append(observables(final))
    return np.array(rows).T


def low_photon_state(space, rng):
    """A random state on both parities with at most two photons."""
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    amps[np.arange(space.dimension) % (space.n_max + 1) > 2] = 0.0
    return StateVector(space, amps / np.linalg.norm(amps))


# One point short of, at and past the end of the first three chunks.
CHUNK_EDGES = [chunks * scan.SCAN_CHUNK + extra for chunks in (1, 2, 3) for extra in (-1, 0, 1)]


@pytest.mark.parametrize("points", CHUNK_EDGES)
def test_scan_chunk_edges_match_per_point_propagation(points):
    # A last chunk one short of, equal to and one past SCAN_CHUNK, on the
    # fig8 preset and on drawn states across both parities (the whole space
    # kept) at N = 3, 5 and 7.
    preset = scan_preset("fig8")
    rng = np.random.default_rng(points)
    fig8 = dicke_state(build_space(preset.params), preset.initial_k, preset.initial_n)
    cases = [(fig8, preset.params, preset.window)]
    for n_qubits in (3, 5, 7):
        params = ModelParams(n_qubits=n_qubits, coupling=0.02, stark_u=-1.5, n_max=9)
        cases.append((low_photon_state(build_space(params), rng), params, (-1.0, 1.0)))
    duration = pulse_duration(preset.target, preset.params)
    for psi0, params, window in cases:
        grid = scan_grid(window, points)
        curve = resonance_scan(psi0, grid, duration, params, psi0.space)
        nq, nph = per_point_propagate_scan(psi0, grid, duration, params, psi0.space)
        assert np.max(np.abs(curve.nq - nq)) <= 1e-13
        assert np.max(np.abs(curve.nph - nph)) <= 1e-13


def scan_refusal(monkeypatch, grid, duration, params=None):
    """The ValueError of a fig3 scan over ``grid``, after asserting that it
    came before any build or ``eigh``."""
    calls = []
    monkeypatch.setattr(scan, "build_hamiltonian", lambda *a: calls.append("build"))
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append("eigh"))
    preset = scan_preset("fig3")
    params = params or preset.params
    space = build_space(params)
    psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
    with pytest.raises(ValueError) as err:
        resonance_scan(psi0, np.asarray(grid), duration, params, space)
    assert calls == []
    return str(err.value)


def test_scan_refuses_the_space_of_another_model_before_any_eigh(monkeypatch):
    # N = 2, n_max = 5 and N = 5, n_max = 2 share dimension 18: the scan used
    # to return nq 5.11e-4 at this point, where the model's own space gives 2.56e-4
    calls = count_kernel_calls(monkeypatch, scan)
    params = ModelParams(n_qubits=2, n_max=5, coupling=0.05, stark_u=-0.5)
    swapped = model.HilbertSpace(n_qubits=5, n_max=2)
    psi0 = dicke_state(swapped, 0, 0)
    with pytest.raises(ValueError, match=r"space \(N = 5, n_max = 2\) does not match the model's \(N = 2, n_max = 5\)"):
        resonance_scan(psi0, np.array([0.5]), 50.0, params, swapped)
    # a space of another dimension is named alike, not by the shape check of
    # the H(0) that the scan's sector is checked on
    other = model.HilbertSpace(n_qubits=3, n_max=3)
    with pytest.raises(ValueError, match=r"space \(N = 3, n_max = 3\) does not match the model's \(N = 2, n_max = 5\)"):
        resonance_scan(dicke_state(other, 0, 0), np.array([0.5]), 50.0, params, other)
    assert calls["eigh"] == 0


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf")])
def test_scan_refuses_a_non_finite_duration_before_any_build(monkeypatch, duration):
    message = scan_refusal(monkeypatch, scan_grid(scan_preset("fig3").window, 9), duration)
    assert message.startswith("duration must be finite")


@pytest.mark.parametrize("duration", [0.0, -0.0, -5.0])
def test_scan_refuses_a_non_positive_duration_before_any_build(monkeypatch, duration):
    # as evolve does; a zero or negative duration used to return a curve
    message = scan_refusal(monkeypatch, scan_grid(scan_preset("fig3").window, 9), duration)
    assert message == f"duration must be positive, got {duration}"


@pytest.mark.parametrize(
    "grid, named",
    [
        ([0.1, math.inf], "scan ratio inf gives omega_q -inf"),
        ([0.1, math.nan], "scan ratio nan gives omega_q nan"),
        ([-math.inf, 0.1], "scan ratio -inf gives omega_q inf"),
    ],
    ids=["inf", "nan", "-inf"],
)
def test_scan_refuses_a_non_finite_ratio_before_any_build(monkeypatch, grid, named):
    # [0.1, inf] used to diagonalize 0.1 first, then fail inside replace
    # with "omega_q must be finite, got -inf", naming neither the ratio nor
    # the scan
    assert scan_refusal(monkeypatch, grid, 10.0) == f"{named}; both must be finite"


def test_scan_refuses_a_finite_ratio_whose_omega_q_overflows_before_any_build(monkeypatch):
    # omega_r (1 - ratio) = 2 (1 + 1e308) overflows to inf
    params = replace(scan_preset("fig3").params, omega_r=2.0)
    message = scan_refusal(monkeypatch, [-1e308, 0.1], 10.0, params)
    assert message == "scan ratio -1e+308 gives omega_q inf; both must be finite"


class TestScanCutoffGuard:
    # TC(0,0) from (0, 1) at lambda = 0.2: with n_max = 2 the truncated
    # space moves the peak from -0.2390 to -0.2347 and the scan used to
    # report it without complaint.
    TARGET = ResonanceTarget("tc", 1, 0, 0)

    def scan(self, n_max, grid=scan_grid((-0.6, 0.1), 71), run=resonance_scan):
        params = ModelParams(n_qubits=4, coupling=0.2, stark_u=-0.5, n_max=n_max)
        space = build_space(params)
        tuned = replace(params, omega_q=solve_resonance(self.TARGET, params))
        duration = pulse_duration(self.TARGET, tuned)
        return run(dicke_state(space, 0, 1), grid, duration, params, space)

    def test_truncated_space_raises_naming_the_ratio(self):
        with pytest.raises(CutoffExceededError, match=r"^scan ratio -0\.6: .* raise n_max") as err:
            self.scan(2)
        assert err.value.population > dynamics.CUTOFF_POPULATION

    @pytest.mark.parametrize("n_max, first", [(4, 4), (5, 25), (6, 47)])
    def test_names_the_first_ratio_over_the_cutoff_inside_a_chunk(self, n_max, first):
        # On the wide window the first over-cutoff points are grid points 4,
        # 25 and 47, none the first of its chunk; the error names the same
        # ratio and population as the per-point scan.
        assert first % scan.SCAN_CHUNK != 0
        grid = scan_grid((-3.0, 3.0), 121)
        with pytest.raises(CutoffExceededError) as oracle:
            self.scan(n_max, grid, run=per_point_propagate_scan)
        with pytest.raises(CutoffExceededError) as err:
            self.scan(n_max, grid)
        assert str(oracle.value).startswith(f"scan ratio {grid.tolist()[first]!r}: ")
        assert str(err.value) == str(oracle.value)
        assert err.value.population == pytest.approx(oracle.value.population, rel=1e-12)

    def test_default_cutoff_passes(self):
        curve = self.scan(default_n_max(1, 4))
        assert curve.nq.size == 71

    def test_protocol_exposes_the_same_error(self):
        assert protocol.CutoffExceededError is CutoffExceededError
