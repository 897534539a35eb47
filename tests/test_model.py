import ast
import inspect
import math
import textwrap
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickestark.model import (
    MAX_DIMENSION,
    HilbertSpace,
    ModelParams,
    Operator,
    StateVector,
    _retuned,
    build_hamiltonian,
    build_space,
    default_n_max,
    dicke_state,
)
from dickestark.validate import _product_hamiltonian, _product_isometry
from oracles import collective_ops, ladder_f

# The product-basis oracle at every N from 1 to 5, odd N included.
ORACLE_N = range(1, 6)


def spaces(n_qubits, n_max, **kw):
    params = ModelParams(n_qubits=n_qubits, n_max=n_max, **kw)
    return params, build_space(params)


def product_index(bits, n, n_max):
    """Flat product-basis index of |bits> x |n>; bit j of ``bits`` marks
    qubit j excited."""
    return bits * (n_max + 1) + n


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def model_params(draw):
    n_qubits = draw(st.integers(1, 64))
    return ModelParams(
        n_qubits=n_qubits,
        omega_r=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        omega_q=draw(finite),
        coupling=draw(st.floats(min_value=0.0, allow_infinity=False)),
        stark_u=draw(finite),
        n_max=draw(st.integers(0, MAX_DIMENSION // (n_qubits + 1) - 1)),
    )


def fields_of(params):
    """Every field's value, its type and its repr, which tells -0.0 from 0.0."""
    return {name: (type(v), repr(v)) for name, v in vars(params).items()}


class TestRetuned:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(params=model_params(), omega_q=st.one_of(finite, st.integers(-(2**60), 2**60)))
    def test_matches_dataclasses_replace(self, params, omega_q):
        before = fields_of(params)
        tuned, expected = _retuned(params, omega_q), replace(params, omega_q=omega_q)
        assert type(tuned) is ModelParams
        assert tuned == expected and hash(tuned) == hash(expected)
        assert vars(tuned) == vars(expected) and fields_of(tuned) == fields_of(expected)
        assert fields_of(params) == before  # the input is untouched

    @pytest.mark.parametrize("omega_q", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_with_the_constructor_message(self, omega_q):
        params = ModelParams(n_qubits=3)
        with pytest.raises(ValueError) as expected:
            replace(params, omega_q=omega_q)
        with pytest.raises(ValueError) as refused:
            _retuned(params, omega_q)
        assert str(refused.value) == str(expected.value) == f"omega_q must be finite, got {omega_q}"

    def test_a_field_added_later_is_copied(self):
        @dataclass(frozen=True)
        class Extended(ModelParams):
            detuning: float = 0.0

        params = Extended(n_qubits=2, coupling=0.1, detuning=0.25)
        tuned = _retuned(params, -1.5)
        assert type(tuned) is Extended and tuned == replace(params, omega_q=-1.5)
        assert vars(tuned) == {**vars(params), "omega_q": -1.5}

    def test_a_subclass_check_still_runs(self):
        @dataclass(frozen=True)
        class Bounded(ModelParams):
            def __post_init__(self):
                super().__post_init__()
                if abs(self.omega_q) > 3:
                    raise ValueError("omega_q out of range")

        params = Bounded(n_qubits=2)
        assert _retuned(params, 2.5) == replace(params, omega_q=2.5)
        with pytest.raises(ValueError, match="omega_q out of range"):
            _retuned(params, 4.0)

    def test_post_init_reads_omega_q_only_in_the_finiteness_check(self):
        """_retuned repeats only that check and copies the instance dict, so a
        new check on omega_q, a cached property or slots would go unseen."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(ModelParams.__post_init__)))
        reads = [
            node
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "omega_q")
            or (isinstance(node, ast.Constant) and node.value == "omega_q")
        ]
        loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))
        assert [ast.unparse(node) for node in reads] == ["'omega_q'"]
        assert reads[0] in ast.walk(loop.iter)
        assert "__slots__" not in vars(ModelParams)
        assert not any(isinstance(v, cached_property) for v in vars(ModelParams).values())


class TestSpaces:
    def test_symmetric_dimension(self):
        _, sym = spaces(4, 5)
        assert sym.dimension == 30

    def test_product_dimension(self):
        params, sym = spaces(2, 3)
        assert _product_hamiltonian(params).shape == (16, 16)
        assert _product_isometry(params).shape == (16, sym.dimension)

    def test_minimal_symmetric_dimension(self):
        _, sym = spaces(1, 0)
        assert sym.dimension == 2

    def test_index_roundtrip(self):
        _, sym = spaces(3, 4)
        labels = sym.labels()
        assert len(labels) == sym.dimension
        seen = set()
        for k in range(4):
            for n in range(5):
                i = sym.index(k, n)
                assert labels[i] == (k, n)
                seen.add(i)
        assert seen == set(range(sym.dimension))

    def test_flat_index_convention(self):
        _, sym = spaces(4, 5)
        assert sym.index(1, 0) == 6
        assert sym.index(0, 5) == 5

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="maximum"):
            ModelParams(n_qubits=1000, n_max=10)
        with pytest.raises(ValueError, match="maximum"):
            replace(ModelParams(n_qubits=1000, n_max=1), n_max=10)
        with pytest.raises(ValueError, match="unknown basis kind"):
            build_space(ModelParams(n_qubits=2), "product")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            ModelParams(n_qubits=0)
        with pytest.raises(ValueError):
            ModelParams(n_qubits=2, n_max=-1)
        with pytest.raises(ValueError):
            ModelParams(n_qubits=2, omega_r=0.0)
        with pytest.raises(ValueError):
            ModelParams(n_qubits=2, coupling=-0.1)

    @pytest.mark.parametrize("field", ["omega_r", "omega_q", "coupling", "stark_u"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_params_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams(n_qubits=2, **{field: value})

    def test_nan_state_rejected(self):
        _, sym = spaces(2, 2)
        with pytest.raises(ValueError, match="state norm nan"):
            StateVector(sym, np.full(sym.dimension, np.nan))

    def test_nan_operator_is_not_hermitian(self):
        _, sym = spaces(2, 2)
        op = Operator(sym, np.full((sym.dimension, sym.dimension), np.nan))
        with pytest.raises(ValueError, match="not Hermitian"):
            op.require_hermitian()

    def test_excitation_numbers_match_labels(self):
        _, sym = spaces(3, 4)
        ks, ns = sym.excitation_numbers()
        assert list(zip(ks, ns)) == sym.labels()

    def test_default_n_max(self):
        assert default_n_max(0, 4) == 6
        assert default_n_max(2, 4) == 8


class TestCollectiveOps:
    def test_jz_ground_expectation(self):
        _, sym = spaces(4, 3)
        _, jz = collective_ops(sym)
        psi = dicke_state(sym, 0, 0)
        val = np.real(np.vdot(psi.amplitudes, jz.matrix @ psi.amplitudes))
        assert val == pytest.approx(-4.0, abs=1e-14)

    def test_ladder_coupling_values(self):
        assert ladder_f(0, 4) == pytest.approx(2.0)
        assert ladder_f(1, 4) == pytest.approx(np.sqrt(6.0))
        assert ladder_f(4, 4) == 0.0
        assert ladder_f(-1, 4) == 0.0
        assert ladder_f(5, 4) == 0.0

    def test_jx_structure(self):
        _, sym = spaces(4, 2)
        jx, _ = collective_ops(sym)
        m = jx.matrix
        labels = sym.labels()
        for i, (k, n) in enumerate(labels):
            for j, (kp, np_) in enumerate(labels):
                if abs(kp - k) == 1 and np_ == n:
                    expected = ladder_f(min(k, kp), 4)
                    assert m[i, j] == pytest.approx(expected)
                else:
                    assert m[i, j] == 0.0

    def test_jx_matches_product_basis_projection(self):
        # Oracle: build sum_j sigma_j^x brute-force in the product basis and
        # pull it back through the symmetrization isometry.
        for n_qubits in ORACLE_N:
            params, sym = spaces(n_qubits, 2)
            jx, _ = collective_ops(sym)
            v = _product_isometry(params)
            sx = np.zeros((2**n_qubits, 2**n_qubits))
            for s in range(2**n_qubits):
                for j in range(n_qubits):
                    sx[s ^ (1 << j), s] += 1.0
            sx_full = np.kron(sx, np.eye(params.n_max + 1))
            projected = v.T @ sx_full @ v
            assert np.allclose(projected, jx.matrix, atol=1e-12)


class TestHamiltonian:
    def test_hermitian(self):
        params = ModelParams(n_qubits=3, n_max=4, omega_q=0.9, coupling=0.05, stark_u=-0.7)
        h = build_hamiltonian(params, build_space(params))
        assert np.array_equal(h.matrix, h.matrix.T)
        h_prod = _product_hamiltonian(params)
        assert np.array_equal(h_prod, h_prod.T)

    @pytest.mark.parametrize("n_qubits", range(1, 8))
    def test_exactly_symmetric_over_random_draws(self, n_qubits):
        # the kernel's one symmetry check per H relies on the builder
        # writing each coupling to both triangles, at every N and cutoff
        rng = np.random.default_rng(100 + n_qubits)
        for n_max in range(7):
            params = ModelParams(
                n_qubits=n_qubits,
                omega_r=float(rng.uniform(0.5, 1.5)),
                omega_q=float(rng.uniform(-2.0, 2.0)),
                coupling=float(rng.uniform(0.0, 0.3)),
                stark_u=float(rng.uniform(-4.0, 4.0)),
                n_max=n_max,
            )
            m = build_hamiltonian(params, build_space(params)).matrix
            assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("n_qubits", range(1, 5))
    def test_product_basis_oracle_exactly_symmetric(self, n_qubits):
        rng = np.random.default_rng(200 + n_qubits)
        params = ModelParams(
            n_qubits=n_qubits,
            omega_q=float(rng.uniform(-2.0, 2.0)),
            coupling=float(rng.uniform(0.0, 0.3)),
            stark_u=float(rng.uniform(-4.0, 4.0)),
            n_max=int(rng.integers(0, 5)),
        )
        m = _product_hamiltonian(params)
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("space", [HilbertSpace(5, 2), HilbertSpace(2, 4), HilbertSpace(3, 5)])
    def test_space_of_another_model_refused(self, space):
        # N = 2, n_max = 5 and N = 5, n_max = 2 share dimension 18: the
        # builder used to accept the other space and index the wrong basis
        params = ModelParams(n_qubits=2, n_max=5, omega_q=0.9, coupling=0.05, stark_u=-0.7)
        message = rf"space \(N = {space.n_qubits}, n_max = {space.n_max}\) does not match the model's \(N = 2, n_max = 5\)"
        with pytest.raises(ValueError, match=message):
            build_hamiltonian(params, space)

    def test_diagonal_entries(self):
        params = ModelParams(n_qubits=4, n_max=4, omega_q=1.3, coupling=0.02, stark_u=-0.5)
        sym = build_space(params)
        h = build_hamiltonian(params, sym)
        for k in range(5):
            for n in range(5):
                expected = (params.omega_q + n * params.stark_u / 4) * (k - 2) + n * params.omega_r
                assert h.matrix[sym.index(k, n), sym.index(k, n)] == pytest.approx(expected)

    def test_coupling_element(self):
        params = ModelParams(n_qubits=4, n_max=3, coupling=0.006)
        sym = build_space(params)
        h = build_hamiltonian(params, sym)
        # <D^1, 0| H |D^0, 1> = lambda f(0) sqrt(1) / sqrt(4) = 0.006
        assert h.matrix[sym.index(1, 0), sym.index(0, 1)] == pytest.approx(0.006)
        # <D^1, 1| H |D^0, 0> carries the same element
        assert h.matrix[sym.index(1, 1), sym.index(0, 0)] == pytest.approx(0.006)

    def test_excitation_structure(self):
        # H couples (k, n) only to (k +- 1, n +- 1) and (k +- 1, n -+ 1);
        # every other off-diagonal entry is exactly zero.
        params = ModelParams(n_qubits=3, n_max=3, omega_q=0.8, coupling=0.1, stark_u=-2.0)
        sym = build_space(params)
        h = build_hamiltonian(params, sym)
        labels = sym.labels()
        for i, (k, n) in enumerate(labels):
            for j, (kp, np_) in enumerate(labels):
                if i == j:
                    continue
                allowed = abs(kp - k) == 1 and abs(np_ - n) == 1
                if not allowed:
                    assert h.matrix[i, j] == 0.0

    def test_validation_flags_an_off_ladder_element(self, monkeypatch):
        # |dk| = 1 but |dn| = 2: off the ladder, so the invariant suite's
        # excitation-structure check must report it.
        from dickestark import validate

        true_build = validate.build_hamiltonian

        def leaky_build(params, space):
            m = np.array(true_build(params, space).matrix)
            i, j = space.index(0, 0), space.index(1, 2)
            m[i, j] = m[j, i] = 0.25
            return Operator(space, m)

        assert validate.check_excitation_structure().passed
        monkeypatch.setattr(validate, "build_hamiltonian", leaky_build)
        check = validate.check_excitation_structure()
        assert not check.passed
        assert check.value == 0.25

    def test_top_of_ladder_closed(self):
        params = ModelParams(n_qubits=3, n_max=3, coupling=0.2)
        sym = build_space(params)
        h = build_hamiltonian(params, sym)
        for n in range(4):
            row = sym.index(3, n)
            for n2 in range(4):
                # nothing couples k = N to k = N + 1 (it does not exist) and
                # the k = N row only reaches k = N - 1
                assert h.matrix[row, sym.index(3, n2)] == (
                    h.matrix[row, row] if n2 == n else 0.0
                )

    def test_symmetric_eigenvalues_subset_of_product(self):
        # Oracle: diagonalize both bases at desk scale; the symmetric sector
        # spectrum must appear inside the product spectrum.
        for n_qubits in ORACLE_N:
            params, sym = spaces(n_qubits, 3, omega_q=0.85, coupling=0.13, stark_u=-0.9)
            ev_sym = np.linalg.eigvalsh(build_hamiltonian(params, sym).matrix)
            ev_prod = np.linalg.eigvalsh(_product_hamiltonian(params))
            for e in ev_sym:
                assert np.min(np.abs(ev_prod - e)) < 1e-10

    def test_product_block_equals_symmetric(self):
        # H_prod V = V H_sym: the symmetric sector is invariant and the
        # restriction reproduces the symmetric-basis matrix.
        for n_qubits in ORACLE_N:
            params, sym = spaces(n_qubits, 4, omega_q=1.1, coupling=0.07, stark_u=-1.3)
            v = _product_isometry(params)
            h_sym = build_hamiltonian(params, sym).matrix
            h_prod = _product_hamiltonian(params)
            assert np.max(np.abs(h_prod @ v - v @ h_sym)) <= 1e-14

    def test_basis_equivalence_oracle_is_independent_of_the_builder(self, monkeypatch):
        # One coupling element of H(0) off by 1 %: the product route must not
        # go through the builder it checks, so the check must see it.
        from dickestark import model, validate

        true_parts = model._affine_parts

        def bent_parts(*key):
            h0, jz_half = true_parts(*key)
            h0 = h0.copy()
            i, j = np.argwhere(np.triu(h0, 1))[0]
            h0[i, j] = h0[j, i] = 1.01 * h0[i, j]
            return h0, jz_half

        assert validate.check_basis_equivalence(np.random.default_rng(0), draws=20).passed
        monkeypatch.setattr(model, "_affine_parts", bent_parts)
        check = validate.check_basis_equivalence(np.random.default_rng(0), draws=20)
        assert not check.passed
        assert check.value > 1e-3


class TestDickeStates:
    def test_symmetric_unit_vector(self):
        _, sym = spaces(4, 2)
        psi = dicke_state(sym, 2, 1)
        expected = np.zeros(sym.dimension)
        expected[sym.index(2, 1)] = 1.0
        assert np.allclose(psi.amplitudes, expected)

    # The oracle's isometry maps |D_N^k> x |n> to its product-basis image.
    def test_product_two_qubit_w_state(self):
        params, sym = spaces(2, 2)
        image = _product_isometry(params) @ dicke_state(sym, 1, 2).amplitudes
        # (|eg> + |ge>)/sqrt(2) x |2>
        nz = {i: a for i, a in enumerate(image) if a != 0}
        assert set(nz) == {product_index(0b01, 2, 2), product_index(0b10, 2, 2)}
        for a in nz.values():
            assert a == pytest.approx(1 / np.sqrt(2))

    def test_ground_state_is_all_g(self):
        params, sym = spaces(4, 1)
        image = _product_isometry(params) @ dicke_state(sym, 0, 0).amplitudes
        nz = np.flatnonzero(image)
        assert list(nz) == [product_index(0, 0, 1)]
        assert image[nz[0]] == pytest.approx(1.0)

    def test_normalized(self):
        for n_qubits in (1, 2, 4):
            params, sym = spaces(n_qubits, 2)
            v = _product_isometry(params)
            for k in range(n_qubits + 1):
                psi = dicke_state(sym, k, 1)
                assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(v @ psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        _, sym = spaces(2, 1)
        with pytest.raises(ValueError):
            dicke_state(sym, 3, 0)
        with pytest.raises(ValueError):
            dicke_state(sym, 0, 2)

    def test_isometry(self):
        for n_qubits in ORACLE_N:
            params, sym = spaces(n_qubits, 2)
            v = _product_isometry(params)
            assert np.allclose(v.T @ v, np.eye(sym.dimension), atol=1e-14)
