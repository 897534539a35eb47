import numpy as np
import pytest

from dickestark.model import (
    BasisKind,
    ModelParams,
    Operator,
    StateVector,
    build_hamiltonian,
    build_space,
    default_n_max,
    dicke_state,
    ladder_coupling,
    symmetrization_isometry,
)
from oracles import collective_ops


def spaces(n_qubits, n_max, **kw):
    params = ModelParams(n_qubits=n_qubits, n_max=n_max, **kw)
    return (
        params,
        build_space(params, BasisKind.SYMMETRIC),
        build_space(params, BasisKind.PRODUCT),
    )


class TestSpaces:
    def test_symmetric_dimension(self):
        _, sym, _ = spaces(4, 5)
        assert sym.dimension == 30

    def test_product_dimension(self):
        _, _, prod = spaces(2, 3)
        assert prod.dimension == 16

    def test_minimal_symmetric_dimension(self):
        _, sym, _ = spaces(1, 0)
        assert sym.dimension == 2

    def test_index_roundtrip(self):
        _, sym, _ = spaces(3, 4)
        seen = set()
        for k in range(4):
            for n in range(5):
                i = sym.index(k, n)
                assert sym.label(i) == (k, n)
                seen.add(i)
        assert seen == set(range(sym.dimension))

    def test_flat_index_convention(self):
        _, sym, _ = spaces(4, 5)
        assert sym.index(1, 0) == 6
        assert sym.index(0, 5) == 5

    def test_dimension_guard(self):
        params = ModelParams(n_qubits=20, n_max=10)
        with pytest.raises(ValueError, match="maximum"):
            build_space(params, BasisKind.PRODUCT)

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
        _, sym, _ = spaces(2, 2)
        with pytest.raises(ValueError, match="state norm nan"):
            StateVector(sym, np.full(sym.dimension, np.nan))

    def test_nan_operator_is_not_hermitian(self):
        _, sym, _ = spaces(2, 2)
        op = Operator(sym, np.full((sym.dimension, sym.dimension), np.nan))
        with pytest.raises(ValueError, match="not Hermitian"):
            op.require_hermitian()

    def test_excitation_numbers_match_labels(self):
        _, sym, prod = spaces(3, 4)
        ks, ns = sym.excitation_numbers()
        assert list(zip(ks, ns)) == sym.labels()
        with pytest.raises(ValueError, match="symmetric"):
            prod.excitation_numbers()

    def test_default_n_max(self):
        assert default_n_max(0, 4) == 8
        assert default_n_max(2, 4) == 10


class TestCollectiveOps:
    def test_jz_ground_expectation(self):
        _, sym, _ = spaces(4, 3)
        _, jz = collective_ops(sym)
        psi = dicke_state(sym, 0, 0)
        val = np.real(np.vdot(psi.amplitudes, jz.matrix @ psi.amplitudes))
        assert val == pytest.approx(-4.0, abs=1e-14)

    def test_ladder_coupling_values(self):
        assert ladder_coupling(0, 4) == pytest.approx(2.0)
        assert ladder_coupling(1, 4) == pytest.approx(np.sqrt(6.0))
        assert ladder_coupling(4, 4) == 0.0
        assert ladder_coupling(-1, 4) == 0.0
        assert ladder_coupling(5, 4) == 0.0

    def test_jx_structure(self):
        _, sym, _ = spaces(4, 2)
        jx, _ = collective_ops(sym)
        m = jx.matrix
        for i in range(sym.dimension):
            k, n = sym.label(i)
            for j in range(sym.dimension):
                kp, np_ = sym.label(j)
                if abs(kp - k) == 1 and np_ == n:
                    expected = ladder_coupling(min(k, kp), 4)
                    assert m[i, j] == pytest.approx(expected)
                else:
                    assert m[i, j] == 0.0

    def test_jx_matches_product_basis_projection(self):
        # Oracle: build sum_j sigma_j^x brute-force in the product basis and
        # pull it back through the symmetrization isometry.
        for n_qubits in (2, 3):
            params, sym, prod = spaces(n_qubits, 2)
            jx, _ = collective_ops(sym)
            v = symmetrization_isometry(sym, prod)
            sx = np.zeros((2**n_qubits, 2**n_qubits))
            for s in range(2**n_qubits):
                for j in range(n_qubits):
                    sx[s ^ (1 << j), s] += 1.0
            sx_full = np.kron(sx, np.eye(params.n_max + 1))
            projected = v.T @ sx_full @ v
            assert np.allclose(projected, jx.matrix, atol=1e-12)

    def test_requires_symmetric_basis(self):
        _, _, prod = spaces(2, 2)
        with pytest.raises(ValueError):
            collective_ops(prod)


class TestHamiltonian:
    def test_hermitian(self):
        for kind in BasisKind:
            params = ModelParams(n_qubits=3, n_max=4, omega_q=0.9, coupling=0.05, stark_u=-0.7)
            space = build_space(params, kind)
            h = build_hamiltonian(params, space)
            assert h.hermiticity_defect() <= 1e-12

    def test_diagonal_entries(self):
        params = ModelParams(n_qubits=4, n_max=4, omega_q=1.3, coupling=0.02, stark_u=-0.5)
        sym = build_space(params, BasisKind.SYMMETRIC)
        h = build_hamiltonian(params, sym)
        for k in range(5):
            for n in range(5):
                expected = (params.omega_q + n * params.stark_u / 4) * (k - 2) + n * params.omega_r
                assert h.matrix[sym.index(k, n), sym.index(k, n)] == pytest.approx(expected)

    def test_coupling_element(self):
        params = ModelParams(n_qubits=4, n_max=3, coupling=0.006)
        sym = build_space(params, BasisKind.SYMMETRIC)
        h = build_hamiltonian(params, sym)
        # <D^1, 0| H |D^0, 1> = lambda f(0) sqrt(1) / sqrt(4) = 0.006
        assert h.matrix[sym.index(1, 0), sym.index(0, 1)] == pytest.approx(0.006)
        # <D^1, 1| H |D^0, 0> carries the same element
        assert h.matrix[sym.index(1, 1), sym.index(0, 0)] == pytest.approx(0.006)

    def test_excitation_structure(self):
        # H couples (k, n) only to (k +- 1, n +- 1) and (k +- 1, n -+ 1);
        # every other off-diagonal entry is exactly zero.
        params = ModelParams(n_qubits=3, n_max=3, omega_q=0.8, coupling=0.1, stark_u=-2.0)
        sym = build_space(params, BasisKind.SYMMETRIC)
        h = build_hamiltonian(params, sym)
        for i in range(sym.dimension):
            k, n = sym.label(i)
            for j in range(sym.dimension):
                if i == j:
                    continue
                kp, np_ = sym.label(j)
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
        sym = build_space(params, BasisKind.SYMMETRIC)
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
        params = ModelParams(n_qubits=2, n_max=3, omega_q=0.85, coupling=0.13, stark_u=-0.9)
        sym = build_space(params, BasisKind.SYMMETRIC)
        prod = build_space(params, BasisKind.PRODUCT)
        ev_sym = np.linalg.eigvalsh(build_hamiltonian(params, sym).matrix)
        ev_prod = np.linalg.eigvalsh(build_hamiltonian(params, prod).matrix)
        for e in ev_sym:
            assert np.min(np.abs(ev_prod - e)) < 1e-10

    def test_product_block_equals_symmetric(self):
        # H_prod V = V H_sym: the symmetric sector is invariant and the
        # restriction reproduces the symmetric-basis matrix.
        params = ModelParams(n_qubits=3, n_max=2, omega_q=1.1, coupling=0.07, stark_u=-1.3)
        sym = build_space(params, BasisKind.SYMMETRIC)
        prod = build_space(params, BasisKind.PRODUCT)
        v = symmetrization_isometry(sym, prod)
        h_sym = build_hamiltonian(params, sym).matrix
        h_prod = build_hamiltonian(params, prod).matrix
        assert np.allclose(h_prod @ v, v @ h_sym, atol=1e-12)


class TestDickeStates:
    def test_symmetric_unit_vector(self):
        _, sym, _ = spaces(4, 2)
        psi = dicke_state(sym, 2, 1)
        expected = np.zeros(sym.dimension)
        expected[sym.index(2, 1)] = 1.0
        assert np.allclose(psi.amplitudes, expected)

    def test_product_two_qubit_w_state(self):
        params, _, prod = spaces(2, 2)
        psi = dicke_state(prod, 1, 2)
        # (|eg> + |ge>)/sqrt(2) x |2>
        nz = {i: a for i, a in enumerate(psi.amplitudes) if a != 0}
        assert set(nz) == {prod.product_index(0b01, 2), prod.product_index(0b10, 2)}
        for a in nz.values():
            assert a == pytest.approx(1 / np.sqrt(2))

    def test_ground_state_is_all_g(self):
        _, _, prod = spaces(4, 1)
        psi = dicke_state(prod, 0, 0)
        nz = np.flatnonzero(psi.amplitudes)
        assert list(nz) == [prod.product_index(0, 0)]
        assert psi.amplitudes[nz[0]] == pytest.approx(1.0)

    def test_normalized(self):
        for n_qubits in (1, 2, 4):
            _, sym, prod = spaces(n_qubits, 2)
            for space in (sym, prod):
                for k in range(n_qubits + 1):
                    psi = dicke_state(space, k, 1)
                    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        _, sym, _ = spaces(2, 1)
        with pytest.raises(ValueError):
            dicke_state(sym, 3, 0)
        with pytest.raises(ValueError):
            dicke_state(sym, 0, 2)

    def test_isometry(self):
        _, sym, prod = spaces(3, 2)
        v = symmetrization_isometry(sym, prod)
        assert np.allclose(v.T @ v, np.eye(sym.dimension), atol=1e-14)
