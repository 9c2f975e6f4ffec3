import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fibreqm.hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PhysicalConstants,
    adjoint,
    antihermitian_exponentials,
    commutator,
    inner_product,
    is_hermitian,
    is_unitary,
    matrix_exponential,
    max_abs,
)

_entries = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def square_matrices(draw, n=None):
    n = n if n is not None else draw(st.integers(1, 5))
    re = draw(hnp.arrays(np.float64, (n, n), elements=_entries))
    im = draw(hnp.arrays(np.float64, (n, n), elements=_entries))
    return re + 1j * im


@st.composite
def matrix_vector_pairs(draw):
    n = draw(st.integers(1, 5))
    a = draw(square_matrices(n))
    u_re = draw(hnp.arrays(np.float64, (n,), elements=_entries))
    u_im = draw(hnp.arrays(np.float64, (n,), elements=_entries))
    v_re = draw(hnp.arrays(np.float64, (n,), elements=_entries))
    v_im = draw(hnp.arrays(np.float64, (n,), elements=_entries))
    return a, u_re + 1j * u_im, v_re + 1j * v_im


class TestInnerProduct:
    def test_orthogonal_basis_vectors(self):
        assert inner_product([1, 0], [0, 1]) == 0

    def test_unit_norm(self):
        assert inner_product([1, 0], [1, 0]) == 1

    def test_conjugate_linear_in_first_argument(self):
        # <(i,0), (1,0)> = conj(i) * 1 = -i
        assert inner_product([1j, 0], [1, 0]) == -1j

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_product([1, 0], [1, 0, 0])

    @given(matrix_vector_pairs())
    @settings(max_examples=60)
    def test_self_product_real_nonnegative(self, triple):
        _, u, _ = triple
        value = inner_product(u, u)
        assert value.imag == 0
        assert value.real >= 0


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(adjoint(np.eye(3)), np.eye(3))

    def test_diagonal_conjugation(self):
        assert np.array_equal(adjoint(np.diag([1j, -1j])), np.diag([-1j, 1j]))

    def test_shift_matrix(self):
        # defining relation checked against inner_product on basis vectors
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        expected = np.array([[0, 0], [1, 0]], dtype=complex)
        assert np.array_equal(adjoint(a), expected)
        e1, e2 = np.eye(2, dtype=complex)
        for u in (e1, e2):
            for v in (e1, e2):
                assert inner_product(adjoint(a) @ u, v) == inner_product(u, a @ v)

    @given(square_matrices())
    @settings(max_examples=60)
    def test_involution_exact(self, a):
        assert np.array_equal(adjoint(adjoint(a)), a)

    @given(matrix_vector_pairs())
    @settings(max_examples=60)
    def test_defining_relation(self, triple):
        a, u, v = triple
        lhs = inner_product(adjoint(a) @ u, v)
        rhs = inner_product(u, a @ v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestCommutator:
    def test_identity_commutes(self):
        b = np.array([[1, 2], [3, 4]], dtype=complex)
        assert max_abs(commutator(np.eye(2), b)) == 0

    def test_pauli_x_z(self):
        assert np.allclose(commutator(SIGMA_X, SIGMA_Z), -2j * SIGMA_Y, atol=1e-15)

    def test_diagonals_commute(self):
        assert max_abs(commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))) == 0

    @given(square_matrices(3), square_matrices(3))
    @settings(max_examples=60)
    def test_antisymmetry(self, a, b):
        assert max_abs(commutator(a, b) + commutator(b, a)) <= 1e-12

    @given(square_matrices(3), square_matrices(3), square_matrices(3))
    @settings(max_examples=60)
    def test_jacobi_identity(self, a, b, c):
        total = (commutator(a, commutator(b, c))
                 + commutator(b, commutator(c, a))
                 + commutator(c, commutator(a, b)))
        scale = max(1.0, max_abs(a) * max_abs(b) * max_abs(c))
        assert max_abs(total) <= 1e-12 * scale


class TestPredicates:
    def test_sigma_x_hermitian(self):
        assert is_hermitian(SIGMA_X, 1e-12)

    def test_phase_diagonal_unitary(self):
        for theta in (0.0, 0.3, -2.5, np.pi):
            assert is_unitary(np.diag([1, np.exp(1j * theta)]), 1e-12)

    def test_shear_not_unitary(self):
        assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex), 1e-6)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            is_hermitian(SIGMA_X, -1.0)


class TestMatrixExponential:
    def test_zero(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_closed_form(self):
        result = matrix_exponential(1j * np.pi * np.diag([1.0, 0.0]))
        assert np.allclose(result, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_sigma_x_closed_form(self):
        # exp(-i theta sigma_x) = cos(theta) I - i sin(theta) sigma_x
        result = matrix_exponential(-1j * (np.pi / 2) * SIGMA_X)
        assert np.allclose(result, -1j * SIGMA_X, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_anti_hermitian_gives_unitary(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        result = matrix_exponential(1j * (m + m.conj().T))
        assert is_unitary(result, 1e-10)

    @pytest.mark.parametrize("scale", [0.01, 0.5, 2.0, 10.0])
    def test_against_scipy(self, scale):
        rng = np.random.default_rng(int(scale * 100))
        a = scale * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        expected = scipy.linalg.expm(a)
        assert max_abs(matrix_exponential(a) - expected) <= 1e-11 * max(1.0, max_abs(expected))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(7)
        batch = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        stacked = matrix_exponential(batch)
        for k in range(6):
            assert max_abs(stacked[k] - scipy.linalg.expm(batch[k])) <= 1e-11

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            matrix_exponential(np.array([[np.inf, 0], [0, 0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3)))


def seeded_antihermitian(n, seed):
    rng = np.random.default_rng([seed, n])
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 1j * 0.6 * (m + m.conj().T) / (2.0 * max(1.0, np.sqrt(n)))


class TestAntihermitianExponentials:
    SCALARS = np.linspace(-3.0, 3.0, 25)

    @pytest.mark.parametrize("n", [2, 4, 32])
    def test_agrees_with_matrix_exponential(self, n):
        k = seeded_antihermitian(n, 11)
        spectral = antihermitian_exponentials(k)(self.SCALARS)
        taylor = matrix_exponential(self.SCALARS[:, None, None] * k)
        assert spectral.shape == (self.SCALARS.size, n, n)
        assert max_abs(spectral - taylor) <= 1e-13

    @pytest.mark.parametrize("n", [2, 4, 32])
    def test_unitary(self, n):
        u = antihermitian_exponentials(seeded_antihermitian(n, 13))(self.SCALARS)
        gram = np.swapaxes(u.conj(), -2, -1) @ u
        assert max_abs(gram - np.eye(n)) <= 1e-14 * n

    @pytest.mark.parametrize("n", [2, 4, 32])
    def test_identity_at_zero(self, n):
        exponentials = antihermitian_exponentials(seeded_antihermitian(n, 17))
        assert max_abs(exponentials(0.0) - np.eye(n)) <= 1e-14
        assert max_abs(exponentials(np.zeros(3)) - np.eye(n)) <= 1e-14

    def test_non_antihermitian_rejected(self):
        k = seeded_antihermitian(3, 19)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            antihermitian_exponentials(k + 1e-6 * np.eye(3))
        with pytest.raises(ValueError, match="anti-Hermitian"):
            antihermitian_exponentials(SIGMA_X)


class TestPhysicalConstants:
    def test_default(self):
        assert PhysicalConstants().hbar == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            PhysicalConstants(bad)
