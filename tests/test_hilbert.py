import math
import threading
import time

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fibreqm.bundle import bundle_adjoint_maps
from fibreqm import hilbert
from fibreqm.hilbert import (
    SIGMA_X,
    PhysicalConstants,
    _taylor_plan,
    antihermitian_exponentials,
    inner_products,
    is_hermitian,
    matrix_exponential,
    max_abs,
    sorted_distinct,
    time_blocks,
)
from fibreqm.scenario import catalog_names, load_catalog_scenario

_entries = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def square_matrices(draw, n=None):
    n = n if n is not None else draw(st.integers(1, 5))
    re = draw(hnp.arrays(np.float64, (n, n), elements=_entries))
    im = draw(hnp.arrays(np.float64, (n, n), elements=_entries))
    return re + 1j * im


# A drawn upper triangle, scaled to 1-norm 7, on which scipy.linalg.expm is off by
# 1.36 (of 58.4); mpmath at 50 digits agrees with matrix_exponential to 1.4e-14.
_SCIPY_MISSES_THIS_TRIANGLE = np.full((5, 5), 4.908176046702264e-62 + 1j)
_SCIPY_MISSES_THIS_TRIANGLE[0, 0], _SCIPY_MISSES_THIS_TRIANGLE[2, 2] = 1j, 3 + 1j


def _mpmath_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) computed by mpmath at 50 significant digits, rounded to complex."""
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)


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
        assert inner_products(np.array([1, 0j]), np.array([0, 1j])) == 0

    def test_unit_norm(self):
        assert inner_products(np.array([1, 0j]), np.array([1, 0j])) == 1

    def test_conjugate_linear_in_first_argument(self):
        # <(i,0), (1,0)> = conj(i) * 1 = -i
        assert inner_products(np.array([1j, 0]), np.array([1, 0j])) == -1j

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_products(np.array([1, 0j]), np.array([1, 0, 0j]))

    @given(matrix_vector_pairs())
    @settings(max_examples=60)
    def test_self_product_real_nonnegative(self, triple):
        _, u, _ = triple
        value = inner_products(u, u)
        assert value.imag == 0
        assert value.real >= 0


class TestAdjoint:
    """With identity frames the fibre metric is the plain one, so the bundle
    adjoint l^-1 (l A l^-1)^dagger l is the Hilbert adjoint A^dagger."""

    @staticmethod
    def eye(a):
        return np.eye(np.shape(a)[-1], dtype=complex)

    def test_identity(self):
        eye = self.eye(np.eye(3))
        assert np.array_equal(bundle_adjoint_maps(eye, eye, np.eye(3)), np.eye(3))

    def test_diagonal_conjugation(self):
        eye = self.eye(np.eye(2))
        assert np.array_equal(bundle_adjoint_maps(eye, eye, np.diag([1j, -1j])),
                              np.diag([-1j, 1j]))

    def test_shift_matrix(self):
        # defining relation checked against inner_products on basis vectors
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        eye = self.eye(a)
        adj = bundle_adjoint_maps(eye, eye, a)
        expected = np.array([[0, 0], [1, 0]], dtype=complex)
        assert np.array_equal(adj, expected)
        e1, e2 = np.eye(2, dtype=complex)
        for u in (e1, e2):
            for v in (e1, e2):
                assert inner_products(adj @ u, v) == inner_products(u, a @ v)

    @given(square_matrices())
    @settings(max_examples=60)
    def test_involution_exact(self, a):
        eye = self.eye(a)
        assert np.array_equal(bundle_adjoint_maps(eye, eye, bundle_adjoint_maps(eye, eye, a)), a)

    @given(matrix_vector_pairs())
    @settings(max_examples=60)
    def test_defining_relation(self, triple):
        a, u, v = triple
        eye = self.eye(a)
        lhs = inner_products(bundle_adjoint_maps(eye, eye, a) @ u, v)
        rhs = inner_products(u, a @ v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestPredicates:
    def test_sigma_x_hermitian(self):
        assert is_hermitian(SIGMA_X, 1e-12)

    def test_phase_diagonal_unitary(self):
        for theta in (0.0, 0.3, -2.5, np.pi):
            u = np.diag([1, np.exp(1j * theta)])
            assert max_abs(u.conj().T @ u - np.eye(2)) <= 1e-12

    def test_shear_not_unitary(self):
        shear = np.array([[1, 1], [0, 1]], dtype=complex)
        assert not max_abs(shear.conj().T @ shear - np.eye(2)) <= 1e-6

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
        assert max_abs(result.conj().T @ result - np.eye(n)) <= 1e-10

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

    @given(square_matrices(), st.floats(0.0, 50.0), st.booleans())
    @example(_SCIPY_MISSES_THIS_TRIANGLE, 7.0, True)
    @settings(max_examples=150, deadline=None)
    def test_against_scipy_up_to_norm_50(self, m, theta, upper):
        # Random matrices are non-normal; their upper triangles are far from normal,
        # and there scipy's expm can miss, so mpmath at 50 digits is their oracle.
        m = np.triu(m) if upper else m
        norm = float(np.max(np.sum(np.abs(m), axis=0)))
        a = m * (theta / norm) if norm > 0 else m
        expected = _mpmath_expm(a) if upper else scipy.linalg.expm(a)
        assert max_abs(matrix_exponential(a) - expected) <= 1e-12 * max(1.0, max_abs(expected))

    @pytest.mark.parametrize("theta", [0.0, 1e-300, 1e-9, 3e-3, 0.00603, 0.0088, 0.1, 0.25,
                                       0.5, np.nextafter(0.5, 1.0), 0.7, 1.0, 3.3, 16.0, 50.0,
                                       1e6])
    def test_plan_is_the_smallest_degree_meeting_the_bound(self, theta):
        degree, squarings = _taylor_plan(theta)
        assert (degree, squarings) == _taylor_plan(float(theta))  # theta alone decides
        x = theta / 2.0 ** squarings
        assert x <= 0.5 and (squarings == 0 or 2.0 * x > 0.5)

        def first_omitted(m):
            return x ** (m + 1) / math.factorial(m + 1)

        assert first_omitted(degree) <= 2.0 ** -53 * 1e-2
        assert degree == 0 or first_omitted(degree - 1) > 2.0 ** -53 * 1e-2
        assert degree <= 15

    def test_plan_depends_on_the_batch_norm_only(self):
        # Two batches that share their largest 1-norm give each matrix the same bits,
        # whatever else they hold.
        rng = np.random.default_rng(21)
        batch = rng.normal(size=(40, 6, 6)) + 1j * rng.normal(size=(40, 6, 6))
        batch *= 0.8 / np.max(np.sum(np.abs(batch), axis=-2), axis=-1)[:, None, None]
        batch[0] *= 1.2
        batch[39] = batch[0]  # the largest 1-norm, about 0.96, sits in both halves
        full = matrix_exponential(batch)
        assert np.array_equal(matrix_exponential(batch[:20]), full[:20])
        assert np.array_equal(matrix_exponential(batch[20:]), full[20:])
        assert np.array_equal(matrix_exponential(batch[[39, 5, 0]]), full[[39, 5, 0]])

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 5, 5), (2, 3, 8, 8)])
    def test_zero_is_exactly_identity(self, shape):
        n = shape[-1]
        assert _taylor_plan(0.0) == (0, 0)
        assert np.array_equal(matrix_exponential(np.zeros(shape)),
                              np.broadcast_to(np.eye(n), shape))

    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 0.3])
    def test_a_transposed_view_is_read_not_written(self, scale):
        rng = np.random.default_rng(3)
        base = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        view = base.T  # not C-contiguous; at 1e-9 the degree is 1 or 2, with no product
        result = matrix_exponential(view)
        assert np.array_equal(view, base.T)
        assert max_abs(result - scipy.linalg.expm(view)) <= 1e-15

    @pytest.mark.parametrize("scale", [1e-9, 0.3, 3.0])  # no squaring, and two
    def test_in_place_gives_the_bits_of_a_new_stack(self, scale):
        # 200 matrices of 32 x 32, seven time blocks: each block is read whole before
        # it is overwritten, and the plan is the whole batch's
        rng = np.random.default_rng(5)
        batch = scale * (rng.normal(size=(200, 32, 32)) + 1j * rng.normal(size=(200, 32, 32)))
        assert len(time_blocks(200, 32)) == 7
        expected = matrix_exponential(batch)
        result = matrix_exponential(batch, out=batch)
        assert result is batch
        assert np.array_equal(batch, expected)

    @pytest.mark.parametrize("out", [np.empty((3, 4, 4), dtype=complex),
                                     np.empty((2, 4, 4)),
                                     np.empty((2, 4, 4), dtype=complex)[:, :, ::-1]])
    def test_out_must_be_a_complex_array_of_the_input_shape(self, out):
        with pytest.raises(ValueError, match="out must be"):
            matrix_exponential(np.zeros((2, 4, 4)), out=out)

    def test_anti_hermitian_batch_gives_unitary_stack(self):
        rng = np.random.default_rng(32)
        m = rng.normal(size=(1000, 32, 32)) + 1j * rng.normal(size=(1000, 32, 32))
        k = 1j * (m + np.swapaxes(m.conj(), -2, -1))
        # 1-norms spread over [0, 2], so the batch is squared twice
        norms = np.max(np.sum(np.abs(k), axis=-2), axis=-1)
        k *= (np.linspace(0.0, 2.0, 1000) / norms)[:, None, None]
        assert _taylor_plan(float(np.max(np.sum(np.abs(k), axis=-2))))[1] == 2
        u = matrix_exponential(k)
        assert max_abs(np.swapaxes(u.conj(), -2, -1) @ u - np.eye(32)) <= 1e-14


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


class TestTimeBlocks:
    """Temporaries are (b, n, n) blocks of at most half of 1 MiB, cut from the grid by one
    helper."""

    @given(st.integers(0, 5000), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_blocks_cover_every_time_once_in_order_and_fit_the_bound(self, n_times, n):
        blocks = time_blocks(n_times, n)
        assert [k for part in blocks for k in range(part.start, part.stop)] == list(range(n_times))
        assert all(part.step is None and part.stop > part.start for part in blocks)
        one = 16 * n * n  # bytes of one complex (n, n) matrix
        assert all((part.stop - part.start) * one <= max(hilbert._BLOCK_BYTES // 2, one)
                   for part in blocks)
        if n_times * one <= hilbert._BLOCK_BYTES // 2:  # a stack that fits is one block
            assert blocks == ([slice(0, n_times)] if n_times else [])

    def test_the_bound_is_one_mebibyte(self):
        assert hilbert._BLOCK_BYTES == 2 ** 20
        assert time_blocks(1001, 32)[0] == slice(0, 32)

    def test_every_catalog_stack_but_one_is_one_block(self):
        # nonunitary-constant-gauge, n = 8 and N = 1000, is the catalog's one stack of
        # two blocks: 1001 matrices of 1 KiB, and a block holds 512
        for name, _ in catalog_names():
            cfg = load_catalog_scenario(name)
            blocks = [part.stop - part.start for part in time_blocks(cfg.times.size,
                                                                      cfg.dimension)]
            assert blocks == ([512, 489] if name == "nonunitary-constant-gauge"
                              else [cfg.times.size]), name

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_callers_errstate_holds_on_every_worker(self, monkeypatch, workers):
        # seven blocks; only the second overflows, and at 2 and 3 workers a helper
        # thread runs it
        monkeypatch.setattr(hilbert, "_WORKERS", workers)
        parts = time_blocks(200, 32)
        assert len(parts) == 7

        def block(part: slice) -> np.ndarray:
            scale = 1e300 if part == parts[1] else 1.0
            return np.full((part.stop - part.start, 32, 32), scale) * scale

        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError):
                hilbert.stack_by_blocks(200, 32, block)

    def test_a_blocked_exponential_gives_the_bits_of_one_call_per_block(self):
        # 200 matrices at n = 32 are seven blocks; each is planned from the whole batch
        rng = np.random.default_rng(4)
        batch = 0.05 * (rng.normal(size=(200, 32, 32)) + 1j * rng.normal(size=(200, 32, 32)))
        batch[150] *= 40  # the batch's largest 1-norm sits in the fifth block
        theta = float(np.max(np.sum(np.abs(batch), axis=-2)))
        degree, squarings = _taylor_plan(theta)
        assert len(time_blocks(200, 32)) == 7
        assert np.array_equal(matrix_exponential(batch),
                              hilbert._planned_exponential(batch, degree, squarings))


class TestSortedDistinct:
    @given(hnp.arrays(np.intp, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
                      elements=st.integers(-50, 50)))
    @settings(max_examples=100, deadline=None)
    def test_it_is_np_unique(self, values):
        out = sorted_distinct(values)
        assert out.dtype == values.dtype
        assert np.array_equal(out, np.unique(values))


class TestFormedInOrder:
    """`_formed_in_order` forms slices on the workers and uses them in block order, as
    the streamed bundle integration carries its section."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_uses_are_in_block_order_and_each_worker_holds_one_formed_slice(
            self, monkeypatch, workers):
        monkeypatch.setattr(hilbert, "_WORKERS", workers)
        parts = [slice(k, k + 1) for k in range(40)]
        lock, held, most, used = threading.Lock(), [0], [0], []
        delays = np.random.default_rng(5).uniform(0.0, 2e-3, size=len(parts))

        def form(part):
            time.sleep(delays[part.start])
            with lock:
                held[0] += 1
                most[0] = max(most[0], held[0])
            return part.start

        def use(part, formed):
            assert formed == part.start
            time.sleep(delays[-1 - part.start])
            used.append(part.start)
            with lock:
                held[0] -= 1

        before = threading.active_count()
        hilbert._formed_in_order(form, use, parts)
        assert used == list(range(len(parts)))
        assert most[0] <= workers
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_first_failing_slice_raises_and_none_after_it_is_used(self, monkeypatch,
                                                                      workers):
        # slices 3 and 5 fail; at 3 workers slice 5 is made to fail first
        monkeypatch.setattr(hilbert, "_WORKERS", workers)
        parts = [slice(k, k + 1) for k in range(12)]
        fifth_failed, used = threading.Event(), []

        def form(part):
            if part.start == 3:
                if workers == 3:
                    assert fifth_failed.wait(timeout=30)
                raise ValueError("slice 3")
            if part.start == 5:
                fifth_failed.set()
                raise ValueError("slice 5")
            return part.start

        with pytest.raises(ValueError, match="slice 3"):
            hilbert._formed_in_order(form, lambda part, formed: used.append(formed), parts)
        assert used == [0, 1, 2]
