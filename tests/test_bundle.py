import numpy as np
import pytest

from fibreqm.bundle import (
    MorphismAlongPath,
    NonPointwiseOperatorError,
    SectionAlongPath,
    SingularTrivializationError,
    TrivializationFamily,
    bundle_adjoint_maps,
    constant_trivialization,
    diagonal_phase_trivialization,
    fibre_inner_products,
    global_phase_trivialization,
    identity_trivialization,
    lift_operator,
    lift_operators,
    lift_trajectory,
    module_combine,
    morphism_as_section_operator,
    random_smooth_unitary_trivialization,
    section_operator_as_morphism,
)
from fibreqm.hilbert import inner_products, max_abs

DIAG12 = constant_trivialization(np.diag([1.0, 2.0]).astype(complex))


def random_invertible_family(n, seed, non_unitary=True):
    rng = np.random.default_rng(seed)
    base = random_smooth_unitary_trivialization(n, seed)
    if not non_unitary:
        return base
    stretch = np.diag(1.0 + rng.uniform(0.2, 1.3, size=n)).astype(complex)
    return TrivializationFamily(lambda ts: base.at_many(ts) @ stretch, n,
                                lambda ts: base.derivative_at_many(ts) @ stretch,
                                name="stretched")


class TestLifting:
    def test_identity_family_is_noop(self):
        l = identity_trivialization(3)
        psi = np.array([1.0, 2.0j, -0.5])
        assert np.array_equal(lift_trajectory(l, [0.3], [psi]).values[0], psi)

    def test_global_phase_lift(self):
        omega = 2.0
        l = global_phase_trivialization(2, omega)
        psi = np.array([0.3, -0.7j])
        times = np.array([0.0, 0.4, 1.7])
        expected = np.exp(-1j * omega * times)[:, None] * psi
        lifted = lift_trajectory(l, times, np.tile(psi, (3, 1))).values
        assert max_abs(lifted - expected) <= 1e-14

    def test_diagonal_lift(self):
        lifted = lift_trajectory(DIAG12, [0.0], [[1.0, 1.0]]).values[0]
        assert np.allclose(lifted, [1.0, 0.5], atol=1e-15)

    def test_round_trip(self):
        l = random_invertible_family(4, 21)
        rng = np.random.default_rng(1)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        times = np.array([0.0, 0.6])
        lifted = lift_trajectory(l, times, np.tile(psi, (2, 1))).values
        back = np.einsum("kij,kj->ki", l.at_many(times), lifted)
        assert max_abs(back - psi) <= 1e-12

    def test_lift_operator_identity(self):
        l = random_invertible_family(3, 5)
        assert max_abs(lift_operator(l, 0.2, np.eye(3)) - np.eye(3)) <= 1e-13

    def test_lift_operator_explicit_conjugation(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        lifted = lift_operator(DIAG12, 0.0, a)
        assert np.allclose(lifted, [[0, 2], [0.5, 0]], atol=1e-15)

    def test_lift_operator_preserves_spectrum(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        l = random_smooth_unitary_trivialization(4, 33)
        lifted = lift_operator(l, 0.8, a)
        ev_a = np.sort_complex(np.linalg.eigvals(a))
        ev_l = np.sort_complex(np.linalg.eigvals(lifted))
        assert max_abs(ev_a - ev_l) <= 1e-10

    def test_lift_trajectory_matches_pointwise(self):
        l = random_invertible_family(3, 13)
        times = np.linspace(0.0, 1.0, 7)
        rng = np.random.default_rng(2)
        states = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        section = lift_trajectory(l, times, states)
        for k, t in enumerate(times):
            assert max_abs(section.values[k] - np.linalg.solve(l.at(t), states[k])) <= 1e-13

    def test_lift_operators_match_a_solve_on_ill_conditioned_frames(self):
        # The product with held inverses and a solve differ by rounding only,
        # within the forward-error scale cond(l) eps |A| of either.
        base = random_smooth_unitary_trivialization(3, 41)
        stretch = np.diag([1.0, 1e-3, 1e3]).astype(complex)
        l = TrivializationFamily(lambda ts: base.at_many(ts) @ stretch, 3,
                                 lambda ts: base.derivative_at_many(ts) @ stretch,
                                 name="ill-conditioned")
        times = np.linspace(0.0, 1.0, 9)
        frames = l.invertible_at_many(times)
        cond = float(np.max(np.linalg.cond(frames)))
        assert 5e5 <= cond <= 2e6
        rng = np.random.default_rng(4)
        a = rng.normal(size=(times.size, 3, 3)) + 1j * rng.normal(size=(times.size, 3, 3))
        lifted = lift_operators(frames, np.linalg.inv(frames), a)
        solved = np.linalg.solve(frames, a @ frames)
        assert max_abs(lifted - solved) <= 1e3 * cond * np.finfo(float).eps * max_abs(a)

    def test_singular_trivialization_rejected(self):
        sick = TrivializationFamily(
            lambda ts: np.stack([np.diag([t, 1.0]) for t in ts]).astype(complex), 2,
            lambda ts: np.broadcast_to(np.diag([1.0, 0.0]).astype(complex), (ts.size, 2, 2)))
        with pytest.raises(SingularTrivializationError):
            lift_trajectory(sick, [0.0], [[1.0, 1.0]])


class TestFibreInnerProduct:
    def test_identity_reduces_to_plain(self):
        l = identity_trivialization(2)
        u = np.array([1.0, 2j])
        v = np.array([0.5, -1.0 + 0j])
        assert fibre_inner_products(l.at(0.0), u, v) == inner_products(u, v)

    def test_lift_cancellation(self):
        l = random_invertible_family(3, 17)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        phi = rng.normal(size=3) + 1j * rng.normal(size=3)
        t = 0.35
        lifted = lift_trajectory(l, [t, t], [psi, phi]).values
        value = fibre_inner_products(l.at(t), lifted[0], lifted[1])
        assert abs(value - inner_products(psi, phi)) <= 1e-12

    def test_diagonal_metric(self):
        e2 = np.array([0, 1 + 0j])
        assert fibre_inner_products(DIAG12.at(0.0), e2, e2) == 4

    def test_positive_definite(self):
        l = random_invertible_family(4, 3)
        rng = np.random.default_rng(8)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        value = fibre_inner_products(l.at(0.9), u, u)
        assert value.imag == 0 and value.real > 0


class TestBundleAdjoints:
    """`bundle_adjoint_maps(l_s, l_t^-1, A)` is the adjoint under the fibre metric."""

    def test_identity_morphism_self_adjoint(self):
        lt = random_invertible_family(3, 19).at(0.1)
        adj = bundle_adjoint_maps(lt, np.linalg.inv(lt), np.eye(3))
        assert max_abs(adj - np.eye(3)) <= 1e-12

    def test_unitary_family_reduces_to_dagger(self):
        lt = random_smooth_unitary_trivialization(3, 23).at(0.7)
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert max_abs(bundle_adjoint_maps(lt, np.linalg.inv(lt), a) - a.conj().T) <= 1e-12

    def test_lifted_hermitian_is_fixed_point(self):
        l = random_invertible_family(4, 29)
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hermitian = m + m.conj().T
        lifted = lift_operator(l, 0.4, hermitian)
        lt = l.at(0.4)
        assert max_abs(bundle_adjoint_maps(lt, np.linalg.inv(lt), lifted) - lifted) <= 1e-10

    def test_morphism_defining_relation(self):
        l = random_invertible_family(3, 31)
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lt = l.at(0.55)
        adj = bundle_adjoint_maps(lt, np.linalg.inv(lt), a)
        for _ in range(5):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            lhs = fibre_inner_products(lt, adj @ u, v)
            rhs = fibre_inner_products(lt, u, a @ v)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_morphism_involution(self):
        lt = random_invertible_family(3, 37).at(0.2)
        lt_inv = np.linalg.inv(lt)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        twice = bundle_adjoint_maps(lt, lt_inv, bundle_adjoint_maps(lt, lt_inv, a))
        assert max_abs(twice - a) <= 1e-11

    def test_map_equal_times_identity(self):
        lt = random_invertible_family(2, 41).at(0.3)
        adj = bundle_adjoint_maps(lt, np.linalg.inv(lt), np.eye(2))
        assert max_abs(adj - np.eye(2)) <= 1e-12

    def test_map_identity_family_reduces_to_dagger(self):
        ls, lt = identity_trivialization(3).at_many([0.1, 0.9])
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(bundle_adjoint_maps(ls, np.linalg.inv(lt), a), a.conj().T)

    def test_map_defining_relation(self):
        # a_map carries fibre(t) -> fibre(s); its adjoint goes the other way
        l = random_invertible_family(3, 43)
        rng = np.random.default_rng(14)
        a_map = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ls, lt = l.at_many([0.2, 0.8])
        adj = bundle_adjoint_maps(ls, np.linalg.inv(lt), a_map)
        for _ in range(5):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)   # in fibre(s)
            w = rng.normal(size=3) + 1j * rng.normal(size=3)   # in fibre(t)
            lhs = fibre_inner_products(lt, adj @ u, w)
            rhs = fibre_inner_products(ls, u, a_map @ w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestModuleStructure:
    def _sections(self, n=2, samples=9, seed=50):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 1.0, samples)
        mk = lambda: SectionAlongPath(
            times, rng.normal(size=(samples, n)) + 1j * rng.normal(size=(samples, n)))
        return times, mk(), mk()

    def test_unit_and_zero_scalars(self):
        times, phi, psi = self._sections()
        assert np.array_equal(module_combine(1.0, phi, 0.0, psi).values, phi.values)
        zero = module_combine(0.0, phi, 0.0, psi)
        assert max_abs(zero.values) == 0

    def test_time_dependent_scaling(self):
        times = np.linspace(0.0, 1.0, 5)
        ones = SectionAlongPath(times, np.tile([1.0 + 0j, 0.0], (5, 1)))
        scaled = module_combine(times, ones, np.zeros(5), ones)
        assert np.allclose(scaled.values[:, 0], times)

    def test_grid_mismatch_rejected(self):
        _, phi, _ = self._sections(samples=9)
        _, _, psi = self._sections(samples=7)
        with pytest.raises(ValueError, match="grids"):
            module_combine(1.0, phi, 1.0, psi)

    def test_section_inner_lifted_unit_vector(self):
        l = random_invertible_family(2, 53)
        times = np.linspace(0.0, 1.0, 11)
        psi = np.array([0.6, 0.8j])
        section = lift_trajectory(l, times, np.tile(psi, (11, 1)))
        field = fibre_inner_products(l.at_many(times), section.values, section.values)
        assert max_abs(field - 1.0) <= 1e-12

    def test_section_inner_orthogonal_and_linear(self):
        l = random_invertible_family(2, 59)
        times = np.linspace(0.0, 1.0, 11)
        e1 = lift_trajectory(l, times, np.tile([1.0 + 0j, 0.0], (11, 1)))
        e2 = lift_trajectory(l, times, np.tile([0.0, 1.0 + 0j], (11, 1)))
        frames = l.at_many(times)
        assert max_abs(fibre_inner_products(frames, e1.values, e2.values)) <= 1e-13
        c = np.exp(1j * times) * (1 + times)
        scaled = module_combine(np.zeros(11), e1, c, e1)
        field = fibre_inner_products(frames, e1.values, scaled.values)
        assert max_abs(field - c * fibre_inner_products(frames, e1.values, e1.values)) <= 1e-12

    def test_morphism_application(self):
        times = np.linspace(0.0, 1.0, 4)
        phi = SectionAlongPath(times, np.tile([1.0 + 0j, 1.0], (4, 1)))
        a = MorphismAlongPath(times, np.tile(np.diag([1.0, -1.0]).astype(complex), (4, 1, 1)))
        out = morphism_as_section_operator(a, phi)
        assert np.array_equal(out.values, np.tile([1.0 + 0j, -1.0], (4, 1)))

    def test_zero_morphism_gives_zero_section(self):
        times = np.linspace(0.0, 1.0, 4)
        phi = SectionAlongPath(times, np.ones((4, 2), dtype=complex))
        a = MorphismAlongPath(times, np.zeros((4, 2, 2), dtype=complex))
        assert max_abs(morphism_as_section_operator(a, phi).values) == 0


class TestSectionOperatorDuality:
    def test_identity_operator_recovers_identity_morphism(self):
        times = np.linspace(0.0, 1.0, 5)
        recovered = section_operator_as_morphism(lambda s: s, times, 3)
        assert np.array_equal(recovered.matrices,
                              np.tile(np.eye(3, dtype=complex), (5, 1, 1)))

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(61)
        times = np.linspace(0.0, 1.0, 6)
        mats = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        morphism = MorphismAlongPath(times, mats)
        op = lambda sec: morphism_as_section_operator(morphism, sec)
        recovered = section_operator_as_morphism(op, times, 2)
        assert np.array_equal(recovered.matrices, morphism.matrices)
        section = SectionAlongPath(times, rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
        again = morphism_as_section_operator(recovered, section)
        assert np.array_equal(again.values, op(section).values)

    def test_time_shift_detected_as_non_pointwise(self):
        times = np.linspace(0.0, 1.0, 5)

        def shift(sec: SectionAlongPath) -> SectionAlongPath:
            return SectionAlongPath(sec.times, np.roll(sec.values, 1, axis=0))

        with pytest.raises(NonPointwiseOperatorError):
            section_operator_as_morphism(shift, times, 2)


class TestTrivializationValidation:
    def test_constant_singular_rejected_at_construction(self):
        with pytest.raises(SingularTrivializationError):
            constant_trivialization(np.diag([1.0, 0.0]).astype(complex))

    def test_grid_validation_catches_singularity(self):
        sick = TrivializationFamily(
            lambda ts: np.stack([np.diag([t - 0.5, 1.0]) for t in ts]).astype(complex), 2,
            lambda ts: np.broadcast_to(np.diag([1.0, 0.0]).astype(complex), (ts.size, 2, 2)))
        with pytest.raises(SingularTrivializationError):
            sick.validate_on_grid(np.linspace(0.0, 1.0, 11))

    def test_wrong_analytic_derivative_detected(self):
        liar = TrivializationFamily(
            lambda ts: np.stack([np.diag([np.exp(1j * t), 1.0]) for t in ts]),
            2,
            derivative=lambda ts: np.zeros((ts.size, 2, 2), dtype=complex))
        with pytest.raises(ValueError, match="derivative"):
            liar.validate_on_grid(np.linspace(0.0, 1.0, 101))

    def test_catalog_families_validate(self):
        times = np.linspace(0.0, 1.0, 101)
        for family in (identity_trivialization(3),
                       global_phase_trivialization(3, 2 * np.pi),
                       diagonal_phase_trivialization([1.0, -2.0, 0.5]),
                       constant_trivialization(np.diag([1.0, 2.0, 3.0]).astype(complex)),
                       random_smooth_unitary_trivialization(3, 71)):
            family.validate_on_grid(times)


@pytest.mark.parametrize("sampler, derivative, query", [
    (lambda ts: np.zeros((ts.size, 3, 3), dtype=complex), None, "at_many"),
    (lambda ts: np.eye(2, dtype=complex), None, "at_many"),
    (lambda ts: np.eye(2, dtype=complex), None, "at"),
    (lambda ts: np.ones((ts.size, 2, 2), dtype=complex),
     lambda ts: np.zeros((ts.size + 1, 2, 2), dtype=complex), "derivative_at_many"),
])
def test_wrong_sampler_shape_rejected(sampler, derivative, query):
    family = TrivializationFamily(sampler, 2, derivative, name="misshapen")
    with pytest.raises(ValueError, match="misshapen"):
        getattr(family, query)(np.linspace(0.0, 1.0, 4) if query != "at" else 0.5)
