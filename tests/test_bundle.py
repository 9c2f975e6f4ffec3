import ast
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    lift_operator_on_grid,
    lift_operators,
    lift_trajectory,
    module_combine,
    morphism_as_section_operator,
    random_smooth_unitary_trivialization,
    section_operator_as_morphism,
    _frame_inverse,
    _require_invertible,
)
from fibreqm.checks import build_artifacts
from fibreqm.dynamics import HamiltonianFamily, PropagatorGrid
from fibreqm.hilbert import _BLOCK_BYTES, antihermitian_exponentials, inner_products, max_abs
from fibreqm.pictures import PictureTransform
from fibreqm.scenario import catalog_names, load_catalog_scenario
from fibreqm.transport import EvolutionTransport

DIAG12 = constant_trivialization(np.diag([1.0, 2.0]).astype(complex))


def stretched(base, stretch, name):
    """The family l(t) S of `base` and a constant matrix S, sampled through `base`."""
    return TrivializationFamily(
        lambda ts: tuple(m @ stretch for m in base.derivative_at_many(ts)[:2]),
        base.dimension, name=name)


def singular_at(offset, name="custom"):
    """diag(t - offset, 1): singular at t = offset, with derivative diag(1, 0)."""
    return TrivializationFamily(
        lambda ts: (np.stack([np.diag([t - offset, 1.0]) for t in ts]).astype(complex),
                    np.broadcast_to(np.diag([1.0, 0.0]).astype(complex), (ts.size, 2, 2))),
        2, name=name)


def random_invertible_family(n, seed, non_unitary=True):
    rng = np.random.default_rng(seed)
    base = random_smooth_unitary_trivialization(n, seed)
    if not non_unitary:
        return base
    stretch = np.diag(1.0 + rng.uniform(0.2, 1.3, size=n)).astype(complex)
    return stretched(base, stretch, "stretched")


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
        l = stretched(base, stretch, "ill-conditioned")
        times = np.linspace(0.0, 1.0, 9)
        frames = l.at_many(times)
        cond = float(np.max(np.linalg.cond(frames)))
        assert 5e5 <= cond <= 2e6
        rng = np.random.default_rng(4)
        a = rng.normal(size=(times.size, 3, 3)) + 1j * rng.normal(size=(times.size, 3, 3))
        lifted = lift_operators(frames, np.linalg.inv(frames), a)
        solved = np.linalg.solve(frames, a @ frames)
        assert max_abs(lifted - solved) <= 1e3 * cond * np.finfo(float).eps * max_abs(a)

    def test_singular_trivialization_rejected(self):
        sick = singular_at(0.0)
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

    def test_constant_families_are_read_only_broadcasts(self):
        times = np.linspace(0.0, 1.0, 7)
        constant_diagonal = load_catalog_scenario("nonunitary-constant-gauge").trivialization
        assert constant_diagonal.name == "constant-diagonal"
        for family in (identity_trivialization(3), DIAG12, constant_diagonal):
            values, derivative, inverse = family.derivative_at_many(times)
            for stack in (values, derivative, inverse[:], inverse.whole):
                assert stack.shape == (times.size, family.dimension, family.dimension)
                assert stack.strides[0] == 0 and not stack.flags.writeable

    def test_grid_validation_catches_singularity(self):
        sick = singular_at(0.5)
        with pytest.raises(SingularTrivializationError):
            sick.validate_on_grid(np.linspace(0.0, 1.0, 11))

    def test_wrong_analytic_derivative_detected(self):
        liar = TrivializationFamily(
            lambda ts: (np.stack([np.diag([np.exp(1j * t), 1.0]) for t in ts]),
                        np.zeros((ts.size, 2, 2), dtype=complex)),
            2)
        with pytest.raises(ValueError, match="derivative"):
            liar.validate_on_grid(np.linspace(0.0, 1.0, 101))

    def test_random_family_derivative_matches_the_product_rule(self):
        # dl/ds = K1 V + w cos(w s) V K2 on the values V, against the product rule
        # over both exponential factors, with the family's own generators.
        n, seed, scale, frequency = 32, 5, 0.6, 2.5
        rng = np.random.default_rng([seed, 0x51])
        k1, k2 = (1j * scale * (m + m.conj().T) / 2.0 / np.sqrt(n)
                  for m in (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                            for _ in range(2)))
        s = np.linspace(-1.0, 2.0, 61)
        f1 = antihermitian_exponentials(k1)(s)
        f2 = antihermitian_exponentials(k2)(np.sin(frequency * s))
        rate = (frequency * np.cos(frequency * s))[:, None, None]
        family = random_smooth_unitary_trivialization(n, seed)
        values, derivative = family.derivative_at_many(s)[:2]
        assert np.array_equal(values, f1 @ f2)
        assert max_abs(derivative - ((k1 @ f1) @ f2 + f1 @ (rate * (k2 @ f2)))) <= 1e-14

    def test_catalog_families_validate(self):
        times = np.linspace(0.0, 1.0, 101)
        for family in (identity_trivialization(3),
                       global_phase_trivialization(3, 2 * np.pi),
                       diagonal_phase_trivialization([1.0, -2.0, 0.5]),
                       constant_trivialization(np.diag([1.0, 2.0, 3.0]).astype(complex)),
                       random_smooth_unitary_trivialization(3, 71)):
            family.validate_on_grid(times)


@pytest.mark.parametrize("values, derivative, query", [
    (lambda ts: np.zeros((ts.size, 3, 3), dtype=complex), None, "at_many"),
    (lambda ts: np.eye(2, dtype=complex), None, "at_many"),
    (lambda ts: np.eye(2, dtype=complex), None, "at"),
    (lambda ts: np.ones((ts.size, 2, 2), dtype=complex),
     lambda ts: np.zeros((ts.size + 1, 2, 2), dtype=complex), "derivative_at_many"),
])
def test_wrong_sampler_shape_rejected(values, derivative, query):
    derivative = derivative or (lambda ts: np.zeros((ts.size, 2, 2), dtype=complex))
    family = TrivializationFamily(lambda ts: (values(ts), derivative(ts)), 2, name="misshapen")
    with pytest.raises(ValueError, match="misshapen"):
        getattr(family, query)(np.linspace(0.0, 1.0, 4) if query != "at" else 0.5)


def unitary_stack(rng, count, n):
    """`count` unitary n x n matrices, the Q factors of complex Gaussian matrices."""
    q, _ = np.linalg.qr(rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n)))
    return q


@st.composite
def unitary_stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return unitary_stack(rng, draw(st.integers(2, 6)), draw(st.integers(1, 8)))


def count_svd_and_inv(monkeypatch) -> Counter:
    """Counts of np.linalg.svd and np.linalg.inv calls, keyed by (routine, calling module)."""
    calls = Counter()
    for routine in ("svd", "inv"):
        def counting(*args, real=getattr(np.linalg, routine), routine=routine, **kwargs):
            calls[routine, sys._getframe(1).f_globals["__name__"]] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, routine, counting)
    return calls


class TestFrameInverse:
    """A frame stack proven unitary to 1e-13 by its samples is inverted by its adjoint."""

    @pytest.mark.parametrize("name", [name for name, _ in catalog_names()])
    def test_only_the_non_unitary_gauge_takes_the_svd_and_inv_path(self, name, monkeypatch):
        cfg = load_catalog_scenario(name)
        calls = count_svd_and_inv(monkeypatch)
        # the grid frames, the transport and the midpoint generator; setup inverts
        # no conventional U(t0, t)
        nodes = build_artifacts(cfg)
        PictureTransform.random_unitary(cfg.times, cfg.dimension, cfg.seed).inverse_matrices
        frame_calls = {routine: k for (routine, module), k in calls.items()
                       if module == "fibreqm.bundle"}
        if name == "nonunitary-constant-gauge":
            # the grid and the midpoints, each checked by its SVD and inverted once
            assert frame_calls == {"svd": 2, "inv": 2}
        else:
            assert frame_calls == {}
        nodes["transport"].propagators.into_t0[:2]  # PropagatorGrid.into_t0 keeps inv, per read
        assert calls["inv", "fibreqm.bundle"] == frame_calls.get("inv", 0) + 1

    @pytest.mark.parametrize("name", [name for name, _ in catalog_names()])
    def test_the_lift_helpers_follow_the_one_inverse_rule(self, name, monkeypatch):
        cfg = load_catalog_scenario(name)
        n, times = cfg.dimension, cfg.times
        a = np.arange(n * n).reshape(n, n) + 1j * np.eye(n)
        calls = count_svd_and_inv(monkeypatch)
        lifted = [lift_operator(cfg.trivialization, times[3], a),
                  lift_operator_on_grid(cfg.trivialization, times, a).matrices[3],
                  lift_trajectory(cfg.trivialization, times, np.tile(a[0], (times.size, 1)))
                  .values[3]]
        frame_calls = {routine: k for (routine, module), k in calls.items()
                       if module == "fibreqm.bundle"}
        if name == "nonunitary-constant-gauge":
            assert frame_calls == {"svd": 3, "inv": 3}  # each helper checks and inverts once
        else:
            assert frame_calls == {}
        frame = cfg.trivialization.at_many(times[3])[0]
        expected = np.linalg.solve(frame, a @ frame)
        scale = max_abs(expected)
        assert max_abs(lifted[0] - expected) <= 1e-13 * scale
        assert max_abs(lifted[1] - expected) <= 1e-13 * scale
        assert max_abs(lifted[2] - np.linalg.solve(frame, a[0])) <= 1e-13 * max_abs(a)

    def test_a_stack_past_the_unitarity_bound_takes_the_svd_and_inv_path(self, monkeypatch):
        q = unitary_stack(np.random.default_rng(5), 6, 4)
        times = np.linspace(0.0, 1.0, 6)
        calls = count_svd_and_inv(monkeypatch)
        for scale, expected in ((1 + 2.5e-14, {}), (1 + 2.5e-13, {"svd": 1, "inv": 1})):
            stack = scale * q
            gram = np.swapaxes(stack.conj(), -2, -1) @ stack
            assert 0.8 * (scale ** 2 - 1) <= max_abs(gram - np.eye(4)) <= 1.2 * (scale ** 2 - 1)
            calls.clear()
            inverse = _require_invertible(stack, "scaled", times)  # proven, then inverted
            assert {routine: k for (routine, _), k in calls.items()} == expected
            assert max_abs(inverse[:] @ stack - np.eye(4)) <= 1e-12
            assert np.array_equal(_frame_inverse(stack)[:], inverse[:])  # by the one rule

    @pytest.mark.parametrize("family", [
        identity_trivialization(32),
        constant_trivialization(np.diag(np.arange(1.0, 33.0)).astype(complex))])
    def test_a_broadcast_is_proven_and_inverted_on_its_one_matrix(self, family, monkeypatch):
        times = np.linspace(0.0, 1.0, 1001)
        one_stack = times.size * 32 * 32 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            family.at_many(times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * one_stack  # no adjoint, Gram or inverse stack
        calls = count_svd_and_inv(monkeypatch)
        values, _, inverse = family.derivative_at_many(times)
        for read in (inverse[:], inverse[3:700], inverse.whole):
            assert read.strides[0] == 0 and not read.flags.writeable
        assert max_abs(inverse[0] @ values[0] - np.eye(32)) <= 1e-15
        unitary = family.name == "identity"
        assert sum(calls.values()) == (0 if unitary else 2)  # one SVD, one inv, each on one matrix

    def test_a_singular_broadcast_is_rejected_at_the_first_time(self):
        singular = np.diag([1.0, 0.0]).astype(complex)
        family = TrivializationFamily(lambda ts: (np.broadcast_to(singular, (ts.size, 2, 2)),
                                                  np.zeros((ts.size, 2, 2), dtype=complex)),
                                      2, name="flat")
        with pytest.raises(SingularTrivializationError, match=r"'flat' is singular at t=0.25$"):
            family.at_many([0.25, 0.5])

    def test_a_singular_stack_is_rejected_at_its_time(self):
        sick = singular_at(0.0, name="sick")
        with pytest.raises(SingularTrivializationError, match=r"'sick' is singular at t=1e-09$"):
            sick.at_many([0.5, 0.25, 1e-9, 0.75])

    @given(unitary_stacks())
    @settings(max_examples=40, deadline=None)
    def test_unitary_stacks_are_inverted_by_their_adjoint(self, stack):
        count, n = stack.shape[:2]
        expected = np.linalg.inv(stack)
        adjoint = np.swapaxes(stack.conj(), -2, -1)
        inverse = _frame_inverse(stack)
        assert np.array_equal(inverse[:], adjoint)
        assert max_abs(inverse[:] - expected) <= 1e-13

        times = np.arange(count, dtype=float)
        transport = EvolutionTransport(PropagatorGrid(HamiltonianFamily.zero(n), times), stack)
        picture = PictureTransform(np.arange(count + 1, dtype=float),
                                   np.concatenate([np.eye(n)[None], stack]))
        for held in (transport.inverse_frames.whole, picture.inverse_matrices[1:]):
            assert max_abs(held - expected) <= 1e-13
            assert not held.flags.writeable

    @staticmethod
    def stored_adjoint(stack):
        """The whole C-contiguous adjoint stack, whose rows every read of a unitary
        stack's inverse must equal bit for bit."""
        return np.conjugate(np.swapaxes(stack, -2, -1), out=np.empty(stack.shape, dtype=complex))

    @pytest.mark.parametrize("index", [slice(None), slice(64, 130), np.array([0, 200, 7, 7]),
                                       np.intp(200), 0])
    def test_a_unitary_read_has_the_bits_of_the_stored_adjoint(self, index):
        times = np.linspace(0.0, 1.0, 201)
        frames, inverse = random_smooth_unitary_trivialization(32, 3).validate_on_grid(times)
        read, stored = inverse[index], self.stored_adjoint(frames)[index]
        assert read.shape == stored.shape and read.flags.c_contiguous
        assert np.array_equal(read, stored)
        # a product reads its operands' layout, so it keeps its bits too
        x = np.random.default_rng(4).normal(size=(32, 32)) + 0j
        assert np.array_equal(read @ x, stored @ x)

    @pytest.mark.parametrize("index", [slice(2, 5), np.array([4, 0, 4]), 3])
    def test_a_non_unitary_read_has_the_bits_of_inv(self, index, monkeypatch):
        family = random_invertible_family(5, 8)
        times = np.linspace(0.0, 1.0, 6)
        calls = count_svd_and_inv(monkeypatch)
        values, _, inverse = family.derivative_at_many(times)
        assert calls["inv", "fibreqm.bundle"] == 1
        monkeypatch.undo()
        assert np.array_equal(inverse[index], np.linalg.inv(values)[index])
        calls = count_svd_and_inv(monkeypatch)
        inverse[index], inverse.whole
        assert not calls  # reads invert nothing

    def test_a_unitary_stack_holds_no_inverse_stack(self):
        times = np.linspace(0.0, 1.0, 1001)
        frames = random_smooth_unitary_trivialization(32, 3).at_many(times)
        one_stack = frames.nbytes
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            inverse = _frame_inverse(frames)
            held, peak = tracemalloc.get_traced_memory()
            inverse[:]  # a read forms its rows and keeps none
            after_read, _ = tracemalloc.get_traced_memory()
            whole = inverse.whole  # the cached whole stack, for a library caller
            cached, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the Gram test's blocks, an adjoint and a Gram product per worker, never a stack
        assert peak - start <= 5 * _BLOCK_BYTES
        assert held - start < 0.01 * one_stack and after_read - start < 0.01 * one_stack
        assert cached - start >= one_stack and whole is inverse.whole


def _conjugate_transpose_sites():
    """(file, scope) of every conjugate transpose in src/: a conj (method or np call)
    applied to, or under, a transpose (`.T`, `swapaxes` or `transpose`)."""
    sites = set()

    def conj(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("conj", "conjugate"))

    def transpose(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "T")
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("swapaxes", "transpose")))

    def visit(node, fname, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            under = list(ast.walk(child))[1:]
            if ((conj(child) and any(map(transpose, under)))
                    or (transpose(child) and any(map(conj, under)))):
                sites.add((fname, scope))
            visit(child, fname, inner)

    for path in (Path(__file__).resolve().parent.parent / "src" / "fibreqm").glob("*.py"):
        visit(ast.parse(path.read_text()), path.name, "")
    return sites


def test_the_frames_conjugate_transpose_is_formed_only_by_the_inverse_rule():
    """`FrameInverse.__getitem__` forms S^dagger of a frame stack, per read; every other
    conjugate transpose is of an operator that is no frame."""
    assert _conjugate_transpose_sites() == {
        ("bundle.py", "FrameInverse.__getitem__"),    # the frames, per read
        ("bundle.py", "_seeded_smooth_unitary"),      # a drawn matrix, made Hermitian
        ("bundle.py", "bundle_adjoint_maps"),         # the product l_s A l_t^-1
        ("checks.py", "_check_hermiticity_correspondence"),  # an observable
        ("dynamics.py", "HamiltonianFamily.at_many"),  # H, tested Hermitian
        ("dynamics.py", "validate_density"),          # a density
        ("hilbert.py", "is_hermitian"),
        ("hilbert.py", "antihermitian_exponentials"),  # a generator and its eigenvectors
        ("scenario.py", "_random_hermitian"),         # a drawn matrix, made Hermitian
    }


def test_np_linalg_inv_runs_only_in_the_two_inverters():
    """`_frame_inverse` inverts every frame stack that is not unitary, and a
    `FrameInverse` read the rows of the conventional U(t_j, t0) (`PropagatorGrid.into_t0`)."""
    sites = set()

    def visit(node, fname, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Attribute) and child.attr == "inv"
                    and ast.unparse(child.value) == "np.linalg"):
                sites.add((fname, scope))
            visit(child, fname, inner)

    for path in (Path(__file__).resolve().parent.parent / "src" / "fibreqm").glob("*.py"):
        visit(ast.parse(path.read_text()), path.name, "")
    assert sites == {("bundle.py", "_frame_inverse"), ("bundle.py", "FrameInverse.__getitem__")}
