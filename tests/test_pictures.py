import tracemalloc

import numpy as np
import pytest

import fibreqm.hilbert as hilbert_module
import fibreqm.pictures as pictures_module

from fibreqm.bundle import (
    SectionAlongPath,
    constant_trivialization,
    identity_trivialization,
    lift_operator,
    lift_operator_on_grid,
    lift_operators,
    lift_trajectory,
    random_smooth_unitary_trivialization,
)
from fibreqm.dynamics import (
    HamiltonianFamily,
    ObservableFamily,
    PropagatorGrid,
    grid_indices,
    midpoint_propagators,
    propagate_states,
    uniform_grid,
)
from fibreqm.hilbert import _BLOCK_BYTES, SIGMA_X, SIGMA_Z, apply, expectations, max_abs
from fibreqm.pictures import (
    PictureTransform,
    commutator_criterion,
    evolve_density_morphisms,
    fibre_means,
    general_picture_means,
    is_integral_of_motion,
    to_general_picture_observables,
    transport_criterion,
)
from fibreqm.transport import EvolutionTransport

TIMES = uniform_grid(0.0, 1.0, 400)
H = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.5 * SIGMA_Z)
COSINE_H = HamiltonianFamily(lambda ts: SIGMA_Z + np.cos(ts)[:, None, None] * SIGMA_X, 2,
                             name="cosine")


def evolved_setup(l, h=H, times=TIMES, psi0=(1.0, 0.0)):
    steps = midpoint_propagators(h, times)
    grid = PropagatorGrid(h, times)
    states = propagate_states(steps, np.array(psi0, dtype=complex))
    section = lift_trajectory(l, times, states)
    transport = EvolutionTransport(grid, l.at_many(times))
    return grid, states, section, transport


class TestBundleMeanValue:
    """Fibre means <Psi|A Psi>_t / <Psi|Psi>_t through `fibre_means`."""

    def test_lifted_basis_state(self):
        for l in (identity_trivialization(2),
                  constant_trivialization(np.diag([1.0, 2.0]).astype(complex)),
                  random_smooth_unitary_trivialization(2, 3)):
            section = lift_trajectory(l, TIMES, np.tile([1.0 + 0j, 0.0], (TIMES.size, 1)))
            a = lift_operator_on_grid(l, TIMES, np.diag([1.0, -1.0]).astype(complex))
            means = fibre_means(l.at_many(TIMES), a.matrices, section.values)
            assert abs(means[200] - 1.0) <= 1e-12

    def test_scaling_invariance(self):
        l = random_smooth_unitary_trivialization(2, 5)
        values = np.tile([0.6 + 0j, 0.8j], (TIMES.size, 1))
        section = lift_trajectory(l, TIMES, values)
        scaled = lift_trajectory(l, TIMES, 3j * values)
        a = lift_operator_on_grid(l, TIMES, SIGMA_X)
        frames = l.at_many(TIMES)
        k = 100  # t = 0.25
        assert abs(fibre_means(frames, a.matrices, section.values)[k]
                   - fibre_means(frames, a.matrices, scaled.values)[k]) <= 1e-13

    def test_matches_conventional_mean_along_evolution(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        observable = m + m.conj().T
        l = random_smooth_unitary_trivialization(2, 9)
        _, states, section, transport = evolved_setup(l)
        lifted_obs = lift_operator_on_grid(l, TIMES, observable)
        bundle = fibre_means(transport.frames, lifted_obs.matrices, section.values)
        conventional = expectations(states, apply(observable, states))
        for idx in (0, 100, 399):
            assert abs(bundle[idx] - conventional[idx]) <= 1e-10

    def test_zero_section_value_rejected(self):
        l = identity_trivialization(2)
        section = SectionAlongPath(TIMES, np.zeros((TIMES.size, 2), dtype=complex))
        a = lift_operator_on_grid(l, TIMES, SIGMA_Z)
        with pytest.raises(ValueError, match="zero"):
            fibre_means(l.at_many(TIMES), a.matrices, section.values)


class TestHeisenbergPicture:
    """Psi_H(t) = U(t0, t) Psi(t) and A_H(t) = U(t0, t) A(t) U(t, t0) over the grid."""

    def test_reference_time_is_identity(self):
        l = random_smooth_unitary_trivialization(2, 11)
        _, _, section, transport = evolved_setup(l)
        out = apply(transport.matrices_into(0.0), section.values)
        assert max_abs(out[0] - section.values[0]) <= 1e-12

    def test_free_evolution_identity_gauge_pictures_coincide(self):
        l = identity_trivialization(2)
        _, states, section, transport = evolved_setup(l, HamiltonianFamily.zero(2))
        a = lift_operator_on_grid(l, TIMES, SIGMA_Z)
        into_t0, from_t0 = transport.matrices_into(0.0), transport.matrices_from(0.0)
        psi_h = apply(into_t0, section.values)
        a_h = to_general_picture_observables(into_t0, from_t0, a.matrices)
        for k in (100, 400):  # t = 0.25, 1.0
            assert max_abs(psi_h[k] - section.values[k]) <= 1e-12
            assert max_abs(a_h[k] - SIGMA_Z) <= 1e-12

    def test_state_constant_in_time(self):
        l = random_smooth_unitary_trivialization(2, 13)
        _, _, section, transport = evolved_setup(l)
        psi_h = apply(transport.matrices_into(0.0), section.values)
        for k in (100, 200, 400):  # t = 0.25, 0.5, 1.0
            assert max_abs(psi_h[k] - section.values[0]) <= 1e-8

    def test_means_agree_across_pictures(self):
        l = random_smooth_unitary_trivialization(2, 15)
        _, _, section, transport = evolved_setup(l)
        a = lift_operator_on_grid(l, TIMES, SIGMA_Z)
        into_t0, from_t0 = transport.matrices_into(0.0), transport.matrices_from(0.0)
        schro = fibre_means(transport.frames, a.matrices, section.values)
        psi_h = apply(into_t0, section.values)
        a_h = to_general_picture_observables(into_t0, from_t0, a.matrices)
        heis = fibre_means(transport.frames[0], a_h, psi_h)
        for k in (100, 300, 400):  # t = 0.25, 0.75, 1.0
            assert abs(schro[k] - heis[k]) <= 1e-8


class TestGeneralPicture:
    """States V Psi, observables V A V^-1 and means under the V-pulled-back metric."""

    def test_identity_transform_is_noop(self):
        v = PictureTransform.identity(TIMES, 2)
        k = 200  # t = 0.5
        psi = np.array([0.6, 0.8j])
        assert np.array_equal(apply(v.matrices[k], psi), psi)
        a = 0.3 * SIGMA_X + 0.1 * SIGMA_Z
        assert max_abs(to_general_picture_observables(
            v.matrices[k], v.inverse_matrices[k], a) - a) <= 1e-15

    def test_transport_frame_recovers_heisenberg(self):
        l = random_smooth_unitary_trivialization(2, 17)
        _, _, section, transport = evolved_setup(l)
        v = PictureTransform.from_transport(transport)
        a = lift_operator_on_grid(l, TIMES, SIGMA_X)
        into_t0, from_t0 = transport.matrices_into(0.0), transport.matrices_from(0.0)
        state_v = apply(v.matrices, section.values)
        obs_v = to_general_picture_observables(v.matrices, v.inverse_matrices, a.matrices)
        psi_h = apply(into_t0, section.values)
        a_h = to_general_picture_observables(into_t0, from_t0, a.matrices)
        for k in (200, 400):  # t = 0.5, 1.0
            assert max_abs(state_v[k] - psi_h[k]) <= 1e-12
            assert max_abs(obs_v[k] - a_h[k]) <= 1e-10

    def test_scalar_phase_leaves_observables_and_means(self):
        times = TIMES
        phases = np.exp(1j * np.sin(2 * times))[:, None, None] * np.eye(2)
        phases[0] = np.eye(2)
        v = PictureTransform(times, phases)
        l = constant_trivialization(np.diag([1.0, 2.0]).astype(complex))
        _, _, section, _ = evolved_setup(l)
        a = lift_operator_on_grid(l, times, SIGMA_Z)
        k = 200  # t = 0.5
        frames = l.at_many(times)
        obs_v = to_general_picture_observables(v.matrices[k], v.inverse_matrices[k],
                                               a.matrices[k])
        assert max_abs(obs_v - a.matrices[k]) <= 1e-13
        state_v = apply(v.matrices[k], section.values[k])
        mean_v = general_picture_means(v.inverse_matrices[k], frames[k], obs_v, state_v)
        plain = fibre_means(frames[k], a.matrices[k], section.values[k])
        assert abs(mean_v - plain) <= 1e-12

    def test_mean_preserved_for_arbitrary_invertible_frame(self):
        rng = np.random.default_rng(19)
        mats = np.tile(np.eye(2, dtype=complex), (TIMES.size, 1, 1))
        mats[1:] += 0.3 * (rng.normal(size=(TIMES.size - 1, 2, 2))
                           + 1j * rng.normal(size=(TIMES.size - 1, 2, 2)))
        v = PictureTransform(TIMES, mats)
        l = random_smooth_unitary_trivialization(2, 21)
        _, _, section, transport = evolved_setup(l)
        a = lift_operator_on_grid(l, TIMES, SIGMA_X)
        plain = fibre_means(transport.frames, a.matrices, section.values)
        obs_v = to_general_picture_observables(v.matrices, v.inverse_matrices, a.matrices)
        state_v = apply(v.matrices, section.values)
        general = general_picture_means(v.inverse_matrices, transport.frames, obs_v, state_v)
        for k in (100, 300):  # t = 0.25, 0.75
            assert abs(general[k] - plain[k]) <= 1e-10

    def test_kernels_agree_with_their_solve_based_forms(self):
        rng = np.random.default_rng(29)
        mats = np.tile(np.eye(2, dtype=complex), (TIMES.size, 1, 1))
        mats[1:] += 0.3 * (rng.normal(size=(TIMES.size - 1, 2, 2))
                           + 1j * rng.normal(size=(TIMES.size - 1, 2, 2)))
        v = PictureTransform(TIMES, mats)
        l = random_smooth_unitary_trivialization(2, 31)
        _, _, section, transport = evolved_setup(l)
        a = lift_operator_on_grid(l, TIMES, 0.3 * SIGMA_X + 0.1 * SIGMA_Z).matrices

        def dagger(x):
            return np.swapaxes(x.conj(), -2, -1)

        obs_v = to_general_picture_observables(v.matrices, v.inverse_matrices, a)
        solved_obs = dagger(np.linalg.solve(dagger(v.matrices), dagger(v.matrices @ a)))
        assert max_abs(obs_v - solved_obs) <= 1e-14 * max(1.0, max_abs(solved_obs))

        state_v = apply(v.matrices, section.values)
        means = general_picture_means(v.inverse_matrices, transport.frames, obs_v, state_v)
        x = np.linalg.solve(v.matrices, state_v[..., None])[..., 0]
        ax = np.linalg.solve(v.matrices, apply(obs_v, state_v)[..., None])[..., 0]
        solved_means = expectations(apply(transport.frames, x), apply(transport.frames, ax))
        assert max_abs(means - solved_means) <= 1e-14

    def test_reference_anchor_enforced(self):
        mats = np.tile(2.0 * np.eye(2, dtype=complex), (TIMES.size, 1, 1))
        with pytest.raises(ValueError, match="identity at the reference"):
            PictureTransform(TIMES, mats)

    @pytest.mark.parametrize("times, matrices, message", [
        ([0.0, 1.0], np.eye(2), "one square matrix per grid time"),
        ([0.0, 1.0], np.zeros((2, 2, 2, 2)), "one square matrix per grid time"),
        ([0.0, 1.0], np.zeros((3, 2, 2)), "one square matrix per grid time"),
        ([0.0, 1.0], np.zeros((2, 2, 3)), "one square matrix per grid time"),
        ([], np.zeros((0, 2, 2)), "at least one time"),
        ([[0.0, 1.0]], np.zeros((2, 2, 2)), "at least one time"),
    ], ids=["2-d", "4-d", "count", "not-square", "empty-grid", "2-d-times"])
    def test_a_malformed_transform_is_a_value_error(self, times, matrices, message):
        with pytest.raises(ValueError, match=message):
            PictureTransform(times, matrices)


class TestDensityMorphisms:
    """Density morphisms are lifts l^-1 rho l, carried by `evolve_density_morphisms`."""

    def test_identity_gauge_is_noop(self):
        rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        assert np.array_equal(lift_operator(identity_trivialization(2), 0.2, rho), rho)

    def test_pure_projector_under_unitary_gauge(self):
        l = random_smooth_unitary_trivialization(2, 23)
        psi = np.array([0.6, 0.8j], dtype=complex)
        rho = np.outer(psi, psi.conj())
        t = 0.4
        lifted_psi = np.linalg.solve(l.at(t), psi)
        p = lift_operator(l, t, rho)
        assert max_abs(p - np.outer(lifted_psi, (l.at(t).conj().T @ psi).conj())) <= 1e-12
        assert max_abs(p @ p - p) <= 1e-12  # idempotence survives similarity

    def test_evolution_matches_lifted_oracle(self):
        l = random_smooth_unitary_trivialization(2, 25)
        grid, states, _, transport = evolved_setup(l)
        psi0 = states[0]
        rho0 = np.outer(psi0, psi0.conj())
        p0 = lift_operator(l, 0.0, rho0)
        carried = evolve_density_morphisms(p0, transport.matrices_from(0.0),
                                           transport.matrices_into(0.0))
        for idx in (0, 200, 400):
            t = float(TIMES[idx])
            u = grid.operators(idx, 0)
            rho_t = u @ rho0 @ np.linalg.inv(u)
            assert max_abs(carried[idx] - lift_operator(l, t, rho_t)) <= 1e-8

    def test_zero_hamiltonian_constant_morphism(self):
        l = identity_trivialization(2)
        transport = EvolutionTransport(PropagatorGrid(HamiltonianFamily.zero(2), TIMES),
                                       l.at_many(TIMES))
        p0 = np.diag([0.25, 0.75]).astype(complex)
        assert max_abs(evolve_density_morphisms(p0, transport.matrices_from(0.0),
                                                transport.matrices_into(0.0))[-1] - p0) == 0

    def test_fibre_trace_is_frame_independent(self):
        l = constant_trivialization(np.diag([1.0, 3.0]).astype(complex))
        rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        p = lift_operator(l, 0.0, rho)
        lt = l.at(0.0)
        sandwiched = lt @ p @ np.linalg.inv(lt)
        assert abs(np.trace(p) - np.trace(sandwiched)) <= 1e-13
        assert abs(np.trace(p) - np.trace(rho)) <= 1e-13


class TestPureStateDensity:
    """The lift of the conventional pure-state density is the rank-1 fibre projector
    onto the fibre vector, idempotent with unit trace."""

    def test_identity_gauge_basis_vector(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        p = lift_operator(identity_trivialization(2), 0.0, np.outer(psi, psi.conj()))
        assert np.allclose(p, np.diag([1.0, 0.0]))

    def test_projector_properties(self):
        l = constant_trivialization(np.diag([1.0, 2.0, 0.5]).astype(complex))
        rng = np.random.default_rng(27)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        y = l.at(0.0) @ psi
        p = lift_operator(l, 0.0, np.outer(y, y.conj()) / np.vdot(y, y).real)
        assert abs(np.trace(p) - 1.0) <= 1e-12
        assert max_abs(p @ p - p) <= 1e-12
        assert max_abs(p @ psi - psi) <= 1e-12  # projects onto its own ray

    def test_two_mean_value_routes_agree(self):
        l = random_smooth_unitary_trivialization(3, 29)
        rng = np.random.default_rng(31)
        psi_fibre = rng.normal(size=3) + 1j * rng.normal(size=3)
        observable = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = 0.6
        lt = l.at(t)
        y = lt @ psi_fibre
        p = lift_operator(l, t, np.outer(y, y.conj()) / np.vdot(y, y).real)
        sandwich = lt @ p @ np.linalg.inv(lt)
        density_route = np.trace(sandwich @ observable) / np.trace(sandwich)
        lifted_obs = lift_operator(l, t, observable)
        state_route = fibre_means(lt, lifted_obs, psi_fibre)
        assert abs(density_route - state_route) <= 1e-10

    def test_zero_vector_rejected(self):
        # the zero fibre vector has no normalisable projector and no mean
        with pytest.raises(ValueError, match="zero"):
            fibre_means(np.eye(2, dtype=complex), np.eye(2, dtype=complex), np.zeros(2, complex))


class TestIntegralsOfMotion:
    def test_constant_hamiltonian_is_certified(self):
        l = random_smooth_unitary_trivialization(2, 33)
        _, _, _, transport = evolved_setup(l)
        fam = ObservableFamily.constant(H.at(0.0), name="hamiltonian")
        report = is_integral_of_motion(fam, transport)
        assert report.certified
        assert report.commutator_residual <= 1e-12
        assert report.transport_residual is not None
        assert report.transport_residual <= 1e-10
        assert report.criteria_agree

    def test_sigma_x_under_sigma_z_rejected(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        l = identity_trivialization(2)
        _, _, _, transport = evolved_setup(l, h)
        report = is_integral_of_motion(ObservableFamily.constant(SIGMA_X), transport)
        assert not report.certified
        # [sigma_x, sigma_z] has max-entry 2 (Frobenius norm 2*sqrt(2))
        assert abs(report.commutator_residual - 2.0) <= 1e-12
        assert report.criteria_agree

    def test_heisenberg_transported_observable_is_certified(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        l = identity_trivialization(2)
        times = uniform_grid(0.0, 1.0, 1000)
        grid, _, _, transport = evolved_setup(l, h, times)

        def evolved_observable(ts: np.ndarray) -> np.ndarray:
            u = grid.operators(grid_indices(grid.times, ts), 0)
            return u @ SIGMA_X @ np.linalg.inv(u)

        def heisenberg_derivative(ts: np.ndarray) -> np.ndarray:
            # dA/dt = -(i / hbar) [H, A(t)], hbar = 1
            a = evolved_observable(ts)
            return -1j * (SIGMA_Z @ a - a @ SIGMA_Z)

        fam = ObservableFamily(lambda ts: (evolved_observable(ts), heisenberg_derivative(ts)), 2)
        report = is_integral_of_motion(fam, transport, tol=1e-5)
        assert report.certified
        assert report.transport_residual is None  # time-dependent: criterion (a) only

    def test_flagged_hamiltonian_checked_on_the_grid(self):
        # Hermitian at the midpoints, where the steppers sample it, but not at
        # the grid times, where the commutator criterion does
        step = TIMES[1] - TIMES[0]

        def sample(ts: np.ndarray) -> np.ndarray:
            return SIGMA_Z + 0.5j * np.cos(np.pi * ts / step)[:, None, None] * SIGMA_X

        flagged = HamiltonianFamily(sample, 2, True, "grid-skew")
        _, _, _, transport = evolved_setup(identity_trivialization(2), flagged)
        with pytest.raises(ValueError,
                           match="^Hamiltonian family 'grid-skew' flagged Hermitian deviates"):
            is_integral_of_motion(ObservableFamily.constant(SIGMA_Z), transport)

    @staticmethod
    def wide_constant_candidate():
        """n = 32, N = 1000: a stack is 16.4 MB and a block (`_BLOCK_BYTES`) 64 times.  A
        constant H, its candidate H(t0) and a fresh transport."""
        rng = np.random.default_rng(36)
        m = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        h = HamiltonianFamily.constant((m + m.conj().T) / 8.0)
        times = uniform_grid(0.0, 1.0, 1000)
        transport = EvolutionTransport(PropagatorGrid(h, times),
                                       random_smooth_unitary_trivialization(32, 36).at_many(times))
        return ObservableFamily.constant(h.at(0.0)), transport

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_constant_candidate_holds_one_stack_beside_its_blocks(self, monkeypatch, workers):
        # The zero broadcast dA/dt is tested on its one matrix and adds nothing.
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        candidate, transport = self.wide_constant_candidate()
        # whole t0 stacks formed by the caller first: the criterion forms its own rows
        t0 = transport.times[0]
        assert transport.matrices_from(t0).shape == transport.matrices_into(t0).shape
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            report = is_integral_of_motion(candidate, transport)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.certified and report.transport_residual is not None
        # blocks alone, of one slice at any worker count: no commutator, dA/dt,
        # deviation or transported stack
        assert peak - start <= 4 * _BLOCK_BYTES

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fresh_transport_forms_no_whole_t0_stack(self, monkeypatch, workers):
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        candidate, transport = self.wide_constant_candidate()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            report = is_integral_of_motion(candidate, transport)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.certified and report.transport_residual is not None
        # the t0 rows of each block (the from-rows dropped once multiplied), beside
        # the lift's blocks, of one slice at any worker count; the transport caches no
        # whole t0 stack
        assert peak - start <= 4 * _BLOCK_BYTES
        assert not {"from_t0", "into_t0"} & set(vars(transport))

    def test_its_blocks_have_the_bits_of_the_whole_transport_criterion(self):
        # is_integral_of_motion applies transport_criterion to per-block rows: the
        # t0 rows and the inverse rows, each formed per read
        candidate, transport = self.wide_constant_candidate()
        report = is_integral_of_motion(candidate, transport)
        _, a_vals = commutator_criterion(candidate, transport)
        frames, inverse_frames = transport.frames, transport.inverse_frames[:]
        a0_fibre = lift_operators(frames[0], inverse_frames[0], a_vals[0])
        deviation = transport_criterion(lift_operators(frames, inverse_frames, a_vals), a0_fibre,
                                        transport.matrices_from(transport.times[0]),
                                        transport.matrices_into(transport.times[0]))
        assert 0 < report.transport_residual == max_abs(deviation)

    @pytest.mark.parametrize("h, batches", [(H, [1, TIMES.size]),  # A and H broadcast
                                            (COSINE_H, [TIMES.size, TIMES.size])])
    def test_the_commutator_of_broadcasts_is_formed_once(self, monkeypatch, h, batches):
        sizes = []  # the batch of each block of products, its per-time residual's size
        real = pictures_module.series_by_blocks

        def recording(n_times, n, block):
            def sized(part):
                residuals = block(part)
                sizes.append(residuals.size)
                return residuals
            return real(n_times, n, sized)

        monkeypatch.setattr(pictures_module, "series_by_blocks", recording)
        _, _, _, transport = evolved_setup(identity_trivialization(2), h)
        report = is_integral_of_motion(ObservableFamily.constant(SIGMA_X), transport)
        assert sizes == batches  # the commutator's, then the transport criterion's
        # the bits of the products over the whole grid
        a, h_vals = np.broadcast_to(SIGMA_X, (TIMES.size, 2, 2)), h.at_many(TIMES)
        whole = a @ h_vals
        whole -= h_vals @ a
        assert report.commutator_residual == max_abs(whole)

    def test_each_candidate_sampled_once(self):
        calls = []
        energy = ObservableFamily.constant(H.at(0.0))

        def sample(ts: np.ndarray):
            calls.append(ts.size)
            return energy.derivative_at_many(ts)

        _, _, _, transport = evolved_setup(identity_trivialization(2))
        assert is_integral_of_motion(ObservableFamily(sample, 2, "counted"), transport).certified
        assert calls == [TIMES.size]

    def test_certified_integral_has_constant_mean(self):
        rng = np.random.default_rng(35)
        l = identity_trivialization(2)
        _, _, _, transport = evolved_setup(l)
        steps = midpoint_propagators(H, TIMES)
        fam = ObservableFamily.constant(H.at(0.0))
        report = is_integral_of_motion(fam, transport, tol=1e-6)
        assert report.certified
        for _ in range(10):
            psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            states = propagate_states(steps, psi0)
            sampled = states[::40]
            means = expectations(sampled, apply(H.at(0.0), sampled))
            assert max_abs(means - means[0]) <= 10 * 1e-6
