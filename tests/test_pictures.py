import numpy as np
import pytest

from fibreqm.bundle import (
    constant_trivialization,
    identity_trivialization,
    lift_operator,
    lift_operator_on_grid,
    lift_trajectory,
    random_smooth_unitary_trivialization,
)
from fibreqm.dynamics import (
    HamiltonianFamily,
    ObservableFamily,
    PropagatorGrid,
    grid_indices,
    mean_value,
    propagate_states,
    uniform_grid,
)
from fibreqm.hilbert import SIGMA_X, SIGMA_Z, max_abs
from fibreqm.pictures import (
    PictureTransform,
    bundle_mean_value,
    density_morphism,
    evolve_density_morphism,
    fibre_trace,
    general_picture_mean,
    heisenberg_mean,
    is_integral_of_motion,
    pure_state_density,
    to_general_picture_observable,
    to_general_picture_state,
    to_heisenberg_observable,
    to_heisenberg_state,
)
from fibreqm.transport import build_transport

TIMES = uniform_grid(0.0, 1.0, 400)
H = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.5 * SIGMA_Z)


def evolved_setup(l, h=H, times=TIMES, psi0=(1.0, 0.0)):
    grid = PropagatorGrid(h, times)
    states = propagate_states(grid.step_matrices, np.array(psi0, dtype=complex))
    section = lift_trajectory(l, times, states)
    transport = build_transport(h, l, times, propagators=grid)
    return grid, states, section, transport


class TestBundleMeanValue:
    def test_lifted_basis_state(self):
        for l in (identity_trivialization(2),
                  constant_trivialization(np.diag([1.0, 2.0]).astype(complex)),
                  random_smooth_unitary_trivialization(2, 3)):
            section = lift_trajectory(l, TIMES, np.tile([1.0 + 0j, 0.0], (TIMES.size, 1)))
            a = lift_operator_on_grid(l, TIMES, np.diag([1.0, -1.0]).astype(complex))
            assert abs(bundle_mean_value(a, section, l, 0.5) - 1.0) <= 1e-12

    def test_scaling_invariance(self):
        l = random_smooth_unitary_trivialization(2, 5)
        values = np.tile([0.6 + 0j, 0.8j], (TIMES.size, 1))
        section = lift_trajectory(l, TIMES, values)
        scaled = lift_trajectory(l, TIMES, 3j * values)
        a = lift_operator_on_grid(l, TIMES, SIGMA_X)
        assert abs(bundle_mean_value(a, section, l, 0.25)
                   - bundle_mean_value(a, scaled, l, 0.25)) <= 1e-13

    def test_matches_conventional_mean_along_evolution(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        observable = m + m.conj().T
        l = random_smooth_unitary_trivialization(2, 9)
        _, states, section, _ = evolved_setup(l)
        lifted_obs = lift_operator_on_grid(l, TIMES, observable)
        for idx in (0, 100, 399):
            t = float(TIMES[idx])
            bundle = bundle_mean_value(lifted_obs, section, l, t)
            conventional = mean_value(observable, states[idx])
            assert abs(bundle - conventional) <= 1e-10

    def test_zero_section_value_rejected(self):
        l = identity_trivialization(2)
        section_values = np.zeros((TIMES.size, 2), dtype=complex)
        from fibreqm.bundle import SectionAlongPath
        section = SectionAlongPath(TIMES, section_values)
        a = lift_operator_on_grid(l, TIMES, SIGMA_Z)
        with pytest.raises(ValueError, match="zero"):
            bundle_mean_value(a, section, l, 0.5)


class TestHeisenbergPicture:
    def test_reference_time_is_identity(self):
        l = random_smooth_unitary_trivialization(2, 11)
        _, _, section, transport = evolved_setup(l)
        out = to_heisenberg_state(section, transport, 0.0, 0.0)
        assert max_abs(out - section.values[0]) <= 1e-12

    def test_free_evolution_identity_gauge_pictures_coincide(self):
        l = identity_trivialization(2)
        _, states, section, transport = evolved_setup(l, HamiltonianFamily.zero(2))
        a = lift_operator_on_grid(l, TIMES, SIGMA_Z)
        for t in (0.25, 1.0):
            assert max_abs(to_heisenberg_state(section, transport, 0.0, t)
                           - section.value_at(t)) <= 1e-12
            assert max_abs(to_heisenberg_observable(a, transport, 0.0, t)
                           - SIGMA_Z) <= 1e-12

    def test_state_constant_in_time(self):
        l = random_smooth_unitary_trivialization(2, 13)
        _, _, section, transport = evolved_setup(l)
        for t in (0.25, 0.5, 1.0):
            out = to_heisenberg_state(section, transport, 0.0, t)
            assert max_abs(out - section.values[0]) <= 1e-8

    def test_means_agree_across_pictures(self):
        l = random_smooth_unitary_trivialization(2, 15)
        _, _, section, transport = evolved_setup(l)
        a = lift_operator_on_grid(l, TIMES, SIGMA_Z)
        for t in (0.25, 0.75, 1.0):
            schro = bundle_mean_value(a, section, l, t)
            psi_h = to_heisenberg_state(section, transport, 0.0, t)
            a_h = to_heisenberg_observable(a, transport, 0.0, t)
            heis = heisenberg_mean(a_h, psi_h, l, 0.0)
            assert abs(schro - heis) <= 1e-8


class TestGeneralPicture:
    def test_identity_transform_is_noop(self):
        v = PictureTransform.identity(TIMES, 2)
        psi = np.array([0.6, 0.8j])
        assert np.array_equal(to_general_picture_state(psi, v, 0.5), psi)
        a = 0.3 * SIGMA_X + 0.1 * SIGMA_Z
        assert max_abs(to_general_picture_observable(a, v, 0.5) - a) <= 1e-15

    def test_transport_frame_recovers_heisenberg(self):
        l = random_smooth_unitary_trivialization(2, 17)
        _, _, section, transport = evolved_setup(l)
        v = PictureTransform.from_transport(transport, 0.0)
        a = lift_operator_on_grid(l, TIMES, SIGMA_X)
        for t in (0.5, 1.0):
            state_v = to_general_picture_state(section.value_at(t), v, t)
            assert max_abs(state_v - to_heisenberg_state(section, transport, 0.0, t)) <= 1e-12
            obs_v = to_general_picture_observable(a.matrix_at(t), v, t)
            assert max_abs(obs_v - to_heisenberg_observable(a, transport, 0.0, t)) <= 1e-10

    def test_scalar_phase_leaves_observables_and_means(self):
        times = TIMES
        phases = np.exp(1j * np.sin(2 * times))[:, None, None] * np.eye(2)
        phases[0] = np.eye(2)
        v = PictureTransform(0.0, times, phases)
        l = constant_trivialization(np.diag([1.0, 2.0]).astype(complex))
        _, _, section, _ = evolved_setup(l)
        a = lift_operator_on_grid(l, times, SIGMA_Z)
        t = 0.5
        obs_v = to_general_picture_observable(a.matrix_at(t), v, t)
        assert max_abs(obs_v - a.matrix_at(t)) <= 1e-13
        state_v = to_general_picture_state(section.value_at(t), v, t)
        mean_v = general_picture_mean(obs_v, state_v, v, l, t)
        assert abs(mean_v - bundle_mean_value(a, section, l, t)) <= 1e-12

    def test_mean_preserved_for_arbitrary_invertible_frame(self):
        rng = np.random.default_rng(19)
        mats = np.tile(np.eye(2, dtype=complex), (TIMES.size, 1, 1))
        mats[1:] += 0.3 * (rng.normal(size=(TIMES.size - 1, 2, 2))
                           + 1j * rng.normal(size=(TIMES.size - 1, 2, 2)))
        v = PictureTransform(0.0, TIMES, mats)
        l = random_smooth_unitary_trivialization(2, 21)
        _, _, section, _ = evolved_setup(l)
        a = lift_operator_on_grid(l, TIMES, SIGMA_X)
        for t in (0.25, 0.75):
            plain = bundle_mean_value(a, section, l, t)
            obs_v = to_general_picture_observable(a.matrix_at(t), v, t)
            state_v = to_general_picture_state(section.value_at(t), v, t)
            assert abs(general_picture_mean(obs_v, state_v, v, l, t) - plain) <= 1e-10

    def test_reference_anchor_enforced(self):
        mats = np.tile(2.0 * np.eye(2, dtype=complex), (TIMES.size, 1, 1))
        with pytest.raises(ValueError, match="identity at the reference"):
            PictureTransform(0.0, TIMES, mats)


class TestDensityMorphisms:
    def test_identity_gauge_is_noop(self):
        rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        assert np.array_equal(density_morphism(rho, identity_trivialization(2), 0.2), rho)

    def test_pure_projector_under_unitary_gauge(self):
        l = random_smooth_unitary_trivialization(2, 23)
        psi = np.array([0.6, 0.8j], dtype=complex)
        rho = np.outer(psi, psi.conj())
        t = 0.4
        lifted_psi = np.linalg.solve(l.at(t), psi)
        p = density_morphism(rho, l, t)
        assert max_abs(p - np.outer(lifted_psi, (l.at(t).conj().T @ psi).conj())) <= 1e-12
        assert max_abs(p @ p - p) <= 1e-12  # idempotence survives similarity

    def test_evolution_matches_lifted_oracle(self):
        l = random_smooth_unitary_trivialization(2, 25)
        grid, states, _, transport = evolved_setup(l)
        psi0 = states[0]
        rho0 = np.outer(psi0, psi0.conj())
        p0 = density_morphism(rho0, l, 0.0)
        for idx in (0, 200, 400):
            t = float(TIMES[idx])
            carried = evolve_density_morphism(p0, transport, 0.0, t)
            rho_t = grid.operator(idx, 0) @ rho0 @ np.linalg.inv(grid.operator(idx, 0))
            assert max_abs(carried - density_morphism(rho_t, l, t)) <= 1e-8

    def test_zero_hamiltonian_constant_morphism(self):
        l = identity_trivialization(2)
        transport = build_transport(HamiltonianFamily.zero(2), l, TIMES)
        p0 = np.diag([0.25, 0.75]).astype(complex)
        assert max_abs(evolve_density_morphism(p0, transport, 0.0, 1.0) - p0) == 0

    def test_fibre_trace_is_frame_independent(self):
        l = constant_trivialization(np.diag([1.0, 3.0]).astype(complex))
        rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        p = density_morphism(rho, l, 0.0)
        lt = l.at(0.0)
        sandwiched = lt @ p @ np.linalg.inv(lt)
        assert abs(fibre_trace(p) - np.trace(sandwiched)) <= 1e-13
        assert abs(fibre_trace(p) - np.trace(rho)) <= 1e-13


class TestPureStateDensity:
    def test_identity_gauge_basis_vector(self):
        p = pure_state_density([1.0, 0.0], identity_trivialization(2), 0.0)
        assert np.allclose(p, np.diag([1.0, 0.0]))

    def test_projector_properties(self):
        l = constant_trivialization(np.diag([1.0, 2.0, 0.5]).astype(complex))
        rng = np.random.default_rng(27)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = pure_state_density(psi, l, 0.0)
        assert abs(fibre_trace(p) - 1.0) <= 1e-12
        assert max_abs(p @ p - p) <= 1e-12
        assert max_abs(p @ psi - psi) <= 1e-12  # projects onto its own ray

    def test_two_mean_value_routes_agree(self):
        l = random_smooth_unitary_trivialization(3, 29)
        rng = np.random.default_rng(31)
        psi_fibre = rng.normal(size=3) + 1j * rng.normal(size=3)
        observable = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = 0.6
        p = pure_state_density(psi_fibre, l, t)
        lt = l.at(t)
        sandwich = lt @ p @ np.linalg.inv(lt)
        density_route = np.trace(sandwich @ observable) / np.trace(sandwich)
        lifted_obs = lift_operator(l, t, observable)
        y = lt @ psi_fibre
        state_route = np.vdot(y, lt @ (lifted_obs @ psi_fibre)) / np.vdot(y, y).real
        assert abs(density_route - state_route) <= 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            pure_state_density([0.0, 0.0], identity_trivialization(2), 0.0)


class TestIntegralsOfMotion:
    def test_constant_hamiltonian_is_certified(self):
        l = random_smooth_unitary_trivialization(2, 33)
        _, _, _, transport = evolved_setup(l)
        fam = ObservableFamily.constant(H.at(0.0), name="hamiltonian")
        report = is_integral_of_motion(fam, H, transport, l, TIMES)
        assert report.certified
        assert report.commutator_residual <= 1e-12
        assert report.transport_residual is not None
        assert report.transport_residual <= 1e-10
        assert report.criteria_agree

    def test_sigma_x_under_sigma_z_rejected(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        l = identity_trivialization(2)
        _, _, _, transport = evolved_setup(l, h)
        report = is_integral_of_motion(ObservableFamily.constant(SIGMA_X), h,
                                       transport, l, TIMES)
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

        fam = ObservableFamily(evolved_observable, 2, time_dependent=True)
        report = is_integral_of_motion(fam, h, transport, l, times, tol=1e-5)
        assert report.certified
        assert report.transport_residual is None  # time-dependent: criterion (a) only

    def test_certified_integral_has_constant_mean(self):
        rng = np.random.default_rng(35)
        l = identity_trivialization(2)
        grid, _, _, transport = evolved_setup(l)
        fam = ObservableFamily.constant(H.at(0.0))
        report = is_integral_of_motion(fam, H, transport, l, TIMES, tol=1e-6)
        assert report.certified
        for _ in range(10):
            psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            states = propagate_states(grid.step_matrices, psi0)
            means = np.array([mean_value(H.at(0.0), s) for s in states[::40]])
            assert max_abs(means - means[0]) <= 10 * 1e-6

    def test_grid_must_match_transport(self):
        l = identity_trivialization(2)
        _, _, _, transport = evolved_setup(l)
        with pytest.raises(ValueError, match="grid"):
            is_integral_of_motion(ObservableFamily.constant(SIGMA_Z), H, transport, l,
                                  uniform_grid(0.0, 1.0, 10))

    def test_trivialization_must_match_transport(self):
        _, _, _, transport = evolved_setup(random_smooth_unitary_trivialization(2, 33))
        other = random_smooth_unitary_trivialization(2, 34)
        with pytest.raises(ValueError, match="trivialization"):
            is_integral_of_motion(ObservableFamily.constant(H.at(0.0)), H, transport, other,
                                  TIMES)
