import numpy as np
import pytest

from fibreqm.dynamics import (
    HamiltonianFamily,
    ObservableFamily,
    OffGridTimeError,
    PropagatorGrid,
    Trajectory,
    drift_budget,
    evolution_operator,
    evolve_density,
    evolve_state,
    grid_index,
    mean_value,
    mean_value_density,
    uniform_grid,
)
from fibreqm.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, PhysicalConstants, is_unitary, max_abs


def circular_drive(omega0: float, rabi: float) -> HamiltonianFamily:
    def matrix(ts: np.ndarray) -> np.ndarray:
        phase = (omega0 * ts)[:, None, None]
        return (omega0 / 2) * SIGMA_Z + (rabi / 2) * (
            np.cos(phase) * SIGMA_X + np.sin(phase) * SIGMA_Y)

    return HamiltonianFamily(matrix, 2, True, "circular-drive")


class TestEvolveState:
    def test_zero_hamiltonian_is_constant(self):
        traj = evolve_state(HamiltonianFamily.zero(2), [0.6, 0.8j], 0.0, 1.0, 1e-2)
        assert max_abs(traj.states - traj.states[0]) == 0

    def test_diagonal_closed_form(self):
        omega = 2.0
        h = HamiltonianFamily.constant((omega / 2) * SIGMA_Z)
        traj = evolve_state(h, [1, 0], 0.0, 2 * np.pi, 1e-3)
        expected = np.exp(-1j * omega * traj.times / 2)
        assert max_abs(traj.states[:, 0] - expected) <= 1e-6
        assert max_abs(traj.states[:, 1]) <= 1e-12

    def test_rabi_closed_form(self):
        omega = 1.0
        h = HamiltonianFamily.constant((omega / 2) * SIGMA_X)
        traj = evolve_state(h, [1, 0], 0.0, 2 * np.pi, 1e-3)
        expected = np.stack([np.cos(omega * traj.times / 2),
                             -1j * np.sin(omega * traj.times / 2)], axis=1)
        assert max_abs(traj.states - expected) <= 1e-6
        flips = np.abs(traj.states[:, 1]) ** 2
        assert max_abs(flips - np.sin(omega * traj.times / 2) ** 2) <= 1e-6

    def test_norm_conservation_hermitian(self):
        h = HamiltonianFamily.constant(0.7 * SIGMA_X + 1.1 * SIGMA_Z)
        traj = evolve_state(h, [0.3, 0.9], 0.0, 1.0, 1e-3)
        assert traj.norm_drift() <= 1e-8
        assert traj.norm_drift() <= drift_budget(1e-3, 1.0)

    def test_convergence_order_at_least_two(self):
        # time-dependent generator, so the midpoint rule shows its real order
        h = circular_drive(np.pi, np.pi)
        errors = []
        for step in (1e-3, 5e-4):
            traj = evolve_state(h, [1, 0], 0.0, 1.0, step)
            flip = np.abs(traj.states[:, 1]) ** 2 / traj.norm_sq()
            target = np.sin(np.pi * traj.times / 2) ** 2
            errors.append(max_abs(flip - target))
        assert errors[0] / errors[1] >= 3.5

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            evolve_state(HamiltonianFamily.zero(2), [0, 0], 0.0, 1.0, 1e-2)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            evolve_state(HamiltonianFamily.zero(2), [1, 0], 0.0, 1.0, -0.1)

    def test_non_hermitian_flagged_family_rejected_when_expected(self):
        bad = HamiltonianFamily.constant(SIGMA_Z + 0.5j * SIGMA_X, hermitian_expected=True)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_state(bad, [1, 0], 0.0, 1.0, 1e-2)

    def test_non_hermitian_allowed_when_flagged(self):
        family = HamiltonianFamily.constant(SIGMA_Z + 0.5j * SIGMA_X, hermitian_expected=False)
        traj = evolve_state(family, [1, 0], 0.0, 1.0, 1e-2)
        assert traj.states.shape == (101, 2)


class TestEvolutionOperator:
    def test_equal_times_identity(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        assert np.array_equal(evolution_operator(h, 0.3, 0.3, 1e-2), np.eye(2))

    def test_diagonal_closed_form(self):
        h = HamiltonianFamily.constant(np.diag([0.0, 1.0]).astype(complex))
        u = evolution_operator(h, 0.0, np.pi, 1e-3)
        assert max_abs(u - np.diag([1.0, -1.0])) <= 1e-10

    def test_unitary_for_hermitian(self):
        h = HamiltonianFamily.constant(0.9 * SIGMA_X + 0.4 * SIGMA_Y)
        assert is_unitary(evolution_operator(h, 0.0, 1.0, 1e-3), 1e-8)

    def test_reverse_is_inverse(self):
        h = HamiltonianFamily.constant(0.9 * SIGMA_X)
        fwd = evolution_operator(h, 0.0, 1.0, 1e-3)
        back = evolution_operator(h, 1.0, 0.0, 1e-3)
        assert max_abs(back @ fwd - np.eye(2)) <= 1e-10

    def test_grid_composition(self):
        h = circular_drive(np.pi, np.pi / 2)
        grid = PropagatorGrid(h, uniform_grid(0.0, 1.0, 100))
        for (i, j, k) in [(0, 40, 100), (10, 50, 90), (25, 25, 75)]:
            left = grid.operator(k, j) @ grid.operator(j, i)
            assert max_abs(left - grid.operator(k, i)) <= 1e-10

    def test_consistent_with_evolve_state(self):
        h = circular_drive(np.pi, np.pi)
        traj = evolve_state(h, [1, 0], 0.0, 1.0, 1e-2)
        grid = PropagatorGrid(h, traj.times)
        for idx in (0, 37, 100):
            propagated = grid.operator(idx, 0) @ traj.states[0]
            assert max_abs(propagated - traj.states[idx]) <= 1e-12


class TestEvolveDensity:
    def test_zero_hamiltonian_constant(self):
        rho0 = np.diag([0.25, 0.75]).astype(complex)
        dens = evolve_density(HamiltonianFamily.zero(2), rho0, 0.0, 1.0, 1e-2)
        assert max_abs(dens.matrices - rho0) == 0

    def test_pure_state_matches_state_oracle(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.3 * SIGMA_Z)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        traj = evolve_state(h, psi0, 0.0, 1.0, 1e-3)
        dens = evolve_density(h, np.outer(psi0, psi0.conj()), 0.0, 1.0, 1e-3)
        projectors = np.einsum("ki,kj->kij", traj.states, traj.states.conj())
        assert max_abs(dens.matrices - projectors) <= 1e-8

    def test_commuting_density_is_constant(self):
        h = HamiltonianFamily.constant(np.diag([1.0, -1.0]).astype(complex))
        rho0 = np.diag([0.7, 0.3]).astype(complex)
        dens = evolve_density(h, rho0, 0.0, 1.0, 1e-2)
        assert max_abs(dens.matrices - rho0) <= 1e-12

    def test_trace_preserved(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.3 * SIGMA_Z)
        rho0 = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        dens = evolve_density(h, rho0, 0.0, 1.0, 1e-3)
        traces = np.trace(dens.matrices, axis1=1, axis2=2)
        assert max_abs(traces - 1.0) <= 1e-8

    def test_satisfies_commutator_equation_residual(self):
        # conjugation evolution must solve i hbar drho/dt = [H, rho]; checked
        # here as a finite-difference residual, not used as an integrator
        matrix = 0.8 * SIGMA_X + 0.3 * SIGMA_Z
        h = HamiltonianFamily.constant(matrix)
        rho0 = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        dens = evolve_density(h, rho0, 0.0, 1.0, 1e-3)
        dt = dens.times[1] - dens.times[0]
        drho = (dens.matrices[2:] - dens.matrices[:-2]) / (2 * dt)
        comm = matrix @ dens.matrices[1:-1] - dens.matrices[1:-1] @ matrix
        assert max_abs(1j * drho - comm) <= 1e-5

    @pytest.mark.parametrize("rho0, message", [
        (np.array([[0.5, 0.5], [0.1, 0.5]]), "Hermitian"),
        (np.array([[1.5, 0.0], [0.0, -0.5]]), "semidefinite"),
        (np.array([[0.9, 0.0], [0.0, 0.9]]), "trace"),
    ])
    def test_invalid_density_rejected(self, rho0, message):
        with pytest.raises(ValueError, match=message):
            evolve_density(HamiltonianFamily.zero(2), rho0.astype(complex), 0.0, 1.0, 1e-2)


class TestMeanValues:
    def test_diagonal_basis_state(self):
        assert mean_value(np.diag([1.0, -1.0]), [1, 0]) == 1

    def test_scaling_invariance(self):
        assert mean_value(np.diag([1.0, -1.0]), [2, 0]) == 1
        a = 0.3 * SIGMA_X + 0.8 * SIGMA_Z
        psi = np.array([0.6, 0.8j])
        assert abs(mean_value(a, psi) - mean_value(a, 3j * psi)) <= 1e-14

    def test_sigma_x_plus_state(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert abs(mean_value(SIGMA_X, psi) - 1.0) <= 1e-14

    def test_hermitian_gives_real(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = m + m.conj().T
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert abs(mean_value(a, psi).imag) <= 1e-12

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="zero state"):
            mean_value(SIGMA_Z, [0, 0])

    def test_density_maximally_mixed(self):
        assert mean_value_density(np.eye(3), np.eye(3) / 3) == 1

    def test_density_basis_projector(self):
        assert mean_value_density(np.diag([1.0, -1.0]), np.diag([1.0, 0.0])) == 1

    def test_density_mixed_sigma_z(self):
        assert mean_value_density(SIGMA_Z, np.eye(2) / 2) == 0

    def test_density_agrees_with_state_on_projector(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        assert abs(mean_value_density(a, rho) - mean_value(a, psi)) <= 1e-10

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            mean_value_density(SIGMA_Z, np.diag([1.0, -1.0]))


class TestGridPlumbing:
    def test_uniform_grid_shape(self):
        times = uniform_grid(0.0, 1.0, 10)
        assert times.shape == (11,)
        assert times[0] == 0.0 and times[-1] == 1.0

    def test_grid_index_exact_and_offgrid(self):
        times = uniform_grid(0.0, 1.0, 10)
        assert grid_index(times, times[7]) == 7
        with pytest.raises(OffGridTimeError):
            grid_index(times, 0.05)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([0.0, 0.0, 1.0]), np.zeros((3, 2), dtype=complex))
        with pytest.raises(ValueError, match="one state"):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2), dtype=complex))

    def test_observable_family_fd_derivative(self):
        fam = ObservableFamily(lambda ts: (ts ** 2)[:, None, None] * np.diag([1, 0])
                               - ts[:, None, None] * np.diag([0, 1]), 2)
        times = uniform_grid(0.0, 1.0, 100)
        deriv = fam.derivative_on_grid(times)
        expected = np.array([[2 * times[50], 0], [0, -1]], dtype=complex)
        assert max_abs(deriv[50] - expected) <= 1e-6

    def test_hbar_scales_dynamics(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        slow = evolve_state(h, [0.6, 0.8], 0.0, 1.0, 1e-3,
                            PhysicalConstants(hbar=2.0))
        fast = evolve_state(HamiltonianFamily.constant(0.5 * SIGMA_Z), [0.6, 0.8],
                            0.0, 1.0, 1e-3)
        assert max_abs(slow.states - fast.states) <= 1e-12


class TestSamplerValidation:
    """Every batch a family's sampler returns is shape- and finiteness-checked once."""

    TIMES = uniform_grid(0.0, 1.0, 10)

    @staticmethod
    def bad_samplers():
        return {
            "wrong shape": lambda ts: np.zeros((ts.size, 3, 3), dtype=complex),
            "one matrix": lambda ts: np.zeros((2, 2), dtype=complex),
            "nan": lambda ts: np.full((ts.size, 2, 2), np.nan, dtype=complex),
            "inf": lambda ts: np.broadcast_to(np.where(ts > 0.5, np.inf, 0.0)[:, None, None],
                                              (ts.size, 2, 2)),
        }

    def test_hamiltonian_sampler_checked(self):
        for kind, sample in self.bad_samplers().items():
            fam = HamiltonianFamily(sample, 2, name=f"bad-{kind}")
            with pytest.raises(ValueError, match=f"Hamiltonian family 'bad-{kind}'"):
                fam.at_many(self.TIMES)
            if kind != "inf":
                with pytest.raises(ValueError, match=f"'bad-{kind}'"):
                    fam.at(0.0)
            with pytest.raises(ValueError, match=f"'bad-{kind}'"):
                evolve_state(fam, [1, 0], 0.0, 1.0, 0.1)

    def test_observable_sampler_checked(self):
        for kind, sample in self.bad_samplers().items():
            fam = ObservableFamily(sample, 2, name=f"bad-{kind}")
            with pytest.raises(ValueError, match=f"observable 'bad-{kind}'"):
                fam.at_many(self.TIMES)
            with pytest.raises(ValueError, match=f"observable 'bad-{kind}'"):
                fam.derivative_on_grid(self.TIMES)  # finite differences of the values

    def test_observable_derivative_checked(self):
        good = ObservableFamily.constant(SIGMA_Z).at_many
        for kind, derivative in self.bad_samplers().items():
            fam = ObservableFamily(good, 2, derivative=derivative, name=f"bad-{kind}")
            assert np.array_equal(fam.at_many(self.TIMES)[3], SIGMA_Z)
            with pytest.raises(ValueError, match=f"observable 'bad-{kind}' derivative"):
                fam.derivative_on_grid(self.TIMES)

    def test_constant_families_broadcast_one_matrix(self):
        h = HamiltonianFamily.constant(SIGMA_X).at_many(self.TIMES)
        a = ObservableFamily.constant(SIGMA_Z)
        assert h.shape == (self.TIMES.size, 2, 2) and np.array_equal(h[7], SIGMA_X)
        assert np.array_equal(a.derivative_on_grid(self.TIMES), np.zeros((self.TIMES.size, 2, 2)))
        assert not HamiltonianFamily.zero(2).at_many(self.TIMES).any()
