import numpy as np
import pytest

from fibreqm.bundle import (
    bundle_adjoint_map,
    constant_trivialization,
    global_phase_trivialization,
    identity_trivialization,
    lift_trajectory,
    random_smooth_unitary_trivialization,
)
from fibreqm.dynamics import HamiltonianFamily, PropagatorGrid, propagate_states, uniform_grid
from fibreqm.hilbert import SIGMA_X, SIGMA_Z, PhysicalConstants, max_abs
from fibreqm.transport import (
    EvolutionTransport,
    MatrixBundleHamiltonian,
    build_transport,
    bundle_hamiltonian,
    check_transport_axioms,
    integrate_bundle_schrodinger,
    matrix_bundle_hamiltonian,
    transport_coefficients,
    transport_section,
)

TIMES = uniform_grid(0.0, 1.0, 200)


class TestBundleHamiltonian:
    def test_identity_family(self):
        h = HamiltonianFamily.constant(0.3 * SIGMA_X + 0.9 * SIGMA_Z)
        l = identity_trivialization(2)
        assert np.array_equal(bundle_hamiltonian(h, l, 0.4), h.at(0.4))

    def test_diagonal_gauge_fixes_diagonal(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        l = constant_trivialization(np.diag([1.0, 2.0]).astype(complex))
        assert max_abs(bundle_hamiltonian(h, l, 0.0) - SIGMA_Z) <= 1e-15

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(80)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = HamiltonianFamily.constant(m + m.conj().T)
        l = random_smooth_unitary_trivialization(4, 81)
        ev_h = np.sort(np.linalg.eigvalsh(h.at(0.0)))
        ev_b = np.sort(np.linalg.eigvals(bundle_hamiltonian(h, l, 0.7)).real)
        assert max_abs(ev_h - ev_b) <= 1e-10


class TestMatrixBundleHamiltonian:
    def test_identity_family_reduces_to_hamiltonian(self):
        h = HamiltonianFamily.constant(0.3 * SIGMA_X)
        l = identity_trivialization(2)
        assert np.array_equal(matrix_bundle_hamiltonian(h, l, 0.2), h.at(0.2))

    def test_pure_phase_gauge_offset(self):
        # zero Hamiltonian, l = e^{i w t} I: the generator becomes w * I
        omega = 1.7
        h = HamiltonianFamily.zero(2)
        l = global_phase_trivialization(2, omega)
        for t in (0.0, 0.3, 0.9):
            value = matrix_bundle_hamiltonian(h, l, t)
            assert max_abs(value - omega * np.eye(2)) <= 1e-13

    def test_constant_family_drops_derivative_term(self):
        h = HamiltonianFamily.constant(SIGMA_Z + 0.4 * SIGMA_X)
        l = constant_trivialization(np.diag([1.0, 3.0]).astype(complex))
        full = matrix_bundle_hamiltonian(h, l, 0.5)
        assert max_abs(full - bundle_hamiltonian(h, l, 0.5)) <= 1e-15

    def test_hbar_scales_gauge_term(self):
        omega = 2.0
        h = HamiltonianFamily.zero(2)
        l = global_phase_trivialization(2, omega)
        value = matrix_bundle_hamiltonian(h, l, 0.1, PhysicalConstants(hbar=2.0))
        assert max_abs(value - 2.0 * omega * np.eye(2)) <= 1e-13

    def test_defining_contract_lifted_solution_solves_bundle_equation(self):
        # the lifted conventional solution must satisfy the bundle equation:
        # residual of i hbar dPsi/dt - Hm Psi checked by central differences
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.5 * SIGMA_Z)
        l = random_smooth_unitary_trivialization(2, 83)
        times = uniform_grid(0.0, 1.0, 2000)
        grid = PropagatorGrid(h, times)
        states = propagate_states(grid.step_matrices, np.array([1.0, 0.0], dtype=complex))
        section = lift_trajectory(l, times, states)
        hm = MatrixBundleHamiltonian(h, l, times)
        dt = times[1] - times[0]
        mid = section.values[2:] - section.values[:-2]
        derivative = mid / (2 * dt)
        generator = hm.at_many(times[1:-1])
        rhs = np.einsum("kij,kj->ki", generator, section.values[1:-1])
        residual = max_abs(1j * derivative - rhs)
        assert residual <= 5e-6  # second-order finite differences on a smooth solution


class TestTransportCoefficients:
    def test_zero_generator(self):
        h = HamiltonianFamily.zero(2)
        hm = MatrixBundleHamiltonian(h, identity_trivialization(2), TIMES)
        assert max_abs(transport_coefficients(hm, 0.5)) == 0

    def test_phase_gauge_value(self):
        omega = 1.3
        hm = MatrixBundleHamiltonian(HamiltonianFamily.zero(2),
                                     global_phase_trivialization(2, omega), TIMES)
        gamma = transport_coefficients(hm, 0.2)
        assert max_abs(gamma - 1j * omega * np.eye(2)) <= 1e-13

    def test_hbar_scaling(self):
        hm = MatrixBundleHamiltonian(HamiltonianFamily.constant(SIGMA_Z),
                                     identity_trivialization(2), TIMES)
        assert max_abs(transport_coefficients(hm, 0.1, hbar=2.0)
                       - 0.5 * transport_coefficients(hm, 0.1, hbar=1.0)) <= 1e-15

    @pytest.mark.parametrize("hbar", [1.0, 2.0, 0.5])
    def test_generator_consistency_exact(self, hbar):
        # i*hbar*Gamma + Hm = 0 without any rounding for binary hbar
        h = HamiltonianFamily.constant(0.7 * SIGMA_X + 0.2 * SIGMA_Z)
        hm = MatrixBundleHamiltonian(h, identity_trivialization(2), TIMES,
                                     PhysicalConstants(hbar=hbar))
        gamma = transport_coefficients(hm, 0.3)
        total = (1j * hbar) * gamma + hm.at(0.3)
        assert max_abs(total) == 0


class TestBuildTransport:
    def test_zero_hamiltonian_identity_gauge(self):
        transport = build_transport(HamiltonianFamily.zero(2),
                                    identity_trivialization(2), TIMES)
        assert max_abs(transport.matrix(0.5, 0.25) - np.eye(2)) == 0

    def test_identity_gauge_equals_conventional_operator(self):
        h = HamiltonianFamily.constant(0.9 * SIGMA_X + 0.3 * SIGMA_Z)
        grid = PropagatorGrid(h, TIMES)
        transport = EvolutionTransport(grid, identity_trivialization(2))
        for (j, i) in [(10, 0), (150, 40), (40, 150)]:
            assert np.array_equal(transport.matrix_by_index(j, i), grid.operator(j, i))

    def test_given_frames_match_sampled_frames(self):
        h = HamiltonianFamily.constant(0.9 * SIGMA_X + 0.3 * SIGMA_Z)
        grid = PropagatorGrid(h, TIMES)
        l = random_smooth_unitary_trivialization(2, 85)
        sampled = EvolutionTransport(grid, l)
        given = EvolutionTransport(grid, l, l.validate_on_grid(TIMES))
        assert np.array_equal(given.frames, sampled.frames)
        assert np.array_equal(given.matrix_by_index(150, 40), sampled.matrix_by_index(150, 40))
        with pytest.raises(ValueError, match="shape"):
            EvolutionTransport(grid, l, sampled.frames[1:])

    def test_zero_hamiltonian_phase_gauge(self):
        omega = 2.0
        transport = build_transport(HamiltonianFamily.zero(2),
                                    global_phase_trivialization(2, omega), TIMES)
        s, t = 0.25, 0.75
        expected = np.exp(1j * omega * (s - t)) * np.eye(2)
        assert max_abs(transport.matrix(t, s) - expected) <= 1e-13

    def test_identity_and_composition_axioms(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.4 * SIGMA_Z)
        transport = build_transport(h, random_smooth_unitary_trivialization(2, 87), TIMES)
        triples = [(0.0, 0.25, 0.5), (0.1, 0.5, 0.9), (0.25, 0.25, 0.75), (0.0, 0.0, 0.0)]
        report = check_transport_axioms(transport, triples, 1e-10)
        assert report.passed
        assert report.max_identity_deviation <= 1e-12

    def test_axioms_exactly_zero_for_free_identity_case(self):
        transport = build_transport(HamiltonianFamily.zero(2),
                                    identity_trivialization(2), TIMES)
        report = check_transport_axioms(transport, [(0.0, 0.5, 1.0)], 1e-10)
        assert report.max_identity_deviation == 0.0
        assert report.max_composition_deviation == 0.0

    def test_corrupted_transport_fails_axioms(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X)
        transport = build_transport(h, identity_trivialization(2), TIMES)

        class Corrupted:
            times = transport.times
            dimension = transport.dimension

            def matrices_by_index(self, j, i):
                value = transport.matrices_by_index(j, i).copy()
                value[:, 0, 0] += 1e-3 * (j - i)
                return value

        report = check_transport_axioms(Corrupted(), [(0.0, 0.5, 1.0)], 1e-10)
        assert not report.passed

    def test_nan_compositions_fail_axioms(self):
        transport = build_transport(HamiltonianFamily.constant(0.8 * SIGMA_X),
                                    identity_trivialization(2), TIMES)

        class NanAcrossTimes:
            times = transport.times
            dimension = transport.dimension

            def matrices_by_index(self, j, i):
                value = transport.matrices_by_index(j, i).copy()
                value[np.broadcast_to(np.asarray(j) != np.asarray(i), value.shape[:1])] = np.nan
                return value

        triples = [(0.0, 0.0, 0.0), (0.0, 0.5, 1.0), (0.25, 0.25, 0.75)]
        report = check_transport_axioms(NanAcrossTimes(), triples, 1e-10)
        assert report.max_identity_deviation <= 1e-15
        assert np.isnan(report.max_composition_deviation)
        assert report.worst_composition_triple == (0.0, 0.5, 1.0)  # the first NaN
        assert not report.passed

    def test_nan_identity_fails_axioms(self):
        transport = build_transport(HamiltonianFamily.constant(0.8 * SIGMA_X),
                                    identity_trivialization(2), TIMES)

        class NanEverywhere:
            times = transport.times
            dimension = transport.dimension

            def matrices_by_index(self, j, i):
                return np.full(np.broadcast(j, i).shape + (2, 2), np.nan, dtype=complex)

        report = check_transport_axioms(NanEverywhere(), [(0.0, 0.5, 1.0)], 1e-10)
        assert np.isnan(report.max_identity_deviation)
        assert report.worst_identity_time == 0.0
        assert not report.passed

    def test_unordered_triple_rejected(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        transport = build_transport(h, identity_trivialization(2), TIMES)
        with pytest.raises(ValueError, match="r <= s <= t"):
            check_transport_axioms(transport, [(0.5, 0.25, 1.0)], 1e-10)

    def test_unitary_bundle_map_property(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.4 * SIGMA_Z)
        l = random_smooth_unitary_trivialization(2, 89)
        transport = build_transport(h, l, TIMES)
        s, t = 0.25, 0.9
        forward = transport.matrix(s, t)      # fibre(t) -> fibre(s)
        adj = bundle_adjoint_map(l, s, t, forward)
        assert max_abs(adj - transport.matrix(t, s)) <= 1e-8

    def test_non_hermitian_generator_breaks_unitarity(self):
        h = HamiltonianFamily.constant(SIGMA_Z + 0.4j * SIGMA_X, hermitian_expected=False)
        l = identity_trivialization(2)
        transport = build_transport(h, l, TIMES)
        s, t = 0.0, 1.0
        adj = bundle_adjoint_map(l, s, t, transport.matrix(s, t))
        assert max_abs(adj - transport.matrix(t, s)) > 1e-3


class TestBundleIntegration:
    def test_zero_generator_constant_section(self):
        hm = MatrixBundleHamiltonian(HamiltonianFamily.zero(2),
                                     identity_trivialization(2), TIMES)
        section = integrate_bundle_schrodinger(hm, [0.3, 0.4j], 0.0, 1.0,
                                               float(TIMES[1] - TIMES[0]))
        assert max_abs(section.values - section.values[0]) == 0

    def test_phase_gauge_closed_form(self):
        omega = 2.0
        hm = MatrixBundleHamiltonian(HamiltonianFamily.zero(2),
                                     global_phase_trivialization(2, omega), TIMES)
        psi0 = np.array([0.6, 0.8], dtype=complex)
        section = integrate_bundle_schrodinger(hm, psi0, 0.0, 1.0,
                                               float(TIMES[1] - TIMES[0]))
        expected = np.exp(-1j * omega * section.times)[:, None] * psi0
        assert max_abs(section.values - expected) <= 1e-9

    def test_equivalence_with_lifted_oracle(self):
        h = HamiltonianFamily.constant((np.pi / 2) * SIGMA_X)
        l = random_smooth_unitary_trivialization(2, 91)
        times = uniform_grid(0.0, 1.0, 1000)
        grid = PropagatorGrid(h, times)
        states = propagate_states(grid.step_matrices, np.array([1.0, 0.0], dtype=complex))
        lifted = lift_trajectory(l, times, states)
        hm = MatrixBundleHamiltonian(h, l, times)
        section = integrate_bundle_schrodinger(hm, lifted.values[0], 0.0, 1.0, 1e-3)
        assert max_abs(section.values - lifted.values) <= 1e-6

    def test_grid_mismatch_rejected(self):
        hm = MatrixBundleHamiltonian(HamiltonianFamily.zero(2),
                                     identity_trivialization(2), TIMES)
        with pytest.raises(ValueError, match="grid"):
            integrate_bundle_schrodinger(hm, [1.0, 0.0], 0.0, 1.0, 2e-3)


class TestTransportSection:
    def test_equal_times_is_identity(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        transport = build_transport(h, identity_trivialization(2), TIMES)
        psi = np.array([0.6, 0.8], dtype=complex)
        assert max_abs(transport_section(transport, psi, 0.5, 0.5) - psi) <= 1e-12

    def test_two_step_composition(self):
        h = HamiltonianFamily.constant(0.7 * SIGMA_X)
        transport = build_transport(h, global_phase_trivialization(2, 1.0), TIMES)
        psi = np.array([1.0, 0.0], dtype=complex)
        one_hop = transport_section(transport, psi, 0.0, 1.0)
        two_hop = transport_section(
            transport, transport_section(transport, psi, 0.0, 0.5), 0.5, 1.0)
        assert max_abs(one_hop - two_hop) <= 1e-13

    def test_fibre_norm_preserved_for_hermitian_generator(self):
        from fibreqm.bundle import fibre_inner_product
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.4 * SIGMA_Z)
        l = random_smooth_unitary_trivialization(2, 93)
        transport = build_transport(h, l, TIMES)
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        start = fibre_inner_product(l, 0.0, psi0, psi0)
        for t in (0.25, 0.5, 1.0):
            carried = transport_section(transport, psi0, 0.0, t)
            value = fibre_inner_product(l, t, carried, carried)
            assert abs(value - start) <= 1e-8

    def test_off_grid_time_rejected(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        transport = build_transport(h, identity_trivialization(2), TIMES)
        with pytest.raises(ValueError, match="grid"):
            transport_section(transport, np.array([1.0, 0.0]), 0.0, 0.00123)
