import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import fibreqm.hilbert as hilbert_module
from fibreqm.bundle import (
    TrivializationFamily,
    bundle_adjoint_maps,
    constant_trivialization,
    fibre_inner_products,
    global_phase_trivialization,
    identity_trivialization,
    lift_operator,
    lift_trajectory,
    random_smooth_unitary_trivialization,
)
from fibreqm.dynamics import (
    HamiltonianFamily,
    PropagatorGrid,
    midpoint_propagators,
    propagate_states,
    uniform_grid,
)
from fibreqm.hilbert import SIGMA_X, SIGMA_Z, PhysicalConstants, apply, max_abs
from fibreqm.checks import _sample_triples, build_artifacts
from fibreqm.dynamics import grid_indices
from fibreqm.scenario import load_catalog_scenario, scenario_from_dict
from fibreqm.transport import (
    EvolutionTransport,
    MatrixBundleHamiltonian,
    TransportAxiomReport,
    check_transport_axioms,
    integrate_bundle_schrodinger,
)

TIMES = uniform_grid(0.0, 1.0, 200)


def axioms_hold(report, tol):
    """Both transport axioms within `tol`; a NaN deviation never holds."""
    return report.max_identity_deviation <= tol and report.max_composition_deviation <= tol


class TestBundleHamiltonian:
    """The similarity conjugate l^-1 H l is the lift of H(t)."""

    def test_identity_family(self):
        h = HamiltonianFamily.constant(0.3 * SIGMA_X + 0.9 * SIGMA_Z)
        l = identity_trivialization(2)
        assert np.array_equal(lift_operator(l, 0.4, h.at(0.4)), h.at(0.4))

    def test_diagonal_gauge_fixes_diagonal(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        l = constant_trivialization(np.diag([1.0, 2.0]).astype(complex))
        assert max_abs(lift_operator(l, 0.0, h.at(0.0)) - SIGMA_Z) <= 1e-15

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(80)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = HamiltonianFamily.constant(m + m.conj().T)
        l = random_smooth_unitary_trivialization(4, 81)
        ev_h = np.sort(np.linalg.eigvalsh(h.at(0.0)))
        ev_b = np.sort(np.linalg.eigvals(lift_operator(l, 0.7, h.at(0.7))).real)
        assert max_abs(ev_h - ev_b) <= 1e-10


class TestMatrixBundleHamiltonian:
    def test_identity_family_reduces_to_hamiltonian(self):
        h = HamiltonianFamily.constant(0.3 * SIGMA_X)
        hm = MatrixBundleHamiltonian(h, identity_trivialization(2), TIMES)
        assert np.array_equal(hm.at_many([0.2])[0], h.at(0.2))

    def test_pure_phase_gauge_offset(self):
        # zero Hamiltonian, l = e^{i w t} I: the generator becomes w * I
        omega = 1.7
        hm = MatrixBundleHamiltonian(HamiltonianFamily.zero(2),
                                     global_phase_trivialization(2, omega), TIMES)
        values = hm.at_many([0.0, 0.3, 0.9])
        assert max_abs(values - omega * np.eye(2)) <= 1e-13

    def test_flagged_hamiltonian_checked_by_the_bundle_integrator(self):
        flagged = HamiltonianFamily.constant(SIGMA_Z + 0.5j * SIGMA_X, hermitian_expected=True)
        hm = MatrixBundleHamiltonian(flagged, identity_trivialization(2),
                                     uniform_grid(0.0, 1.0, 100))
        with pytest.raises(ValueError, match=r"^Hamiltonian family 'constant' flagged "
                                             r"Hermitian deviates by 1\.000e\+00$"):
            integrate_bundle_schrodinger(hm, [1, 0])

    def test_constant_family_drops_derivative_term(self):
        h = HamiltonianFamily.constant(SIGMA_Z + 0.4 * SIGMA_X)
        l = constant_trivialization(np.diag([1.0, 3.0]).astype(complex))
        full = MatrixBundleHamiltonian(h, l, TIMES).at_many([0.5])
        zero_derivative = TrivializationFamily(
            lambda ts: (l.at_many(ts), np.zeros((ts.size, 2, 2), dtype=complex)), 2)
        conjugate = MatrixBundleHamiltonian(h, zero_derivative, TIMES)
        assert max_abs(full - conjugate.at_many([0.5])) <= 1e-15

    def test_hbar_scales_gauge_term(self):
        omega = 2.0
        hm = MatrixBundleHamiltonian(HamiltonianFamily.zero(2),
                                     global_phase_trivialization(2, omega), TIMES,
                                     PhysicalConstants(hbar=2.0))
        assert max_abs(hm.at_many([0.1]) - 2.0 * omega * np.eye(2)) <= 1e-13

    def test_defining_contract_lifted_solution_solves_bundle_equation(self):
        # the lifted conventional solution must satisfy the bundle equation:
        # residual of i hbar dPsi/dt - Hm Psi checked by central differences
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.5 * SIGMA_Z)
        l = random_smooth_unitary_trivialization(2, 83)
        times = uniform_grid(0.0, 1.0, 2000)
        states = propagate_states(midpoint_propagators(h, times),
                                  np.array([1.0, 0.0], dtype=complex))
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
    """The coefficients Gamma = (i / hbar) Hm drive the bundle integrator, one step
    exp(-h Gamma(t + h/2)) per grid interval; these pin how hbar enters it."""

    def section(self, h, l, hbar, psi0):
        hm = MatrixBundleHamiltonian(h, l, TIMES, PhysicalConstants(hbar=hbar))
        return integrate_bundle_schrodinger(hm, psi0)

    def test_phase_gauge_value(self):
        # l = e^{i w t} I: hbar multiplies the gauge term and divides it out again
        omega = 1.3
        psi0 = np.array([0.6, 0.8j])
        section = self.section(HamiltonianFamily.zero(2),
                               global_phase_trivialization(2, omega), 2.0, psi0)
        expected = np.exp(-1j * omega * section.times)[:, None] * psi0
        assert max_abs(section.values - expected) <= 1e-13

    def test_hbar_scaling(self):
        # hbar = 2 with H takes exactly the steps of hbar = 1 with H / 2
        psi0 = np.array([0.6, 0.8j])
        l = identity_trivialization(2)
        doubled = self.section(HamiltonianFamily.constant(SIGMA_Z), l, 2.0, psi0)
        halved = self.section(HamiltonianFamily.constant(0.5 * SIGMA_Z), l, 1.0, psi0)
        assert max_abs(doubled.values - halved.values) <= 1e-15

    @pytest.mark.parametrize("hbar", [1.0, 2.0, 0.5])
    def test_generator_consistency_exact(self, hbar):
        # identity gauge: Hm = H, so the bundle integrator and the conventional
        # grid take bitwise-identical steps for every hbar
        h = HamiltonianFamily.constant(0.7 * SIGMA_X + 0.2 * SIGMA_Z)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        section = self.section(h, identity_trivialization(2), hbar, psi0)
        steps = midpoint_propagators(h, TIMES, PhysicalConstants(hbar=hbar))
        assert max_abs(section.values - propagate_states(steps, psi0)) == 0
        # and the grid that computes its own steps takes them with its constants
        grid = PropagatorGrid(h, TIMES, PhysicalConstants(hbar=hbar))
        products = [np.eye(2, dtype=complex)]
        for step in steps:
            products.append(step @ products[-1])
        assert np.array_equal(grid.from_t0, np.stack(products))


class TestBuildTransport:
    def test_zero_hamiltonian_identity_gauge(self):
        transport = EvolutionTransport(PropagatorGrid(HamiltonianFamily.zero(2), TIMES),
                                       identity_trivialization(2).at_many(TIMES))
        assert max_abs(transport.matrices_by_index(100, 50) - np.eye(2)) == 0

    def test_identity_gauge_equals_conventional_operator(self):
        h = HamiltonianFamily.constant(0.9 * SIGMA_X + 0.3 * SIGMA_Z)
        grid = PropagatorGrid(h, TIMES)
        transport = EvolutionTransport(grid, identity_trivialization(2).at_many(TIMES))
        for (j, i) in [(10, 0), (150, 40), (40, 150)]:
            assert np.array_equal(transport.matrix_by_index(j, i), grid.operators(j, i))

    def test_frames_of_another_grid_length_rejected(self):
        h = HamiltonianFamily.constant(0.9 * SIGMA_X + 0.3 * SIGMA_Z)
        grid = PropagatorGrid(h, TIMES)
        frames, _ = random_smooth_unitary_trivialization(2, 85).validate_on_grid(TIMES)
        with pytest.raises(ValueError, match="shape"):
            EvolutionTransport(grid, frames[1:])

    def test_inverse_frames_of_another_shape_rejected(self):
        grid = PropagatorGrid(HamiltonianFamily.constant(SIGMA_Z), TIMES)
        frames, inverse = random_smooth_unitary_trivialization(2, 85).validate_on_grid(TIMES)
        with pytest.raises(ValueError, match=r"\(201, 2, 2\).*\(200, 2, 2\)"):
            EvolutionTransport(grid, frames, inverse[1:])

    def test_gauge_of_another_dimension_rejected(self):
        # A 3-level gauge on a 2-level Hamiltonian fails when the transport is
        # built, naming both shapes, not later inside a query.
        grid = PropagatorGrid(HamiltonianFamily.constant(SIGMA_Z), TIMES)
        with pytest.raises(ValueError, match=r"\(201, 2, 2\).*\(201, 3, 3\)"):
            EvolutionTransport(grid, identity_trivialization(3).at_many(TIMES))

    def test_zero_hamiltonian_phase_gauge(self):
        omega = 2.0
        transport = EvolutionTransport(PropagatorGrid(HamiltonianFamily.zero(2), TIMES),
                                       global_phase_trivialization(2, omega).at_many(TIMES))
        s, t = 0.25, 0.75
        expected = np.exp(1j * omega * (s - t)) * np.eye(2)
        assert max_abs(transport.matrices_by_index(150, 50) - expected) <= 1e-13

    def test_identity_and_composition_axioms(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.4 * SIGMA_Z)
        l = random_smooth_unitary_trivialization(2, 87)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES), l.at_many(TIMES))
        triples = [(0.0, 0.25, 0.5), (0.1, 0.5, 0.9), (0.25, 0.25, 0.75), (0.0, 0.0, 0.0)]
        report = check_transport_axioms(transport, triples)
        assert axioms_hold(report, 1e-10)
        assert report.max_identity_deviation <= 1e-12

    def test_axioms_exactly_zero_for_free_identity_case(self):
        transport = EvolutionTransport(PropagatorGrid(HamiltonianFamily.zero(2), TIMES),
                                       identity_trivialization(2).at_many(TIMES))
        report = check_transport_axioms(transport, [(0.0, 0.5, 1.0)])
        assert report.max_identity_deviation == 0.0
        assert report.max_composition_deviation == 0.0

    def test_corrupted_transport_fails_axioms(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES),
                                       identity_trivialization(2).at_many(TIMES))

        class Corrupted:
            times = transport.times
            dimension = transport.dimension

            def matrices_by_index(self, j, i):
                value = transport.matrices_by_index(j, i).copy()
                value[:, 0, 0] += 1e-3 * (j - i)
                return value

        report = check_transport_axioms(Corrupted(), [(0.0, 0.5, 1.0)])
        assert not axioms_hold(report, 1e-10)

    def test_nan_compositions_fail_axioms(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES),
                                       identity_trivialization(2).at_many(TIMES))

        class NanAcrossTimes:
            times = transport.times
            dimension = transport.dimension

            def matrices_by_index(self, j, i):
                value = transport.matrices_by_index(j, i).copy()
                value[np.broadcast_to(np.asarray(j) != np.asarray(i), value.shape[:1])] = np.nan
                return value

        triples = [(0.0, 0.0, 0.0), (0.0, 0.5, 1.0), (0.25, 0.25, 0.75)]
        report = check_transport_axioms(NanAcrossTimes(), triples)
        assert report.max_identity_deviation <= 1e-15
        assert np.isnan(report.max_composition_deviation)
        assert report.worst_composition_triple == (0.0, 0.5, 1.0)  # the first NaN
        assert not axioms_hold(report, 1e-10)

    def test_nan_identity_fails_axioms(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES),
                                       identity_trivialization(2).at_many(TIMES))

        class NanEverywhere:
            times = transport.times
            dimension = transport.dimension

            def matrices_by_index(self, j, i):
                return np.full(np.broadcast(j, i).shape + (2, 2), np.nan, dtype=complex)

        report = check_transport_axioms(NanEverywhere(), [(0.0, 0.5, 1.0)])
        assert np.isnan(report.max_identity_deviation)
        assert report.worst_identity_time == 0.0
        assert not axioms_hold(report, 1e-10)

    def test_unordered_triple_rejected(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES),
                                       identity_trivialization(2).at_many(TIMES))
        with pytest.raises(ValueError, match="r <= s <= t"):
            check_transport_axioms(transport, [(0.5, 0.25, 1.0)])

    @staticmethod
    def axioms_by_three_whole_queries(transport, sample):
        """The report as formed by querying the identity, both composition factors and
        the direct transport each as its own stack, repeated pairs and all."""
        triples = np.asarray(sample, dtype=float)
        index = grid_indices(transport.times, triples)
        ir, isx, it = index.T
        flat = index.ravel()
        _, first_seen = np.unique(flat, return_index=True)
        first_seen.sort()
        seen = flat[first_seen]
        eye = np.eye(transport.dimension, dtype=complex)
        id_devs = np.max(np.abs(transport.matrices_by_index(seen, seen) - eye), axis=(1, 2))
        worst_id = int(np.argmax(id_devs))
        composed = transport.matrices_by_index(it, isx) @ transport.matrices_by_index(isx, ir)
        comp_devs = np.max(np.abs(composed - transport.matrices_by_index(it, ir)), axis=(1, 2))
        worst_comp = int(np.argmax(comp_devs))
        return TransportAxiomReport(
            float(id_devs[worst_id]), float(comp_devs[worst_comp]),
            float(triples.ravel()[first_seen[worst_id]]),
            tuple(float(x) for x in triples[worst_comp]))

    @staticmethod
    def wide_gauge():
        """random-unitary-gauge at n = 32 and N = 1000, the benchmark's wide-gauge size."""
        raw = json.loads((resources.files("fibreqm") / "catalog"
                          / "random-unitary-gauge.json").read_text())
        raw["dimension"], raw["grid"]["steps"] = 32, 1000
        return scenario_from_dict(raw)

    def test_the_axioms_hold_their_pairs_and_blocks_of_temporaries(self, monkeypatch):
        monkeypatch.setattr(hilbert_module, "_WORKERS", 1)  # one block in flight
        cfg = self.wide_gauge()
        transport = build_artifacts(cfg)["transport"]
        triples = _sample_triples(cfg.times, cfg.seed)
        tracemalloc.start()
        try:
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            check_transport_axioms(transport, triples)
            above = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        # the 273 distinct pairs' matrices, and blocks of temporaries beside them
        # (8.7 MB measured; 16.8 MB when each axiom was one whole query, pairs repeated)
        pairs = 273 * 32 * 32 * np.dtype(complex).itemsize
        assert above <= pairs + 5 * hilbert_module._BLOCK_BYTES

    @pytest.mark.parametrize("scenario", ["wide-gauge", "nonunitary-constant-gauge",
                                          "two-block"])
    def test_each_distinct_pair_is_queried_once_with_the_bits_of_three_queries(
            self, monkeypatch, two_block_gauge, scenario):
        if scenario == "two-block":
            cfg = two_block_gauge
        elif scenario == "wide-gauge":
            cfg = self.wide_gauge()
        else:
            cfg = load_catalog_scenario(scenario)
        transport = build_artifacts(cfg)["transport"]
        triples = _sample_triples(cfg.times, cfg.seed)
        expected = self.axioms_by_three_whole_queries(transport, triples)
        queried = []  # the pairs of each query, as (j, i)
        real = EvolutionTransport.matrices_by_index

        def counting(self, j, i):
            queried.append(list(zip(np.ravel(j).tolist(), np.ravel(i).tolist())))
            return real(self, j, i)

        monkeypatch.setattr(EvolutionTransport, "matrices_by_index", counting)
        assert check_transport_axioms(transport, triples) == expected
        index = grid_indices(cfg.times, np.asarray(triples))
        pairs = ({(k, k) for k in index.ravel().tolist()}
                 | {(t, s) for _, s, t in index.tolist()} | {(s, r) for r, s, _ in index.tolist()}
                 | {(t, r) for r, _, t in index.tolist()})
        assert len(queried) == 1
        assert sorted(queried[0]) == sorted(pairs)  # each once
        if scenario == "wide-gauge":  # 119 identity and 3 x 205 composition matrices before
            assert len(pairs) == 273

    def test_unitary_bundle_map_property(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.4 * SIGMA_Z)
        l = random_smooth_unitary_trivialization(2, 89)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES), l.at_many(TIMES))
        s, t = 50, 180  # grid indices of 0.25 and 0.9
        # forward carries fibre(t) -> fibre(s), backward fibre(s) -> fibre(t)
        forward, backward = transport.matrices_by_index([s, t], [t, s])
        adj = bundle_adjoint_maps(transport.frames[s], transport.inverse_frames[t], forward)
        assert max_abs(adj - backward) <= 1e-8

    def test_non_hermitian_generator_breaks_unitarity(self):
        h = HamiltonianFamily.constant(SIGMA_Z + 0.4j * SIGMA_X, hermitian_expected=False)
        l = identity_trivialization(2)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES), l.at_many(TIMES))
        s, t = 0, 200  # grid indices of 0.0 and 1.0
        forward, backward = transport.matrices_by_index([s, t], [t, s])
        adj = bundle_adjoint_maps(transport.frames[s], transport.inverse_frames[t], forward)
        assert max_abs(adj - backward) > 1e-3


class TestBundleIntegration:
    def test_zero_generator_constant_section(self):
        hm = MatrixBundleHamiltonian(HamiltonianFamily.zero(2),
                                     identity_trivialization(2), TIMES)
        section = integrate_bundle_schrodinger(hm, [0.3, 0.4j])
        assert max_abs(section.values - section.values[0]) == 0

    def test_phase_gauge_closed_form(self):
        omega = 2.0
        hm = MatrixBundleHamiltonian(HamiltonianFamily.zero(2),
                                     global_phase_trivialization(2, omega), TIMES)
        psi0 = np.array([0.6, 0.8], dtype=complex)
        section = integrate_bundle_schrodinger(hm, psi0)
        expected = np.exp(-1j * omega * section.times)[:, None] * psi0
        assert max_abs(section.values - expected) <= 1e-9

    def test_equivalence_with_lifted_oracle(self):
        h = HamiltonianFamily.constant((np.pi / 2) * SIGMA_X)
        l = random_smooth_unitary_trivialization(2, 91)
        times = uniform_grid(0.0, 1.0, 1000)
        states = propagate_states(midpoint_propagators(h, times),
                                  np.array([1.0, 0.0], dtype=complex))
        lifted = lift_trajectory(l, times, states)
        hm = MatrixBundleHamiltonian(h, l, times)
        section = integrate_bundle_schrodinger(hm, lifted.values[0])
        assert max_abs(section.values - lifted.values) <= 1e-6


class TestTransportSection:
    """Carrying a fibre vector: U(t_j, t_0) Psi for every j with `matrices_from`."""

    def test_equal_times_is_identity(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES),
                                       identity_trivialization(2).at_many(TIMES))
        psi = np.array([0.6, 0.8], dtype=complex)
        carried = apply(transport.matrices_from(0.5), psi)
        assert max_abs(carried[100] - psi) <= 1e-12

    def test_two_step_composition(self):
        h = HamiltonianFamily.constant(0.7 * SIGMA_X)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES),
                                       global_phase_trivialization(2, 1.0).at_many(TIMES))
        psi = np.array([1.0, 0.0], dtype=complex)
        one_hop = apply(transport.matrices_from(0.0), psi)[200]
        half_way = apply(transport.matrices_from(0.0), psi)[100]
        two_hop = apply(transport.matrices_from(0.5), half_way)[200]
        assert max_abs(one_hop - two_hop) <= 1e-13

    def test_fibre_norm_preserved_for_hermitian_generator(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.4 * SIGMA_Z)
        l = random_smooth_unitary_trivialization(2, 93)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES), l.at_many(TIMES))
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        start = fibre_inner_products(transport.frames[0], psi0, psi0)
        carried = apply(transport.matrices_from(0.0), psi0)
        norms = fibre_inner_products(transport.frames, carried, carried)
        for k in (50, 100, 200):  # t = 0.25, 0.5, 1.0
            assert abs(norms[k] - start) <= 1e-8

    def test_off_grid_time_rejected(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        transport = EvolutionTransport(PropagatorGrid(h, TIMES),
                                       identity_trivialization(2).at_many(TIMES))
        with pytest.raises(ValueError, match="grid"):
            transport.matrices_from(0.00123)
