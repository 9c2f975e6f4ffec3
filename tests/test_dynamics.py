import tracemalloc

import numpy as np
import pytest

import fibreqm.dynamics as dynamics_module
import fibreqm.hilbert as hilbert_module
from fibreqm.checks import run_scenario
from fibreqm.dynamics import (
    HamiltonianFamily,
    ObservableFamily,
    OffGridTimeError,
    PropagatorGrid,
    Trajectory,
    evolve_state,
    grid_index,
    midpoint_propagators,
    propagate_states,
    step_products,
    uniform_grid,
    validate_density,
)
from fibreqm.hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PhysicalConstants,
    _in_block_order,
    apply,
    expectations,
    inner_products,
    max_abs,
    time_blocks,
)
from fibreqm.pictures import to_general_picture_observables
from fibreqm.scenario import scenario_from_dict


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
        norms = inner_products(traj.states, traj.states).real
        drift = max_abs(norms - norms[0])
        assert drift <= 1e-8
        assert drift <= 1e-12 * 1000  # one part in 1e12 per step, 1000 steps

    def test_convergence_order_at_least_two(self):
        # time-dependent generator, so the midpoint rule shows its real order
        h = circular_drive(np.pi, np.pi)
        errors = []
        for step in (1e-3, 5e-4):
            traj = evolve_state(h, [1, 0], 0.0, 1.0, step)
            flip = np.abs(traj.states[:, 1]) ** 2 / inner_products(traj.states, traj.states).real
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
    """Two-time operators U(t_j, t_i) = PropagatorGrid.operators(j, i)."""

    def test_equal_times_identity(self):
        grid = PropagatorGrid(HamiltonianFamily.constant(SIGMA_Z), uniform_grid(0.3, 1.3, 100))
        assert np.array_equal(grid.operators(0, 0), np.eye(2))

    def test_diagonal_closed_form(self):
        h = HamiltonianFamily.constant(np.diag([0.0, 1.0]).astype(complex))
        grid = PropagatorGrid(h, uniform_grid(0.0, np.pi, 3142))
        u = grid.operators(3142, 0)
        assert max_abs(u - np.diag([1.0, -1.0])) <= 1e-10

    def test_unitary_for_hermitian(self):
        h = HamiltonianFamily.constant(0.9 * SIGMA_X + 0.4 * SIGMA_Y)
        u = PropagatorGrid(h, uniform_grid(0.0, 1.0, 1000)).operators(1000, 0)
        assert max_abs(u.conj().T @ u - np.eye(2)) <= 1e-8

    def test_reverse_is_inverse(self):
        h = HamiltonianFamily.constant(0.9 * SIGMA_X)
        grid = PropagatorGrid(h, uniform_grid(0.0, 1.0, 1000))
        fwd, back = grid.operators([1000, 0], [0, 1000])
        assert max_abs(back @ fwd - np.eye(2)) <= 1e-10

    def test_grid_composition(self):
        h = circular_drive(np.pi, np.pi / 2)
        grid = PropagatorGrid(h, uniform_grid(0.0, 1.0, 100))
        for (i, j, k) in [(0, 40, 100), (10, 50, 90), (25, 25, 75)]:
            kj, ji, ki = grid.operators([k, j, k], [j, i, i])
            assert max_abs(kj @ ji - ki) <= 1e-10

    def test_the_products_keep_the_bits_of_the_steps(self):
        h = circular_drive(np.pi, np.pi / 2)
        times = uniform_grid(0.0, 1.0, 100)
        steps = midpoint_propagators(h, times)
        grid = PropagatorGrid(h, times)
        products = step_products(steps)  # E[j-1] ... E[0], each step applied last
        assert np.array_equal(grid.from_t0[:], products)
        assert np.array_equal(grid.into_t0[:], np.linalg.inv(products))
        assert np.array_equal(products[0], np.eye(2))
        assert np.array_equal(products[1:], steps @ products[:-1])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_read_of_into_t0_has_the_bits_of_the_whole_stack_inverse(self, monkeypatch,
                                                                       five_block_gauge,
                                                                       workers):
        # n = 32 over ten time blocks; the blocks' reads run on the workers, as the
        # sweep's do
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        cfg = five_block_gauge
        grid = PropagatorGrid(cfg.hamiltonian, cfg.times, cfg.constants)
        into_t0, whole = grid.into_t0, np.linalg.inv(grid.from_t0)
        assert into_t0.shape == whole.shape == (301, 32, 32)
        for index in (slice(3, 70), np.array([5, 5, 0, 300, 5]), 7, np.int64(123)):
            assert np.array_equal(into_t0[index], whole[index]), index
        parts = time_blocks(cfg.times.size, cfg.dimension)
        assert len(parts) == 10
        by_blocks = np.concatenate(_in_block_order(lambda part: into_t0[part], parts))
        assert np.array_equal(by_blocks, whole)
        assert np.array_equal(into_t0[:], whole)  # the whole stack, for a library caller

    def test_consistent_with_evolve_state(self):
        h = circular_drive(np.pi, np.pi)
        traj = evolve_state(h, [1, 0], 0.0, 1.0, 1e-2)
        grid = PropagatorGrid(h, traj.times)
        idx = np.array([0, 37, 100])
        propagated = apply(grid.operators(idx, 0), traj.states[0])
        assert max_abs(propagated - traj.states[idx]) <= 1e-12


class TestEvolveDensity:
    """rho(t_k) = U(t_k, t_0) rho0 U(t_0, t_k) through `to_general_picture_observables`."""

    def test_zero_hamiltonian_constant(self):
        rho0 = np.diag([0.25, 0.75]).astype(complex)
        grid = PropagatorGrid(HamiltonianFamily.zero(2), uniform_grid(0.0, 1.0, 100))
        k = np.arange(grid.times.size)
        mats = to_general_picture_observables(grid.operators(k, 0), grid.operators(0, k), rho0)
        assert max_abs(mats - rho0) == 0

    def test_pure_state_matches_state_oracle(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.3 * SIGMA_Z)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        traj = evolve_state(h, psi0, 0.0, 1.0, 1e-3)
        grid = PropagatorGrid(h, traj.times)
        k = np.arange(grid.times.size)
        rho0 = np.outer(psi0, psi0.conj())
        mats = to_general_picture_observables(grid.operators(k, 0), grid.operators(0, k), rho0)
        projectors = np.einsum("ki,kj->kij", traj.states, traj.states.conj())
        assert max_abs(mats - projectors) <= 1e-8

    def test_commuting_density_is_constant(self):
        h = HamiltonianFamily.constant(np.diag([1.0, -1.0]).astype(complex))
        rho0 = np.diag([0.7, 0.3]).astype(complex)
        grid = PropagatorGrid(h, uniform_grid(0.0, 1.0, 100))
        k = np.arange(grid.times.size)
        mats = to_general_picture_observables(grid.operators(k, 0), grid.operators(0, k), rho0)
        assert max_abs(mats - rho0) <= 1e-12

    def test_trace_preserved(self):
        h = HamiltonianFamily.constant(0.8 * SIGMA_X + 0.3 * SIGMA_Z)
        rho0 = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        grid = PropagatorGrid(h, uniform_grid(0.0, 1.0, 1000))
        k = np.arange(grid.times.size)
        mats = to_general_picture_observables(grid.operators(k, 0), grid.operators(0, k), rho0)
        traces = np.trace(mats, axis1=1, axis2=2)
        assert max_abs(traces - 1.0) <= 1e-8

    def test_satisfies_commutator_equation_residual(self):
        # conjugation evolution must solve i hbar drho/dt = [H, rho]; checked
        # here as a finite-difference residual, not used as an integrator
        matrix = 0.8 * SIGMA_X + 0.3 * SIGMA_Z
        h = HamiltonianFamily.constant(matrix)
        rho0 = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        grid = PropagatorGrid(h, uniform_grid(0.0, 1.0, 1000))
        k = np.arange(grid.times.size)
        mats = to_general_picture_observables(grid.operators(k, 0), grid.operators(0, k), rho0)
        dt = grid.times[1] - grid.times[0]
        drho = (mats[2:] - mats[:-2]) / (2 * dt)
        comm = matrix @ mats[1:-1] - mats[1:-1] @ matrix
        assert max_abs(1j * drho - comm) <= 1e-5

    @pytest.mark.parametrize("rho0, message", [
        (np.array([[0.5, 0.5], [0.1, 0.5]]), "Hermitian"),
        (np.array([[1.5, 0.0], [0.0, -0.5]]), "semidefinite"),
        (np.array([[0.9, 0.0], [0.0, 0.9]]), "trace"),
    ])
    def test_invalid_density_rejected(self, rho0, message):
        with pytest.raises(ValueError, match=message):
            validate_density(rho0.astype(complex))


class TestMeanValues:
    """Conventional means <psi|A psi> / <psi|psi> through `expectations`."""

    def test_diagonal_basis_state(self):
        psi = np.array([1, 0j])
        assert expectations(psi, apply(np.diag([1.0, -1.0]), psi)) == 1

    def test_scaling_invariance(self):
        psi = np.array([2, 0j])
        assert expectations(psi, apply(np.diag([1.0, -1.0]), psi)) == 1
        a = 0.3 * SIGMA_X + 0.8 * SIGMA_Z
        psi = np.array([0.6, 0.8j])
        assert abs(expectations(psi, apply(a, psi))
                   - expectations(3j * psi, apply(a, 3j * psi))) <= 1e-14

    def test_sigma_x_plus_state(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert abs(expectations(psi, apply(SIGMA_X, psi)) - 1.0) <= 1e-14

    def test_hermitian_gives_real(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = m + m.conj().T
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert abs(expectations(psi, apply(a, psi)).imag) <= 1e-12

    def test_zero_state_rejected(self):
        psi = np.zeros(2, dtype=complex)
        with pytest.raises(ValueError, match="zero state"):
            expectations(psi, apply(SIGMA_Z, psi))


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

    def test_hbar_scales_dynamics(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        slow = evolve_state(h, [0.6, 0.8], 0.0, 1.0, 1e-3,
                            PhysicalConstants(hbar=2.0))
        fast = evolve_state(HamiltonianFamily.constant(0.5 * SIGMA_Z), [0.6, 0.8],
                            0.0, 1.0, 1e-3)
        assert max_abs(slow.states - fast.states) <= 1e-12


class TestMidpointSteps:
    """A generator whose samples are one matrix is exponentiated once per step length;
    any other is exponentiated one time block of midpoints at a time, by its own plan."""

    @staticmethod
    def hermitian(seed, n=32):
        m = np.random.default_rng(seed).normal(size=(n, n, 2)) @ [1.0, 1j]
        return (m + m.conj().T) / 8.0

    def sizes_and_steps(self, monkeypatch, family, times):
        """The batch size of each exponential, and the steps."""
        sizes, real = [], dynamics_module.matrix_exponential

        def recording(a, **kwargs):
            sizes.append(a.shape[0])
            return real(a, **kwargs)

        monkeypatch.setattr(dynamics_module, "matrix_exponential", recording)
        return sizes, midpoint_propagators(family, times)

    def test_a_broadcast_keeps_the_bits_of_the_batch(self, monkeypatch):
        m = self.hermitian(7)
        times = uniform_grid(0.0, 1.0, 1000)  # 32 blocks of midpoints at n = 32
        lengths = np.unique(np.diff(times)).size
        assert 1 < lengths < 20
        copies = HamiltonianFamily(lambda ts: np.repeat(m[None], ts.size, axis=0), 32)
        sizes, steps = self.sizes_and_steps(monkeypatch, copies, times)
        assert sorted(sizes) == sorted(part.stop - part.start for part in time_blocks(1000, 32))
        sizes, once = self.sizes_and_steps(monkeypatch, HamiltonianFamily.constant(m), times)
        assert sizes == [lengths]
        assert np.array_equal(once, steps)

    @pytest.mark.parametrize("grid", ["two long steps", "geometric"])
    def test_a_broadcast_whose_slices_plan_apart_keeps_the_bits_of_each_slice(
            self, monkeypatch, grid):
        # A constant H on a grid whose slices of midpoints plan apart: dyadic
        # steps of 2^-10 with one of 2^-5 in the third and seventh slices, so
        # the short length has two plans (three exponentials: the short one by each
        # plan and the long one), or geometric steps, each its own length, seven
        # plans in all.  The gathered steps equal, bitwise, the steps of copies of H,
        # which are exponentiated one slice at a time.
        m = self.hermitian(7)
        parts = time_blocks(999 if grid == "two long steps" else 1000, 32)
        if grid == "two long steps":
            h = np.full(999, 2.0 ** -10)
            h[[parts[2].start + 5, parts[6].start + 5]] = 2.0 ** -5
            times = np.concatenate([[0.0], np.cumsum(h)])
        else:
            times = np.geomspace(1e-3, 1.0, 1001)
        copies = HamiltonianFamily(lambda ts: np.repeat(m[None], ts.size, axis=0), 32)
        sizes, steps = self.sizes_and_steps(monkeypatch, copies, times)
        assert sorted(sizes) == sorted(part.stop - part.start for part in parts)
        sizes, once = self.sizes_and_steps(monkeypatch, HamiltonianFamily.constant(m), times)
        if grid == "two long steps":
            assert sorted(sizes) == [1, 2]
        else:
            assert len(sizes) == 7 and sum(sizes) == 1000
        assert np.array_equal(once, steps)

    @pytest.mark.parametrize("case", ["another matrix at a block boundary",
                                      "another matrix within a block", "copies of the one"])
    def test_samples_that_stop_being_one_matrix_are_scaled_whole(self, monkeypatch, case):
        # H(t) is m before a cut and `other` (or copies of m) after it; a batch wholly
        # before the cut is a broadcast of m, and one wholly after it a broadcast of
        # `other`, so with the cut at a block boundary every block is one matrix,
        # but not every block the same one
        m, other = self.hermitian(7), self.hermitian(8)
        times = uniform_grid(0.0, 1.0, 1000)
        mids = (times[:-1] + times[1:]) / 2.0
        cut = mids[512 if case == "another matrix at a block boundary" else 500]
        after = m if case == "copies of the one" else other

        def values(ts):
            return np.where((ts < cut)[:, None, None], m, after)

        def sample(ts):
            if ts[-1] < cut:
                return np.broadcast_to(m, (ts.size, 32, 32))
            if ts[0] >= cut and case != "copies of the one":
                return np.broadcast_to(other, (ts.size, 32, 32))
            return values(ts)

        sizes, steps = self.sizes_and_steps(monkeypatch, HamiltonianFamily(sample, 32), times)
        # one exponential per slice of midpoints, each by its own plan, those
        # after the cut on the workers
        assert sorted(sizes) == sorted(part.stop - part.start for part in time_blocks(1000, 32))
        assert np.array_equal(steps, midpoint_propagators(HamiltonianFamily(values, 32), times))


class TestCheckpointedProducts:
    """`PropagatorGrid.from_t0` forms the rows each read selects from the checkpoints of
    one pass over the steps, with the bits of `step_products` over the whole grid."""

    @staticmethod
    def family(kind):
        m = TestMidpointSteps.hermitian(7)
        return (HamiltonianFamily.constant(m) if kind == "constant" else
                HamiltonianFamily(lambda ts: np.cos(3 * ts)[:, None, None] * m, 32))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["constant", "time-dependent"])
    @pytest.mark.parametrize("steps, slices", [(20, 1), (40, 2), (300, 10)])
    def test_every_read_has_the_bits_of_the_whole_products(self, monkeypatch, workers, kind,
                                                           steps, slices):
        # n = 32: time blocks of 32 times, so one, two and many checkpoint segments
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        times = uniform_grid(0.0, 1.0, steps)
        assert len(time_blocks(times.size, 32)) == slices
        family = self.family(kind)
        psi0 = np.random.default_rng(3).normal(size=(32, 2)) @ [1.0, 1j]
        grid = PropagatorGrid(family, times, psi0=psi0)
        step_stack = midpoint_propagators(family, times)
        whole = step_products(step_stack)
        inverse = np.linalg.inv(whole)
        last = times.size - 1
        reads = [slice(None), slice(0, 32), slice(32, 64), slice(5, last, 3), slice(-7, None),
                 5, np.int64(last), np.intp(-1), slice(3, 3), np.array([], dtype=np.intp),
                 np.array([last, 0, 7, 7, last - 1, 33 % times.size, 7]),
                 np.array([[33 % times.size, 2], [2, last]])]
        for index in reads:
            rows = grid.from_t0[index]
            assert rows.shape == whole[index].shape, index
            assert np.array_equal(rows, whole[index]), index
            assert np.array_equal(grid.into_t0[index], inverse[index]), index
        # the sweep's reads, one time block each, on the workers
        by_slices = np.concatenate(_in_block_order(lambda part: grid.from_t0[part],
                                                   time_blocks(times.size, 32)))
        assert np.array_equal(by_slices, whole)
        assert np.array_equal(np.asarray(grid.from_t0), whole)
        # psi0, carried in the same pass, as `propagate_states` carries it
        assert np.array_equal(grid.states, propagate_states(step_stack, psi0))

    @pytest.mark.parametrize("steps, formed", [(20, []), (300, [5, 8, 4])])
    def test_only_the_rows_of_a_read_are_formed_from_their_checkpoints(self, monkeypatch,
                                                                       steps, formed):
        # one pass forms each product once; a one-slice grid keeps every row, so its
        # reads form none again, and a longer grid's read forms, once per segment it
        # selects from, the rows from its checkpoint up to the last one selected:
        # rows 0..5, 32..40 and 96..100 by 5, 8 and 4 products, while row 300 is
        # among the last time block's, which the grid keeps
        calls = []
        real = dynamics_module.step_products

        def counting(steps_read, out=None, first=None):
            calls.append(steps_read.shape[0])
            return real(steps_read, out=out, first=first)

        monkeypatch.setattr(dynamics_module, "step_products", counting)
        times = uniform_grid(0.0, 1.0, steps)
        grid = PropagatorGrid(self.family("constant"), times)
        assert sum(calls) == steps  # one product per step, in the pass
        del calls[:]
        grid.from_t0[np.array([0, 5, 40, 35, 99, 100, 300]) % times.size]
        assert calls == formed

    def test_asarray_forms_every_row_and_refuses_to_view(self):
        # the grid holds no stack of products: `np.asarray` forms one with the bits of
        # `[:]`, and a read that may not copy is refused rather than forming one
        times = uniform_grid(0.0, 1.0, 100)
        grid = PropagatorGrid(self.family("time-dependent"), times)
        assert np.array_equal(np.asarray(grid.from_t0), grid.from_t0[:])
        assert np.asarray(grid.from_t0, dtype=np.complex64).dtype == np.complex64
        with pytest.raises(ValueError, match="no stack to view"):
            np.asarray(grid.from_t0, copy=False)

    def test_a_constant_h_keeps_its_distinct_steps_only(self):
        times = uniform_grid(0.0, 1.0, 1000)
        grid = PropagatorGrid(self.family("constant"), times)
        held = grid.from_t0._steps
        lengths = np.unique(np.diff(times)).size
        assert held.distinct.shape == (lengths, 32, 32) and held.shape == (1000, 32, 32)
        assert np.array_equal(held.distinct[held.index[::97]], midpoint_propagators(
            self.family("constant"), times)[::97])

    def test_psi0_of_another_dimension_rejected(self):
        h = HamiltonianFamily.constant(SIGMA_Z)
        times = uniform_grid(0.0, 1.0, 10)
        assert PropagatorGrid(h, times).states is None
        with pytest.raises(ValueError, match="initial state dimension"):
            PropagatorGrid(h, times, psi0=[1, 0, 0])


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
        zero = ObservableFamily.constant(np.zeros((2, 2))).at_many
        for kind, sample in self.bad_samplers().items():
            fam = ObservableFamily(lambda ts, sample=sample: (sample(ts), zero(ts)), 2,
                                   name=f"bad-{kind}")
            with pytest.raises(ValueError, match=f"observable 'bad-{kind}'"):
                fam.at_many(self.TIMES)

    def test_observable_derivative_checked(self):
        # one sampler: a bad derivative fails the whole evaluation, values too
        good = ObservableFamily.constant(SIGMA_Z).at_many
        for kind, derivative in self.bad_samplers().items():
            fam = ObservableFamily(lambda ts, derivative=derivative: (good(ts), derivative(ts)),
                                   2, name=f"bad-{kind}")
            with pytest.raises(ValueError, match=f"observable 'bad-{kind}' derivative"):
                fam.at_many(self.TIMES)
            with pytest.raises(ValueError, match=f"observable 'bad-{kind}' derivative"):
                fam.derivative_at_many(self.TIMES)

    def test_constant_families_broadcast_one_matrix(self):
        h = HamiltonianFamily.constant(SIGMA_X).at_many(self.TIMES)
        a = ObservableFamily.constant(SIGMA_Z)
        assert h.shape == (self.TIMES.size, 2, 2) and np.array_equal(h[7], SIGMA_X)
        assert np.array_equal(a.derivative_at_many(self.TIMES)[1],
                              np.zeros((self.TIMES.size, 2, 2)))
        assert not HamiltonianFamily.zero(2).at_many(self.TIMES).any()

    def test_flagged_hamiltonian_checked_at_one_time(self):
        flagged = HamiltonianFamily.constant(SIGMA_Z + 0.5j * SIGMA_X, hermitian_expected=True)
        with pytest.raises(ValueError, match=r"^Hamiltonian family 'constant' flagged "
                                             r"Hermitian deviates by 1\.000e\+00$"):
            flagged.at(0.0)

    def test_constant_families_are_read_only_broadcasts(self):
        observable = ObservableFamily.constant(SIGMA_Z).derivative_at_many(self.TIMES)
        for stack in (HamiltonianFamily.constant(SIGMA_X).at_many(self.TIMES),
                      HamiltonianFamily.zero(2).at_many(self.TIMES), *observable):
            assert stack.shape == (self.TIMES.size, 2, 2)
            assert stack.strides[0] == 0 and not stack.flags.writeable

    def test_a_broadcast_is_checked_on_its_one_matrix(self):
        def broadcast(matrix):
            return lambda ts: np.broadcast_to(matrix, (ts.size, 2, 2))

        nan = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="^Hamiltonian family 'nan' returned non-finite"):
            HamiltonianFamily(broadcast(nan), 2, name="nan").at_many(self.TIMES)
        skew = HamiltonianFamily(broadcast(SIGMA_Z + 0.5j * SIGMA_X), 2, True, "skew")
        with pytest.raises(ValueError, match="^Hamiltonian family 'skew' flagged Hermitian"):
            skew.at_many(self.TIMES)
        for values, derivative, what in [(nan, zero, "'nan'"), (zero, nan, "'nan' derivative")]:
            fam = ObservableFamily(lambda ts, v=values, d=derivative: (broadcast(v)(ts),
                                                                       broadcast(d)(ts)),
                                   2, name="nan")
            with pytest.raises(ValueError, match=f"^observable {what} returned non-finite"):
                fam.derivative_at_many(self.TIMES)

    def test_checking_a_broadcast_allocates_no_stack(self):
        times = np.linspace(0.0, 1.0, 10 ** 5)
        matrix = 0.7 * np.kron(SIGMA_X, SIGMA_Z) + np.diag([1.0, 2.0, 3.0, 4.0])
        hamiltonian = HamiltonianFamily.constant(matrix)
        observable = ObservableFamily.constant(matrix)
        assert hamiltonian.hermitian_expected
        tracemalloc.start()
        try:
            hamiltonian.at_many(times)
            observable.derivative_at_many(times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one byte per entry: below a boolean mask of the stack, let alone a complex copy
        assert peak < times.size * 4 * 4


# H = sigma_z + i g sigma_x on [0, 5]: every U(t, s) is well defined, so every
# record must pass.  The two-time operators invert U(t, t0), which is
# ill-conditioned for g >= 2; each xfail turns into an XPASS failure once they
# are formed from step products instead.
@pytest.mark.parametrize("g", [
    1.0,
    pytest.param(2.0, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: inv(U(t, t0)) fails transport_identity 2.2e-9, "
        "transport_composition 6.1e-6, density_purity 4.4e-2 and "
        "fibre_trace_preservation 3.8e-9"))),
    pytest.param(5.0, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: inv(U(t, t0)) fails setup with LinAlgError: Singular matrix"))),
])
def test_non_hermitian_two_time_operators_pass_every_check(g):
    raw = {"name": f"non-hermitian-g{g:g}", "dimension": 2,
           "grid": {"t0": 0.0, "t1": 5.0, "steps": 1000},
           "hamiltonian": {"kind": "non-hermitian",
                           "matrix": [[[1, 0], [0, g]], [[0, g], [-1, 0]]]},
           "trivialization": {"kind": "identity"}}
    report = run_scenario(scenario_from_dict(raw))
    failed = [(r.check, r.max_residual, r.detail) for r in report.records if not r.passed]
    assert not failed
