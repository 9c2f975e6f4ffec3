"""Conventional Hilbert-space dynamics: the reference oracle.

The step propagator is the exponential midpoint rule

    psi(t + h) = exp(-i h H(t + h/2) / hbar) psi(t)

which is exactly unitary per step for Hermitian H, so norm drift never
confounds equivalence measurements.  Two-time evolution operators are
materialized as ordered products of the step propagators on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .bundle import FrameInverse
from .hilbert import (
    PhysicalConstants,
    _in_block_order,
    as_operator,
    as_state,
    broadcast_sampler,
    checked_stack,
    distinct_matrices,
    is_hermitian,
    matrix_exponential,
    max_abs,
    time_blocks,
)

__all__ = [
    "HamiltonianFamily",
    "ObservableFamily",
    "OffGridTimeError",
    "PropagatorGrid",
    "Trajectory",
    "evolve_state",
    "grid_index",
    "grid_indices",
    "step_products",
    "uniform_grid",
]


class OffGridTimeError(ValueError):
    """A two-time quantity was requested at a time not on the sampling grid."""


def uniform_grid(t0: float, t1: float, steps: int) -> np.ndarray:
    """Uniform grid with `steps` intervals (steps + 1 sample times)."""
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
        raise ValueError(f"need finite t0 < t1, got [{t0}, {t1}]")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return np.linspace(float(t0), float(t1), steps + 1)


def _steps_from(t0: float, t1: float, step: float) -> int:
    if not (step > 0 and np.isfinite(step)):
        raise ValueError(f"step must be a positive real, got {step}")
    if not t1 > t0:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    steps = int(round((t1 - t0) / step))
    return max(steps, 1)


class HamiltonianFamily:
    """Time-indexed Hamiltonian t -> H(t) of a fixed dimension.

    `sample` maps a 1-D array of N times to the stack H(t_k), shape (N, n, n).
    `at_many` checks each batch wherever it is sampled: shape, finiteness and,
    if `hermitian_expected`, max|H - H^dagger| <= 1e-10 max(1, max|H|), with a
    ValueError naming the family; a broadcast is checked on its one matrix.
    Non-Hermitian families are allowed but unitarity-based checks are skipped
    for them downstream.
    """

    def __init__(self, sample: Callable[[np.ndarray], np.ndarray], dimension: int,
                 hermitian_expected: bool = True, name: str = "custom"):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._sample = sample
        self.dimension = int(dimension)
        self.hermitian_expected = bool(hermitian_expected)
        self.name = name

    @classmethod
    def constant(cls, matrix, hermitian_expected: Optional[bool] = None,
                 name: str = "constant") -> "HamiltonianFamily":
        m = as_operator(matrix)
        if hermitian_expected is None:
            hermitian_expected = is_hermitian(m, 1e-12 * max(1.0, max_abs(m)))
        sample = broadcast_sampler(m)
        return cls(lambda ts: sample(ts)[0], m.shape[0], hermitian_expected, name)

    @classmethod
    def zero(cls, dimension: int) -> "HamiltonianFamily":
        return cls.constant(np.zeros((dimension, dimension)), True, "zero")

    def at(self, t: float) -> np.ndarray:
        return self.at_many(np.array([float(t)]))[0]

    def at_many(self, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        what = f"Hamiltonian family '{self.name}'"
        stack = checked_stack(self._sample(times), times, self.dimension, what)
        if self.hermitian_expected:
            one = distinct_matrices(stack)
            dev = max_abs(one - np.swapaxes(one.conj(), -2, -1))
            if dev > 1e-10 * max(1.0, max_abs(one)):
                raise ValueError(f"{what} flagged Hermitian deviates by {dev:.3e}")
        return stack


class ObservableFamily:
    """Observable t -> A(t) and its exact time derivative, from one sampler.

    `sample` maps a 1-D array of N times to the pair (A(t_k), dA/dt(t_k)) of
    (N, n, n) stacks; each is checked like `HamiltonianFamily` samples.
    """

    def __init__(self, sample: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
                 dimension: int, name: str = "observable"):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._sample = sample
        self.dimension = int(dimension)
        self.name = name

    @classmethod
    def constant(cls, matrix, name: str = "constant") -> "ObservableFamily":
        m = as_operator(matrix)
        return cls(broadcast_sampler(m), m.shape[0], name=name)

    def at_many(self, times: np.ndarray) -> np.ndarray:
        return self.derivative_at_many(times)[0]

    def derivative_at_many(self, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The stacks A(t_k) and dA/dt(t_k) from one evaluation, each checked once."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values, derivative = self._sample(times)
        what = f"observable '{self.name}'"
        return (checked_stack(values, times, self.dimension, what),
                checked_stack(derivative, times, self.dimension, f"{what} derivative"))


@dataclass(frozen=True)
class Trajectory:
    """State history on a strictly increasing time grid; one state per time."""

    times: np.ndarray
    states: np.ndarray  # (N, n)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if states.shape[0] != times.shape[0]:
            raise ValueError("one state required per grid time")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


def grid_indices(times: np.ndarray, ts) -> np.ndarray:
    """Grid indices of the times `ts` (any shape) on the increasing grid `times`.

    Each time maps to its nearest grid point (the lower one on a tie) and
    must lie within 1e-6 of the smallest grid spacing of it; otherwise, or
    for a NaN time, OffGridTimeError names the first offending time.
    """
    times = np.asarray(times, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if times.size == 0:
        raise OffGridTimeError("the sampling grid is empty")
    if times.size == 1:
        idx = np.zeros(ts.shape, dtype=np.intp)
        spacing = 1.0
    else:
        right = np.clip(np.searchsorted(times, ts), 1, times.size - 1)
        left = right - 1
        idx = np.where(np.abs(times[left] - ts) <= np.abs(times[right] - ts), left, right)
        spacing = float(np.min(np.diff(times)))
    off = ~(np.abs(times[idx] - ts) <= 1e-6 * spacing)
    if np.any(off):
        t = float(ts[off].flat[0])
        raise OffGridTimeError(f"time {t} is not on the sampling grid")
    return idx


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of `t` on the grid; raises OffGridTimeError if not grid aligned."""
    return int(grid_indices(times, t))


def midpoint_propagators(family, times: np.ndarray,
                         constants: PhysicalConstants = PhysicalConstants()) -> np.ndarray:
    """Step propagators exp(-i h H(t + h/2) / hbar) for every grid interval.

    `family` is the generator: anything with a `dimension` and an `at_many`
    sampler, a `HamiltonianFamily` or a `MatrixBundleHamiltonian`.  Shared by
    the conventional and the bundle integrators so that identical generator
    samples produce bitwise-identical steps.  The generator is sampled one
    `time_blocks` slice of the midpoints at a time and scaled into the one
    stack that the exponential reads, so its samples, and what sampling them
    needs (the bundle generator's midpoint frames, their derivatives and
    inverses), are never whole stacks.  A sampler gives each time the same
    values in any batch, so the steps do not depend on the slicing.  The
    scaled stack is this function's own, so it is exponentiated in place and
    the steps are the one stack.  Where every sample is one matrix (a constant
    family's 0-stride broadcast), no scaled stack is formed: one step is
    exponentiated per distinct step length and gathered.  Their largest 1-norm
    is the whole batch's, so is the plan (`matrix_exponential`), and each step
    keeps the bits it has in the batch.
    """
    times = np.asarray(times, dtype=float)
    one, stack = _scaled_generator(family, times, constants.hbar)
    if stack is not None:
        return matrix_exponential(stack, out=stack)
    lengths, step_of = np.unique(np.diff(times), return_inverse=True)
    return matrix_exponential(_scaled(lengths, one, constants.hbar))[step_of]


def _scaled(h: np.ndarray, sample: np.ndarray, hbar: float) -> np.ndarray:
    """-i h_k H_k / hbar over the step lengths h_k; one H broadcasts."""
    return -1j * h[:, None, None] * sample / hbar


def _scaled_generator(family, times: np.ndarray,
                      hbar: float) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """(the one matrix of every midpoint sample, None), or (None, the scaled stack).

    The midpoints are sampled one `time_blocks` slice at a time.  While each
    sample is one matrix, and the same one, nothing is scaled; from the first
    that is not, the stack is formed, the blocks before it from that matrix,
    and the blocks after it on the workers (`hilbert._in_block_order`).
    """
    mids = (times[:-1] + times[1:]) / 2.0
    h = np.diff(times)
    n = family.dimension
    parts = time_blocks(mids.size, n)
    one = None
    for k, part in enumerate(parts):
        sample = family.at_many(mids[part])
        if (distinct_matrices(sample).shape[0] == 1
                and (one is None or np.array_equal(sample[0], one))):
            one = sample[0]
            continue
        stack = np.empty((mids.size, n, n), dtype=complex)
        for done in parts[:k]:  # each sample of these blocks is `one`
            stack[done] = _scaled(h[done], one, hbar)
        stack[part] = _scaled(h[part], sample, hbar)
        del sample  # no block of samples outlives its scaling

        def scale(rest: slice) -> None:
            stack[rest] = _scaled(h[rest], family.at_many(mids[rest]), hbar)

        _in_block_order(scale, parts[k + 1:])
        return None, stack
    if one is None:  # no midpoints
        return None, np.empty((0, n, n), dtype=complex)
    return one, None


def propagate_states(propagators: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """Apply step propagators sequentially; returns (N + 1, n) states."""
    states = np.empty((propagators.shape[0] + 1, psi0.shape[0]), dtype=complex)
    states[0] = psi0
    for k in range(propagators.shape[0]):
        states[k + 1] = propagators[k] @ states[k]
    return states


def step_products(steps: np.ndarray) -> np.ndarray:
    """The ordered products E[j-1] ... E[0] of the steps E_k, from j = 0 (the identity)
    to the last grid time: U(t_j, t0) on a grid with one step per interval."""
    n = steps.shape[-1]
    from_t0 = np.empty((steps.shape[0] + 1, n, n), dtype=complex)
    from_t0[0] = np.eye(n, dtype=complex)
    for k in range(steps.shape[0]):
        from_t0[k + 1] = steps[k] @ from_t0[k]
    return from_t0


class PropagatorGrid:
    """Ordered step-propagator products over a fixed grid.

    `from_t0[j]` = E[j-1] ... E[0] is U(t_j, t0), and `into_t0` is U(t0, t_j),
    its inverse, read by index like a frame inverse (a `bundle.FrameInverse`):
    `into_t0[idx]` inverts the rows `from_t0[idx]` on each read, each matrix
    with the bits of a whole-stack `np.linalg.inv`, so no whole inverse stack
    is held.  Every two-time operator is the product U(t_j, t_i) =
    from_t0[j] @ into_t0[i].  The steps E_k are the family's
    `midpoint_propagators` on the grid with these constants, and the grid
    keeps only their products, `from_t0` (`step_products`): taken from a
    caller that already formed them (checked to be one (n, n) matrix per grid
    time), or formed here.
    """

    def __init__(self, family: HamiltonianFamily, times: np.ndarray,
                 constants: PhysicalConstants = PhysicalConstants(),
                 from_t0: Optional[np.ndarray] = None):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be a strictly increasing grid with >= 2 points")
        n = family.dimension
        if from_t0 is None:
            from_t0 = step_products(midpoint_propagators(family, times, constants))
        elif from_t0.shape != (times.size, n, n):
            raise ValueError(f"from_t0 must have shape {(times.size, n, n)} (one per grid "
                             f"time, of the family's dimension), got {from_t0.shape}")

        self.family = family
        self.constants = constants
        self.times = times
        self.from_t0 = from_t0
        for a in (self.times, self.from_t0):
            a.setflags(write=False)
        self.into_t0 = FrameInverse(from_t0, adjoint=False)

    @property
    def dimension(self) -> int:
        return self.family.dimension

    def operators(self, j, i) -> np.ndarray:
        """U(t_j, t_i) stacked over index arrays `j`, `i` (broadcast together)."""
        return self.from_t0[j] @ self.into_t0[i]


def evolve_state(family: HamiltonianFamily, psi0, t0: float, t1: float, step: float,
                 constants: PhysicalConstants = PhysicalConstants()) -> Trajectory:
    """Integrate the Schrodinger equation i hbar dpsi/dt = H(t) psi."""
    psi0 = as_state(psi0)
    if psi0.shape[0] != family.dimension:
        raise ValueError("initial state dimension does not match the Hamiltonian family")
    if np.vdot(psi0, psi0).real == 0.0:
        raise ValueError("initial state must be nonzero")
    times = uniform_grid(t0, t1, _steps_from(t0, t1, step))
    props = midpoint_propagators(family, times, constants)
    return Trajectory(times, propagate_states(props, psi0))


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, positive semidefiniteness, and unit trace to 1e-8 (scaled)."""
    rho = as_operator(rho)
    tol = 1e-8
    scale = max(1.0, max_abs(rho))
    if max_abs(rho - rho.conj().T) > tol * scale:
        raise ValueError("density matrix is not Hermitian to tolerance")
    if float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2))) < -tol * scale:
        raise ValueError("density matrix is not positive semidefinite to tolerance")
    if abs(complex(np.trace(rho)) - 1.0) > tol * scale:
        raise ValueError("density matrix trace must be 1 to tolerance")
    return rho
