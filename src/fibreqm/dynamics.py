"""Conventional Hilbert-space dynamics: the reference oracle.

The step propagator is the exponential midpoint rule

    psi(t + h) = exp(-i h H(t + h/2) / hbar) psi(t)

which is exactly unitary per step for Hermitian H, so norm drift never
confounds equivalence measurements.  Two-time evolution operators are ordered
products of the step propagators on the grid, formed from checkpoints: one
sequential pass over the steps keeps the products only at the start of each
time block (`CheckpointedProducts`), and a read forms the rows it selects from
their checkpoint, so no whole stack of products is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bundle import FrameInverse
from .hilbert import (
    PhysicalConstants,
    _frozen,
    _formed_in_order,
    _in_block_order,
    _taylor_plan,
    as_operator,
    as_state,
    broadcast_sampler,
    checked_stack,
    distinct_matrices,
    is_hermitian,
    matrix_exponential,
    max_abs,
    sorted_distinct,
    time_blocks,
)

__all__ = [
    "CheckpointedProducts",
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
    `time_blocks` slice of the midpoints at a time, and each slice's steps are
    scaled and exponentiated by the plan of that slice's own largest 1-norm
    (`matrix_exponential` on the slice), so its samples, and what sampling them
    needs (the bundle generator's midpoint frames, their derivatives and
    inverses), are never whole stacks.  That is the one plan rule of both
    steppers, and of `integrate_bundle_schrodinger`, which streams the same
    slices: a step's bits depend on its own slice alone, never on the grid's
    other steps or on the worker count.  Where every sample is one matrix (a
    constant family's 0-stride broadcast), nothing is scaled per step: one step
    is exponentiated per distinct step length and plan, by the plan of each
    slice, and gathered, so each step keeps the bits it has from its slice.
    """
    times = np.asarray(times, dtype=float)
    steps = _midpoint_steps(family, times, constants.hbar)
    if isinstance(steps, _GatheredSteps):
        return steps.distinct[steps.index]
    return steps


def _scaled(h: np.ndarray, sample: np.ndarray, hbar: float) -> np.ndarray:
    """-i h_k H_k / hbar over the step lengths h_k; one H broadcasts."""
    return -1j * h[:, None, None] * sample / hbar


def _slice_steps(family, mids: np.ndarray, h: np.ndarray, hbar: float, part: slice,
                 sample: Optional[np.ndarray] = None) -> np.ndarray:
    """The steps of the midpoints `part`, one slice: the generator sampled there (or
    `sample`, its samples already taken), scaled and exponentiated in place by the
    plan of the slice's own largest 1-norm."""
    scaled = _scaled(h[part], family.at_many(mids[part]) if sample is None else sample, hbar)
    return matrix_exponential(scaled, out=scaled)


class _GatheredSteps:
    """A constant generator's steps E_k = distinct[index[k]], read by step index or
    slice: its few distinct exponentials, one per step length and plan."""

    def __init__(self, distinct: np.ndarray, index: np.ndarray):
        self.distinct, self.index = _frozen(distinct), index
        self.shape = (index.size,) + distinct.shape[1:]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _GatheredSteps(self.distinct, self.index[k])
        return self.distinct[self.index[k]]


def _midpoint_steps(family, times: np.ndarray, hbar: float):
    """The steps of `midpoint_propagators`: a stack, or, where every midpoint sample is
    one matrix, its `_GatheredSteps`.

    The midpoints are sampled one `time_blocks` slice at a time.  While each
    sample is one matrix, and the same one, nothing is exponentiated; from the
    first slice that is not, the steps are a stack: the slices before it from
    that matrix, that slice from its samples, and the slices after it on the
    workers (`hilbert._in_block_order`).
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
        steps = np.empty((mids.size, n, n), dtype=complex)
        for done in parts[:k]:  # each sample of these slices is `one`
            steps[done] = _slice_steps(family, mids, h, hbar, done, one)
        steps[part] = _slice_steps(family, mids, h, hbar, part, sample)
        del sample  # no slice of samples outlives its steps

        def fill(rest: slice) -> None:
            steps[rest] = _slice_steps(family, mids, h, hbar, rest)

        _in_block_order(fill, parts[k + 1:])
        return steps
    if one is None:  # a grid of one time has no steps
        return np.empty((0, n, n), dtype=complex)
    return _gathered_steps(one, h, parts, hbar)


def _gathered_steps(one: np.ndarray, h: np.ndarray, parts: Sequence[slice],
                    hbar: float) -> _GatheredSteps:
    """The steps exp(-i h_k H / hbar) of one matrix H, each with the bits it has in its
    slice's exponential: one exponential per distinct (step length, plan of its slice).

    A slice's plan is that of its largest 1-norm, the largest over the distinct
    lengths it holds (`hilbert._taylor_plan`).  The distinct lengths of one plan
    are exponentiated in one batch, whose own largest 1-norm is that of one of
    its slices, so the batch's plan is theirs.
    """
    lengths, step_of = np.unique(h, return_inverse=True)
    scaled = _scaled(lengths, one, hbar)
    norms = np.max(np.sum(np.abs(scaled), axis=-2), axis=-1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("matrix exponential of non-finite input")
    slice_plans = [_taylor_plan(float(np.max(norms[step_of[part]]))) for part in parts]
    plans = sorted(set(slice_plans))
    plan_of = np.repeat([plans.index(plan) for plan in slice_plans],
                        [part.stop - part.start for part in parts])
    keys, index = np.unique(step_of * len(plans) + plan_of, return_inverse=True)
    distinct = np.empty((keys.size,) + one.shape, dtype=complex)
    for p in range(len(plans)):
        mine = keys % len(plans) == p
        distinct[mine] = matrix_exponential(scaled[keys[mine] // len(plans)])
    return _GatheredSteps(distinct, index)


def _streamed_midpoint_steps(family, times: np.ndarray, constants: PhysicalConstants,
                             use: Callable[[slice, np.ndarray], None]) -> None:
    """use(part, the steps of the intervals `part`) for each `time_blocks` slice of the
    midpoints, in grid order (`hilbert._formed_in_order`): each slice's steps are
    sampled, scaled and exponentiated on a worker, by its own plan, as
    `midpoint_propagators` forms them, so a step has the same bits either way, and
    each worker holds one slice of steps at a time."""
    times = np.asarray(times, dtype=float)
    mids, h = (times[:-1] + times[1:]) / 2.0, np.diff(times)
    _formed_in_order(lambda part: _slice_steps(family, mids, h, constants.hbar, part), use,
                     time_blocks(mids.size, family.dimension))


def propagate_states(propagators: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """Apply step propagators sequentially; returns (N + 1, n) states."""
    states = np.empty((propagators.shape[0] + 1, psi0.shape[0]), dtype=complex)
    states[0] = psi0
    for k in range(propagators.shape[0]):
        states[k + 1] = propagators[k] @ states[k]
    return states


def step_products(steps: np.ndarray, out: Optional[np.ndarray] = None,
                  first: Optional[np.ndarray] = None) -> np.ndarray:
    """The ordered products E[j-1] ... E[0] F of the steps E_k, from j = 0 (F) to the
    last: U(t_j, t0) on a grid with one step per interval, where F = `first` is the
    product before the steps, the identity by default.

    `out`, an (N + 1, n, n) complex stack for N steps, receives them; by default
    they are a new stack.  Every row that `PropagatorGrid` reads is formed here,
    so each keeps these bits.
    """
    n = steps.shape[-1]
    if out is None:
        out = np.empty((steps.shape[0] + 1, n, n), dtype=complex)
    out[0] = np.eye(n, dtype=complex) if first is None else first
    for k in range(steps.shape[0]):
        np.matmul(steps[k], out[k], out=out[k + 1])
    return out


class CheckpointedProducts:
    """The ordered step products U(t_j, t0) = E[j-1] ... E[0] over a grid, read by index
    like an (N, n, n) array: `products[idx]` for an int, a slice or an index array
    (of any shape, repeats and any order allowed) is a new array of those rows.

    It keeps the steps (a stack, or a constant generator's few distinct
    exponentials and the step index) and, from one sequential pass over them,
    the product at the start of each `time_blocks` slice of the grid (a
    checkpoint) and every row of the last slice.  A read forms the rows it
    selects one slice at a time, from that slice's checkpoint up to its last
    selected row, by `step_products`, so every row has the bits of
    `step_products` over the whole grid and no whole stack of products is ever
    held.  A one-slice grid keeps every row, so it forms its products once.
    """

    def __init__(self, steps, n_times: int, psi0: Optional[np.ndarray] = None):
        """One pass over the steps, the grid's N - 1 for its `n_times` times; psi0,
        given, is carried by them into `states`, (N, n), in the same pass."""
        n = steps.shape[-1]
        parts = time_blocks(n_times, n)
        self.shape = (n_times, n, n)
        self._steps, self._size, self._last = steps, parts[0].stop, parts[-1].start
        self._checkpoints = np.empty((len(parts), n, n), dtype=complex)
        self._tail = np.empty((n_times - self._last, n, n), dtype=complex)
        self.states = None if psi0 is None else np.empty((n_times, n), dtype=complex)
        if psi0 is not None:
            self.states[0] = psi0
        buffer = np.empty((self._size + 1, n, n), dtype=complex)
        first = None
        for k, part in enumerate(parts):
            stop = min(part.stop, n_times - 1)  # this slice's steps, and the next slice's head
            rows = self._tail if part.start == self._last else buffer[:stop - part.start + 1]
            mine = steps[part.start:stop]
            step_products(mine, out=rows, first=first)
            self._checkpoints[k] = rows[0]
            first = rows[-1].copy()
            if psi0 is not None:
                self.states[part.start:stop + 1] = propagate_states(mine, self.states[part.start])
        for a in (self._checkpoints, self._tail) + (() if psi0 is None else (self.states,)):
            a.setflags(write=False)

    def __getitem__(self, index) -> np.ndarray:
        if self._last == 0:  # one slice, every row kept: no segment to form
            return self._tail[index].copy()
        wanted = np.arange(self.shape[0])[index]
        flat = wanted.ravel()
        out = np.empty(flat.shape + self.shape[1:], dtype=complex)
        segment_of = flat // self._size
        for segment in sorted_distinct(segment_of):
            mine = np.flatnonzero(segment_of == segment)
            start = int(segment) * self._size
            out[mine] = self._rows(int(segment), int(np.max(flat[mine])) + 1)[flat[mine] - start]
        return out.reshape(wanted.shape + self.shape[1:])

    def _rows(self, segment: int, stop: int) -> np.ndarray:
        """The rows of one slice from its first up to stop - 1, formed from its
        checkpoint; the last slice's kept rows, all of them."""
        start = segment * self._size
        if start == self._last:
            return self._tail
        return step_products(self._steps[start:stop - 1], first=self._checkpoints[segment])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Every row as one new stack, for a library caller's `np.asarray`; there is no
        stack to view, so `copy=False` is a ValueError."""
        if copy is False:
            raise ValueError("CheckpointedProducts has no stack to view; read it by index")
        whole = self[:]
        return whole if dtype is None else whole.astype(dtype, copy=False)


class PropagatorGrid:
    """Ordered step-propagator products over a fixed grid.

    `from_t0[j]` = E[j-1] ... E[0] is U(t_j, t0), and `into_t0` is U(t0, t_j),
    its inverse.  Both are read by index: `from_t0` is a
    `CheckpointedProducts`, which keeps the steps E_k (the family's
    `midpoint_propagators` on the grid with these constants; a constant
    family's few distinct ones, gathered) and the products at the start of
    each time block, and forms the rows each read selects; `into_t0` is read
    like a frame inverse (a `bundle.FrameInverse`): `into_t0[idx]` inverts the
    rows `from_t0[idx]` on each read, each matrix with the bits of a
    whole-stack `np.linalg.inv`.  No whole stack of products or of their
    inverses is held.  Every two-time operator is the product U(t_j, t_i) =
    from_t0[j] @ into_t0[i].  `psi0`, given, is carried by the steps in the
    same pass that forms the checkpoints, into `states`, (N, n): the
    conventional oracle; without it `states` is None.
    """

    def __init__(self, family: HamiltonianFamily, times: np.ndarray,
                 constants: PhysicalConstants = PhysicalConstants(),
                 psi0: Optional[np.ndarray] = None):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be a strictly increasing grid with >= 2 points")
        if psi0 is not None:
            psi0 = as_state(psi0)
            if psi0.shape[0] != family.dimension:
                raise ValueError("initial state dimension does not match the Hamiltonian family")
        self.family = family
        self.constants = constants
        self.times = _frozen(times)
        self.from_t0 = CheckpointedProducts(_midpoint_steps(family, times, constants.hbar),
                                            times.size, psi0)
        self.states = self.from_t0.states
        self.into_t0 = FrameInverse(self.from_t0, adjoint=False)

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
