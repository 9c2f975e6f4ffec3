"""Conventional Hilbert-space dynamics: the reference oracle.

The step propagator is the exponential midpoint rule

    psi(t + h) = exp(-i h H(t + h/2) / hbar) psi(t)

which is exactly unitary per step for Hermitian H, so norm drift never
confounds equivalence measurements.  Two-time evolution operators are
materialized as ordered products of the step propagators on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hilbert import (
    PhysicalConstants,
    as_operator,
    as_state,
    checked_stack,
    inner_products,
    is_hermitian,
    matrix_exponential,
    max_abs,
)

__all__ = [
    "HamiltonianFamily",
    "ObservableFamily",
    "OffGridTimeError",
    "PropagatorGrid",
    "Trajectory",
    "conjugate_by",
    "evolve_state",
    "grid_index",
    "grid_indices",
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


def _constant_sampler(matrix: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """ts -> the read-only broadcast of one matrix over the batch (no copy)."""
    return lambda ts: np.broadcast_to(matrix, (ts.size,) + matrix.shape)


class HamiltonianFamily:
    """Time-indexed Hamiltonian t -> H(t) of a fixed dimension.

    `sample` maps a 1-D array of N times to the stack H(t_k), shape (N, n, n).
    Each batch is shape- and finiteness-checked once (ValueError naming the
    family); single-time queries are batches of one.  `hermitian_expected`
    declares whether H(t) should pass the Hermiticity predicate wherever it
    is sampled; non-Hermitian families are allowed but unitarity-based
    checks are skipped for them downstream.
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
        return cls(_constant_sampler(m), m.shape[0], hermitian_expected, name)

    @classmethod
    def zero(cls, dimension: int) -> "HamiltonianFamily":
        z = np.zeros((dimension, dimension), dtype=complex)
        return cls(_constant_sampler(z), dimension, True, "zero")

    def at(self, t: float) -> np.ndarray:
        return self.at_many(np.array([float(t)]))[0]

    def at_many(self, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return checked_stack(self._sample(times), times, self.dimension,
                             f"Hamiltonian family '{self.name}'")


class ObservableFamily:
    """Observable t -> A(t) with an explicit time derivative.

    `sample` maps a 1-D array of N times to the stack A(t_k), shape (N, n, n),
    and `derivative` maps them to the exact dA/dt(t_k).  Both are checked like
    `HamiltonianFamily` samples.
    """

    def __init__(self, sample: Callable[[np.ndarray], np.ndarray], dimension: int,
                 derivative: Callable[[np.ndarray], np.ndarray], name: str = "observable"):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._sample = sample
        self._derivative = derivative
        self.dimension = int(dimension)
        self.name = name

    @classmethod
    def constant(cls, matrix, name: str = "constant") -> "ObservableFamily":
        m = as_operator(matrix)
        return cls(_constant_sampler(m), m.shape[0], _constant_sampler(np.zeros_like(m)),
                   name=name)

    def at(self, t: float) -> np.ndarray:
        return self.at_many(np.array([float(t)]))[0]

    def at_many(self, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return checked_stack(self._sample(times), times, self.dimension,
                             f"observable '{self.name}'")

    def derivative_on_grid(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return checked_stack(self._derivative(times), times, self.dimension,
                             f"observable '{self.name}' derivative")


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

    def norm_sq(self) -> np.ndarray:
        return inner_products(self.states, self.states).real


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


def midpoint_propagators(matrix_at_many: Callable[[np.ndarray], np.ndarray],
                         times: np.ndarray,
                         constants: PhysicalConstants = PhysicalConstants()) -> np.ndarray:
    """Step propagators exp(-i h H(t + h/2) / hbar) for every grid interval.

    Shared by the conventional and the bundle integrators so that identical
    generator samples produce bitwise-identical steps.
    """
    times = np.asarray(times, dtype=float)
    mids = (times[:-1] + times[1:]) / 2.0
    h = np.diff(times)
    mats = matrix_at_many(mids)
    return matrix_exponential(-1j * h[:, None, None] * mats / constants.hbar)


def _hermitian_checked(family: HamiltonianFamily) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a family's sampler to enforce its declared Hermiticity.

    A family flagged Hermitian may deviate from H = H^dagger by at most
    1e-10 * max(1, max|H|) in any sampled entry.
    """

    def at_many(times: np.ndarray) -> np.ndarray:
        sampled = family.at_many(times)
        if family.hermitian_expected:
            dev = max_abs(sampled - np.swapaxes(sampled.conj(), -2, -1))
            if dev > 1e-10 * max(1.0, max_abs(sampled)):
                raise ValueError(
                    f"Hamiltonian family '{family.name}' flagged Hermitian "
                    f"deviates by {dev:.3e}")
        return sampled

    return at_many


def propagate_states(propagators: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """Apply step propagators sequentially; returns (N + 1, n) states."""
    states = np.empty((propagators.shape[0] + 1, psi0.shape[0]), dtype=complex)
    states[0] = psi0
    for k in range(propagators.shape[0]):
        states[k + 1] = propagators[k] @ states[k]
    return states


def conjugate_by(u: np.ndarray, x: np.ndarray, u_inv: np.ndarray) -> np.ndarray:
    """(u @ x) @ u_inv with a fixed association order.

    Both density-evolution routes go through this helper so that identical
    operands yield bitwise-identical results.
    """
    return (u @ x) @ u_inv


class PropagatorGrid:
    """Ordered step-propagator products over a fixed grid.

    Prefix products C[j] = E[j-1] ... E[0] give U(t_j, t_0); a two-time
    operator is U(t_j, t_i) = C[j] @ inv(C[i]), with the empty product at
    i == 0 short-circuited to C[j] itself.
    """

    def __init__(self, family: HamiltonianFamily, times: np.ndarray,
                 constants: PhysicalConstants = PhysicalConstants()):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be a strictly increasing grid with >= 2 points")
        steps = midpoint_propagators(_hermitian_checked(family), times, constants)

        n = family.dimension
        prefixes = np.empty((times.size, n, n), dtype=complex)
        prefixes[0] = np.eye(n, dtype=complex)
        for k in range(steps.shape[0]):
            prefixes[k + 1] = steps[k] @ prefixes[k]

        self.family = family
        self.constants = constants
        self.times = times
        self.step_matrices = steps
        self.prefixes = prefixes
        self.inverse_prefixes = np.linalg.inv(prefixes)
        for a in (self.times, self.step_matrices, self.prefixes, self.inverse_prefixes):
            a.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.family.dimension

    def operators(self, j, i) -> np.ndarray:
        """U(t_j, t_i) stacked over index arrays `j`, `i` (broadcast together).

        Pairs with i == 0 take the prefix C[j] itself; only the others form
        a product.
        """
        j, i = np.broadcast_arrays(np.asarray(j, dtype=np.intp), np.asarray(i, dtype=np.intp))
        out = self.prefixes[j]
        later = i != 0
        out[later] = self.prefixes[j[later]] @ self.inverse_prefixes[i[later]]
        return out

    def operators_from(self, i: int) -> np.ndarray:
        """All U(t_j, t_i) stacked over j."""
        if i == 0:
            return self.prefixes
        return self.prefixes @ self.inverse_prefixes[i]

    def operators_into(self, i: int) -> np.ndarray:
        """All U(t_i, t_j) stacked over j."""
        return self.prefixes[i] @ self.inverse_prefixes


def evolve_state(family: HamiltonianFamily, psi0, t0: float, t1: float, step: float,
                 constants: PhysicalConstants = PhysicalConstants()) -> Trajectory:
    """Integrate the Schrodinger equation i hbar dpsi/dt = H(t) psi."""
    psi0 = as_state(psi0)
    if psi0.shape[0] != family.dimension:
        raise ValueError("initial state dimension does not match the Hamiltonian family")
    if np.vdot(psi0, psi0).real == 0.0:
        raise ValueError("initial state must be nonzero")
    times = uniform_grid(t0, t1, _steps_from(t0, t1, step))
    props = midpoint_propagators(_hermitian_checked(family), times, constants)
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
