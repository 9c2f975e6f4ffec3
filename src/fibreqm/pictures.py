"""Pictures of motion, bundle mean values, density morphisms, integrals of motion.

A picture of motion is a time-dependent invertible reframing of states and
observables that leaves every mean value unchanged.  States transform by the
frame family V(t), observables by V-conjugation, and the fibre metric is
pulled back through V; this is the unique combination that preserves all mean
values for arbitrary invertible V.  The identity family gives the Schrodinger
picture; the evolution transport gives the Heisenberg picture, whose means may
equivalently be taken with the plain reference-time fibre metric when the
generator is Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .bundle import _frame_inverse, _seeded_smooth_unitary, lift_operators
from .dynamics import ObservableFamily, PropagatorGrid
from .hilbert import (
    _frozen,
    apply,
    distinct_matrices,
    expectations,
    max_abs,
    series_by_blocks,
    stack_by_blocks,
)
from .transport import EvolutionTransport

__all__ = [
    "IntegralOfMotionReport",
    "PictureTransform",
    "evolve_density_morphisms",
    "fibre_means",
    "general_picture_means",
    "is_integral_of_motion",
    "to_general_picture_observables",
]


# --- mean values --------------------------------------------------------

def _fibre_expectations(frames: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u|w>_t / <u|u>_t: the mean ratio taken under the fibre metric of `frames`."""
    return expectations(apply(frames, u), apply(frames, w))


def fibre_means(frames: np.ndarray, a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """<Psi|A Psi>_t / <Psi|Psi>_t over stacks; one frame or morphism broadcasts."""
    return _fibre_expectations(frames, values, apply(a, values))


# --- pictures of motion ----------------------------------------------------

@dataclass(frozen=True)
class PictureTransform:
    """Invertible frame family V(t, t0) on a grid, t0 its first time, with V(t0, t0) = I."""

    times: np.ndarray
    matrices: np.ndarray  # (N, n, n)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.shape[0] != times.shape[0] or mats.shape[1] != mats.shape[2]:
            raise ValueError("need one square matrix per grid time")
        if max_abs(mats[0] - np.eye(mats.shape[1])) > 1e-12:
            raise ValueError("picture transform must be the identity at the reference time, "
                             "the first grid time")
        times.setflags(write=False)
        mats.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)

    @cached_property
    def inverse_matrices(self) -> np.ndarray:
        """V(t)^-1 at every grid time, inverted once and read only.

        V^dagger where max|V^dagger V - I| <= 1e-13 (the random unitary
        picture), else `np.linalg.inv` (`bundle._frame_inverse`).
        """
        return _frozen(_frame_inverse(self.matrices))

    @classmethod
    def identity(cls, times, dimension: int) -> "PictureTransform":
        """The Schrodinger picture V(t) = I, referred to the first grid time."""
        times = np.asarray(times, dtype=float)
        mats = np.broadcast_to(np.eye(dimension, dtype=complex),
                               (times.size, dimension, dimension)).copy()
        return cls(times, mats)

    @classmethod
    def from_transport(cls, transport: EvolutionTransport) -> "PictureTransform":
        """Heisenberg frame family V(t) = U(t0, t), read from the transport's `into_t0`."""
        return cls(transport.times, transport.into_t0)

    @classmethod
    def random_unitary(cls, times, dimension: int, seed: int) -> "PictureTransform":
        """Seeded smooth unitary family V(t) = exp(s K1) exp(sin(3 s) K2), s = t - t0.

        t0 is the first grid time and the generators have scale 0.7.  They
        come from the same seeded helper as `random_smooth_unitary_trivialization`
        (own RNG key), so each is diagonalized once and V(t0) is the identity
        to rounding.  A time block of a longer grid is sampled as t0 followed
        by the block's times, so the block is still referred to, and checked
        at, t0 (`picture_invariance` does this).
        """
        times = np.asarray(times, dtype=float)
        t0 = float(times[0])
        values, _ = _seeded_smooth_unitary(dimension, [int(seed), 0x9C], 0.7, 3.0)
        return cls(times, values(times - t0))


def to_general_picture_observables(v: np.ndarray, v_inv: np.ndarray, a: np.ndarray) -> np.ndarray:
    """V A V^-1 as (V A) V^-1 over stacks, with the inverses V^-1 the caller holds."""
    return (v @ a) @ v_inv


def general_picture_means(v_inv: np.ndarray, frames: np.ndarray, a_v: np.ndarray,
                          psi_v: np.ndarray) -> np.ndarray:
    """Means of transformed pairs under the V-pulled-back fibre metric, over stacks.

    <V^-1 Psi_V | V^-1 A_V Psi_V>_t / <V^-1 Psi_V | V^-1 Psi_V>_t, with the
    inverses V^-1 the caller holds; one V^-1 or frame broadcasts.
    """
    return _fibre_expectations(frames, apply(v_inv, psi_v), apply(v_inv, apply(a_v, psi_v)))


# --- density morphisms -----------------------------------------------------

def evolve_density_morphisms(p0, two_time: Union[PropagatorGrid, EvolutionTransport]
                             ) -> np.ndarray:
    """Conjugation U(t_k, t0) P0 U(t0, t_k) over the whole grid.

    `two_time` is a `PropagatorGrid` (P0 a conventional density operator) or
    an `EvolutionTransport` (P0 a density morphism at t0); either way t0 is
    the first grid time and the conjugation reads its shared t0 stacks, one
    `time_blocks` slice at a time.
    """
    from_t0, into_t0 = two_time.from_t0, two_time.into_t0
    return stack_by_blocks(*from_t0.shape[:2], lambda part: (
        to_general_picture_observables(from_t0[part], into_t0[part], p0)))


# --- integrals of motion -----------------------------------------------------

@dataclass(frozen=True)
class IntegralOfMotionReport:
    """Residuals of the two integral-of-motion criteria.

    `commutator_residual` is the conventional criterion
    max_t |i hbar dA/dt + [A(t), H(t)]|; `transport_residual` is the
    transported-invariance criterion, evaluated only for observables whose
    sampled derivative dA/dt is zero on the whole grid (None otherwise, the
    conventional criterion is then authoritative).
    """

    certified: bool
    commutator_residual: float
    transport_residual: Optional[float]
    criteria_agree: bool


def is_integral_of_motion(a: ObservableFamily, transport: EvolutionTransport,
                          tol: float = 1e-6) -> IntegralOfMotionReport:
    """Decide whether an observable family is an integral of motion.

    Evaluates the conventional residual i hbar dA/dt + [A, H] on the
    transport's grid, with the Hamiltonian and hbar its propagators were
    built from, and, for observables whose sampled derivative is zero on the
    grid (decided on a broadcast's one matrix; a zero dA/dt adds no term),
    the invariance of the lifted morphism under transport conjugation (the
    lift reads the frames the transport already sampled and inverted, and
    the conjugation its shared t0 stacks); certification requires every
    applicable criterion to pass.  Both residuals are formed one
    `time_blocks` slice at a time, beside the one transported stack.
    """
    times = transport.times
    a_vals, da_vals = a.derivative_at_many(times)
    h_vals = transport.propagators.family.at_many(times)
    hbar = transport.propagators.constants.hbar
    constant = not np.any(distinct_matrices(da_vals))  # dA/dt is zero on the grid

    def commutator(part: slice) -> np.ndarray:
        residuals = a_vals[part] @ h_vals[part]
        residuals -= h_vals[part] @ a_vals[part]
        if not constant:
            residuals += (1j * hbar) * da_vals[part]
        return np.max(np.abs(residuals), axis=(1, 2))

    comm_res = max_abs(series_by_blocks(*a_vals.shape[:2], commutator))
    conventional_ok = comm_res <= tol

    transport_res = None
    transported_ok = True
    if constant:
        frames, inverse_frames = transport.frames, transport.inverse_frames
        a0_fibre = lift_operators(frames[0], inverse_frames[0], a_vals[0])
        transported = evolve_density_morphisms(a0_fibre, transport)

        def deviation(part: slice) -> np.ndarray:
            lifted = lift_operators(frames[part], inverse_frames[part], a_vals[part])
            lifted -= transported[part]
            return np.max(np.abs(lifted), axis=(1, 2))

        transport_res = max_abs(series_by_blocks(*a_vals.shape[:2], deviation))
        transported_ok = transport_res <= tol

    # a vacuous bundle criterion (nonzero dA/dt) never disagrees
    agree = transport_res is None or conventional_ok == transported_ok
    return IntegralOfMotionReport(
        certified=conventional_ok and transported_ok,
        commutator_residual=comm_res,
        transport_residual=transport_res,
        criteria_agree=agree,
    )
