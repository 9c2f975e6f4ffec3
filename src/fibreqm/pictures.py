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
from typing import Callable, Optional, Tuple

import numpy as np

from .bundle import _frame_inverse, _seeded_smooth_unitary, lift_operators
from .dynamics import ObservableFamily
from .hilbert import (
    _frozen,
    apply,
    distinct_matrices,
    expectations,
    max_abs,
    series_by_blocks,
)
from .transport import EvolutionTransport

__all__ = [
    "IntegralOfMotionReport",
    "PictureTransform",
    "commutator_criterion",
    "evolve_density_morphisms",
    "fibre_means",
    "general_picture_means",
    "is_integral_of_motion",
    "to_general_picture_observables",
    "transport_criterion",
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
        if times.ndim != 1 or times.size == 0:
            raise ValueError("need a 1-D grid of at least one time")
        if mats.ndim != 3 or mats.shape[0] != times.shape[0] or mats.shape[1] != mats.shape[2]:
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
        picture), else `np.linalg.inv` (`bundle._frame_inverse`), as one whole
        stack: the engine's pictures are one time block each.
        """
        return _frozen(_frame_inverse(self.matrices)[:])

    @classmethod
    def identity(cls, times, dimension: int) -> "PictureTransform":
        """The Schrodinger picture V(t) = I, referred to the first grid time."""
        times = np.asarray(times, dtype=float)
        mats = np.broadcast_to(np.eye(dimension, dtype=complex),
                               (times.size, dimension, dimension)).copy()
        return cls(times, mats)

    @classmethod
    def from_transport(cls, transport: EvolutionTransport) -> "PictureTransform":
        """Heisenberg frame family V(t) = U(t0, t), the transport's rows into t0."""
        return cls(transport.times, transport.matrices_into(transport.times[0]))

    @classmethod
    def random_unitary(cls, times, dimension: int, seed: int) -> "PictureTransform":
        """Seeded smooth unitary family V(t) = exp(s K1) exp(sin(3 s) K2), s = t - t0.

        t0 is the first grid time and the generators have scale 0.7.  They
        come from the same seeded helper as `random_smooth_unitary_trivialization`
        (own RNG key), so each is diagonalized once and V(t0) is the identity
        to rounding.
        """
        return cls.random_unitary_sampler(dimension, seed)(times)

    @classmethod
    def random_unitary_sampler(cls, dimension: int,
                               seed: int) -> Callable[[np.ndarray], "PictureTransform"]:
        """times -> `random_unitary(times, dimension, seed)`, its generators drawn and
        diagonalized once, here, for every grid it is then sampled on.

        A time block of a longer grid is sampled as t0 followed by the block's
        times, so the block is still referred to, and checked at, t0
        (`picture_invariance` samples each block so).
        """
        values, _ = _seeded_smooth_unitary(dimension, [int(seed), 0x9C], 0.7, 3.0)

        def sample(times) -> "PictureTransform":
            times = np.asarray(times, dtype=float)
            return cls(times, values(times - float(times[0])))

        return sample


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

def evolve_density_morphisms(p0, from_t0: np.ndarray, into_t0: np.ndarray) -> np.ndarray:
    """Conjugation U(t_k, t0) P0 U(t0, t_k) over the t0 stacks `from_t0` (the U(t_k, t0))
    and `into_t0` (the U(t0, t_k)), t0 the first grid time.

    They are a `PropagatorGrid`'s for a conventional density operator P0, or an
    `EvolutionTransport`'s for a density morphism at t0.  The engine passes
    the rows of one slice of its sweep, so no conjugated stack is ever whole.
    """
    return to_general_picture_observables(from_t0, into_t0, p0)


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

    @classmethod
    def decided(cls, commutator_residual: float, transport_residual: Optional[float],
                tol: float) -> "IntegralOfMotionReport":
        """The decision on both residuals: certified when every applicable one is <= tol."""
        conventional_ok = commutator_residual <= tol
        transported_ok = transport_residual is None or transport_residual <= tol
        # a vacuous bundle criterion (nonzero dA/dt) never disagrees
        agree = transport_residual is None or conventional_ok == transported_ok
        return cls(conventional_ok and transported_ok, commutator_residual, transport_residual,
                   agree)


def commutator_criterion(a: ObservableFamily,
                         transport: EvolutionTransport) -> Tuple[float, Optional[np.ndarray]]:
    """The conventional residual max_t |i hbar dA/dt + [A, H]| on the transport's grid,
    and the samples A(t_k) when dA/dt is zero on the whole grid (None otherwise).

    H and hbar are those the transport's propagators were built from.  dA/dt
    is decided zero on a broadcast's one matrix, and a zero dA/dt adds no
    term.  The residual is formed one `time_blocks` slice at a time; where A
    and H (and a nonzero dA/dt) are broadcasts, every time has the one
    residual of their one matrices, so it is formed once.  Only when dA/dt is
    zero does the transport criterion (`transport_criterion`) apply.
    """
    times = transport.times
    a_vals, da_vals = a.derivative_at_many(times)
    h_vals = transport.propagators.family.at_many(times)
    hbar = transport.propagators.constants.hbar
    constant = not np.any(distinct_matrices(da_vals))  # dA/dt is zero on the grid

    operands = [a_vals, h_vals] + ([] if constant else [da_vals])
    if all(distinct_matrices(stack).shape[0] == 1 for stack in operands):
        operands = [distinct_matrices(stack) for stack in operands]

    def commutator(part: slice) -> np.ndarray:
        a_part, h_part, *da_part = (stack[part] for stack in operands)
        residuals = a_part @ h_part
        residuals -= h_part @ a_part
        for derivative in da_part:
            residuals += (1j * hbar) * derivative
        return np.max(np.abs(residuals), axis=(1, 2))

    residual = max_abs(series_by_blocks(*operands[0].shape[:2], commutator))
    return residual, (a_vals if constant else None)


def transport_criterion(lifted: np.ndarray, a0_fibre: np.ndarray, from_t0: np.ndarray,
                        into_t0: np.ndarray) -> np.ndarray:
    """max |l^-1 A l - U(t, t0) A0 U(t0, t)| at each time of the stacks, A0 the lifted A(t0).

    The deviation of the lifted morphism `lifted`, l^-1 A l (`lift_operators`),
    from its transport conjugation (`evolve_density_morphisms`), over stacks of
    one slice of grid times: the lift and the t0 stacks.  The caller lifts the
    samples A(t_k) first, so the inverse rows the lift reads are not held
    beside the conjugation's products.
    """
    return np.max(np.abs(lifted - evolve_density_morphisms(a0_fibre, from_t0, into_t0)),
                  axis=(1, 2))


def is_integral_of_motion(a: ObservableFamily, transport: EvolutionTransport,
                          tol: float = 1e-6) -> IntegralOfMotionReport:
    """Decide whether an observable family is an integral of motion.

    Evaluates the conventional residual i hbar dA/dt + [A, H]
    (`commutator_criterion`) and, for observables whose sampled derivative is
    zero on the grid, the invariance of the lifted morphism under transport
    conjugation (`transport_criterion`: each block's frames are read once from
    the transport and inverted once by the rule its check decided, and both
    the lift and the conjugation's t0 rows, `matrices_from`/`matrices_into`,
    read them); certification requires
    every applicable criterion to pass (`IntegralOfMotionReport.decided`).
    Both residuals are formed one `time_blocks` slice at a time, on the
    calling thread (`series_by_blocks`), so neither criterion holds more than
    a few blocks, and no whole t0 or inverse stack is formed: 2.5 blocks above
    entry for a constant candidate at n = 32, N = 1000.
    """
    commutator_residual, a_vals = commutator_criterion(a, transport)
    transport_residual = None
    if a_vals is not None:
        t0 = transport.times[0]
        a0_fibre = lift_operators(transport.frames[0], transport.inverse_frames[0], a_vals[0])

        def deviation(part: slice) -> np.ndarray:
            # the block's frames read once, and inverted once, for the lift and the t0 rows
            frames = transport.frames[part]
            inverse = transport.inverse_frames.read(part, frames)
            return transport_criterion(
                lift_operators(frames, inverse, a_vals[part]), a0_fibre,
                transport.matrices_from(t0, part, None, inverse),
                transport.matrices_into(t0, part, None, frames))

        transport_residual = max_abs(series_by_blocks(*a_vals.shape[:2], deviation))
    return IntegralOfMotionReport.decided(commutator_residual, transport_residual, tol)
