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
from typing import Optional

import numpy as np

from .bundle import _seeded_smooth_unitary, lift_operators
from .dynamics import ObservableFamily, conjugate_by, grid_index
from .hilbert import _frozen, apply, expectations, max_abs
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
    """Invertible frame family V(t, t0) on a grid with V(t0, t0) = I."""

    reference_time: float
    times: np.ndarray
    matrices: np.ndarray  # (N, n, n)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.shape[0] != times.shape[0] or mats.shape[1] != mats.shape[2]:
            raise ValueError("need one square matrix per grid time")
        anchor = mats[grid_index(times, self.reference_time)]
        if max_abs(anchor - np.eye(mats.shape[1])) > 1e-12:
            raise ValueError("picture transform must be the identity at the reference time")
        times.setflags(write=False)
        mats.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def inverse_matrices(self) -> np.ndarray:
        """V(t)^-1 at every grid time, inverted once and read only."""
        return _frozen(np.linalg.inv(self.matrices))

    @classmethod
    def identity(cls, times, dimension: int) -> "PictureTransform":
        """The Schrodinger picture V(t) = I, referred to the first grid time."""
        times = np.asarray(times, dtype=float)
        mats = np.broadcast_to(np.eye(dimension, dtype=complex),
                               (times.size, dimension, dimension)).copy()
        return cls(float(times[0]), times, mats)

    @classmethod
    def from_transport(cls, transport: EvolutionTransport, reference_time: float
                       ) -> "PictureTransform":
        """Heisenberg frame family V(t) = U(t0, t)."""
        mats = transport.matrices_into(reference_time)
        return cls(reference_time, transport.times, mats)

    @classmethod
    def random_unitary(cls, times, dimension: int, seed: int) -> "PictureTransform":
        """Seeded smooth unitary family V(t) = exp(s K1) exp(sin(3 s) K2), s = t - t0.

        t0 is the first grid time and the generators have scale 0.7.  They
        come from the same seeded helper as `random_smooth_unitary_trivialization`
        (own RNG key), so each is diagonalized once and V(t0) is the identity
        to rounding.
        """
        times = np.asarray(times, dtype=float)
        t0 = float(times[0])
        values, _ = _seeded_smooth_unitary(dimension, [int(seed), 0x9C], 0.7, 3.0)
        return cls(t0, times, values(times - t0))


def to_general_picture_observables(v: np.ndarray, v_inv: np.ndarray, a: np.ndarray) -> np.ndarray:
    """V A V^-1 over stacks, with the inverses V^-1 the caller holds."""
    return conjugate_by(v, a, v_inv)


def general_picture_means(v_inv: np.ndarray, frames: np.ndarray, a_v: np.ndarray,
                          psi_v: np.ndarray) -> np.ndarray:
    """Means of transformed pairs under the V-pulled-back fibre metric, over stacks.

    <V^-1 Psi_V | V^-1 A_V Psi_V>_t / <V^-1 Psi_V | V^-1 Psi_V>_t, with the
    inverses V^-1 the caller holds; one V^-1 or frame broadcasts.
    """
    return _fibre_expectations(frames, apply(v_inv, psi_v), apply(v_inv, apply(a_v, psi_v)))


# --- density morphisms -----------------------------------------------------

def evolve_density_morphisms(p0, transport: EvolutionTransport) -> np.ndarray:
    """Transport conjugation U(t_k, t0) P0 U(t0, t_k) over the whole grid.

    t0 is the first grid time; the conjugation reads the transport's shared
    t0 stacks.
    """
    return conjugate_by(transport.from_t0, p0, transport.into_t0)


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
    worst_time: float
    tolerance: float
    criteria_agree: bool


def is_integral_of_motion(a: ObservableFamily, transport: EvolutionTransport,
                          tol: float = 1e-6) -> IntegralOfMotionReport:
    """Decide whether an observable family is an integral of motion.

    Evaluates the conventional residual i hbar dA/dt + [A, H] on the
    transport's grid, with the Hamiltonian and hbar its propagators were
    built from, and, for observables whose sampled derivative is zero on the
    grid, the invariance of the lifted morphism under transport conjugation
    (the lift reads the frames the transport already sampled and inverted,
    and the conjugation its shared t0 stacks); certification requires every
    applicable criterion to pass.
    """
    times = transport.times
    a_vals = a.at_many(times)
    h_vals = transport.propagators.family.at_many(times)
    da_vals = a.derivative_on_grid(times)
    hbar = transport.propagators.constants.hbar
    residuals = a_vals @ h_vals
    residuals -= h_vals @ a_vals
    residuals += (1j * hbar) * da_vals
    per_time = np.max(np.abs(residuals), axis=(1, 2))
    comm_res = float(np.max(per_time))
    worst_time = float(times[int(np.argmax(per_time))])
    conventional_ok = comm_res <= tol

    transport_res = None
    transported_ok = True
    if not np.any(da_vals):
        frames, inverse_frames = transport.frames, transport.inverse_frames
        a0_fibre = lift_operators(frames[0], inverse_frames[0], a_vals[0])
        deviation = lift_operators(frames, inverse_frames, a_vals)
        deviation -= evolve_density_morphisms(a0_fibre, transport)
        transport_res = max_abs(deviation)
        transported_ok = transport_res <= tol

    # a vacuous bundle criterion (nonzero dA/dt) never disagrees
    agree = transport_res is None or conventional_ok == transported_ok
    return IntegralOfMotionReport(
        certified=conventional_ok and transported_ok,
        commutator_residual=comm_res,
        transport_residual=transport_res,
        worst_time=worst_time,
        tolerance=tol,
        criteria_agree=agree,
    )
