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
from typing import Optional

import numpy as np

from .bundle import (
    MorphismAlongPath,
    SectionAlongPath,
    TrivializationFamily,
    _require_invertible,
    _seeded_smooth_unitary,
    fibre_inner_products,
    lift_operator,
    lift_operators,
)
from .dynamics import HamiltonianFamily, ObservableFamily, conjugate_by, grid_index
from .hilbert import PhysicalConstants, apply, as_operator, as_state, expectations, max_abs
from .transport import EvolutionTransport

__all__ = [
    "IntegralOfMotionReport",
    "PictureTransform",
    "bundle_mean_value",
    "density_morphism",
    "evolve_density_morphism",
    "evolve_density_morphisms",
    "fibre_means",
    "fibre_trace",
    "general_picture_mean",
    "general_picture_means",
    "heisenberg_mean",
    "is_integral_of_motion",
    "pure_state_density",
    "to_general_picture_observable",
    "to_general_picture_observables",
    "to_general_picture_state",
    "to_heisenberg_observable",
    "to_heisenberg_state",
]


# --- mean values --------------------------------------------------------

def _fibre_expectations(frames: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u|w>_t / <u|u>_t: the mean ratio taken under the fibre metric of `frames`."""
    return expectations(apply(frames, u), apply(frames, w))


def fibre_means(frames: np.ndarray, a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """<Psi|A Psi>_t / <Psi|Psi>_t over stacks; one frame or morphism broadcasts."""
    return _fibre_expectations(frames, values, apply(a, values))


def bundle_mean_value(a: MorphismAlongPath, psi: SectionAlongPath,
                      l: TrivializationFamily, t: float) -> complex:
    """<Psi(t)|A(t) Psi(t)>_t / <Psi(t)|Psi(t)>_t under the fibre metric."""
    return complex(fibre_means(l.invertible_at(t), a.matrix_at(t), psi.value_at(t)))


def heisenberg_mean(a_h, psi_h, l: TrivializationFamily, t0: float) -> complex:
    """Mean of a Heisenberg pair, taken in the reference-time fibre."""
    return complex(fibre_means(l.invertible_at(t0), as_operator(a_h), as_state(psi_h)))


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

    def matrix_at(self, t: float) -> np.ndarray:
        return self.matrices[grid_index(self.times, t)]

    @classmethod
    def identity(cls, times, dimension: int, reference_time: Optional[float] = None
                 ) -> "PictureTransform":
        times = np.asarray(times, dtype=float)
        t0 = float(times[0]) if reference_time is None else float(reference_time)
        mats = np.broadcast_to(np.eye(dimension, dtype=complex),
                               (times.size, dimension, dimension)).copy()
        return cls(t0, times, mats)

    @classmethod
    def from_transport(cls, transport: EvolutionTransport, reference_time: float
                       ) -> "PictureTransform":
        """Heisenberg frame family V(t) = U(t0, t)."""
        mats = transport.matrices_into(reference_time)
        return cls(reference_time, transport.times, mats)

    @classmethod
    def random_unitary(cls, times, dimension: int, seed: int,
                       reference_time: Optional[float] = None, scale: float = 0.7,
                       frequency: float = 3.0) -> "PictureTransform":
        """Seeded smooth unitary family V(t) = exp(s K1) exp(sin(w s) K2), s = t - t0.

        The generators come from the same seeded helper as
        `random_smooth_unitary_trivialization` (own RNG key), so each is
        diagonalized once and V(t0) is the identity to rounding.
        """
        times = np.asarray(times, dtype=float)
        t0 = float(times[0]) if reference_time is None else float(reference_time)
        values, _ = _seeded_smooth_unitary(dimension, [int(seed), 0x9C], scale, frequency)
        return cls(t0, times, values(times - t0))


def to_heisenberg_state(psi: SectionAlongPath, transport: EvolutionTransport,
                        t0: float, t: float) -> np.ndarray:
    """U(t0, t) Psi(t); constant in t and equal to Psi(t0) for evolved sections."""
    return apply(transport.matrix(t0, t), psi.value_at(t))


def to_heisenberg_observable(a: MorphismAlongPath, transport: EvolutionTransport,
                             t0: float, t: float) -> np.ndarray:
    """U(t0, t) A(t) U(t, t0)."""
    return conjugate_by(transport.matrix(t0, t), a.matrix_at(t), transport.matrix(t, t0))


def to_general_picture_state(psi_value, v: PictureTransform, t: float) -> np.ndarray:
    """V(t) Psi(t)."""
    return apply(v.matrix_at(t), as_state(psi_value))


def to_general_picture_observables(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """V A V^-1 over stacks, solved as (V^-dagger (V A)^dagger)^dagger (no inverse)."""
    adjoint = np.linalg.solve(np.swapaxes(v.conj(), -2, -1),
                              np.swapaxes((v @ a).conj(), -2, -1))
    return np.swapaxes(adjoint.conj(), -2, -1)


def to_general_picture_observable(a_value, v: PictureTransform, t: float) -> np.ndarray:
    """V(t) A(t) V(t)^-1."""
    vt = v.matrix_at(t)
    _require_invertible(vt, "picture transform", t)
    return to_general_picture_observables(vt, as_operator(a_value))


def general_picture_means(v: np.ndarray, frames: np.ndarray, a_v: np.ndarray,
                          psi_v: np.ndarray) -> np.ndarray:
    """Means of transformed pairs under the V-pulled-back fibre metric, over stacks.

    <V^-1 Psi_V | V^-1 A_V Psi_V>_t / <V^-1 Psi_V | V^-1 Psi_V>_t; one V or frame broadcasts.
    """
    x = np.linalg.solve(v, psi_v[..., None])[..., 0]
    ax = np.linalg.solve(v, apply(a_v, psi_v)[..., None])[..., 0]
    return _fibre_expectations(frames, x, ax)


def general_picture_mean(a_v, psi_v, v: PictureTransform, l: TrivializationFamily,
                         t: float) -> complex:
    """Mean of a transformed pair under the V-pulled-back fibre metric.

    Reduces to the plain fibre mean for V = I and to the reference-time fibre
    mean for the Heisenberg frame with a Hermitian generator; preserves mean
    values for arbitrary invertible V.
    """
    vt = v.matrix_at(t)
    _require_invertible(vt, "picture transform", t)
    return complex(general_picture_means(vt, l.invertible_at(t), as_operator(a_v),
                                         as_state(psi_v)))


# --- density morphisms -----------------------------------------------------

def density_morphism(rho, l: TrivializationFamily, t: float) -> np.ndarray:
    """l(t)^-1 rho l(t); a Hermitian morphism precisely when rho is Hermitian."""
    return lift_operator(l, t, rho)


def evolve_density_morphisms(p0, transport: EvolutionTransport, t0: float) -> np.ndarray:
    """Transport conjugation U(t_k, t0) P0 U(t0, t_k) over the whole grid.

    U(t_k, t0) P0 is formed before U(t0, t_k) is sampled, so one transport
    stack is alive beside the product.
    """
    carried = transport.matrices_from(t0) @ p0
    return carried @ transport.matrices_into(t0)


def evolve_density_morphism(p0, transport: EvolutionTransport, t0: float,
                            t: float) -> np.ndarray:
    """Transport conjugation U(t, t0) P0 U(t0, t): one grid row of the kernel."""
    return evolve_density_morphisms(as_operator(p0), transport, t0)[transport.index_of(t)]


def fibre_trace(p) -> complex:
    """Trace of a density morphism; similarity makes it frame independent."""
    return complex(np.trace(as_operator(p)))


def pure_state_density(psi_value, l: TrivializationFamily, t: float) -> np.ndarray:
    """Rank-1 fibre projector onto a fibre vector, idempotent with unit trace.

    With the fibre metric G = l^dagger l this is Psi (G Psi)^dagger / <Psi|Psi>_t,
    which coincides with the lift of the conventional pure-state density.
    """
    psi_value = as_state(psi_value)
    lt = l.invertible_at(t)
    norm_sq = fibre_inner_products(lt, psi_value, psi_value).real
    if norm_sq == 0.0:
        raise ValueError("zero fibre vector has no associated density")
    g_psi = lt.conj().T @ (lt @ psi_value)
    return np.outer(psi_value, g_psi.conj()) / norm_sq


# --- integrals of motion -----------------------------------------------------

@dataclass(frozen=True)
class IntegralOfMotionReport:
    """Residuals of the two integral-of-motion criteria.

    `commutator_residual` is the conventional criterion
    max_t |i hbar dA/dt + [A(t), H(t)]|; `transport_residual` is the
    transported-invariance criterion, evaluated only for time-independent
    observables (None otherwise, the conventional criterion is then
    authoritative).
    """

    certified: bool
    commutator_residual: float
    transport_residual: Optional[float]
    worst_time: float
    tolerance: float
    criteria_agree: bool


def is_integral_of_motion(a: ObservableFamily, h: HamiltonianFamily,
                          transport: EvolutionTransport, l: TrivializationFamily,
                          times, tol: float = 1e-6,
                          constants: PhysicalConstants = PhysicalConstants()
                          ) -> IntegralOfMotionReport:
    """Decide whether an observable family is an integral of motion.

    Evaluates the conventional residual i hbar dA/dt + [A, H] on the grid
    and, for time-independent observables, the invariance of the lifted
    morphism under transport conjugation; certification requires every
    applicable criterion to pass.  `l` must be the transport's own
    trivialization: the lift reads the frames the transport already sampled
    on the grid.
    """
    times = np.asarray(times, dtype=float)
    if not np.array_equal(times, transport.times):
        raise ValueError("integral-of-motion grid must be the transport grid")
    if l is not transport.trivialization:
        raise ValueError("integral-of-motion trivialization must be the transport's")
    a_vals = a.at_many(times)
    h_vals = h.at_many(times)
    da_vals = a.derivative_on_grid(times)
    residuals = (1j * constants.hbar) * da_vals + (a_vals @ h_vals - h_vals @ a_vals)
    per_time = np.max(np.abs(residuals), axis=(1, 2))
    comm_res = float(np.max(per_time))
    worst_time = float(times[int(np.argmax(per_time))])
    conventional_ok = comm_res <= tol

    transport_res = None
    transported_ok = True
    if not a.time_dependent:
        t0 = float(transport.times[0])
        a0_fibre = lift_operators(transport.frames[0], a.at(t0))
        lifted = lift_operators(transport.frames, a_vals)
        carried = evolve_density_morphisms(a0_fibre, transport, t0)
        transport_res = max_abs(lifted - carried)
        transported_ok = transport_res <= tol

    # a vacuous bundle criterion (time-dependent observable) never disagrees
    agree = transport_res is None or conventional_ok == transported_ok
    return IntegralOfMotionReport(
        certified=conventional_ok and transported_ok,
        commutator_residual=comm_res,
        transport_residual=transport_res,
        worst_time=worst_time,
        tolerance=tol,
        criteria_agree=agree,
    )
