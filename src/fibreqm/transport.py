"""Bundle-side dynamics: evolution transport and bundle Hamiltonians.

The evolution transport along a path is the two-time fibre map

    U(t, s) = l(t)^-1 U_conv(t, s) l(s)

built over the shared sampling grid, and the matrix form of the bundle
Hamiltonian is

    Hm(t) = l^-1 H l - i hbar l^-1 (dl/dt)

(the second term is i hbar (d l^-1/dt) l rewritten through the exact identity
d(l^-1)/dt = -l^-1 (dl/dt) l^-1).  It is the unique generator for which the
lifted state of every conventional solution solves the bundle Schrodinger
equation i hbar dPsi/dt = Hm(t) Psi; that defining contract, not the formula,
is what the tests pin down.

The bundle integrator reuses the conventional exponential-midpoint stepper,
so integrator mismatch never contaminates equivalence measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .bundle import SectionAlongPath, TrivializationFamily
from .dynamics import (
    HamiltonianFamily,
    PropagatorGrid,
    grid_index,
    grid_indices,
    midpoint_propagators,
    propagate_states,
)
from .hilbert import PhysicalConstants, _frozen, as_state

__all__ = [
    "EvolutionTransport",
    "MatrixBundleHamiltonian",
    "TransportAxiomReport",
    "check_transport_axioms",
    "integrate_bundle_schrodinger",
]


def _bundle_generator(frames: np.ndarray, h_vals: np.ndarray,
                      frame_derivatives: np.ndarray, hbar: float) -> np.ndarray:
    """l^-1 (H l - i hbar dl/dt) over checked frames, one solve."""
    rhs = h_vals @ frames
    rhs -= 1j * hbar * frame_derivatives
    return np.linalg.solve(frames, rhs)


class MatrixBundleHamiltonian:
    """Matrix bundle Hamiltonian for a grid, evaluable at any batch of times.

    The midpoint stepper needs values between grid points, so the closed form
    is kept callable (`at_many`) rather than sampled on the grid.
    """

    def __init__(self, hamiltonian: HamiltonianFamily, trivialization: TrivializationFamily,
                 times, constants: PhysicalConstants = PhysicalConstants()):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be a strictly increasing grid with >= 2 points")
        self.hamiltonian = hamiltonian
        self.trivialization = trivialization
        self.constants = constants
        self.times = times
        self.times.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.hamiltonian.dimension

    def at_many(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        l = self.trivialization
        values = l.invertible_at_many(times)
        h_vals = self.hamiltonian.at_many(times)
        return _bundle_generator(values, h_vals, l.derivative_at_many(times), self.constants.hbar)


class EvolutionTransport:
    """Two-time fibre transport U(t, s) on a grid, any order of arguments.

    Built from the conventional propagator products and the trivialization;
    queries off the grid are errors, never interpolations.  `frames` takes the
    trivialization already sampled on the propagator grid and checked
    invertible (as `validate_on_grid` returns it), so it is not sampled again;
    by default the transport samples and checks it itself.

    `matrices_from` and `matrices_into` compute a stack on every call; the
    stacks at the first grid time are the read-only cached properties
    `from_t0` and `into_t0`, which every reader of them shares.
    """

    def __init__(self, propagators: PropagatorGrid, trivialization: TrivializationFamily,
                 frames: Optional[np.ndarray] = None):
        self.propagators = propagators
        self.times = propagators.times
        if frames is None:
            frames = trivialization.invertible_at_many(self.times)
        expected = (self.times.size, trivialization.dimension, trivialization.dimension)
        if frames.shape != expected:
            raise ValueError(f"frames must have shape {expected}, got {frames.shape}")
        self.frames = frames
        self.inverse_frames = np.linalg.inv(self.frames)
        for a in (self.frames, self.inverse_frames):
            a.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.propagators.dimension

    def index_of(self, t: float) -> int:
        return grid_index(self.times, t)

    def matrices_by_index(self, j, i) -> np.ndarray:
        """U(t_j, t_i) stacked over index arrays `j`, `i` (broadcast together)."""
        j, i = np.broadcast_arrays(np.asarray(j, dtype=np.intp), np.asarray(i, dtype=np.intp))
        return self.inverse_frames[j] @ (self.propagators.operators(j, i) @ self.frames[i])

    def matrix_by_index(self, j: int, i: int) -> np.ndarray:
        return self.matrices_by_index([j], [i])[0]

    def matrices_from(self, s: float) -> np.ndarray:
        """All U(t_j, s) stacked over the grid index j."""
        i = self.index_of(s)
        return self.inverse_frames @ (self.propagators.operators_from(i) @ self.frames[i])

    def matrices_into(self, t: float) -> np.ndarray:
        """All U(t, t_j) stacked over the grid index j."""
        j = self.index_of(t)
        return self.inverse_frames[j] @ (self.propagators.operators_into(j) @ self.frames)

    @cached_property
    def from_t0(self) -> np.ndarray:
        """All U(t_j, t0) at the first grid time t0, computed once and read only."""
        return _frozen(self.matrices_from(self.times[0]))

    @cached_property
    def into_t0(self) -> np.ndarray:
        """All U(t0, t_j) at the first grid time t0, computed once and read only."""
        return _frozen(self.matrices_into(self.times[0]))


def integrate_bundle_schrodinger(hm: MatrixBundleHamiltonian, psi0) -> SectionAlongPath:
    """Integrate i hbar dPsi/dt = Hm(t) Psi on the grid of `hm`, from Psi(t_0) = psi0.

    Uses the shared midpoint stepper, one step per interval of `hm.times`.
    """
    psi0 = as_state(psi0)
    if psi0.shape[0] != hm.dimension:
        raise ValueError("initial fibre vector dimension does not match")
    props = midpoint_propagators(hm.at_many, hm.times, hm.constants)
    return SectionAlongPath(hm.times, propagate_states(props, psi0))


@dataclass(frozen=True)
class TransportAxiomReport:
    """Measured deviations of a transport from the identity/composition axioms."""

    max_identity_deviation: float
    max_composition_deviation: float
    worst_identity_time: float
    worst_composition_triple: Tuple[float, float, float]


def check_transport_axioms(transport: EvolutionTransport,
                           sample: Sequence[Tuple[float, float, float]]
                           ) -> TransportAxiomReport:
    """Measure U(t,t) = I and U(t,s) U(s,r) = U(t,r) over sampled triples.

    The report holds deviations only; each caller judges them against its own
    tolerance.

    Triples must be grid aligned with r <= s <= t; the identity axiom is
    checked at every grid index appearing in the sample.  All times are
    looked up at once and each axiom is evaluated as one stack of queries
    (`transport.matrices_by_index`).  The worst location is the first
    maximum in sample order (grid indices in order of first appearance for
    the identity), and a NaN deviation counts as the maximum, so it fails.
    """
    triples = np.asarray(sample, dtype=float)
    if triples.size == 0:
        raise ValueError("sample must contain at least one triple")
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError(f"sample must be a sequence of (r, s, t) triples, got shape "
                         f"{triples.shape}")
    unordered = ~((triples[:, 0] <= triples[:, 1]) & (triples[:, 1] <= triples[:, 2]))
    if np.any(unordered):
        r, s, t = triples[int(np.argmax(unordered))]
        raise ValueError(f"triple must satisfy r <= s <= t, got {(float(r), float(s), float(t))}")
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
