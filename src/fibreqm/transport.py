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
from typing import Optional, Sequence, Tuple

import numpy as np

from .bundle import FrameInverse, SectionAlongPath, TrivializationFamily, _frame_inverse
from .dynamics import (
    HamiltonianFamily,
    PropagatorGrid,
    _streamed_midpoint_steps,
    grid_index,
    grid_indices,
    propagate_states,
)
from .hilbert import (
    PhysicalConstants,
    _frozen,
    _in_block_order,
    as_state,
    series_by_blocks,
    sorted_distinct,
    stack_by_blocks,
    time_blocks,
)

__all__ = [
    "EvolutionTransport",
    "MatrixBundleHamiltonian",
    "TransportAxiomReport",
    "check_transport_axioms",
    "integrate_bundle_schrodinger",
]


def _bundle_generator(frames: np.ndarray, inverse_frames: FrameInverse, h_vals: np.ndarray,
                      frame_derivatives: np.ndarray, hbar: float) -> np.ndarray:
    """l^-1 (H l - i hbar dl/dt) over checked frames, as one product with l^-1.

    Reads the inverses l^-1 that the frames' check decided (l^dagger where
    max|l^dagger l - I| <= 1e-13, else `np.linalg.inv`) slice by slice, and
    fills the stack one `time_blocks` slice at a time.
    """
    def block(part: slice) -> np.ndarray:
        rhs = h_vals[part] @ frames[part]
        rhs -= 1j * hbar * frame_derivatives[part]
        return inverse_frames[part] @ rhs

    return stack_by_blocks(*frames.shape[:2], block)


class MatrixBundleHamiltonian:
    """Matrix bundle Hamiltonian for a grid, evaluable at any batch of times.

    The midpoint stepper needs values between grid points, so the closed form
    is kept callable (`at_many`) rather than sampled on the grid.  Each batch
    samples and proves its own frames (`TrivializationFamily.derivative_at_many`),
    and nothing is kept between batches, so the workers of a bundle integration
    share no state of it.
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
        values, derivative, inverse = self.trivialization.derivative_at_many(times)
        return _bundle_generator(values, inverse, self.hamiltonian.at_many(times), derivative,
                                 self.constants.hbar)


class EvolutionTransport:
    """Two-time fibre transport U(t, s) on a grid, any order of arguments.

    Built from the conventional propagator products and the frames l(t_k) on
    their grid alone, checked invertible and of shape (N, n, n) for the grid's
    N times and the propagators' dimension n: a stack, as `at_many` returns it,
    or any reader by index of one, such as the `bundle.GridFrames` that
    `TrivializationFamily.validate_on_grid` returns for any family but a
    broadcast of one matrix, which samples the rows each read selects.  `inverse_frames` is the
    `bundle.FrameInverse` that the frames' check decided (`validate_on_grid`
    returns both), of the frames' shape; it is required with a reader (a
    ValueError otherwise), and without it a stack of frames is inverted here
    (`bundle._frame_inverse`).  Either way the transport reads both by index,
    and each read of the inverse inverts the rows it needs (l^dagger where
    max|l^dagger l - I| <= 1e-13, else `np.linalg.inv`), so no whole inverse
    stack is held.  A stack inverted here is not proven invertible: one that
    fails the unitary test is inverted per read, so a singular frame raises
    `np.linalg.LinAlgError` at the first read of its row, not when the
    transport is built.  Queries off the grid are errors, never
    interpolations.

    `matrices_from` and `matrices_into` compute their rows on every call: the
    rows of one slice of grid indices as one block, or the whole grid one
    `time_blocks` slice at a time.  A row has the same bits either way.  Their
    fixed time is looked up on the grid; the first grid time t0, the fixed
    time of every t0 row, is looked up once, when the transport is built, so
    the t0 queries of many blocks scan the grid once.  The conventional
    U(t_j, t0) they read, `propagators.from_t0`, is formed per read from its
    checkpoints, and U(t0, t_j), `propagators.into_t0`, is inverted per read
    too, so the transport holds no stack of the conventional products or of
    their inverses.  A caller that has already read a slice's rows passes them:
    the conventional U(t_j, t0) and the frames' inverse rows to
    `matrices_from`, the conventional U(t0, t_j) and the frames' rows to
    `matrices_into`, each read in place of reading it again.  The engine and
    `is_integral_of_motion` form the t0 rows one time block at a time and never
    hold a whole t0 stack; a library caller that wants one whole calls
    `matrices_from(times[0])` or `matrices_into(times[0])`, and reads
    `frames[:]` or `inverse_frames[:]` for a whole stack of the frames or of
    their inverses.
    """

    def __init__(self, propagators: PropagatorGrid, frames,
                 inverse_frames: Optional[FrameInverse] = None):
        self.propagators = propagators
        self.times = propagators.times
        expected = (self.times.size, propagators.dimension, propagators.dimension)
        if frames.shape != expected:
            raise ValueError(f"frames must have shape {expected} (the propagator grid's "
                             f"times and dimension), got {frames.shape}")
        if inverse_frames is None:
            if not isinstance(frames, np.ndarray):
                raise ValueError("frames read by index need their FrameInverse: pass "
                                 "inverse_frames, as validate_on_grid returns it")
            inverse_frames = _frame_inverse(frames)
        elif inverse_frames.shape != frames.shape:
            raise ValueError(f"inverse_frames must have the frames' shape {frames.shape}, "
                             f"got {inverse_frames.shape}")
        self.frames = _frozen(frames) if isinstance(frames, np.ndarray) else frames
        self.inverse_frames = inverse_frames
        self._t0_index = grid_index(self.times, self.times[0])

    @property
    def dimension(self) -> int:
        return self.propagators.dimension

    def matrices_by_index(self, j, i) -> np.ndarray:
        """U(t_j, t_i) stacked over index arrays `j`, `i` (broadcast together).

        The conventional U(t_k, t0) of every distinct time k of the pairs is read
        once, in one stack (`propagators.from_t0`, which forms them one checkpoint
        segment at a time, each segment once).  The pairs are then formed by the
        checkpoint segment of their column index, on the workers: each segment
        inverts its distinct columns' rows once (`np.linalg.inv`, each matrix with
        the bits of its own inverse) and forms its pairs one `time_blocks` slice
        at a time, gathering their rows, so its temporaries are time blocks.  Each
        slice reads the frames of its pairs' column times and their inverses at
        its row times, so where the frames are a `bundle.GridFrames` a slice
        samples its distinct times of each once, and no frames of the whole query
        are held beside the products.
        """
        j, i = np.broadcast_arrays(np.asarray(j, dtype=np.intp), np.asarray(i, dtype=np.intp))
        shape = j.shape
        j, i = (np.arange(self.times.size)[k.ravel()] for k in (j, i))  # from the end, if < 0
        distinct, at = np.unique(np.concatenate([j, i]), return_inverse=True)
        conventional = self.propagators.from_t0[distinct]
        row_of, column_at = at[:j.size], at[j.size:]
        n = self.dimension
        out = np.empty((j.size, n, n), dtype=complex)

        def fill(segment: slice) -> None:
            pairs = np.flatnonzero((i >= segment.start) & (i < segment.stop))
            columns, column_of = np.unique(column_at[pairs], return_inverse=True)
            into = FrameInverse(conventional[columns], adjoint=False)[:]
            for part in time_blocks(pairs.size, n):
                k = pairs[part]
                # the right factor first, so the left one's rows are formed last
                right = (conventional[row_of[k]] @ into[column_of[part]]) @ self.frames[i[k]]
                out[k] = self.inverse_frames[j[k]] @ right

        segments = time_blocks(self.times.size, n)
        _in_block_order(fill, [segments[s] for s in sorted_distinct(i // segments[0].stop)])
        return out.reshape(shape + (n, n))

    def matrix_by_index(self, j: int, i: int) -> np.ndarray:
        return self.matrices_by_index([j], [i])[0]

    def _rows(self, part: Optional[slice], block) -> np.ndarray:
        """block(part), or the whole grid's stack one `time_blocks` slice at a time."""
        return stack_by_blocks(*self.frames.shape[:2], block) if part is None else block(part)

    def _index(self, t: float) -> int:
        """The grid index of `t`, that of t0 as looked up when the transport was built."""
        return self._t0_index if t == self.times[0] else grid_index(self.times, t)

    def matrices_from(self, s: float, part: Optional[slice] = None,
                      conventional: Optional[np.ndarray] = None,
                      inverse_frames: Optional[np.ndarray] = None) -> np.ndarray:
        """U(t_j, s) stacked over the grid indices j of the slice `part`, all by default.

        `conventional` and `inverse_frames`, given with `part` by a caller that has
        already read the slice's rows, are `propagators.from_t0[part]` and
        `self.inverse_frames[part]`; each is read in place of reading its rows
        again.  Either given without `part`, or with another row count than the
        slice's, is a ValueError.
        """
        self._check_rows(part, ("conventional", "from_t0", conventional),
                         ("inverse_frames", "inverse_frames", inverse_frames))
        i = self._index(s)
        p = self.propagators
        tail = p.into_t0[i] @ self.frames[i]

        def block(rows: slice) -> np.ndarray:
            head = p.from_t0[rows] if conventional is None else conventional
            inverse = self.inverse_frames[rows] if inverse_frames is None else inverse_frames
            return inverse @ (head @ tail)

        return self._rows(part, block)

    def matrices_into(self, t: float, part: Optional[slice] = None,
                      conventional: Optional[np.ndarray] = None,
                      frames: Optional[np.ndarray] = None) -> np.ndarray:
        """U(t, t_j) stacked over the grid indices j of the slice `part`, all by default.

        `conventional` and `frames`, given with `part` by a caller that has already
        read the slice's rows, are `propagators.into_t0[part]` and
        `self.frames[part]`; each is read in place of reading its rows again.
        Either given without `part`, or with another row count than the slice's,
        is a ValueError.
        """
        self._check_rows(part, ("conventional", "into_t0", conventional),
                         ("frames", "frames", frames))
        j = self._index(t)
        p = self.propagators
        inverse, head = self.inverse_frames[j], p.from_t0[j]

        def block(rows: slice) -> np.ndarray:
            into = p.into_t0[rows] if conventional is None else conventional
            right = self.frames[rows] if frames is None else frames
            return inverse @ (head @ (into @ right))

        return self._rows(part, block)

    def _check_rows(self, part: Optional[slice],
                    *given: Tuple[str, str, Optional[np.ndarray]]) -> None:
        """A ValueError unless each (parameter, name, rows) `given` whose rows are not
        None holds the rows of `name` of the slice `part`, one per grid index of it."""
        for parameter, name, rows in given:
            if rows is None:
                continue
            if part is None:
                raise ValueError(f"{parameter} is given without the slice `part` whose rows "
                                 f"of {name} it holds")
            count = len(range(self.times.size)[part])
            if rows.shape[0] != count:
                raise ValueError(f"{parameter} holds {rows.shape[0]} rows of {name}, but the "
                                 f"slice {part} has {count}")


def integrate_bundle_schrodinger(hm: MatrixBundleHamiltonian, psi0) -> SectionAlongPath:
    """Integrate i hbar dPsi/dt = Hm(t) Psi on the grid of `hm`, from Psi(t_0) = psi0.

    Uses the shared midpoint stepper, one step per interval of `hm.times`, and
    streams it: the steps of each `time_blocks` slice of the midpoints are
    sampled, scaled and exponentiated on a worker, by the plan of the slice's
    own largest 1-norm, as `midpoint_propagators` forms them, and the section is
    carried through each slice in grid order as soon as the slices before it are
    carried (`dynamics._streamed_midpoint_steps`).  So the steps are never a
    whole stack, and each state has the bits it has from the whole stack of
    steps.
    """
    psi0 = as_state(psi0)
    if psi0.shape[0] != hm.dimension:
        raise ValueError("initial fibre vector dimension does not match")
    states = np.empty((hm.times.size, hm.dimension), dtype=complex)
    states[0] = psi0

    def carry(part: slice, steps: np.ndarray) -> None:
        states[part.start:part.stop + 1] = propagate_states(steps, states[part.start])

    _streamed_midpoint_steps(hm, hm.times, hm.constants, carry)
    return SectionAlongPath(hm.times, states)


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
    looked up at once, and every distinct (t_j, t_i) pair of both axioms is
    queried once, in one stack (`transport.matrices_by_index`); the
    deviations are formed one time block of times or triples at a time.  The worst
    location is the first maximum in sample order (grid indices in order of
    first appearance for the identity), and a NaN deviation counts as the
    maximum, so it fails.
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
    # every (j, i) pair of both axioms, each queried once: U(t_j, t_i) does not
    # depend on the other pairs of its query
    n_times = transport.times.size
    pairs, at = np.unique(np.concatenate([seen, it, isx, it]) * n_times
                          + np.concatenate([seen, isx, ir, ir]), return_inverse=True)
    queried = transport.matrices_by_index(*np.divmod(pairs, n_times))
    identity, step_ts, step_sr, direct = np.split(at, np.cumsum([seen.size, it.size, it.size]))

    eye = np.eye(transport.dimension, dtype=complex)
    id_devs = series_by_blocks(seen.size, transport.dimension, lambda part: np.max(
        np.abs(queried[identity[part]] - eye), axis=(1, 2)))
    worst_id = int(np.argmax(id_devs))

    comp_devs = series_by_blocks(it.size, transport.dimension, lambda part: np.max(np.abs(
        queried[step_ts[part]] @ queried[step_sr[part]] - queried[direct[part]]), axis=(1, 2)))
    worst_comp = int(np.argmax(comp_devs))
    return TransportAxiomReport(
        float(id_devs[worst_id]), float(comp_devs[worst_comp]),
        float(triples.ravel()[first_seen[worst_id]]),
        tuple(float(x) for x in triples[worst_comp]))
