"""Trivializations, lifts into fibres, and the Hilbert-module structure.

Fibres are represented in a fixed coordinate frame of dimension n.  A
trivialization family t -> l(t) is an invertible matrix mapping the fibre at
gamma(t) onto the typical fibre; it need not be unitary because the fibre
metric is induced through it:

    <u | v>_t = <l(t) u | l(t) v>

which makes every l(t) an isometry onto the typical fibre by construction.

Every frame stack S the package inverts (the trivialization on the grid and at
the midpoints, the random picture) is inverted by one rule, decided from the
samples alone: if max|S^dagger S - I| <= 1e-13, S is unitary to rounding and
S^-1 = S^dagger, which also proves it invertible, so no SVD, `inv` or solve
runs; otherwise the SVD ratio check proves it invertible, and `np.linalg.inv`
inverts the rows each read selects.  The test runs one `time_blocks` slice at
a time, and only a slice that fails it is taken to the SVD.  Each batch a
family samples, in one call of its sampler (one time block of midpoints, a
library caller's batch), is proven once, when it is sampled, into a
`FrameInverse`, which every reader indexes: each read forms S^dagger, or the
`inv`, of the rows it selects, so no whole inverse stack is held.  A broadcast
is proven and inverted on its one matrix, once per batch.

A family's l(t_k) depends on t_k alone, bit for bit, so the grid frames need
not be held: `TrivializationFamily.validate_on_grid` samples the grid one
`time_blocks` slice at a time and reduces each slice, on the worker that
sampled it, to the invertibility proof and the derivative test's maxima,
keeping only the few rows that the stencils across slices read.  The grid's
frames are then read through `GridFrames`, which samples the values at the
times each read selects; only a broadcast of one matrix keeps its values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .hilbert import (
    _formed_in_order,
    _frozen,
    _in_block_order,
    antihermitian_exponentials,
    apply,
    as_operator,
    broadcast_sampler,
    checked_stack,
    distinct_matrices,
    inner_products,
    is_broadcast,
    max_abs,
    time_blocks,
)

__all__ = [
    "FrameInverse",
    "GridFrames",
    "MorphismAlongPath",
    "NonPointwiseOperatorError",
    "SectionAlongPath",
    "SingularTrivializationError",
    "TrivializationFamily",
    "bundle_adjoint_maps",
    "constant_trivialization",
    "diagonal_phase_trivialization",
    "fibre_inner_products",
    "global_phase_trivialization",
    "identity_trivialization",
    "lift_operator",
    "lift_operator_on_grid",
    "lift_operators",
    "lift_trajectory",
    "module_combine",
    "morphism_as_section_operator",
    "random_smooth_unitary_trivialization",
    "section_operator_as_morphism",
]


class SingularTrivializationError(ValueError):
    """The trivialization is not invertible (to tolerance) where required."""


class NonPointwiseOperatorError(ValueError):
    """A section operator couples distinct grid times and admits no morphism."""


# Smallest accepted ratio of the smallest to the largest singular value of l(t).
_INVERTIBILITY_TOL = 1e-8
# Scaled allowance of the analytic-versus-finite-difference derivative comparison.
_DERIVATIVE_FD_TOL = 1e-3
# Largest max|S^dagger S - I| at which a frame stack S counts as unitary.  With
# S^-1 = S^dagger the transport identity U(t, t) = I reads S^dagger S directly,
# so this stays below that check's 1e-12 tolerance; real gauges measure <= 3.1e-15.
_UNITARY_TOL = 1e-13


class FrameInverse:
    """S^-1 of a checked (N, n, n) stack S, read one index, slice or index array at a
    time: `inverse[idx]` is the inverse of `S[idx]`.

    `_frame_inverse` decides which it is for a frame stack, once, from the
    samples.  It holds no inverse of a stack: each read inverts the rows it
    selects, C-contiguous, so a read has the bits and the layout that the same
    rows of a whole inverse stack have.  Over a stack proven unitary
    (`adjoint=True`) a read forms S^dagger; otherwise (`adjoint=False`, as for
    the conventional U(t0, t) of `PropagatorGrid.into_t0`) it inverts each
    selected matrix alone by `np.linalg.inv`, so a read has the bits of the same
    rows of the whole-stack inverse.  `stack`, given, is a broadcast's inverse,
    the read-only broadcast of its one matrix's, and a read is its rows.  `S` may
    be any reader by index, such as `GridFrames` or
    `dynamics.CheckpointedProducts`; `read` inverts rows of it that a caller has
    read already.  A library caller that wants every S^-1 as one stack reads
    `inverse[:]`.
    """

    def __init__(self, frames, stack: Optional[np.ndarray] = None, adjoint: bool = True):
        self._frames = frames
        self._stack = None if stack is None else _frozen(stack)
        self._adjoint = adjoint

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self._frames if self._stack is None else self._stack).shape

    def __getitem__(self, index) -> np.ndarray:
        if self._stack is not None:
            return self._stack[index]
        frames = self._frames[index]
        if not self._adjoint:
            return np.linalg.inv(frames)
        return np.conjugate(np.swapaxes(frames, -2, -1),
                            out=np.empty(frames.shape, dtype=complex))

    def read(self, index, frames: np.ndarray) -> np.ndarray:
        """`inverse[index]` from `frames`, the rows S[index] that the caller has read
        already, so they are not read (or sampled) again: `FrameInverse(frames,
        adjoint=...)[:]` by this inverse's rule, or a broadcast's rows."""
        if self._stack is not None:
            return self._stack[index]
        return FrameInverse(frames, adjoint=self._adjoint)[:]


def _gram_passes(mats: np.ndarray) -> bool:
    """max|S^dagger S - I| <= 1e-13 over a slice of a stack, S^dagger formed per read."""
    gram = FrameInverse(mats)[:] @ mats
    gram -= np.eye(mats.shape[-1])
    return max_abs(gram) <= _UNITARY_TOL


def _slice_proof(mats: np.ndarray) -> Optional[Tuple[float, int]]:
    """None where the samples of one slice prove S unitary, max|S^dagger S - I| <=
    1e-13; else the slice's smallest ratio of the smallest to the largest singular
    value, and the first index where it is reached.

    Within that bound S^dagger is S^-1 to rounding, and every singular value of
    S lies within 1 +- n 1e-13, so S also passes the 1e-8 invertibility ratio;
    only a slice that fails the test is taken to the SVD.
    """
    if _gram_passes(mats):
        return None
    svals = np.linalg.svd(mats, compute_uv=False)
    ratios = svals[:, -1] / np.maximum(svals[:, 0], 1e-300)
    worst = int(np.argmin(ratios))
    return float(ratios[worst]), worst


def _proven_unitary(proofs: Sequence[Optional[Tuple[float, int]]], starts: Sequence[int],
                    name: str, times) -> bool:
    """Whether the slices' proofs (`_slice_proof`, the slices starting at `starts`, in
    block order) prove the whole stack unitary; a SingularTrivializationError names
    the family and the first time of the smallest ratio below 1e-8, the stack's
    first worst time, as one SVD of every matrix would find it."""
    failed = [(ratio, start + k) for proof, start in zip(proofs, starts) if proof is not None
              for ratio, k in [proof]]
    if not failed:
        return True
    ratio, worst = min(failed, key=lambda pair: pair[0])  # the first of equal minima
    if ratio < _INVERTIBILITY_TOL:
        at = np.atleast_1d(np.asarray(times, dtype=float))[worst]
        raise SingularTrivializationError(f"trivialization '{name}' is singular at t={at:g}")
    return False


def _frame_inverse(mats: np.ndarray, unitary: Optional[bool] = None) -> FrameInverse:
    """S^-1 over an (N, n, n) stack, the one place that decides its representation:
    S^dagger formed per read where S is unitary, else `np.linalg.inv` per read.

    `unitary`, by default, is decided by the Gram test alone (`_gram_passes`,
    one `time_blocks` slice at a time on the workers), with no proof of
    invertibility.  A broadcast is tested and inverted on its one matrix
    (`distinct_matrices`), and its inverse is a read-only broadcast of that
    matrix's.
    """
    distinct = distinct_matrices(mats)
    if unitary is None:
        unitary = all(_in_block_order(lambda part: _gram_passes(distinct[part]),
                                      time_blocks(*distinct.shape[:2])))
    inverse = FrameInverse(distinct, adjoint=unitary)
    return inverse if distinct is mats else FrameInverse(
        mats, np.broadcast_to(inverse[:], mats.shape))


def _require_invertible(mats: np.ndarray, name: str, times) -> FrameInverse:
    """The inverse of a family's frame stack (`_frame_inverse`), once it is proven invertible.

    A stack unitary to 1e-13 is proven by that test.  Any other must keep each
    smallest singular value >= 1e-8 times the largest, else
    SingularTrivializationError names the family and the first worst time.
    Each `time_blocks` slice is proven on the workers (`_slice_proof`).
    """
    distinct = distinct_matrices(mats)
    parts = time_blocks(*distinct.shape[:2])
    proofs = _in_block_order(lambda part: _slice_proof(distinct[part]), parts)
    return _frame_inverse(mats, _proven_unitary(proofs, [part.start for part in parts],
                                                name, times))


class TrivializationFamily:
    """Differentiable family t -> l(t) of invertible fibre-to-typical-fibre maps.

    `sample` maps a 1-D array of N times to the pair of stacks
    (l(t_k), dl/dt(t_k)), each of shape (N, n, n), from one evaluation; `values`,
    given, maps them to the stack l(t_k) alone, with the bits of `sample`'s first
    output, which it is by default.  Each l(t_k) and dl/dt(t_k) depends on t_k
    alone, bit for bit: a time has the same samples in every batch it is sampled
    in (one `time_blocks` slice, the whole grid, or an index array with
    repeats), by either sampler.  The grid check and `GridFrames` rest on that.
    Each batch is sampled in one call and checked once: both shapes and
    finiteness (ValueError naming the family) and the invertibility of the
    values, which also inverts them (`_require_invertible`); single-time queries
    are batches of one.  The engine's batches are at most one `time_blocks`
    slice.
    """

    def __init__(self, sample: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
                 dimension: int, name: str = "custom",
                 values: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._sample = sample
        self._values = values if values is not None else (lambda ts: sample(ts)[0])
        # whether the values sampler is one of its own, which the grid check then
        # holds to the joint sampler's values
        self._own_values = values is not None
        self.dimension = int(dimension)
        self.name = name

    def with_derivative(self, derivative: Callable[[np.ndarray], np.ndarray]
                        ) -> "TrivializationFamily":
        """The same values, dimension and name with another derivative sampler."""
        values = self._values
        family = TrivializationFamily(lambda ts: (values(ts), derivative(ts)),
                                      self.dimension, self.name, values)
        family._own_values = False  # its joint sampler's values are the values sampler's
        return family

    def at(self, t: float) -> np.ndarray:
        return self.at_many(np.array([float(t)]))[0]

    def at_many(self, times) -> np.ndarray:
        """The stack l(t_k), sampled once by the values sampler and checked invertible
        once."""
        return self._inverted(times)[0]

    def _inverted(self, times) -> Tuple[np.ndarray, FrameInverse]:
        """The stack l(t_k) from the values sampler, and the inverse its check decided."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values, = self._sampled(times, joint=False)
        return values, _require_invertible(values, self.name, times)

    def derivative_at_many(self, times) -> Tuple[np.ndarray, np.ndarray, FrameInverse]:
        """The stacks l(t_k) and dl/dt(t_k) from one evaluation, and l(t_k)^-1.

        l is checked invertible once, and that check decides the inverse (a
        `FrameInverse`, read by index), so no reader inverts the stack again.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values, derivative = self._sampled(times, joint=True)
        return values, derivative, _require_invertible(values, self.name, times)

    def _sampled(self, times: np.ndarray, joint: bool) -> Tuple[np.ndarray, ...]:
        """(l, dl/dt) at `times` from the joint sampler, or (l,) from the values sampler,
        each stack's shape and finiteness checked."""
        what = f"trivialization '{self.name}'"
        if not joint:
            return (checked_stack(self._values(times), times, self.dimension, what),)
        values, derivative = self._sample(times)
        return (checked_stack(values, times, self.dimension, what),
                checked_stack(derivative, times, self.dimension, f"{what} derivative"))

    def validate_on_grid(self, times) -> Tuple[Union[np.ndarray, GridFrames], FrameInverse]:
        """Check invertibility at every grid time and derivative consistency, in one
        reducing pass over the grid; returns the frames and their `FrameInverse`.

        Every grid value must be unitary to 1e-13 or keep its smallest singular
        value >= 1e-8 * largest.  The derivative must match central finite
        differences of the values at interior grid points; the allowance is
        1e-3 (scaled) plus the finite-difference truncation floor estimated from
        the sampled third derivative, so correct derivatives pass on coarse
        grids while order-one mistakes are still caught.

        Values and derivative come from one evaluation per `time_blocks` slice,
        each time sampled once by the joint sampler.  On the worker that sampled
        it, each slice is reduced to its Gram test (and, only where that fails,
        its SVD ratios), its largest |dl/dt| at interior times and its largest
        deviation and third difference where their stencils lie inside it, and
        keeps its first and last four values and its edge times' dl/dt
        (`_GridTest.share`).  The slices are then folded in grid order
        (`hilbert._formed_in_order`, `_GridTest.use`), which forms the stencils
        across each slice's start from the values kept before it, so the three
        maxima the test compares (the derivative's scale, the third
        difference's and the deviation's) are those of the whole interior, and
        neither the values nor the derivative is a whole stack.  The inverse is
        decided from the proofs of all the slices, unitary only if each passes
        its Gram test, and the frames are checked invertible before the
        derivative is judged.

        The frames returned are the checked values where they broadcast one
        matrix; on any other grid they are a `GridFrames`, which samples them
        again, by the values sampler, where they are read, and their
        `FrameInverse` inverts each read.  A values sampler of the family's own
        is held to the joint sampler's values on the first slice, bit for bit,
        else a ValueError names the family: the inverse that the joint samples
        proved is the one each read of the values sampler's rows is inverted by.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            values, _, inverse = self.derivative_at_many(times)
            return values, inverse
        parts = time_blocks(times.size, self.dimension)
        first = [self._sampled(times[parts[0]], True)]
        test = _GridTest(times)
        if is_broadcast(first[0][0]):
            values, derivative = first.pop() if len(parts) == 1 else self._sampled(times, True)
            frames, inverse = values, _require_invertible(values, self.name, times)
            for part in parts:
                test.use(part, test.share(part, values[part], derivative[part]))
            test.judge(self.name)
            return frames, inverse
        if self._own_values and not np.array_equal(self._sampled(times[parts[0]], False)[0],
                                                   first[0][0]):
            raise ValueError(f"trivialization '{self.name}': the values sampler differs from "
                             "the joint sampler's values")

        def form(part: slice) -> tuple:
            values, derivative = (first.pop() if part.start == 0
                                  else self._sampled(times[part], True))
            return _slice_proof(values), test.share(part, values, derivative)

        proofs = []  # each slice's `_slice_proof`, in block order

        def use(part: slice, formed: tuple) -> None:
            proofs.append(formed[0])
            test.use(part, formed[1])

        frames = GridFrames(self, times, first[0][0][0].copy())
        _formed_in_order(form, use, parts)
        inverse = FrameInverse(frames, adjoint=_proven_unitary(
            proofs, [part.start for part in parts], self.name, times))
        test.judge(self.name)
        return frames, inverse


class GridFrames:
    """The checked frames l(t_k) of a family on a grid, read by index like an
    (N, n, n) array: `frames[idx]` for an int, a slice or an index
    array (of any shape, repeats and any order allowed) is a new C-contiguous
    array of those rows.

    A read samples the family's values sampler at the distinct times it selects,
    each once, and checks them; since l(t_k) depends on t_k alone, bit for bit,
    a row has the bits it had in the grid check, and in any other read.  Only
    l(t0), which every t0 reader shares, is kept, so no stack of the frames is
    held.  `TrivializationFamily.validate_on_grid` builds it, once the grid is
    checked.
    """

    def __init__(self, family: TrivializationFamily, times: np.ndarray, first: np.ndarray):
        self._family, self._times, self._first = family, times, _frozen(first)
        self.shape = (times.size,) + first.shape

    def __getitem__(self, index) -> np.ndarray:
        wanted = np.arange(self.shape[0])[index]
        if isinstance(index, slice):  # distinct and in order: no gather
            distinct, at = wanted, None
        else:
            distinct, at = np.unique(wanted, return_inverse=True)
        if distinct.size == 0:
            return np.empty(wanted.shape + self.shape[1:], dtype=complex)
        if distinct.size == 1 and distinct[0] == 0:
            rows = self._first[None].copy()
        else:
            rows, = self._family._sampled(self._times[distinct], joint=False)
        return np.ascontiguousarray(rows) if at is None else rows[at.reshape(wanted.shape)]


def _third_differences(v0: np.ndarray, v1: np.ndarray, v3: np.ndarray, v4: np.ndarray,
                       h: float) -> np.ndarray:
    """(v4 - 2 v3 + 2 v1 - v0) / (2 h^3) over stacks, in one temporary updated in place,
    in this order, so each has the same bits over any cut of the grid."""
    third = v3 * 2
    np.subtract(v4, third, out=third)
    third += 2 * v1
    third -= v0
    third /= 2 * h ** 3
    return third


# Values kept at each end of a grid slice: the third difference reads four times ahead.
_STENCIL_REACH = 4


class _GridTest:
    """The derivative test of `validate_on_grid`, folded over the grid's slices in grid
    order: each slice's share (`share`, formed on its worker) and the stencils
    across its start (`use`), which read the last four values before it, the only
    values held between slices.

    The deviation at time k is dl/dt(t_k) - (l_{k+1} - l_{k-1}) / (t_{k+1} - t_{k-1})
    and the third difference (l_{k+4} - 2 l_{k+3} + 2 l_{k+1} - l_k) / (2 h^3),
    each formed elementwise by the same operations wherever its stencil lies,
    so each has the same bits over any cut and the maxima are exact.
    """

    def __init__(self, times: np.ndarray):
        # the third differences' step, which a grid of fewer than five times never reads
        self.times, self.h = times, float(np.mean(np.diff(times))) if times.size >= 5 else 1.0
        self.scale = self.dev = self.third = 0.0
        self._window: Optional[np.ndarray] = None  # the last four values before the slice
        self._pending: Optional[np.ndarray] = None  # dl/dt at the last time before it, (1, n, n)

    def share(self, part: slice, values: np.ndarray, derivative: np.ndarray) -> tuple:
        """The slice's largest |dl/dt| at interior times, its largest deviation and
        third difference where their stencils lie inside it, its first and last
        four values, and dl/dt at its first and last times."""
        a, c, n_times = part.start, part.stop, self.times.size
        inner = np.arange(a + 1, c - 1)  # the times whose two neighbours the slice holds
        dev = values[2:] - values[:-2]
        dev /= (self.times[inner + 1] - self.times[inner - 1])[:, None, None]
        np.subtract(derivative[1:-1], dev, out=dev)
        dev = max_abs(dev)  # one temporary at a time
        m = max(0, c - a - _STENCIL_REACH)  # the third differences at k = a .. a + m - 1
        third = max_abs(_third_differences(values[:m], values[1:m + 1], values[3:m + 3],
                                           values[4:m + 4], self.h))
        reach = min(_STENCIL_REACH, c - a)
        return (max_abs(derivative[max(1, a) - a:min(c, n_times - 1) - a]), dev, third,
                values[:reach].copy(), values[c - a - reach:].copy(),
                derivative[[0, -1]].copy())

    def use(self, part: slice, share: tuple) -> None:
        """Fold one slice's share in, in grid order: the deviations at the time before
        its start and at its start, and the third differences that reach into it
        from before its start."""
        scale, dev, third, head, tail, ends = share
        a, c, n_times = part.start, part.stop, self.times.size
        self.scale, self.dev, self.third = (max(self.scale, scale), max(self.dev, dev),
                                            max(self.third, third))
        window = head[:0] if self._window is None else self._window
        local = np.concatenate([window, head])  # the values from a - len(window) on

        def rows(ks) -> np.ndarray:
            return local[np.asarray(ks, dtype=np.intp) - (a - len(window))]

        # the deviation at a time whose right neighbour is the slice's first (the last
        # time before it) or second (its first time)
        edges = ([a - 1] if self._pending is not None else []) + ([a] if 1 <= a < c - 1 else [])
        if edges:
            supplied = np.concatenate(([self._pending] if self._pending is not None else [])
                                      + ([ends[:1]] if edges[-1] == a else []))
            ks = np.array(edges)
            at_edges = rows(ks + 1) - rows(ks - 1)
            at_edges /= (self.times[ks + 1] - self.times[ks - 1])[:, None, None]
            np.subtract(supplied, at_edges, out=at_edges)
            self.dev = max(self.dev, max_abs(at_edges))
        last = c - 1  # its deviation needs the next slice's first value
        self._pending = ends[1:] if 1 <= last <= n_times - 2 else None
        crossing = np.arange(max(0, a - _STENCIL_REACH), min(a, c - _STENCIL_REACH))
        if crossing.size:
            self.third = max(self.third, max_abs(_third_differences(
                rows(crossing), rows(crossing + 1), rows(crossing + 3), rows(crossing + 4),
                self.h)))
        self._window = np.concatenate([window, tail])[-_STENCIL_REACH:]

    def judge(self, name: str) -> None:
        """A ValueError naming the family where the largest deviation exceeds the
        allowance."""
        allowance = _DERIVATIVE_FD_TOL * max(1.0, self.scale)
        if self.times.size >= 5:
            allowance += (self.h * self.h / 6.0) * self.third * 4.0
        if self.dev > allowance:
            raise ValueError(
                f"trivialization '{name}': analytic derivative deviates from "
                f"finite differences by {self.dev:.3e} (allowed {allowance:.3e})")


# --- catalog families ---------------------------------------------------

def identity_trivialization(dimension: int) -> TrivializationFamily:
    """l(t) = I, sampled as read-only broadcasts (`hilbert.broadcast_sampler`)."""
    return TrivializationFamily(broadcast_sampler(np.eye(dimension, dtype=complex)), dimension,
                                name="identity")


def global_phase_trivialization(dimension: int, omega: float) -> TrivializationFamily:
    eye = np.eye(dimension, dtype=complex)

    def sample(ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        phases = np.exp(1j * omega * ts)
        return phases[:, None, None] * eye, (1j * omega * phases)[:, None, None] * eye

    return TrivializationFamily(sample, dimension, name="global-phase")


def diagonal_phase_trivialization(omegas: Sequence[float]) -> TrivializationFamily:
    freqs = np.asarray(omegas, dtype=float)
    if freqs.ndim != 1 or freqs.size < 1:
        raise ValueError("omegas must be a non-empty 1-D sequence")
    eye = np.eye(freqs.size)

    def sample(ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        phases = np.exp(1j * np.outer(ts, freqs))
        return phases[:, :, None] * eye, (1j * freqs * phases)[:, :, None] * eye

    return TrivializationFamily(sample, freqs.size, name="diagonal-phase")


def constant_trivialization(matrix, name: str = "constant") -> TrivializationFamily:
    """l(t) = M, checked invertible here and sampled as read-only broadcasts."""
    m = as_operator(matrix)
    _require_invertible(m[None], name, 0.0)
    return TrivializationFamily(broadcast_sampler(m), m.shape[0], name=name)


def _seeded_smooth_unitary(dimension: int, seed_key: Sequence[int], scale: float,
                           frequency: float):
    """Samplers of V(s) = exp(s K1) exp(sin(w s) K2): of V alone, and of (V, dV/ds).

    K1, K2 are anti-Hermitian generators drawn in turn from
    `default_rng(seed_key)`.  Each is diagonalized once
    (`antihermitian_exponentials`), so a whole stack of values costs two
    batched products per factor and every sample is unitary to rounding.
    Each generator commutes with its own factor, so the derivative is
    K1 V + w cos(w s) V K2, two products on the values.  The random gauge
    family and the random picture of motion (values only) share it.
    """
    rng = np.random.default_rng(list(seed_key))
    gens = []
    for _ in range(2):
        m = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
        herm = (m + m.conj().T) / 2.0
        gens.append(1j * scale * herm / max(1.0, np.sqrt(dimension)))
    k1, k2 = gens
    exp1, exp2 = antihermitian_exponentials(k1), antihermitian_exponentials(k2)

    def values(s: np.ndarray) -> np.ndarray:
        return exp1(s) @ exp2(np.sin(frequency * s))

    def with_derivative(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        v = values(s)
        derivative = v @ k2
        derivative *= (frequency * np.cos(frequency * s))[:, None, None]
        derivative += k1 @ v
        return v, derivative

    return values, with_derivative


def random_smooth_unitary_trivialization(dimension: int, seed: int, scale: float = 0.6,
                                         frequency: float = 2.5) -> TrivializationFamily:
    """Seeded smooth unitary family l(t) = exp(t K1) exp(sin(w t) K2).

    K1, K2 are anti-Hermitian, so every value is unitary; each factor is a
    single-generator exponential whose derivative is elementary, and the
    product rule gives the family's analytic derivative, formed from the
    values in the same evaluation.  Both generators are diagonalized once when
    the family is built, and every frame stack is V diag(exp(i s lam)) V^dagger
    per factor (no series exponentials).
    """
    values, sample = _seeded_smooth_unitary(dimension, [int(seed), 0x51], scale, frequency)
    return TrivializationFamily(sample, dimension, name="random-smooth-unitary", values=values)


# --- sections and morphisms along paths ----------------------------------

@dataclass(frozen=True)
class SectionAlongPath:
    """Fibre vectors keyed by the path parameter (never by the base point)."""

    times: np.ndarray
    values: np.ndarray  # (N, n)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if times.ndim != 1 or values.ndim != 2 or values.shape[0] != times.shape[0]:
            raise ValueError("need one fibre vector per grid time")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MorphismAlongPath:
    """Fibre operators keyed by the path parameter."""

    times: np.ndarray
    matrices: np.ndarray  # (N, n, n)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[0] != times.shape[0]:
            raise ValueError("need one square fibre operator per grid time")
        times.setflags(write=False)
        mats.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)


def _same_grid(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape or not np.array_equal(a, b):
        raise ValueError("operands are sampled on different grids")


# --- lifting --------------------------------------------------------------

def lift_operators(frames: np.ndarray, inverse_frames: np.ndarray, a) -> np.ndarray:
    """l(t_k)^-1 A_k l(t_k) over stacks of checked frames; one frame or A broadcasts.

    Takes the inverses l^-1 the caller already holds (rows of a transport's
    `inverse_frames`), in the argument order of `bundle_adjoint_maps`, so a
    lift is two batched products and nothing is solved per call.
    """
    return inverse_frames @ (np.asarray(a, dtype=complex) @ frames)


def lift_operator(l: TrivializationFamily, t: float, a) -> np.ndarray:
    """l(t)^-1 A l(t): the fibre morphism of a typical-fibre operator."""
    frames, inverse = l._inverted(t)
    return lift_operators(frames[0], inverse[0], as_operator(a))


def lift_trajectory(l: TrivializationFamily, times, states) -> SectionAlongPath:
    """Lift a whole state history into the fibres, inverting the frames once."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    _, inverse = l._inverted(times)
    return SectionAlongPath(times, apply(inverse[:], states))


def lift_operator_on_grid(l: TrivializationFamily, times, a) -> MorphismAlongPath:
    """Lift one operator (or a stack, one per time) at every grid time."""
    times = np.asarray(times, dtype=float)
    frames, inverse = l._inverted(times)
    return MorphismAlongPath(times, lift_operators(frames, inverse[:], a))


# --- fibre metric and adjoints ---------------------------------------------

def fibre_inner_products(frames: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The fibre metric <u|v>_t = <l(t) u | l(t) v> over stacks; one frame broadcasts."""
    return inner_products(apply(frames, u), apply(frames, v))


def bundle_adjoint_maps(ls: np.ndarray, lt_inv: np.ndarray, a: np.ndarray) -> np.ndarray:
    """l_t^-1 (l_s A l_t^-1)^dagger l_s over stacks of checked frames and maps.

    Takes the inverses l_t^-1 the caller already holds (rows of a transport's
    `inverse_frames`), so nothing is inverted again per map.
    """
    return lt_inv @ np.swapaxes((ls @ a @ lt_inv).conj(), -2, -1) @ ls


# --- Hilbert-module structure on sections -----------------------------------

def module_combine(f, phi: SectionAlongPath, g, psi: SectionAlongPath) -> SectionAlongPath:
    """Pointwise combination t -> f(t) phi(t) + g(t) psi(t)."""
    _same_grid(phi.times, psi.times)
    f = np.broadcast_to(np.asarray(f, dtype=complex), phi.times.shape)
    g = np.broadcast_to(np.asarray(g, dtype=complex), psi.times.shape)
    return SectionAlongPath(phi.times, f[:, None] * phi.values + g[:, None] * psi.values)


def morphism_as_section_operator(a: MorphismAlongPath, phi: SectionAlongPath) -> SectionAlongPath:
    """Apply a morphism pointwise to a section: (A Phi)(t) = A(t) Phi(t)."""
    _same_grid(a.times, phi.times)
    return SectionAlongPath(phi.times, apply(a.matrices, phi.values))


def section_operator_as_morphism(op: Callable[[SectionAlongPath], SectionAlongPath],
                                 times, dimension: int) -> MorphismAlongPath:
    """Recover the morphism behind a pointwise section operator by probing.

    Probes with time-localized basis sections; any output support away from
    the probed grid time means the operator couples distinct times and has no
    morphism representation.
    """
    times = np.asarray(times, dtype=float)
    n = int(dimension)
    mats = np.zeros((times.size, n, n), dtype=complex)
    for k in range(times.size):
        for j in range(n):
            probe_values = np.zeros((times.size, n), dtype=complex)
            probe_values[k, j] = 1.0
            out = op(SectionAlongPath(times, probe_values))
            _same_grid(out.times, times)
            support = np.any(out.values != 0, axis=1)
            support[k] = False
            if np.any(support):
                raise NonPointwiseOperatorError(
                    f"section operator couples time {times[k]:g} to other grid times")
            mats[k, :, j] = out.values[k]
    return MorphismAlongPath(times, mats)
