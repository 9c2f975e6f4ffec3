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
runs; otherwise the SVD ratio check and `np.linalg.inv` run as for any
invertible matrix.  Each batch a family samples (the grid, or one time block
of midpoints) is proven once, when it is sampled, into a `FrameInverse`, which
every reader indexes: over a unitary stack each read forms S^dagger of the
rows it selects, so no whole inverse stack is held; otherwise a read is rows
of the one `inv` stack.  A broadcast is proven and inverted on its one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .hilbert import (
    _frozen,
    _in_block_order,
    antihermitian_exponentials,
    apply,
    as_operator,
    broadcast_sampler,
    checked_stack,
    distinct_matrices,
    inner_products,
    max_abs,
    time_blocks,
)

__all__ = [
    "FrameInverse",
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
    samples.  Over a stack proven unitary it holds no inverse: each read forms
    S^dagger of the rows it selects, C-contiguous, so a read has the bits and
    the layout that the same rows of a whole adjoint stack have, and no whole
    inverse stack is held.  Otherwise it holds `stack`, the read-only
    `np.linalg.inv` stack or the broadcast of a broadcast's one inverse, and a
    read is its rows.  With `adjoint=False` and no `stack` (the conventional
    U(t0, t) of `PropagatorGrid.into_t0`) it holds no inverse either: each read
    inverts the rows it selects by `np.linalg.inv`, which inverts each matrix
    alone, so a read has the bits of the same rows of the whole-stack inverse.
    `whole`, the whole stack formed on first use and read only, is for library
    callers; the engine never reads it.
    """

    def __init__(self, frames: np.ndarray, stack: Optional[np.ndarray] = None,
                 adjoint: bool = True):
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

    @cached_property
    def whole(self) -> np.ndarray:
        """Every S^-1 as one read-only stack, formed once."""
        return _frozen(self[:]) if self._stack is None else self._stack


def _proven_unitary(mats: np.ndarray, adjoint: FrameInverse) -> bool:
    """Whether the samples prove S unitary: max|S^dagger S - I| <= 1e-13, S^dagger
    read from `adjoint`, the per-read adjoint of `mats`.

    Within that bound S^dagger is S^-1 to rounding, and every singular value of
    S lies within 1 +- n 1e-13, so S also passes the 1e-8 invertibility ratio.
    The Gram product is formed one `time_blocks` slice of the (N, n, n) stack at
    a time, on the workers; once one slice fails the test, the slices not yet
    started skip it.
    """
    eye = np.eye(mats.shape[-1])
    unitary = [True]

    def gram_test(part: slice) -> None:
        if unitary[0]:
            gram = adjoint[part] @ mats[part]
            gram -= eye
            if max_abs(gram) > _UNITARY_TOL:
                unitary[0] = False

    _in_block_order(gram_test, time_blocks(*mats.shape[:2]))
    return unitary[0]


def _frame_inverse(mats: np.ndarray,
                   prove: Callable[[np.ndarray], None] = lambda distinct: None) -> FrameInverse:
    """S^-1 over an (N, n, n) stack, the one place that decides its representation:
    S^dagger formed per read where the samples prove S unitary, else the
    `np.linalg.inv` stack, after `prove` has passed on the matrices that are not.

    A broadcast is tested and inverted on its one matrix (`distinct_matrices`),
    and its inverse is a read-only broadcast of that matrix's.
    """
    distinct = distinct_matrices(mats)
    inverse = FrameInverse(distinct)
    if not _proven_unitary(distinct, inverse):
        prove(distinct)
        inverse = FrameInverse(distinct, np.linalg.inv(distinct))
    return inverse if distinct is mats else FrameInverse(
        mats, np.broadcast_to(inverse[:], mats.shape))


def _require_invertible(mats: np.ndarray, name: str, times) -> FrameInverse:
    """The inverse of a family's frame stack (`_frame_inverse`), once it is proven invertible.

    A stack unitary to 1e-13 is proven by that test.  Any other must keep each
    smallest singular value >= 1e-8 times the largest, else
    SingularTrivializationError names the family and the first worst time.
    """
    def prove(distinct: np.ndarray) -> None:
        svals = np.linalg.svd(distinct, compute_uv=False)
        ratios = svals[:, -1] / np.maximum(svals[:, 0], 1e-300)
        worst = int(np.argmin(ratios))
        if float(ratios[worst]) < _INVERTIBILITY_TOL:
            at = np.atleast_1d(np.asarray(times, dtype=float))[worst]
            raise SingularTrivializationError(f"trivialization '{name}' is singular at t={at:g}")

    return _frame_inverse(mats, prove)


class TrivializationFamily:
    """Differentiable family t -> l(t) of invertible fibre-to-typical-fibre maps.

    `sample` maps a 1-D array of N times to the pair of stacks
    (l(t_k), dl/dt(t_k)), each of shape (N, n, n), from one evaluation.  Each
    batch is checked once: both shapes and finiteness (ValueError naming the
    family) and the invertibility of the values, which also inverts them
    (`_require_invertible`); single-time queries are batches of one.
    """

    def __init__(self, sample: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
                 dimension: int, name: str = "custom"):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._sample = sample
        self.dimension = int(dimension)
        self.name = name

    def with_derivative(self, derivative: Callable[[np.ndarray], np.ndarray]
                        ) -> "TrivializationFamily":
        """The same values, dimension and name with another derivative sampler."""
        sample = self._sample
        return TrivializationFamily(lambda ts: (sample(ts)[0], derivative(ts)),
                                    self.dimension, self.name)

    def at(self, t: float) -> np.ndarray:
        return self.at_many(np.array([float(t)]))[0]

    def at_many(self, times) -> np.ndarray:
        """The stack l(t_k), sampled once and checked invertible once."""
        return self._checked(times)[0]

    def derivative_at_many(self, times) -> Tuple[np.ndarray, np.ndarray, FrameInverse]:
        """The stacks l(t_k) and dl/dt(t_k) from one evaluation, and l(t_k)^-1.

        l is checked invertible once, and that check decides the inverse (a
        `FrameInverse`, read by index), so no reader inverts the stack again.
        """
        return self._checked(times)

    def _checked(self, times) -> Tuple[np.ndarray, np.ndarray, FrameInverse]:
        """The checked values, derivative and inverse of one sampled batch.

        A batch of several `time_blocks` slices is sampled one slice per call,
        on the workers, into its two stacks; each slice is checked as it is
        sampled.  If the first slice's values or derivative are a 0-stride
        broadcast, the whole batch is sampled in one call instead, so a constant
        family stays one broadcast.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        what = f"trivialization '{self.name}'"

        def checked(ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            values, derivative = self._sample(ts)
            return (checked_stack(values, ts, self.dimension, what),
                    checked_stack(derivative, ts, self.dimension, f"{what} derivative"))

        parts = time_blocks(times.size, self.dimension)
        first = checked(times[parts[0]]) if len(parts) > 1 else None
        if first is None or any(stack.strides[0] == 0 for stack in first):
            values, derivative = checked(times)
        else:
            values, derivative = (np.empty((times.size,) + stack.shape[1:], dtype=complex)
                                  for stack in first)
            values[parts[0]], derivative[parts[0]] = first
            del first

            def sample(part: slice) -> None:
                values[part], derivative[part] = checked(times[part])

            _in_block_order(sample, parts[1:])
        return values, derivative, _require_invertible(values, self.name, times)

    def validate_on_grid(self, times) -> Tuple[np.ndarray, FrameInverse]:
        """Check invertibility at every grid time and derivative consistency.

        Every grid value must be unitary to 1e-13 or keep its smallest singular
        value >= 1e-8 * largest.  The derivative must match central finite
        differences of the values at interior grid points; the allowance is
        1e-3 (scaled) plus the finite-difference truncation floor estimated from
        the sampled third derivative, so correct derivatives pass on coarse
        grids while order-one mistakes are still caught.

        Values and derivative come from one evaluation on the grid; returns the
        checked grid values and their `FrameInverse`, so callers can reuse them
        instead of sampling or inverting the grid again.  Each stencil is
        formed one `time_blocks` slice at a time, on the workers.
        """
        times = np.asarray(times, dtype=float)
        values, derivative, inverse = self.derivative_at_many(times)

        def largest(count: int, entries: Callable[[slice], np.ndarray]) -> float:
            return max(_in_block_order(lambda part: max_abs(entries(part)),
                                       time_blocks(count, self.dimension)))

        if times.size >= 3:
            supplied, spans = derivative[1:-1], times[2:] - times[:-2]
            scale = largest(times.size - 2, lambda part: supplied[part])
            allowance = _DERIVATIVE_FD_TOL * max(1.0, scale)
            if times.size >= 5:
                h = float(np.mean(np.diff(times)))
                allowance += (h * h / 6.0) * largest(times.size - 4, lambda part: (
                    values[4:][part] - 2 * values[3:-1][part] + 2 * values[1:-3][part]
                    - values[:-4][part]) / (2 * h ** 3)) * 4.0
            dev = largest(times.size - 2, lambda part: supplied[part] - (
                values[2:][part] - values[:-2][part]) / spans[part, None, None])
            if dev > allowance:
                raise ValueError(
                    f"trivialization '{self.name}': analytic derivative deviates from "
                    f"finite differences by {dev:.3e} (allowed {allowance:.3e})")
        return values, inverse


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
    _, sample = _seeded_smooth_unitary(dimension, [int(seed), 0x51], scale, frequency)
    return TrivializationFamily(sample, dimension, name="random-smooth-unitary")


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
    frames, _, inverse = l.derivative_at_many(t)
    return lift_operators(frames[0], inverse[0], as_operator(a))


def lift_trajectory(l: TrivializationFamily, times, states) -> SectionAlongPath:
    """Lift a whole state history into the fibres, inverting the frames once."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    _, _, inverse = l.derivative_at_many(times)
    return SectionAlongPath(times, apply(inverse[:], states))


def lift_operator_on_grid(l: TrivializationFamily, times, a) -> MorphismAlongPath:
    """Lift one operator (or a stack, one per time) at every grid time."""
    times = np.asarray(times, dtype=float)
    frames, _, inverse = l.derivative_at_many(times)
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
