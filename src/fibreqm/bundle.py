"""Trivializations, lifts into fibres, and the Hilbert-module structure.

Fibres are represented in a fixed coordinate frame of dimension n.  A
trivialization family t -> l(t) is an invertible matrix mapping the fibre at
gamma(t) onto the typical fibre; it need not be unitary because the fibre
metric is induced through it:

    <u | v>_t = <l(t) u | l(t) v>

which makes every l(t) an isometry onto the typical fibre by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import (
    antihermitian_exponentials,
    apply,
    as_operator,
    checked_stack,
    inner_products,
    max_abs,
)

__all__ = [
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


def _require_invertible(mats: np.ndarray, name: str, times) -> None:
    svals = np.linalg.svd(mats, compute_uv=False)
    ratios = svals[..., -1] / np.maximum(svals[..., 0], 1e-300)
    worst = int(np.argmin(ratios))
    if float(ratios.flat[worst]) < _INVERTIBILITY_TOL:
        at = np.atleast_1d(np.asarray(times, dtype=float))[worst]
        raise SingularTrivializationError(f"trivialization '{name}' is singular at t={at:g}")


class TrivializationFamily:
    """Differentiable family t -> l(t) of invertible fibre-to-typical-fibre maps.

    `sample` maps a 1-D array of N times to the stack l(t_k), shape (N, n, n),
    and `derivative` maps them to the exact dl/dt(t_k).  Each batch is
    shape- and finiteness-checked once (ValueError naming the family);
    single-time queries are batches of one.
    """

    def __init__(self, sample: Callable[[np.ndarray], np.ndarray], dimension: int,
                 derivative: Callable[[np.ndarray], np.ndarray], name: str = "custom"):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._sample = sample
        self._derivative = derivative
        self.dimension = int(dimension)
        self.name = name

    def at(self, t: float) -> np.ndarray:
        return self.at_many(np.array([float(t)]))[0]

    def at_many(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return checked_stack(self._sample(times), times, self.dimension,
                             f"trivialization '{self.name}'")

    def derivative_at_many(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return checked_stack(self._derivative(times), times, self.dimension,
                             f"trivialization '{self.name}' derivative")

    def invertible_at_many(self, times) -> np.ndarray:
        """The stack l(t_k), sampled once and checked invertible once."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values = self.at_many(times)
        _require_invertible(values, self.name, times)
        return values

    def validate_on_grid(self, times) -> np.ndarray:
        """Check invertibility at every grid time and derivative consistency.

        The smallest singular value must stay >= 1e-8 * largest at every grid
        time.  The derivative must match central finite differences of the
        values at interior grid points; the allowance is 1e-3 (scaled) plus
        the finite-difference truncation floor estimated from the sampled
        third derivative, so correct derivatives pass on coarse grids while
        order-one mistakes are still caught.

        Returns the checked grid values, so callers can reuse them instead of
        sampling the grid again.
        """
        times = np.asarray(times, dtype=float)
        values = self.invertible_at_many(times)
        if times.size >= 3:
            supplied = self.derivative_at_many(times[1:-1])
            fd = (values[2:] - values[:-2]) / (times[2:] - times[:-2])[:, None, None]
            allowance = _DERIVATIVE_FD_TOL * max(1.0, max_abs(supplied))
            if times.size >= 5:
                h = float(np.mean(np.diff(times)))
                third = (values[4:] - 2 * values[3:-1] + 2 * values[1:-3]
                         - values[:-4]) / (2 * h ** 3)
                allowance += (h * h / 6.0) * max_abs(third) * 4.0
            dev = max_abs(supplied - fd)
            if dev > allowance:
                raise ValueError(
                    f"trivialization '{self.name}': analytic derivative deviates from "
                    f"finite differences by {dev:.3e} (allowed {allowance:.3e})")
        return values


# --- catalog families ---------------------------------------------------

def identity_trivialization(dimension: int) -> TrivializationFamily:
    eye = np.eye(dimension, dtype=complex)
    return TrivializationFamily(
        lambda ts: np.broadcast_to(eye, (ts.size, dimension, dimension)).copy(), dimension,
        lambda ts: np.zeros((ts.size, dimension, dimension), dtype=complex),
        name="identity")


def global_phase_trivialization(dimension: int, omega: float) -> TrivializationFamily:
    eye = np.eye(dimension, dtype=complex)
    return TrivializationFamily(
        lambda ts: np.exp(1j * omega * ts)[:, None, None] * eye, dimension,
        lambda ts: (1j * omega * np.exp(1j * omega * ts))[:, None, None] * eye,
        name="global-phase")


def diagonal_phase_trivialization(omegas: Sequence[float]) -> TrivializationFamily:
    freqs = np.asarray(omegas, dtype=float)
    if freqs.ndim != 1 or freqs.size < 1:
        raise ValueError("omegas must be a non-empty 1-D sequence")
    eye = np.eye(freqs.size)
    return TrivializationFamily(
        lambda ts: np.exp(1j * np.outer(ts, freqs))[:, :, None] * eye, freqs.size,
        lambda ts: (1j * freqs * np.exp(1j * np.outer(ts, freqs)))[:, :, None] * eye,
        name="diagonal-phase")


def constant_trivialization(matrix, name: str = "constant") -> TrivializationFamily:
    m = as_operator(matrix)
    _require_invertible(m, name, 0.0)
    return TrivializationFamily(
        lambda ts: np.broadcast_to(m, (ts.size,) + m.shape).copy(), m.shape[0],
        lambda ts: np.zeros((ts.size,) + m.shape, dtype=complex),
        name=name)


def _seeded_smooth_unitary(dimension: int, seed_key: Sequence[int], scale: float,
                           frequency: float):
    """Samplers of s -> exp(s K1) exp(sin(w s) K2) and of its s-derivative.

    K1, K2 are anti-Hermitian generators drawn in turn from
    `default_rng(seed_key)`.  Each is diagonalized once
    (`antihermitian_exponentials`), so a whole stack of samples costs two
    batched products per factor and every sample is unitary to rounding.
    The random gauge family and the random picture of motion share it.
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

    def derivative(s: np.ndarray) -> np.ndarray:
        f1 = exp1(s)
        f2 = exp2(np.sin(frequency * s))
        rate = (frequency * np.cos(frequency * s))[:, None, None]
        return (k1 @ f1) @ f2 + f1 @ (rate * (k2 @ f2))

    return values, derivative


def random_smooth_unitary_trivialization(dimension: int, seed: int, scale: float = 0.6,
                                         frequency: float = 2.5) -> TrivializationFamily:
    """Seeded smooth unitary family l(t) = exp(t K1) exp(sin(w t) K2).

    K1, K2 are anti-Hermitian, so every value is unitary; each factor is a
    single-generator exponential whose derivative is elementary, and the
    product rule gives the family's analytic derivative.  Both generators are
    diagonalized once when the family is built, and every frame stack is
    V diag(exp(i s lam)) V^dagger per factor (no series exponentials).
    """
    values, derivative = _seeded_smooth_unitary(dimension, [int(seed), 0x51], scale, frequency)
    return TrivializationFamily(values, dimension, derivative, name="random-smooth-unitary")


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

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

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

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]

def _same_grid(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape or not np.array_equal(a, b):
        raise ValueError("operands are sampled on different grids")


# --- lifting --------------------------------------------------------------

def lift_operators(frames: np.ndarray, inverse_frames: np.ndarray, a) -> np.ndarray:
    """l(t_k)^-1 A_k l(t_k) over stacks of checked frames; one frame or A broadcasts.

    Takes the inverses l^-1 the caller already holds (a transport's
    `inverse_frames`), in the argument order of `bundle_adjoint_maps`, so a
    lift is two batched products and nothing is solved per call.
    """
    return inverse_frames @ (np.asarray(a, dtype=complex) @ frames)


def lift_operator(l: TrivializationFamily, t: float, a) -> np.ndarray:
    """l(t)^-1 A l(t): the fibre morphism of a typical-fibre operator."""
    frame = l.invertible_at_many(t)[0]
    return lift_operators(frame, np.linalg.inv(frame), as_operator(a))


def lift_trajectory(l: TrivializationFamily, times, states) -> SectionAlongPath:
    """Lift a whole state history into the fibres, inverting the frames once."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    frames = l.invertible_at_many(times)
    return SectionAlongPath(times, apply(np.linalg.inv(frames), states))


def lift_operator_on_grid(l: TrivializationFamily, times, a) -> MorphismAlongPath:
    """Lift one operator (or a stack, one per time) at every grid time."""
    times = np.asarray(times, dtype=float)
    frames = l.invertible_at_many(times)
    return MorphismAlongPath(times, lift_operators(frames, np.linalg.inv(frames), a))


# --- fibre metric and adjoints ---------------------------------------------

def fibre_inner_products(frames: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The fibre metric <u|v>_t = <l(t) u | l(t) v> over stacks; one frame broadcasts."""
    return inner_products(apply(frames, u), apply(frames, v))


def bundle_adjoint_maps(ls: np.ndarray, lt_inv: np.ndarray, a: np.ndarray) -> np.ndarray:
    """l_t^-1 (l_s A l_t^-1)^dagger l_s over stacks of checked frames and maps.

    Takes the inverses l_t^-1 the caller already holds (a transport's
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
