"""Finite-dimensional complex Hilbert-space primitives, and the time blocks.

Vectors are 1-D complex arrays, operators are square complex matrices.
All comparisons use the max-absolute-entry metric so tolerances are
dimension independent.

Every block loop over an (N, n, n) stack is cut by one rule, `time_blocks`, and
every such loop but `series_by_blocks` runs its slices through one pool helper,
`_in_block_order`: on up to `_WORKERS` threads, the calling thread among them,
its results and its first failure taken in block order.  This module is the one
place that starts threads, and the one that knows how a constant family's stack
is stored: a read-only 0-stride broadcast of its one matrix (`is_broadcast`,
`distinct_matrices`).
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PhysicalConstants",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "antihermitian_exponentials",
    "apply",
    "as_operator",
    "as_state",
    "broadcast_sampler",
    "checked_stack",
    "distinct_matrices",
    "expectations",
    "inner_products",
    "is_broadcast",
    "is_hermitian",
    "matrix_exponential",
    "max_abs",
    "series_by_blocks",
    "sorted_distinct",
    "stack_by_blocks",
    "time_blocks",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a

SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants of a scenario; only the action scale for now."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and np.isfinite(self.hbar)):
            raise ValueError(f"hbar must be a positive finite real, got {self.hbar}")


def as_state(v) -> np.ndarray:
    """Coerce to a 1-D complex state vector (dimension >= 1)."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"state vector must be 1-D with dimension >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("state vector has non-finite entries")
    return a


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    return m


# Twice the largest complex (b, n, n) slice of a temporary: a constant, not a setting.
_BLOCK_BYTES = 2 ** 20


def time_blocks(n_times: int, n: int) -> List[slice]:
    """Consecutive slices that cover 0 .. n_times - 1 once, in order: the one partition
    of every block loop.

    Each slice holds as many times as fit an (n, n) complex matrix per time into
    half of `_BLOCK_BYTES` (32 at n = 32), and at least one, so the temporaries of a
    loop are blocks, not (N, n, n) stacks, and a loop whose slice holds several at
    once (the checks' sweep) holds a few of half a MiB.  A matmul, an einsum or an
    elementwise op gives each matrix the same bits over any cut, and a maximum is
    the same over any cut, so blocking moves no result.
    """
    size = max(1, _BLOCK_BYTES // (32 * n * n))
    return [slice(start, min(start + size, n_times)) for start in range(0, n_times, size)]


# Threads that run a loop's time blocks, the calling thread among them: one per
# available core, at most two, read once.  A constant, not a setting.  The blocks'
# batched products release the GIL, and threads share the whole stacks every block
# reads.  Each thread holds one slice's temporaries, and in the checks' sweep one
# slice's block nodes, about half a stack at n = 32, N = 1000; larger counts are
# unmeasured.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1))
# `busy` is set on each thread while it runs the slices of a block loop.
_worker = threading.local()


def _in_block_order(run: Callable[[slice], object], parts: Sequence[slice]) -> list:
    """[run(part) for part in parts], on up to `_WORKERS` threads, the calling thread
    among them: thread w runs the slices w, w + workers, ... and stops at its first
    failure.  The first failing slice in block order raises, whichever fails first.

    One slice, one worker, or a loop entered on a thread that already runs a
    loop's slices runs serially on the calling thread, so at most `_WORKERS`
    threads ever run, and no thread outlives the call.  Each helper thread runs
    its slices in a copy of the caller's context, so a caller's `np.errstate`
    holds for every slice, whichever thread runs it.
    """
    workers = min(_WORKERS, len(parts))
    if workers <= 1 or getattr(_worker, "busy", False):
        return [run(part) for part in parts]
    out, failures = [None] * len(parts), {}  # slice index -> its exception

    def share(first: int) -> None:
        _worker.busy = True
        try:
            for k in range(first, len(parts), workers):
                try:
                    out[k] = run(parts[k])
                except Exception as exc:
                    failures[k] = exc
                    return
        finally:
            _worker.busy = False

    caller = contextvars.copy_context()  # e.g. `np.errstate`, on every thread alike
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(caller.copy().run, share, first) for first in range(1, workers)]
        share(0)
        for helper in helpers:
            helper.result()
    if failures:
        raise failures[min(failures)]
    return out


def _formed_in_order(form: Callable[[slice], object], use: Callable[[slice, object], None],
                     parts: Sequence[slice]) -> None:
    """use(part, form(part)) for each slice of `parts`, the uses in block order.

    The slices run on the workers (`_in_block_order`): each worker forms its
    slice, uses it as soon as every slice before it is used, then forms its
    next.  So each worker holds one formed slice at a time, and none waits for
    the others' slices to be formed.  The first failing slice in block order
    raises; a slice still waiting for its turn when an earlier one fails is
    dropped.
    """
    if not parts:
        return
    turn = threading.Condition()
    # the start of the next slice to use, and the start of the first that failed
    next_start, failed = [parts[0].start], [math.inf]

    def form_and_use(part: slice) -> None:
        try:
            formed = form(part)
            with turn:
                turn.wait_for(lambda: next_start[0] == part.start or failed[0] < part.start)
                if failed[0] < part.start:
                    raise RuntimeError("an earlier slice failed")
            use(part, formed)
        except BaseException:
            with turn:
                failed[0] = min(failed[0], part.start)
                turn.notify_all()
            raise
        with turn:
            next_start[0] = part.stop
            turn.notify_all()

    _in_block_order(form_and_use, parts)


def stack_by_blocks(n_times: int, n: int, block: Callable[[slice], np.ndarray]) -> np.ndarray:
    """The complex (n_times, n, n) stack whose slice `part` is block(part), for each
    `time_blocks` slice, filled on the workers (`_in_block_order`): the one stack is
    the only whole one."""
    out = np.empty((n_times, n, n), dtype=complex)
    _fill_by_blocks(out, block)
    return out


def _fill_by_blocks(out: np.ndarray, block: Callable[[slice], np.ndarray]) -> None:
    """out[part] = block(part) for each `time_blocks` slice of the (N, n, n) stack
    `out`, on the workers."""
    def fill(part: slice) -> None:
        out[part] = block(part)

    _in_block_order(fill, time_blocks(*out.shape[:2]))


def series_by_blocks(n_times: int, n: int, block: Callable[[slice], np.ndarray]) -> np.ndarray:
    """The per-time series whose slice `part` is block(part), for each `time_blocks`
    slice in turn on the calling thread, concatenated.  Serial, so only one slice's
    temporaries are ever held: its callers, the integral-of-motion criteria, stay
    within a few blocks above entry, although the transport criterion, whose inverse
    and t0 rows are formed per read, holds five stacks of its slice at once (2.5
    `_BLOCK_BYTES` at n = 32)."""
    return np.concatenate([block(part) for part in time_blocks(n_times, n)])


def is_broadcast(stack: np.ndarray) -> bool:
    """Whether a stack is a 0-stride broadcast of its first matrix (`broadcast_sampler`)."""
    return stack.strides[0] == 0


def distinct_matrices(stack: np.ndarray) -> np.ndarray:
    """The matrices of a stack that can differ: of a broadcast, the first."""
    return stack[:1] if is_broadcast(stack) else stack


def sorted_distinct(values) -> np.ndarray:
    """The distinct values of an integer array, sorted: `np.unique(values)`, without
    its masked-array test, which imports `numpy.ma` on its first call."""
    ordered = np.sort(np.ravel(values))
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def broadcast_sampler(matrix: np.ndarray) -> Callable[[np.ndarray], Tuple[np.ndarray, ...]]:
    """ts -> (A, dA/dt = 0) of every constant family, as read-only 0-stride broadcasts."""
    return lambda ts: (np.broadcast_to(matrix, (ts.size,) + matrix.shape),
                       np.broadcast_to(0j, (ts.size,) + matrix.shape))


def checked_stack(stack, times: np.ndarray, dimension: int, what: str) -> np.ndarray:
    """A sampler's output as a complex (N, n, n) stack; shape and finiteness checked once.

    A broadcast is checked on its one matrix (`distinct_matrices`).
    """
    stack = np.asarray(stack, dtype=complex)
    expected = (times.size, dimension, dimension)
    if stack.shape != expected:
        raise ValueError(f"{what} returned shape {stack.shape}, expected {expected}")
    if not np.all(np.isfinite(distinct_matrices(stack))):
        raise ValueError(f"{what} returned non-finite entries")
    return stack


def max_abs(x) -> float:
    """Max-absolute-entry norm; 0 for empty input."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(x)))


def apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for one operator or a stack (..., n, n) against one vector or a stack (..., n)."""
    return np.einsum("...ij,...j->...i", a, v)


def inner_products(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u|v> over stacks of vectors (..., n), conjugate linear in the first argument."""
    if u.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: {u.shape[-1]} vs {v.shape[-1]}")
    return np.einsum("...i,...i->...", u.conj(), v)


def expectations(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The mean ratio <u|w> / <u|u> (w = A u) over stacks; every mean reduces to it.

    Raises ValueError if any <u|u> is zero.
    """
    norm_sq = inner_products(u, u).real
    if np.any(norm_sq == 0.0):
        raise ValueError("mean value of the zero state is undefined")
    return inner_products(u, w) / norm_sq


def is_hermitian(a, tol: float = 1e-12) -> bool:
    """True iff max-entry deviation from A = A^dagger is <= tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    a = as_operator(a)
    return max_abs(a - a.conj().T) <= tol


# Largest scaled 1-norm, and the bound on the first omitted Taylor term there.
_SCALED_NORM = 0.5
_TRUNCATION_TOL = 2.0 ** -53 * 1e-2


def _taylor_plan(theta: float) -> Tuple[int, int]:
    """(m, s) for a batch of 1-norm theta: s squarings bring theta / 2^s to <= 0.5,
    and m is the smallest degree with (theta / 2^s)^(m+1) / (m+1)! <= 2^-53 1e-2.

    A function of theta alone, so m <= 15.
    """
    mantissa, exponent = math.frexp(theta / _SCALED_NORM)
    squarings = max(0, exponent - 1 if mantissa == 0.5 else exponent)
    x = theta / 2.0 ** squarings
    degree = next(m for m in itertools.count()
                  if x ** (m + 1) / math.factorial(m + 1) <= _TRUNCATION_TOL)
    return degree, squarings


def matrix_exponential(a, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor polynomial of fixed degree.

    Accepts a single matrix or a stacked batch (..., n, n).  The batch's
    largest 1-norm theta fixes, once, the squarings s and the degree m
    (`_taylor_plan`): there is no adaptive tail, and the plan is a function of
    theta alone.  The polynomial is then evaluated one `time_blocks` slice at a
    time, on the workers (`_in_block_order`), into the one output stack, so its
    work stacks are blocks, and every block uses the whole batch's plan, so each
    matrix gets the bits of a single call (`_planned_exponential`).  The
    midpoint steppers call it on one `time_blocks` slice of steps at a time, so
    each slice of steps is planned by its own theta
    (`dynamics.midpoint_propagators`).

    `out`, a C-contiguous complex array of the input's shape, receives the
    exponentials; it may be the input itself, which is then overwritten: theta
    is read from the whole input first, and each slice reads its own input
    whole before it writes its output.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if out is not None and (out.shape != a.shape or out.dtype != complex
                            or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous complex array of shape {a.shape}")
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)

    def one_norm(part: slice) -> Tuple[bool, float]:
        """Whether the block is finite, and its largest 1-norm."""
        block = stack[part]
        return bool(np.all(np.isfinite(block))), float(np.max(np.sum(np.abs(block), axis=-2)))

    blocks = _in_block_order(one_norm, time_blocks(stack.shape[0], n))
    if not all(finite for finite, _ in blocks):
        raise ValueError("matrix exponential of non-finite input")
    degree, squarings = _taylor_plan(max((norm for _, norm in blocks), default=0.0))
    result = np.empty(a.shape, dtype=complex) if out is None else out
    _fill_by_blocks(result.reshape(stack.shape),
                    lambda part: _planned_exponential(stack[part], degree, squarings))
    return result


def _planned_exponential(a: np.ndarray, degree: int, squarings: int) -> np.ndarray:
    """exp(A) over a batch by the plan (m, s): Paterson-Stockmeyer, then s squarings.

    The powers X ... X^r of X = A / 2^s with r ~ sqrt(m), then Horner in X^r
    over blocks of degree < r, each with its identity coefficient added on the
    diagonal only.  For m >= 1 that costs r - 1 + floor((m - 1) / r) batched
    products (3 at m = 6), and s more to square.
    """
    x = a / 2.0 ** squarings if squarings else a
    coeffs = [1.0 / math.factorial(k) for k in range(degree + 1)]
    r = max(1, round(math.sqrt(degree)))
    powers = [None, x]  # powers[i] = X^i; X^0 = I enters on the diagonal only
    for _ in range(2, r + 1):
        powers.append(powers[-1] @ x)

    def block(j: int, out: np.ndarray) -> np.ndarray:
        """out + sum_i c[j r + i] X^i over 0 <= i < r, j r + i <= m, in place.

        The i = 0 term, c[j r] I, is added on the diagonal only.
        """
        for i in range(1, min(r, degree - j * r + 1)):
            out += coeffs[j * r + i] * powers[i]
        diagonal = np.einsum("...ii->...i", out)  # a writable view
        diagonal += coeffs[j * r]
        return out

    blocks = degree // r
    if degree % r == 0 and blocks:  # the top block is c[m] I: its Horner product is a scaling
        blocks -= 1
        result = block(blocks, coeffs[degree] * powers[r])
    else:
        result = block(blocks, np.zeros(a.shape, dtype=complex))
    for j in range(blocks - 1, -1, -1):
        result = block(j, result @ powers[r])

    for _ in range(squarings):
        result = result @ result
    return result


def antihermitian_exponentials(k) -> Callable[[np.ndarray], np.ndarray]:
    """Exponentials s -> exp(s K) of one anti-Hermitian generator, diagonalized once.

    K = iH with H = V diag(lam) V^dagger from `eigh`, so the returned sampler
    gives the stack exp(s_k K) = V diag(exp(i s_k lam)) V^dagger for an array
    of real scalars s_k, at the cost of one batched product.  For normal K the
    eigenvector method is well conditioned and its values are unitary to
    rounding.  Raises ValueError unless K + K^dagger vanishes to
    1e-12 * max(1, max|K|).
    """
    k = as_operator(k)
    dev = max_abs(k + k.conj().T)
    if dev > 1e-12 * max(1.0, max_abs(k)):
        raise ValueError(f"generator is not anti-Hermitian (|K + K^dagger| = {dev:.3e})")

    lam, vecs = np.linalg.eigh(-1j * k)
    vecs_dagger = vecs.conj().T

    def exponentials(s) -> np.ndarray:
        phases = np.exp(1j * np.asarray(s, dtype=float)[..., None] * lam)
        return (vecs * phases[..., None, :]) @ vecs_dagger

    return exponentials
