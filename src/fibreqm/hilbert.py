"""Finite-dimensional complex Hilbert-space primitives.

Vectors are 1-D complex arrays, operators are square complex matrices.
All comparisons use the max-absolute-entry metric so tolerances are
dimension independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

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
    "is_hermitian",
    "matrix_exponential",
    "max_abs",
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


def distinct_matrices(stack: np.ndarray) -> np.ndarray:
    """The matrices of a stack that can differ: if its first axis has stride 0, the first."""
    return stack[:1] if stack.strides[0] == 0 else stack


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


def matrix_exponential(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor polynomial of fixed degree.

    Accepts a single matrix or a stacked batch (..., n, n).  The batch's
    largest 1-norm theta fixes, once, the squarings s and the degree m
    (`_taylor_plan`): there is no adaptive tail, and the plan is a function of
    theta alone.  The polynomial is evaluated by Paterson-Stockmeyer: the
    powers X ... X^r of X = A / 2^s with r ~ sqrt(m), then Horner in X^r over
    blocks of degree < r, each with its identity coefficient added on the
    diagonal only.  For m >= 1 that costs r - 1 + floor((m - 1) / r) batched
    products (3 at m = 6), and s more to square.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite input")

    theta = float(np.max(np.sum(np.abs(a), axis=-2)))  # the batch's largest 1-norm
    degree, squarings = _taylor_plan(theta)
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
