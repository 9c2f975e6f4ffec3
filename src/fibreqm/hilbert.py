"""Finite-dimensional complex Hilbert-space primitives.

Vectors are 1-D complex arrays, operators are square complex matrices.
All comparisons use the max-absolute-entry metric so tolerances are
dimension independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    "checked_stack",
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


def checked_stack(stack, times: np.ndarray, dimension: int, what: str) -> np.ndarray:
    """A sampler's output as a complex (N, n, n) stack; shape and finiteness checked once."""
    stack = np.asarray(stack, dtype=complex)
    expected = (times.size, dimension, dimension)
    if stack.shape != expected:
        raise ValueError(f"{what} returned shape {stack.shape}, expected {expected}")
    if not np.all(np.isfinite(stack)):
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


# Taylor terms summed at most before the series is declared divergent.
_MAX_TAYLOR_TERMS = 64


def matrix_exponential(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with an adaptive Taylor tail.

    Accepts a single matrix or a stacked batch (..., n, n); a batch shares one
    scaling exponent chosen from the largest entry.  The series is summed until
    the next term falls below 1e-18 of the running result, which keeps the
    truncation order well above 8 at the scaled norm.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite input")
    n = a.shape[-1]

    scale = max_abs(a) * n  # cheap bound on the induced infinity norm
    squarings = 0 if scale <= 0.5 else int(np.ceil(np.log2(scale / 0.5)))
    x = a / (2.0 ** squarings)

    eye = np.broadcast_to(np.eye(n, dtype=complex), a.shape)
    term = eye.copy()
    result = eye.copy()
    for k in range(1, _MAX_TAYLOR_TERMS + 1):
        term = term @ x / k
        result = result + term
        if max_abs(term) <= 1e-18 * max(1.0, max_abs(result)):
            break
    else:
        raise ValueError(
            f"matrix exponential series did not converge in {_MAX_TAYLOR_TERMS} terms")

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
