"""Base-space variants and parameterized observer paths.

Everything indexed "along the path" elsewhere in the library is keyed by the
parameter t, never by the base point gamma(t), so self-intersecting paths
cause no ambiguity in stored sections or morphisms.  The base geometry is
bookkeeping only; the dynamics never uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "BaseSpace",
    "Euclidean",
    "Interval",
    "Path",
    "SinglePoint",
    "make_path",
    "self_intersections",
]


class BaseSpace:
    """Common interface of the base-space variants."""

    def coerce_points(self, raw, grid: np.ndarray) -> np.ndarray:
        """Normalize a path's samples at `grid` to (N, k) coordinate rows (k may be 0)."""
        raise NotImplementedError


def _sampled_rows(raw, grid: np.ndarray, width: int) -> np.ndarray:
    """`point_fn` output as (N, width) finite rows; (N,) is accepted for width 1."""
    p = np.asarray(raw, dtype=float)
    if width == 1 and p.shape == grid.shape:
        p = p[:, None]
    if p.shape != (grid.size, width):
        raise ValueError(f"point_fn returned shape {p.shape}, expected ({grid.size}, {width})")
    undefined = ~np.all(np.isfinite(p), axis=1)
    if np.any(undefined):
        raise ValueError(f"path map undefined at grid time {grid[np.argmax(undefined)]}")
    return p


@dataclass(frozen=True)
class Euclidean(BaseSpace):
    """Euclidean space of dimension d >= 1.

    Minkowski / pseudo-Riemannian bases are represented by d = 4 together
    with the `forbid_self_intersections` flag of make_path; world lines of
    physical observers cannot self-intersect.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"Euclidean base needs dim >= 1, got {self.dim}")

    def coerce_points(self, raw, grid: np.ndarray) -> np.ndarray:
        return _sampled_rows(raw, grid, self.dim)


@dataclass(frozen=True)
class Interval(BaseSpace):
    """Real interval [lower, upper]; the degenerate choice M = J."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper) and self.lower < self.upper):
            raise ValueError(f"interval needs lower < upper, got [{self.lower}, {self.upper}]")

    def coerce_points(self, raw, grid: np.ndarray) -> np.ndarray:
        p = _sampled_rows(raw, grid, 1)
        pad = 1e-12 * max(1.0, abs(self.lower), abs(self.upper))
        outside = ~((self.lower - pad <= p[:, 0]) & (p[:, 0] <= self.upper + pad))
        if np.any(outside):
            k = int(np.argmax(outside))
            raise ValueError(f"point {p[k, 0]} at grid time {grid[k]} lies outside "
                             f"[{self.lower}, {self.upper}]")
        return p


@dataclass(frozen=True)
class SinglePoint(BaseSpace):
    """One-point base; every path is constant and maximally self-intersecting."""

    def coerce_points(self, raw, grid: np.ndarray) -> np.ndarray:
        # The only point has no coordinates; distances are identically zero.
        return np.empty((grid.size, 0), dtype=float)


@dataclass(frozen=True)
class Path:
    """Parameterized curve gamma: [t_start, t_end] -> base with a sample grid."""

    base: BaseSpace
    t_start: float
    t_end: float
    grid: np.ndarray     # strictly increasing sample times
    points: np.ndarray   # (N, k) coordinates, k = 0 for a single-point base

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing with >= 2 samples")
        if points.shape[0] != grid.shape[0]:
            raise ValueError("one sampled point required per grid time")
        grid.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "points", points)


def make_path(base: BaseSpace, domain: Tuple[float, float],
              point_fn: Optional[Callable[[np.ndarray], object]], samples: int,
              forbid_self_intersections: bool = False,
              intersection_tol: float = 1e-9) -> Path:
    """Sample a path over `domain` on a uniform grid and validate it.

    `point_fn` maps the whole grid, shape (N,), to the points, shape (N, k),
    in one call; it may be omitted for a SinglePoint base and is not called
    there.  With `forbid_self_intersections` the sampled path must be
    injective at `intersection_tol` resolution (world-line bases).
    """
    t0, t1 = float(domain[0]), float(domain[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
        raise ValueError(f"degenerate domain [{t0}, {t1}]")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")

    grid = np.linspace(t0, t1, samples)
    single = isinstance(base, SinglePoint)
    if point_fn is None and not single:
        raise ValueError("point_fn is required unless the base is a single point")
    path = Path(base, t0, t1, grid, base.coerce_points(None if single else point_fn(grid), grid))
    if forbid_self_intersections and self_intersections(path, intersection_tol):
        raise ValueError("path self-intersects but the base forbids self-intersections")
    return path


def self_intersections(path: Path, spatial_tol: float) -> List[Tuple[float, float]]:
    """Grid-time pairs (t, s), t < s, with distance(gamma(t), gamma(s)) <= spatial_tol.

    Each unordered pair is reported once; the detection predicate itself is
    symmetric in t and s.  On a single-point base every distinct pair
    qualifies.
    """
    if spatial_tol < 0:
        raise ValueError("spatial_tol must be >= 0")
    pts, grid = path.points, path.grid
    tol_sq = spatial_tol * spatial_tol
    pairs = []
    for i in range(pts.shape[0] - 1):  # one row of the distance matrix at a time
        diff = pts[i + 1:] - pts[i]
        close = np.nonzero(np.einsum("jk,jk->j", diff, diff) <= tol_sq)[0] + (i + 1)
        pairs.extend((float(grid[i]), float(grid[j])) for j in close)
    return pairs
