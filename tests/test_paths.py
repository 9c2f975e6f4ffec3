import tracemalloc

import numpy as np
import pytest

from fibreqm.paths import Euclidean, Interval, SinglePoint, make_path, self_intersections


class TestBaseSpaces:
    def test_euclidean_requires_positive_dim(self):
        with pytest.raises(ValueError):
            Euclidean(0)

    def test_interval_requires_order(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_interval_point_containment(self):
        base = Interval(0.0, 1.0)
        grid = np.array([0.0, 1.0])
        assert np.array_equal(base.coerce_points([0.5, 0.25], grid), [[0.5], [0.25]])
        with pytest.raises(ValueError, match="outside"):
            base.coerce_points([0.5, 1.5], grid)

    def test_single_point_has_no_coordinates(self):
        assert SinglePoint().coerce_points("anything", np.zeros(3)).shape == (3, 0)


class TestMakePath:
    def test_identity_on_interval(self):
        # the degenerate base M = J with gamma the identity reparameterization
        base = Interval(0.0, 1.0)
        path = make_path(base, (0.0, 1.0), lambda t: t, 11)
        assert np.allclose(path.points[:, 0], path.grid)

    def test_single_point_constant(self):
        path = make_path(SinglePoint(), (0.0, 1.0), None, 5)
        assert path.points.shape == (5, 0)

    def test_circle_retraversal_valid(self):
        base = Euclidean(3)
        path = make_path(base, (0.0, 4 * np.pi),
                         lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], axis=1), 101)
        assert path.points.shape == (101, 3)
        radii = np.linalg.norm(path.points, axis=1)
        assert np.allclose(radii, 1.0)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            make_path(Euclidean(2), (1.0, 1.0), lambda t: (t, 0.0), 5)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            make_path(Euclidean(2), (0.0, 1.0), lambda t: (t, 0.0), 1)

    def test_undefined_point_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            make_path(Euclidean(1), (0.0, 1.0), lambda t: np.where(t > 0.5, np.nan, t), 5)

    def test_image_outside_base_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_path(Interval(0.0, 0.5), (0.0, 1.0), lambda t: t, 5)

    def test_missing_point_fn_rejected(self):
        with pytest.raises(ValueError, match="point_fn"):
            make_path(Euclidean(2), (0.0, 1.0), None, 5)

    def test_world_line_flag_rejects_self_intersections(self):
        # Minkowski-style base: Euclidean(4) plus the injectivity flag
        base = Euclidean(4)
        with pytest.raises(ValueError, match="self-intersects"):
            make_path(base, (0.0, 4 * np.pi),
                      lambda t: np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=1), 101,
                      forbid_self_intersections=True, intersection_tol=1e-9)
        path = make_path(base, (0.0, 1.0), lambda t: np.stack([t, 0 * t, 0 * t, 0 * t], axis=1),
                         101,
                         forbid_self_intersections=True)
        assert path.points.shape == (101, 4)


class TestSelfIntersections:
    def test_injective_path_reports_nothing(self):
        path = make_path(Interval(0.0, 1.0), (0.0, 1.0), lambda t: t, 21)
        assert self_intersections(path, 1e-9) == []

    def test_single_point_reports_every_pair(self):
        path = make_path(SinglePoint(), (0.0, 1.0), None, 6)
        pairs = self_intersections(path, 0.0)
        assert len(pairs) == 6 * 5 // 2
        for t, s in pairs:
            assert t < s

    def test_circle_retraversal_pairs(self):
        # 401 samples over [0, 4*pi]: revisits happen at parameter offsets of
        # 2*pi (lap to lap) and 4*pi (first to last sample)
        path = make_path(Euclidean(3), (0.0, 4 * np.pi),
                         lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], axis=1), 401)
        pairs = self_intersections(path, 1e-9)
        assert pairs, "retraced circle must self-intersect"
        laps = np.array([s - t for t, s in pairs]) / (2 * np.pi)
        assert np.allclose(laps, np.round(laps))
        assert np.all(np.round(laps) >= 1)
        assert np.any(np.isclose(laps, 1.0))

    def test_matches_brute_force_scan(self):
        path = make_path(Euclidean(2), (0.0, 4 * np.pi),
                         lambda t: np.stack([np.cos(t), np.sin(t)], axis=1), 81)
        tol = 1e-6
        expected = []
        for i in range(81):
            for j in range(i + 1, 81):
                if np.linalg.norm(path.points[i] - path.points[j]) <= tol:
                    expected.append((path.grid[i], path.grid[j]))
        assert self_intersections(path, tol) == expected

    def test_reported_pairs_satisfy_distance_bound(self):
        path = make_path(Euclidean(2), (0.0, 4 * np.pi),
                         lambda t: np.stack([np.cos(t), np.sin(t)], axis=1), 200)
        tol = 1e-3
        for t, s in self_intersections(path, tol):
            i = int(np.argmin(np.abs(path.grid - t)))
            j = int(np.argmin(np.abs(path.grid - s)))
            d = np.linalg.norm(path.points[i] - path.points[j])
            assert d <= tol

    def test_negative_tolerance_rejected(self):
        path = make_path(Interval(0.0, 1.0), (0.0, 1.0), lambda t: t, 5)
        with pytest.raises(ValueError):
            self_intersections(path, -1.0)

    def test_memory_grows_with_one_row_not_the_matrix(self):
        # The full (N, N, k) difference array would take ~96 MB here.
        path = make_path(Euclidean(3), (0.0, 1.0),
                         lambda t: np.stack([t, 0 * t, 0 * t], axis=1), 2001)
        tracemalloc.start()
        try:
            assert self_intersections(path, 1e-9) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
