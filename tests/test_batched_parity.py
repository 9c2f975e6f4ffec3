"""The batched samplers and index-addressed queries against their loop references.

Each reference below is the pointwise loop that the batched code replaced:
one time, one pair or one triple per iteration.  The arithmetic per matrix
is unchanged, so results must be bitwise equal.
"""

import json
import sys
from importlib import resources

import numpy as np
import pytest

from fibreqm import scenario as scenario_module
from fibreqm.checks import _sample_triples, build_artifacts, run_scenario
from fibreqm.dynamics import (
    HamiltonianFamily,
    OffGridTimeError,
    grid_index,
    grid_indices,
    uniform_grid,
)
from fibreqm.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, max_abs
from fibreqm.paths import make_path
from fibreqm.scenario import catalog_names, parse_complex_matrix, scenario_from_dict
from fibreqm.transport import EvolutionTransport, TransportAxiomReport, check_transport_axioms


def catalog_raw(name):
    root = resources.files("fibreqm") / "catalog"
    return json.loads((root / f"{name}.json").read_text())


# --- grid lookup ----------------------------------------------------------------

def argmin_grid_index(times, t):
    """The O(N) lookup: nearest grid time by argmin, accepted within 1e-6 spacing."""
    times = np.asarray(times, dtype=float)
    idx = int(np.argmin(np.abs(times - t)))
    spacing = float(np.min(np.diff(times))) if times.size > 1 else 1.0
    if abs(times[idx] - t) > 1e-6 * spacing:
        raise OffGridTimeError(f"time {t} is not on the sampling grid")
    return idx


def nonuniform_grid():
    rng = np.random.default_rng(7)
    return np.concatenate([[-0.3], -0.3 + np.cumsum(rng.uniform(0.01, 0.2, size=60))])


GRIDS = {
    "2 points": uniform_grid(0.0, 1.0, 1),
    "3 points": uniform_grid(-1.0, 2.0, 2),
    "1001 points": uniform_grid(0.0, 1.0, 1000),
    "non-uniform": nonuniform_grid(),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_indices_match_argmin_lookup(name):
    times = GRIDS[name]
    spacing = float(np.min(np.diff(times)))
    accepted = [times, times + 0.5e-6 * spacing, times - 0.5e-6 * spacing]
    for queries in accepted:
        expected = [argmin_grid_index(times, t) for t in queries]
        assert grid_indices(times, queries).tolist() == expected
        assert [grid_index(times, t) for t in queries] == expected
    assert grid_index(times, times[0]) == 0
    assert grid_index(times, times[-1]) == times.size - 1
    for offset in (2e-6 * spacing, -2e-6 * spacing):
        for t in (times[0] + offset, times[times.size // 2] + offset, times[-1] + offset):
            with pytest.raises(OffGridTimeError):
                argmin_grid_index(times, t)
            with pytest.raises(OffGridTimeError):
                grid_index(times, t)
            with pytest.raises(OffGridTimeError, match=f"time {float(t)} "):
                grid_indices(times, np.append(times, t))


def test_grid_indices_keep_the_query_shape():
    times = GRIDS["1001 points"]
    queries = times[[[0, 5, 9], [1000, 500, 0]]]
    assert grid_indices(times, queries).tolist() == [[0, 5, 9], [1000, 500, 0]]


def test_nan_time_is_off_grid():
    with pytest.raises(OffGridTimeError):
        grid_index(GRIDS["3 points"], float("nan"))


# --- two-time queries -------------------------------------------------------------

TRANSPORT_SCENARIOS = ["random-unitary-gauge", "driven-three-level", "nonunitary-constant-gauge"]


@pytest.fixture(scope="module", params=TRANSPORT_SCENARIOS)
def artifacts(request):
    return build_artifacts(scenario_from_dict(catalog_raw(request.param)))


def pointwise_transport(transport: EvolutionTransport, j: int, i: int) -> np.ndarray:
    """One U(t_j, t_i) as the single-pair query formed it, i == 0 short-circuited."""
    grid = transport.propagators
    operator = grid.from_t0[j] if i == 0 else grid.from_t0[j] @ grid.into_t0[i]
    return transport.inverse_frames[j] @ (operator @ transport.frames[i])


def test_matrices_by_index_match_single_queries(artifacts):
    transport = artifacts["transport"]
    last = transport.times.size - 1
    idx = np.array([0, 1, 7, last // 2, last])
    j, i = (k.ravel() for k in np.meshgrid(idx, idx, indexing="ij"))
    assert np.any(i == 0) and np.any(j == 0) and np.any(i == j)
    expected = np.stack([pointwise_transport(transport, a, b) for a, b in zip(j, i)])
    assert np.array_equal(transport.matrices_by_index(j, i), expected)
    assert np.array_equal(np.stack([transport.matrix_by_index(a, b) for a, b in zip(j, i)]),
                          expected)
    assert np.array_equal(transport.propagators.operators(last, 0),
                          transport.propagators.from_t0[last])


def looped_transport_axioms(transport, sample) -> TransportAxiomReport:
    """One triple at a time, one single-pair query per matrix."""
    eye = np.eye(transport.dimension, dtype=complex)
    id_dev, id_worst = -1.0, float(transport.times[0])
    comp_dev, comp_worst = -1.0, (0.0, 0.0, 0.0)
    seen_times = set()
    for (r, s, t) in sample:
        if not (r <= s <= t):
            raise ValueError(f"triple must satisfy r <= s <= t, got {(r, s, t)}")
        ir, isx, it = (grid_index(transport.times, x) for x in (r, s, t))
        for x, ix in ((r, ir), (s, isx), (t, it)):
            if ix in seen_times:
                continue
            seen_times.add(ix)
            dev = max_abs(transport.matrix_by_index(ix, ix) - eye)
            if dev > id_dev:
                id_dev, id_worst = dev, float(x)
        composed = transport.matrix_by_index(it, isx) @ transport.matrix_by_index(isx, ir)
        dev = max_abs(composed - transport.matrix_by_index(it, ir))
        if dev > comp_dev:
            comp_dev, comp_worst = dev, (float(r), float(s), float(t))
    if id_dev < 0:
        raise ValueError("sample must contain at least one triple")
    return TransportAxiomReport(id_dev, comp_dev, id_worst, comp_worst)


def test_batched_axioms_match_the_triple_loop(artifacts):
    triples = _sample_triples(artifacts["times"], artifacts["cfg"].seed)
    batched = check_transport_axioms(artifacts["transport"], triples)
    assert batched == looped_transport_axioms(artifacts["transport"], triples)


# --- vectorized catalog Hamiltonians ----------------------------------------------

def sample_times(cfg):
    times = cfg.times
    return np.concatenate([times, (times[:-1] + times[1:]) / 2.0])


def test_circular_drive_matches_pointwise_formula():
    raw = catalog_raw("rabi-drive")
    omega0 = raw["hamiltonian"]["level_splitting"]
    rabi = raw["hamiltonian"]["rabi_frequency"]

    def matrix(t: float) -> np.ndarray:
        phase = omega0 * t
        return (omega0 / 2.0) * SIGMA_Z + (rabi / 2.0) * (
            np.cos(phase) * SIGMA_X + np.sin(phase) * SIGMA_Y)

    cfg = scenario_from_dict(raw)
    ts = sample_times(cfg)
    assert np.array_equal(cfg.hamiltonian.at_many(ts), np.stack([matrix(float(t)) for t in ts]))


def test_cosine_drive_matches_pointwise_formula():
    raw = catalog_raw("driven-three-level")
    spec = raw["hamiltonian"]
    h0 = parse_complex_matrix(spec["static"], 3, "static")
    v = parse_complex_matrix(spec["drive"], 3, "drive")
    omega = float(spec["omega"])
    cfg = scenario_from_dict(raw)
    ts = sample_times(cfg)
    expected = np.stack([h0 + np.cos(omega * float(t)) * v for t in ts])
    assert np.array_equal(cfg.hamiltonian.at_many(ts), expected)


# --- vectorized paths ---------------------------------------------------------------

def pointwise_path_point(spec, base, t0, t1, t):
    """One point gamma(t) of each path kind, formed one grid time at a time."""
    kind = spec["kind"]
    if kind == "constant":
        return np.empty(0)
    if kind == "identity":
        return np.array([t])
    d = base.dim
    if kind == "line":
        origin = np.asarray(spec.get("origin", [0.0] * d), dtype=float)
        velocity = np.asarray(spec.get("velocity", [1.0] + [0.0] * (d - 1)), dtype=float)
        return origin + t * velocity
    assert kind == "circle"
    radius = float(spec.get("radius", 1.0))
    rate = 2.0 * np.pi * float(spec.get("turns", 1.0)) / (t1 - t0)
    angle = rate * (t - t0)
    p = np.zeros(d)
    p[0] = radius * np.cos(angle)
    p[1] = radius * np.sin(angle)
    return p


@pytest.mark.parametrize("name", [name for name, _ in catalog_names()])
def test_batched_path_matches_pointwise_formula(name, monkeypatch):
    built = []  # (base, path) of each make_path call; resolution keeps only the path spec

    def recording_make_path(base, *args, **kwargs):
        built.append((base, make_path(base, *args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(scenario_module, "make_path", recording_make_path)
    cfg = scenario_from_dict(catalog_raw(name))
    [(base, path)] = built
    expected = np.stack([pointwise_path_point(cfg.echo["path"], base, path.grid[0],
                                              path.grid[-1], float(t)) for t in path.grid])
    assert path.points.shape == expected.shape
    assert np.array_equal(path.points, expected)


# --- no per-call loops on the check path ------------------------------------------

def count_calls(monkeypatch, counts):
    """Count single-time Hamiltonian samples, single two-time queries and grid lookups."""

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(HamiltonianFamily, "at", counting("at", HamiltonianFamily.at))
    monkeypatch.setattr(EvolutionTransport, "matrix_by_index",
                        counting("matrix_by_index", EvolutionTransport.matrix_by_index))
    lookup = counting("grid_index", grid_index)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fibreqm" and vars(module).get("grid_index") is grid_index:
            monkeypatch.setattr(module, "grid_index", lookup)


@pytest.mark.parametrize("name", ["rabi-drive", "driven-three-level"])
def test_check_path_makes_no_per_time_calls(monkeypatch, name):
    raw = catalog_raw(name)
    per_size = []
    for steps in (1000, 2000):
        cfg = scenario_from_dict(dict(raw, grid=dict(raw["grid"], steps=steps)))
        counts = {"at": 0, "matrix_by_index": 0, "grid_index": 0}
        with monkeypatch.context() as patch:
            count_calls(patch, counts)
            report = run_scenario(cfg)
        assert report.overall_pass
        assert counts["at"] == 0
        assert counts["matrix_by_index"] == 0
        per_size.append(counts["grid_index"])
    # A few stacked queries look up t0; one lookup per sampled triple or
    # grid time would be hundreds.
    assert per_size[0] == per_size[1] <= 20
