"""Generated scenario configs, drawn over every top-level key and every kind.

For each drawn config: (a) `scenario_from_dict` raises nothing but
`ConfigError`; (b) `run_scenario` never raises, and every failure is a record
named by its check (or `setup`); (e) the emitted records are standard JSON.
About half of the configs have one entry replaced by a malformed value (NaN,
an infinity, a boolean, a string, null or an empty container), so both the
resolution errors and the runs are exercised.  (d) Two runs of each of 20
configs that resolve give byte-identical timing-free records.  (c) The
positive control: every config with a Hermitian H, a unitary gauge and a grid
step h with h max||H|| <= 0.05 should pass every default check.  It does not
yet (ROADMAP items 4 and 6 (c)), so that property and two fixed
counterexamples are strict expected failures, and what does hold is tested:
no check fails but state_equivalence, or setup when the grid does not
resolve the gauge.  The examples are fixed by the deterministic hypothesis
profile in `conftest.py`.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from fibreqm.checks import run_scenario
from fibreqm.report import emit
from fibreqm.scenario import _CONFIG_KEYS, ALL_CHECKS, FAULTS, ConfigError, scenario_from_dict

NAN, INF = float("nan"), float("inf")
MALFORMED = st.sampled_from([NAN, INF, -INF, True, False, "x", "", None, [], {}])
REQUIRED = ("name", "dimension", "grid")
present = {"optional": st.booleans(), "required": st.sampled_from([True] * 9 + [False])}

reals = st.floats(-3.0, 3.0, allow_nan=False)
positive = st.floats(0.05, 3.0)


def real_vectors(n):
    return st.lists(reals, min_size=n, max_size=n)


def complex_vectors(n):
    return st.lists(st.tuples(reals, reals).map(list), min_size=n, max_size=n)


@st.composite
def complex_matrices(draw, n):
    rows = draw(st.lists(complex_vectors(n), min_size=n, max_size=n))
    if draw(st.booleans()):  # Hermitian: the upper triangle mirrored, a real diagonal
        for i in range(n):
            rows[i][i] = [rows[i][i][0], 0.0]
            for j in range(i):
                rows[i][j] = [rows[j][i][0], -rows[j][i][1]]
    return rows


def hamiltonians(n):
    qubit_only = [
        st.fixed_dictionaries({"kind": st.just("pauli")}, optional={
            "coefficients": st.dictionaries(st.sampled_from("xyzi"), reals)}),
        st.fixed_dictionaries({"kind": st.just("circular-drive")}, optional={
            "level_splitting": reals, "rabi_frequency": reals}),
    ]
    return st.one_of(
        st.just({"kind": "zero"}),
        st.fixed_dictionaries({"kind": st.just("constant"), "matrix": complex_matrices(n)}),
        st.fixed_dictionaries({"kind": st.just("random-hermitian")},
                              optional={"scale": positive}),
        st.fixed_dictionaries({"kind": st.just("cosine-drive"), "static": complex_matrices(n),
                               "drive": complex_matrices(n)}, optional={"omega": reals}),
        st.fixed_dictionaries({"kind": st.just("non-hermitian"),
                               "matrix": complex_matrices(n)}),
        *(qubit_only if n == 2 else []),
    )


def trivializations(n):
    return st.one_of(
        st.just({"kind": "identity"}),
        st.fixed_dictionaries({"kind": st.just("global-phase")}, optional={"omega": reals}),
        st.fixed_dictionaries({"kind": st.just("diagonal-phase"), "omegas": real_vectors(n)}),
        st.fixed_dictionaries({"kind": st.just("constant-diagonal"),
                               "entries": real_vectors(n)}),
        st.fixed_dictionaries({"kind": st.just("constant"), "matrix": complex_matrices(n)}),
        st.fixed_dictionaries({"kind": st.just("random-smooth-unitary")}, optional={
            "scale": positive, "frequency": reals}),
    )


def observables(n):
    pauli = st.fixed_dictionaries({"kind": st.just("pauli"), "axis": st.sampled_from("xyz")})
    kinds = st.one_of(
        st.fixed_dictionaries({"kind": st.just("matrix"), "matrix": complex_matrices(n)}),
        st.fixed_dictionaries({"kind": st.just("diagonal"), "entries": real_vectors(n)}),
        st.fixed_dictionaries({"kind": st.just("random-hermitian")},
                              optional={"scale": positive}),
        *([pauli] if n == 2 else []),
    )
    modulations = st.fixed_dictionaries({}, optional={"omega": reals, "offset": reals})
    extras = st.fixed_dictionaries({}, optional={"name": st.sampled_from(["a", "b", "c"]),
                                                 "modulation": modulations})
    return st.tuples(kinds, extras).map(lambda pair: {**pair[0], **pair[1]})


def candidates(n):
    pauli = st.fixed_dictionaries({"kind": st.just("pauli"), "axis": st.sampled_from("xyz"),
                                   "expected": st.booleans()})
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("hamiltonian"), "expected": st.booleans()}),
        st.fixed_dictionaries({"kind": st.just("matrix"), "matrix": complex_matrices(n),
                               "expected": st.booleans()},
                              optional={"name": st.sampled_from(["p", "q"])}),
        *([pauli] if n == 2 else []),
    )


def base_spaces():
    return st.one_of(
        st.fixed_dictionaries({"variant": st.just("euclidean")},
                              optional={"dim": st.integers(1, 3)}),
        st.fixed_dictionaries({"variant": st.just("interval"),
                               "bounds": st.tuples(st.floats(-6.0, -1.0),
                                                   st.floats(4.0, 8.0)).map(list)}),
        st.just({"variant": "single-point"}),
    )


def paths(base):
    """A path on `base`, the base space's spec."""
    variant, dim = base["variant"], base.get("dim", 3)
    if variant == "single-point":
        return st.just({"kind": "constant"})
    if variant == "interval":
        return st.fixed_dictionaries({"kind": st.just("identity")},
                                     optional={"forbid_self_intersections": st.booleans()})
    line = st.fixed_dictionaries({"kind": st.just("line")}, optional={
        "origin": real_vectors(dim), "velocity": real_vectors(dim),
        "forbid_self_intersections": st.booleans()})
    circle = st.fixed_dictionaries({"kind": st.just("circle")}, optional={
        "radius": positive, "turns": reals, "forbid_self_intersections": st.booleans()})
    return st.one_of(line, circle) if dim >= 2 else line


def grids():
    return st.tuples(st.floats(-1.0, 1.0), positive, st.integers(2, 20)).map(
        lambda g: {"t0": g[0], "t1": g[0] + g[1], "steps": g[2]})


def densities(n):
    return st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(
        lambda p: [[[x / (sum(p) or 1.0) if i == j else 0.0, 0.0] for j, x in enumerate(p)]
                   for i in range(n)])


def checks(raw):
    """Lists of the checks that `raw` has the inputs for."""
    inputs = {"integrals_of_motion": raw.get("integral_candidates"),
              "physics_closed_form": raw.get("physics_check")}
    admissible = [check for check in ALL_CHECKS if inputs.get(check, True)]
    return st.lists(st.sampled_from(admissible), min_size=1, max_size=4, unique=True)


def values(n, raw):
    """A well-formed value strategy for each top-level key, given dimension n and the
    keys drawn before it in `raw` (a path's base space, the checks' inputs).
    """
    return {
        "name": st.sampled_from(["g", "generated"]),
        "description": st.text("ab ", max_size=4),
        "dimension": st.just(n),
        "hbar": positive,
        "base_space": base_spaces(),
        "path": paths(raw.get("base_space", _CONFIG_KEYS["base_space"])),
        "grid": grids(),
        "hamiltonian": hamiltonians(n),
        "trivialization": trivializations(n),
        "observables": st.lists(observables(n), min_size=1, max_size=3),
        "initial_state": complex_vectors(n),
        "initial_density": densities(n),
        "integral_candidates": st.lists(candidates(n), max_size=2),
        "physics_check": st.fixed_dictionaries({"kind": st.just("rabi-flip")},
                                               optional={"omega": reals})
        if n == 2 else st.none(),
        "checks": checks(raw),
        "tolerances": st.dictionaries(st.sampled_from(("eq_tol", "prop_tol") + ALL_CHECKS),
                                      st.floats(0.0, 1e-3), max_size=2),
        "seed": st.integers(0, 5),
        "faults": st.dictionaries(st.sampled_from(FAULTS), st.booleans()),
    }


def _corrupted(draw, value):
    """`value` with one entry, at any depth, replaced by a malformed value."""
    if isinstance(value, dict) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value)))
        return {**value, key: _corrupted(draw, value[key])}
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        return [*value[:i], _corrupted(draw, value[i]), *value[i + 1:]]
    return draw(MALFORMED)


@st.composite
def configs(draw):
    n = draw(st.sampled_from([1, 2, 2, 3, 4]))  # the qubit-only kinds need n = 2
    raw = {}
    for key in _CONFIG_KEYS:  # in order: the base space before the path, inputs before checks
        if draw(present["required" if key in REQUIRED else "optional"]):
            raw[key] = draw(values(n, raw)[key])
    if raw and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(raw)))
        raw[key] = _corrupted(draw, raw[key])
    return raw


def _reject(constant):
    raise AssertionError(f"non-standard JSON constant {constant}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an overflowing run records nan
@settings(max_examples=200, deadline=None)
@given(configs())
def test_generated_config_resolves_runs_and_emits_standard_json(raw):
    try:
        cfg = scenario_from_dict(raw)  # (a) a bad config is a ConfigError, nothing else
    except ConfigError:
        return
    report = run_scenario(cfg)  # (b) never raises
    checks = [record.check for record in report.records]
    if checks == ["setup"]:
        assert not report.records[0].passed and report.records[0].detail
    else:
        assert checks == cfg.checks and set(checks) <= set(ALL_CHECKS)
    # (e) the records are standard JSON and name every failure
    payload = json.loads(emit(report, "records"), parse_constant=_reject)
    assert [record["check"] for record in payload["records"]] == checks


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an overflowing run records nan
@settings(max_examples=20, deadline=None)
@given(configs())
def test_a_generated_config_runs_to_byte_identical_records_twice(raw):
    try:
        scenario_from_dict(raw)
    except ConfigError:
        assume(False)  # 20 configs that run
    # (d) each run resolves the config afresh and shares nothing with the other
    first, second = (json.dumps(run_scenario(scenario_from_dict(raw)).to_dict(
        include_timing=False), sort_keys=True).encode() for _ in range(2))
    assert first == second


# --- (c) the positive control ------------------------------------------------------

@st.composite
def hermitian_matrices(draw, n):
    """(M + M^dagger) / 2 of a drawn complex matrix M, as [re, im] entries."""
    m = np.array([[complex(*z) for z in row] for row in draw(
        st.lists(complex_vectors(n), min_size=n, max_size=n))])
    return [[[z.real, z.imag] for z in row] for row in (m + m.conj().T) / 2.0]


def hermitian_hamiltonians(n):
    """(spec, whether H is constant in time) of every Hermitian Hamiltonian kind."""
    constant = st.one_of(
        st.just({"kind": "zero"}),
        st.fixed_dictionaries({"kind": st.just("constant"), "matrix": hermitian_matrices(n)}),
        st.fixed_dictionaries({"kind": st.just("random-hermitian")},
                              optional={"scale": positive}),
        *([st.fixed_dictionaries({"kind": st.just("pauli")}, optional={
            "coefficients": st.dictionaries(st.sampled_from("xyzi"), reals)})]
          if n == 2 else []))
    driven = st.one_of(
        st.fixed_dictionaries({"kind": st.just("cosine-drive"), "static": hermitian_matrices(n),
                               "drive": hermitian_matrices(n)}, optional={"omega": reals}),
        *([st.fixed_dictionaries({"kind": st.just("circular-drive")}, optional={
            "level_splitting": reals, "rabi_frequency": reals})] if n == 2 else []))
    return st.one_of(constant.map(lambda h: (h, True)), driven.map(lambda h: (h, False)))


def unitary_trivializations(n):
    return st.one_of(
        st.just({"kind": "identity"}),
        st.fixed_dictionaries({"kind": st.just("global-phase")}, optional={"omega": reals}),
        st.fixed_dictionaries({"kind": st.just("diagonal-phase"), "omegas": real_vectors(n)}),
        st.fixed_dictionaries({"kind": st.just("random-smooth-unitary")}, optional={
            "scale": positive, "frequency": reals}),
    )


def _largest_norm(hamiltonian, times) -> float:
    return float(np.max(np.linalg.norm(hamiltonian.at_many(times), 2, axis=(1, 2)), initial=0.0))


@st.composite
def resolved_steps(draw):
    """A raw config in (c)'s domain.  Its step count is the least that keeps
    h max||H|| <= 0.045 with max||H|| taken over 4097 times, at least 2."""
    n = draw(st.sampled_from([1, 2, 2, 3, 4]))
    hamiltonian, constant = draw(hermitian_hamiltonians(n))
    raw = {
        "name": "positive-control", "dimension": n, "hamiltonian": hamiltonian,
        "trivialization": draw(unitary_trivializations(n)),
        "grid": {**draw(grids()), "steps": 2},
        "observables": [dict(spec, name=f"o{i}") for i, spec in enumerate(  # unique names
            draw(st.lists(observables(n), min_size=1, max_size=3)))],
        "initial_state": draw(complex_vectors(n).filter(  # a state, so nonzero
            lambda v: sum(x * x + y * y for x, y in v) > 0.0)),
        "seed": draw(st.integers(0, 5)),
    }
    if constant:  # H(t0) is then an integral of motion
        raw["integral_candidates"] = [{"kind": "hamiltonian", "expected": True}]
    grid = raw["grid"]
    dense = np.linspace(grid["t0"], grid["t1"], 4097)
    largest = _largest_norm(scenario_from_dict(raw).hamiltonian, dense)
    grid["steps"] = max(2, math.ceil((grid["t1"] - grid["t0"]) * largest / 0.045))
    return raw


# The counterexamples below are the first failing draws of the property, by hand
# made smaller.  No open item makes either pass; each names the item that has to
# decide it.
UNRESOLVED = [
    # ROADMAP item 4: the O(h^2) difference of the two midpoint integrations,
    # 9.9e-4 here at h max||H|| = 0.043, is judged by a fixed 1e-6
    pytest.param({"name": "c-steps", "dimension": 2,
                  "hamiltonian": {"kind": "pauli", "coefficients": {"x": 1.0}},
                  "trivialization": {"kind": "diagonal-phase", "omegas": [0.0, 3.0]},
                  "grid": {"t0": 0.0, "t1": 1.0, "steps": 23}},
                 "state_equivalence", id="state_equivalence-at-the-bound"),
    # ROADMAP item 6 (c): its premise bounds H alone, and a gauge the grid does not
    # resolve fails setup's finite-difference check of its derivative
    pytest.param({"name": "c-gauge", "dimension": 1, "hamiltonian": {"kind": "zero"},
                  "trivialization": {"kind": "global-phase"},
                  "grid": {"t0": 0.0, "t1": 1.0, "steps": 2}},
                 "setup", id="unresolved-gauge"),
]


def _failed_checks(raw):
    """The checks a config in (c)'s domain fails."""
    cfg = scenario_from_dict(raw)
    times = cfg.times
    mids = (times[:-1] + times[1:]) / 2.0
    assert float(np.max(np.diff(times))) * _largest_norm(cfg.hamiltonian, mids) <= 0.05
    return {r.check: (r.max_residual, r.detail) for r in run_scenario(cfg).records
            if not r.passed}


@pytest.mark.parametrize("raw, failing", UNRESOLVED)
def test_a_counterexample_fails_its_named_check_alone(raw, failing):
    assert list(_failed_checks(raw)) == [failing]


@pytest.mark.xfail(strict=True, reason="ROADMAP items 4 and 6 (c): see UNRESOLVED")
@pytest.mark.parametrize("raw, failing", UNRESOLVED)
def test_a_counterexample_passes_every_default_check(raw, failing):
    assert not _failed_checks(raw)


# Item 4's order check (state_equivalence shrinking 4x when h halves) does not
# exist yet, so "every default check" is every check the scenario has the inputs
# for today.  The property fails as UNRESOLVED's configs do, and the next test
# holds what does hold.  Neither is shrunk: an expected failure costs no more
# than its draws.
@pytest.mark.xfail(strict=True, reason="ROADMAP items 4 and 6 (c): see UNRESOLVED")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(resolved_steps())
def test_a_hermitian_h_under_a_unitary_gauge_passes_every_default_check(raw):
    failed = _failed_checks(raw)
    assert not failed, (raw, failed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(resolved_steps())
def test_a_hermitian_h_under_a_unitary_gauge_fails_no_check_but_unresolved_ones(raw):
    failed = _failed_checks(raw)
    assert list(failed) in ([], ["state_equivalence"], ["setup"]), (raw, failed)
