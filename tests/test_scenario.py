import ast
import dataclasses
import functools
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import weakref
from collections import Counter
from functools import cached_property
from importlib import resources

import numpy as np
import pytest

import fibreqm.bundle as bundle_module
import fibreqm.checks as checks_module
import fibreqm.cli as cli_module
import fibreqm.dynamics as dynamics_module
import fibreqm.hilbert as hilbert_module
import fibreqm.pictures as pictures_module
import fibreqm.report as report_module
import fibreqm.scenario as scenario_module
import fibreqm.suite as suite_module
import fibreqm.transport as transport_module
from fibreqm.bundle import TrivializationFamily
from fibreqm.checks import (
    _CHECK_TABLE,
    _NODES,
    _judged,
    build_artifacts,
    run_scenario,
)
from fibreqm.cli import main as cli_main
from fibreqm.dynamics import (
    HamiltonianFamily,
    ObservableFamily,
    PropagatorGrid,
    Trajectory,
    grid_index,
    midpoint_propagators,
    propagate_states,
    step_products,
)
from fibreqm.hilbert import matrix_exponential, time_blocks
from fibreqm.pictures import PictureTransform
from fibreqm.report import (
    CheckRecord,
    ScenarioReport,
    SuiteReport,
    emit,
    report_from_dict,
    suite_from_dict,
)
from fibreqm.scenario import (
    ALL_CHECKS,
    ConfigError,
    catalog_names,
    load_catalog_scenario,
    load_scenario,
    scenario_from_dict,
)
from fibreqm.suite import run_configs, run_suite
from fibreqm.transport import (
    EvolutionTransport,
    MatrixBundleHamiltonian,
    integrate_bundle_schrodinger,
)

MINIMAL = {
    "name": "minimal",
    "dimension": 2,
    "grid": {"t0": 0.0, "t1": 1.0, "steps": 50},
    "hamiltonian": {"kind": "pauli", "coefficients": {"z": 1.0}},
    "trivialization": {"kind": "identity"},
}


NAN, INF = float("nan"), float("inf")


def same_timeseries(a: dict, b: dict) -> bool:
    """Whether two reports' timeseries, each name -> a float64 array, have the same names
    and the same values, a NaN matching a NaN."""
    return a.keys() == b.keys() and all(np.array_equal(a[key], b[key], equal_nan=True)
                                        for key in a)


NAN_MATRIX = [[[NAN, 0], [0, 0]], [[0, 0], [1, 0]]]

# Malformed config values: each must raise a ConfigError that names its field,
# never a bare ValueError or TypeError, and a boolean is never a number.
BAD_VALUES = {
    "hamiltonian matrix NaN": (
        {"hamiltonian": {"kind": "constant", "matrix": NAN_MATRIX}}, r"^hamiltonian\.matrix"),
    "diagonal observable NaN": (
        {"observables": [{"kind": "diagonal", "entries": [NAN, 1.0], "name": "d"}]},
        r"^observables\[0\]\.entries"),
    "constant-diagonal NaN": (
        {"trivialization": {"kind": "constant-diagonal", "entries": [NAN, 1.0]}},
        r"^trivialization\.entries"),
    "matrix candidate NaN": (
        {"integral_candidates": [{"kind": "matrix", "expected": True, "matrix": NAN_MATRIX}]},
        r"^integral_candidates\[0\]\.matrix"),
    "constant-diagonal zero": (
        {"trivialization": {"kind": "constant-diagonal", "entries": [0.0, 1.0]}},
        r"^trivialization: .*singular"),
    "hbar NaN": ({"hbar": NAN}, r"^hbar"),
    "hbar negative": ({"hbar": -1}, r"^hbar"),
    "t1 infinite": ({"grid": {"t0": 0.0, "t1": INF, "steps": 50}}, r"^grid\.t1"),
    "seed string": ({"seed": "abc"}, r"^seed"),
    "omega string": ({"trivialization": {"kind": "global-phase", "omega": "fast"}},
                     r"^trivialization\.omega: .*'fast'"),
    "interval NaN": ({"base_space": {"variant": "interval", "bounds": [NAN, 1.0]}},
                     r"^base_space"),
    "dimension bool": ({"dimension": True}, r"^dimension"),
    "bool complex entry": ({"initial_state": [[True, False], [0, 0]]}, r"^initial_state"),
    # every scalar parameter of a section is read as a finite number
    "phase omega bool": ({"trivialization": {"kind": "global-phase", "omega": True}},
                         r"^trivialization\.omega"),
    "omegas NaN": ({"trivialization": {"kind": "diagonal-phase", "omegas": [1.0, NAN]}},
                   r"^trivialization\.omegas\[1\]"),
    "gauge scale infinite": ({"trivialization": {"kind": "random-smooth-unitary", "scale": INF}},
                             r"^trivialization\.scale"),
    "gauge frequency string": (
        {"trivialization": {"kind": "random-smooth-unitary", "frequency": "fast"}},
        r"^trivialization\.frequency"),
    "pauli coefficient bool": ({"hamiltonian": {"kind": "pauli", "coefficients": {"x": True}}},
                               r"^hamiltonian\.coefficients\.x"),
    "pauli coefficients list": ({"hamiltonian": {"kind": "pauli", "coefficients": [1.0]}},
                                r"^hamiltonian\.coefficients"),
    "level splitting NaN": ({"hamiltonian": {"kind": "circular-drive", "level_splitting": NAN}},
                            r"^hamiltonian\.level_splitting"),
    "rabi frequency infinite": (
        {"hamiltonian": {"kind": "circular-drive", "rabi_frequency": -INF}},
        r"^hamiltonian\.rabi_frequency"),
    "drive omega bool": ({"hamiltonian": {"kind": "cosine-drive", "omega": False,
                                          "static": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                                          "drive": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}},
                         r"^hamiltonian\.omega"),
    "hamiltonian scale string": ({"hamiltonian": {"kind": "random-hermitian", "scale": "big"}},
                                 r"^hamiltonian\.scale"),
    "observable scale NaN": (
        {"observables": [{"kind": "random-hermitian", "scale": NAN, "name": "r"}]},
        r"^observables\[0\]\.scale"),
    "modulation omega infinite": (
        {"observables": [{"kind": "pauli", "axis": "z", "modulation": {"omega": INF}}]},
        r"^observables\[0\]\.modulation\.omega"),
    "modulation offset bool": (
        {"observables": [{"kind": "pauli", "axis": "z", "modulation": {"offset": True}}]},
        r"^observables\[0\]\.modulation\.offset"),
    "circle radius NaN": ({"path": {"kind": "circle", "radius": NAN}}, r"^path\.radius"),
    "circle turns string": ({"path": {"kind": "circle", "turns": "two"}}, r"^path\.turns"),
    "line origin bool": ({"path": {"kind": "line", "origin": [True, 0.0, 0.0]}},
                         r"^path\.origin\[0\]"),
    "interval bound bool": ({"base_space": {"variant": "interval", "bounds": [0.0, True]}},
                            r"^base_space\.bounds\[1\]"),
    "physics omega string": ({"physics_check": {"kind": "rabi-flip", "omega": "x"}},
                             r"^physics_check\.omega"),
    # a flag is a JSON boolean and a name is a string, never read by truthiness
    "self-intersection flag string": (
        {"path": {"kind": "circle", "turns": 2.0, "forbid_self_intersections": "false"}},
        r"^path\.forbid_self_intersections: .*'false'"),
    "self-intersection flag number": (
        {"path": {"kind": "line", "forbid_self_intersections": 1}},
        r"^path\.forbid_self_intersections"),
    "observable name list": (
        {"observables": [{"kind": "pauli", "axis": "z", "name": ["a"]}]},
        r"^observables\[0\]\.name"),
    "observable name number": (
        {"observables": [{"kind": "pauli", "axis": "z", "name": 5}]},
        r"^observables\[0\]\.name"),
    "matrix candidate name list": (
        {"integral_candidates": [{"kind": "matrix", "expected": True, "name": ["c"],
                                  "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        r"^integral_candidates\[0\]\.name"),
    "matrix candidate name number": (
        {"integral_candidates": [{"kind": "matrix", "expected": True, "name": 7,
                                  "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        r"^integral_candidates\[0\]\.name"),
    # an entry's own check names the entry, here the second of its list
    "pauli observable in dimension 3": (
        {"dimension": 3, "hamiltonian": {"kind": "zero"},
         "observables": [{"kind": "diagonal", "entries": [1, 2, 3]},
                         {"kind": "pauli", "axis": "z"}]},
        r"^observables\[1\]\.pauli requires dimension 2$"),
    "observable axis unknown": (
        {"observables": [{"kind": "pauli", "axis": "z"}, {"kind": "pauli", "axis": "w"}]},
        r"^observables\[1\]\.axis: unknown axis 'w'$"),
    "pauli candidate in dimension 3": (
        {"dimension": 3, "hamiltonian": {"kind": "zero"},
         "integral_candidates": [{"kind": "hamiltonian", "expected": True},
                                 {"kind": "pauli", "axis": "z", "expected": False}]},
        r"^integral_candidates\[1\]\.pauli requires dimension 2$"),
    "description NaN": ({"description": NAN}, r"^description: need a string, got nan$"),
    "description list": ({"description": ["a"]}, r"^description: need a string, got \['a'\]$"),
    "description number": ({"description": 3}, r"^description: need a string, got 3$"),
    "fault flag string": ({"faults": {"drop_trivialization_derivative": "false"}},
                          r"^faults\.drop_trivialization_derivative: need a bool, got 'false'$"),
    "fault flag number": ({"faults": {"drop_trivialization_derivative": 0}},
                          r"^faults\.drop_trivialization_derivative"),
    # a check id names one record, so it is requested once
    "duplicate check ids": ({"checks": ["norm_drift", "state_equivalence", "norm_drift"]},
                            r"^checks: duplicate check ids \['norm_drift'\]$"),
    # tolerances and faults are sections, read like any other
    "tolerances list": ({"tolerances": [1e-6]}, r"^tolerances: need an object, got \[1e-06\]$"),
    "faults list": ({"faults": ["drop_trivialization_derivative"]},
                    r"^faults: need an object, got \['drop_trivialization_derivative'\]$"),
    "tolerance null": ({"tolerances": {"norm_drift": None}},
                       r"^tolerances\.norm_drift: need a finite number, got None$"),
    # a computed default is computed only for an absent key, never for null
    "path null": ({"path": None}, r"^path: need an object, got None$"),
    "observables null": ({"observables": None}, r"^observables: must be a non-empty list$"),
}

# One misspelled key per section object, and a key only another kind reads:
# each is a ConfigError naming the section and the key, never a silent fall
# back to the key's default.  case -> (section, unread key, config changes)
UNREAD_KEYS = {
    "base_space": ("base_space", "dimm", {"base_space": {"variant": "euclidean", "dimm": 2}}),
    "path": ("path", "velocty", {"path": {"kind": "line", "velocty": [0.0, 1.0, 0.0]}}),
    "grid": ("grid", "tl", {"grid": {"t0": 0.0, "tl": 2.0, "steps": 50}}),
    "hamiltonian": ("hamiltonian", "coefficents",
                    {"hamiltonian": {"kind": "pauli", "coefficents": {"x": 3.0}}}),
    "hamiltonian.coefficients": ("hamiltonian.coefficients", "xx",
                                 {"hamiltonian": {"kind": "pauli", "coefficients": {"xx": 3.0}}}),
    "trivialization": ("trivialization", "omgea",
                       {"trivialization": {"kind": "global-phase", "omgea": 1}}),
    "observables[0]": ("observables[0]", "nmae",
                       {"observables": [{"kind": "pauli", "axis": "z", "nmae": "s"}]}),
    "observables[0].modulation": (
        "observables[0].modulation", "omgea",
        {"observables": [{"kind": "pauli", "axis": "z", "modulation": {"omgea": 2.0}}]}),
    "integral_candidates[0]": (
        "integral_candidates[0]", "expectd",
        {"integral_candidates": [{"kind": "pauli", "axis": "z", "expected": True,
                                  "expectd": False}]}),
    "physics_check": ("physics_check", "omgea",
                      {"physics_check": {"kind": "rabi-flip", "omgea": 2.0}}),
    "key of another kind": ("hamiltonian", "coefficients",
                            {"hamiltonian": {"kind": "zero", "coefficients": {"z": 1.0}}}),
    "tolerances": ("tolerances", "nonsense", {"tolerances": {"eq_tol": 1e-5, "nonsense": 1.0}}),
    "faults": ("faults", "drop_trivialisation_derivative",
               {"faults": {"drop_trivialisation_derivative": True}}),
}


# A builder that fails for want of a key names the section's near miss of it;
# any other unread key leaves the builder's own message alone.
CONSTANT_2X2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
NEAR_MISSES = {
    "hamiltonian": (
        {"hamiltonian": {"kind": "constant", "matrx": CONSTANT_2X2}},
        "hamiltonian: unknown keys ['matrx'] "
        "(hamiltonian.matrix: expected an 2x2 matrix of [re, im] pairs)"),
    "observables[0]": (
        {"observables": [{"kind": "matrix", "matrx": CONSTANT_2X2, "name": "m"}]},
        "observables[0]: unknown keys ['matrx'] "
        "(observables[0].matrix: expected an 2x2 matrix of [re, im] pairs)"),
    "circle on a 1-D base": (
        {"base_space": {"variant": "euclidean", "dim": 1},
         "path": {"kind": "circle", "radius": 2.0, "turns": 1.0}},
        "path.circle requires a Euclidean base of dim >= 2"),
    "bad static, valid omega": (
        {"hamiltonian": {"kind": "cosine-drive", "static": [[1, 0]], "drive": CONSTANT_2X2,
                         "omega": 2.0}},
        "hamiltonian.static: expected an 2x2 matrix of [re, im] pairs"),
}


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestLoading:
    def test_minimal_config_fills_defaults(self):
        cfg = scenario_from_dict(dict(MINIMAL))
        assert cfg.tolerances["state_equivalence"] == 1e-6
        assert cfg.tolerances["density_consistency"] == 1e-8
        assert cfg.seed == 0
        assert cfg.initial_state[0] == 1.0
        assert np.array_equal(cfg.initial_density, np.diag([1.0, 0.0]))
        assert cfg.faults == frozenset()
        assert "state_equivalence" in cfg.checks
        assert cfg.echo["tolerances"]["eq_tol"] == 1e-6
        assert cfg.echo["tolerances"]["prop_tol"] == 1e-8

    def test_dimension_mismatch_is_named(self):
        raw = dict(MINIMAL)
        raw["observables"] = [{"kind": "diagonal", "entries": [1, 0, -1], "name": "bad"}]
        with pytest.raises(ConfigError, match="entries"):
            scenario_from_dict(raw)

    def test_matrix_dimension_checked(self):
        raw = dict(MINIMAL)
        raw["hamiltonian"] = {"kind": "constant",
                              "matrix": [[[1, 0], [0, 0], [0, 0]],
                                         [[0, 0], [1, 0], [0, 0]],
                                         [[0, 0], [0, 0], [1, 0]]]}
        with pytest.raises(ConfigError, match="2x2"):
            scenario_from_dict(raw)

    def test_tolerance_overrides(self):
        raw = dict(MINIMAL)
        raw["tolerances"] = {"eq_tol": 1e-5, "state_equivalence": 1e-4}
        cfg = scenario_from_dict(raw)
        assert cfg.tolerances["state_equivalence"] == 1e-4
        assert cfg.tolerances["physics_closed_form"] == 1e-5

    def test_unknown_keys_rejected(self):
        raw = dict(MINIMAL)
        raw["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            scenario_from_dict(raw)

    def test_unknown_check_rejected(self):
        raw = dict(MINIMAL)
        raw["checks"] = ["state_equivalence", "nonsense"]
        with pytest.raises(ConfigError, match="nonsense"):
            scenario_from_dict(raw)

    def test_bad_grid_rejected(self):
        raw = dict(MINIMAL)
        raw["grid"] = {"t0": 1.0, "t1": 0.0, "steps": 10}
        with pytest.raises(ConfigError, match="t0 < t1"):
            scenario_from_dict(raw)
        raw["grid"] = {"t0": 0.0, "t1": 1.0, "steps": 1}
        with pytest.raises(ConfigError, match="steps"):
            scenario_from_dict(raw)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  oops\n}\n')
        with pytest.raises(ConfigError, match="line 3"):
            load_scenario(path)

    def test_non_utf8_config_is_a_config_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_scenario(path)

    def test_complex_entry_format_enforced(self):
        raw = dict(MINIMAL)
        raw["initial_state"] = [[1.0], [0.0]]
        with pytest.raises(ConfigError, match=r"\[re, im\]"):
            scenario_from_dict(raw)

    def test_catalog_has_ten_scenarios(self):
        names = [name for name, _ in catalog_names()]
        assert len(names) == 10
        assert len(set(names)) == 10
        assert "degenerate-single-point" in names
        assert "rabi-drive" in names

    def test_time_dependent_observable_resolution(self):
        raw = dict(MINIMAL)
        raw["observables"] = [{"kind": "pauli", "axis": "z", "name": "wobble",
                               "modulation": {"omega": 2.0, "offset": 0.5}}]
        cfg = scenario_from_dict(raw)
        family = cfg.observables[0]
        stack = family.at_many(cfg.times)
        assert family.name == "wobble"
        assert stack.shape == (51, 2, 2)
        k = 10
        expected = (0.5 + np.cos(2.0 * cfg.times[k])) * np.diag([1.0, -1.0])
        assert np.allclose(stack[k], expected)
        report = run_scenario(cfg)
        assert report.record("mean_value_invariance").passed

    def test_modulated_observable_derivative_matches_its_samples(self):
        # A(t) = (1.5 + cos 3t) diag(1, 0, -1): central differences of its own
        # samples agree with the exact derivative to within h^2 w^3 max|A_0| / 6
        cfg = load_catalog_scenario("driven-three-level")
        family = next(f for f in cfg.observables if f.name == "modulated_ladder")
        times = cfg.times
        values = family.at_many(times)
        central = (values[2:] - values[:-2]) / (times[2:] - times[:-2])[:, None, None]
        h = float(times[1] - times[0])
        deviation = np.max(np.abs(family.derivative_at_many(times[1:-1])[1] - central))
        assert deviation <= h ** 2 * 3.0 ** 3 / 6 + 1e-9

    @pytest.mark.parametrize("changes, match", [
        ({"observables": []}, "observables"),
        ({"observables": [], "checks": ["mean_value_invariance"]}, "observables"),
        ({"observables": [], "checks": ["hermiticity_correspondence"]}, "observables"),
        ({"observables": [], "checks": ["picture_invariance"]}, "observables"),
        ({"checks": ["integrals_of_motion"]}, "integral_candidates"),
        ({"checks": ["physics_closed_form"]}, "physics_check"),
    ])
    def test_check_without_its_inputs_rejected(self, changes, match):
        with pytest.raises(ConfigError, match=match):
            scenario_from_dict(dict(MINIMAL, **changes))

    @pytest.mark.parametrize("density, match", [
        ([[2, 0], [0, 0]], "trace"),
        ([[0.5, 1], [0, 0.5]], "Hermitian"),
        ([[1.5, 0], [0, -0.5]], "positive semidefinite"),
    ])
    def test_initial_density_must_be_a_density_matrix(self, density, match):
        raw = dict(MINIMAL, initial_density=[[[x, 0] for x in row] for row in density])
        with pytest.raises(ConfigError, match=match):
            scenario_from_dict(raw)

    def test_mixed_initial_density_accepted(self):
        raw = dict(MINIMAL, initial_density=[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]])
        assert "density_purity" not in scenario_from_dict(raw).checks

    @pytest.mark.parametrize("changes, match", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
    def test_bad_value_is_a_config_error_naming_its_field(self, changes, match):
        with pytest.raises(ConfigError, match=match):
            scenario_from_dict(dict(MINIMAL, **changes))

    @pytest.mark.parametrize("where, key, changes", list(UNREAD_KEYS.values()),
                             ids=list(UNREAD_KEYS))
    def test_unread_key_is_a_config_error_naming_it(self, where, key, changes):
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: unknown keys \['{key}'\]$"):
            scenario_from_dict(dict(MINIMAL, **changes))

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match=r"^grid\.t1"):
            scenario_from_dict(dict(MINIMAL, grid={"t0": 0.0, "t1": 10 ** 400, "steps": 50}))

    @pytest.mark.parametrize("key", ["eq_tol", "prop_tol", "state_equivalence"])
    @pytest.mark.parametrize("value", [NAN, INF, -INF, -1e-6])
    def test_tolerance_must_be_finite_and_non_negative(self, key, value):
        with pytest.raises(ConfigError, match=rf"^tolerances\.{key}"):
            scenario_from_dict(dict(MINIMAL, tolerances={key: value}))

    def test_infinite_tolerance_cannot_pass_a_detected_fault(self):
        raw = dict(MINIMAL, trivialization={"kind": "global-phase"},
                   faults={"drop_trivialization_derivative": True})
        assert not run_scenario(scenario_from_dict(raw)).record("state_equivalence").passed
        with pytest.raises(ConfigError, match=r"^tolerances\.eq_tol"):
            scenario_from_dict(dict(raw, tolerances={"eq_tol": INF}))

    @pytest.mark.parametrize("changes, message", list(NEAR_MISSES.values()), ids=list(NEAR_MISSES))
    def test_a_near_miss_of_a_missing_key_is_named(self, changes, message):
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
            scenario_from_dict(dict(MINIMAL, **changes))

    def test_the_echo_is_the_config_with_every_default_filled_in(self):
        cfg = scenario_from_dict(dict(MINIMAL, hbar=2, checks=None))
        assert list(cfg.echo) == list(scenario_module._CONFIG_KEYS)
        assert cfg.echo["hbar"] == 2.0 and isinstance(cfg.echo["hbar"], float)
        assert cfg.echo["path"] == {"kind": "line"}
        assert cfg.echo["observables"][0] == {"kind": "pauli", "axis": "z", "name": "sigma_z"}
        assert cfg.echo["checks"] == cfg.checks
        assert cfg.echo["tolerances"] == {"eq_tol": 1e-6, "prop_tol": 1e-8}
        assert {key: cfg.echo[key] for key in ("description", "base_space", "initial_state",
                                               "integral_candidates", "seed", "faults")} == {
            "description": "", "base_space": {"variant": "euclidean", "dim": 3},
            "initial_state": None, "integral_candidates": [], "seed": 0, "faults": {}}

    def test_readme_key_table_matches_the_resolution_table(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Scenario configs", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| (.*?) \|", section, re.M)

        def documented(default):
            if default is scenario_module._REQUIRED:
                return "required"
            return "computed" if callable(default) else f"`{json.dumps(default)}`"

        assert rows == [(key, documented(default))
                        for key, default in scenario_module._CONFIG_KEYS.items()]

    def test_no_default_object_is_shared_between_configs(self):
        bare = {"name": "bare", "dimension": 2, "grid": {"steps": 10}}  # every other key defaulted
        one, two = (scenario_from_dict(dict(bare)).echo for _ in range(2))
        for key in ("base_space", "path", "hamiltonian", "trivialization", "tolerances", "faults"):
            one[key]["poked"] = True
        for key in ("observables", "integral_candidates", "checks"):
            one[key].append("poked")
        assert "poked" not in json.dumps(two)
        assert "poked" not in json.dumps(scenario_from_dict(dict(bare)).echo)  # nor the table
        # resolution copies a default shallowly, which is a whole copy while each is flat
        for default in scenario_module._CONFIG_KEYS.values():
            if isinstance(default, (dict, list)):
                values = default.values() if isinstance(default, dict) else default
                assert not any(isinstance(v, (dict, list)) for v in values), default


class TestRunScenario:
    def test_minimal_run_passes(self):
        report = run_scenario(scenario_from_dict(dict(MINIMAL)))
        assert report.overall_pass
        assert {r.check for r in report.records} == set(scenario_from_dict(dict(MINIMAL)).checks)

    def test_module_dualities_run_only_by_request(self):
        assert "module_dualities" not in scenario_from_dict(dict(MINIMAL)).checks
        raw = dict(MINIMAL, checks=["state_equivalence", "module_dualities"])
        assert run_scenario(scenario_from_dict(raw)).record("module_dualities").passed

    def test_each_requested_check_appears_exactly_once(self):
        report = run_scenario(scenario_from_dict(dict(MINIMAL)))
        ids = [r.check for r in report.records]
        assert len(ids) == len(set(ids))

    def test_failure_surfaces_as_record_not_exception(self):
        from fibreqm.bundle import TrivializationFamily
        cfg = scenario_from_dict(dict(MINIMAL))
        cfg.trivialization = TrivializationFamily(
            lambda ts: (np.stack([np.diag([t - 0.5, 1.0]) for t in ts]).astype(complex),
                        np.broadcast_to(np.diag([1.0, 0.0]).astype(complex), (ts.size, 2, 2))),
            2, name="singular-mid")
        report = run_scenario(cfg)
        assert not report.overall_pass
        setup = report.record("setup")
        assert not setup.passed
        assert "Singular" in setup.detail or "singular" in setup.detail

    def test_determinism_byte_identical(self):
        raw = dict(MINIMAL)
        raw["seed"] = 123
        raw["trivialization"] = {"kind": "random-smooth-unitary", "scale": 0.4}
        rep1 = run_scenario(scenario_from_dict(raw))
        rep2 = run_scenario(scenario_from_dict(raw))
        blob1 = json.dumps(rep1.to_dict(include_timing=False), sort_keys=True)
        blob2 = json.dumps(rep2.to_dict(include_timing=False), sort_keys=True)
        assert blob1.encode() == blob2.encode()

    def test_fault_injection_breaks_state_equivalence(self):
        raw = dict(MINIMAL)
        raw["trivialization"] = {"kind": "global-phase", "omega": 6.283185307179586}
        raw["faults"] = {"drop_trivialization_derivative": True}
        report = run_scenario(scenario_from_dict(raw))
        record = report.record("state_equivalence")
        assert not record.passed
        assert record.max_residual >= 1e-2

    @pytest.mark.parametrize("kernel, operand, check_ids", [
        ("fibre_means", 1, ["mean_value_invariance", "picture_invariance"]),
        ("bundle_adjoint_maps", 2, ["hermiticity_correspondence"]),
    ])
    def test_nan_residual_of_one_observable_fails_by_name(self, monkeypatch, kernel, operand,
                                                          check_ids):
        # MINIMAL evolves under sigma_z, so only sigma_x (its second observable)
        # has off-diagonal entries, in the Schrodinger and the Heisenberg picture.
        import fibreqm.checks as checks
        real = getattr(checks, kernel)

        def poisoned(*args):
            out = real(*args)
            if np.max(np.abs(np.asarray(args[operand])[..., 0, 1])) > 0.5:
                return np.full_like(out, np.nan)
            return out

        monkeypatch.setattr(checks, kernel, poisoned)
        cfg = scenario_from_dict(dict(MINIMAL))
        assert [family.name for family in cfg.observables] == ["sigma_z", "sigma_x"]
        report = run_scenario(cfg)
        for check_id in check_ids:
            record = report.record(check_id)
            assert not record.passed
            assert np.isnan(record.max_residual)
            assert record.detail == "worst observable: sigma_x"
            assert record.worst_time == 0.0

    @pytest.mark.parametrize("poisoned, query", [("values", "at_many"),
                                                 ("derivative", "derivative_at_many")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_trivialization_fails_setup_by_name(self, poisoned, query, bad):
        def sampler(kind):
            def sample(ts):
                out = np.exp(1j * ts)[:, None, None] * np.eye(2)
                if kind == "derivative":
                    out = 1j * out
                if kind == poisoned:
                    out[ts.size // 2, 0, 0] = bad
                return out
            return sample

        family = TrivializationFamily(lambda ts: (sampler("values")(ts),
                                                  sampler("derivative")(ts)), 2, name="poisoned")
        with pytest.raises(ValueError, match="trivialization 'poisoned'.* non-finite"):
            getattr(family, query)(np.linspace(0.0, 1.0, 5))

        cfg = scenario_from_dict(dict(MINIMAL))
        cfg.trivialization = family
        setup = run_scenario(cfg).record("setup")
        assert not setup.passed
        assert setup.detail.startswith("ValueError: trivialization 'poisoned'")


class TestJudge:
    """Every pointwise check's residuals are judged in one place."""

    times = np.array([0.0, 0.5, 1.0, 1.5])

    def test_first_maximum_and_its_time(self):
        record = _judged("norm_drift", self.times, {"": np.array([1e-9, 3e-9, 3e-9, 2e-9])},
                         1e-8)
        assert record == CheckRecord("norm_drift", 3e-9, 1e-8, True, 0.5)

    def test_a_nan_anywhere_fails_at_the_first_nan(self):
        record = _judged("norm_drift", self.times, {"": np.array([1e-9, 5.0, np.nan, np.nan])},
                         10.0)
        assert not record.passed
        assert np.isnan(record.max_residual)
        assert record.worst_time == 1.0

    def test_a_nan_observable_wins_over_a_larger_finite_one(self):
        record = _judged("picture_invariance", self.times, {
            "worst observable: big": np.array([0.0, 7.0, 0.0, 0.0]),
            "worst observable: nan": np.array([0.0, 0.0, 0.0, np.nan]),
        }, 1e-8)
        assert not record.passed
        assert np.isnan(record.max_residual)
        assert (record.worst_time, record.detail) == (1.5, "worst observable: nan")

    def test_a_tie_goes_to_the_first_observable(self):
        record = _judged("picture_invariance", self.times, {
            "worst observable: first": np.array([0.0, 0.0, 2.0, 0.0]),
            "worst observable: second": np.array([2.0, 0.0, 0.0, 0.0]),
        }, 1e-8)
        assert record == CheckRecord("picture_invariance", 2.0, 1e-8, False, 1.0,
                                     "worst observable: first")


POINTWISE_CHECKS = {"state_equivalence", "norm_drift", "mean_value_invariance",
                    "hermiticity_correspondence", "picture_invariance", "heisenberg_constancy",
                    "density_consistency", "density_purity", "fibre_trace_preservation",
                    "physics_closed_form"}


class TestPointwiseRunner:
    """`_sweep` calls a pointwise check on each time block, concatenates and judges once."""

    @pytest.fixture
    def judge(self, monkeypatch, two_block_gauge):
        """(detail -> {block: {index in block: residual}}) -> the record and series of a
        norm_drift entry that returns those residuals, zero elsewhere, on the blocks.
        The sweep calls it on each of the four blocks, which places the residuals of its
        own times."""
        cfg = two_block_gauge
        parts = time_blocks(cfg.times.size, cfg.dimension)
        assert len(parts) == 4

        def run(placed):
            def controlled(part, trajectory):
                assert trajectory is None
                residuals = {}
                for detail, per_block in placed.items():
                    residuals[detail] = np.zeros(cfg.times.size)
                    for block, at in per_block.items():
                        for idx, value in at.items():
                            residuals[detail][parts[block].start + idx] = value
                    residuals[detail] = residuals[detail][part]
                return residuals, {"index": np.arange(part.start, part.stop)}

            monkeypatch.setitem(_CHECK_TABLE, "norm_drift", controlled)
            assert cfg.tolerances["norm_drift"] == 1e-8
            nodes = {"cfg": cfg, "times": cfg.times, "trajectory": None}
            return checks_module._sweep(nodes, ["norm_drift"])["norm_drift"]

        return run, cfg.times

    def test_a_maximum_in_the_second_block_is_reported_at_its_time(self, judge):
        run, times = judge
        record, series = run({"": {0: {10: 1.0}, 1: {7: 3.0, 9: 2.0}}})
        assert record == CheckRecord("norm_drift", 3.0, 1e-8, False, float(times[128 + 7]))
        assert list(series) == ["index"]
        assert np.array_equal(series["index"], np.arange(times.size))

    def test_a_nan_in_the_second_block_beats_a_larger_value_in_the_first(self, judge):
        run, times = judge
        record, _ = run({"": {0: {3: 7.0}, 1: {5: np.nan, 9: np.nan}}})
        assert not record.passed
        assert np.isnan(record.max_residual)
        assert record.worst_time == float(times[128 + 5])

    def test_a_tie_across_blocks_or_details_goes_to_the_first(self, judge):
        run, times = judge
        record, _ = run({"": {0: {100: 2.0}, 1: {3: 2.0}}})
        assert (record.max_residual, record.worst_time) == (2.0, float(times[100]))
        record, _ = run({"worst observable: a": {1: {3: 2.0}},
                         "worst observable: b": {0: {50: 2.0}}})
        assert (record.max_residual, record.worst_time, record.detail) == (
            2.0, float(times[128 + 3]), "worst observable: a")


class TestSweep:
    """One pass over the time blocks runs every pointwise check, block nodes live one block,
    and a failure in it fails its own checks alone."""

    def test_each_block_node_is_built_once_per_block(self, monkeypatch, two_block_gauge):
        cfg = two_block_gauge
        block_nodes = checks_module._BLOCK_NODES
        readers = {name: sorted(key for key in [*cfg.checks, *block_nodes]
                                if name in checks_module._READS[key])
                   for name in block_nodes}
        assert readers == {
            "conventional_rows": ["conventional_t0", "density_conventional", "transport_t0"],
            "conventional_t0": ["density_conventional", "transport_t0"],
            "transport_t0": ["density_transported", "heisenberg_means", "heisenberg_values",
                             "integral_deviations", "transported_section"],
            "lifted_observables": ["heisenberg_means", "hermiticity_correspondence",
                                   "mean_value_invariance", "picture_invariance"],
            "density_transported": ["density_consistency", "density_purity",
                                    "fibre_trace_preservation"],
            "density_conventional": ["density_consistency"],
            "transported_section": ["heisenberg_values", "picture_invariance"],
            "heisenberg_values": ["heisenberg_constancy", "heisenberg_means"],
            "heisenberg_means": ["picture_invariance"],
            "integral_deviations": ["integrals_of_motion"],
            "frames": ["density_consistency", "hermiticity_correspondence", "integral_deviations",
                       "inverse_frames", "lifted_observables", "mean_value_invariance",
                       "picture_invariance", "transport_t0"],
            "inverse_frames": ["density_consistency", "hermiticity_correspondence",
                               "integral_deviations", "lifted", "lifted_observables",
                               "transport_t0"],
            "lifted": ["mean_value_invariance", "state_equivalence"]}
        built = []  # (block node, the first time index of its block)

        def counting(part, *reads, name, build):
            built.append((name, part.start))
            return build(part, *reads)

        for name in block_nodes:
            monkeypatch.setitem(_NODES, name, functools.partial(
                counting, name=name, build=_NODES[name]))
        assert run_scenario(cfg).overall_pass
        # the sweep's slices are the time blocks
        starts = [part.start for part in time_blocks(cfg.times.size, cfg.dimension)]
        assert starts == [0, 128, 256, 384]
        assert Counter(built) == {(name, start): 1 for name in block_nodes for start in starts}

    @staticmethod
    def recording_block_nodes(monkeypatch, names) -> dict:
        """Block node -> (the start of its latest build's block, a weak reference to an
        array that build holds), for each of `names`, whose builds are wrapped to record
        it."""
        refs = {}

        def recording(part, *reads, name, build):
            node = build(part, *reads)
            held = (next(iter(node.values())) if isinstance(node, dict)
                    else node[0] if isinstance(node, tuple) else node)
            refs[name] = part.start, weakref.ref(held)
            return node

        for name in names:
            monkeypatch.setitem(_NODES, name, functools.partial(recording, name=name,
                                                                build=_NODES[name]))
        return refs

    @staticmethod
    def alive_in(refs: dict, part: slice) -> list:
        """The recorded block nodes of the block `part` that are alive.  A node of an
        earlier block can be too, through a view its block's output keeps: the series
        of a check's block is the real part of a complex array."""
        return sorted(name for name, (start, ref) in refs.items()
                      if start == part.start and ref() is not None)

    def test_a_block_node_is_dropped_after_its_last_reader_in_its_block(self, monkeypatch,
                                                                        two_block_gauge):
        cfg = two_block_gauge
        monkeypatch.setattr(hilbert_module, "_WORKERS", 1)  # one block in flight
        # every check runs in each block in the sweep's run order, the check table's,
        # not the scenario's: the transport criterion's block node is built after the
        # density checks, and before the checks that read the lifted observables
        assert cfg.checks[-1] == "integrals_of_motion"
        run_order = [check_id for check_id in _CHECK_TABLE if check_id in cfg.checks]
        assert run_order.index("fibre_trace_preservation") + 1 == run_order.index(
            "integrals_of_motion") < run_order.index("mean_value_invariance")
        refs = self.recording_block_nodes(
            monkeypatch, checks_module._BLOCK_NODES - {"integral_deviations"})
        alive = []  # the block nodes alive as each block's transport criterion is built
        deviations = _NODES["integral_deviations"]

        def probe(part, *reads):
            alive.append(self.alive_in(refs, part))
            return deviations(part, *reads)

        monkeypatch.setitem(_NODES, "integral_deviations", probe)
        assert run_scenario(cfg).overall_pass
        assert len(refs) == 12
        slices = len(time_blocks(cfg.times.size, cfg.dimension))  # four slices
        # its own reads, and the lifted states that state_equivalence built for
        # mean_value_invariance; the conventional rows, their inverses and both
        # densities went with the density checks
        assert alive == [["frames", "inverse_frames", "lifted", "transport_t0"]] * slices

    def test_picture_invariance_runs_beside_its_own_block_nodes_alone(self, monkeypatch,
                                                                      two_block_gauge):
        cfg = two_block_gauge
        monkeypatch.setattr(hilbert_module, "_WORKERS", 1)  # one block in flight
        refs = self.recording_block_nodes(monkeypatch, checks_module._BLOCK_NODES)
        alive, check = [], _CHECK_TABLE["picture_invariance"]  # the block nodes alive at
        # each of its calls

        def probe(part, *reads):
            alive.append(self.alive_in(refs, part))
            return check(part, *reads)

        monkeypatch.setitem(_CHECK_TABLE, "picture_invariance", probe)
        assert run_scenario(cfg).overall_pass
        assert set(refs) == checks_module._BLOCK_NODES
        # the block nodes it reads, and no conventional rows or their inverses, no
        # density, no inverse frames and no lifted states: their last readers in the
        # block have run.  No t0 rows either: their last reader is the Heisenberg
        # means' build, and they go between the check's reads and its call.  The
        # Heisenberg states are alive for heisenberg_constancy, which runs after it,
        # and the transport criterion's per-time deviations as integrals_of_motion's
        # output on the block, which every check's output is until the blocks are
        # folded.
        reads = sorted(set(checks_module._READS["picture_invariance"])
                       & checks_module._BLOCK_NODES)
        assert reads == ["frames", "heisenberg_means", "lifted_observables",
                         "transported_section"]
        assert alive == [sorted(reads + ["heisenberg_values", "integral_deviations"])] * len(
            time_blocks(cfg.times.size, cfg.dimension))

    def test_density_consistency_runs_without_the_conventional_rows(self, monkeypatch,
                                                                    two_block_gauge):
        # The slice's conventional rows and their inverses feed only the two densities
        # that density_consistency reads, so they go between its reads and its call,
        # before it forms its lift of the conventional density.
        cfg = two_block_gauge
        monkeypatch.setattr(hilbert_module, "_WORKERS", 1)  # one block in flight
        refs = self.recording_block_nodes(monkeypatch, checks_module._BLOCK_NODES)
        alive, check = [], _CHECK_TABLE["density_consistency"]  # at each of its calls

        def probe(part, *reads):
            alive.append(self.alive_in(refs, part))
            return check(part, *reads)

        monkeypatch.setitem(_CHECK_TABLE, "density_consistency", probe)
        assert run_scenario(cfg).overall_pass
        # its reads; the t0 rows, which density_purity, the transport criterion and
        # the Heisenberg nodes read later; and the lifted states, which
        # mean_value_invariance reads later
        assert alive == [["density_conventional", "density_transported", "frames",
                          "inverse_frames", "lifted", "transport_t0"]] * len(
            time_blocks(cfg.times.size, cfg.dimension))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("scenario", ["two-block", "nonunitary-constant-gauge"])
    def test_the_records_do_not_depend_on_the_order_of_the_checks(self, monkeypatch,
                                                                   two_block_gauge, scenario,
                                                                   workers):
        # each slice runs the checks in the sweep's run order, whatever the scenario's;
        # the checks finish, and their whole nodes are dropped, in the scenario's order,
        # and the records keep it
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        cfg = two_block_gauge if scenario == "two-block" else load_catalog_scenario(scenario)
        forward = run_scenario(cfg)
        backward = run_scenario(dataclasses.replace(cfg, checks=cfg.checks[::-1]))
        assert forward.overall_pass
        assert [r.check for r in backward.records] == cfg.checks[::-1]
        assert ({r.check: r.to_dict() for r in backward.records}
                == {r.check: r.to_dict() for r in forward.records})
        assert same_timeseries(backward.timeseries, forward.timeseries)

    @staticmethod
    def assert_fails_alone(clean, report, failed, detail, series):
        """`report` is the `clean` run but for the checks `failed`, each a failed record
        with `detail`, and their timeseries `series`, which it lacks."""
        assert [r.to_dict() for r in report.records] == [
            CheckRecord(r.check, float("inf"), r.tolerance, False, None, detail).to_dict()
            if r.check in failed else r.to_dict() for r in clean.records]
        assert set(clean.timeseries) - set(report.timeseries) == series
        assert same_timeseries(report.timeseries,
                               {key: clean.timeseries[key] for key in report.timeseries})

    def test_a_check_that_raises_in_one_block_fails_alone(self, monkeypatch, two_block_gauge):
        cfg = two_block_gauge
        clean = run_scenario(cfg)
        check = _CHECK_TABLE["picture_invariance"]

        def raises_in_the_second_block(part, *reads):
            if part.start:
                raise FloatingPointError("overflow in the second block")
            return check(part, *reads)

        monkeypatch.setitem(_CHECK_TABLE, "picture_invariance", raises_in_the_second_block)
        self.assert_fails_alone(clean, run_scenario(cfg), {"picture_invariance"},
                                "FloatingPointError: overflow in the second block",
                                {key for key in clean.timeseries
                                 if key.startswith("mean_heisenberg:")})

    def test_a_block_node_that_raises_fails_its_readers_alone(self, monkeypatch,
                                                              two_block_gauge):
        cfg = two_block_gauge
        clean = run_scenario(cfg)
        build = _NODES["density_transported"]

        def raises_in_the_second_block(part, *reads):
            if part.start:
                raise FloatingPointError("overflow in the second block")
            return build(part, *reads)

        monkeypatch.setitem(_NODES, "density_transported", raises_in_the_second_block)
        self.assert_fails_alone(
            clean, run_scenario(cfg),
            {"density_consistency", "density_purity", "fibre_trace_preservation"},
            "FloatingPointError: overflow in the second block", {"density_residual"})


class TestConcurrentSweep:
    """The sweep's time blocks run on `_WORKERS` threads, the calling thread among them, on
    whole nodes built before them, and fold in block order."""

    def test_a_failure_is_that_of_the_first_failing_block_whichever_finishes_first(
            self, monkeypatch, five_block_gauge):
        cfg = dataclasses.replace(five_block_gauge, checks=["state_equivalence", "norm_drift"])
        monkeypatch.setattr(hilbert_module, "_WORKERS", 3)
        starts = [part.start for part in time_blocks(cfg.times.size, cfg.dimension)]
        third_done = threading.Event()
        waited = []  # whether the second block saw the third one finish first
        check = _CHECK_TABLE["norm_drift"]

        def raises_in_the_second_and_third_blocks(part, *reads):
            if part.start == starts[1]:
                waited.append(third_done.wait(timeout=30))
                raise FloatingPointError("overflow in the second block")
            if part.start == starts[2]:
                third_done.set()
                raise FloatingPointError("overflow in the third block")
            return check(part, *reads)

        monkeypatch.setitem(_CHECK_TABLE, "norm_drift", raises_in_the_second_and_third_blocks)
        report = run_scenario(cfg)
        assert waited == [True]
        assert report.record("norm_drift").to_dict() == CheckRecord(
            "norm_drift", INF, cfg.tolerances["norm_drift"], False, None,
            "FloatingPointError: overflow in the second block").to_dict()
        assert report.record("state_equivalence").passed
        assert "norm_sq" not in report.timeseries

    def test_each_whole_node_is_built_once_per_pass_at_two_workers(self, monkeypatch,
                                                                   two_block_gauge):
        monkeypatch.setattr(hilbert_module, "_WORKERS", 2)
        built = []

        def counting(*reads, name, build):
            built.append(name)
            if name not in checks_module._SETUP:
                time.sleep(0.05)  # a second thread reading it meanwhile would build it too
            return build(*reads)

        whole = set(_NODES) - checks_module._BLOCK_NODES
        for name in whole:
            monkeypatch.setitem(_NODES, name, functools.partial(counting, name=name,
                                                                build=_NODES[name]))
        assert run_scenario(two_block_gauge).overall_pass
        # every node a check reads, section_t0 and integral_commutators among them
        assert {"section_t0", "integral_commutators"} < set(built)
        assert Counter(built) == {name: 1 for name in built}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("node, readers", [
        # read in the slices by a pointwise check: its readers build it again, on
        # the calling thread alone, and fail by its error
        ("section_t0", {"heisenberg_constancy"}),
        # read after the slices by the two checks that build their record from it;
        # a failed build stores nothing, so the second builds it again
        ("transport_axioms", {"transport_identity", "transport_composition"})],
        ids=["section_t0", "transport_axioms"])
    def test_a_whole_node_that_raises_fails_its_readers_alone(self, monkeypatch,
                                                              two_block_gauge, workers, node,
                                                              readers):
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        clean = run_scenario(two_block_gauge)

        def raises(*reads):
            raise FloatingPointError(f"overflow in {node}")

        monkeypatch.setitem(_NODES, node, raises)
        TestSweep.assert_fails_alone(clean, run_scenario(two_block_gauge), readers,
                                     f"FloatingPointError: overflow in {node}", set())

    def test_no_thread_outlives_the_sweep(self, monkeypatch, two_block_gauge):
        monkeypatch.setattr(hilbert_module, "_WORKERS", 2)
        during = []  # the live threads at each block of one check
        check = _CHECK_TABLE["norm_drift"]

        def counting(part, *reads):
            during.append(threading.active_count())
            return check(part, *reads)

        monkeypatch.setitem(_CHECK_TABLE, "norm_drift", counting)
        before = threading.active_count()
        assert run_scenario(two_block_gauge).overall_pass
        assert threading.active_count() == before
        # one call per time block, and one helper thread
        assert len(during) == len(time_blocks(two_block_gauge.times.size, 16)) == 4
        assert max(during) == before + 1

    def test_a_one_block_scenario_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(hilbert_module, "_WORKERS", 2)
        monkeypatch.setattr(hilbert_module, "ThreadPoolExecutor", None)  # unusable
        assert run_scenario(load_catalog_scenario("random-unitary-gauge")).overall_pass

    def test_the_t0_lookups_do_not_grow_with_the_blocks(self, monkeypatch, two_block_gauge,
                                                        five_block_gauge):
        lookups = []
        real = transport_module.grid_index

        def counting(times, t):
            lookups.append(t)
            return real(times, t)

        monkeypatch.setattr(transport_module, "grid_index", counting)
        per_run = []
        for cfg in (load_catalog_scenario("random-unitary-gauge"), two_block_gauge,
                    five_block_gauge):
            del lookups[:]
            assert run_scenario(cfg).overall_pass
            per_run.append(len(lookups))
        # t0 is looked up once, when the transport is built; the t0 rows of every
        # block and the row U(t0, t0) reuse its index
        assert per_run == [1, 1, 1]


class TestConcurrentSetup:
    """Setup's block loops run on the workers of `hilbert._in_block_order` too: the
    same bits at any worker count, the first failing block's error, and never more
    than `_WORKERS` threads."""

    @staticmethod
    def kernels(cfg) -> dict:
        """Every setup kernel whose blocks run on the workers, on the config's grid."""
        times, constants = cfg.times, cfg.constants
        bundle_generator = MatrixBundleHamiltonian(cfg.hamiltonian, cfg.trivialization, times,
                                                   constants)
        h0 = cfg.hamiltonian.at(times[0])
        varying = HamiltonianFamily(lambda ts: np.cos(ts)[:, None, None] * h0, cfg.dimension)
        values, inverses = cfg.trivialization.validate_on_grid(times)
        grid = PropagatorGrid(varying, times, constants, psi0=cfg.initial_state)
        # every bundle step's exponent at once: one batch of several time blocks,
        # whose norm pass and polynomial blocks run on the workers
        mids = (times[:-1] + times[1:]) / 2.0
        scaled = (-1j * np.diff(times)[:, None, None] * bundle_generator.at_many(mids)
                  / constants.hbar)
        return {
            "bundle steps": midpoint_propagators(bundle_generator, times, constants),
            "bundle section": integrate_bundle_schrodinger(bundle_generator,
                                                           cfg.initial_state).values,
            "conventional steps": midpoint_propagators(cfg.hamiltonian, times, constants),
            "time-dependent steps": midpoint_propagators(varying, times, constants),
            "grid values": values[:],
            "grid inverses": inverses[:],
            "from_t0 by blocks": np.concatenate(hilbert_module._in_block_order(
                lambda part: grid.from_t0[part], time_blocks(times.size, cfg.dimension))),
            "conventional states": grid.states,
            "into_t0 by blocks": np.concatenate(hilbert_module._in_block_order(
                lambda part: grid.into_t0[part], time_blocks(times.size, cfg.dimension))),
            "whole-stack inverse": np.linalg.inv(grid.from_t0),
            "exponentials": matrix_exponential(scaled),
        }

    def test_the_setup_kernels_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                                 five_block_gauge):
        cfg = five_block_gauge
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
            outputs.append(self.kernels(cfg))
        serial = outputs[0]
        assert serial["bundle steps"].shape == (300, 32, 32)
        for concurrent in outputs[1:]:
            for key, value in serial.items():
                assert np.array_equal(concurrent[key], value), key
        # the inverse per block has the bits of one whole-stack call, the rows per
        # block those of the products of the whole stack of steps, and the streamed
        # section that of the whole stack of bundle steps
        assert np.array_equal(serial["into_t0 by blocks"], serial["whole-stack inverse"])
        assert np.array_equal(serial["from_t0 by blocks"],
                              step_products(serial["time-dependent steps"]))
        assert np.array_equal(serial["conventional states"], propagate_states(
            serial["time-dependent steps"], five_block_gauge.initial_state))
        assert np.array_equal(serial["bundle section"], propagate_states(
            serial["bundle steps"], five_block_gauge.initial_state))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_setup_failure_is_that_of_the_first_failing_block(self, monkeypatch,
                                                                 five_block_gauge, workers):
        # l(t) = diag(f(t), 1, ..., 1) with f = (t - a)(t - b) vanishing at the midpoints
        # a and b of the second and fourth slices of midpoints, which the sampler cuts
        # in time blocks: the grid frames are invertible, and the bundle generator's
        # midpoint frames of those two slices are singular
        cfg = five_block_gauge
        mids = (cfg.times[:-1] + cfg.times[1:]) / 2.0
        starts = [part.start for part in time_blocks(mids.size, cfg.dimension)]
        a, b = mids[starts[1] + 20], mids[starts[3] + 28]
        eye = np.eye(cfg.dimension, dtype=complex)

        def sample(ts):
            values = np.repeat(eye[None], ts.size, axis=0)
            derivative = np.zeros_like(values)
            values[:, 0, 0] = (ts - a) * (ts - b)
            derivative[:, 0, 0] = 2 * ts - a - b
            return values, derivative

        cfg = dataclasses.replace(cfg, trivialization=TrivializationFamily(sample, 32, "twice"))
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        # at three workers the fourth slice runs beside the second: its failure is
        # made to come first
        fourth_failed = threading.Event()
        waited = []
        real = bundle_module._require_invertible

        def ordered(mats, name, times):
            times = np.atleast_1d(times)
            if workers == 3 and a in times:
                waited.append(fourth_failed.wait(timeout=30))
            try:
                return real(mats, name, times)
            finally:
                if b in times:
                    fourth_failed.set()

        monkeypatch.setattr(bundle_module, "_require_invertible", ordered)
        report = run_scenario(cfg)
        assert waited == ([True] if workers == 3 else [])
        assert [record.to_dict() for record in report.records] == [CheckRecord(
            "setup", INF, 0.0, False, None,
            f"SingularTrivializationError: trivialization 'twice' is singular at t={a:g}"
        ).to_dict()]

    def test_no_more_than_the_workers_run_and_nested_blocks_start_no_thread(
            self, monkeypatch, five_block_gauge):
        monkeypatch.setattr(hilbert_module, "_WORKERS", 3)
        during = []  # the live threads in each block of setup's and the sweep's loops

        def counting(module, name):
            real = getattr(module, name)

            def count(*args, **kwargs):
                during.append(threading.active_count())
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, count)

        counting(hilbert_module, "_planned_exponential")  # the step exponentials
        counting(dynamics_module, "_scaled")  # the bundle generator's blocks
        counting(bundle_module, "max_abs")  # the Gram tests and the stencils
        check = _CHECK_TABLE["norm_drift"]
        monkeypatch.setitem(_CHECK_TABLE, "norm_drift", lambda part, *reads: (
            during.append(threading.active_count()) or check(part, *reads)))
        before = threading.active_count()
        assert run_scenario(five_block_gauge).overall_pass
        assert threading.active_count() == before
        assert max(during) == before + 2  # two helpers beside the calling thread

        # a block loop inside a block loop runs serially on its worker
        pools = []

        class Counted(hilbert_module.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hilbert_module, "ThreadPoolExecutor", Counted)
        parts = time_blocks(301, 32)
        del during[:]

        def inner(part):
            during.append(threading.active_count())
            return part.start

        nested = hilbert_module._in_block_order(
            lambda part: hilbert_module._in_block_order(inner, parts), parts)
        assert nested == [[part.start for part in parts]] * len(parts)
        assert pools == [(2,)] and max(during) <= before + 2
        assert threading.active_count() == before


def test_no_check_cuts_blocks_judges_itself_or_takes_a_series():
    tree = ast.parse(pathlib.Path(checks_module.__file__).read_text())
    checks = [fn for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_check_")]
    assert sorted(fn.name for fn in checks) == sorted(f.__name__ for f in _CHECK_TABLE.values())
    assert checks_module._POINTWISE == POINTWISE_CHECKS
    pointwise = {_CHECK_TABLE[check_id].__name__ for check_id in POINTWISE_CHECKS}
    for fn in checks:
        named = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
        assert not named & {"time_blocks", "series_by_blocks"}, fn.name
        # the runner judges a pointwise check; a check that builds its record may judge
        assert "_judged" not in named or fn.name not in pointwise, fn.name
        assert "series" not in [arg.arg for arg in fn.args.args], fn.name


def test_only_the_sweep_calls_a_check():
    # One runner: a check is called on a slice (`_block_output`) or after the
    # slices (`_sweep`), and no other function reads the check table.
    tree = ast.parse(pathlib.Path(checks_module.__file__).read_text())
    readers, callers = Counter(), Counter()  # top-level function -> its reads, calls
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "_CHECK_TABLE":
                readers[fn.name] += 1
            if isinstance(node, ast.Call):
                called = node.func.value if isinstance(node.func, ast.Subscript) else node.func
                if isinstance(called, ast.Name) and (called.id == "_CHECK_TABLE"
                                                     or called.id.startswith("_check_")):
                    callers[fn.name] += 1
    # `_sweep` reads the table once more, for the order each slice runs its checks in
    assert readers == {"_block_output": 1, "_sweep": 2}
    assert callers == {"_block_output": 1, "_sweep": 1}


def test_only_dynamics_forms_step_products():
    # The conventional products are formed one checkpoint segment at a time by
    # `PropagatorGrid`'s reader; no other engine module forms them whole.
    # `step_products` stays public for library callers.
    callers = set()
    for path in sorted(pathlib.Path(checks_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called = node.func
                name = (called.id if isinstance(called, ast.Name)
                        else called.attr if isinstance(called, ast.Attribute) else None)
                if name == "step_products":
                    callers.add(path.name)
    assert callers == {"dynamics.py"}


def _ramp(n_times):
    return np.linspace(0.0, 1.0, n_times)


# (scenario, node, what its build returns -> the perturbed node, the checks that
# must catch it).  The comments give the residuals each perturbation reaches.
NEGATIVE_CONTROLS = [
    ("two-block", "trajectory",  # norm_drift 2.0e-6
     lambda t: Trajectory(t.times, t.states * (1 + 1e-6 * _ramp(t.times.size))[:, None]),
     ["norm_drift"]),
    ("two-block", "lifted_observables",  # 1.6e-5
     lambda lifted: {name: a * (1 + 1e-6) for name, a in lifted.items()},
     ["mean_value_invariance"]),
    ("two-block", "lifted_observables",  # 1.0e-6
     lambda lifted: {name: a + 1e-6j * np.eye(16) for name, a in lifted.items()},
     ["hermiticity_correspondence"]),
    # along e_{n-1}: a bump along e_0 only rescales this scenario's state
    ("two-block", "heisenberg_values", lambda v: v + 1e-6 * np.eye(16)[-1],  # 4.75e-6, 1.0e-6
     ["picture_invariance", "heisenberg_constancy"]),
    ("two-block", "density_transported",  # 1.0e-6
     lambda rho: rho + 1e-6 * _ramp(len(rho))[:, None, None] * np.eye(16),
     ["density_consistency"]),
    ("two-block", "density_transported", lambda rho: rho * (1 + 1e-6),  # 1.0e-6 each
     ["density_purity", "fibre_trace_preservation"]),
    ("rabi-drive", "trajectory", lambda t: Trajectory(t.times, t.states * [1.0, 1.0 + 1e-4]),
     ["physics_closed_form"]),  # 5.0e-5
    # the t0 rows (U(t, t0), U(t0, t)) of each block: the from-rows carry the
    # transported section and both t0-stack conjugations
    ("two-block", "transport_t0", lambda t0: (t0[0] * (1 + 1e-6), t0[1]),  # 1.6e-5, 1.0e-6 each
     ["picture_invariance", "density_consistency", "density_purity",
      "fibre_trace_preservation"]),
    # the into-rows carry the Heisenberg states back to t0, where Psi(t0) is its own row
    ("two-block", "transport_t0", lambda t0: (t0[0], t0[1] * (1 + 1e-6)),  # 1.6e-5, 1.0e-6
     ["picture_invariance", "heisenberg_constancy"]),
    # the transport criterion alone: the commutator residual does not read the rows
    ("two-block", "transport_t0", lambda t0: (t0[0], t0[1] * (1 + 1e-5)),  # 7.0e-6
     ["integrals_of_motion"]),
]


@pytest.mark.parametrize("scenario, node, perturbed, caught", NEGATIVE_CONTROLS,
                         ids=[f"{node}-{'-'.join(caught)}"
                              for _, node, _, caught in NEGATIVE_CONTROLS])
def test_a_perturbed_node_fails_the_pointwise_checks_that_read_it(monkeypatch, two_block_gauge,
                                                                  scenario, node, perturbed,
                                                                  caught):
    cfg = two_block_gauge if scenario == "two-block" else load_catalog_scenario(scenario)
    cfg = dataclasses.replace(cfg, checks=caught)
    assert run_scenario(cfg).overall_pass
    build = _NODES[node]
    monkeypatch.setitem(_NODES, node, lambda *reads: perturbed(build(*reads)))
    records = run_scenario(cfg).records
    assert [record.check for record in records] == caught
    for record in records:
        assert not record.passed, record.check
        assert np.isfinite(record.max_residual), record  # judged, not raised


class TestSampleOnce:
    @pytest.mark.parametrize("scenario", ["random-unitary-gauge", "five-block"])
    def test_each_time_set_sampled_once(self, five_block_gauge, scenario):
        # The family's joint sampler gives values and derivative together, so the
        # grid (for its check, one time block per call) and the midpoints (for the
        # bundle generator) are each evaluated once, every check run included.  The
        # values sampler is held to the joint one on the first time block, then
        # samples the values again once per slice of the sweep, no slice twice, and
        # each read of a two-time query samples its distinct times once.
        if scenario == "five-block":
            cfg = five_block_gauge  # ten time blocks
        else:
            cfg = load_catalog_scenario(scenario)
            cfg.rabi_omega = np.pi  # so physics_closed_form can run too, as every check does
        own = list(cfg.checks)
        if scenario != "five-block":
            cfg = dataclasses.replace(cfg, checks=list(ALL_CHECKS))
        family = cfg.trivialization
        joint, values = [], []  # the times of each call of each sampler

        def recording(calls, sampler):
            def record(times):
                calls.append(np.array(times, dtype=float))
                return sampler(times)
            return record

        family._sample = recording(joint, family._sample)
        family._values = recording(values, family._values)
        records = run_scenario(cfg).records
        assert all(r.passed for r in records if r.check in own)

        def in_order(calls):
            return np.concatenate(sorted(calls, key=lambda ts: ts[0]))

        on_grid = [ts for ts in joint if np.isin(ts, cfg.times).all()]
        off_grid = [ts for ts in joint if not np.isin(ts, cfg.times).any()]
        assert len(on_grid) + len(off_grid) == len(joint)
        assert np.array_equal(in_order(on_grid), cfg.times)
        assert np.array_equal(in_order(off_grid), (cfg.times[:-1] + cfg.times[1:]) / 2.0)
        slices = [cfg.times[part] for part in time_blocks(cfg.times.size, cfg.dimension)]
        assert len(slices) == (10 if scenario == "five-block" else 1)
        assert len(on_grid) == len(slices)
        assert np.array_equal(values[0], slices[0])  # the values sampler's check
        values = values[1:]
        sweep = [k for k, ts in enumerate(values)
                 if any(np.array_equal(ts, block) for block in slices)]
        assert len(sweep) == len(slices)  # no slice samples its frames twice
        assert np.array_equal(in_order([values[k] for k in sweep]), cfg.times)
        queries = [ts for k, ts in enumerate(values) if k not in sweep]
        assert queries and all(np.unique(ts).size == ts.size for ts in queries)

    @pytest.mark.parametrize("scenario", ["two-block", "random-unitary-gauge"])
    def test_each_t0_block_formed_once_per_pass(self, monkeypatch, two_block_gauge, scenario):
        cfg = two_block_gauge if scenario == "two-block" else load_catalog_scenario(scenario)
        assert {"picture_invariance", "heisenberg_constancy", "density_consistency",
                "integrals_of_motion"} <= set(cfg.checks)
        calls = []  # (query, grid index of its fixed time, rows formed)
        for method in ("matrices_from", "matrices_into"):
            def counting(transport, t, part=None, *rows, real=getattr(EvolutionTransport, method),
                         method=method):
                calls.append((method, grid_index(transport.times, t),
                              None if part is None else (part.start, part.stop)))
                return real(transport, t, part, *rows)
            monkeypatch.setattr(EvolutionTransport, method, counting)
        assert run_scenario(cfg).overall_pass
        blocks = [(part.start, part.stop) for part in time_blocks(cfg.times.size, cfg.dimension)]
        # every reader of the t0 stacks shares each of the sweep's slices, the time
        # blocks; the one other query is
        # the row U(t0, t0), for the Heisenberg states' reference Psi(t0)
        assert Counter(calls) == Counter(
            [(method, 0, rows) for method in ("matrices_from", "matrices_into")
             for rows in blocks] + [("matrices_from", 0, (0, 1))])

    def test_the_catalog_passes_without_the_whole_t0_stacks(self):
        # the transport keeps no whole copy of its t0 rows
        assert not {"from_t0", "into_t0"} & set(dir(EvolutionTransport))
        for name, _ in catalog_names():
            assert run_scenario(load_catalog_scenario(name)).overall_pass, name

    def test_each_frame_batch_checked_invertible_once(self, monkeypatch):
        batches, proofs = [], []
        real, real_proof = bundle_module._require_invertible, bundle_module._slice_proof

        def counting(mats, name, times):
            batches.append(mats.shape[0])
            return real(mats, name, times)

        def proving(mats):
            proofs.append(mats.shape[0])
            return real_proof(mats)

        monkeypatch.setattr(bundle_module, "_require_invertible", counting)
        monkeypatch.setattr(bundle_module, "_slice_proof", proving)
        assert run_scenario(load_catalog_scenario("random-unitary-gauge")).overall_pass
        # the grid, proven slice by slice (one time block) by the grid check, then
        # the midpoints' batch
        assert batches == [1000]
        assert proofs == [1001, 1000]

    def test_each_frame_stack_forms_its_gram_product_once(self, monkeypatch):
        stacks = []
        real = bundle_module._gram_passes

        def counting(mats):
            stacks.append(mats.shape[0])
            return real(mats)

        monkeypatch.setattr(bundle_module, "_gram_passes", counting)
        assert run_scenario(load_catalog_scenario("random-unitary-gauge")).overall_pass
        # the grid and the midpoints, each proven and inverted by one Gram pass,
        # then the random picture's one block behind V(t0)
        assert stacks == [1001, 1000, 1002]

    def test_fault_family_checks_each_batch_once(self, monkeypatch):
        batches = []
        real = bundle_module.checked_stack

        def counting(stack, times, dimension, what):
            if what == "trivialization 'global-phase'":
                batches.append(times.size)
            return real(stack, times, dimension, what)

        monkeypatch.setattr(bundle_module, "checked_stack", counting)
        raw = dict(MINIMAL, trivialization={"kind": "global-phase"},
                   faults={"drop_trivialization_derivative": True})
        assert not run_scenario(scenario_from_dict(raw)).record("state_equivalence").passed
        # the grid, then the midpoints, then the values of the sweep's one slice;
        # the rest are the queries' reads, and none samples the grid again
        assert batches[:3] == [51, 50, 51]
        assert 51 not in batches[3:]

    def test_paths_and_observables_sampled_once(self, monkeypatch):
        point_batches = []
        make_path = scenario_module.make_path

        def recording_make_path(base, domain, point_fn, samples, **kwargs):
            def recording(ts):
                point_batches.append(ts.shape)
                return point_fn(ts)
            return make_path(base, domain, recording, samples, **kwargs)

        sampled = []
        at_many = ObservableFamily.at_many

        def counting(family, times):
            sampled.append(family.name)
            return at_many(family, times)

        monkeypatch.setattr(scenario_module, "make_path", recording_make_path)
        monkeypatch.setattr(ObservableFamily, "at_many", counting)
        cfg = load_catalog_scenario("driven-three-level")
        assert point_batches == [cfg.times.shape]
        assert sampled == []
        names = [family.name for family in cfg.observables]
        assert len(names) == 3
        assert [bool(np.any(family.derivative_at_many(cfg.times)[1]))
                for family in cfg.observables] == [False, False, True]
        assert run_scenario(cfg).overall_pass
        assert sorted(sampled) == sorted(names)

    def test_resolving_builds_no_observable_stack(self):
        root = resources.files("fibreqm") / "catalog"
        raw = json.loads((root / "driven-three-level.json").read_text())
        raw["grid"]["steps"] = 20000
        tracemalloc.start()
        try:
            cfg = scenario_from_dict(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = cfg.dimension
        one_stack = cfg.times.size * n * n * np.dtype(complex).itemsize
        assert peak < one_stack


def node_reads(name, path=()):
    """The `_NODES` entries `name` reads, directly or through another node; a read
    cycle fails the assertion."""
    assert name not in path, f"read cycle {path + (name,)}"
    return {node for read in checks_module._READS[name] if read in _NODES
            for node in {read} | node_reads(read, path + (name,))}


class TestArtifactNodes:
    """Every node, setup ones too, is built on first read and dropped after its last reader."""

    def test_every_read_names_a_node_and_the_reads_have_no_cycle(self):
        built = build_artifacts(scenario_from_dict(MINIMAL))
        seeds = set(built) - set(_NODES)
        assert seeds == {"cfg", "times"}
        assert set(checks_module._SETUP) <= set(_NODES) & set(built)
        params = {key: list(inspect.signature(fn).parameters)
                  for key, fn in {**_NODES, **_CHECK_TABLE}.items()}
        assert all(params[check_id][0] in ("tol", "part") for check_id in _CHECK_TABLE)
        reads = {key: [name for name in names if name not in ("tol", "part")]
                 for key, names in params.items()}
        # a block node's first parameter is its time block, and no other node has one
        block_nodes = {name for name in _NODES if params[name][:1] == ["part"]}
        assert block_nodes == checks_module._BLOCK_NODES == {
            "conventional_rows", "conventional_t0", "transport_t0", "lifted_observables",
            "density_transported", "density_conventional", "transported_section",
            "heisenberg_values", "heisenberg_means", "integral_deviations", "frames",
            "inverse_frames", "lifted"}
        assert all(len(reads[name]) == len(params[name]) - (name in block_nodes)
                   for name in _NODES)
        unknown = {key: sorted(set(names) - seeds - set(_NODES)) for key, names in reads.items()}
        assert not any(unknown.values()), unknown
        assert checks_module._READS == {key: tuple(names) for key, names in reads.items()}
        for key in reads:
            node_reads(key)
        # Only a pointwise check or another block node reads a block node, and one
        # check that builds its own record: it reads its block node's per-time
        # series concatenated after the slices.  Every other node has no time block.
        readers = {key for key, names in reads.items() if set(names) & block_nodes}
        assert readers, "no block node is read"
        own_readers = readers - POINTWISE_CHECKS - block_nodes
        assert own_readers == {"integrals_of_motion"}, own_readers
        assert not block_nodes & set(checks_module._SETUP)

    def test_the_frame_error_is_the_setup_record_when_the_hamiltonian_fails_too(self):
        # the frames fail `validate_on_grid` on this coarse grid, and this
        # Hamiltonian, flagged Hermitian, would fail `PropagatorGrid`
        flagged = HamiltonianFamily.constant([[0, 1], [0, 0]], hermitian_expected=True)
        cfg = scenario_from_dict(dict(MINIMAL, grid={"steps": 3},
                                      trivialization={"kind": "global-phase"}))
        frame_error = "ValueError: trivialization 'global-phase': analytic derivative deviates"
        hamiltonian_error = "ValueError: Hamiltonian family 'constant' flagged Hermitian"
        assert run_scenario(cfg).record("setup").detail.startswith(frame_error)
        ok_frames = scenario_from_dict(dict(MINIMAL))
        assert run_scenario(dataclasses.replace(ok_frames, hamiltonian=flagged)).record(
            "setup").detail.startswith(hamiltonian_error)
        report = run_scenario(dataclasses.replace(cfg, hamiltonian=flagged))
        assert [r.check for r in report.records] == ["setup"]
        assert report.record("setup").detail.startswith(frame_error)

    def test_a_node_is_dropped_after_its_last_reader(self, monkeypatch, two_block_gauge):
        cfg = two_block_gauge
        # one worker, so that the builds alive at a check's call are those of its own block
        monkeypatch.setattr(hilbert_module, "_WORKERS", 1)
        # the pointwise checks run on each of the four blocks, then the checks that
        # build their own record run once, in the scenario's order
        assert [c for c in cfg.checks if c not in POINTWISE_CHECKS] == [
            "transport_identity", "transport_composition", "unitary_bundle_map",
            "integrals_of_motion"]
        assert cfg.checks[:2] == ["state_equivalence", "norm_drift"]
        assert cfg.checks.index("norm_drift") < cfg.checks.index("density_consistency")
        probed = ("transport_identity", "transport_composition", "unitary_bundle_map",
                  "integrals_of_motion", "norm_drift", "fibre_trace_preservation")
        refs, alive = {}, {}  # node name -> weak references to its builds; check id ->
        # the builds alive at each of its calls, by node name

        def recording(*reads, name, build):
            node = build(*reads)
            # a tuple has no weak reference; the axioms' is the report in their pair
            refs.setdefault(name, []).append(weakref.ref(node[1] if name == "transport_axioms"
                                                         else node))
            return node

        def live(built):
            return sum(ref() is not None for ref in built)

        def probing(check_id):
            check = _CHECK_TABLE[check_id]

            def probe(*args):  # (tol or a time block, *reads)
                alive.setdefault(check_id, []).append(
                    {name: live(built) for name, built in refs.items() if live(built)})
                return check(*args)
            return probe

        # the bundle section is a setup node that only state_equivalence reads, the
        # axiom report is read by the two transport checks, and the transported
        # density is a block node
        for name in ("bundle_section", "transport_axioms", "density_transported"):
            monkeypatch.setitem(_NODES, name, functools.partial(
                recording, name=name, build=_NODES[name]))
        for check_id in probed:
            monkeypatch.setitem(_CHECK_TABLE, check_id, probing(check_id))
        assert run_scenario(cfg).overall_pass
        slices = len(time_blocks(cfg.times.size, cfg.dimension))  # four slices
        assert {name: len(built) for name, built in refs.items()} == {
            "bundle_section": 1, "transport_axioms": 1, "density_transported": slices}
        held = {"bundle_section": 1}  # until the slices, its last reader's, are done
        assert alive == {
            # each slice's density is dropped with its slice, and the axioms are not
            # built before the slices
            "norm_drift": [held] * slices,
            "fibre_trace_preservation": [dict(held, density_transported=1)] * slices,
            # after the slices: the axioms through their last reader and no later
            "transport_identity": [{"transport_axioms": 1}],
            "transport_composition": [{"transport_axioms": 1}],
            "unitary_bundle_map": [{}],
            "integrals_of_motion": [{}],
        }
        assert not any(live(built) for built in refs.values())

    def test_state_equivalence_alone_builds_no_t0_stack_or_lift(self, monkeypatch):
        calls = []
        for method in ("matrices_from", "matrices_into"):
            def counting(transport, t, part=None, *rows, real=getattr(EvolutionTransport, method),
                         method=method):
                calls.append(method)
                return real(transport, t, part, *rows)
            monkeypatch.setattr(EvolutionTransport, method, counting)
        lift = checks_module.lift_operators

        def counting_lift(*args):
            calls.append("lift_operators")
            return lift(*args)

        monkeypatch.setattr(checks_module, "lift_operators", counting_lift)
        root = resources.files("fibreqm") / "catalog"
        raw = json.loads((root / "random-unitary-gauge.json").read_text())
        report = run_scenario(scenario_from_dict(dict(raw, checks=["state_equivalence"])))
        assert [r.check for r in report.records] == ["state_equivalence"]
        assert report.overall_pass
        assert calls == []
        # the counters see the density nodes when a check reads them
        assert run_scenario(scenario_from_dict(dict(raw, checks=["density_consistency"]))
                            ).overall_pass
        assert sorted(set(calls)) == ["lift_operators", "matrices_from", "matrices_into"]

    def test_both_densities_run_through_one_kernel(self, monkeypatch):
        grids, two_times = [], []  # the run's propagator grid; whose t0 rows each call reads
        kernel, transport = checks_module.evolve_density_morphisms, _NODES["transport"]

        def recording(p0, from_t0, into_t0):
            # the catalog's grid is one time block, so a block's rows are all of them
            conventional = np.array_equal(from_t0, grids[0].from_t0[:])
            if conventional:  # the grid's rows, and their inverses as its reads form them
                assert np.array_equal(into_t0, np.linalg.inv(from_t0))
            two_times.append(PropagatorGrid if conventional else EvolutionTransport)
            return kernel(p0, from_t0, into_t0)

        def keeping(*reads):
            built = transport(*reads)
            grids.append(built.propagators)
            return built

        # the integral-of-motion criterion conjugates by the same kernel
        monkeypatch.setattr(checks_module, "evolve_density_morphisms", recording)
        monkeypatch.setattr(pictures_module, "evolve_density_morphisms", recording)
        monkeypatch.setitem(_NODES, "transport", keeping)
        root = resources.files("fibreqm") / "catalog"
        raw = json.loads((root / "random-unitary-gauge.json").read_text())
        assert run_scenario(scenario_from_dict(dict(
            raw, checks=["density_consistency", "integrals_of_motion"]))).overall_pass
        assert Counter(two_times) == {PropagatorGrid: 1, EvolutionTransport: 2}

    def test_each_check_alone_gives_its_full_run_record(self, catalog_suite):
        full = {report.scenario: report for report in catalog_suite[0].reports}
        for name, _ in catalog_names():
            cfg = load_catalog_scenario(name)
            records = {r.check: r.to_dict() for r in full[cfg.name].records}
            for check_id in cfg.checks:
                alone = run_scenario(dataclasses.replace(cfg, checks=[check_id]))
                assert [r.to_dict() for r in alone.records] == [records[check_id]], \
                    (name, check_id)

    def test_integrals_of_motion_keeps_no_commutator_stack_alive(self, monkeypatch,
                                                                 two_block_gauge):
        cfg = two_block_gauge
        monkeypatch.setattr(hilbert_module, "_WORKERS", 1)  # a peak is one call's alone
        nodes = build_artifacts(cfg)
        above = {}  # the check, or a node of its criteria -> its largest peak over its
        # calls, above the heap each call found

        def probed(key, build):
            def probe(*args):
                start, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                out = build(*args)
                above[key] = max(above.get(key, 0), tracemalloc.get_traced_memory()[1] - start)
                return out
            return probe

        # the commutator criterion, each block's transport criterion (beside the
        # block's t0 rows, which the sweep shares), and the record
        for name in ("integral_commutators", "integral_deviations"):
            monkeypatch.setitem(_NODES, name, probed(name, _NODES[name]))
        monkeypatch.setitem(_CHECK_TABLE, "integrals_of_motion",
                            probed("integrals_of_motion", _CHECK_TABLE["integrals_of_motion"]))
        tracemalloc.start()
        try:
            outcomes = checks_module._sweep(nodes, ["integrals_of_motion"])
        finally:
            tracemalloc.stop()
        assert outcomes["integrals_of_motion"][0].passed
        assert set(above) == {"integral_commutators", "integral_deviations", "integrals_of_motion"}
        # blocks of both criteria (of 128 times but the last here, half a MiB at most), and
        # no commutator, deviation or transported stack beside them
        assert max(above.values()) <= 4 * hilbert_module._BLOCK_BYTES

    def test_a_setup_node_no_requested_check_reads_is_dropped_after_setup(self, monkeypatch):
        built = []  # the node dict of the run
        setup = checks_module.build_artifacts

        def recording(cfg):
            built.append(setup(cfg))
            return built[-1]

        held = []
        dualities = _CHECK_TABLE["module_dualities"]

        def probe(tol, *reads):
            held.append(set(built[-1]))
            return dualities(tol, *reads)

        monkeypatch.setattr(checks_module, "build_artifacts", recording)
        monkeypatch.setitem(_CHECK_TABLE, "module_dualities", probe)
        cfg = dataclasses.replace(load_catalog_scenario("random-unitary-gauge"),
                                  checks=["module_dualities"])
        assert run_scenario(cfg).overall_pass
        assert held == [{"cfg", "times"}]

    def test_hermiticity_correspondence_conjugates_a_broadcast_observable_once(
            self, monkeypatch, two_block_gauge):
        cfg = two_block_gauge
        monkeypatch.setattr(hilbert_module, "_WORKERS", 1)  # a peak is one call's alone
        nodes = build_artifacts(cfg)
        check_id = "hermiticity_correspondence"
        assert all(stack.strides[0] == 0 for stack in nodes["observables"].values())
        check, above = _CHECK_TABLE[check_id], []  # each block's peak above its call's entry

        def probe(*args):  # (a time block, *reads)
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = check(*args)
            above.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        monkeypatch.setitem(_CHECK_TABLE, check_id, probe)
        tracemalloc.start()
        try:
            record, _ = checks_module._sweep(nodes, [check_id])[check_id]
        finally:
            tracemalloc.stop()
        assert record.passed
        assert len(above) == len(time_blocks(cfg.times.size, cfg.dimension)) == 4
        one_stack = cfg.times.size * 16 * 16 * np.dtype(complex).itemsize
        # the bundle adjoint's and the deviation's blocks (of the sweep's
        # slices here); no conjugate copy and no whole stack
        assert max(above) / one_stack < 2.5

    def test_the_wide_gauge_holds_its_nodes_and_blocks_of_temporaries(self, monkeypatch):
        # random-unitary-gauge at n = 32 and N = 1000, the scale of the benchmark's
        # wide-gauge workload: a stack is 16.4 MB and a block (`_BLOCK_BYTES`, 1 MiB) 64
        # times.
        root = resources.files("fibreqm") / "catalog"
        raw = json.loads((root / "random-unitary-gauge.json").read_text())
        raw["dimension"], raw["grid"]["steps"] = 32, 1000
        cfg = scenario_from_dict(raw)
        one_stack = cfg.times.size * 32 * 32 * np.dtype(complex).itemsize
        block = hilbert_module._BLOCK_BYTES
        # At the default worker count, with one slice's blocks in flight per worker,
        # the peak is 0.73 stack measured at most (0.72-0.73, 11.8-11.9 MB, on a
        # process's first run and after): no stack of the frames is held, only l(t0),
        # so it is the conventional checkpoints, vectors of N states and two slices'
        # block nodes and temporaries in the sweep.  Each slice runs its density checks
        # before the readers of the lifted observables, so picture_invariance runs
        # beside its own block nodes alone, and a block node that only fed a check's
        # reads goes before its call: the t0 rows before picture_invariance samples
        # its random picture, the conventional rows and their inverses before
        # density_consistency forms its lift.  With the t0 rows alive at those calls,
        # and the series held as lists of floats, it peaked at 0.77-0.84 stack, and
        # beside the slice's conventional rows, their inverses and the frames'
        # inverses at 0.92-0.99 stack.  The bound adds one block (0.06 stack).  The
        # count is capped at two, so this holds on a host of any core count.
        assert 1 <= hilbert_module._WORKERS <= 2
        peak_bound = 0.73 * one_stack + block
        tracemalloc.start()
        try:
            assert run_scenario(cfg).overall_pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= peak_bound
        # One worker below, so that each call's peak is its own.
        monkeypatch.setattr(hilbert_module, "_WORKERS", 1)
        peaks = [0]  # the scenario's peak, kept across each build's `reset_peak`
        above = {}  # check id or node name -> its largest peak, over its calls (a
        # check's blocks and judge, a block node's blocks), above the heap each
        # call found and left

        def probed(key, build):
            def probe(*reads):
                entry, peak = tracemalloc.get_traced_memory()
                peaks.append(peak)
                tracemalloc.reset_peak()
                try:
                    return build(*reads)
                finally:
                    left, peak = tracemalloc.get_traced_memory()
                    peaks.append(peak)
                    above[key] = max(above.get(key, 0), peak - max(entry, left))
            return probe

        for key, build in list(_NODES.items()):
            monkeypatch.setitem(_NODES, key, probed(key, build))
        # a check is measured over its whole run: every block and the judge
        for check_id in cfg.checks:
            monkeypatch.setitem(_CHECK_TABLE, check_id, probed(check_id, _CHECK_TABLE[check_id]))
        judged = checks_module._judged_blocks
        monkeypatch.setattr(checks_module, "_judged_blocks", lambda check_id, *args: (
            probed(check_id, judged)(check_id, *args)))
        tracemalloc.start()
        try:
            assert run_scenario(cfg).overall_pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert set(above) == set(_NODES) | set(cfg.checks)
        # Held through the sweep: l(t0), and the conventional products U(t, t0) only
        # at each time block's start; the frames and their inverses, the rows of
        # those products and of their inverses, the transport's t0 rows, the lifted
        # states, the transported section and its Heisenberg states, the lifted
        # observables and both densities are blocks of the sweep.
        assert max(peaks) <= peak_bound
        # No check block, judge or node build, setup ones included, keeps a whole
        # temporary stack: the bundle steps are formed one time block at a time on
        # each worker, the grid frames' derivative is reduced one block at a time, and the
        # conventional products are formed one time block at a time.  What a node
        # keeps counts once built, so a build is measured above the larger of the
        # heap it found and the heap it left.  The largest are the two-time queries'
        # pairs (the transport axioms' 273 pairs and their temporaries, 7.9 blocks
        # measured, with the frames of each time block of pairs sampled where they
        # are read), then bundle_section's wave and midpoint samples (4.0 blocks).
        heavy = {key: round(extra / block, 2) for key, extra in above.items()
                 if extra > 8 * block}
        assert not heavy, heavy

    def test_the_peak_in_stacks_falls_as_the_grid_grows(self):
        # random-unitary-gauge at n = 32 and N = 1000 and 3000, at the default worker
        # count: no stack of the frames is held, so what grows with N is below a
        # stack (the checkpoints, the vectors of N states and the series), and the
        # peak in stacks falls as N grows (0.72-0.73 and 0.33 measured, 11.8-11.9 and
        # 16.2 MB, on a process's first run)
        root = resources.files("fibreqm") / "catalog"
        in_stacks = []
        for steps in (1000, 3000):
            raw = json.loads((root / "random-unitary-gauge.json").read_text())
            raw["dimension"], raw["grid"]["steps"] = 32, steps
            cfg = scenario_from_dict(raw)
            tracemalloc.start()
            try:
                assert run_scenario(cfg).overall_pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            in_stacks.append(peak / (cfg.times.size * 32 * 32 * np.dtype(complex).itemsize))
        assert in_stacks[1] < in_stacks[0]
        assert in_stacks[1] <= 0.5

    @pytest.mark.parametrize("hamiltonian", ["constant", "time-dependent"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_transport_holds_no_stack_beside_the_frames_and_the_products(
            self, monkeypatch, hamiltonian, workers):
        # random-unitary-gauge at n = 32 and N = 1000, its constant H (whose steps
        # are gathered) or a time-dependent one (whose steps are exponentiated as a
        # stack): one pass over the conventional steps carries psi0 and keeps the
        # products at each time block's start and over the last time block, so the
        # build keeps no stack of products; a time-dependent H's grid keeps its stack
        # of steps in their place.  The transport's build adds nothing beside them,
        # and the frames are read per block, so beside l(t0) no stack of them is held.
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        root = resources.files("fibreqm") / "catalog"
        raw = json.loads((root / "random-unitary-gauge.json").read_text())
        raw["dimension"], raw["grid"]["steps"] = 32, 1000
        cfg = scenario_from_dict(raw)
        if hamiltonian == "time-dependent":
            h0 = cfg.hamiltonian.at(0.0)
            cfg = dataclasses.replace(cfg, hamiltonian=HamiltonianFamily(
                lambda ts: np.cos(ts)[:, None, None] * h0, 32))
        one_stack = cfg.times.size * 32 * 32 * np.dtype(complex).itemsize
        block = hilbert_module._BLOCK_BYTES
        above, held = {}, {}  # node -> its peak above its entry; the heap it left

        def probed(key, build):
            def probe(*reads):
                entry, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                out = build(*reads)
                held[key], peak = tracemalloc.get_traced_memory()
                above[key] = peak - entry
                return out
            return probe

        for key in ("conventional", "transport"):
            monkeypatch.setitem(_NODES, key, probed(key, _NODES[key]))
        tracemalloc.start()
        try:
            nodes = build_artifacts(cfg)
        finally:
            tracemalloc.stop()
        assert above["transport"] <= block
        if hamiltonian == "constant":
            # the checkpoints, the last time block's rows, the states and one time
            # block of products at a time (1.83 blocks measured)
            assert above["conventional"] <= 2 * block
            # vectors of N states and the checkpoints (0.115 stack measured)
            assert held["transport"] <= 0.15 * one_stack
        else:
            # the stack of steps, and the blocks of their exponentials, one slice per
            # worker (3.0 and 5.0 blocks beside the stack measured at 1 and 2 workers)
            assert above["conventional"] <= one_stack + (2 + 2 * workers) * block
            assert held["transport"] <= 1.15 * one_stack  # the steps (1.10 measured)
        steps = midpoint_propagators(cfg.hamiltonian, cfg.times, cfg.constants)
        assert np.array_equal(nodes["transport"].propagators.from_t0[:], step_products(steps))
        assert np.array_equal(nodes["trajectory"].states,
                              propagate_states(steps, cfg.initial_state))

    def test_a_unitary_gauge_holds_no_whole_inverse_stack(self, monkeypatch, two_block_gauge):
        # Through setup and the sweep, every node build and check sees its reads and
        # its output: no array reachable from them is a whole stack of the frames, or
        # of their inverses, or a view of one.  The walk reaches the frames' reader
        # and the one row it keeps, l(t0).
        cfg = two_block_gauge
        frames = cfg.trivialization.at_many(cfg.times)
        adjoint = np.conjugate(np.swapaxes(frames, -2, -1))
        seen_first, wholes = [], []

        def inspect_arrays(key, obj):
            for array in _arrays(obj, set()):
                while isinstance(array.base, np.ndarray):
                    array = array.base
                if array.shape == frames.shape[1:]:
                    seen_first.append(np.array_equal(array, frames[0]))
                if array.shape == frames.shape:
                    wholes.extend((key, name) for name, stack in (("frames", frames),
                                                                  ("inverse", adjoint))
                                  if np.array_equal(array, stack))

        def probed(key, build):
            def probe(*reads):
                inspect_arrays(key, reads)
                out = build(*reads)
                inspect_arrays(key, out)
                return out
            return probe

        for key, build in list(_NODES.items()):
            monkeypatch.setitem(_NODES, key, probed(key, build))
        for check_id in cfg.checks:
            monkeypatch.setitem(_CHECK_TABLE, check_id, probed(check_id, _CHECK_TABLE[check_id]))
        assert run_scenario(cfg).overall_pass
        assert any(seen_first)  # the walk reaches the transport's frames reader
        assert not wholes, sorted(set(wholes))

    def test_no_whole_inverse_of_the_conventional_products_is_formed(self, monkeypatch,
                                                                     two_block_gauge):
        # Through setup and the sweep, every node build and check sees its reads and
        # its output: no array reachable from them is a whole stack of the conventional
        # products U(t, t0) of this constant H, nor of U(t0, t), their inverse, nor a
        # view of one.  The walk reaches the products kept at each time block's start.
        cfg = two_block_gauge
        products = step_products(midpoint_propagators(cfg.hamiltonian, cfg.times, cfg.constants))
        inverse = np.linalg.inv(products)
        starts = [part.start for part in time_blocks(cfg.times.size, cfg.dimension)]
        checkpoints, wholes = [], []

        def inspect_arrays(key, obj):
            for array in _arrays(obj, set()):
                while isinstance(array.base, np.ndarray):
                    array = array.base
                if array.shape == products.shape:
                    wholes.extend((key, name) for name, stack in (("products", products),
                                                                  ("inverse", inverse))
                                  if np.array_equal(array, stack))
                elif array.shape == (len(starts),) + products.shape[1:]:
                    checkpoints.append(np.array_equal(array, products[starts]))

        def probed(key, build):
            def probe(*reads):
                inspect_arrays(key, reads)
                out = build(*reads)
                inspect_arrays(key, out)
                return out
            return probe

        for key, build in list(_NODES.items()):
            monkeypatch.setitem(_NODES, key, probed(key, build))
        for check_id in cfg.checks:
            monkeypatch.setitem(_CHECK_TABLE, check_id, probed(check_id, _CHECK_TABLE[check_id]))
        assert run_scenario(cfg).overall_pass
        assert any(checkpoints)  # the walk reaches the propagator grid's checkpoints
        assert not wholes, sorted(set(wholes))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_block_inverts_its_conventional_rows_once(self, monkeypatch, two_block_gauge,
                                                           workers):
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        cfg, grids = two_block_gauge, []
        transport = _NODES["transport"]
        products = step_products(midpoint_propagators(cfg.hamiltonian, cfg.times, cfg.constants))

        def keeping(*reads):
            built = transport(*reads)
            grids.append(built.propagators)
            return built

        reads, inverted = [], []  # each read of the run's U(t, t0): a slice's rows, one
        # row or an index array; (the grid index of its first row, its row count)
        # of each stack of formed rows inverted
        real_read = dynamics_module.CheckpointedProducts.__getitem__
        real_inverse = bundle_module.FrameInverse.__getitem__

        def recording(products_read, index):
            rows = real_read(products_read, index)
            if grids and products_read is grids[0].from_t0:
                assert np.array_equal(rows, products[index])  # the bits of the whole
                reads.append((index.start, index.stop) if isinstance(index, slice)
                             else int(index) if np.ndim(index) == 0 else "index array")
            return rows

        def inverting(inverse, index):
            rows = real_inverse(inverse, index)
            frames = inverse._frames
            if inverse._stack is None and not inverse._adjoint and isinstance(frames, np.ndarray):
                assert np.array_equal(rows, np.linalg.inv(frames[index]))
                inverted.append((next(start for start in range(products.shape[0])
                                      if np.array_equal(frames[0], products[start])),
                                 frames.shape[0]))
            return rows

        monkeypatch.setitem(_NODES, "transport", keeping)
        monkeypatch.setattr(dynamics_module.CheckpointedProducts, "__getitem__", recording)
        monkeypatch.setattr(bundle_module.FrameInverse, "__getitem__", inverting)
        report = run_scenario(cfg)
        assert report.overall_pass, [r for r in report.records if not r.passed]
        blocks = [(part.start, part.stop) for part in time_blocks(cfg.times.size, cfg.dimension)]
        # each slice's rows formed once, shared by the transport's t0 rows, the
        # conventional density and their inverses; the one row U(t0, t0) of each t0
        # query's fixed time, read and inverted; the first row of U(t, t0) for
        # Psi(t0); and beside them the index arrays of the transport axioms and the
        # unitary bundle map, the distinct times of each query's pairs once
        counts = Counter(reads)
        assert counts.pop("index array") == 2
        assert counts == {**{rows: 1 for rows in blocks}, (0, 1): 1,
                          0: 2 * len(blocks) + 1}
        # each slice's formed rows inverted once; beside them the two-time queries
        # invert their distinct columns, by the checkpoint segment of each
        inverted = Counter(inverted)
        assert all(inverted[start, stop - start] == 1 for start, stop in blocks)

    def test_the_transport_is_dropped_before_the_last_check_that_does_not_read_it(
            self, monkeypatch, two_block_gauge):
        # integrals_of_motion reads the transport only through its block node, whose
        # series the slices have gathered: after the slices, the transport goes
        # with its last whole reader, unitary_bundle_map
        cfg = two_block_gauge
        assert [c for c in cfg.checks if c not in POINTWISE_CHECKS][-2:] == [
            "unitary_bundle_map", "integrals_of_motion"]
        refs, alive = [], []
        transport, check = _NODES["transport"], _CHECK_TABLE["integrals_of_motion"]

        def recording(*reads):
            built = transport(*reads)
            refs.append(weakref.ref(built))
            return built

        def probe(*args):
            alive.append([ref() is not None for ref in refs])
            return check(*args)

        monkeypatch.setitem(_NODES, "transport", recording)
        monkeypatch.setitem(_CHECK_TABLE, "integrals_of_motion", probe)
        assert run_scenario(cfg).overall_pass
        assert alive == [[False]]

    def test_the_picture_generators_are_drawn_once_per_scenario(self, monkeypatch,
                                                                two_block_gauge):
        draws = []
        real = pictures_module._seeded_smooth_unitary

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(pictures_module, "_seeded_smooth_unitary", counting)
        assert run_scenario(two_block_gauge).overall_pass
        assert len(time_blocks(two_block_gauge.times.size, two_block_gauge.dimension)) == 4
        assert len(draws) == 1  # not once per time block

    def test_every_node_computed_at_most_once(self, monkeypatch):
        computed = []  # (owner, node name, the first time of a block node's slice or
        # None); holding the owners keeps ids distinct
        nodes = set(_NODES)
        scenarios = []  # each scenario's config owns its nodes, the setup ones too
        setup = checks_module.build_artifacts

        def recording(cfg):
            scenarios.append(cfg)
            return setup(cfg)

        monkeypatch.setattr(checks_module, "build_artifacts", recording)
        for name, build in list(_NODES.items()):
            def counting(*reads, build=build, name=name):
                part = reads[0].start if name in checks_module._BLOCK_NODES else None
                computed.append((scenarios[-1], name, part))
                return build(*reads)

            monkeypatch.setitem(_NODES, name, counting)
        cached = set()
        for cls in (EvolutionTransport, PictureTransform):
            for name, node in list(vars(cls).items()):
                if not isinstance(node, cached_property):
                    continue

                def counting(instance, build=node.func, name=name):
                    computed.append((instance, name, None))
                    return build(instance)

                wrapped = cached_property(counting)
                wrapped.__set_name__(cls, name)
                monkeypatch.setattr(cls, name, wrapped)
                cached.add(name)
        assert run_suite("catalog").overall_pass
        assert len(scenarios) == len(catalog_names())
        # the transport caches no t0 stack: the engine forms its rows block by
        # block, by the block node `transport_t0`
        assert cached == {"inverse_matrices"}
        assert {name for _, name, _ in computed} == nodes | {"inverse_matrices"}
        for cfg in scenarios:  # setup built each of its nodes for this scenario
            assert set(checks_module._SETUP) <= {name for owner, name, _ in computed
                                                 if owner is cfg}, cfg.name
        # a block node once per slice of the sweep (two at n = 8)
        repeats = Counter((id(instance), name, part) for instance, name, part in computed)
        assert max(repeats.values()) == 1, [k for k, v in repeats.items() if v > 1]


def _arrays(obj, seen):
    """The arrays reachable from `obj` through containers and object attributes, each
    object walked once; functions are skipped."""
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if id(obj) in seen or isinstance(obj, (types.FunctionType, types.MethodType, type)):
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        values = vars(obj).values() if hasattr(obj, "__dict__") else ()
    for value in values:
        yield from _arrays(value, seen)


def _leaves(obj, seen):
    """The arrays (as bytes), numbers and strings reachable from `obj`, in a fixed order.

    Containers and objects are walked once each; functions are skipped.
    """
    if isinstance(obj, np.ndarray):
        return [(obj.dtype.str, obj.shape, obj.tobytes())]
    if obj is None or isinstance(obj, (bool, int, float, complex, str, np.generic)):
        return [repr(obj)]
    if isinstance(obj, (types.FunctionType, types.MethodType)) or id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        items = sorted(vars(obj).items())
    return [leaf for key, value in items for leaf in [repr(key), *_leaves(value, seen)]]


class TestFaultSeam:
    """A fault swaps the build of one node; nothing else in `checks` names it."""

    def test_the_fault_table_names_every_fault(self):
        assert set(checks_module._FAULTS) == set(scenario_module.FAULTS)

    def test_each_swapped_build_takes_the_parameters_of_the_build_it_replaces(self):
        for fault, (node, build) in checks_module._FAULTS.items():
            assert (list(inspect.signature(build).parameters)
                    == list(inspect.signature(_NODES[node]).parameters)), fault

    def test_each_fault_name_appears_only_in_the_fault_tables(self):
        package = pathlib.Path(checks_module.__file__).parent
        found = []  # (module, line) of each string that holds a fault name
        allowed = set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str) and any(
                        fault in node.value for fault in scenario_module.FAULTS):
                    found.append((path.stem, node.lineno, node.col_offset))
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    continue
                target = (path.stem, node.targets[0].id)
                if target == ("scenario", "FAULTS"):
                    allowed |= {(path.stem, e.lineno, e.col_offset) for e in node.value.elts}
                elif target == ("checks", "_FAULTS"):
                    allowed |= {(path.stem, k.lineno, k.col_offset) for k in node.value.keys}
        assert len(allowed) == 2 * len(scenario_module.FAULTS)
        assert sorted(found) == sorted(allowed)

    def test_a_fault_changes_only_its_node_and_the_nodes_that_read_it(self, monkeypatch):
        built = []  # one dict per run: node name -> the node its `_NODES` build made

        def recording(*reads, name, build):
            built[-1][name] = build(*reads)
            return built[-1][name]

        for name, build in list(_NODES.items()):
            monkeypatch.setitem(_NODES, name, functools.partial(
                recording, name=name, build=build))
        root = resources.files("fibreqm") / "catalog"
        raw = json.loads((root / "phase-gauge-rabi.json").read_text())
        # an integral candidate, so that every node is built
        raw["integral_candidates"] = [{"kind": "hamiltonian", "expected": True}]
        reports = []
        for faults in ({}, {"drop_trivialization_derivative": True}):
            built.append({})
            reports.append(run_scenario(scenario_from_dict(dict(raw, faults=faults))))
        assert reports[0].overall_pass
        assert not reports[1].record("state_equivalence").passed

        (swapped, _), = checks_module._FAULTS.values()
        changed = {swapped} | {name for name in _NODES
                               if swapped in node_reads(name)}
        assert changed == {"bundle_trivialization", "bundle_section"}
        assert set(built[0]) == set(_NODES)
        assert set(built[1]) == set(_NODES) - {swapped}
        for name in set(_NODES) - changed:
            assert _leaves(built[0][name], set()) == _leaves(built[1][name], set()), name
        assert (_leaves(built[0]["bundle_section"], set())
                != _leaves(built[1]["bundle_section"], set()))


class TestSuite:
    def test_directory_suite_failing_record_first(self, tmp_path):
        good = dict(MINIMAL, name="alpha-good")
        bad = dict(MINIMAL, name="beta-bad",
                   trivialization={"kind": "global-phase", "omega": 6.283185307179586},
                   faults={"drop_trivialization_derivative": True})
        write_config(tmp_path, good, "a.json")
        write_config(tmp_path, bad, "b.json")
        report = run_suite(tmp_path)
        assert not report.overall_pass
        assert [r.scenario for r in report.reports] == ["alpha-good", "beta-bad"]
        table = emit(report, "table").decode()
        first_data_row = table.splitlines()[2]
        assert "beta-bad" in first_data_row  # failures surface first

    def test_manifest_suite(self, tmp_path):
        write_config(tmp_path, dict(MINIMAL, name="one"), "one.json")
        write_config(tmp_path, dict(MINIMAL, name="two"), "two.json")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"scenarios": ["one.json", "two.json"]}))
        report = run_suite(manifest)
        assert report.overall_pass
        assert len(report.reports) == 2

    def test_unreadable_manifest_is_a_config_error_naming_it(self, tmp_path, monkeypatch):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"scenarios": []}))

        def unreadable(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(pathlib.Path, "read_text", unreadable)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(manifest))}: cannot read"):
            run_suite(manifest)

    def test_non_utf8_config_in_a_directory_suite_is_named(self, tmp_path):
        write_config(tmp_path, dict(MINIMAL, name="good"), "a.json")
        bad = tmp_path / "b.json"
        bad.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ConfigError, match=f"^{re.escape(str(bad))}: not UTF-8 text"):
            run_suite(tmp_path)

    def test_empty_manifest_vacuous_pass_with_warning(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"scenarios": []}))
        report = run_suite(manifest)
        assert report.overall_pass
        assert report.warnings
        assert "empty" in report.warnings[0]

    def test_duplicate_scenario_names_rejected_before_any_runs(self, tmp_path, monkeypatch):
        write_config(tmp_path, dict(MINIMAL, name="same"), "a.json")
        write_config(tmp_path, dict(MINIMAL, name="other"), "b.json")
        write_config(tmp_path, dict(MINIMAL, name="same", seed=4), "c.json")

        def never(cfg):
            raise AssertionError(f"ran {cfg.name}")

        monkeypatch.setattr(suite_module, "run_scenario", never)
        with pytest.raises(ConfigError, match=r"^suite: duplicate scenario names \['same'\]$"):
            run_suite(tmp_path)

    def test_order_independence(self, tmp_path):
        raw_a = dict(MINIMAL, name="s-a", seed=1)
        raw_b = dict(MINIMAL, name="s-b", seed=2)
        one = run_suite_from(tmp_path / "d1", [raw_a, raw_b])
        two = run_suite_from(tmp_path / "d2", [raw_b, raw_a])
        blob1 = json.dumps(one.to_dict(include_timing=False), sort_keys=True)
        blob2 = json.dumps(two.to_dict(include_timing=False), sort_keys=True)
        assert blob1 == blob2


def run_suite_from(directory, raws):
    directory.mkdir()
    for i, raw in enumerate(raws):
        (directory / f"{i}.json").write_text(json.dumps(raw))
    return run_suite(directory)


class TestEmission:
    def test_records_roundtrip(self):
        report = run_scenario(scenario_from_dict(dict(MINIMAL)))
        blob = emit(report, "records")
        loaded = report_from_dict(json.loads(blob))
        assert loaded.scenario == report.scenario
        assert loaded.overall_pass == report.overall_pass
        assert [r.check for r in loaded.records] == [r.check for r in report.records]

    def test_timeseries_one_row_per_grid_point_per_quantity(self):
        report = run_scenario(scenario_from_dict(dict(MINIMAL)))
        csv = emit(report, "timeseries").decode()
        lines = csv.strip().splitlines()
        quantities = {q for q in report.timeseries if q != "time"}
        grid_points = len(report.timeseries["time"])
        assert len(lines) == 1 + grid_points * len(quantities)
        assert lines[0] == "scenario,time,quantity,value"

    def test_table_contains_verdicts(self):
        report = run_scenario(scenario_from_dict(dict(MINIMAL)))
        table = emit(report, "table").decode()
        assert "state_equivalence" in table
        assert "PASS" in table

    def test_unknown_format_rejected(self):
        report = run_scenario(scenario_from_dict(dict(MINIMAL)))
        with pytest.raises(ValueError, match="format"):
            emit(report, "yaml")

    @pytest.mark.parametrize("fmt", ["records", "table", "timeseries"])
    def test_empty_suite_emit_roundtrip_is_byte_identical(self, fmt):
        report = run_configs([])
        loaded = suite_from_dict(json.loads(emit(report, "records")))
        assert loaded.warnings == ["suite is empty; overall pass is vacuous"]
        assert emit(loaded, fmt) == emit(report, fmt)

    def test_schema_version_embedded(self):
        report = run_scenario(scenario_from_dict(dict(MINIMAL)))
        payload = json.loads(emit(report, "records"))
        assert payload["schema_version"] == 1
        assert payload["kind"] == "scenario-report"

    @staticmethod
    def dumped(report) -> bytes:
        """The records of `report` as `json.dumps` writes them, the reference of `emit`."""
        return (json.dumps(report.to_dict(), sort_keys=True, indent=1, allow_nan=False)
                + "\n").encode()

    @pytest.mark.parametrize("case", ["catalog-suite", "scenario", "empty-suite",
                                      "non-finite-residual", "non-finite-series"])
    def test_records_are_the_bytes_of_json_dumps(self, catalog_suite, case):
        suite = catalog_suite[0]
        report = {
            "catalog-suite": suite,
            "scenario": suite.reports[0],
            "empty-suite": run_configs([]),
            "non-finite-residual": ScenarioReport(
                "non-finite", [CheckRecord("setup", INF, 0.0, False, None, "ValueError: x"),
                               CheckRecord("norm_drift", NAN, 1e-6, False, 0.5)],
                {"name": "non-finite"}),
            "non-finite-series": ScenarioReport(
                "non-finite", [CheckRecord("norm_drift", 0.25, 1e-6, False, 0.5)],
                {"name": "non-finite"},
                {"time": [0.0, 0.5, 1.0], "norm_sq": [1.0, NAN, 1.0],
                 "density_residual": [0.0, INF, -INF]}),
        }[case]
        assert emit(report, "records") == self.dumped(report)

    @staticmethod
    def listed(report, fmt: str) -> bytes:
        """`emit(report, fmt)` as a report that held each series as a list of Python
        floats wrote it, the reference of a report that holds float64 arrays.  The
        table reads no series: its reference is the table of the records read back."""
        suite = isinstance(report, SuiteReport)
        reports = report.reports if suite else [report]
        if fmt == "records":
            payload = report.to_dict()
            for rep, written in zip(reports, payload["scenarios"] if suite else [payload]):
                listed = {key: values.tolist() for key, values in rep.timeseries.items()}
                # a non-finite value makes the sum non-finite; a finite series whose
                # sum overflows comes out unchanged
                written["timeseries"] = {
                    key: values if math.isfinite(sum(values))
                    else [x if math.isfinite(x) else str(x) for x in values]
                    for key, values in listed.items()}
            return (json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
                    + "\n").encode()
        if fmt == "timeseries":
            lines = ["scenario,time,quantity,value"]
            for rep in reports:
                listed = {key: values.tolist() for key, values in rep.timeseries.items()}
                for quantity in sorted(listed):
                    if quantity != "time":
                        lines += [f"{rep.scenario},{t!r},{quantity},{v!r}"
                                  for t, v in zip(listed.get("time", []), listed[quantity])]
            return ("\n".join(lines) + "\n").encode()
        loaded = json.loads(emit(report, "records"))
        return emit(suite_from_dict(loaded) if suite else report_from_dict(loaded), fmt)

    @staticmethod
    def emission_case(catalog_suite, case):
        suite = catalog_suite[0]
        return {
            "catalog-suite": suite,
            "scenario": suite.reports[0],
            "non-finite-series": ScenarioReport(
                "non-finite", [CheckRecord("norm_drift", 0.25, 1e-6, False, 0.5)],
                {"name": "non-finite"},
                {"time": [0.0, 0.5, 1.0], "norm_sq": [1.0, NAN, 1.0],
                 "density_residual": [0.0, INF, -INF]}),
            "overflowing-sum": ScenarioReport(
                "overflowing-sum", [CheckRecord("norm_drift", 0.25, 1e-6, False, 0.5)],
                {"name": "overflowing-sum"},
                {"time": [0.0, 0.5, 1.0], "norm_sq": [1e308, 1e308, -1e308]}),
        }[case]

    @pytest.mark.parametrize("fmt", ["records", "table", "timeseries"])
    @pytest.mark.parametrize("case", ["catalog-suite", "scenario", "non-finite-series",
                                      "overflowing-sum"])
    def test_series_held_as_arrays_emit_the_bytes_of_lists(self, catalog_suite, case, fmt):
        report = self.emission_case(catalog_suite, case)
        reports = report.reports if isinstance(report, SuiteReport) else [report]
        assert all(isinstance(values, np.ndarray) and values.dtype == np.float64
                   and not values.flags.writeable
                   for rep in reports for values in rep.timeseries.values())
        assert emit(report, fmt) == self.listed(report, fmt)

    @pytest.mark.parametrize("case", ["catalog-suite", "scenario", "non-finite-series",
                                      "overflowing-sum"])
    def test_records_read_back_as_float64_arrays(self, catalog_suite, case):
        report = self.emission_case(catalog_suite, case)
        blob = emit(report, "records")
        payload = json.loads(blob)
        loaded = (suite_from_dict(payload) if isinstance(report, SuiteReport)
                  else report_from_dict(payload))
        pairs = (zip(report.reports, loaded.reports) if isinstance(report, SuiteReport)
                 else [(report, loaded)])
        for rep, back in pairs:
            assert all(isinstance(values, np.ndarray) and values.dtype == np.float64
                       and not values.flags.writeable for values in back.timeseries.values())
            assert same_timeseries(back.timeseries, rep.timeseries)
        assert emit(loaded, "records") == blob

    @pytest.mark.parametrize("batch", [1, 7])
    def test_records_do_not_depend_on_the_encoder_batch(self, catalog_suite, monkeypatch,
                                                        batch):
        report = catalog_suite[0].reports[0]
        monkeypatch.setattr(report_module, "_CHUNK_BATCH", batch)
        assert emit(report, "records") == self.dumped(report)

    def test_records_hold_no_list_of_every_chunk(self, catalog_suite):
        # The catalog's records, 2.6 MB: the encoder's chunks are joined and encoded a
        # batch at a time into one buffer, so the temporaries above the held report
        # are about the output (1.28 times it measured: the buffer, the report's
        # dicts and one batch).  `json.dumps` holds the list of every chunk, their
        # joined str and its encoding, 4.48 times.
        report = catalog_suite[0]
        tracemalloc.start()
        try:
            blob = emit(report, "records")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(blob)

    def test_the_catalog_records_pass_peaks_below_its_bound(self):
        # `run_configs` and `emit` on the catalog at its shipped seeds, the path of
        # `fibreqm suite catalog --format records`: 8.0-8.6 MB measured, on a
        # process's first pass and after, set in the sweep of
        # nonunitary-constant-gauge (n = 8, N = 1000, two slices in flight); the
        # records add 1.28 times their 2.6 MB beside the held report.  The bound adds
        # 1.0 MB, about that scenario's (N, n, n) stack (1.03 MB).  A pass that holds
        # the series as lists of floats, imports numpy.ma, and samples
        # picture_invariance's random picture beside the slice's t0 rows peaks at
        # 9.8-11.3 MB; one that lists the records' chunks whole, or runs
        # picture_invariance beside its slice's conventional rows and densities, at
        # 15.3-16.3 MB.
        configs = [load_catalog_scenario(name) for name, _ in catalog_names()]
        tracemalloc.start()
        try:
            emit(run_configs(configs), "records")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9.6e6

    def test_the_catalog_records_pass_imports_no_numpy_ma(self):
        # numpy's `np.unique` without a `return_*` imports numpy.ma on its first call,
        # about 1.1 MB that a process keeps; the engine takes `sorted_distinct`
        code = ("import sys\n"
                "from fibreqm.report import emit\n"
                "from fibreqm.scenario import load_catalog\n"
                "from fibreqm.suite import run_configs\n"
                "assert 'numpy.ma' not in sys.modules\n"
                "emit(run_configs(load_catalog()), 'records')\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(pathlib.Path(checks_module.__file__).resolve().parents[1])
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


class TestCli:
    def test_catalog_listing(self, capsys):
        assert cli_main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "rabi-drive" in out
        assert len(out.strip().splitlines()) == 10

    def test_run_config_file(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL))
        assert cli_main(["run", str(path)]) == 0
        assert "minimal" in capsys.readouterr().out

    def test_run_catalog_by_name(self, capsys):
        assert cli_main(["run", "degenerate-single-point", "--format", "records"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall_pass"] is True

    def test_run_failing_scenario_exits_nonzero(self, tmp_path, capsys):
        raw = dict(MINIMAL,
                   trivialization={"kind": "global-phase", "omega": 6.283185307179586},
                   faults={"drop_trivialization_derivative": True})
        path = write_config(tmp_path, raw)
        assert cli_main(["run", str(path)]) == 1

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope}")
        assert cli_main(["run", str(path)]) == 2

    def test_suite_of_two_copies_of_one_config_exits_2(self, tmp_path, capsys):
        write_config(tmp_path, dict(MINIMAL), "a.json")
        write_config(tmp_path, dict(MINIMAL), "b.json")
        assert cli_main(["suite", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: suite: duplicate scenario names ['minimal']\n"

    def test_output_dir_writes_records(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, dict(MINIMAL))
        out_dir = tmp_path / "reports"
        assert cli_main(["run", str(path), "--output", str(out_dir)]) == 0
        records = out_dir / "minimal.records.json"
        assert records.exists()
        payload = json.loads(records.read_text())
        assert payload["scenario"] == "minimal"

    def test_output_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, dict(MINIMAL))
        out_dir = tmp_path / "env-reports"
        monkeypatch.setenv("FIBREQM_OUTPUT_DIR", str(out_dir))
        assert cli_main(["run", str(path)]) == 0
        assert (out_dir / "minimal.records.json").exists()

    def test_emit_roundtrip(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL))
        out_dir = tmp_path / "reports"
        cli_main(["run", str(path), "--output", str(out_dir)])
        capsys.readouterr()
        assert cli_main(["emit", str(out_dir / "minimal.records.json"),
                         "--format", "table"]) == 0
        assert "state_equivalence" in capsys.readouterr().out

    @pytest.mark.parametrize("content, message", [
        (b"[]", "must hold a JSON object"),
        (b'{"kind": "scenario-report"}', "KeyError('scenario')"),
        (b'{"kind": "suite-report"}', "KeyError('scenarios')"),
        (b'{"kind": "suite-report", "scenarios": [1]}', "not a report records file"),
        (b"{nope", "parse error at line 1"),
        (b'{"kind": "\xff"}', "not UTF-8 text"),
    ])
    def test_emit_rejects_a_file_that_is_not_a_report(self, tmp_path, capsys, content,
                                                      message):
        path = tmp_path / "not-a-report.json"
        path.write_bytes(content)
        assert cli_main(["emit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    def test_emit_of_a_directory_names_it_as_unreadable(self, tmp_path, capsys):
        assert cli_main(["emit", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read ([Errno ")

    def test_diff_of_a_directory_names_it_as_unreadable(self, tmp_path, capsys):
        assert cli_main(["diff", str(tmp_path), str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read ([Errno ")

    def test_diff_rejects_a_file_that_is_not_a_report(self, tmp_path, capsys):
        path = tmp_path / "not-a-report.json"
        path.write_bytes(b'{"kind": "scenario-report"}')
        assert cli_main(["diff", str(path), str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not a report records file (KeyError('scenario'))\n")

    @pytest.mark.parametrize("raw, non_finite", [
        # the frames fail on this coarse grid: the setup record's residual is inf
        ({"name": "g", "dimension": 2, "grid": {"steps": 3},
          "trivialization": {"kind": "global-phase"}}, {'"inf"': 1}),
        # the products of this generator's steps overflow: residuals and series are nan
        ({"name": "g", "dimension": 2, "grid": {"steps": 100},
          "hamiltonian": {"kind": "non-hermitian",
                          "matrix": [[[0, 800], [0, 0]], [[0, 0], [0, 0]]]}},
         {'"nan"': 167}),
    ], ids=["setup-failure", "overflow"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_records_are_standard_json_and_read_back(self, tmp_path, capsys, raw,
                                                                non_finite):
        out_dir = tmp_path / "reports"
        assert cli_main(["run", str(write_config(tmp_path, raw)), "--format", "records",
                         "--output", str(out_dir)]) == 1
        path = out_dir / "g.records.json"
        text = path.read_text()

        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        payload = json.loads(text, parse_constant=reject)
        assert {token: text.count(token) for token in non_finite} == non_finite
        written = [record["max_residual"] for record in payload["records"]]
        assert any(isinstance(x, str) for x in written)
        loaded = [r.max_residual for r in report_from_dict(payload).records]
        assert all(isinstance(x, float) for x in loaded)
        assert list(map(str, loaded)) == list(map(str, written))
        capsys.readouterr()
        assert cli_main(["emit", str(path), "--format", "records"]) == 1
        assert capsys.readouterr().out == text
        assert cli_main(["diff", str(path), str(path)]) == 0
        assert capsys.readouterr().out.endswith(
            "0 verdict changes, 0 moved residuals (largest move 0.000e+00), "
            "0 moved worst times, 0 records on one side only\n")

    @pytest.mark.parametrize("fmt, serialized", [("records", ["records"]),
                                                 ("table", ["table", "records"])])
    def test_records_printed_and_written_are_serialized_once(self, tmp_path, capsys,
                                                             monkeypatch, fmt, serialized):
        formats, real = [], cli_module.emit  # the format of each serialization

        def counting(report, fmt):
            formats.append(fmt)
            return real(report, fmt)

        monkeypatch.setattr(cli_module, "emit", counting)
        out_dir = tmp_path / "reports"
        assert cli_main(["run", str(write_config(tmp_path, dict(MINIMAL))), "--format", fmt,
                         "--output", str(out_dir)]) == 0
        assert formats == serialized
        printed = capsys.readouterr().out
        written = (out_dir / "minimal.records.json").read_text()
        assert written == (printed if fmt == "records"
                           else real(report_from_dict(json.loads(written)), "records").decode())

    def test_suite_of_catalog(self, tmp_path, capsys):
        # a tiny directory suite keeps this fast; catalog suite runs in acceptance
        write_config(tmp_path, dict(MINIMAL, name="cli-suite-a"), "a.json")
        write_config(tmp_path, dict(MINIMAL, name="cli-suite-b"), "b.json")
        assert cli_main(["suite", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-suite-a" in out and "cli-suite-b" in out

    def test_suite_records_roundtrip(self, tmp_path, capsys):
        write_config(tmp_path, dict(MINIMAL, name="rt"), "rt.json")
        assert cli_main(["suite", str(tmp_path), "--format", "records"]) == 0
        payload = json.loads(capsys.readouterr().out)
        suite = suite_from_dict(payload)
        assert suite.overall_pass


class TestDiff:
    """`fibreqm diff OLD NEW` on saved catalog records files."""

    @pytest.fixture
    def saved(self, catalog_suite, tmp_path):
        path = tmp_path / "old.records.json"
        path.write_bytes(emit(catalog_suite[0], "records"))
        return path

    @staticmethod
    def edited(saved, edit):
        payload = json.loads(saved.read_text())
        edit(payload["scenarios"][0]["records"])
        path = saved.with_name("new.records.json")
        path.write_text(json.dumps(payload))
        return path

    @staticmethod
    def summary(records, flips=0, moved=0, largest=0.0, one_sided=0):
        return (f"{records} records on both sides: {flips} verdict changes, {moved} moved "
                f"residuals (largest move {largest:.3e}), 0 moved worst times, "
                f"{one_sided} records on one side only\n")

    def test_identical_files_differ_nowhere(self, saved, catalog_suite, capsys):
        total = sum(len(rep.records) for rep in catalog_suite[0].reports)
        assert cli_main(["diff", str(saved), str(saved)]) == 0
        assert capsys.readouterr().out == self.summary(total)

    def test_a_moved_residual_is_listed_and_passes(self, saved, catalog_suite, capsys):
        first = catalog_suite[0].reports[0]
        old = first.records[0].max_residual

        def move(records):
            records[0]["max_residual"] = 3 * old

        assert cli_main(["diff", str(saved), str(self.edited(saved, move))]) == 0
        total = sum(len(rep.records) for rep in catalog_suite[0].reports)
        assert capsys.readouterr().out == (
            f"{first.scenario} {first.records[0].check}: residual {old!r} -> {3 * old!r} "
            f"(abs {2 * old:.3e}, rel 2.000e+00)\n"
            + self.summary(total, moved=1, largest=2 * old))

    def test_a_residual_from_a_failed_record_moves_by_inf(self, saved, catalog_suite, capsys):
        # the old side's record failed, with residual inf: the move is inf, absolute and
        # relative, not inf / inf
        first = catalog_suite[0].reports[0]
        record = first.records[0]

        def fail(records):
            records[0].update(max_residual="inf", passed=False)

        failed = self.edited(saved, fail)
        assert cli_main(["diff", str(failed), str(saved)]) == 1
        total = sum(len(rep.records) for rep in catalog_suite[0].reports)
        assert capsys.readouterr().out == (
            f"{first.scenario} {record.check}: verdict FAIL -> pass\n"
            f"{first.scenario} {record.check}: residual inf -> {record.max_residual!r} "
            f"(abs inf, rel inf)\n"
            + self.summary(total, flips=1, moved=1, largest=INF))

    def test_a_nan_move_is_the_largest_move(self, saved, catalog_suite, capsys):
        first = catalog_suite[0].reports[0]
        old = [record.max_residual for record in first.records[:2]]

        def move(records):
            records[0]["max_residual"] = "nan"
            records[1]["max_residual"] = 3 * old[1]

        assert cli_main(["diff", str(saved), str(self.edited(saved, move))]) == 0
        total = sum(len(rep.records) for rep in catalog_suite[0].reports)
        assert capsys.readouterr().out == (
            f"{first.scenario} {first.records[0].check}: residual {old[0]!r} -> nan "
            f"(abs nan, rel nan)\n"
            f"{first.scenario} {first.records[1].check}: residual {old[1]!r} -> {3 * old[1]!r} "
            f"(abs {2 * old[1]:.3e}, rel 2.000e+00)\n"
            + self.summary(total, moved=2, largest=NAN))

    def test_a_flipped_verdict_fails(self, saved, catalog_suite, capsys):
        first = catalog_suite[0].reports[0]

        def flip(records):
            records[1]["passed"] = False

        assert cli_main(["diff", str(saved), str(self.edited(saved, flip))]) == 1
        total = sum(len(rep.records) for rep in catalog_suite[0].reports)
        assert capsys.readouterr().out == (
            f"{first.scenario} {first.records[1].check}: verdict pass -> FAIL\n"
            + self.summary(total, flips=1))

    def test_a_record_on_one_side_only_fails(self, saved, catalog_suite, capsys):
        first = catalog_suite[0].reports[0]

        def drop(records):
            del records[-1]

        assert cli_main(["diff", str(saved), str(self.edited(saved, drop))]) == 1
        total = sum(len(rep.records) for rep in catalog_suite[0].reports)
        assert capsys.readouterr().out == (
            f"{first.scenario} {first.records[-1].check}: only in {saved}\n"
            + self.summary(total - 1, one_sided=1))
