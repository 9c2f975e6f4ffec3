import dataclasses
import json
import tracemalloc
from collections import Counter
from functools import cached_property
from importlib import resources

import numpy as np
import pytest

import fibreqm.checks as checks_module
import fibreqm.scenario as scenario_module
from fibreqm.bundle import TrivializationFamily
from fibreqm.checks import _CHECK_TABLE, ScenarioArtifacts, build_artifacts, run_scenario
from fibreqm.cli import main as cli_main
from fibreqm.dynamics import ObservableFamily, PropagatorGrid
from fibreqm.pictures import PictureTransform
from fibreqm.report import emit, report_from_dict, suite_from_dict
from fibreqm.scenario import (
    ALL_CHECKS,
    ConfigError,
    catalog_names,
    load_catalog_scenario,
    load_scenario,
    scenario_from_dict,
)
from fibreqm.suite import run_suite
from fibreqm.transport import EvolutionTransport

MINIMAL = {
    "name": "minimal",
    "dimension": 2,
    "grid": {"t0": 0.0, "t1": 1.0, "steps": 50},
    "hamiltonian": {"kind": "pauli", "coefficients": {"z": 1.0}},
    "trivialization": {"kind": "identity"},
}


NAN, INF = float("nan"), float("inf")
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
        deviation = np.max(np.abs(family.derivative_on_grid(times[1:-1]) - central))
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
            lambda ts: np.stack([np.diag([t - 0.5, 1.0]) for t in ts]).astype(complex), 2,
            lambda ts: np.broadcast_to(np.diag([1.0, 0.0]).astype(complex), (ts.size, 2, 2)),
            name="singular-mid")
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

        family = TrivializationFamily(sampler("values"), 2, sampler("derivative"),
                                      name="poisoned")
        with pytest.raises(ValueError, match="trivialization 'poisoned'.* non-finite"):
            getattr(family, query)(np.linspace(0.0, 1.0, 5))

        cfg = scenario_from_dict(dict(MINIMAL))
        cfg.trivialization = family
        setup = run_scenario(cfg).record("setup")
        assert not setup.passed
        assert setup.detail.startswith("ValueError: trivialization 'poisoned'")


class TestSampleOnce:
    def test_each_time_set_sampled_once(self):
        cfg = load_catalog_scenario("random-unitary-gauge")
        family = cfg.trivialization
        calls = {"values": [], "derivatives": []}

        def recording(kind, sampler):
            def wrapper(times, *args, **kwargs):
                calls[kind].append(np.atleast_1d(np.asarray(times, dtype=float)).tobytes())
                return sampler(times, *args, **kwargs)
            return wrapper

        family.at_many = recording("values", family.at_many)
        family.derivative_at_many = recording("derivatives", family.derivative_at_many)

        art = build_artifacts(cfg)
        series = {}
        records = [_CHECK_TABLE[c](art, cfg.tolerances[c], series) for c in ALL_CHECKS]
        assert all(r.passed for r in records if r.check in cfg.checks)
        for kind, sampled in calls.items():
            assert sampled, kind
            assert len(sampled) == len(set(sampled)), f"a time set was resampled ({kind})"

    def test_each_t0_transport_stack_computed_once(self, monkeypatch):
        calls = []
        for method in ("operators_from", "operators_into"):
            def counting(grid, i, real=getattr(PropagatorGrid, method), method=method):
                calls.append((method, i))
                return real(grid, i)
            monkeypatch.setattr(PropagatorGrid, method, counting)
        assert run_scenario(load_catalog_scenario("random-unitary-gauge")).overall_pass
        assert sorted(calls) == [("operators_from", 0), ("operators_into", 0)]

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
        assert [bool(np.any(family.derivative_on_grid(cfg.times)))
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


class TestArtifactNodes:
    """Artifacts past the constructor are built when a check first reads them."""

    def test_state_equivalence_alone_builds_no_t0_stack_or_lift(self, monkeypatch):
        calls = []
        for method in ("matrices_from", "matrices_into"):
            def counting(transport, t, real=getattr(EvolutionTransport, method), method=method):
                calls.append(method)
                return real(transport, t)
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

    def test_each_check_alone_gives_its_full_run_record(self, catalog_suite):
        full = {report.scenario: report for report in catalog_suite[0].reports}
        for name, _ in catalog_names():
            cfg = load_catalog_scenario(name)
            records = {r.check: r.to_dict() for r in full[cfg.name].records}
            for check_id in cfg.checks:
                alone = run_scenario(dataclasses.replace(cfg, checks=[check_id]))
                assert [r.to_dict() for r in alone.records] == [records[check_id]], \
                    (name, check_id)

    def test_every_node_computed_at_most_once(self, monkeypatch):
        computed = []  # (instance, node name); holding the instances keeps ids distinct
        nodes = set()
        for cls in (ScenarioArtifacts, EvolutionTransport, PictureTransform):
            for name, node in list(vars(cls).items()):
                if not isinstance(node, cached_property):
                    continue

                def counting(instance, build=node.func, name=name):
                    computed.append((instance, name))
                    return build(instance)

                wrapped = cached_property(counting)
                wrapped.__set_name__(cls, name)
                monkeypatch.setattr(cls, name, wrapped)
                nodes.add(name)
        assert run_suite("catalog").overall_pass
        assert {name for _, name in computed} == nodes
        repeats = Counter((id(instance), name) for instance, name in computed)
        assert max(repeats.values()) == 1, [k for k, v in repeats.items() if v > 1]


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

    def test_empty_manifest_vacuous_pass_with_warning(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"scenarios": []}))
        report = run_suite(manifest)
        assert report.overall_pass
        assert report.warnings
        assert "empty" in report.warnings[0]

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

    def test_schema_version_embedded(self):
        report = run_scenario(scenario_from_dict(dict(MINIMAL)))
        payload = json.loads(emit(report, "records"))
        assert payload["schema_version"] == 1
        assert payload["kind"] == "scenario-report"


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
