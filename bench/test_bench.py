"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench

Runs the catalog as shipped and the scaled gauge scenario at n=4, N=1000
through the same code as bench/run.py, and checks that every metric named in
BENCHMARK.json is emitted, that the gate passes clean runs and fails a run
with an injected fault, and that tracing leaves the package as it found it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fibreqm  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"catalog": harness.catalog_raws(), "gauge": [harness.scaled_gauge(4, 1000)]}


def _names(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_workloads_are_harness_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)
    for name in harness.WORKLOADS:
        assert harness.workload_raws(name, 5)[0]["seed"] == 5


@pytest.mark.parametrize("tiny", sorted(TINY))
def test_end_to_end_metrics_and_gate(tiny):
    result = harness.measure(harness.with_seed(TINY[tiny], 3), seconds=0.0)
    assert {k: unit for k, (_, unit) in result.metrics.items()} == _names("end_to_end")
    assert result.correct, result.gate.reasons
    assert result.gate.attempted == 2 * len(TINY[tiny])
    assert result.metrics["verified_ratio"][0] == 1.0
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("tiny", sorted(TINY))
def test_traced_metrics_and_repeatable_counts(tiny):
    raws = harness.with_seed(TINY[tiny], 3)
    first = harness.measure_traced(raws, seconds=0.0)
    second = harness.measure_traced(raws, seconds=0.0)
    assert {k: unit for k, (_, unit) in first.metrics.items()} == _names("per_layer")
    assert first.correct and second.correct
    counts = [k for k, (_, unit) in first.metrics.items() if unit != "s"]
    assert {k: first.metrics[k] for k in counts} == {k: second.metrics[k] for k in counts}
    assert first.metrics["hilbert.expm_calls"][0] > 0
    assert first.metrics["dynamics.grid_index_calls"][0] > 0
    assert first.spans and all(len(span) == 4 for span in first.spans)


def test_injected_fault_fails_the_gate():
    raw = dict(harness.scaled_gauge(4, 1000), faults={"drop_trivialization_derivative": True})
    result = harness.measure(harness.with_seed([raw], 3), seconds=0.0)
    assert not result.correct
    assert result.gate.failed > 0
    assert result.metrics["verified_ratio"][0] < 1.0
    assert any("state_equivalence" in reason for reason in result.gate.reasons)


def test_changed_records_fail_the_gate():
    suite_report, _ = harness.run_pass(harness.resolve(harness.with_seed(TINY["gauge"], 3)))
    gate = harness.Gate()
    gate.check(suite_report)
    suite_report.reports[0].records[0].detail = "changed"
    gate.check(suite_report)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert "differ from the first pass" in gate.reasons[0]


def test_nonzero_single_point_residual_fails_the_gate():
    raws = [raw for raw in harness.catalog_raws()
            if raw["name"] == harness.BITWISE_ZERO_SCENARIO]
    suite_report, _ = harness.run_pass(harness.resolve(raws))
    clean = harness.Gate()
    clean.check(suite_report)
    assert clean.failed == 0
    suite_report.reports[0].record("density_consistency").max_residual = 5e-324
    gate = harness.Gate()
    gate.check(suite_report)
    assert gate.failed == 1 and "bitwise zero" in gate.reasons[0]


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "fibreqm" or name.startswith("fibreqm.")
            for attr, value in list(vars(module).items())}


def test_tracing_restores_every_binding():
    before = _bindings()
    classes = {cls: dict(vars(cls)) for cls in (
        fibreqm.HamiltonianFamily, fibreqm.TrivializationFamily, fibreqm.PropagatorGrid,
        fibreqm.EvolutionTransport, fibreqm.MatrixBundleHamiltonian, fibreqm.PictureTransform)}
    table = dict(sys.modules["fibreqm.checks"]._CHECK_TABLE)
    with tracing.Tracer().wrapped():
        assert fibreqm.dynamics.grid_index is not before[("fibreqm.dynamics", "grid_index")]
        assert fibreqm.transport.grid_index is fibreqm.dynamics.grid_index
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(dict(vars(cls)) == saved for cls, saved in classes.items())
    assert sys.modules["fibreqm.checks"]._CHECK_TABLE == table


def test_missing_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("dynamics", "no_such_function", "dynamics.none", ()),))
    before = _bindings()
    with pytest.raises(LookupError, match="no_such_function"):
        with tracing.Tracer().wrapped():
            pass
    assert all(_bindings()[key] is value for key, value in before.items())
