"""Workloads, the timed pass, the correctness gate and the metrics of the benchmark.

One pass is `suite.run_configs(configs)` followed by
`report.emit(suite_report, "records")`, the path of
`fibreqm suite ... --format records`.  Configs are resolved before the first
pass, and one process runs the passes back to back (a closed loop with one
client).  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Optional, Tuple

from fibreqm import report, scenario, suite

import tracer as tracing
from calibration import Calibration

WORKLOADS = {
    "catalog": "the 10 built-in scenarios as shipped; tiny matrices, so per-call Python "
               "overhead dominates",
    "wide-gauge": "random-unitary-gauge at n=32, N=1000; batched matrix exponentials "
                  "dominate",
    "long-grid": "random-unitary-gauge at n=4, N=10000; sequential loops, grid lookups "
                 "and (N, n, n) stacks dominate",
}

# The degenerate single-point scenario recovers conventional quantum
# mechanics exactly, so these residuals must be bitwise zero there.
BITWISE_ZERO_SCENARIO = "degenerate-single-point"
BITWISE_ZERO_CHECKS = ("state_equivalence", "mean_value_invariance",
                       "hermiticity_correspondence", "density_consistency")

END_TO_END_UNITS = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "eq_digits": "digits",
    "verified_ratio": "ratio",
}

SETUP_MIN_REPEATS = 3
# Set-up is resolved again between passes until it has taken this share of
# the pass time, so that its samples span the run as the passes do.
SETUP_SHARE = 0.05
# Share of each pass's time spent again on the calibration kernel after it.
CALIBRATION_SHARE = 0.15


# --- workloads -----------------------------------------------------------------

def catalog_raws() -> List[dict]:
    """Raw config dicts of the built-in catalog, in manifest order."""
    root = resources.files("fibreqm") / "catalog"
    manifest = json.loads((root / "manifest.json").read_text())
    return [json.loads((root / entry).read_text()) for entry in manifest["scenarios"]]


def scaled_gauge(dimension: int, steps: int) -> dict:
    """The catalog's random-unitary-gauge scenario at another size."""
    base = next(raw for raw in catalog_raws() if raw["name"] == "random-unitary-gauge")
    return dict(base, name=f"random-unitary-gauge-n{dimension}-N{steps}",
                dimension=dimension, grid=dict(base["grid"], steps=steps))


def with_seed(raws: List[dict], seed: int) -> List[dict]:
    return [dict(raw, seed=seed) for raw in raws]


def workload_raws(name: str, seed: int) -> List[dict]:
    if name == "catalog":
        raws = catalog_raws()
    elif name == "wide-gauge":
        raws = [scaled_gauge(32, 1000)]
    elif name == "long-grid":
        raws = [scaled_gauge(4, 10000)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return with_seed(raws, seed)


# --- the pass and its correctness gate ----------------------------------------------

def resolve(raws: List[dict]) -> list:
    return [scenario.scenario_from_dict(raw) for raw in raws]


def run_pass(configs: list) -> Tuple[report.SuiteReport, bytes]:
    suite_report = suite.run_configs(configs)
    return suite_report, report.emit(suite_report, "records")


def _deterministic_bytes(obj) -> bytes:
    return (json.dumps(obj.to_dict(include_timing=False), sort_keys=True, indent=1)
            + "\n").encode()


def _failure(rep: report.ScenarioReport, digest: str, reference: Optional[str]) -> str:
    """Why one scenario run fails the gate, or '' if it passes."""
    if not rep.overall_pass:
        failed = [f"{r.check} ({r.detail})" if r.detail else r.check
                  for r in rep.records if not r.passed]
        return "verdict fail, expected pass: " + "; ".join(failed)
    if reference is not None and digest != reference:
        return "records (timing excluded) differ from the first pass of this run"
    if rep.scenario == BITWISE_ZERO_SCENARIO:
        present = {r.check: r.max_residual for r in rep.records}
        nonzero = [c for c in BITWISE_ZERO_CHECKS if present.get(c) != 0.0]
        if nonzero:
            return "residuals not bitwise zero: " + ", ".join(nonzero)
    return ""


@dataclass
class Gate:
    """Counts scenario runs and the ones that fail; the first pass is the reference."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    reference: Optional[Dict[str, str]] = None

    def check(self, suite_report: report.SuiteReport) -> None:
        digests = {rep.scenario: hashlib.sha256(_deterministic_bytes(rep)).hexdigest()
                   for rep in suite_report.reports}
        first = self.reference is None
        if first:
            self.reference = digests
        for rep in suite_report.reports:
            reference = None if first else self.reference.get(rep.scenario)
            why = _failure(rep, digests[rep.scenario], reference)
            self.attempted += 1
            if why:
                self.failed += 1
                self.reasons.append(f"{rep.scenario}: {why}")


def max_eq_residual(suite_report: report.SuiteReport) -> float:
    worst = 0.0
    for rep in suite_report.reports:
        for r in rep.records:
            if r.check == "state_equivalence":
                worst = max(worst, r.max_residual if r.max_residual >= 0 else math.inf)
    return worst


def eq_digits(residual: float) -> float:
    """Decimal digits of agreement, -log10 of the residual, within [0, 300]."""
    return -math.log10(min(max(residual, 1e-300), 1.0))


# --- measurement -------------------------------------------------------------------

@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]
    gate: Gate
    notes: List[str] = field(default_factory=list)
    spans: List[list] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.gate.failed == 0


def _timed_pass(configs: list) -> Tuple[float, report.SuiteReport]:
    gc.collect()
    started = time.perf_counter()
    suite_report, _ = run_pass(configs)
    return time.perf_counter() - started, suite_report


def _room_for_another(started: float, done: int, seconds: float) -> bool:
    """Whether one more round, at the mean duration so far, ends within `seconds`."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def _timed_resolve(raws: List[dict]) -> Tuple[float, list]:
    started = time.perf_counter()
    configs = resolve(raws)
    return time.perf_counter() - started, configs


def measure(raws: List[dict], seconds: float) -> Result:
    """End-to-end metrics: set-up, one memory pass, then timed passes for `seconds`.

    Between passes the configs are resolved again and the calibration kernel
    runs; pass and set-up times are rescaled by the kernel's median to
    seconds at the reference machine speed.
    """
    setup: List[float] = []
    for _ in range(SETUP_MIN_REPEATS):
        elapsed, configs = _timed_resolve(raws)
        setup.append(elapsed)
    gate = Gate()

    # The memory pass is also the warm-up and the gate's reference pass.
    gc.collect()
    tracemalloc.start()
    try:
        suite_report, _ = run_pass(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gate.check(suite_report)
    residual = max_eq_residual(suite_report)

    passes: List[float] = []
    calibration = Calibration()
    started = time.perf_counter()
    while not passes or _room_for_another(started, len(passes), seconds):
        elapsed, suite_report = _timed_pass(configs)
        passes.append(elapsed)
        gate.check(suite_report)
        residual = max(residual, max_eq_residual(suite_report))
        calibration.sample_for(CALIBRATION_SHARE * elapsed)
        while sum(setup) < SETUP_SHARE * sum(passes):
            setup.append(_timed_resolve(raws)[0])

    attempted = max(gate.attempted, 1)
    scale = calibration.scale()
    metrics = {
        "pass_s": statistics.median(passes) * scale,
        "setup_s": statistics.median(setup) * scale,
        "peak_mem_mb": peak / 1e6,
        "eq_digits": eq_digits(residual),
        "verified_ratio": (attempted - gate.failed) / attempted,
    }
    notes = [
        f"pass_s: median of {len(passes)} passes; wall median {statistics.median(passes):.4f} s, "
        f"min {min(passes):.4f} s, max {max(passes):.4f} s",
        f"setup_s: median of {len(setup)} resolutions of {len(raws)} configs; "
        f"wall median {statistics.median(setup):.6f} s",
        f"calibration: wall times x {scale:.4f}, from the median of "
        f"{len(calibration.samples)} kernel runs ({statistics.median(calibration.samples):.4f} s)",
        "peak_mem_mb: tracemalloc peak over one untimed pass",
        f"eq_digits: max_eq_residual {residual:.6e} (state_equivalence, worst over the passes)",
        f"verified_ratio: failed_ratio {gate.failed / attempted:.6g} "
        f"({gate.failed} of {gate.attempted} scenario runs failed the gate)",
    ]
    return Result({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, gate, notes)


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {f"{label}_s": "s" for label in tracing.span_labels()}
    units.update({name: "count" for name in tracing.count_names()})
    units["hilbert.expm_bytes"] = "bytes-computed"
    units.update({"checks.failed_records": "count", "report.records_bytes": "bytes",
                  "trace.traced_pass_s": "s", "trace.untraced_pass_s": "s",
                  "trace.overhead_s": "s"})
    return units


def measure_traced(raws: List[dict], seconds: float) -> Result:
    """Per-layer metrics: untraced and traced passes alternate for `seconds`.

    Times are self times, the median over the traced passes; counts are
    taken per traced pass and must repeat exactly from one pass to the next.
    """
    tracer = tracing.Tracer()
    with tracer.wrapped():
        configs = resolve(raws)
    resolve_s = tracer.self_times().get("scenario.resolve", 0.0)
    tracer.clear()

    gate = Gate()
    gc.collect()
    suite_report, _ = run_pass(configs)  # warm-up and the gate's reference
    gate.check(suite_report)

    untraced: List[float] = []
    traced: List[float] = []
    layer_times: Dict[str, List[float]] = {}
    counts: Optional[Dict[str, int]] = None
    spans: List[list] = []
    started = time.perf_counter()
    while not traced or _room_for_another(started, len(traced), seconds):
        elapsed, suite_report = _timed_pass(configs)
        untraced.append(elapsed)
        gate.check(suite_report)

        tracer.clear()
        with tracer.wrapped():
            elapsed, suite_report = _timed_pass(configs)
        traced.append(elapsed)
        gate.check(suite_report)

        own = tracer.self_times()
        for label in tracing.span_labels():
            layer_times.setdefault(f"{label}_s", []).append(own.get(label, 0.0))
        pass_counts = {name: tracer.counts.get(name, 0) for name in tracing.count_names()}
        pass_counts["checks.failed_records"] = sum(
            not r.passed for rep in suite_report.reports for r in rep.records)
        pass_counts["report.records_bytes"] = len(_deterministic_bytes(suite_report))
        if counts is not None and pass_counts != counts:
            changed = sorted(k for k in counts if counts[k] != pass_counts[k])
            raise RuntimeError(f"per-layer counts differ between traced passes: {changed}")
        counts = pass_counts
        spans = [list(span) for span in tracer.spans]
    tracer.clear()

    values: Dict[str, float] = {name: statistics.median(v) for name, v in layer_times.items()}
    values["scenario.resolve_s"] = resolve_s
    values.update(counts)
    values["trace.traced_pass_s"] = statistics.median(traced)
    values["trace.untraced_pass_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.traced_pass_s"] - values["trace.untraced_pass_s"]
    units = layer_metric_units()
    notes = [f"traced run: {len(traced)} traced and {len(untraced)} untraced passes; "
             f"times are medians of self time over the traced passes"]
    return Result({name: (values[name], unit) for name, unit in units.items()},
                  gate, notes, spans)
