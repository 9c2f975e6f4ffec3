"""Equivalence reports: structured records, tables, and time-series emission.

The structured-record JSON is deterministic for a fixed config and seed:
keys are sorted and floats use their shortest round-trip representation, so
two runs differ only in the timing field.  It is standard JSON: a non-finite
residual or series value is written as the string "inf", "-inf" or "nan", and
read back as that float.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

SCHEMA_VERSION = 1

__all__ = [
    "CheckRecord",
    "ScenarioReport",
    "SuiteReport",
    "emit",
    "render_table",
    "render_timeseries_csv",
    "report_from_dict",
    "suite_from_dict",
]


def _to_json(x: float):
    """`x`, or its str ("inf", "-inf" or "nan") if it is not finite."""
    return x if math.isfinite(x) else str(x)


def _to_json_series(values: List[float]) -> list:
    # A non-finite value makes the sum non-finite; a finite series whose sum
    # overflows takes the slow path and comes out unchanged.
    return values if math.isfinite(sum(values)) else [_to_json(x) for x in values]


def _from_json(x):
    """The float that `_to_json` wrote."""
    return float(x) if isinstance(x, str) else x


@dataclass
class CheckRecord:
    """One executed check: residual, tolerance, verdict, worst grid location."""

    check: str
    max_residual: float
    tolerance: float
    passed: bool
    worst_time: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return dict(asdict(self), max_residual=_to_json(self.max_residual))

    @classmethod
    def from_dict(cls, d: dict) -> "CheckRecord":
        return cls(d["check"], _from_json(d["max_residual"]), d["tolerance"], d["passed"],
                   d.get("worst_time"), d.get("detail", ""))


@dataclass
class ScenarioReport:
    """All records of one scenario run plus the resolved config echo."""

    scenario: str
    records: List[CheckRecord]
    config_echo: dict
    timeseries: Dict[str, List[float]] = field(default_factory=dict)
    timing_seconds: float = 0.0

    @property
    def overall_pass(self) -> bool:
        return bool(self.records) and all(r.passed for r in self.records)

    def record(self, check: str) -> CheckRecord:
        for r in self.records:
            if r.check == check:
                return r
        raise KeyError(f"no record for check {check!r}")

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "kind": "scenario-report",
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "overall_pass": self.overall_pass,
            "records": [r.to_dict() for r in self.records],
            "config": self.config_echo,
            "timeseries": {key: _to_json_series(values)
                           for key, values in self.timeseries.items()},
        }
        if include_timing:
            d["timing_seconds"] = self.timing_seconds
        return d


def report_from_dict(d: dict) -> ScenarioReport:
    if d.get("kind") != "scenario-report":
        raise ValueError("not a scenario-report record file")
    return ScenarioReport(
        scenario=d["scenario"],
        records=[CheckRecord.from_dict(r) for r in d["records"]],
        config_echo=d.get("config", {}),
        timeseries={key: [_from_json(x) for x in values]
                    for key, values in d.get("timeseries", {}).items()},
        timing_seconds=d.get("timing_seconds", 0.0),
    )


@dataclass
class SuiteReport:
    """Aggregate over scenario reports, sorted by scenario name."""

    reports: List[ScenarioReport]
    timing_seconds: float = 0.0

    def __post_init__(self):
        self.reports = sorted(self.reports, key=lambda r: r.scenario)

    @property
    def overall_pass(self) -> bool:
        return all(r.overall_pass for r in self.reports)

    @property
    def warnings(self) -> List[str]:
        return [] if self.reports else ["suite is empty; overall pass is vacuous"]

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "kind": "suite-report",
            "schema_version": SCHEMA_VERSION,
            "overall_pass": self.overall_pass,
            "warnings": self.warnings,
            "scenarios": [r.to_dict(include_timing) for r in self.reports],
        }
        if include_timing:
            d["timing_seconds"] = self.timing_seconds
        return d


def suite_from_dict(d: dict) -> SuiteReport:
    if d.get("kind") != "suite-report":
        raise ValueError("not a suite-report record file")
    return SuiteReport(
        reports=[report_from_dict(r) for r in d["scenarios"]],
        timing_seconds=d.get("timing_seconds", 0.0),
    )


# --- renderers ----------------------------------------------------------------

def _record_rows(report: ScenarioReport) -> List[List[str]]:
    rows = []
    for r in report.records:
        rows.append([
            report.scenario,
            r.check,
            f"{r.max_residual:.3e}",
            f"{r.tolerance:.1e}",
            "pass" if r.passed else "FAIL",
            "" if r.worst_time is None else f"{r.worst_time:.6g}",
            r.detail,
        ])
    return rows


def render_table(report) -> str:
    """Human-readable table for a scenario or suite report."""
    header = ["scenario", "check", "max residual", "tolerance", "verdict", "worst t", "detail"]
    rows: List[List[str]] = []
    lines: List[str] = []
    if isinstance(report, SuiteReport):
        for w in report.warnings:
            lines.append(f"warning: {w}")
        failing = [rep for rep in report.reports if not rep.overall_pass]
        passing = [rep for rep in report.reports if rep.overall_pass]
        for rep in failing + passing:  # failures surface first
            rows.extend(_record_rows(rep))
        verdict = "PASS" if report.overall_pass else "FAIL"
        tail = f"suite: {verdict} ({len(report.reports)} scenarios)"
    else:
        rows = _record_rows(report)
        verdict = "PASS" if report.overall_pass else "FAIL"
        tail = f"scenario {report.scenario}: {verdict}"

    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*header))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt.format(*row))
    lines.append(tail)
    return "\n".join(lines) + "\n"


def render_timeseries_csv(report) -> str:
    """Long-format CSV: one row per grid point per tracked quantity."""
    reports = report.reports if isinstance(report, SuiteReport) else [report]
    lines = ["scenario,time,quantity,value"]
    for rep in reports:
        times = rep.timeseries.get("time", [])
        for quantity in sorted(rep.timeseries):
            if quantity == "time":
                continue
            values = rep.timeseries[quantity]
            for t, v in zip(times, values):
                lines.append(f"{rep.scenario},{t!r},{quantity},{v!r}")
    return "\n".join(lines) + "\n"


def emit(report, fmt: str) -> bytes:
    """Serialize a report: 'records' (JSON), 'table' (text), 'timeseries' (CSV)."""
    if fmt == "records":
        return (json.dumps(report.to_dict(), sort_keys=True, indent=1, allow_nan=False)
                + "\n").encode()
    if fmt == "table":
        return render_table(report).encode()
    if fmt == "timeseries":
        return render_timeseries_csv(report).encode()
    raise ValueError(f"unknown report format {fmt!r}")
