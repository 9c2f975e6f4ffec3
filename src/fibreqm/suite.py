"""Suite orchestration: run many scenario configs and aggregate the verdicts."""

from __future__ import annotations

import time
from pathlib import Path as FsPath
from typing import List, Sequence

from .checks import run_scenario
from .report import SuiteReport
from .scenario import ConfigError, ScenarioConfig, _read_json, load_catalog, load_scenario

__all__ = ["resolve_suite_inputs", "run_configs", "run_suite"]


def resolve_suite_inputs(target) -> List[ScenarioConfig]:
    """Resolve a suite target: 'catalog', a directory, or a manifest file.

    A manifest is a JSON object {"scenarios": [<config path>, ...]} with paths
    relative to the manifest; a directory means every *.json file in it in
    sorted order.
    """
    if target == "catalog":
        return load_catalog()
    path = FsPath(target)
    if path.is_dir():
        return [load_scenario(p) for p in sorted(path.glob("*.json"))]
    if path.is_file():
        raw = _read_json(path)
        if not isinstance(raw, dict) or "scenarios" not in raw:
            raise ConfigError(f"{path}: manifest must be an object with a 'scenarios' list")
        entries = raw["scenarios"]
        if not isinstance(entries, list):
            raise ConfigError(f"{path}: 'scenarios' must be a list of config paths")
        return [load_scenario(path.parent / entry) for entry in entries]
    raise ConfigError(f"{target}: not a directory, manifest file, or 'catalog'")


def run_configs(configs: Sequence[ScenarioConfig]) -> SuiteReport:
    """Run scenarios in order; isolation means order never affects records.

    Records are keyed by scenario name, so a name given twice is a ConfigError
    before any scenario runs.
    """
    names = [cfg.name for cfg in configs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"suite: duplicate scenario names {repeated}")
    started = time.perf_counter()
    reports = [run_scenario(cfg) for cfg in configs]
    return SuiteReport(reports, time.perf_counter() - started)


def run_suite(target) -> SuiteReport:
    """Resolve a suite target and run every scenario in it."""
    return run_configs(resolve_suite_inputs(target))
