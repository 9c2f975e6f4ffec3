"""Command-line interface: run scenarios, suites, list the catalog, emit reports.

Verbs:
    run <config>        run one scenario (a file path or a catalog name)
    suite <target>      run a manifest, a directory of configs, or 'catalog'
    catalog             list the built-in scenarios
    emit <records.json> re-render a saved structured report
    diff <old> <new>    compare two saved records files record by record

Exit status is 0 iff the aggregate verdict is pass (2 for usage/config
errors and unreadable records files), so suites slot into CI directly;
`diff` exits 1 on a verdict change or a record on one side only.
FIBREQM_OUTPUT_DIR sets the default output directory for written report files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path as FsPath

from .checks import run_scenario
from .report import SuiteReport, emit, report_from_dict, suite_from_dict
from .scenario import ConfigError, _read_json, catalog_names, load_catalog_scenario, load_scenario
from .suite import run_suite

_FORMATS = ("table", "records", "timeseries")
_VERDICT = {True: "pass", False: "FAIL"}


def _output_dir(args) -> FsPath | None:
    if args.output is not None:
        return FsPath(args.output)
    env = os.environ.get("FIBREQM_OUTPUT_DIR")
    return FsPath(env) if env else None


def _finish(report, args, stem: str) -> int:
    """Print the report, write its records file if asked to, and return the exit status.

    Records printed and written are serialized once, the same bytes to both."""
    printed = emit(report, args.format)
    sys.stdout.write(printed.decode())
    out_dir = _output_dir(args)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"{stem}.records.json"
        target.write_bytes(printed if args.format == "records" else emit(report, "records"))
        print(f"records written to {target}", file=sys.stderr)
    return 0 if report.overall_pass else 1


def _cmd_run(args) -> int:
    path = FsPath(args.config)
    cfg = load_scenario(path) if path.exists() else load_catalog_scenario(args.config)
    report = run_scenario(cfg)
    return _finish(report, args, report.scenario)


def _cmd_suite(args) -> int:
    return _finish(run_suite(args.target), args, "suite")


def _cmd_catalog(_args) -> int:
    for name, description in catalog_names():
        print(f"{name:32s} {description}")
    return 0


def _read_report(path: FsPath):
    """The report saved in a records file; any other content is a ValueError naming it.

    A records file is not a config, so `_read_json`'s ConfigError is passed on
    as a plain ValueError, which `main` prints as `error: <path>: ...`.
    """
    try:
        raw = _read_json(path)
    except ConfigError as exc:
        raise ValueError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a records file must hold a JSON object")
    try:
        return suite_from_dict(raw) if raw.get("kind") == "suite-report" else report_from_dict(raw)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a report records file ({exc!r})") from exc


def _cmd_emit(args) -> int:
    report = _read_report(FsPath(args.records))
    sys.stdout.write(emit(report, args.format).decode())
    return 0 if report.overall_pass else 1


def _records_by_key(path: FsPath) -> dict:
    """(scenario, check) -> record of a scenario or suite records file."""
    report = _read_report(path)
    reports = report.reports if isinstance(report, SuiteReport) else [report]
    records = {}
    for rep in reports:
        for record in rep.records:
            key = (rep.scenario, record.check)
            if key in records:
                raise ValueError(f"{path}: scenario {key[0]!r} has two {key[1]!r} records")
            records[key] = record
    return records


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # two NaNs are the same value


def _relative(change: float, old: float) -> float:
    """A residual's move relative to its old value: inf from 0 or from a non-finite
    residual (a failed record's inf), NaN for a move from or to NaN."""
    if change != change:
        return change
    return change / abs(old) if old and math.isfinite(old) else math.inf


def _cmd_diff(args) -> int:
    old, new = _records_by_key(FsPath(args.old)), _records_by_key(FsPath(args.new))
    flips = moved = retimed = one_sided = 0
    largest = 0.0
    for key in list(old) + [k for k in new if k not in old]:
        where = "{} {}".format(*key)
        if key not in new or key not in old:
            one_sided += 1
            print(f"{where}: only in {args.old if key in old else args.new}")
            continue
        a, b = old[key], new[key]
        if a.passed != b.passed:
            flips += 1
            print(f"{where}: verdict {_VERDICT[a.passed]} -> {_VERDICT[b.passed]}")
        if not _same(a.max_residual, b.max_residual):
            moved += 1
            change = abs(b.max_residual - a.max_residual)
            # a NaN move is the largest, as a NaN residual is the worst
            largest = change if change != change else max(largest, change)
            print(f"{where}: residual {a.max_residual!r} -> {b.max_residual!r} "
                  f"(abs {change:.3e}, rel {_relative(change, a.max_residual):.3e})")
        if not _same(a.worst_time, b.worst_time):
            retimed += 1
            print(f"{where}: worst time {a.worst_time!r} -> {b.worst_time!r}")
    print(f"{len(old.keys() & new.keys())} records on both sides: {flips} verdict changes, "
          f"{moved} moved residuals (largest move {largest:.3e}), {retimed} moved worst "
          f"times, {one_sided} records on one side only")
    return 1 if flips or one_sided else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibreqm",
        description="Differential checks between Hilbert-space and fibre-bundle dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", help="config file path or built-in catalog name")
    p_run.add_argument("--format", choices=_FORMATS, default="table")
    p_run.add_argument("--output", help="directory for the records file")
    p_run.set_defaults(fn=_cmd_run)

    p_suite = sub.add_parser("suite", help="run a suite of scenarios")
    p_suite.add_argument("target", help="manifest file, config directory, or 'catalog'")
    p_suite.add_argument("--format", choices=_FORMATS, default="table")
    p_suite.add_argument("--output", help="directory for the records file")
    p_suite.set_defaults(fn=_cmd_suite)

    p_cat = sub.add_parser("catalog", help="list built-in scenarios")
    p_cat.set_defaults(fn=_cmd_catalog)

    p_emit = sub.add_parser("emit", help="re-render a saved records file")
    p_emit.add_argument("records", help="path to a *.records.json file")
    p_emit.add_argument("--format", choices=_FORMATS, default="table")
    p_emit.set_defaults(fn=_cmd_emit)

    p_diff = sub.add_parser("diff", help="compare two saved records files")
    p_diff.add_argument("old", help="path to the earlier *.records.json file")
    p_diff.add_argument("new", help="path to the later *.records.json file")
    p_diff.set_defaults(fn=_cmd_diff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0  # downstream consumer closed the pipe; not our error
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
