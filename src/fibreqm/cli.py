"""Command-line interface: run scenarios, suites, list the catalog, emit reports.

Verbs:
    run <config>        run one scenario (a file path or a catalog name)
    suite <target>      run a manifest, a directory of configs, or 'catalog'
    catalog             list the built-in scenarios
    emit <records.json> re-render a saved structured report

Exit status is 0 iff the aggregate verdict is pass (2 for usage/config
errors), so suites slot into CI directly.  FIBREQM_OUTPUT_DIR sets the
default output directory for written report files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path as FsPath

from .checks import run_scenario
from .report import emit, report_from_dict, suite_from_dict
from .scenario import ConfigError, _read_json, catalog_names, load_catalog_scenario, load_scenario
from .suite import run_suite

_FORMATS = ("table", "records", "timeseries")


def _output_dir(args) -> FsPath | None:
    if args.output is not None:
        return FsPath(args.output)
    env = os.environ.get("FIBREQM_OUTPUT_DIR")
    return FsPath(env) if env else None


def _write_records(report, out_dir: FsPath, stem: str) -> FsPath:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"{stem}.records.json"
    target.write_bytes(emit(report, "records"))
    return target


def _cmd_run(args) -> int:
    path = FsPath(args.config)
    if path.exists():
        cfg = load_scenario(path)
    else:
        cfg = load_catalog_scenario(args.config)
    report = run_scenario(cfg)
    sys.stdout.write(emit(report, args.format).decode())
    out_dir = _output_dir(args)
    if out_dir is not None:
        written = _write_records(report, out_dir, report.scenario)
        print(f"records written to {written}", file=sys.stderr)
    return 0 if report.overall_pass else 1


def _cmd_suite(args) -> int:
    report = run_suite(args.target)
    sys.stdout.write(emit(report, args.format).decode())
    out_dir = _output_dir(args)
    if out_dir is not None:
        written = _write_records(report, out_dir, "suite")
        print(f"records written to {written}", file=sys.stderr)
    return 0 if report.overall_pass else 1


def _cmd_catalog(_args) -> int:
    for name, description in catalog_names():
        print(f"{name:32s} {description}")
    return 0


def _read_report(path: FsPath):
    """The report saved in a records file; any other content is a ConfigError naming it."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a records file must hold a JSON object")
    try:
        return suite_from_dict(raw) if raw.get("kind") == "suite-report" else report_from_dict(raw)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a report records file ({exc!r})") from exc


def _cmd_emit(args) -> int:
    report = _read_report(FsPath(args.records))
    sys.stdout.write(emit(report, args.format).decode())
    return 0 if report.overall_pass else 1


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
