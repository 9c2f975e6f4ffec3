"""The benchmark's tracer and metric names still match the package and BENCHMARK.json.

The traced benchmark run (`bench/run.py --trace 1`) raises LookupError when
an entry point it wraps is renamed or removed, and its per-layer metrics are
named after the check ids and traced counts; these tests make a rename in
`src/` a tier-1 failure too, without running a benchmark.  The bench modules
are imported read-only and every binding the tracer patches is restored on
exit.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_finds_every_entry_point():
    with bench_module("tracer").Tracer().wrapped():
        pass


def test_metric_names_and_units_match_the_benchmark_declaration():
    harness = bench_module("harness")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert harness.layer_metric_units() == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert harness.END_TO_END_UNITS == {m["name"]: m["unit"] for m in declared["end_to_end"]}
