"""Run one workload of the fibreqm benchmark and print its metrics.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: fibreqm is imported from the
checkout's src/ directory, never from an installed copy.  `--trace 0` prints
the end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
status is 0 only if every scenario run of every pass passed the gate.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

# One BLAS thread, which is at most nproc on any machine.  Fixing the count
# keeps runs independent of the library default, which follows the core count.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_runtime(numpy_module) -> dict:
    """Version string and thread count reported by numpy's bundled OpenBLAS."""
    libs = Path(numpy_module.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(glob.glob(str(libs / "libscipy_openblas*.so*")))
    if not found:
        return {}
    lib = ctypes.CDLL(found[0])
    out = {}
    for key, symbol, restype in (("config", "scipy_openblas_get_config64_", ctypes.c_char_p),
                                 ("threads", "scipy_openblas_get_num_threads64_", ctypes.c_int)):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            value = fn()
            out[key] = value.decode() if isinstance(value, bytes) else value
    return out


def machine_facts(numpy_module) -> dict:
    blas = numpy_module.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    runtime = _openblas_runtime(numpy_module)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_module.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_runtime": runtime.get("config", "unknown"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_reported": runtime.get("threads", "unknown"),
        "unmeasured": "cold file cache, pinned CPUs, turbo and frequency settings "
                      "(each needs a machine setting changed)",
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "wide-gauge", "long-grid"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fibreqm" / "__init__.py").is_file():
        print(f"error: no fibreqm sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # The thread count is read when the BLAS library loads, so it is set
    # before numpy is first imported.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy
    import harness

    print(f"fibreqm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {harness.WORKLOADS[args.workload]}")
    print("machine: " + json.dumps(machine_facts(numpy), sort_keys=True))

    raws = harness.workload_raws(args.workload, args.seed)
    if args.trace:
        result = harness.measure_traced(raws, args.seconds)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "fields": ["label", "start_s", "end_s", "parent"], "spans": result.spans}))
        result.notes.append("spans of the last traced pass written to "
                            f"{spans_path.relative_to(ROOT)}")
    else:
        result = harness.measure(raws, args.seconds)

    for name, (value, unit) in result.metrics.items():
        print(f"  {name:40s} {value!r:>24} {unit}")
    for note in result.notes:
        print(f"  note: {note}")
    for reason in result.gate.reasons:
        print(f"  FAIL {reason}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.gate.attempted,
        "failed": result.gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
