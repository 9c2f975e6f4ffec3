"""Every entry point the benchmark tracer wraps still exists under its name.

The traced benchmark run (`bench/run.py --trace 1`) raises LookupError when
an entry point it wraps is renamed or removed; this test makes that a test
failure too.  The tracer is imported read-only and every binding it patches
is restored on exit.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_entry_point():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
        with tracer.Tracer().wrapped():
            pass
    finally:
        sys.path.remove(str(BENCH))
