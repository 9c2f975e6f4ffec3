import json
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings

from fibreqm.hilbert import time_blocks
from fibreqm.scenario import scenario_from_dict
from fibreqm.suite import run_suite

# Every property test draws the same examples on every run: each test's
# examples are seeded from the test itself, and no example database is kept.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

_ACCEPTANCE_RESULTS = []


@pytest.fixture(scope="session")
def catalog_suite():
    """One shared run of the built-in catalog suite, with its wall time."""
    started = time.perf_counter()
    report = run_suite("catalog")
    elapsed = time.perf_counter() - started
    return report, elapsed


def _scaled_gauge(dimension, steps, blocks):
    """random-unitary-gauge at its shipped seed, of `dimension` and `steps`, cut into time
    blocks of the sizes `blocks`."""
    root = resources.files("fibreqm") / "catalog"
    raw = json.loads((root / "random-unitary-gauge.json").read_text())
    raw["dimension"], raw["grid"]["steps"] = dimension, steps
    cfg = scenario_from_dict(raw)
    assert [part.stop - part.start for part in time_blocks(cfg.times.size, dimension)] == blocks
    return cfg


@pytest.fixture
def two_block_gauge():
    """random-unitary-gauge at n = 16 and N = 400, whose (N, n, n) stack spans two
    `_BLOCK_BYTES`: four time blocks, of 128 times but the last, of 17.  Every catalog
    stack but one is one block, so this is the runner's multi-block case."""
    return _scaled_gauge(16, 400, [128, 128, 128, 17])


@pytest.fixture
def five_block_gauge():
    """random-unitary-gauge at n = 32 and N = 300, whose (N, n, n) stack spans five
    `_BLOCK_BYTES`: ten time blocks, of 32 times but the last, of 13."""
    return _scaled_gauge(32, 300, [32] * 9 + [13])


@pytest.fixture(scope="session")
def acceptance():
    """Recorder for per-criterion pass/fail lines shown in the summary."""

    def record(number: int, name: str, passed: bool, detail: str = ""):
        _ACCEPTANCE_RESULTS.append((number, name, bool(passed), detail))
        assert passed, f"acceptance criterion {number} ({name}) failed: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    lines = []
    for number, name, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"[{verdict}] acceptance {number:2d}: {name}{suffix}")
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
    Path(__file__).resolve().parent.parent.joinpath("acceptance_report.txt").write_text(
        "\n".join(lines) + "\n")
