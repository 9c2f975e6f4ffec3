import time
from pathlib import Path

import pytest
from hypothesis import settings

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
