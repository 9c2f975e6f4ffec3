"""The timing-free records of every catalog scenario are pinned by sha256.

The catalog digests read the session's shared catalog run, so they add no
scenario run.  Every catalog stack but one is one time block, so two more
scenarios are pinned beside them: one of four blocks and one of ten, named for
the two and five `_BLOCK_BYTES` their stacks span, so that byte-identity holds
across many block boundaries, and at any number of threads running the blocks.  A change that moves a record on
purpose regenerates `record_digests.json`; one that moves it by accident fails
here.  The digests depend on the numpy and BLAS builds too, so a failure names
both, beside the builds the file was made with.
"""

import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import fibreqm.hilbert as hilbert_module
from fibreqm.checks import run_scenario
from fibreqm.scenario import scenario_from_dict

DIGESTS = Path(__file__).resolve().parent / "record_digests.json"
# the `two_block_gauge` fixture's record, at its shipped seed
TWO_BLOCK_SHA256 = "b83d6319122d016a2d672306f2f2290cc4b18ed86dd32f51d57f5f8047ade605"
TWO_BLOCK_BUILDS = "numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0"
# the `five_block_gauge` fixture's record, at its shipped seed: ten time blocks
FIVE_BLOCK_SHA256 = "0404cca0fd798060a3519ca0997aaa59cbcdd77765a1274b699d7c4b8b184362"


def _timing_free_sha256(report) -> str:
    blob = json.dumps(report.to_dict(include_timing=False), sort_keys=True, indent=1) + "\n"
    return hashlib.sha256(blob.encode()).hexdigest()


def _blas() -> str:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def test_catalog_records_match_their_pinned_digests(catalog_suite):
    suite, _ = catalog_suite
    pinned = json.loads(DIGESTS.read_text())
    actual = {rep.scenario: _timing_free_sha256(rep) for rep in suite.reports}
    assert sorted(actual) == sorted(pinned["digests"]), "the catalog's scenarios changed"
    moved = sorted(name for name, digest in actual.items() if digest != pinned["digests"][name])
    assert not moved, (
        f"timing-free records moved for {moved}; here numpy {np.__version__}, BLAS {_blas()}; "
        f"pinned with numpy {pinned['numpy']}, BLAS {pinned['blas']}")


def test_a_two_block_record_matches_its_pinned_digest(two_block_gauge):
    digest = _timing_free_sha256(run_scenario(two_block_gauge))
    assert digest == TWO_BLOCK_SHA256, (
        f"the two-block record moved; here numpy {np.__version__}, BLAS {_blas()}; "
        f"pinned with {TWO_BLOCK_BUILDS}")


def test_a_five_block_record_matches_its_pinned_digest(five_block_gauge):
    report = run_scenario(five_block_gauge)
    assert report.overall_pass
    digest = _timing_free_sha256(report)
    assert digest == FIVE_BLOCK_SHA256, (
        f"the five-block record moved; here numpy {np.__version__}, BLAS {_blas()}; "
        f"pinned with {TWO_BLOCK_BUILDS}")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_pinned_records_do_not_depend_on_the_worker_count(monkeypatch, two_block_gauge,
                                                              five_block_gauge, workers):
    # the sweep's time blocks run on `workers` threads and fold in block order; a
    # short switch interval interleaves the threads often, so a block output lost
    # or misplaced would move a record
    monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert _timing_free_sha256(run_scenario(two_block_gauge)) == TWO_BLOCK_SHA256
        assert _timing_free_sha256(run_scenario(five_block_gauge)) == FIVE_BLOCK_SHA256
    finally:
        sys.setswitchinterval(interval)


def test_the_wide_gauge_record_does_not_depend_on_the_worker_count(monkeypatch):
    # random-unitary-gauge at n = 32 and N = 1000, the benchmark's wide-gauge size: 32 blocks
    root = resources.files("fibreqm") / "catalog"
    raw = json.loads((root / "random-unitary-gauge.json").read_text())
    raw["dimension"], raw["grid"]["steps"] = 32, 1000
    cfg = scenario_from_dict(raw)
    digests = set()
    for workers in (1, 2, 3):
        monkeypatch.setattr(hilbert_module, "_WORKERS", workers)
        report = run_scenario(cfg)
        assert report.overall_pass
        digests.add(_timing_free_sha256(report))
    assert len(digests) == 1
