"""The timing-free records of every catalog scenario are pinned by sha256.

The catalog digests read the session's shared catalog run, so they add no
scenario run.  Every catalog stack is one time block (n <= 8), so one more
scenario, cut into two blocks, is pinned beside them.  A change
that moves a record on purpose regenerates `record_digests.json`; one that
moves it by accident fails here.  The digests depend on the numpy and BLAS
builds too, so a failure names both, beside the builds the file was made with.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from fibreqm.checks import run_scenario

DIGESTS = Path(__file__).resolve().parent / "record_digests.json"
# the `two_block_gauge` fixture's record, at its shipped seed
TWO_BLOCK_SHA256 = "b83d6319122d016a2d672306f2f2290cc4b18ed86dd32f51d57f5f8047ade605"
TWO_BLOCK_BUILDS = "numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0"


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
