"""The timing-free records of every catalog scenario are pinned by sha256.

Reads the session's shared catalog run, so it adds no scenario run.  A change
that moves a record on purpose regenerates `record_digests.json`; one that
moves it by accident fails here.  The digests depend on the numpy and BLAS
builds too, so a failure names both, beside the builds the file was made with.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).resolve().parent / "record_digests.json"


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
