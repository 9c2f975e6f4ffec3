"""Spans and counts around the public entry points of each fibreqm module.

The tracer replaces every binding of an entry point with a wrapper that
records a span (label, start, end, parent span) and the entry point's counts.
Functions such as `matrix_exponential` or `grid_index` are imported by name
into several modules, so each module of the package that holds the same
function object gets the wrapper; methods are wrapped once, on their class.
`wrapped()` restores every binding on exit, so traced and untraced passes can
share one process.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

Count = Tuple[str, Callable[[tuple, dict], int]]


def _one(args: tuple, kwargs: dict) -> int:
    return 1


def _times_passed(args: tuple, kwargs: dict) -> int:
    times = args[1] if len(args) > 1 else kwargs["times"]
    return int(np.atleast_1d(np.asarray(times)).size)


def _expm_matrices(args: tuple, kwargs: dict) -> int:
    shape = np.shape(args[0] if args else kwargs["a"])
    return int(np.prod(shape[:-2], dtype=np.int64))


def _expm_bytes(args: tuple, kwargs: dict) -> int:
    # Computed from the input shape: one complex128 copy of the input stack.
    shape = np.shape(args[0] if args else kwargs["a"])
    return int(np.prod(shape, dtype=np.int64)) * 16


# (module, attribute or Class.attribute, span label, counts taken per call)
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[Count, ...]], ...] = (
    ("scenario", "scenario_from_dict", "scenario.resolve", ()),
    ("hilbert", "matrix_exponential", "hilbert.expm",
     (("hilbert.expm_calls", _one), ("hilbert.expm_matrices", _expm_matrices),
      ("hilbert.expm_bytes", _expm_bytes))),
    ("dynamics", "HamiltonianFamily.at", "dynamics.hamiltonian_sample",
     (("dynamics.hamiltonian_samples", _one),)),
    ("dynamics", "HamiltonianFamily.at_many", "dynamics.hamiltonian_sample", ()),
    ("dynamics", "PropagatorGrid.__init__", "dynamics.propagator_grid", ()),
    ("dynamics", "propagate_states", "dynamics.propagate_states", ()),
    ("dynamics", "grid_index", "dynamics.grid_index", (("dynamics.grid_index_calls", _one),)),
    ("bundle", "TrivializationFamily.at_many", "bundle.frame_sample",
     (("bundle.frame_samples", _times_passed),)),
    ("bundle", "TrivializationFamily.derivative_at_many", "bundle.frame_sample",
     (("bundle.frame_samples", _times_passed),)),
    ("bundle", "_require_invertible", "bundle.invertibility",
     (("bundle.invertibility_checks", _one),)),
    ("bundle", "TrivializationFamily.validate_on_grid", "bundle.validate", ()),
    ("bundle", "lift_trajectory", "bundle.lift", ()),
    ("bundle", "lift_operator_on_grid", "bundle.lift", ()),
    ("bundle", "lift_operator", "bundle.lift", ()),
    ("transport", "MatrixBundleHamiltonian.at_many", "transport.generator", ()),
    ("transport", "integrate_bundle_schrodinger", "transport.integrate", ()),
    ("transport", "EvolutionTransport.__init__", "transport.build", ()),
    ("transport", "EvolutionTransport.matrix_by_index", "transport.query",
     (("transport.two_time_queries", _one),)),
    ("transport", "EvolutionTransport.matrices_from", "transport.query",
     (("transport.stacked_queries", _one),)),
    ("transport", "EvolutionTransport.matrices_into", "transport.query",
     (("transport.stacked_queries", _one),)),
    ("transport", "check_transport_axioms", "transport.axioms",
     (("transport.axiom_reports", _one),)),
    ("pictures", "PictureTransform.identity", "pictures.picture_transform",
     (("pictures.picture_transforms", _one),)),
    ("pictures", "PictureTransform.from_transport", "pictures.picture_transform",
     (("pictures.picture_transforms", _one),)),
    ("pictures", "PictureTransform.random_unitary", "pictures.picture_transform",
     (("pictures.picture_transforms", _one),)),
    ("pictures", "is_integral_of_motion", "pictures.integral_of_motion", ()),
    ("checks", "build_artifacts", "checks.build", ()),
    ("report", "emit", "report.emit", ()),
    ("suite", "run_configs", "suite.run", ()),
)


def _check_ids() -> Sequence[str]:
    return importlib.import_module("fibreqm.scenario").ALL_CHECKS


def span_labels() -> List[str]:
    """Every span label the tracer can record, in a stable order."""
    labels = list(dict.fromkeys(label for _, _, label, _ in ENTRY_POINTS))
    return labels + [f"checks.{check_id}" for check_id in _check_ids()]


def count_names() -> List[str]:
    return list(dict.fromkeys(name for *_, counts in ENTRY_POINTS for name, _ in counts))


class Tracer:
    """In-memory spans and counts; `wrapped()` installs and restores wrappers."""

    def __init__(self):
        self.spans: List[list] = []  # [label, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: List[int] = []

    def clear(self) -> None:
        # In place: the installed wrappers hold references to these objects.
        del self.spans[:]
        self.counts.clear()

    def self_times(self) -> Dict[str, float]:
        """Seconds per label, each span minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for (label, start, end, _), child in zip(self.spans, covered):
            out[label] = out.get(label, 0.0) + (end - start) - child
        return out

    def _wrap(self, fn: Callable, label: str, counts: Sequence[Count]) -> Callable:
        spans, tally, open_spans = self.spans, self.counts, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for name, amount in counts:
                tally[name] += amount(args, kwargs)
            span = [label, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()

        return traced

    @contextmanager
    def wrapped(self) -> Iterator["Tracer"]:
        """Wrap every entry point while the block runs; restore all bindings after."""
        restore: List[Tuple[Callable[[object], None], object]] = []

        def patch(owner, key, value):
            if isinstance(owner, dict):
                restore.append((functools.partial(owner.__setitem__, key), owner[key]))
                owner[key] = value
            else:
                restore.append((functools.partial(setattr, owner, key), vars(owner)[key]))
                setattr(owner, key, value)

        modules = [m for name, m in list(sys.modules.items())
                   if name == "fibreqm" or name.startswith("fibreqm.")]
        try:
            for module_name, path, label, counts in ENTRY_POINTS:
                owner = importlib.import_module(f"fibreqm.{module_name}")
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = vars(owner).get(cls)
                if owner is None or attr not in vars(owner):
                    raise LookupError(f"entry point fibreqm.{module_name}.{path} not found")
                original = vars(owner)[attr]
                if isinstance(owner, type):
                    if isinstance(original, classmethod):
                        patch(owner, attr, classmethod(self._wrap(original.__func__, label, counts)))
                    else:
                        patch(owner, attr, self._wrap(original, label, counts))
                    continue
                wrapper = self._wrap(original, label, counts)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            patch(module, name, wrapper)

            table = importlib.import_module("fibreqm.checks").__dict__.get("_CHECK_TABLE")
            if table is None or set(table) != set(_check_ids()):
                raise LookupError("fibreqm.checks._CHECK_TABLE does not map every id in "
                                  "scenario.ALL_CHECKS")
            for check_id in _check_ids():
                patch(table, check_id, self._wrap(table[check_id], f"checks.{check_id}", ()))
            yield self
        finally:
            for setter, original in reversed(restore):
                setter(original)
