"""Declarative scenario configs: parsing, validation, and catalog access.

Configs are JSON; complex matrices and vectors are nested arrays of
[re, im] pairs.  A resolved config carries ready-to-run families plus an
echo dict (defaults filled, seed fixed) that reports embed verbatim.
"""

from __future__ import annotations

import copy
import difflib
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path as FsPath
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .bundle import (
    TrivializationFamily,
    constant_trivialization,
    diagonal_phase_trivialization,
    global_phase_trivialization,
    identity_trivialization,
    random_smooth_unitary_trivialization,
)
from .dynamics import HamiltonianFamily, ObservableFamily, uniform_grid, validate_density
from .hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, PhysicalConstants, is_hermitian, max_abs
from .paths import BaseSpace, Euclidean, Interval, Path, SinglePoint, make_path

__all__ = [
    "ALL_CHECKS",
    "ConfigError",
    "IntegralCandidate",
    "ScenarioConfig",
    "catalog_names",
    "default_tolerances",
    "load_catalog_scenario",
    "load_scenario",
    "scenario_from_dict",
]


class ConfigError(ValueError):
    """A scenario config failed to parse or validate; names the field."""


_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def default_tolerances(eq_tol: float = 1e-6, prop_tol: float = 1e-8) -> Dict[str, float]:
    """Per-check tolerances; eq_tol and prop_tol are the two headline knobs.

    The keys are every check id, in execution order.
    """
    return {
        "state_equivalence": eq_tol,
        "norm_drift": prop_tol,
        "transport_identity": 1e-12,
        "transport_composition": 1e-10,
        "mean_value_invariance": 1e-10,
        "hermiticity_correspondence": 1e-10,
        "unitary_bundle_map": prop_tol,
        "picture_invariance": prop_tol,
        "heisenberg_constancy": prop_tol,
        "density_consistency": prop_tol,
        "density_purity": 1e-10,
        "fibre_trace_preservation": 1e-10,
        "module_dualities": 1e-13,
        "integrals_of_motion": 1e-6,
        "physics_closed_form": eq_tol,
    }


# Check ids in execution order; defaults depend on scenario content.
ALL_CHECKS = tuple(default_tolerances())


@dataclass(frozen=True)
class IntegralCandidate:
    family: ObservableFamily  # named by the family
    expected: bool


@dataclass
class ScenarioConfig:
    """Fully resolved scenario, ready to run."""

    name: str
    dimension: int
    constants: PhysicalConstants
    times: np.ndarray
    hamiltonian: HamiltonianFamily
    trivialization: TrivializationFamily
    observables: List[ObservableFamily]  # each named by its family
    initial_state: np.ndarray
    initial_density: np.ndarray  # derived from the initial state when the config gives none
    integral_candidates: List[IntegralCandidate]
    rabi_omega: Optional[float]  # omega of the rabi-flip physics check; None without one
    checks: List[str]
    tolerances: Dict[str, float]
    seed: int
    faults: FrozenSet[str]  # the faults that are on
    echo: dict = field(default_factory=dict)


# --- JSON plumbing ---------------------------------------------------------

def _is_number(x) -> bool:
    """A JSON number within float range (so not NaN or infinite); booleans are not numbers."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _real(obj, where: str) -> float:
    if not _is_number(obj):
        raise ConfigError(f"{where}: need a finite number, got {obj!r}")
    return float(obj)


def _complex_entry(obj, where: str) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_number, obj))):
        raise ConfigError(
            f"{where}: complex entries must be [re, im] pairs of finite numbers, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def _real_vector(obj, n: int, where: str) -> np.ndarray:
    _require(isinstance(obj, list) and len(obj) == n, f"{where}: need a list of {n} numbers")
    return np.array([_real(x, f"{where}[{i}]") for i, x in enumerate(obj)])


def parse_complex_vector(obj, n: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(f"{where}: expected a list of {n} [re, im] pairs")
    return np.array([_complex_entry(e, where) for e in obj], dtype=complex)


def parse_complex_matrix(obj, n: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(f"{where}: expected an {n}x{n} matrix of [re, im] pairs")
    return np.stack([parse_complex_vector(row, n, f"{where}[{i}]") for i, row in enumerate(obj)])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


class _ReadKeys(dict):
    """A section's spec that records the keys its builder reads; a nested object does too."""

    __slots__ = ("read", "nested")

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.read = set()
        self.nested: Dict[str, _ReadKeys] = {}

    def get(self, key, default=None):
        self.read.add(key)
        value = dict.get(self, key, default)
        if isinstance(value, dict):
            value = self.nested[key] = _ReadKeys(value)
        return value

    def near_misses(self) -> List[str]:
        """Unread keys close to a key the builder asked for and did not find."""
        unread = list(self.keys() - self.read)
        return sorted({near for key in self.read - self.keys()
                       for near in difflib.get_close_matches(key, unread)})

    def reject_unread(self, where: str) -> None:
        unknown = self.keys() - self.read
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        for key, value in self.nested.items():
            value.reject_unread(f"{where}.{key}")


def _build(where: str, builder: Callable, spec, *args):
    """Run one section's builder; its ValueError or TypeError becomes a ConfigError.

    The message is prefixed with the section's field, so every error a config
    can cause names where it is.  A key the builder does not read, here or in
    a nested object, is unknown, so a misspelled key never falls back to its
    default; if the builder fails for want of a key the section holds a near
    miss of, the error names the near miss first.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: need an object, got {spec!r}")
    spec = _ReadKeys(spec)
    try:
        built = builder(spec, *args)
    except (ValueError, TypeError) as exc:
        message = str(exc) if isinstance(exc, ConfigError) else f"{where}: {exc}"
        near = spec.near_misses()
        if near:
            message = f"{where}: unknown keys {near} ({message})"
        raise ConfigError(message) from exc
    spec.reject_unread(where)
    return built


def _tolerance(value, where: str) -> float:
    tol = _real(value, where)
    _require(tol >= 0, f"{where}: need a number >= 0, got {tol!r}")
    return tol


# --- builders ---------------------------------------------------------------

def _build_grid(spec: dict) -> Tuple[float, float, int]:
    t0 = _real(spec.get("t0", 0.0), "grid.t0")
    t1 = _real(spec.get("t1", 1.0), "grid.t1")
    steps = spec.get("steps")
    _require(_is_int(steps) and steps >= 2, "grid.steps: need an integer >= 2")
    _require(t0 < t1, "grid: need t0 < t1")
    return t0, t1, steps


def _build_base(spec: dict) -> BaseSpace:
    variant = spec.get("variant")
    if variant == "euclidean":
        dim = spec.get("dim", 3)
        _require(_is_int(dim) and dim >= 1, "base_space.dim: need an integer >= 1")
        return Euclidean(dim)
    if variant == "interval":
        bounds = spec.get("bounds")
        _require(isinstance(bounds, list) and len(bounds) == 2,
                 "base_space.bounds: need [lower, upper]")
        return Interval(_real(bounds[0], "base_space.bounds[0]"),
                        _real(bounds[1], "base_space.bounds[1]"))
    if variant == "single-point":
        return SinglePoint()
    raise ConfigError(f"base_space.variant: unknown variant {variant!r}")


def _build_path(spec: dict, base: BaseSpace, t0: float, t1: float, samples: int) -> Path:
    kind = spec.get("kind")
    forbid = spec.get("forbid_self_intersections", False)
    _require(isinstance(forbid, bool),
             f"path.forbid_self_intersections: need a bool, got {forbid!r}")
    if kind == "constant":
        _require(isinstance(base, SinglePoint), "path.constant requires a single-point base")
        return make_path(base, (t0, t1), None, samples)
    if kind == "identity":
        _require(isinstance(base, Interval), "path.identity requires an interval base")
        return make_path(base, (t0, t1), lambda ts: ts, samples,
                         forbid_self_intersections=forbid)
    if kind == "line":
        _require(isinstance(base, Euclidean), "path.line requires a Euclidean base")
        d = base.dim
        origin = _real_vector(spec.get("origin", [0.0] * d), d, "path.origin")
        velocity = _real_vector(spec.get("velocity", [1.0] + [0.0] * (d - 1)), d,
                                "path.velocity")
        return make_path(base, (t0, t1), lambda ts: origin + ts[:, None] * velocity, samples,
                         forbid_self_intersections=forbid)
    if kind == "circle":
        _require(isinstance(base, Euclidean) and base.dim >= 2,
                 "path.circle requires a Euclidean base of dim >= 2")
        radius = _real(spec.get("radius", 1.0), "path.radius")
        turns = _real(spec.get("turns", 1.0), "path.turns")
        d = base.dim
        rate = 2.0 * np.pi * turns / (t1 - t0)

        def points(ts: np.ndarray) -> np.ndarray:
            angle = rate * (ts - t0)
            p = np.zeros((ts.size, d))
            p[:, 0] = radius * np.cos(angle)
            p[:, 1] = radius * np.sin(angle)
            return p

        return make_path(base, (t0, t1), points, samples, forbid_self_intersections=forbid)
    raise ConfigError(f"path.kind: unknown kind {kind!r}")


def _random_hermitian(n: int, seed_key: Sequence[int], scale: float) -> np.ndarray:
    rng = np.random.default_rng(list(seed_key))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T) / (2.0 * max(1.0, np.sqrt(n)))


def _build_hamiltonian(spec: dict, n: int, seed: int) -> HamiltonianFamily:
    kind = spec.get("kind")
    if kind == "zero":
        return HamiltonianFamily.zero(n)
    if kind == "constant":
        m = parse_complex_matrix(spec.get("matrix"), n, "hamiltonian.matrix")
        return HamiltonianFamily.constant(m, name="constant")
    if kind == "pauli":
        _require(n == 2, "hamiltonian.pauli requires dimension 2")
        coeffs = spec.get("coefficients", {})
        _require(isinstance(coeffs, dict), "hamiltonian.coefficients: need an object")
        m = np.zeros((2, 2), dtype=complex)
        for axis, mat in (*_PAULI.items(), ("i", np.eye(2))):
            m = m + _real(coeffs.get(axis, 0.0), f"hamiltonian.coefficients.{axis}") * mat
        return HamiltonianFamily.constant(m, name="pauli")
    if kind == "random-hermitian":
        scale = _real(spec.get("scale", 1.0), "hamiltonian.scale")
        m = _random_hermitian(n, [seed, 0x48], scale)
        return HamiltonianFamily.constant(m, name="random-hermitian")
    if kind == "circular-drive":
        _require(n == 2, "hamiltonian.circular-drive requires dimension 2")
        omega0 = _real(spec.get("level_splitting", np.pi), "hamiltonian.level_splitting")
        rabi = _real(spec.get("rabi_frequency", np.pi), "hamiltonian.rabi_frequency")

        def sample(ts: np.ndarray) -> np.ndarray:
            phase = (omega0 * ts)[:, None, None]
            return (omega0 / 2.0) * SIGMA_Z + (rabi / 2.0) * (
                np.cos(phase) * SIGMA_X + np.sin(phase) * SIGMA_Y)

        return HamiltonianFamily(sample, 2, True, "circular-drive")
    if kind == "cosine-drive":
        static_spec = spec.get("static")
        drive_spec = spec.get("drive")
        _require(static_spec is not None and drive_spec is not None,
                 "hamiltonian.cosine-drive needs 'static' and 'drive' matrices")
        h0 = parse_complex_matrix(static_spec, n, "hamiltonian.static")
        v = parse_complex_matrix(drive_spec, n, "hamiltonian.drive")
        omega = _real(spec.get("omega", 1.0), "hamiltonian.omega")
        hermitian = bool(is_hermitian(h0, 1e-12) and is_hermitian(v, 1e-12))
        return HamiltonianFamily(lambda ts: h0 + np.cos(omega * ts)[:, None, None] * v, n,
                                 hermitian, "cosine-drive")
    if kind == "non-hermitian":
        m = parse_complex_matrix(spec.get("matrix"), n, "hamiltonian.matrix")
        return HamiltonianFamily.constant(m, hermitian_expected=False, name="non-hermitian")
    raise ConfigError(f"hamiltonian.kind: unknown kind {kind!r}")


def _build_trivialization(spec: dict, n: int, seed: int) -> TrivializationFamily:
    kind = spec.get("kind")
    if kind == "identity":
        return identity_trivialization(n)
    if kind == "global-phase":
        return global_phase_trivialization(
            n, _real(spec.get("omega", 2.0 * np.pi), "trivialization.omega"))
    if kind == "diagonal-phase":
        omegas = spec.get("omegas")
        _require(isinstance(omegas, list) and len(omegas) == n,
                 f"trivialization.omegas: need {n} frequencies")
        return diagonal_phase_trivialization(
            [_real(w, f"trivialization.omegas[{i}]") for i, w in enumerate(omegas)])
    if kind == "constant-diagonal":
        entries = _real_vector(spec.get("entries"), n, "trivialization.entries")
        return constant_trivialization(np.diag(entries).astype(complex), name="constant-diagonal")
    if kind == "constant":
        m = parse_complex_matrix(spec.get("matrix"), n, "trivialization.matrix")
        return constant_trivialization(m)
    if kind == "random-smooth-unitary":
        scale = _real(spec.get("scale", 0.6), "trivialization.scale")
        frequency = _real(spec.get("frequency", 2.5), "trivialization.frequency")
        return random_smooth_unitary_trivialization(n, seed, scale, frequency)
    raise ConfigError(f"trivialization.kind: unknown kind {kind!r}")


def _build_observable(spec: dict, n: int, seed: int, index: int) -> ObservableFamily:
    """Resolve an observable spec to a family named by the spec.

    A constant observable broadcasts one matrix over any batch of times; the
    optional "modulation" key, {"omega": w, "offset": c}, makes the
    observable (c + cos(w t)) * base, with the exact derivative
    (-w sin(w t)) * base.
    """
    kind = spec.get("kind")
    name = spec.get("name", f"obs{index}")
    _require(isinstance(name, str), f"observables[{index}].name: need a string, got {name!r}")
    if kind == "pauli":
        _require(n == 2, f"observables[{index}].pauli requires dimension 2")
        axis = spec.get("axis")
        _require(axis in _PAULI, f"observables[{index}].axis: unknown axis {axis!r}")
        base = _PAULI[axis]
    elif kind == "matrix":
        base = parse_complex_matrix(spec.get("matrix"), n, f"observables[{index}].matrix")
    elif kind == "diagonal":
        entries = _real_vector(spec.get("entries"), n, f"observables[{index}].entries")
        base = np.diag(entries).astype(complex)
    elif kind == "random-hermitian":
        scale = _real(spec.get("scale", 1.0), f"observables[{index}].scale")
        base = _random_hermitian(n, [seed, 0xA0, index], scale)
    else:
        raise ConfigError(f"observables[{index}].kind: unknown kind {kind!r}")

    modulation = spec.get("modulation")
    if modulation is None:
        return ObservableFamily.constant(base, name=name)
    _require(isinstance(modulation, dict), f"observables[{index}].modulation: need an object")
    omega = _real(modulation.get("omega", 1.0), f"observables[{index}].modulation.omega")
    offset = _real(modulation.get("offset", 0.0), f"observables[{index}].modulation.offset")
    return ObservableFamily(lambda ts: ((offset + np.cos(omega * ts))[:, None, None] * base,
                                        (-omega * np.sin(omega * ts))[:, None, None] * base),
                            n, name=name)


def _build_candidate(spec: dict, n: int, index: int,
                     hamiltonian: HamiltonianFamily, t0: float) -> IntegralCandidate:
    kind = spec.get("kind")
    expected = spec.get("expected")
    _require(isinstance(expected, bool), f"integral_candidates[{index}].expected: need a bool")
    if kind == "hamiltonian":
        return IntegralCandidate(
            ObservableFamily.constant(hamiltonian.at(t0), name="hamiltonian"), expected)
    if kind == "pauli":
        _require(n == 2, f"integral_candidates[{index}].pauli requires dimension 2")
        axis = spec.get("axis")
        _require(axis in _PAULI, f"integral_candidates[{index}].axis: unknown axis {axis!r}")
        return IntegralCandidate(
            ObservableFamily.constant(_PAULI[axis], name=f"sigma_{axis}"), expected)
    if kind == "matrix":
        m = parse_complex_matrix(spec.get("matrix"), n, f"integral_candidates[{index}].matrix")
        name = spec.get("name", f"candidate{index}")
        _require(isinstance(name, str),
                 f"integral_candidates[{index}].name: need a string, got {name!r}")
        return IntegralCandidate(ObservableFamily.constant(m, name=name), expected)
    raise ConfigError(f"integral_candidates[{index}].kind: unknown kind {kind!r}")


def _build_physics_check(spec: dict, n: int) -> float:
    _require(spec.get("kind") == "rabi-flip", "physics_check.kind: only 'rabi-flip' is supported")
    _require(n == 2, "physics_check.rabi-flip requires dimension 2")
    return _real(spec.get("omega", np.pi), "physics_check.omega")


# --- resolution --------------------------------------------------------------

def _default_path_spec(base: BaseSpace) -> dict:
    return {"kind": {SinglePoint: "constant", Interval: "identity"}.get(type(base), "line")}


def _default_observable_specs(n: int) -> list:
    if n == 2:
        return [{"kind": "pauli", "axis": "z", "name": "sigma_z"},
                {"kind": "pauli", "axis": "x", "name": "sigma_x"}]
    return [{"kind": "diagonal", "entries": list(range(n, 0, -1)), "name": "ladder"},
            {"kind": "random-hermitian", "name": "random_obs"}]


# Every top-level config key and its default, in echo order (README.md's table is
# tested against it).  A function default is computed, and only for an absent key;
# an absent _REQUIRED key resolves to None, which its own check rejects.
_REQUIRED = object()
_CONFIG_KEYS = {
    "name": _REQUIRED,
    "description": "",
    "dimension": _REQUIRED,
    "hbar": 1.0,
    "base_space": {"variant": "euclidean", "dim": 3},
    "path": _default_path_spec,
    "grid": _REQUIRED,
    "hamiltonian": {"kind": "zero"},
    "trivialization": {"kind": "identity"},
    "observables": _default_observable_specs,
    "initial_state": None,  # the first basis vector
    "initial_density": None,  # the pure density of initial_state
    "integral_candidates": [],
    "physics_check": None,
    "checks": None,  # chosen from the scenario's content
    "tolerances": {},
    "seed": 0,
    "faults": {},
}

# Every fault a config can switch on, each off unless its flag is true.
FAULTS = ("drop_trivialization_derivative",)


def _build_tolerances(spec: dict) -> Tuple[dict, Dict[str, float]]:
    """(echo, tolerance of each check): eq_tol and prop_tol set defaults a check id overrides."""
    echo = dict(spec, eq_tol=_tolerance(spec.get("eq_tol", 1e-6), "tolerances.eq_tol"),
                prop_tol=_tolerance(spec.get("prop_tol", 1e-8), "tolerances.prop_tol"))
    tolerances = default_tolerances(echo["eq_tol"], echo["prop_tol"])
    for key in spec:
        if key in tolerances:
            tolerances[key] = _tolerance(spec.get(key), f"tolerances.{key}")
    return echo, tolerances


def _build_faults(spec: dict) -> FrozenSet[str]:
    flags = {name: spec.get(name, False) for name in FAULTS}
    for name, on in flags.items():
        _require(isinstance(on, bool), f"faults.{name}: need a bool, got {on!r}")
    return frozenset(name for name, on in flags.items() if on)


def scenario_from_dict(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    """Validate and resolve a raw config dict into a runnable scenario.

    The echo is the config with every default filled in: the computed path,
    observables and checks, and hbar, grid and tolerances as resolved.
    """
    _require(isinstance(raw, dict), f"{source}: config must be a JSON object")
    unknown = raw.keys() - _CONFIG_KEYS.keys()
    _require(not unknown, f"{source}: unknown config keys {sorted(unknown)}")
    # An absent key takes a copy of its default (each is flat, so a shallow copy is
    # whole) and no two configs share one; a required or computed key starts as None.
    echo = {key: raw[key] if key in raw else
            None if default is _REQUIRED or callable(default) else copy.copy(default)
            for key, default in _CONFIG_KEYS.items()}

    name = echo["name"]
    _require(isinstance(name, str) and name, "name: required non-empty string")
    description = echo["description"]
    _require(isinstance(description, str), f"description: need a string, got {description!r}")
    n = echo["dimension"]
    _require(_is_int(n) and n >= 1, "dimension: need an integer >= 1")
    hbar = echo["hbar"] = _real(echo["hbar"], "hbar")
    _require(hbar > 0, f"hbar: need a positive number, got {hbar!r}")
    seed = echo["seed"]
    _require(_is_int(seed) and seed >= 0, f"seed: need an integer >= 0, got {seed!r}")

    t0, t1, steps = _build("grid", _build_grid, echo["grid"])
    echo["grid"] = {"t0": t0, "t1": t1, "steps": steps}
    times = uniform_grid(t0, t1, steps)

    base = _build("base_space", _build_base, echo["base_space"])
    if "path" not in raw:
        echo["path"] = _CONFIG_KEYS["path"](base)
    # The run never reads the path: it is built to be validated, and the echo keeps its spec.
    _build("path", _build_path, echo["path"], base, t0, t1, steps + 1)

    hamiltonian = _build("hamiltonian", _build_hamiltonian, echo["hamiltonian"], n, seed)
    trivialization = _build("trivialization", _build_trivialization, echo["trivialization"],
                            n, seed)

    if "observables" not in raw:
        echo["observables"] = _CONFIG_KEYS["observables"](n)
    obs_specs = echo["observables"]
    _require(isinstance(obs_specs, list) and obs_specs, "observables: must be a non-empty list")
    observables = [_build(f"observables[{i}]", _build_observable, spec, n, seed, i)
                   for i, spec in enumerate(obs_specs)]
    names = [family.name for family in observables]
    _require(len(set(names)) == len(names), "observables: names must be unique")

    if echo["initial_state"] is None:
        initial_state = np.zeros(n, dtype=complex)
        initial_state[0] = 1.0
    else:
        initial_state = parse_complex_vector(echo["initial_state"], n, "initial_state")
        _require(bool(np.vdot(initial_state, initial_state).real > 0),
                 "initial_state: must be nonzero")

    if echo["initial_density"] is None:
        initial_density = (np.outer(initial_state, initial_state.conj())
                           / np.vdot(initial_state, initial_state).real)
    else:
        initial_density = parse_complex_matrix(echo["initial_density"], n, "initial_density")
        try:
            validate_density(initial_density)
        except ValueError as exc:
            raise ConfigError(f"initial_density: {exc}") from exc

    candidate_specs = echo["integral_candidates"]
    _require(isinstance(candidate_specs, list), "integral_candidates: must be a list")
    candidates = [_build(f"integral_candidates[{i}]", _build_candidate, c, n, i, hamiltonian, t0)
                  for i, c in enumerate(candidate_specs)]

    rabi_omega = (None if echo["physics_check"] is None
                  else _build("physics_check", _build_physics_check, echo["physics_check"], n))
    echo["tolerances"], tolerances = _build("tolerances", _build_tolerances, echo["tolerances"])
    faults = _build("faults", _build_faults, echo["faults"])

    checks = echo["checks"]
    if checks is None:
        pure = echo["initial_density"] is None or bool(
            max_abs(initial_density @ initial_density - initial_density) <= 1e-10)
        checks = _default_checks(hamiltonian.hermitian_expected, pure, bool(candidates),
                                 rabi_omega is not None)
    else:
        _require(isinstance(checks, list) and checks, "checks: must be a non-empty list")
        for c in checks:
            _require(c in ALL_CHECKS, f"checks: unknown check id {c!r}")
        repeated = sorted({c for c in checks if checks.count(c) > 1})
        _require(not repeated, f"checks: duplicate check ids {repeated}")
        _require("integrals_of_motion" not in checks or candidates,
                 "checks: integrals_of_motion needs integral_candidates")
        _require("physics_closed_form" not in checks or rabi_omega is not None,
                 "checks: physics_closed_form needs physics_check")
    echo["checks"] = list(checks)

    return ScenarioConfig(
        name=name, dimension=n, constants=PhysicalConstants(hbar), times=times,
        hamiltonian=hamiltonian, trivialization=trivialization, observables=observables,
        initial_state=initial_state, initial_density=initial_density,
        integral_candidates=candidates, rabi_omega=rabi_omega, checks=list(checks),
        tolerances=tolerances, seed=seed, faults=faults, echo=echo)


def _default_checks(hermitian: bool, pure_density: bool, candidates: bool,
                    physics: bool) -> List[str]:
    """Each check the scenario has inputs for, in execution order; module_dualities by request."""
    only_if = {"norm_drift": hermitian, "unitary_bundle_map": hermitian,
               "picture_invariance": hermitian, "heisenberg_constancy": hermitian,
               "density_purity": pure_density, "module_dualities": False,
               "integrals_of_motion": candidates, "physics_closed_form": physics}
    return [check for check in ALL_CHECKS if only_if.get(check, True)]


def _read_json(path: FsPath):
    """The JSON value in a UTF-8 file; any failure to read it is a ConfigError naming it."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_scenario(path) -> ScenarioConfig:
    """Load and resolve a scenario config file."""
    fs_path = FsPath(path)
    return scenario_from_dict(_read_json(fs_path), str(fs_path))


# --- built-in catalog --------------------------------------------------------

def _catalog_raws() -> List[Tuple[str, dict]]:
    """(manifest entry, raw config) of every built-in scenario, manifest order."""
    root = resources.files("fibreqm") / "catalog"
    manifest = json.loads((root / "manifest.json").read_text())
    return [(entry, json.loads((root / entry).read_text())) for entry in manifest["scenarios"]]


def catalog_names() -> List[Tuple[str, str]]:
    """(name, description) pairs of the built-in scenarios, manifest order."""
    return [(raw["name"], raw.get("description", _CONFIG_KEYS["description"]))
            for _, raw in _catalog_raws()]


def load_catalog_scenario(name: str) -> ScenarioConfig:
    """Load a built-in scenario by its config name."""
    for entry, raw in _catalog_raws():
        if raw.get("name") == name:
            return scenario_from_dict(raw, f"catalog:{entry}")
    raise ConfigError(f"unknown catalog scenario {name!r}")


def load_catalog() -> List[ScenarioConfig]:
    """All built-in scenarios in manifest order."""
    return [scenario_from_dict(raw, f"catalog:{entry}") for entry, raw in _catalog_raws()]
