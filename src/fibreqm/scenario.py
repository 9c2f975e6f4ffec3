"""Declarative scenario configs: parsing, validation, and catalog access.

Configs are JSON; complex matrices and vectors are nested arrays of
[re, im] pairs.  A resolved config carries ready-to-run families plus an
echo dict (defaults filled, seed fixed) that reports embed verbatim.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path as FsPath
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from .hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, PhysicalConstants, as_operator, is_hermitian
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


# Check ids in execution order; defaults depend on scenario content.
ALL_CHECKS = (
    "state_equivalence",
    "norm_drift",
    "transport_identity",
    "transport_composition",
    "mean_value_invariance",
    "hermiticity_correspondence",
    "unitary_bundle_map",
    "picture_invariance",
    "heisenberg_constancy",
    "density_consistency",
    "density_purity",
    "fibre_trace_preservation",
    "module_dualities",
    "integrals_of_motion",
    "physics_closed_form",
)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def default_tolerances(eq_tol: float = 1e-6, prop_tol: float = 1e-8) -> Dict[str, float]:
    """Per-check tolerances; eq_tol and prop_tol are the two headline knobs."""
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
    base: BaseSpace
    path: Path
    times: np.ndarray
    hamiltonian: HamiltonianFamily
    trivialization: TrivializationFamily
    observables: List[ObservableFamily]  # each named by its family
    initial_state: np.ndarray
    initial_density: Optional[np.ndarray]
    integral_candidates: List[IntegralCandidate]
    physics_check: Optional[dict]
    checks: List[str]
    tolerances: Dict[str, float]
    seed: int
    faults: Dict[str, bool]
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


def _real_diagonal(entries, n: int, where: str) -> np.ndarray:
    return np.diag(_real_vector(entries, n, where)).astype(complex)


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


def _build(where: str, builder: Callable, spec, *args):
    """Run one section's builder; its ValueError or TypeError becomes a ConfigError.

    The message is prefixed with the section's field, so every error a config
    can cause names where it is.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: need an object, got {spec!r}")
    try:
        return builder(spec, *args)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _tolerance(value, where: str) -> float:
    tol = _real(value, where)
    _require(tol >= 0, f"{where}: need a number >= 0, got {tol!r}")
    return tol


# --- builders ---------------------------------------------------------------

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
        return constant_trivialization(
            _real_diagonal(spec.get("entries"), n, "trivialization.entries"),
            name="constant-diagonal")
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
        _require(n == 2, "observable.pauli requires dimension 2")
        axis = spec.get("axis")
        _require(axis in _PAULI, f"observable.axis: unknown axis {axis!r}")
        base = _PAULI[axis]
    elif kind == "matrix":
        base = parse_complex_matrix(spec.get("matrix"), n, f"observables[{index}].matrix")
    elif kind == "diagonal":
        base = _real_diagonal(spec.get("entries"), n, f"observables[{index}].entries")
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
    return ObservableFamily(lambda ts: (offset + np.cos(omega * ts))[:, None, None] * base, n,
                            lambda ts: (-omega * np.sin(omega * ts))[:, None, None] * base,
                            name=name)


def _build_candidate(spec: dict, n: int, seed: int, index: int,
                     hamiltonian: HamiltonianFamily, t0: float) -> IntegralCandidate:
    kind = spec.get("kind")
    expected = spec.get("expected")
    _require(isinstance(expected, bool), f"integral_candidates[{index}].expected: need a bool")
    if kind == "hamiltonian":
        return IntegralCandidate(
            ObservableFamily.constant(hamiltonian.at(t0), name="hamiltonian"), expected)
    if kind == "pauli":
        _require(n == 2, "integral_candidates.pauli requires dimension 2")
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


# --- resolution --------------------------------------------------------------

_KNOWN_KEYS = {
    "name", "description", "dimension", "hbar", "base_space", "path", "grid",
    "hamiltonian", "trivialization", "observables", "initial_state",
    "initial_density", "integral_candidates", "physics_check", "checks",
    "tolerances", "seed", "faults",
}


def scenario_from_dict(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    """Validate and resolve a raw config dict into a runnable scenario."""
    _require(isinstance(raw, dict), f"{source}: config must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    _require(not unknown, f"{source}: unknown config keys {sorted(unknown)}")

    name = raw.get("name")
    _require(isinstance(name, str) and name, "name: required non-empty string")
    n = raw.get("dimension")
    _require(_is_int(n) and n >= 1, "dimension: need an integer >= 1")
    hbar = _real(raw.get("hbar", 1.0), "hbar")
    _require(hbar > 0, f"hbar: need a positive number, got {hbar!r}")
    constants = PhysicalConstants(hbar)
    seed = raw.get("seed", 0)
    _require(_is_int(seed) and seed >= 0, f"seed: need an integer >= 0, got {seed!r}")

    grid_spec = raw.get("grid")
    _require(isinstance(grid_spec, dict), "grid: required object with t0, t1, steps")
    t0 = _real(grid_spec.get("t0", 0.0), "grid.t0")
    t1 = _real(grid_spec.get("t1", 1.0), "grid.t1")
    steps = grid_spec.get("steps")
    _require(_is_int(steps) and steps >= 2, "grid.steps: need an integer >= 2")
    _require(t0 < t1, "grid: need t0 < t1")
    times = uniform_grid(t0, t1, steps)

    # Each default is stated once: the echo reports the specs that were built.
    base_spec = raw.get("base_space", {"variant": "euclidean", "dim": 3})
    base = _build("base_space", _build_base, base_spec)
    path_spec = raw.get("path", _default_path_spec(base))
    path = _build("path", _build_path, path_spec, base, t0, t1, steps + 1)

    hamiltonian_spec = raw.get("hamiltonian", {"kind": "zero"})
    hamiltonian = _build("hamiltonian", _build_hamiltonian, hamiltonian_spec, n, seed)
    trivialization_spec = raw.get("trivialization", {"kind": "identity"})
    trivialization = _build("trivialization", _build_trivialization, trivialization_spec, n, seed)

    obs_specs = raw.get("observables", _default_observable_specs(n))
    _require(isinstance(obs_specs, list) and obs_specs, "observables: must be a non-empty list")
    observables = [_build(f"observables[{i}]", _build_observable, spec, n, seed, i)
                   for i, spec in enumerate(obs_specs)]
    names = [family.name for family in observables]
    _require(len(set(names)) == len(names), "observables: names must be unique")

    state_spec = raw.get("initial_state")
    if state_spec is None:
        initial_state = np.zeros(n, dtype=complex)
        initial_state[0] = 1.0
    else:
        initial_state = parse_complex_vector(state_spec, n, "initial_state")
        _require(bool(np.vdot(initial_state, initial_state).real > 0),
                 "initial_state: must be nonzero")

    density_spec = raw.get("initial_density")
    initial_density = None
    if density_spec is not None:
        initial_density = parse_complex_matrix(density_spec, n, "initial_density")
        try:
            validate_density(initial_density)
        except ValueError as exc:
            raise ConfigError(f"initial_density: {exc}") from exc

    candidate_specs = raw.get("integral_candidates", [])
    _require(isinstance(candidate_specs, list), "integral_candidates: must be a list")
    candidates = [
        _build(f"integral_candidates[{i}]", _build_candidate, spec, n, seed, i, hamiltonian, t0)
        for i, spec in enumerate(candidate_specs)
    ]

    physics_check = raw.get("physics_check")
    if physics_check is not None:
        _require(isinstance(physics_check, dict) and physics_check.get("kind") == "rabi-flip",
                 "physics_check.kind: only 'rabi-flip' is supported")
        _require(n == 2, "physics_check.rabi-flip requires dimension 2")
        _real(physics_check.get("omega", np.pi), "physics_check.omega")

    tol_spec = raw.get("tolerances", {})
    _require(isinstance(tol_spec, dict), "tolerances: must be an object")
    tol_spec = dict(tol_spec)
    eq_tol = _tolerance(tol_spec.pop("eq_tol", 1e-6), "tolerances.eq_tol")
    prop_tol = _tolerance(tol_spec.pop("prop_tol", 1e-8), "tolerances.prop_tol")
    tolerances = default_tolerances(eq_tol, prop_tol)
    for key, value in tol_spec.items():
        _require(key in tolerances, f"tolerances: unknown check id {key!r}")
        tolerances[key] = _tolerance(value, f"tolerances.{key}")

    faults = raw.get("faults", {})
    _require(isinstance(faults, dict), "faults: must be an object")
    faults = dict(faults)
    unknown_faults = set(faults) - {"drop_trivialization_derivative"}
    _require(not unknown_faults, f"faults: unknown keys {sorted(unknown_faults)}")

    checks = raw.get("checks")
    if checks is None:
        checks = _default_checks(hamiltonian, candidates, physics_check,
                                 initial_density, initial_state)
    else:
        _require(isinstance(checks, list) and checks, "checks: must be a non-empty list")
        for c in checks:
            _require(c in ALL_CHECKS, f"checks: unknown check id {c!r}")
        _require("integrals_of_motion" not in checks or candidates,
                 "checks: integrals_of_motion needs integral_candidates")
        _require("physics_closed_form" not in checks or physics_check is not None,
                 "checks: physics_closed_form needs physics_check")

    echo = {
        "name": name,
        "description": raw.get("description", ""),
        "dimension": n,
        "hbar": hbar,
        "base_space": base_spec,
        "path": path_spec,
        "grid": {"t0": t0, "t1": t1, "steps": steps},
        "hamiltonian": hamiltonian_spec,
        "trivialization": trivialization_spec,
        "observables": obs_specs,
        "initial_state": state_spec,
        "initial_density": density_spec,
        "integral_candidates": candidate_specs,
        "physics_check": physics_check,
        "checks": list(checks),
        "tolerances": {"eq_tol": eq_tol, "prop_tol": prop_tol, **tol_spec},
        "seed": seed,
        "faults": faults,
    }

    return ScenarioConfig(
        name=name, dimension=n, constants=constants, base=base, path=path,
        times=times, hamiltonian=hamiltonian, trivialization=trivialization,
        observables=observables, initial_state=initial_state,
        initial_density=initial_density, integral_candidates=candidates,
        physics_check=physics_check, checks=list(checks), tolerances=tolerances,
        seed=seed, faults=faults, echo=echo)


def _default_path_spec(base: BaseSpace) -> dict:
    if isinstance(base, SinglePoint):
        return {"kind": "constant"}
    if isinstance(base, Interval):
        return {"kind": "identity"}
    return {"kind": "line"}


def _default_observable_specs(n: int) -> list:
    if n == 2:
        return [{"kind": "pauli", "axis": "z", "name": "sigma_z"},
                {"kind": "pauli", "axis": "x", "name": "sigma_x"}]
    return [{"kind": "diagonal", "entries": list(range(n, 0, -1)), "name": "ladder"},
            {"kind": "random-hermitian", "name": "random_obs"}]


def _default_checks(hamiltonian: HamiltonianFamily, candidates, physics_check,
                    initial_density, initial_state) -> List[str]:
    checks = ["state_equivalence"]
    if hamiltonian.hermitian_expected:
        checks.append("norm_drift")
    checks += ["transport_identity", "transport_composition", "mean_value_invariance",
               "hermiticity_correspondence"]
    if hamiltonian.hermitian_expected:
        checks += ["unitary_bundle_map", "picture_invariance", "heisenberg_constancy"]
    checks += ["density_consistency"]
    if _density_is_pure(initial_density):
        checks.append("density_purity")
    checks.append("fibre_trace_preservation")
    if candidates:
        checks.append("integrals_of_motion")
    if physics_check is not None:
        checks.append("physics_closed_form")
    return checks


def _density_is_pure(initial_density: Optional[np.ndarray]) -> bool:
    if initial_density is None:
        return True  # derived from the initial state
    rho = as_operator(initial_density)
    return bool(np.max(np.abs(rho @ rho - rho)) <= 1e-10)


def load_scenario(path) -> ScenarioConfig:
    """Load and resolve a scenario config file."""
    fs_path = FsPath(path)
    try:
        text = fs_path.read_text()
    except OSError as exc:
        raise ConfigError(f"{fs_path}: cannot read config ({exc})") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{fs_path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(raw, str(fs_path))


# --- built-in catalog --------------------------------------------------------

def _catalog_root():
    return resources.files("fibreqm") / "catalog"


def catalog_names() -> List[Tuple[str, str]]:
    """(name, description) pairs of the built-in scenarios, manifest order."""
    manifest = json.loads((_catalog_root() / "manifest.json").read_text())
    out = []
    for entry in manifest["scenarios"]:
        raw = json.loads((_catalog_root() / entry).read_text())
        out.append((raw["name"], raw.get("description", "")))
    return out


def catalog_files() -> List[str]:
    manifest = json.loads((_catalog_root() / "manifest.json").read_text())
    return list(manifest["scenarios"])


def load_catalog_scenario(name: str) -> ScenarioConfig:
    """Load a built-in scenario by its config name."""
    for entry in catalog_files():
        raw = json.loads((_catalog_root() / entry).read_text())
        if raw.get("name") == name:
            return scenario_from_dict(raw, f"catalog:{entry}")
    raise ConfigError(f"unknown catalog scenario {name!r}")


def load_catalog() -> List[ScenarioConfig]:
    """All built-in scenarios in manifest order."""
    out = []
    for entry in catalog_files():
        raw = json.loads((_catalog_root() / entry).read_text())
        out.append(scenario_from_dict(raw, f"catalog:{entry}"))
    return out
