"""Declarative scenario configs: parsing, validation, and catalog access.

Configs are JSON; complex matrices and vectors are nested arrays of
[re, im] pairs.  A resolved config carries ready-to-run families plus an
echo dict (defaults filled, seed fixed) that reports embed verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path as FsPath
from typing import Dict, List, Optional, Sequence, Tuple

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

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


# --- JSON plumbing ---------------------------------------------------------

def _complex_entry(obj, where: str) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(x, (int, float)) for x in obj)):
        raise ConfigError(f"{where}: complex entries must be [re, im] pairs, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


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


# --- builders ---------------------------------------------------------------

def _build_base(spec: dict) -> BaseSpace:
    variant = spec.get("variant")
    if variant == "euclidean":
        dim = spec.get("dim", 3)
        _require(isinstance(dim, int) and dim >= 1, "base_space.dim: need an integer >= 1")
        return Euclidean(dim)
    if variant == "interval":
        bounds = spec.get("bounds")
        _require(isinstance(bounds, list) and len(bounds) == 2,
                 "base_space.bounds: need [lower, upper]")
        return Interval(float(bounds[0]), float(bounds[1]))
    if variant == "single-point":
        return SinglePoint()
    raise ConfigError(f"base_space.variant: unknown variant {variant!r}")


def _build_path(spec: dict, base: BaseSpace, t0: float, t1: float, samples: int) -> Path:
    kind = spec.get("kind")
    forbid = bool(spec.get("forbid_self_intersections", False))
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
        origin = np.asarray(spec.get("origin", [0.0] * d), dtype=float)
        velocity = np.asarray(spec.get("velocity", [1.0] + [0.0] * (d - 1)), dtype=float)
        _require(origin.shape == (d,) and velocity.shape == (d,),
                 f"path.line: origin/velocity must have length {d}")
        return make_path(base, (t0, t1), lambda ts: origin + ts[:, None] * velocity, samples,
                         forbid_self_intersections=forbid)
    if kind == "circle":
        _require(isinstance(base, Euclidean) and base.dim >= 2,
                 "path.circle requires a Euclidean base of dim >= 2")
        radius = float(spec.get("radius", 1.0))
        turns = float(spec.get("turns", 1.0))
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
        m = np.zeros((2, 2), dtype=complex)
        for axis, mat in _PAULI.items():
            m = m + float(coeffs.get(axis, 0.0)) * mat
        m = m + float(coeffs.get("i", 0.0)) * np.eye(2)
        return HamiltonianFamily.constant(m, name="pauli")
    if kind == "random-hermitian":
        scale = float(spec.get("scale", 1.0))
        m = _random_hermitian(n, [seed, 0x48], scale)
        return HamiltonianFamily.constant(m, name="random-hermitian")
    if kind == "circular-drive":
        _require(n == 2, "hamiltonian.circular-drive requires dimension 2")
        omega0 = float(spec.get("level_splitting", np.pi))
        rabi = float(spec.get("rabi_frequency", np.pi))

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
        omega = float(spec.get("omega", 1.0))
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
        return global_phase_trivialization(n, float(spec.get("omega", 2.0 * np.pi)))
    if kind == "diagonal-phase":
        omegas = spec.get("omegas")
        _require(isinstance(omegas, list) and len(omegas) == n,
                 f"trivialization.omegas: need {n} frequencies")
        return diagonal_phase_trivialization([float(w) for w in omegas])
    if kind == "constant-diagonal":
        entries = spec.get("entries")
        _require(isinstance(entries, list) and len(entries) == n,
                 f"trivialization.entries: need {n} diagonal entries")
        return constant_trivialization(np.diag([complex(e) for e in entries]),
                                       name="constant-diagonal")
    if kind == "constant":
        m = parse_complex_matrix(spec.get("matrix"), n, "trivialization.matrix")
        return constant_trivialization(m)
    if kind == "random-smooth-unitary":
        scale = float(spec.get("scale", 0.6))
        frequency = float(spec.get("frequency", 2.5))
        return random_smooth_unitary_trivialization(n, seed, scale, frequency)
    raise ConfigError(f"trivialization.kind: unknown kind {kind!r}")


def _build_observable(spec: dict, n: int, seed: int, index: int) -> ObservableFamily:
    """Resolve an observable spec to a family named by the spec.

    A constant observable broadcasts one matrix over any batch of times; the
    optional "modulation" key, {"omega": w, "offset": c}, makes the
    observable (c + cos(w t)) * base.
    """
    kind = spec.get("kind")
    name = spec.get("name", f"obs{index}")
    if kind == "pauli":
        _require(n == 2, "observable.pauli requires dimension 2")
        axis = spec.get("axis")
        _require(axis in _PAULI, f"observable.axis: unknown axis {axis!r}")
        base = _PAULI[axis]
    elif kind == "matrix":
        base = parse_complex_matrix(spec.get("matrix"), n, f"observables[{index}].matrix")
    elif kind == "diagonal":
        entries = spec.get("entries")
        _require(isinstance(entries, list) and len(entries) == n,
                 f"observables[{index}].entries: need {n} entries")
        base = np.diag([complex(e) for e in entries])
    elif kind == "random-hermitian":
        scale = float(spec.get("scale", 1.0))
        base = _random_hermitian(n, [seed, 0xA0, index], scale)
    else:
        raise ConfigError(f"observables[{index}].kind: unknown kind {kind!r}")

    modulation = spec.get("modulation")
    if modulation is None:
        return ObservableFamily.constant(base, name=name)
    _require(isinstance(modulation, dict), f"observables[{index}].modulation: need an object")
    omega = float(modulation.get("omega", 1.0))
    offset = float(modulation.get("offset", 0.0))
    return ObservableFamily(lambda ts: (offset + np.cos(omega * ts))[:, None, None] * base, n,
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
        return IntegralCandidate(
            ObservableFamily.constant(m, name=spec.get("name", f"candidate{index}")), expected)
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
    _require(isinstance(n, int) and n >= 1, "dimension: need an integer >= 1")
    hbar = float(raw.get("hbar", 1.0))
    constants = PhysicalConstants(hbar)
    seed = int(raw.get("seed", 0))

    grid_spec = raw.get("grid")
    _require(isinstance(grid_spec, dict), "grid: required object with t0, t1, steps")
    t0 = float(grid_spec.get("t0", 0.0))
    t1 = float(grid_spec.get("t1", 1.0))
    steps = grid_spec.get("steps")
    _require(isinstance(steps, int) and steps >= 2, "grid.steps: need an integer >= 2")
    _require(t0 < t1, "grid: need t0 < t1")
    times = uniform_grid(t0, t1, steps)

    # Each default is stated once: the echo reports the specs that were built.
    base_spec = raw.get("base_space", {"variant": "euclidean", "dim": 3})
    base = _build_base(base_spec)
    path_spec = raw.get("path", _default_path_spec(base))
    path = _build_path(path_spec, base, t0, t1, steps + 1)

    hamiltonian_spec = raw.get("hamiltonian", {"kind": "zero"})
    hamiltonian = _build_hamiltonian(hamiltonian_spec, n, seed)
    trivialization_spec = raw.get("trivialization", {"kind": "identity"})
    trivialization = _build_trivialization(trivialization_spec, n, seed)

    obs_specs = raw.get("observables", _default_observable_specs(n))
    _require(isinstance(obs_specs, list) and obs_specs, "observables: must be a non-empty list")
    observables = [_build_observable(s, n, seed, i) for i, s in enumerate(obs_specs)]
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
    candidates = [
        _build_candidate(s, n, seed, i, hamiltonian, t0)
        for i, s in enumerate(candidate_specs)
    ]

    physics_check = raw.get("physics_check")
    if physics_check is not None:
        _require(isinstance(physics_check, dict) and physics_check.get("kind") == "rabi-flip",
                 "physics_check.kind: only 'rabi-flip' is supported")
        _require(n == 2, "physics_check.rabi-flip requires dimension 2")

    tol_spec = dict(raw.get("tolerances", {}))
    eq_tol = float(tol_spec.pop("eq_tol", 1e-6))
    prop_tol = float(tol_spec.pop("prop_tol", 1e-8))
    tolerances = default_tolerances(eq_tol, prop_tol)
    for key, value in tol_spec.items():
        _require(key in tolerances, f"tolerances: unknown check id {key!r}")
        tolerances[key] = float(value)

    faults = dict(raw.get("faults", {}))
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
    checks += ["fibre_trace_preservation", "module_dualities"]
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
