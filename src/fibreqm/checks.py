"""Scenario execution: conventional oracle vs bundle pipeline, check by check.

Every check produces one record (id, max residual, tolerance, pass/fail,
grid location of the worst residual).  A numerical failure inside a check is
surfaced as a failed record, never as a silent pass.  Scenarios share no
mutable state, so suites can run them in any order.
"""

from __future__ import annotations

import time
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Dict, List, Tuple

import numpy as np

from .bundle import (
    MorphismAlongPath,
    SectionAlongPath,
    TrivializationFamily,
    bundle_adjoint_maps,
    lift_operators,
    module_combine,
    morphism_as_section_operator,
    section_operator_as_morphism,
)
from .dynamics import PropagatorGrid, Trajectory, conjugate_by, propagate_states
from .hilbert import apply, expectations, max_abs
from .pictures import (
    PictureTransform,
    evolve_density_morphisms,
    fibre_means,
    general_picture_means,
    is_integral_of_motion,
    to_general_picture_observables,
)
from .report import CheckRecord, ScenarioReport
from .scenario import ScenarioConfig
from .transport import (
    EvolutionTransport,
    MatrixBundleHamiltonian,
    TransportAxiomReport,
    check_transport_axioms,
    integrate_bundle_schrodinger,
)

__all__ = ["run_scenario", "ScenarioArtifacts", "build_artifacts"]


class ScenarioArtifacts:
    """Both pipelines of one scenario, and the nodes the checks compare.

    The constructor does everything that can reject the scenario: it checks
    the trivialization on the grid (its values are the frames the transport
    inverts once), builds the propagators and the transport, propagates and
    lifts the trajectory, integrates the bundle equation, and samples every
    observable family once.  Each other artifact is a cached property, built
    when a check first reads it and shared by every later reader.
    """

    def __init__(self, cfg: ScenarioConfig):
        times = cfg.times
        l = cfg.trivialization
        frames = l.validate_on_grid(times)
        propagators = PropagatorGrid(cfg.hamiltonian, times, cfg.constants)
        self.cfg = cfg
        self.times = times
        self.transport = EvolutionTransport(propagators, l, frames)

        states = propagate_states(propagators.step_matrices, cfg.initial_state)
        self.trajectory = Trajectory(times, states)
        self.lifted = SectionAlongPath(times, apply(self.transport.inverse_frames, states))

        # The fault is an input: the bundle side sees l with dl/dt = 0.
        if cfg.faults.get("drop_trivialization_derivative", False):
            n = l.dimension
            l = TrivializationFamily(
                l.at_many, n, lambda ts: np.zeros((ts.size, n, n), dtype=complex), name=l.name)
        self.bundle_section = integrate_bundle_schrodinger(
            MatrixBundleHamiltonian(cfg.hamiltonian, l, times, cfg.constants),
            self.lifted.values[0])
        # name -> grid samples (N, n, n), each family sampled once
        self.observables = {family.name: family.at_many(times) for family in cfg.observables}

    @cached_property
    def lifted_observables(self) -> Dict[str, MorphismAlongPath]:
        t = self.transport
        return {name: MorphismAlongPath(self.times,
                                        lift_operators(t.frames, t.inverse_frames, stack))
                for name, stack in self.observables.items()}

    @cached_property
    def rho0(self) -> np.ndarray:
        if self.cfg.initial_density is not None:
            return self.cfg.initial_density
        psi0 = self.cfg.initial_state
        return np.outer(psi0, psi0.conj()) / np.vdot(psi0, psi0).real

    @cached_property
    def density_lifted(self) -> np.ndarray:
        """l^-1 rho(t) l with rho(t) conjugated by the conventional propagators, (N, n, n)."""
        t, p = self.transport, self.transport.propagators
        return lift_operators(t.frames, t.inverse_frames,
                              conjugate_by(p.prefixes, self.rho0, p.inverse_prefixes))

    @cached_property
    def density_transported(self) -> np.ndarray:
        """The lifted rho0 carried by transport conjugation, (N, n, n)."""
        t = self.transport
        return evolve_density_morphisms(
            lift_operators(t.frames[0], t.inverse_frames[0], self.rho0), t)

    @cached_property
    def transported_section(self) -> SectionAlongPath:
        """U(t, t0) Psi(t0) over the grid."""
        return SectionAlongPath(self.times, apply(self.transport.from_t0, self.lifted.values[0]))

    @cached_property
    def heisenberg_values(self) -> np.ndarray:
        """U(t0, t) Psi(t) over the grid: the transported section carried back to t0."""
        return apply(self.transport.into_t0, self.transported_section.values)

    @cached_property
    def _transport_axioms(self) -> Tuple[int, TransportAxiomReport]:
        """Sampled triple count and transport-axiom deviations, measured once.

        Both transport checks read the deviations and judge them against
        their own tolerances.
        """
        triples = _sample_triples(self.times, self.cfg.seed)
        return len(triples), check_transport_axioms(self.transport, triples)


def build_artifacts(cfg: ScenarioConfig) -> ScenarioArtifacts:
    """Run both pipelines once; the checks build the rest on first read."""
    return ScenarioArtifacts(cfg)


# --- helpers ----------------------------------------------------------------

def _worst(times: np.ndarray, per_time: np.ndarray) -> Tuple[float, float]:
    """First maximum and its time; a NaN counts as the maximum."""
    idx = int(np.argmax(per_time))
    return float(per_time[idx]), float(times[idx])


def _worst_observable(per_observable: List[Tuple[float, float, str]]) -> Tuple[float, float, str]:
    """The (residual, time, name) with the first largest residual; a NaN wins."""
    return per_observable[int(np.argmax([dev for dev, _, _ in per_observable]))]


def _coarse_indices(n_times: int, count: int = 9) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, n_times - 1, count)).astype(int))


def _sample_triples(times: np.ndarray, seed: int) -> List[Tuple[float, float, float]]:
    idx = _coarse_indices(times.size)
    triples = [tuple(times[list(c)]) for c in combinations_with_replacement(idx, 3)]
    rng = np.random.default_rng([seed, 0x73])
    for _ in range(40):
        picks = np.sort(rng.integers(0, times.size, size=3))
        triples.append(tuple(times[picks]))
    return [(float(r), float(s), float(t)) for (r, s, t) in triples]


# --- individual checks --------------------------------------------------------

def _check_state_equivalence(art: ScenarioArtifacts, tol: float,
                             series: Dict[str, np.ndarray]) -> CheckRecord:
    residual = np.max(np.abs(art.bundle_section.values - art.lifted.values), axis=1)
    series["state_equivalence_residual"] = residual
    worst, at = _worst(art.times, residual)
    return CheckRecord("state_equivalence", worst, tol, worst <= tol, at)


def _check_norm_drift(art: ScenarioArtifacts, tol: float,
                      series: Dict[str, np.ndarray]) -> CheckRecord:
    norms = art.trajectory.norm_sq()
    series["norm_sq"] = norms
    drift = np.abs(norms - norms[0])
    worst, at = _worst(art.times, drift)
    return CheckRecord("norm_drift", worst, tol, worst <= tol, at)


def _check_transport_identity(art: ScenarioArtifacts, tol: float,
                              series: Dict[str, np.ndarray]) -> CheckRecord:
    triples, report = art._transport_axioms
    worst, at = report.max_identity_deviation, report.worst_identity_time
    return CheckRecord("transport_identity", worst, tol, worst <= tol, at,
                       detail=f"{triples} sampled triples")


def _check_transport_composition(art: ScenarioArtifacts, tol: float,
                                 series: Dict[str, np.ndarray]) -> CheckRecord:
    _, report = art._transport_axioms
    worst = report.max_composition_deviation
    at = report.worst_composition_triple[2]
    return CheckRecord("transport_composition", worst, tol, worst <= tol, at,
                       detail=f"worst triple {report.worst_composition_triple}")


def _check_mean_value_invariance(art: ScenarioArtifacts, tol: float,
                                 series: Dict[str, np.ndarray]) -> CheckRecord:
    psi = art.trajectory.states
    per_observable = []
    for name, stack in art.observables.items():
        conv = expectations(psi, apply(stack, psi))
        bundle = fibre_means(art.transport.frames, art.lifted_observables[name].matrices,
                             art.lifted.values)
        series[f"mean_conventional:{name}"] = conv.real
        series[f"mean_bundle:{name}"] = bundle.real
        per_observable.append((*_worst(art.times, np.abs(conv - bundle)), name))
    worst, worst_at, worst_obs = _worst_observable(per_observable)
    return CheckRecord("mean_value_invariance", worst, tol, worst <= tol, worst_at,
                       detail=f"worst observable: {worst_obs}")


def _check_hermiticity_correspondence(art: ScenarioArtifacts, tol: float,
                                      series: Dict[str, np.ndarray]) -> CheckRecord:
    frames, inv = art.transport.frames, art.transport.inverse_frames
    per_observable = []
    for name, stack in art.observables.items():
        deviation = lift_operators(frames, inv, np.swapaxes(stack.conj(), -2, -1))
        deviation -= bundle_adjoint_maps(frames, inv, art.lifted_observables[name].matrices)
        per_time = np.max(np.abs(deviation), axis=(1, 2))
        per_observable.append((*_worst(art.times, per_time), name))
    worst, worst_at, worst_obs = _worst_observable(per_observable)
    return CheckRecord("hermiticity_correspondence", worst, tol, worst <= tol, worst_at,
                       detail=f"worst observable: {worst_obs}")


def _check_unitary_bundle_map(art: ScenarioArtifacts, tol: float,
                              series: Dict[str, np.ndarray]) -> CheckRecord:
    idx = _coarse_indices(art.times.size)
    i, j = (k.ravel() for k in np.meshgrid(idx, idx, indexing="ij"))
    forward = art.transport.matrices_by_index(i, j)    # fibre(t_j) -> fibre(t_i)
    backward = art.transport.matrices_by_index(j, i)
    adjoints = bundle_adjoint_maps(art.transport.frames[i], art.transport.inverse_frames[j],
                                   forward)
    per_pair = np.max(np.abs(adjoints - backward), axis=(1, 2))
    worst, at = _worst(art.times[j], per_pair)
    return CheckRecord("unitary_bundle_map", worst, tol, worst <= tol, at)


def _check_picture_invariance(art: ScenarioArtifacts, tol: float,
                              series: Dict[str, np.ndarray]) -> CheckRecord:
    transport = art.transport
    frames = transport.frames
    psi_t = art.transported_section.values
    # The Heisenberg means are finished before V and V^-1 are built, so no
    # Heisenberg observable stack is alive beside them.
    heisenberg = {
        name: fibre_means(frames[0],
                          conjugate_by(transport.into_t0, lifted.matrices, transport.from_t0),
                          art.heisenberg_values)
        for name, lifted in art.lifted_observables.items()
    }
    picture = PictureTransform.random_unitary(art.times, art.cfg.dimension, art.cfg.seed)
    v, v_inv = picture.matrices, picture.inverse_matrices
    psi_v = apply(v, psi_t)
    per_observable = []
    for name, heis in heisenberg.items():
        a_lift = art.lifted_observables[name].matrices
        schro = fibre_means(frames, a_lift, psi_t)
        general = general_picture_means(
            v_inv, frames, to_general_picture_observables(v, v_inv, a_lift), psi_v)
        series[f"mean_heisenberg:{name}"] = heis.real
        dev = np.maximum(np.abs(schro - heis), np.abs(schro - general))
        per_observable.append((*_worst(art.times, dev), name))
    worst, worst_at, worst_obs = _worst_observable(per_observable)
    return CheckRecord("picture_invariance", worst, tol, worst <= tol, worst_at,
                       detail=f"worst observable: {worst_obs}")


def _check_heisenberg_constancy(art: ScenarioArtifacts, tol: float,
                                series: Dict[str, np.ndarray]) -> CheckRecord:
    psi_t0 = art.transported_section.values[0]
    per_time = np.max(np.abs(art.heisenberg_values - psi_t0), axis=1)
    worst, at = _worst(art.times, per_time)
    return CheckRecord("heisenberg_constancy", worst, tol, worst <= tol, at)


def _check_density_consistency(art: ScenarioArtifacts, tol: float,
                               series: Dict[str, np.ndarray]) -> CheckRecord:
    per_time = np.max(np.abs(art.density_transported - art.density_lifted), axis=(1, 2))
    series["density_residual"] = per_time
    worst, at = _worst(art.times, per_time)
    return CheckRecord("density_consistency", worst, tol, worst <= tol, at)


def _check_density_purity(art: ScenarioArtifacts, tol: float,
                          series: Dict[str, np.ndarray]) -> CheckRecord:
    p = art.density_transported
    per_time = np.max(np.abs(p @ p - p), axis=(1, 2))
    worst, at = _worst(art.times, per_time)
    return CheckRecord("density_purity", worst, tol, worst <= tol, at)


def _check_fibre_trace(art: ScenarioArtifacts, tol: float,
                       series: Dict[str, np.ndarray]) -> CheckRecord:
    traces = np.trace(art.density_transported, axis1=1, axis2=2)
    per_time = np.abs(traces - np.trace(art.rho0))
    worst, at = _worst(art.times, per_time)
    return CheckRecord("fibre_trace_preservation", worst, tol, worst <= tol, at)


def _check_module_dualities(art: ScenarioArtifacts, tol: float,
                            series: Dict[str, np.ndarray]) -> CheckRecord:
    times = art.times[_coarse_indices(art.times.size)]
    n = art.cfg.dimension
    rng = np.random.default_rng([art.cfg.seed, 0x4D])
    worst = 0.0
    roundtrip_exact = True
    for _ in range(5):
        phi = SectionAlongPath(times, rng.normal(size=(times.size, n))
                               + 1j * rng.normal(size=(times.size, n)))
        psi = SectionAlongPath(times, rng.normal(size=(times.size, n))
                               + 1j * rng.normal(size=(times.size, n)))
        f = rng.normal(size=times.size) + 1j * rng.normal(size=times.size)
        g = rng.normal(size=times.size) + 1j * rng.normal(size=times.size)
        lhs = module_combine(f + g, phi, f - g, psi)
        rhs = module_combine(f, module_combine(1.0, phi, 1.0, psi),
                             g, module_combine(1.0, phi, -1.0, psi))
        worst = max(worst, max_abs(lhs.values - rhs.values))
        fg_phi = module_combine(f * g, phi, 0.0, psi)
        f_gphi = module_combine(f, module_combine(g, phi, 0.0, psi), 0.0, psi)
        worst = max(worst, max_abs(fg_phi.values - f_gphi.values))
        one_phi = module_combine(np.ones(times.size), phi, np.zeros(times.size), psi)
        if not np.array_equal(one_phi.values, phi.values):
            roundtrip_exact = False

        mats = rng.normal(size=(times.size, n, n)) + 1j * rng.normal(size=(times.size, n, n))
        morphism = MorphismAlongPath(times, mats)
        recovered = section_operator_as_morphism(
            lambda sec: morphism_as_section_operator(morphism, sec), times, n)
        if not np.array_equal(recovered.matrices, morphism.matrices):
            roundtrip_exact = False
    detail = "round trips exact" if roundtrip_exact else "round trips NOT exact"
    passed = worst <= tol and roundtrip_exact
    return CheckRecord("module_dualities", worst, tol, passed, None, detail=detail)


def _check_integrals_of_motion(art: ScenarioArtifacts, tol: float,
                               series: Dict[str, np.ndarray]) -> CheckRecord:
    outcomes = []
    all_match = True
    worst = 0.0
    for cand in art.cfg.integral_candidates:
        report = is_integral_of_motion(cand.family, art.transport, tol)
        match = report.certified == cand.expected and report.criteria_agree
        all_match = all_match and match
        if cand.expected:
            worst = max(worst, report.commutator_residual,
                        report.transport_residual or 0.0)
        outcomes.append(
            f"{cand.family.name}: certified={report.certified} expected={cand.expected} "
            f"residual={report.commutator_residual:.3e}")
    return CheckRecord("integrals_of_motion", worst, tol, all_match and worst <= tol,
                       None, detail="; ".join(outcomes))


def _check_physics_closed_form(art: ScenarioArtifacts, tol: float,
                               series: Dict[str, np.ndarray]) -> CheckRecord:
    spec = art.cfg.physics_check or {}
    omega = float(spec.get("omega", np.pi))
    states = art.trajectory.states
    flip = np.abs(states[:, 1]) ** 2 / art.trajectory.norm_sq()
    target = np.sin(omega * (art.times - art.times[0]) / 2.0) ** 2
    series["flip_probability"] = flip
    series["flip_probability_closed_form"] = target
    worst, at = _worst(art.times, np.abs(flip - target))
    return CheckRecord("physics_closed_form", worst, tol, worst <= tol, at,
                       detail=f"rabi flip vs sin^2({omega:g} t / 2)")


# Check id -> check; every check takes (artifacts, tolerance, timeseries sink).
_CHECK_TABLE = {
    "state_equivalence": _check_state_equivalence,
    "norm_drift": _check_norm_drift,
    "transport_identity": _check_transport_identity,
    "transport_composition": _check_transport_composition,
    "mean_value_invariance": _check_mean_value_invariance,
    "hermiticity_correspondence": _check_hermiticity_correspondence,
    "unitary_bundle_map": _check_unitary_bundle_map,
    "picture_invariance": _check_picture_invariance,
    "heisenberg_constancy": _check_heisenberg_constancy,
    "density_consistency": _check_density_consistency,
    "density_purity": _check_density_purity,
    "fibre_trace_preservation": _check_fibre_trace,
    "module_dualities": _check_module_dualities,
    "integrals_of_motion": _check_integrals_of_motion,
    "physics_closed_form": _check_physics_closed_form,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Run the conventional oracle, the bundle pipeline, and all requested checks."""
    started = time.perf_counter()
    series: Dict[str, np.ndarray] = {}
    records: List[CheckRecord] = []
    try:
        art = build_artifacts(cfg)
    except Exception as exc:  # surface as a failed record, never a silent pass
        records.append(CheckRecord("setup", float("inf"), 0.0, False, None,
                                   detail=f"{type(exc).__name__}: {exc}"))
        return ScenarioReport(cfg.name, records, cfg.echo, {},
                              time.perf_counter() - started)

    series["time"] = cfg.times.copy()
    for check_id in cfg.checks:
        tol = cfg.tolerances[check_id]
        try:
            records.append(_CHECK_TABLE[check_id](art, tol, series))
        except Exception as exc:
            records.append(CheckRecord(check_id, float("inf"), tol, False, None,
                                       detail=f"{type(exc).__name__}: {exc}"))
    timeseries = {key: np.asarray(value, dtype=float).tolist()
                  for key, value in series.items()}
    return ScenarioReport(cfg.name, records, cfg.echo, timeseries,
                          time.perf_counter() - started)
