"""Scenario execution: conventional oracle vs bundle pipeline, check by check.

Besides the seeds `cfg`, `times` and `series`, every node is a build in `_NODES`
and every check a function in `_CHECK_TABLE`, whose parameters are the nodes it
reads.  Setup reads the `_SETUP` nodes, which can reject the scenario; a fault
that is on swaps a node's build (`_FAULTS`).  A node is built on first read and
dropped after its last reader.  A failure is a failed record, never a silent
pass.  Scenarios share no mutable state, so suites run them in any order.
"""

from __future__ import annotations

import inspect
import time
from itertools import combinations_with_replacement
from typing import Dict, FrozenSet, List, Tuple

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
from .dynamics import PropagatorGrid, Trajectory, propagate_states
from .hilbert import apply, distinct_matrices, expectations, max_abs
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

__all__ = ["run_scenario", "build_artifacts"]


# --- helpers ----------------------------------------------------------------

def _judged(check_id: str, times: np.ndarray, per_time: np.ndarray, tol: float,
            detail: str = "") -> CheckRecord:
    """The record of a residual series: its first maximum and that maximum's time.

    A NaN counts as the maximum, so a NaN anywhere fails the check at the time
    of the first NaN.
    """
    idx = int(np.argmax(per_time))
    worst = float(per_time[idx])
    return CheckRecord(check_id, worst, tol, worst <= tol, float(times[idx]), detail)


def _judged_per_observable(check_id: str, times: np.ndarray,
                           per_observable: Dict[str, np.ndarray], tol: float) -> CheckRecord:
    """The record of the observable with the first largest residual; a NaN wins."""
    records = [_judged(check_id, times, per_time, tol, f"worst observable: {name}")
               for name, per_time in per_observable.items()]
    return records[int(np.argmax([record.max_residual for record in records]))]


def _coarse_indices(n_times: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, n_times - 1, 9)).astype(int))


def _sample_triples(times: np.ndarray, seed: int) -> List[Tuple[float, float, float]]:
    idx = _coarse_indices(times.size)
    triples = [tuple(times[list(c)]) for c in combinations_with_replacement(idx, 3)]
    rng = np.random.default_rng([seed, 0x73])
    triples += [tuple(times[np.sort(rng.integers(0, times.size, size=3))]) for _ in range(40)]
    return [(float(r), float(s), float(t)) for (r, s, t) in triples]


# --- nodes built on first read ------------------------------------------------

def _transport(cfg, times) -> EvolutionTransport:
    frames = cfg.trivialization.validate_on_grid(times)  # checked before the propagators
    return EvolutionTransport(PropagatorGrid(cfg.hamiltonian, times, cfg.constants), frames)


def _trajectory(cfg, times, transport) -> Trajectory:
    """The conventional oracle: psi0 carried by the step propagators."""
    return Trajectory(times, propagate_states(transport.propagators.step_matrices,
                                              cfg.initial_state))


def _lifted(times, transport, trajectory) -> SectionAlongPath:
    return SectionAlongPath(times, apply(transport.inverse_frames, trajectory.states))


def _bundle_trivialization(cfg) -> TrivializationFamily:
    return cfg.trivialization  # the frames that the bundle generator reads


def _bundle_section(cfg, times, bundle_trivialization, lifted) -> SectionAlongPath:
    return integrate_bundle_schrodinger(MatrixBundleHamiltonian(
        cfg.hamiltonian, bundle_trivialization, times, cfg.constants), lifted.values[0])


def _observables(cfg, times) -> Dict[str, np.ndarray]:
    """Name -> grid samples (N, n, n), each family sampled once."""
    return {family.name: family.at_many(times) for family in cfg.observables}


def _without_derivative(cfg) -> TrivializationFamily:
    """The same frames l(t) with dl/dt = 0, which drops the frame-derivative term."""
    n = cfg.trivialization.dimension
    return cfg.trivialization.with_derivative(lambda ts: np.zeros((ts.size, n, n), dtype=complex))


def _lifted_observables(times, transport, observables) -> Dict[str, MorphismAlongPath]:
    frames, inv = transport.frames, transport.inverse_frames
    return {name: MorphismAlongPath(times, lift_operators(frames, inv, stack))
            for name, stack in observables.items()}


def _density_transported(cfg, transport) -> np.ndarray:
    """The lifted rho0 carried by transport conjugation, (N, n, n)."""
    return evolve_density_morphisms(lift_operators(
        transport.frames[0], transport.inverse_frames[0], cfg.initial_density), transport)


def _transported_section(times, transport, lifted) -> SectionAlongPath:
    """U(t, t0) Psi(t0) over the grid."""
    return SectionAlongPath(times, apply(transport.from_t0, lifted.values[0]))


def _heisenberg_values(transport, transported_section) -> np.ndarray:
    """U(t0, t) Psi(t) over the grid: the transported section carried back to t0."""
    return apply(transport.into_t0, transported_section.values)


def _transport_axioms(cfg, times, transport) -> Tuple[int, TransportAxiomReport]:
    """Sampled triple count and transport-axiom deviations, judged by both transport checks."""
    triples = _sample_triples(times, cfg.seed)
    return len(triples), check_transport_axioms(transport, triples)


# Node name -> build.  Its parameters, like a check's after `tol`, are the nodes it
# reads, unannotated: each node's type is stated once, by its build.
_NODES = {
    "transport": _transport,
    "trajectory": _trajectory,
    "lifted": _lifted,
    "bundle_trivialization": _bundle_trivialization,
    "bundle_section": _bundle_section,
    "observables": _observables,
    "lifted_observables": _lifted_observables,
    "density_transported": _density_transported,
    "transported_section": _transported_section,
    "heisenberg_values": _heisenberg_values,
    "transport_axioms": _transport_axioms,
}
# Read in this order before any check; a failure among them is the `setup` record.
_SETUP = ("transport", "trajectory", "lifted", "bundle_section", "observables")
# Fault name -> (node, the build that replaces its own, with the same parameters).
_FAULTS = {"drop_trivialization_derivative": ("bundle_trivialization", _without_derivative)}


# --- individual checks --------------------------------------------------------

def _check_state_equivalence(tol: float, times, lifted, bundle_section, series) -> CheckRecord:
    residual = np.max(np.abs(bundle_section.values - lifted.values), axis=1)
    series["state_equivalence_residual"] = residual
    return _judged("state_equivalence", times, residual, tol)


def _check_norm_drift(tol: float, times, trajectory, series) -> CheckRecord:
    norms = trajectory.norm_sq()
    series["norm_sq"] = norms
    return _judged("norm_drift", times, np.abs(norms - norms[0]), tol)


# The transport checks build their own record: the worst value and its place
# come from the TransportAxiomReport, not from a residual series.
def _check_transport_identity(tol: float, transport_axioms) -> CheckRecord:
    triples, report = transport_axioms
    worst, at = report.max_identity_deviation, report.worst_identity_time
    return CheckRecord("transport_identity", worst, tol, worst <= tol, at,
                       detail=f"{triples} sampled triples")


def _check_transport_composition(tol: float, transport_axioms) -> CheckRecord:
    _, report = transport_axioms
    worst = report.max_composition_deviation
    at = report.worst_composition_triple[2]
    return CheckRecord("transport_composition", worst, tol, worst <= tol, at,
                       detail=f"worst triple {report.worst_composition_triple}")


def _check_mean_value_invariance(tol: float, times, transport, trajectory, lifted, observables,
                                 lifted_observables, series) -> CheckRecord:
    psi = trajectory.states
    per_observable = {}
    for name, stack in observables.items():
        conv = expectations(psi, apply(stack, psi))
        bundle = fibre_means(transport.frames, lifted_observables[name].matrices, lifted.values)
        series[f"mean_conventional:{name}"] = conv.real
        series[f"mean_bundle:{name}"] = bundle.real
        per_observable[name] = np.abs(conv - bundle)
    return _judged_per_observable("mean_value_invariance", times, per_observable, tol)


def _check_hermiticity_correspondence(tol: float, times, transport, observables,
                                      lifted_observables) -> CheckRecord:
    frames, inv = transport.frames, transport.inverse_frames
    per_observable = {}
    for name, stack in observables.items():
        one = distinct_matrices(stack)  # a broadcast is conjugated once
        adjoint = np.broadcast_to(np.swapaxes(one.conj(), -2, -1), stack.shape)
        deviation = lift_operators(frames, inv, adjoint)
        deviation -= bundle_adjoint_maps(frames, inv, lifted_observables[name].matrices)
        per_observable[name] = np.max(np.abs(deviation), axis=(1, 2))
    return _judged_per_observable("hermiticity_correspondence", times, per_observable, tol)


def _check_unitary_bundle_map(tol: float, times, transport) -> CheckRecord:
    idx = _coarse_indices(times.size)
    i, j = (k.ravel() for k in np.meshgrid(idx, idx, indexing="ij"))
    forward = transport.matrices_by_index(i, j)    # fibre(t_j) -> fibre(t_i)
    backward = transport.matrices_by_index(j, i)
    adjoints = bundle_adjoint_maps(transport.frames[i], transport.inverse_frames[j], forward)
    per_pair = np.max(np.abs(adjoints - backward), axis=(1, 2))
    return _judged("unitary_bundle_map", times[j], per_pair, tol)


def _check_picture_invariance(tol: float, cfg, times, transport, transported_section,
                              lifted_observables, heisenberg_values, series) -> CheckRecord:
    frames, into_t0, from_t0 = transport.frames, transport.into_t0, transport.from_t0
    psi_t = transported_section.values
    # The Heisenberg picture is V = U(t0, t).  Its means are finished before
    # the random V and V^-1 are built, so no Heisenberg observable stack is
    # alive beside them.
    heisenberg = {name: fibre_means(frames[0], to_general_picture_observables(
                      into_t0, from_t0, lifted.matrices), heisenberg_values)
                  for name, lifted in lifted_observables.items()}
    picture = PictureTransform.random_unitary(times, cfg.dimension, cfg.seed)
    v, v_inv = picture.matrices, picture.inverse_matrices
    psi_v = apply(v, psi_t)
    per_observable = {}
    for name, heis in heisenberg.items():
        a_lift = lifted_observables[name].matrices
        schro = fibre_means(frames, a_lift, psi_t)
        general = general_picture_means(
            v_inv, frames, to_general_picture_observables(v, v_inv, a_lift), psi_v)
        series[f"mean_heisenberg:{name}"] = heis.real
        per_observable[name] = np.maximum(np.abs(schro - heis), np.abs(schro - general))
    return _judged_per_observable("picture_invariance", times, per_observable, tol)


def _check_heisenberg_constancy(tol: float, times, transported_section,
                                heisenberg_values) -> CheckRecord:
    psi_t0 = transported_section.values[0]
    per_time = np.max(np.abs(heisenberg_values - psi_t0), axis=1)
    return _judged("heisenberg_constancy", times, per_time, tol)


def _check_density_consistency(tol: float, cfg, times, transport, density_transported,
                               series) -> CheckRecord:
    # rho(t) by the conventional propagators, lifted: l^-1 rho(t) l over the grid
    lifted = lift_operators(transport.frames, transport.inverse_frames,
                            evolve_density_morphisms(cfg.initial_density, transport.propagators))
    per_time = np.max(np.abs(density_transported - lifted), axis=(1, 2))
    series["density_residual"] = per_time
    return _judged("density_consistency", times, per_time, tol)


def _check_density_purity(tol: float, times, density_transported) -> CheckRecord:
    p = density_transported
    return _judged("density_purity", times, np.max(np.abs(p @ p - p), axis=(1, 2)), tol)


def _check_fibre_trace(tol: float, cfg, times, density_transported) -> CheckRecord:
    traces = np.trace(density_transported, axis1=1, axis2=2)
    per_time = np.abs(traces - np.trace(cfg.initial_density))
    return _judged("fibre_trace_preservation", times, per_time, tol)


# module_dualities and integrals_of_motion build their own record: each has a
# second pass condition besides the residual, and no worst time.
def _check_module_dualities(tol: float, cfg, times) -> CheckRecord:
    times = times[_coarse_indices(times.size)]
    n = cfg.dimension
    rng = np.random.default_rng([cfg.seed, 0x4D])
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

        mats = rng.normal(size=(times.size, n, n)) + 1j * rng.normal(size=(times.size, n, n))
        morphism = MorphismAlongPath(times, mats)
        recovered = section_operator_as_morphism(
            lambda sec: morphism_as_section_operator(morphism, sec), times, n)
        roundtrip_exact = (roundtrip_exact and np.array_equal(one_phi.values, phi.values)
                           and np.array_equal(recovered.matrices, morphism.matrices))
    return CheckRecord("module_dualities", worst, tol, worst <= tol and roundtrip_exact, None,
                       detail="round trips exact" if roundtrip_exact else "round trips NOT exact")


def _check_integrals_of_motion(tol: float, cfg, transport) -> CheckRecord:
    outcomes = []
    all_match = True
    worst = 0.0
    for cand in cfg.integral_candidates:
        report = is_integral_of_motion(cand.family, transport, tol)
        all_match = all_match and report.certified == cand.expected and report.criteria_agree
        if cand.expected:
            worst = max(worst, report.commutator_residual,
                        report.transport_residual or 0.0)
        outcomes.append(
            f"{cand.family.name}: certified={report.certified} expected={cand.expected} "
            f"residual={report.commutator_residual:.3e}")
    return CheckRecord("integrals_of_motion", worst, tol, all_match and worst <= tol,
                       None, detail="; ".join(outcomes))


def _check_physics_closed_form(tol: float, cfg, times, trajectory, series) -> CheckRecord:
    omega = cfg.rabi_omega
    states = trajectory.states
    flip = np.abs(states[:, 1]) ** 2 / trajectory.norm_sq()
    target = np.sin(omega * (times - times[0]) / 2.0) ** 2
    series["flip_probability"] = flip
    series["flip_probability_closed_form"] = target
    return _judged("physics_closed_form", times, np.abs(flip - target), tol,
                   f"rabi flip vs sin^2({omega:g} t / 2)")


# Check id -> check(tol, <nodes it reads>) -> its record; a check that tracks a
# quantity over the grid adds it to the `series` node.
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

# Check id or node name -> the nodes it reads, from its parameters at import: a
# traced run wraps the table's functions afresh on every pass.
_READS = {key: tuple(name for name in inspect.signature(build).parameters if name != "tol")
          for key, build in {**_NODES, **_CHECK_TABLE}.items()}


def _node_reads(key: str) -> FrozenSet[str]:
    """The `_NODES` entries `key` reads, directly or through another node."""
    return frozenset(name for read in _READS[key] if read in _NODES
                     for name in (read, *_node_reads(read)))


_NODE_READS = {key: _node_reads(key) for key in _READS}


def _read(nodes: dict, name: str):
    """Node `name`, built from its reads on first use; a build that raises stores nothing."""
    if name not in nodes:
        build = dict(_FAULTS[fault] for fault in nodes["cfg"].faults).get(name, _NODES[name])
        nodes[name] = build(*[_read(nodes, read) for read in _READS[name]])
    return nodes[name]


def build_artifacts(cfg: ScenarioConfig) -> dict:
    """The seeds and the `_SETUP` nodes, with the nodes those read."""
    nodes = {"cfg": cfg, "times": cfg.times, "series": {"time": cfg.times}}
    for name in _SETUP:
        _read(nodes, name)
    return nodes


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Run the conventional oracle, the bundle pipeline, and all requested checks."""
    started = time.perf_counter()
    records: List[CheckRecord] = []
    try:
        nodes = build_artifacts(cfg)
    except Exception as exc:  # surface as a failed record, never a silent pass
        records.append(CheckRecord("setup", float("inf"), 0.0, False, None,
                                   detail=f"{type(exc).__name__}: {exc}"))
        return ScenarioReport(cfg.name, records, cfg.echo, {}, time.perf_counter() - started)

    for name in set(_NODES) - set().union(*(_NODE_READS[c] for c in cfg.checks)):
        nodes.pop(name, None)  # a setup node that no requested check reads
    for k, check_id in enumerate(cfg.checks):
        tol = cfg.tolerances[check_id]
        try:
            records.append(_CHECK_TABLE[check_id](
                tol, *[_read(nodes, name) for name in _READS[check_id]]))
        except Exception as exc:
            records.append(CheckRecord(check_id, float("inf"), tol, False, None,
                                       detail=f"{type(exc).__name__}: {exc}"))
        for name in _NODE_READS[check_id]:  # dropped once no later requested check reads it
            if not any(name in _NODE_READS[later] for later in cfg.checks[k + 1:]):
                nodes.pop(name, None)  # a build that raised stored nothing
    timeseries = {key: np.asarray(value, dtype=float).tolist()
                  for key, value in nodes["series"].items()}
    return ScenarioReport(cfg.name, records, cfg.echo, timeseries, time.perf_counter() - started)
