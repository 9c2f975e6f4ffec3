"""Scenario execution: conventional oracle vs bundle pipeline, check by check.

Besides the seeds `cfg` and `times`, every node is a build in `_NODES` and every
check a function in `_CHECK_TABLE`; the parameters of each, after a check's
first, are the nodes it reads.  Setup reads the `_SETUP` nodes, which can reject
the scenario; a fault that is on swaps a node's build (`_FAULTS`).  A node is
built on first read and dropped after its last reader.  One runner, `_run_check`,
calls a pointwise check on each time block and judges the concatenated residuals
once.  A failure is a failed record, never a silent pass.  Scenarios share no
mutable state, so suites run them in any order.
"""

from __future__ import annotations

import inspect
import time
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

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
from .dynamics import PropagatorGrid, Trajectory, midpoint_propagators, propagate_states
from .hilbert import (
    apply,
    distinct_matrices,
    expectations,
    inner_products,
    max_abs,
    stack_by_blocks,
    time_blocks,
)
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

def _judged(check_id: str, times: np.ndarray, residuals: Dict[str, np.ndarray],
            tol: float) -> CheckRecord:
    """The record of the largest of the residuals (detail -> per-time series): the
    first in time, of the first detail that reaches it.  A NaN counts as the
    largest, so a NaN anywhere fails the check."""
    worst = [(detail, int(np.argmax(per_time))) for detail, per_time in residuals.items()]
    detail, idx = worst[int(np.argmax([residuals[d][i] for d, i in worst]))]
    value = float(residuals[detail][idx])
    return CheckRecord(check_id, value, tol, value <= tol, float(times[idx]), detail)


def _coarse_indices(n_times: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, n_times - 1, 9)).astype(int))


def _sample_triples(times: np.ndarray, seed: int) -> List[Tuple[float, float, float]]:
    idx = _coarse_indices(times.size)
    triples = [tuple(times[list(c)]) for c in combinations_with_replacement(idx, 3)]
    rng = np.random.default_rng([seed, 0x73])
    triples += [tuple(times[np.sort(rng.integers(0, times.size, size=3))]) for _ in range(40)]
    return [(float(r), float(s), float(t)) for (r, s, t) in triples]


# --- nodes built on first read ------------------------------------------------

def _grid_frames(cfg, times) -> Tuple[np.ndarray, np.ndarray]:
    """The checked frames l(t_k) on the grid and the inverses their check decided."""
    return cfg.trivialization.validate_on_grid(times)


def _steps(cfg, times) -> np.ndarray:
    """The conventional step propagators, read by the transport and the oracle only."""
    return midpoint_propagators(cfg.hamiltonian.at_many, times, cfg.constants)


def _transport(cfg, times, grid_frames, steps) -> EvolutionTransport:
    # the frames are read, so checked, before the Hamiltonian is sampled
    return EvolutionTransport(PropagatorGrid(cfg.hamiltonian, times, cfg.constants, steps),
                              *grid_frames)


def _trajectory(cfg, times, steps) -> Trajectory:
    """The conventional oracle: psi0 carried by the step propagators."""
    return Trajectory(times, propagate_states(steps, cfg.initial_state))


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

    def lifted(stack: np.ndarray) -> np.ndarray:
        return stack_by_blocks(*stack.shape[:2], lambda part: (
            lift_operators(frames[part], inv[part], stack[part])))

    return {name: MorphismAlongPath(times, lifted(stack)) for name, stack in observables.items()}


def _density_transported(cfg, transport) -> np.ndarray:
    """The lifted rho0 carried by transport conjugation, (N, n, n)."""
    return evolve_density_morphisms(lift_operators(
        transport.frames[0], transport.inverse_frames[0], cfg.initial_density), transport)


def _density_conventional(cfg, transport) -> np.ndarray:
    """rho0 carried by the conventional propagators, (N, n, n), by the same kernel."""
    return evolve_density_morphisms(cfg.initial_density, transport.propagators)


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


# Node name -> build.  Its parameters, like a check's after its first, are the nodes
# it reads, unannotated: each node's type is stated once, by its build.
_NODES = {
    "grid_frames": _grid_frames,
    "steps": _steps,
    "transport": _transport,
    "trajectory": _trajectory,
    "lifted": _lifted,
    "bundle_trivialization": _bundle_trivialization,
    "bundle_section": _bundle_section,
    "observables": _observables,
    "lifted_observables": _lifted_observables,
    "density_transported": _density_transported,
    "density_conventional": _density_conventional,
    "transported_section": _transported_section,
    "heisenberg_values": _heisenberg_values,
    "transport_axioms": _transport_axioms,
}
# Read in this order before any check; a failure among them is the `setup` record.
_SETUP = ("transport", "trajectory", "lifted", "bundle_section", "observables")
# Fault name -> (node, the build that replaces its own, with the same parameters).
_FAULTS = {"drop_trivialization_derivative": ("bundle_trivialization", _without_derivative)}


# --- pointwise checks ----------------------------------------------------------

# check(part, <nodes>) -> (residuals, series) for the time block `part`: detail ->
# the block's per-time residual, and timeseries name -> the block's values.

def _check_state_equivalence(part: slice, lifted, bundle_section):
    residual = np.max(np.abs(bundle_section.values[part] - lifted.values[part]), axis=1)
    return {"": residual}, {"state_equivalence_residual": residual}


def _check_norm_drift(part: slice, trajectory):
    states = trajectory.states
    norms = inner_products(states[part], states[part]).real
    return {"": np.abs(norms - inner_products(states[0], states[0]).real)}, {"norm_sq": norms}


def _check_mean_value_invariance(part: slice, transport, trajectory, lifted, observables,
                                 lifted_observables):
    psi, frames, values = trajectory.states[part], transport.frames[part], lifted.values[part]
    residuals, series = {}, {}
    for name, stack in observables.items():
        conv = expectations(psi, apply(stack[part], psi))
        bundle = fibre_means(frames, lifted_observables[name].matrices[part], values)
        series[f"mean_conventional:{name}"] = conv.real
        series[f"mean_bundle:{name}"] = bundle.real
        residuals[f"worst observable: {name}"] = np.abs(conv - bundle)
    return residuals, series


def _check_hermiticity_correspondence(part: slice, transport, observables, lifted_observables):
    frames, inv = transport.frames[part], transport.inverse_frames[part]
    residuals = {}
    for name, stack in observables.items():
        block = stack[part]
        one = distinct_matrices(block)  # a broadcast is conjugated once per block
        adjoint = np.broadcast_to(np.swapaxes(one.conj(), -2, -1), block.shape)
        deviation = lift_operators(frames, inv, adjoint)
        deviation -= bundle_adjoint_maps(frames, inv, lifted_observables[name].matrices[part])
        residuals[f"worst observable: {name}"] = np.max(np.abs(deviation), axis=(1, 2))
    return residuals, {}


def _check_picture_invariance(part: slice, cfg, times, transport, transported_section,
                              lifted_observables, heisenberg_values):
    frames, psi_t = transport.frames, transported_section.values[part]
    into_t0, from_t0 = transport.into_t0[part], transport.from_t0[part]
    # The random V and V^-1 of this block, sampled after V(t0), which the
    # transform checks to be the identity.
    picture = PictureTransform.random_unitary(np.concatenate([times[:1], times[part]]),
                                              cfg.dimension, cfg.seed)
    v, v_inv = picture.matrices[1:], picture.inverse_matrices[1:]
    psi_v = apply(v, psi_t)
    residuals, series = {}, {}
    for name, lifted in lifted_observables.items():
        a_lift = lifted.matrices[part]
        # the Heisenberg picture is V = U(t0, t)
        heis = fibre_means(frames[0], to_general_picture_observables(into_t0, from_t0, a_lift),
                           heisenberg_values[part])
        schro = fibre_means(frames[part], a_lift, psi_t)
        general = general_picture_means(
            v_inv, frames[part], to_general_picture_observables(v, v_inv, a_lift), psi_v)
        series[f"mean_heisenberg:{name}"] = heis.real
        residuals[f"worst observable: {name}"] = np.maximum(np.abs(schro - heis),
                                                            np.abs(schro - general))
    return residuals, series


def _check_heisenberg_constancy(part: slice, transported_section, heisenberg_values):
    psi_t0 = transported_section.values[0]
    return {"": np.max(np.abs(heisenberg_values[part] - psi_t0), axis=1)}, {}


def _check_density_consistency(part: slice, transport, density_transported, density_conventional):
    # rho(t) by the conventional propagators, lifted: l^-1 rho(t) l
    lifted = lift_operators(transport.frames[part], transport.inverse_frames[part],
                            density_conventional[part])
    residual = np.max(np.abs(density_transported[part] - lifted), axis=(1, 2))
    return {"": residual}, {"density_residual": residual}


def _check_density_purity(part: slice, density_transported):
    p = density_transported[part]
    return {"": np.max(np.abs(p @ p - p), axis=(1, 2))}, {}


def _check_fibre_trace(part: slice, cfg, density_transported):
    traces = np.trace(density_transported[part], axis1=1, axis2=2)
    return {"": np.abs(traces - np.trace(cfg.initial_density))}, {}


def _check_physics_closed_form(part: slice, cfg, times, trajectory):
    states = trajectory.states[part]
    flip = np.abs(states[:, 1]) ** 2 / inner_products(states, states).real
    target = np.sin(cfg.rabi_omega * (times[part] - times[0]) / 2.0) ** 2
    return ({f"rabi flip vs sin^2({cfg.rabi_omega:g} t / 2)": np.abs(flip - target)},
            {"flip_probability": flip, "flip_probability_closed_form": target})


# --- checks that build their own record -----------------------------------------

# check(tol, <nodes>) -> CheckRecord.  The transport checks take the worst value
# and its place from the TransportAxiomReport, unitary_bundle_map judges pairs of
# coarse times, and the last two have a second pass condition and no worst time.

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


def _check_unitary_bundle_map(tol: float, times, transport) -> CheckRecord:
    idx = _coarse_indices(times.size)
    i, j = (k.ravel() for k in np.meshgrid(idx, idx, indexing="ij"))
    forward = transport.matrices_by_index(i, j)    # fibre(t_j) -> fibre(t_i)
    backward = transport.matrices_by_index(j, i)
    adjoints = bundle_adjoint_maps(transport.frames[i], transport.inverse_frames[j], forward)
    per_pair = np.max(np.abs(adjoints - backward), axis=(1, 2))
    return _judged("unitary_bundle_map", times[j], {"": per_pair}, tol)


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


# Check id -> check, pointwise or building its own record, in execution order.
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

# Check id or node name -> the nodes it reads, and the pointwise checks, from their
# parameters at import: a traced run wraps the table's functions afresh on every pass.
_READS = {key: tuple(name for name in inspect.signature(build).parameters
                     if name not in ("tol", "part"))
          for key, build in {**_NODES, **_CHECK_TABLE}.items()}
_POINTWISE = frozenset(check_id for check_id, check in _CHECK_TABLE.items()
                       if "part" in inspect.signature(check).parameters)


def _read(nodes: dict, name: str):
    """Node `name`, built from its reads on first use; a build that raises stores nothing."""
    if name not in nodes:
        build = dict(_FAULTS[fault] for fault in nodes["cfg"].faults).get(name, _NODES[name])
        nodes[name] = build(*[_read(nodes, read) for read in _READS[name]])
    return nodes[name]


def _drop_unread(nodes: dict, pending: Sequence[str], keep: Sequence[str] = ()) -> None:
    """Drop every node but `keep` that no pending check or node build still reads.

    A pending check or unbuilt node reads its own reads, and through each of
    them that is not built yet, that node's reads; a node already built reads
    nothing more.  A build that raised stored nothing, so it is read again.
    """
    needed, todo = set(), [key for key in pending if key not in nodes]
    while todo:
        for read in _READS[todo.pop()]:
            if read in _NODES and read not in needed:
                needed.add(read)
                if read not in nodes:
                    todo.append(read)
    for name in set(_NODES) - needed - set(keep):
        nodes.pop(name, None)


def build_artifacts(cfg: ScenarioConfig) -> dict:
    """The seeds and the `_SETUP` nodes; a node that only setup reads is dropped once read."""
    nodes = {"cfg": cfg, "times": cfg.times}
    for k, name in enumerate(_SETUP):
        _read(nodes, name)
        _drop_unread(nodes, _SETUP[k + 1:] + tuple(cfg.checks), keep=_SETUP)
    return nodes


def _run_check(check_id: str, tol: float, cfg: ScenarioConfig,
               reads: list) -> Tuple[CheckRecord, Dict[str, np.ndarray]]:
    """A check's record and the timeseries it tracks.  A pointwise check runs on
    each `time_blocks` slice in turn, and its residuals, concatenated, are judged once."""
    check = _CHECK_TABLE[check_id]
    if check_id not in _POINTWISE:
        return check(tol, *reads), {}
    outputs = [check(part, *reads) for part in time_blocks(cfg.times.size, cfg.dimension)]
    # the residuals, then the series, of every block, concatenated key by key
    residuals, series = ({key: np.concatenate([block[key] for block in blocks])
                          for key in blocks[0]} for blocks in zip(*outputs))
    return _judged(check_id, cfg.times, residuals, tol), series


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

    _drop_unread(nodes, cfg.checks)  # a setup node that no requested check reads
    timeseries = {"time": cfg.times}
    for k, check_id in enumerate(cfg.checks):
        tol = cfg.tolerances[check_id]
        try:
            record, series = _run_check(check_id, tol, cfg,
                                        [_read(nodes, name) for name in _READS[check_id]])
            records.append(record)
            timeseries.update(series)
        except Exception as exc:
            records.append(CheckRecord(check_id, float("inf"), tol, False, None,
                                       detail=f"{type(exc).__name__}: {exc}"))
        _drop_unread(nodes, cfg.checks[k + 1:])
    timeseries = {key: np.asarray(values, dtype=float).tolist()
                  for key, values in timeseries.items()}
    return ScenarioReport(cfg.name, records, cfg.echo, timeseries, time.perf_counter() - started)
