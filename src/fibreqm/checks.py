"""Scenario execution: conventional oracle vs bundle pipeline, check by check.

Besides the seeds `cfg` and `times`, every node is a build in `_NODES` and every
check a function in `_CHECK_TABLE`; the parameters of each, after a check's or a
block node's first, are the nodes it reads.  Setup reads the `_SETUP` nodes,
which can reject the scenario; a fault that is on swaps a node's build
(`_FAULTS`).  A node is built on first read and dropped after its last reader.

Every check runs in one sweep, `_sweep`, over the `time_blocks` slices: a
pointwise check runs on each slice, and a check that builds its own record
reads there only the block nodes it reads, if any.  A block node, a build whose
first parameter is the slice `part`, is built on its first read in a slice,
shared by every check of that slice and dropped after its last reader there;
only pointwise checks, other block nodes and a check that builds its record
from a block node's per-time series read one.  The transport's t0 stacks are
such a node, `transport_t0`, and so are the rows of the frames, `frames`,
sampled once per slice where the grid's frames are a `bundle.GridFrames`, and
their inverses, `inverse_frames`, formed from that block by the rule the grid
check decided, which every lift, mean, adjoint map, density, integral deviation
and t0 row of the slice reads; the lifted states, `lifted`; the rows of the
conventional U(t, t0), `conventional_rows`, formed from their checkpoint, and
their inverses, `conventional_t0`, which the transport's t0 rows and the
conventional density share; and the Heisenberg-picture means,
`heisenberg_means`, the last reader of the t0 rows.  No whole one is formed, and
each slice samples its frames, and forms and inverts its conventional rows,
once.  The slices run concurrently on the workers of the pool helper
`hilbert._in_block_order`, the calling thread among them, so one slice's block
nodes are in flight per thread; every whole node they read is built before
them, and their outputs are folded in block order.  A slice runs its checks in
one fixed run order, that of `_CHECK_TABLE`, whatever the scenario's order: the
density checks and the transport criterion run before the checks that read the
lifted observables, so each slice drops its conventional rows and their
inverses, both densities and the frames' inverses before `picture_invariance`,
its largest check, forms its temporaries.  Between a check's reads and its call
the slice drops every block node that only fed those reads:
`density_consistency` forms its lift without the conventional rows and their
inverses, and `picture_invariance` samples its random picture without the t0
rows, which `heisenberg_means` read last.  Then each check, in the scenario's
order, finishes once: a pointwise check's residuals, concatenated, are judged,
and a check that builds its own record runs on its whole nodes and its block
nodes' series concatenated; the records keep the scenario's order.  A whole node
is dropped once no check still to finish reads it, the block nodes' series
being gathered already.  A failure is a failed record of its check alone, that
of its first failing slice, never a silent pass.  The whole nodes' own block
loops (sampling, exponentials, inverses) run on the same helper, on the calling
thread's behalf, and raise their first failing block's error, so a failed
`setup` record does not depend on the worker count either.  Scenarios share no
mutable state, so suites run them in any order.
"""

from __future__ import annotations

import functools
import inspect
import time
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .bundle import (
    FrameInverse,
    MorphismAlongPath,
    SectionAlongPath,
    TrivializationFamily,
    bundle_adjoint_maps,
    lift_operators,
    module_combine,
    morphism_as_section_operator,
    section_operator_as_morphism,
)
from .dynamics import PropagatorGrid, Trajectory
from .hilbert import (
    _in_block_order,
    apply,
    distinct_matrices,
    expectations,
    inner_products,
    max_abs,
    sorted_distinct,
    time_blocks,
)
from .pictures import (
    IntegralOfMotionReport,
    PictureTransform,
    commutator_criterion,
    evolve_density_morphisms,
    fibre_means,
    general_picture_means,
    to_general_picture_observables,
    transport_criterion,
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
    return sorted_distinct(np.round(np.linspace(0, n_times - 1, 9)).astype(int))


def _sample_triples(times: np.ndarray, seed: int) -> List[Tuple[float, float, float]]:
    idx = _coarse_indices(times.size)
    triples = [tuple(times[list(c)]) for c in combinations_with_replacement(idx, 3)]
    rng = np.random.default_rng([seed, 0x73])
    triples += [tuple(times[np.sort(rng.integers(0, times.size, size=3))]) for _ in range(40)]
    return [(float(r), float(s), float(t)) for (r, s, t) in triples]


# --- nodes built on first read ------------------------------------------------

def _grid_frames(cfg, times) -> tuple:
    """The checked frames l(t_k) on the grid, a stack or a `bundle.GridFrames` reader,
    and the `FrameInverse` their check decided (`validate_on_grid`'s reducing pass)."""
    return cfg.trivialization.validate_on_grid(times)


def _conventional(cfg, times) -> Tuple[Trajectory, PropagatorGrid]:
    """(the conventional oracle, the propagator grid): one sequential pass over the
    step propagators carries psi0 and keeps the products U(t, t0) only at each time
    block's start and over the last time block (`dynamics.CheckpointedProducts`).
    The grid keeps the steps: a constant H's few distinct exponentials and the step
    index, or a time-dependent H's stack of steps, in place of a stack of products."""
    grid = PropagatorGrid(cfg.hamiltonian, times, cfg.constants, psi0=cfg.initial_state)
    return Trajectory(times, grid.states), grid


def _transport(grid_frames, conventional) -> EvolutionTransport:
    """The transport over the checked frames and the conventional node's propagator
    grid, which it keeps as it is: its build forms no stack."""
    return EvolutionTransport(conventional[1], *grid_frames)


def _trajectory(conventional) -> Trajectory:
    """The conventional oracle: psi0 carried by the step propagators."""
    return conventional[0]


def _bundle_trivialization(cfg) -> TrivializationFamily:
    return cfg.trivialization  # the frames that the bundle generator reads


def _lifted_t0(cfg, grid_frames) -> np.ndarray:
    """l(t0)^-1 psi0, the lifted initial state: `lifted`'s first row, with its bits, from
    the frames' kept l(t0).  The bundle section, setup's first node, reads it, so the
    frames are checked before the Hamiltonian is sampled."""
    return apply(grid_frames[1][:1], cfg.initial_state[None])[0]


def _bundle_section(cfg, times, bundle_trivialization, lifted_t0) -> SectionAlongPath:
    return integrate_bundle_schrodinger(MatrixBundleHamiltonian(
        cfg.hamiltonian, bundle_trivialization, times, cfg.constants), lifted_t0)


def _observables(cfg, times) -> Dict[str, np.ndarray]:
    """Name -> grid samples (N, n, n), each family sampled once."""
    return {family.name: family.at_many(times) for family in cfg.observables}


def _section_t0(transport, lifted_t0) -> np.ndarray:
    """U(t0, t0) Psi(t0), the transported section's first row, by that one row of the
    transport: the reference every Heisenberg state is compared with."""
    return apply(transport.matrices_from(transport.times[0], slice(0, 1)), lifted_t0)[0]


def _integral_commutators(cfg, transport) -> List[tuple]:
    """Per integral candidate: its commutator residual and, where dA/dt is zero on the
    grid, its samples A(t_k) and the lifted A(t0) that the transport criterion reads
    (None and None elsewhere)."""
    frames, inverse_frames = transport.frames, transport.inverse_frames
    out = []
    for cand in cfg.integral_candidates:
        residual, a_vals = commutator_criterion(cand.family, transport)
        a0_fibre = (None if a_vals is None
                    else lift_operators(frames[0], inverse_frames[0], a_vals[0]))
        out.append((residual, a_vals, a0_fibre))
    return out


def _without_derivative(cfg) -> TrivializationFamily:
    """The same frames l(t) with dl/dt = 0, which drops the frame-derivative term."""
    n = cfg.trivialization.dimension
    return cfg.trivialization.with_derivative(lambda ts: np.zeros((ts.size, n, n), dtype=complex))


def _random_picture(cfg):
    """times -> the scenario's random unitary picture on those times, its generators
    drawn once for every block of `picture_invariance`."""
    return PictureTransform.random_unitary_sampler(cfg.dimension, cfg.seed)


# A block node: build(part, <nodes>) -> its value on the sweep's slice `part` alone.

def _frames(part: slice, transport) -> np.ndarray:
    """The block's rows of the frames l, (b, n, n), read once: but for a broadcast the
    frames are a `bundle.GridFrames`, and this samples the block's times, once per
    slice.  Every reader of the frames in a slice reads this block."""
    return transport.frames[part]


def _inverse_frames(part: slice, transport, frames) -> np.ndarray:
    """The block's rows of the frames' inverses l^-1, (b, n, n), formed once from the
    `frames` block by the rule the grid check decided (`FrameInverse.read`): the
    adjoint of each row, or its `np.linalg.inv`.  Every reader of the inverses in a
    slice reads this block."""
    return transport.inverse_frames.read(part, frames)


def _conventional_rows(part: slice, transport) -> np.ndarray:
    """The block's rows of the conventional U(t, t0), (b, n, n), formed once from their
    checkpoint for the transport's t0 rows, the conventional density and their
    inverses."""
    return transport.propagators.from_t0[part]


def _conventional_t0(part: slice, conventional_rows) -> np.ndarray:
    """The block's rows of the conventional U(t0, t), (b, n, n), inverted once for the
    transport's t0 rows and the conventional density, with the bits of
    `propagators.into_t0[part]`."""
    return FrameInverse(conventional_rows, adjoint=False)[:]


def _transport_t0(part: slice, transport, frames, inverse_frames, conventional_rows,
                  conventional_t0) -> Tuple[np.ndarray, np.ndarray]:
    """The block's rows of the t0 stacks: (U(t, t0), U(t0, t)), each (b, n, n), from
    the block's frames, inverses and conventional rows."""
    t0 = transport.times[0]
    return (transport.matrices_from(t0, part, conventional_rows, inverse_frames),
            transport.matrices_into(t0, part, conventional_t0, frames))


def _lifted(part: slice, trajectory, inverse_frames) -> np.ndarray:
    """The conventional states lifted into the fibres over the block, l^-1 psi, (b, n)."""
    return apply(inverse_frames, trajectory.states[part])


def _lifted_observables(part: slice, frames, inverse_frames,
                        observables) -> Dict[str, np.ndarray]:
    """Name -> the lifted morphisms l^-1 A l of the block, (b, n, n)."""
    return {name: lift_operators(frames, inverse_frames, stack[part])
            for name, stack in observables.items()}


def _density_transported(part: slice, cfg, transport, transport_t0) -> np.ndarray:
    """The lifted rho0 carried by transport conjugation over the block, (b, n, n)."""
    return evolve_density_morphisms(lift_operators(
        transport.frames[0], transport.inverse_frames[0], cfg.initial_density), *transport_t0)


def _density_conventional(part: slice, cfg, conventional_rows, conventional_t0) -> np.ndarray:
    """rho0 carried by the conventional propagators over the block, by the same kernel."""
    return evolve_density_morphisms(cfg.initial_density, conventional_rows, conventional_t0)


def _transported_section(part: slice, lifted_t0, transport_t0) -> np.ndarray:
    """U(t, t0) Psi(t0) over the block, (b, n)."""
    return apply(transport_t0[0], lifted_t0)


def _heisenberg_values(part: slice, transport_t0, transported_section) -> np.ndarray:
    """U(t0, t) Psi(t) over the block: the transported section carried back to t0."""
    return apply(transport_t0[1], transported_section)


def _heisenberg_means(part: slice, transport, transport_t0, lifted_observables,
                      heisenberg_values) -> Dict[str, np.ndarray]:
    """Name -> the Heisenberg-picture means over the block, V = U(t0, t): each lifted
    observable carried to t0, U(t0, t) A U(t, t0), and its mean in the fibre over t0
    on the Heisenberg states.  Its build is the last read of the slice's t0 rows, so
    they go before `picture_invariance` samples its random picture."""
    from_t0, into_t0 = transport_t0
    return {name: fibre_means(transport.frames[0], to_general_picture_observables(
        into_t0, from_t0, a_lift), heisenberg_values)
        for name, a_lift in lifted_observables.items()}


def _integral_deviations(part: slice, frames, inverse_frames, integral_commutators,
                         transport_t0) -> Dict[int, np.ndarray]:
    """Candidate index -> the transport criterion's deviation at each time of the block,
    for each candidate whose dA/dt is zero on the grid."""
    return {k: transport_criterion(lift_operators(frames, inverse_frames, a_vals[part]),
                                   a0_fibre, *transport_t0)
            for k, (_, a_vals, a0_fibre) in enumerate(integral_commutators)
            if a_vals is not None}


def _transport_axioms(cfg, times, transport) -> Tuple[int, TransportAxiomReport]:
    """Sampled triple count and transport-axiom deviations, judged by both transport checks."""
    triples = _sample_triples(times, cfg.seed)
    return len(triples), check_transport_axioms(transport, triples)


# Node name -> build.  Its parameters, like a check's or a block node's after its
# first, are the nodes it reads, unannotated: each node's type is stated once, by
# its build.
_NODES = {
    "grid_frames": _grid_frames,
    "conventional": _conventional,
    "transport": _transport,
    "trajectory": _trajectory,
    "lifted_t0": _lifted_t0,
    "bundle_trivialization": _bundle_trivialization,
    "bundle_section": _bundle_section,
    "observables": _observables,
    "section_t0": _section_t0,
    "integral_commutators": _integral_commutators,
    "random_picture": _random_picture,
    "frames": _frames,
    "inverse_frames": _inverse_frames,
    "lifted": _lifted,
    "conventional_rows": _conventional_rows,
    "conventional_t0": _conventional_t0,
    "transport_t0": _transport_t0,
    "lifted_observables": _lifted_observables,
    "density_transported": _density_transported,
    "density_conventional": _density_conventional,
    "transported_section": _transported_section,
    "heisenberg_values": _heisenberg_values,
    "heisenberg_means": _heisenberg_means,
    "integral_deviations": _integral_deviations,
    "transport_axioms": _transport_axioms,
}
# Read in this order before any check; a failure among them is the `setup` record.  The
# bundle section comes first, from the lifted initial state alone, its steps formed and
# dropped one time block at a time on each worker; then one pass over the conventional steps
# carries psi0 and keeps only the checkpoints of their products, which the transport
# reads.  Setup holds a time-dependent H's stack of steps and no other: the frames are
# checked in one reducing pass and only l(t0) is kept, and no whole stack of the products
# or of their inverses is formed.
_SETUP = ("bundle_section", "trajectory", "transport", "observables")
# Fault name -> (node, the build that replaces its own, with the same parameters).
_FAULTS = {"drop_trivialization_derivative": ("bundle_trivialization", _without_derivative)}


# --- pointwise checks ----------------------------------------------------------

# check(part, <nodes>) -> (residuals, series) for the sweep's slice `part`: detail ->
# the slice's per-time residual, and timeseries name -> the slice's values.

def _check_state_equivalence(part: slice, lifted, bundle_section):
    residual = np.max(np.abs(bundle_section.values[part] - lifted), axis=1)
    return {"": residual}, {"state_equivalence_residual": residual}


def _check_norm_drift(part: slice, trajectory):
    states = trajectory.states
    norms = inner_products(states[part], states[part]).real
    return {"": np.abs(norms - inner_products(states[0], states[0]).real)}, {"norm_sq": norms}


def _check_mean_value_invariance(part: slice, trajectory, frames, lifted, observables,
                                 lifted_observables):
    psi = trajectory.states[part]
    residuals, series = {}, {}
    for name, stack in observables.items():
        conv = expectations(psi, apply(stack[part], psi))
        bundle = fibre_means(frames, lifted_observables[name], lifted)
        series[f"mean_conventional:{name}"] = conv.real
        series[f"mean_bundle:{name}"] = bundle.real
        residuals[f"worst observable: {name}"] = np.abs(conv - bundle)
    return residuals, series


def _check_hermiticity_correspondence(part: slice, frames, inverse_frames, observables,
                                      lifted_observables):
    residuals = {}
    for name, stack in observables.items():
        block = stack[part]
        one = distinct_matrices(block)  # a broadcast is conjugated once per block
        adjoint = np.broadcast_to(np.swapaxes(one.conj(), -2, -1), block.shape)
        deviation = lift_operators(frames, inverse_frames, adjoint)
        deviation -= bundle_adjoint_maps(frames, inverse_frames, lifted_observables[name])
        residuals[f"worst observable: {name}"] = np.max(np.abs(deviation), axis=(1, 2))
    return residuals, {}


def _check_picture_invariance(part: slice, times, frames, random_picture, transported_section,
                              lifted_observables, heisenberg_means):
    psi_t = transported_section
    # The random V and V^-1 of this block, sampled after V(t0), which the
    # transform checks to be the identity.
    picture = random_picture(np.concatenate([times[:1], times[part]]))
    v, v_inv = picture.matrices[1:], picture.inverse_matrices[1:]
    psi_v = apply(v, psi_t)
    residuals, series = {}, {}
    for name, a_lift in lifted_observables.items():
        heis = heisenberg_means[name]  # the Heisenberg picture, V = U(t0, t)
        schro = fibre_means(frames, a_lift, psi_t)
        general = general_picture_means(
            v_inv, frames, to_general_picture_observables(v, v_inv, a_lift), psi_v)
        series[f"mean_heisenberg:{name}"] = heis.real
        residuals[f"worst observable: {name}"] = np.maximum(np.abs(schro - heis),
                                                            np.abs(schro - general))
    return residuals, series


def _check_heisenberg_constancy(part: slice, section_t0, heisenberg_values):
    return {"": np.max(np.abs(heisenberg_values - section_t0), axis=1)}, {}


def _check_density_consistency(part: slice, frames, inverse_frames, density_transported,
                               density_conventional):
    # rho(t) by the conventional propagators, lifted: l^-1 rho(t) l
    deviation = lift_operators(frames, inverse_frames, density_conventional)
    deviation -= density_transported  # |b - a| has the bits of |a - b|
    residual = np.max(np.abs(deviation), axis=(1, 2))
    return {"": residual}, {"density_residual": residual}


def _check_density_purity(part: slice, density_transported):
    p = density_transported
    return {"": np.max(np.abs(p @ p - p), axis=(1, 2))}, {}


def _check_fibre_trace(part: slice, cfg, density_transported):
    traces = np.trace(density_transported, axis1=1, axis2=2)
    return {"": np.abs(traces - np.trace(cfg.initial_density))}, {}


def _check_physics_closed_form(part: slice, cfg, times, trajectory):
    states = trajectory.states[part]
    flip = np.abs(states[:, 1]) ** 2 / inner_products(states, states).real
    target = np.sin(cfg.rabi_omega * (times[part] - times[0]) / 2.0) ** 2
    return ({f"rabi flip vs sin^2({cfg.rabi_omega:g} t / 2)": np.abs(flip - target)},
            {"flip_probability": flip, "flip_probability_closed_form": target})


# --- checks that build their own record -----------------------------------------

# check(tol, <nodes>) -> CheckRecord, called once after the sweep's slices; a
# block node it reads is its per-time series concatenated over the slices, as
# integrals_of_motion reads integral_deviations.  The transport checks take the
# worst value and its place from the TransportAxiomReport, unitary_bundle_map
# judges pairs of coarse times, and the last two have a second pass condition and
# no worst time.

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
    # U(t_j, t_i), the query of the transposed pair
    backward = forward[np.arange(i.size).reshape(idx.size, idx.size).T.ravel()]
    frames = transport.frames[idx]  # each coarse time sampled once
    at_i, at_j = (k.ravel() for k in np.meshgrid(*[np.arange(idx.size)] * 2, indexing="ij"))
    adjoints = bundle_adjoint_maps(frames[at_i], transport.inverse_frames.read(j, frames[at_j]),
                                   forward)
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


def _check_integrals_of_motion(tol: float, cfg, integral_commutators,
                               integral_deviations) -> CheckRecord:
    outcomes = []
    all_match = True
    worst = 0.0
    for k, cand in enumerate(cfg.integral_candidates):
        transport_residual = (max_abs(integral_deviations[k]) if k in integral_deviations
                              else None)
        report = IntegralOfMotionReport.decided(integral_commutators[k][0], transport_residual,
                                                tol)
        all_match = all_match and report.certified == cand.expected and report.criteria_agree
        if cand.expected:
            worst = max(worst, report.commutator_residual,
                        report.transport_residual or 0.0)
        outcomes.append(
            f"{cand.family.name}: certified={report.certified} expected={cand.expected} "
            f"residual={report.commutator_residual:.3e}")
    return CheckRecord("integrals_of_motion", worst, tol, all_match and worst <= tol,
                       None, detail="; ".join(outcomes))


# Check id -> check, pointwise or building its own record, in the order each slice
# of the sweep runs them: the readers of the densities and of the transport
# criterion before the readers of the lifted observables (see the module docstring).
_CHECK_TABLE = {
    "state_equivalence": _check_state_equivalence,
    "norm_drift": _check_norm_drift,
    "transport_identity": _check_transport_identity,
    "transport_composition": _check_transport_composition,
    "density_consistency": _check_density_consistency,
    "density_purity": _check_density_purity,
    "fibre_trace_preservation": _check_fibre_trace,
    "integrals_of_motion": _check_integrals_of_motion,
    "mean_value_invariance": _check_mean_value_invariance,
    "hermiticity_correspondence": _check_hermiticity_correspondence,
    "unitary_bundle_map": _check_unitary_bundle_map,
    "picture_invariance": _check_picture_invariance,
    "heisenberg_constancy": _check_heisenberg_constancy,
    "module_dualities": _check_module_dualities,
    "physics_closed_form": _check_physics_closed_form,
}

# Check id or node name -> the nodes it reads, the pointwise checks and the block
# nodes, from their parameters at import: a traced run wraps the table's functions
# afresh on every pass.
_READS = {key: tuple(name for name in inspect.signature(build).parameters
                     if name not in ("tol", "part"))
          for key, build in {**_NODES, **_CHECK_TABLE}.items()}
_POINTWISE = frozenset(check_id for check_id, check in _CHECK_TABLE.items()
                       if "part" in inspect.signature(check).parameters)
_BLOCK_NODES = frozenset(name for name, build in _NODES.items()
                         if "part" in inspect.signature(build).parameters)


def _read(nodes: dict, name: str, block: dict | None = None):
    """Node `name`, built from its reads on first use; a build that raises stores nothing.

    A block node is built into `block`, the nodes of one slice of the sweep,
    whose seed "part" is that slice; every other node into `nodes`.
    """
    store = block if name in _BLOCK_NODES else nodes
    if name not in store:
        build = dict(_FAULTS[fault] for fault in nodes["cfg"].faults).get(name, _NODES[name])
        reads = [_read(nodes, read, block) for read in _READS[name]]
        store[name] = build(block["part"], *reads) if name in _BLOCK_NODES else build(*reads)
    return store[name]


def _drop_unread(nodes: dict, pending: Sequence[str], keep: Sequence[str] = (),
                 built: Sequence[str] = ()) -> None:
    """Drop every node but `keep` that no pending check or node build still reads.

    A pending check or unbuilt node reads its own reads, and through each of
    them that is not built yet, that node's reads; a node already built, or
    named in `built`, reads nothing more.  A build that raised stored nothing,
    so it is read again.
    """
    needed, todo = set(), [key for key in pending if key not in nodes]
    while todo:
        for read in _READS[todo.pop()]:
            if read in _NODES and read not in needed:
                needed.add(read)
                if read not in nodes and read not in built:
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


def _failed(check_id: str, tol: float, exc: Exception) -> CheckRecord:
    """The record of a check, or of setup, that raised: a failure, never a silent pass."""
    return CheckRecord(check_id, float("inf"), tol, False, None,
                       detail=f"{type(exc).__name__}: {exc}")


def _concatenated(blocks: Sequence[dict]) -> dict:
    """The per-time series of every block, each a dict, concatenated key by key."""
    return {key: np.concatenate([block[key] for block in blocks]) for key in blocks[0]}


def _judged_blocks(check_id: str, tol: float, times: np.ndarray,
                   outputs: list) -> Tuple[CheckRecord, Dict[str, np.ndarray]]:
    """A pointwise check's record and timeseries from its (residuals, series) per block."""
    residuals, series = (_concatenated(blocks) for blocks in zip(*outputs))
    return _judged(check_id, times, residuals, tol), series


def _slice_reads(key: str) -> List[str]:
    """The nodes a slice reads for the check or block node `key`: all its reads, but
    only the block nodes of a check that builds its own record, which reads its
    whole nodes after the slices."""
    return [name for name in _READS[key]
            if key in _POINTWISE or key in _BLOCK_NODES or name in _BLOCK_NODES]


def _whole_reads(check_ids: Sequence[str]) -> List[str]:
    """The nodes without a slice that the slices read for the checks, in the
    order a slice first reads them."""
    found = []

    def visit(key):
        for read in _slice_reads(key):
            if read in _BLOCK_NODES:
                visit(read)
            elif read in _NODES and read not in found:
                found.append(read)

    for check_id in check_ids:
        visit(check_id)
    return found


def _run_block(nodes: dict, check_ids: Sequence[str], part: slice) -> dict:
    """Check id -> its output on the sweep's slice `part`, or its failed record.

    The checks run in `check_ids` order; the block nodes they read are built
    once, into the slice's own dict, and each is dropped after its last reader
    in the slice: a node that only fed a check's reads before that check's call.
    A pointwise check's output is its (residuals, series), that of a check that
    builds its own record its block nodes.
    """
    block, out = {"part": part}, {}
    for k, check_id in enumerate(check_ids):
        try:
            out[check_id] = _block_output(nodes, check_ids[k:], block)
        except Exception as exc:
            out[check_id] = _failed(check_id, nodes["cfg"].tolerances[check_id], exc)
        _drop_unread(block, check_ids[k + 1:])
    return out


def _block_output(nodes: dict, pending: Sequence[str], block: dict):
    """The output of the first `pending` check on the slice of `block`.  The block
    nodes that no pending check reads any more, those that only its reads needed,
    are dropped before its call, and its reads are held no longer than its call,
    unless they are its output."""
    check_id = pending[0]
    reads = {name: _read(nodes, name, block) for name in _slice_reads(check_id)}
    if check_id not in _POINTWISE:
        return reads
    _drop_unread(block, pending)
    return _CHECK_TABLE[check_id](block["part"], *reads.values())


def _sweep(nodes: dict, check_ids: Sequence[str]) -> dict:
    """Check id -> (record, series) of each check, from one pass over the
    `time_blocks` slices.

    Every whole node that the slices read is built first, on the calling thread;
    then the slices run on the workers (`_run_block`, `hilbert._in_block_order`),
    on the calling thread alone if one of those builds raised, so that each
    reader builds it again and fails by its error.  Each slice runs its checks in
    the run order of `_CHECK_TABLE`, not in `check_ids` order, so that its
    largest check runs beside its own block nodes alone; a check's output does
    not depend on that order, since a block node that raised stored nothing and
    is built again, and fails again, for each reader.  The outputs are folded in
    block order: a check's first failed record is its record and its later
    blocks are discarded.  After the last slice every other check finishes once,
    in `check_ids` order: a pointwise check's blocks are judged, and a check that
    builds its own record runs on its whole nodes, built on first read, and on
    each block node it reads concatenated over the slices.  Before each, the
    whole nodes that no check still to finish reads are dropped.
    """
    cfg = nodes["cfg"]
    run_order = [check_id for check_id in _CHECK_TABLE if check_id in check_ids]
    run = functools.partial(_run_block, nodes, run_order)
    parts = time_blocks(cfg.times.size, cfg.dimension)
    try:
        for name in _whole_reads(run_order):
            _read(nodes, name)
    except Exception:
        blocks = [run(part) for part in parts]
    else:
        blocks = _in_block_order(run, parts)
    outputs = {check_id: [] for check_id in check_ids}  # each block's output or block nodes
    outcomes = {}
    for block in blocks:
        for check_id, output in block.items():
            if check_id in outcomes:  # failed in an earlier block
                continue
            if isinstance(output, CheckRecord):
                outcomes[check_id] = output, {}
            else:
                outputs[check_id].append(output)
    for k, check_id in enumerate(check_ids):
        # the slices have gathered every block node a check still to finish reads
        _drop_unread(nodes, [later for later in check_ids[k:] if later not in _POINTWISE],
                     built=_BLOCK_NODES)
        if check_id in outcomes:
            continue
        tol = cfg.tolerances[check_id]
        try:
            if check_id in _POINTWISE:
                outcomes[check_id] = _judged_blocks(check_id, tol, cfg.times, outputs[check_id])
            else:
                reads = [_concatenated([block[name] for block in outputs[check_id]])
                         if name in _BLOCK_NODES else _read(nodes, name)
                         for name in _READS[check_id]]
                outcomes[check_id] = _CHECK_TABLE[check_id](tol, *reads), {}
        except Exception as exc:
            outcomes[check_id] = _failed(check_id, tol, exc), {}
    return outcomes


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Run the conventional oracle, the bundle pipeline, and all requested checks."""
    started = time.perf_counter()
    try:
        nodes = build_artifacts(cfg)
    except Exception as exc:
        return ScenarioReport(cfg.name, [_failed("setup", 0.0, exc)], cfg.echo, {},
                              time.perf_counter() - started)

    _drop_unread(nodes, cfg.checks)  # a setup node that no requested check reads
    outcomes = _sweep(nodes, cfg.checks)  # check id -> (record, series)
    del nodes  # no check reads a node any more

    timeseries = {"time": cfg.times}  # held as read-only float64 arrays by the report
    for check_id in cfg.checks:
        timeseries.update(outcomes[check_id][1])
    return ScenarioReport(cfg.name, [outcomes[check_id][0] for check_id in cfg.checks],
                          cfg.echo, timeseries, time.perf_counter() - started)
