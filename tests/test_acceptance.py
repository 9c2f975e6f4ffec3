"""Acceptance suite: one test per criterion, each at its stated tolerance.

A summary line per criterion is printed in the terminal summary (see
conftest) and written to acceptance_report.txt.
"""

import json
from importlib import resources

import numpy as np

from fibreqm.bundle import (
    bundle_adjoint_maps,
    constant_trivialization,
    diagonal_phase_trivialization,
    identity_trivialization,
    lift_operator,
    lift_operator_on_grid,
    lift_trajectory,
    module_combine,
    morphism_as_section_operator,
    random_smooth_unitary_trivialization,
    section_operator_as_morphism,
    MorphismAlongPath,
    SectionAlongPath,
)
from fibreqm.checks import run_scenario
from fibreqm.dynamics import (
    HamiltonianFamily,
    ObservableFamily,
    PropagatorGrid,
    evolve_state,
    midpoint_propagators,
    propagate_states,
    step_products,
    uniform_grid,
)
from fibreqm.hilbert import SIGMA_X, SIGMA_Z, inner_products, is_hermitian, max_abs
from fibreqm.pictures import is_integral_of_motion
from fibreqm.scenario import scenario_from_dict
from fibreqm.transport import EvolutionTransport

EQUIVALENCE_CHECKS = (
    "state_equivalence",
    "mean_value_invariance",
    "hermiticity_correspondence",
    "density_consistency",
)


def _catalog_raw(name: str) -> dict:
    root = resources.files("fibreqm") / "catalog"
    manifest = json.loads((root / "manifest.json").read_text())
    for entry in manifest["scenarios"]:
        raw = json.loads((root / entry).read_text())
        if raw["name"] == name:
            return raw
    raise KeyError(name)


def _records(suite, check):
    out = []
    for rep in suite.reports:
        for r in rep.records:
            if r.check == check:
                out.append((rep.scenario, r))
    return out


def test_criterion_1_state_equivalence_across_catalog(catalog_suite, acceptance):
    suite, elapsed = catalog_suite
    records = _records(suite, "state_equivalence")
    assert len(records) == 10
    worst = max(r.max_residual for _, r in records)
    ok = all(r.passed and r.max_residual <= 1e-6 for _, r in records) and elapsed < 10.0
    acceptance(1, "state equivalence over the 10 catalog scenarios",
               ok, f"worst residual {worst:.3e}, suite wall time {elapsed:.2f}s")


def test_criterion_2_mean_value_invariance_random_triples(acceptance):
    worst = 0.0
    times = uniform_grid(0.0, 1.0, 100)
    for n in (2, 4, 8):
        for trial in range(20):
            rng = np.random.default_rng([97, n, trial])
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            hamiltonian = HamiltonianFamily.constant((m + m.conj().T) / np.sqrt(n))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            pick = trial % 3
            if pick == 0:
                l = random_smooth_unitary_trivialization(n, 1000 + trial + n)
            elif pick == 1:
                l = diagonal_phase_trivialization(rng.uniform(-2, 2, size=n))
            else:
                l = constant_trivialization(
                    np.diag(1.0 + rng.uniform(0.1, 2.0, size=n)).astype(complex))
            steps = midpoint_propagators(hamiltonian, times)
            grid = PropagatorGrid(hamiltonian, times, from_t0=step_products(steps))
            psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
            states = propagate_states(steps, psi0)
            section = lift_trajectory(l, times, states)
            lifted = lift_operator_on_grid(l, times, a)
            frames = l.at_many(times)
            y = np.einsum("kij,kj->ki", frames, section.values)
            z = np.einsum("kij,kj->ki", frames,
                          np.einsum("kij,kj->ki", lifted.matrices, section.values))
            bundle = np.einsum("ki,ki->k", y.conj(), z) / np.einsum(
                "ki,ki->k", y.conj(), y).real
            conv = np.einsum("ki,ki->k", states.conj(),
                             np.einsum("ij,kj->ki", a, states)) / np.einsum(
                "ki,ki->k", states.conj(), states).real
            worst = max(worst, float(np.max(np.abs(bundle - conv))))
    acceptance(2, "mean-value invariance on 20 seeded triples at n in {2,4,8}",
               worst <= 1e-10, f"worst pointwise disagreement {worst:.3e}")


def test_criterion_3_transport_axioms(catalog_suite, acceptance):
    suite, _ = catalog_suite
    identity_records = _records(suite, "transport_identity")
    composition_records = _records(suite, "transport_composition")
    assert len(identity_records) == 10 and len(composition_records) == 10
    worst_id = max(r.max_residual for _, r in identity_records)
    worst_comp = max(r.max_residual for _, r in composition_records)
    ok = worst_id <= 1e-12 and worst_comp <= 1e-10
    acceptance(3, "transport identity and composition axioms",
               ok, f"identity {worst_id:.3e}, composition {worst_comp:.3e}")


def test_criterion_4_hermiticity_unitarity_correspondence(catalog_suite, acceptance):
    suite, _ = catalog_suite
    herm = _records(suite, "hermiticity_correspondence")
    unit = _records(suite, "unitary_bundle_map")
    worst_h = max(r.max_residual for _, r in herm)
    worst_u = max(r.max_residual for _, r in unit)
    positive = all(r.passed for _, r in herm) and worst_h <= 1e-10 \
        and all(r.passed for _, r in unit) and worst_u <= 1e-8

    # negative control: a non-Hermitian operator is not a Hermitian morphism
    l = random_smooth_unitary_trivialization(2, 555)
    non_hermitian = SIGMA_Z + 0.5j * SIGMA_X
    lifted = lift_operator(l, 0.3, non_hermitian)
    lt = l.at(0.3)
    neg_morphism = max_abs(bundle_adjoint_maps(lt, np.linalg.inv(lt), lifted) - lifted) > 1e-3
    assert not is_hermitian(non_hermitian, 1e-10)

    # negative control: non-Hermitian generator breaks the unitary bundle map
    times = uniform_grid(0.0, 1.0, 200)
    bad_h = HamiltonianFamily.constant(SIGMA_Z + 0.4j * SIGMA_X, hermitian_expected=False)
    transport = EvolutionTransport(PropagatorGrid(bad_h, times), l.at_many(times))
    forward, backward = transport.matrices_by_index([0, 200], [200, 0])  # U(0, 1), U(1, 0)
    adj = bundle_adjoint_maps(transport.frames[0], transport.inverse_frames[200], forward)
    neg_transport = max_abs(adj - backward) > 1e-3

    ok = positive and neg_morphism and neg_transport
    acceptance(4, "Hermiticity/unitarity correspondence with negative controls",
               ok, f"lift residual {worst_h:.3e}, transport adjoint residual {worst_u:.3e}")


def test_criterion_5_picture_invariance(catalog_suite, acceptance):
    suite, _ = catalog_suite
    pictures = _records(suite, "picture_invariance")
    constancy = _records(suite, "heisenberg_constancy")
    assert pictures and constancy
    worst_p = max(r.max_residual for _, r in pictures)
    worst_c = max(r.max_residual for _, r in constancy)
    ok = worst_p <= 1e-8 and worst_c <= 1e-8 \
        and all(r.passed for _, r in pictures) and all(r.passed for _, r in constancy)
    acceptance(5, "picture invariance and Heisenberg state constancy",
               ok, f"means {worst_p:.3e}, constancy {worst_c:.3e}")


def test_criterion_6_density_consistency(catalog_suite, acceptance):
    suite, _ = catalog_suite
    consistency = _records(suite, "density_consistency")
    purity = _records(suite, "density_purity")
    trace = _records(suite, "fibre_trace_preservation")
    worst_d = max(r.max_residual for _, r in consistency)
    worst_p = max(r.max_residual for _, r in purity)
    worst_t = max(r.max_residual for _, r in trace)
    ok = worst_d <= 1e-8 and worst_p <= 1e-10 and worst_t <= 1e-10
    acceptance(6, "density-morphism consistency, purity, fibre trace",
               ok, f"consistency {worst_d:.3e}, purity {worst_p:.3e}, trace {worst_t:.3e}")


def test_criterion_7_integrals_of_motion(acceptance):
    times = uniform_grid(0.0, 1.0, 1000)
    h = HamiltonianFamily.constant(SIGMA_Z)
    l = identity_trivialization(2)
    steps = midpoint_propagators(h, times)
    transport = EvolutionTransport(PropagatorGrid(h, times, from_t0=step_products(steps)),
                                   l.at_many(times))

    certified = is_integral_of_motion(ObservableFamily.constant(SIGMA_Z, name="energy"),
                                      transport)
    rejected = is_integral_of_motion(ObservableFamily.constant(SIGMA_X), transport)
    # [sigma_x, sigma_z] has Frobenius norm 2*sqrt(2) and max-entry 2
    residual_ok = abs(rejected.commutator_residual - 2.0) <= 1e-12

    rng = np.random.default_rng(777)
    drift = 0.0
    for _ in range(10):
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        states = propagate_states(steps, psi0)
        means = np.einsum("ki,ij,kj->k", states.conj(), SIGMA_Z, states).real \
            / np.einsum("ki,ki->k", states.conj(), states).real
        drift = max(drift, float(np.max(np.abs(means - means[0]))))

    ok = certified.certified and not rejected.certified and residual_ok and drift <= 1e-5
    acceptance(7, "integrals of motion: certify, reject, bounded mean drift",
               ok, f"rejection residual {rejected.commutator_residual:.6f}, "
                   f"mean drift {drift:.3e}")


def test_criterion_8_degenerate_base_recovery(catalog_suite, acceptance):
    suite, _ = catalog_suite
    report = next(r for r in suite.reports if r.scenario == "degenerate-single-point")
    residuals = {check: report.record(check).max_residual for check in EQUIVALENCE_CHECKS}
    ok = all(v == 0.0 for v in residuals.values())
    acceptance(8, "single-point base with identity frame: bitwise-zero residuals",
               ok, ", ".join(f"{k}={v:.1e}" for k, v in residuals.items()))


def test_criterion_9_rabi_closed_form_and_convergence(catalog_suite, acceptance):
    suite, _ = catalog_suite
    record = next(r for r in suite.reports
                  if r.scenario == "rabi-drive").record("physics_closed_form")

    cfg = scenario_from_dict(_catalog_raw("rabi-drive"))
    omega = cfg.rabi_omega
    errors = []
    for step in (1e-3, 5e-4):
        traj = evolve_state(cfg.hamiltonian, cfg.initial_state, 0.0, 1.0, step)
        flip = np.abs(traj.states[:, 1]) ** 2 / inner_products(traj.states, traj.states).real
        target = np.sin(omega * traj.times / 2) ** 2
        errors.append(max_abs(flip - target))
    ratio = errors[0] / errors[1]
    ok = record.passed and record.max_residual <= 1e-6 and ratio >= 3.5
    acceptance(9, "rabi flip probability vs closed form, order-2 step halving",
               ok, f"max error {errors[0]:.3e}, halving ratio {ratio:.2f}")


def test_criterion_10_module_dualities(acceptance):
    times = uniform_grid(0.0, 1.0, 16)
    n = 3
    worst = 0.0
    roundtrips_exact = True
    for trial in range(100):
        rng = np.random.default_rng([313, trial])
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
        assoc_l = module_combine(f * g, phi, np.zeros(times.size), psi)
        assoc_r = module_combine(f, module_combine(g, phi, 0.0, psi), 0.0, psi)
        worst = max(worst, max_abs(assoc_l.values - assoc_r.values))

        mats = rng.normal(size=(times.size, n, n)) + 1j * rng.normal(size=(times.size, n, n))
        morphism = MorphismAlongPath(times, mats)
        recovered = section_operator_as_morphism(
            lambda sec: morphism_as_section_operator(morphism, sec), times, n)
        if not np.array_equal(recovered.matrices, morphism.matrices):
            roundtrips_exact = False
        applied = morphism_as_section_operator(recovered, phi)
        if not np.array_equal(applied.values,
                              morphism_as_section_operator(morphism, phi).values):
            roundtrips_exact = False
    ok = roundtrips_exact and worst <= 1e-13
    acceptance(10, "module axioms and operator/morphism round trips",
               ok, f"worst axiom deviation {worst:.3e}, round trips exact: {roundtrips_exact}")


def test_criterion_11_negative_control_detects_missing_term(acceptance):
    raw = _catalog_raw("phase-gauge-rabi")
    raw["faults"] = {"drop_trivialization_derivative": True}
    report = run_scenario(scenario_from_dict(raw))
    record = report.record("state_equivalence")
    ok = (not record.passed) and record.max_residual >= 1e-2
    acceptance(11, "dropping the frame-derivative term is detected",
               ok, f"state-equivalence residual {record.max_residual:.3e}")
