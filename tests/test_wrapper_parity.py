"""The pointwise public functions agree with the batched kernels the checks run."""

import numpy as np
import pytest

from fibreqm.bundle import (
    TrivializationFamily,
    bundle_adjoint_map,
    bundle_adjoint_maps,
    bundle_adjoint_morphism,
    fibre_inner_product,
    fibre_inner_products,
)
from fibreqm.checks import build_artifacts
from fibreqm.dynamics import conjugate_by
from fibreqm.hilbert import apply, max_abs
from fibreqm.pictures import (
    PictureTransform,
    bundle_mean_value,
    density_morphism,
    evolve_density_morphism,
    fibre_means,
    general_picture_mean,
    general_picture_means,
    heisenberg_mean,
    to_general_picture_observable,
    to_general_picture_observables,
    to_general_picture_state,
    to_heisenberg_observable,
    to_heisenberg_state,
)
from fibreqm.scenario import load_catalog_scenario


def assert_row(point, stack, k, rel=1e-12):
    """The pointwise value matches row k of a kernel stack, relative to the stack's scale."""
    assert max_abs(np.asarray(point) - stack[k]) <= rel * max(max_abs(stack), 1e-300)


@pytest.fixture(scope="module", params=["random-unitary-gauge", "nonunitary-constant-gauge"])
def artifacts(request):
    return build_artifacts(load_catalog_scenario(request.param))


def grid_points(art):
    n_times = art.times.size
    return [1, n_times // 2, n_times - 1]


def test_mean_values(artifacts):
    art = artifacts
    l, transport, times = art.cfg.trivialization, art.transport, art.times
    t0 = float(times[0])
    frames = transport.frames
    a = art.lifted_observables[art.cfg.observables[0].name]
    psi_t = art.transported_section.values
    into_t0, from_t0 = transport.matrices_into(t0), transport.matrices_from(t0)
    v = PictureTransform.random_unitary(times, art.cfg.dimension, art.cfg.seed)

    bundle = fibre_means(frames, a.matrices, art.lifted.values)
    heis = fibre_means(frames[0], conjugate_by(into_t0, a.matrices, from_t0),
                       apply(into_t0, psi_t))
    a_v = to_general_picture_observables(v.matrices, a.matrices)
    general = general_picture_means(v.matrices, frames, a_v, apply(v.matrices, psi_t))
    for k in grid_points(art):
        t = float(times[k])
        assert_row(bundle_mean_value(a, art.lifted, l, t), bundle, k)
        a_h = to_heisenberg_observable(a, transport, t0, t)
        psi_h = to_heisenberg_state(art.transported_section, transport, t0, t)
        assert_row(heisenberg_mean(a_h, psi_h, l, t0), heis, k)
        obs_v = to_general_picture_observable(a.matrices[k], v, t)
        assert_row(obs_v, a_v, k)
        state_v = to_general_picture_state(psi_t[k], v, t)
        assert_row(general_picture_mean(obs_v, state_v, v, l, t), general, k)


def test_density_adjoints_and_metric(artifacts):
    art = artifacts
    l, transport, times = art.cfg.trivialization, art.transport, art.times
    t0 = float(times[0])
    frames, inverse = transport.frames, transport.inverse_frames
    lifted = art.lifted_observables[art.cfg.observables[0].name].matrices
    adjoints = bundle_adjoint_maps(frames, inverse, lifted)
    metric = fibre_inner_products(frames, art.lifted.values, art.bundle_section.values)
    p0 = density_morphism(art.rho0, l, t0)
    for k in grid_points(art):
        t = float(times[k])
        assert_row(evolve_density_morphism(p0, transport, t0, t), art.density_transported, k)
        assert_row(bundle_adjoint_morphism(l, t, lifted[k]), adjoints, k)
        assert_row(fibre_inner_product(l, t, art.lifted.values[k], art.bundle_section.values[k]),
                   metric, k)
        forward = transport.matrix_by_index(0, k)  # fibre(t_k) -> fibre(t_0)
        two_point = bundle_adjoint_maps(frames[[0]], inverse[[k]], forward[None])
        assert_row(bundle_adjoint_map(l, t0, t, forward), two_point, 0)


@pytest.mark.parametrize("sampler, derivative, query", [
    (lambda ts: np.zeros((ts.size, 3, 3), dtype=complex), None, "at_many"),
    (lambda ts: np.eye(2, dtype=complex), None, "at_many"),
    (lambda ts: np.eye(2, dtype=complex), None, "at"),
    (lambda ts: np.ones((ts.size, 2, 2), dtype=complex),
     lambda ts: np.zeros((ts.size + 1, 2, 2), dtype=complex), "derivative_at_many"),
])
def test_wrong_sampler_shape_rejected(sampler, derivative, query):
    family = TrivializationFamily(sampler, 2, derivative, name="misshapen")
    with pytest.raises(ValueError, match="misshapen"):
        getattr(family, query)(np.linspace(0.0, 1.0, 4) if query != "at" else 0.5)
