"""Fourier conventions, transversality handling, and the exact propagator."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from photonflow import (GridSpec, WeberGrid, evolve, forward_transform,
                        inverse_transform, klein_gordon_residual,
                        photon_number, project_transverse, sample_to_grid, single_wave,
                        total_energy, transversality_residual)
from photonflow.errors import RepresentationError, TransversalityError
from photonflow.planewaves import counterprop_pair, eval_weber
from photonflow.spectral import kgrid


def _random_weber(spec, rng):
    shape = (spec.n_per_axis,) * 3 + (3,)
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return WeberGrid(field, spec)


def _random_transverse(spec, rng):
    return project_transverse(forward_transform(_random_weber(spec, rng)))


def test_mode_indices_cover_symmetric_range(spec8):
    kg = kgrid(spec8)
    assert (kg.kx.shape, kg.ky.shape, kg.kz.shape) == ((8, 1, 1), (1, 8, 1), (1, 1, 8))
    indices = kg.kx.ravel() / spec8.dk
    assert list(indices) == [0, 1, 2, 3, -4, -3, -2, -1]
    assert_allclose(kg.ky.ravel(), kg.kx.ravel(), atol=0)
    assert_allclose(kg.kz.ravel(), kg.kx.ravel(), atol=0)
    ix, iy, iz = np.meshgrid(indices, indices, indices, indexing="ij")
    assert_allclose(kg.wave_vectors, np.stack([ix, iy, iz], axis=-1) * spec8.dk, atol=0)
    assert_allclose(kg.k_norm, spec8.dk * np.sqrt(ix ** 2 + iy ** 2 + iz ** 2), atol=0)
    assert kg.inv_k[0, 0, 0] == 0.0
    assert_allclose(kg.inv_k[kg.k_norm > 0], 1.0 / kg.k_norm[kg.k_norm > 0], rtol=1e-15)


def test_k_hat_vanishes_at_dc(spec8):
    kg = kgrid(spec8)
    assert_allclose(kg.k_hat[0, 0, 0], 0.0, atol=0)
    norms = np.linalg.norm(kg.k_hat, axis=-1)
    assert_allclose(norms[kg.k_norm > 0], 1.0, rtol=1e-14)


def test_forward_transform_of_plane_wave_is_delta(spec8):
    # A e^{i k0 . x} -> single coefficient A L^3 / (2 pi)^{3/2} at k0.
    kg = kgrid(spec8)
    mesh = spec8.position_mesh()
    k0 = np.array([1.0, -2.0, 3.0]) * spec8.dk
    amp = np.array([0.3, -0.7 + 0.2j, 1.1j])
    field = amp * np.exp(1j * mesh @ k0)[..., None]
    tilde = forward_transform(WeberGrid(field, spec8))
    where = np.argwhere(np.linalg.norm(tilde.field, axis=-1) > 1e-8)
    assert len(where) == 1
    ix = tuple(where[0])
    assert_allclose(kg.wave_vectors[ix], k0, atol=1e-14)
    expected = amp * spec8.box_length ** 3 / (2.0 * np.pi) ** 1.5
    assert_allclose(tilde.field[ix], expected, rtol=1e-12)


def test_round_trip_is_identity(spec8, rng):
    weber = _random_weber(spec8, rng)
    back = inverse_transform(forward_transform(weber))
    assert_allclose(back.field, weber.field, rtol=1e-12, atol=1e-12)
    assert back.representation == weber.representation


def test_parseval(spec8, rng):
    weber = _random_weber(spec8, rng)
    tilde = forward_transform(weber)
    pos = (np.abs(weber.field) ** 2).sum() * spec8.dx ** 3
    mom = (np.abs(tilde.field) ** 2).sum() * spec8.dk ** 3
    assert_allclose(mom, pos, rtol=1e-12)


def test_forward_rejects_momentum_input(spec8, rng):
    with pytest.raises(RepresentationError):
        forward_transform(forward_transform(_random_weber(spec8, rng)))


def test_transversality_residual_zero_for_circular_wave(spec16):
    tilde = forward_transform(sample_to_grid(single_wave(), spec16))
    assert transversality_residual(tilde) < 1e-13


def test_transversality_residual_detects_longitudinal_injection(spec16):
    tilde = forward_transform(sample_to_grid(single_wave(), spec16))
    kg = kgrid(spec16)
    ix = tuple(np.argwhere(np.linalg.norm(tilde.field, axis=-1) > 1e-8)[0])
    transverse = np.linalg.norm(tilde.field[ix])
    alpha = 0.25 * transverse
    tilde.field[ix] += alpha * kg.k_hat[ix]
    expected = alpha / np.hypot(transverse, alpha)
    assert_allclose(transversality_residual(tilde), expected, rtol=1e-12)


def test_pure_dc_field_has_zero_residual(spec8):
    field = np.zeros((8, 8, 8, 3), dtype=complex)
    field[0, 0, 0] = [1.0, 2.0j, 3.0]
    weber = WeberGrid(field, spec8, representation="momentum")
    assert transversality_residual(weber) == 0.0


def test_project_transverse_is_idempotent_and_kills_longitudinal(spec8, rng):
    tilde = forward_transform(_random_weber(spec8, rng))
    once = project_transverse(tilde)
    twice = project_transverse(once)
    assert transversality_residual(once) < 1e-14
    assert_allclose(twice.field, once.field, atol=0)
    kg = kgrid(spec8)
    # removed part is purely longitudinal, kept part untouched
    removed = tilde.field - once.field
    perp = removed - kg.k_hat * np.einsum(
        "...i,...i->...", kg.k_hat, removed)[..., None]
    assert_allclose(perp, 0.0, atol=1e-13)


def test_evolve_matches_matrix_exponential(spec8, rng):
    # dF~/dt = c k x F~ integrated per mode by expm of the cross-product matrix.
    weber = _random_transverse(spec8, rng)
    dt = 0.37
    evolved = evolve(weber.copy(), dt)
    kg = kgrid(spec8)
    expected = np.empty_like(weber.field)
    for ix in np.ndindex(8, 8, 8):
        k = kg.wave_vectors[ix]
        cross = np.array([[0.0, -k[2], k[1]],
                          [k[2], 0.0, -k[0]],
                          [-k[1], k[0], 0.0]])
        expected[ix] = expm(spec8.c * dt * cross) @ weber.field[ix]
    assert_allclose(evolved.field, expected, rtol=1e-12, atol=1e-12)
    assert evolved.time == pytest.approx(weber.time + dt)


def test_evolve_phase_sign_on_circular_wave(spec16):
    # the (1, i, 0) wave along +z picks up e^{-i k c t}: F(x, t) = F(x, 0) e^{-i c t}
    tilde = forward_transform(sample_to_grid(single_wave(), spec16))
    dt = 0.83
    evolved = inverse_transform(evolve(tilde, dt))
    start = inverse_transform(forward_transform(sample_to_grid(single_wave(), spec16)))
    assert_allclose(evolved.field, start.field * np.exp(-1j * dt),
                    rtol=1e-12, atol=1e-12)


def test_evolve_agrees_with_analytic_superposition(spec16):
    state = counterprop_pair()
    tilde = forward_transform(sample_to_grid(state, spec16))
    t = 1.21
    evolved = inverse_transform(evolve(tilde, t))
    mesh = spec16.position_mesh()
    assert_allclose(evolved.field, eval_weber(state, mesh, t),
                    rtol=1e-10, atol=1e-10)


def test_evolve_conserves_energy_and_composes(spec8, rng):
    weber = _random_transverse(spec8, rng)
    e0 = total_energy(weber)
    stepped = weber.copy()
    for _ in range(10):
        stepped = evolve(stepped, 0.17)
    assert_allclose(total_energy(stepped), e0, rtol=1e-12)
    direct = evolve(weber.copy(), 1.7)
    assert_allclose(stepped.field, direct.field, rtol=1e-11, atol=1e-11)


def test_evolve_backward_undoes_forward(spec8, rng):
    weber = _random_transverse(spec8, rng)
    back = evolve(evolve(weber.copy(), 0.9), -0.9)
    assert_allclose(back.field, weber.field, rtol=1e-12, atol=1e-12)
    assert back.time == pytest.approx(weber.time)


def test_evolve_preserves_transversality(spec8, rng):
    weber = _random_transverse(spec8, rng)
    evolved = evolve(weber, 2.3)
    assert transversality_residual(evolved) < 1e-12


def test_evolve_commutes_with_projection(spec8, rng):
    tilde = forward_transform(_random_weber(spec8, rng))
    dt = 0.41
    a = evolve(project_transverse(tilde), dt)
    b = project_transverse(evolve(project_transverse(tilde), 0.0))
    b = evolve(b, dt)
    # project then evolve equals evolve then project on the projected field
    c = project_transverse(a)
    assert_allclose(c.field, a.field, rtol=1e-12, atol=1e-13)
    assert_allclose(b.field, a.field, rtol=1e-12, atol=1e-13)


def test_evolve_rejects_longitudinal_states(spec8, rng):
    tilde = forward_transform(_random_weber(spec8, rng))
    assert transversality_residual(tilde) > 1e-3
    with pytest.raises(TransversalityError):
        evolve(tilde, 0.1)


def test_evolve_rejects_a_nan_entry(spec8):
    tilde = forward_transform(sample_to_grid(single_wave(), spec8))
    tilde.field[1, 2, 3, 0] = np.nan
    with pytest.raises(TransversalityError):
        evolve(tilde, 0.1)


def test_evolve_rejects_a_nan_in_the_last_slab(spec8):
    # the last x-plane is always in the last slab; its NaN must survive the
    # reduction over slabs (Python's max(0.0, nan) would drop it)
    tilde = forward_transform(sample_to_grid(single_wave(), spec8))
    tilde.field[7, 2, 3, 1] = np.nan
    assert np.isnan(transversality_residual(tilde))
    with pytest.raises(TransversalityError):
        evolve(tilde, 0.1)


def test_evolve_rejects_an_inf_in_the_dc_mode(spec8):
    # k = 0 carries no transversality constraint; a residual that masks it out
    # sees the inf only through the peak, which would scale the residual to 0
    tilde = forward_transform(sample_to_grid(single_wave(), spec8))
    tilde.field[0, 0, 0, 2] = np.inf
    assert np.isnan(transversality_residual(tilde))
    with pytest.raises(TransversalityError):
        evolve(tilde, 0.1)


def test_evolve_matches_matrix_exponential_for_odd_n(rng):
    # n = 7 is no multiple of the slab size, so the last slab is a short one
    spec = GridSpec(7, 2.0 * np.pi, c=1.3)
    weber = _random_transverse(spec, rng)
    dt = -0.61
    evolved = evolve(weber, dt)
    wave_vectors = kgrid(spec).wave_vectors
    for ix in np.ndindex(7, 7, 7):
        kx, ky, kz = wave_vectors[ix]
        cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
        assert_allclose(evolved.field[ix], expm(spec.c * dt * cross) @ weber.field[ix],
                        rtol=1e-12, atol=1e-12)


def test_evolve_and_photon_number_work_in_slabs(rng):
    # beyond its input, evolve holds its output plus slab-sized temporaries,
    # and photon_number no full-size temporary at all
    spec = GridSpec(32, 2.0 * np.pi)
    weber = _random_transverse(spec, rng)
    weber.field[0, 0, 0] = 0.0  # photon_number rejects DC content
    kgrid(spec)  # the cached wave vectors are not working memory
    budget = {}
    tracemalloc.start()
    try:
        for name, call, limit in (("evolve", lambda: evolve(weber, 0.3), 1.5),
                                  ("photon_number", lambda: photon_number(weber), 0.5)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            budget[name] = (tracemalloc.get_traced_memory()[1] - before) / weber.field.nbytes
            assert budget[name] < limit, budget
    finally:
        tracemalloc.stop()


def test_evolve_rejects_position_representation(spec8, rng):
    with pytest.raises(RepresentationError):
        evolve(_random_weber(spec8, rng), 0.1)


def test_klein_gordon_residual_second_order(spec16):
    tilde = forward_transform(sample_to_grid(single_wave(), spec16))
    coarse = klein_gordon_residual(tilde, 2e-3)
    fine = klein_gordon_residual(tilde, 1e-3)
    assert coarse / fine == pytest.approx(4.0, abs=0.2)


def test_klein_gordon_residual_scales_with_k_fourth(spec16):
    # residual per mode ~ k^4 c^4 dt^2 / 12 at leading order
    dt = 1e-3
    one = klein_gordon_residual(
        forward_transform(sample_to_grid(single_wave(1.0), spec16)), dt)
    two = klein_gordon_residual(
        forward_transform(sample_to_grid(single_wave(2.0), spec16)), dt)
    # amplitudes scale as sqrt(I/c) independent of k, so the ratio is k^4
    assert two / one == pytest.approx(16.0, rel=1e-3)
