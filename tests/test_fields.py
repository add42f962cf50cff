"""Field container, spin matrices, and the energy/flux densities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonflow import (Boost, CircularPlaneWave, GridSpec, WeberGrid,
                        energy_density, poynting_vector, sample_to_grid,
                        single_wave, total_energy)
from photonflow.errors import FieldValidationError, InternalConsistencyError
from photonflow.fields import S1, S2, S3, SPIN
from photonflow.spectral import forward_transform


def _random_weber(spec, rng):
    shape = (spec.n_per_axis,) * 3 + (3,)
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return WeberGrid(field, spec)


def test_spin_commutators_by_direct_multiplication():
    # [s_a, s_b] = i eps_{abc} s_c, checked entry by entry.
    s = [S1, S2, S3]
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = s[a] @ s[b] - s[b] @ s[a]
        assert_allclose(comm, 1j * s[c], atol=1e-15)


def test_spin_matrices_are_hermitian_with_spin_one_casimir():
    for s in (S1, S2, S3):
        assert_allclose(s, s.conj().T, atol=0)
    casimir = S1 @ S1 + S2 @ S2 + S3 @ S3
    assert_allclose(casimir, 2.0 * np.eye(3), atol=1e-15)


def test_spin_contraction_is_cross_product(rng):
    # a . s b = -i a* x b for the entrywise definition (s_a)_{jk} = -i eps_{ajk}.
    for _ in range(20):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        via_spin = np.einsum("i,aij,j->a", a.conj(), SPIN, b)
        assert_allclose(via_spin, -1j * np.cross(a.conj(), b), atol=1e-14)


def test_grid_spec_geometry():
    spec = GridSpec(16, 4.0)
    assert_allclose(spec.dx * spec.n_per_axis, spec.box_length)
    assert_allclose(spec.dk, 2.0 * np.pi / spec.box_length)
    assert_allclose(spec.box_length ** 3, 64.0)
    axes = spec.axis_coordinates()
    assert axes.shape == (16,)
    assert_allclose(axes[1] - axes[0], spec.dx)
    mesh = spec.position_mesh()
    assert mesh.shape == (16, 16, 16, 3)
    assert_allclose(mesh[3, 5, 7], [axes[3], axes[5], axes[7]])


def test_energy_density_matches_eb_formula(spec8, rng):
    shape = (8, 8, 8, 3)
    e = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    weber = WeberGrid(e + 1j * b, spec8)
    expected = ((e ** 2).sum(axis=-1) + (b ** 2).sum(axis=-1)) / (8.0 * np.pi)
    assert_allclose(energy_density(weber), expected, rtol=1e-14)


def test_poynting_matches_eb_cross_product(spec8, rng):
    shape = (8, 8, 8, 3)
    e = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    weber = WeberGrid(e + 1j * b, spec8)
    expected = spec8.c / (4.0 * np.pi) * np.cross(e, b)
    assert_allclose(poynting_vector(weber), expected, rtol=1e-13, atol=1e-15)


def test_energy_flux_never_exceeds_c_times_density(spec8, rng):
    for _ in range(5):
        weber = _random_weber(spec8, rng)
        rho = energy_density(weber)
        s = np.linalg.norm(poynting_vector(weber), axis=-1)
        assert np.all(s <= spec8.c * rho * (1.0 + 1e-12))


def test_poynting_residue_gate_fails_closed_on_nan(spec8, rng):
    weber = _random_weber(spec8, rng)
    weber.field[1, 2, 3, 0] = np.nan
    with pytest.raises(InternalConsistencyError):
        poynting_vector(weber)
    zero = WeberGrid(np.zeros((8, 8, 8, 3), dtype=complex), spec8)
    assert np.all(poynting_vector(zero) == 0.0)


@pytest.mark.parametrize("build, name", [
    (lambda: GridSpec(None, 1.0), "n_per_axis"),
    (lambda: GridSpec(8, "x"), "box_length"),
    (lambda: GridSpec(8, True), "box_length"),
    (lambda: CircularPlaneWave([0, 0, 1], "x"), "intensity"),
    (lambda: CircularPlaneWave([0, 0, 1], None), "intensity"),
    (lambda: CircularPlaneWave("abc", 1.0), "wave_vector"),
    (lambda: CircularPlaneWave([0, 0, 1], 1.0, "right", "0.5"), "phase"),
    (lambda: Boost([0, 0, 1], "0.5"), "speed"),
    (lambda: Boost("abc", 0.5), "direction"),
], ids=["grid_n_none", "grid_length_str", "grid_length_bool",
        "wave_intensity_str", "wave_intensity_none", "wave_vector_str",
        "wave_phase_str", "boost_speed_str", "boost_direction_str"])
def test_ill_typed_constructor_argument_is_named(build, name):
    with pytest.raises(FieldValidationError, match=f"^{name} "):
        build()


def test_single_wave_energy_density_is_uniform(spec16):
    weber = sample_to_grid(single_wave(), spec16)
    rho = energy_density(weber)
    assert_allclose(rho, np.full_like(rho, 1.0), rtol=1e-12)
    s = poynting_vector(weber)
    assert_allclose(s[..., 2], np.ones_like(rho), rtol=1e-12)
    assert_allclose(s[..., :2], 0.0, atol=1e-12)


def test_total_energy_agrees_between_representations(spec8, rng):
    weber = _random_weber(spec8, rng)
    e_position = total_energy(weber)
    e_momentum = total_energy(forward_transform(weber))
    assert_allclose(e_momentum, e_position, rtol=1e-12)


def test_zero_field_has_zero_energy(spec8):
    weber = WeberGrid(np.zeros((8, 8, 8, 3), dtype=complex), spec8)
    assert total_energy(weber) == 0.0
    assert np.all(energy_density(weber) == 0.0)
