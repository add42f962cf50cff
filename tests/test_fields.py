"""Field container, grid spec, the energy/flux densities of the weber-based flow,
and the spin-1 matrices of the phi current's form c phi^dag s phi."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import photonflow
from photonflow import (Boost, CircularPlaneWave, GridSpec, PhotonWaveFunction, WeberGrid,
                        sample_to_grid, single_wave, total_energy, weber_probability_flow)
from photonflow.errors import FieldValidationError, RepresentationError, ZeroFieldError
from photonflow.fields import MOMENTUM, POSITION
from photonflow.spectral import forward_transform


def _random_weber(spec, rng):
    shape = (spec.n_per_axis,) * 3 + (3,)
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return WeberGrid(field, spec)


def test_spin_commutators_by_direct_multiplication(spin_matrices):
    # [s_a, s_b] = i eps_{abc} s_c, checked entry by entry.
    s = spin_matrices
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = s[a] @ s[b] - s[b] @ s[a]
        assert_allclose(comm, 1j * s[c], atol=1e-15)


def test_spin_matrices_are_hermitian_with_spin_one_casimir(spin_matrices):
    for s in spin_matrices:
        assert_allclose(s, s.conj().T, atol=0)
    casimir = sum(s @ s for s in spin_matrices)
    assert_allclose(casimir, 2.0 * np.eye(3), atol=1e-15)


def test_spin_contraction_is_cross_product(rng, spin_matrices):
    # a . s b = -i a* x b: the identity that lets the phi current be a cross product
    for _ in range(20):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        via_spin = np.einsum("i,aij,j->a", a.conj(), spin_matrices, b)
        assert_allclose(via_spin, -1j * np.cross(a.conj(), b), atol=1e-14)


def _energy_density_and_flux(weber):
    """(rho_E, S): the weber-based flow times the box energy it was divided by."""
    flow = weber_probability_flow(weber)
    e_box = total_energy(weber)
    return flow.rho * e_box, flow.current * e_box


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
    assert_allclose(_energy_density_and_flux(weber)[0], expected, rtol=1e-14)


def test_poynting_matches_eb_cross_product(spec8, rng):
    shape = (8, 8, 8, 3)
    e = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    weber = WeberGrid(e + 1j * b, spec8)
    expected = spec8.c / (4.0 * np.pi) * np.cross(e, b)
    assert_allclose(_energy_density_and_flux(weber)[1], expected, rtol=1e-13, atol=1e-15)


def test_energy_flux_never_exceeds_c_times_density(spec8, rng):
    for _ in range(5):
        weber = _random_weber(spec8, rng)
        rho, s = _energy_density_and_flux(weber)
        assert np.all(np.linalg.norm(s, axis=-1) <= spec8.c * rho * (1.0 + 1e-12))


def test_poynting_residue_gate_fails_closed_on_nan(spec8, rng):
    # the flow's finite-energy check stops a NaN before it reaches rho or J
    weber = _random_weber(spec8, rng)
    weber.field[1, 2, 3, 0] = np.nan
    with pytest.raises(FieldValidationError, match="must be finite"):
        weber_probability_flow(weber)
    zero = WeberGrid(np.zeros((8, 8, 8, 3), dtype=complex), spec8)
    with pytest.raises(ZeroFieldError):
        weber_probability_flow(zero)


@pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(0.0, -np.inf)],
                         ids=["e-inf", "b-inf"])
def test_weber_flow_rejects_a_non_finite_field(spec8, rng, bad):
    weber = _random_weber(spec8, rng)
    weber.field[1, 2, 3, 0] = bad
    with pytest.raises(FieldValidationError, match="must be finite"):
        weber_probability_flow(weber)


@pytest.mark.parametrize("build, name", [
    (lambda: GridSpec(None, 1.0), "n_per_axis"),
    (lambda: GridSpec(8.0, 1.0), "n_per_axis"),
    (lambda: GridSpec(8, "x"), "box_length"),
    (lambda: GridSpec(8, True), "box_length"),
    (lambda: CircularPlaneWave([0, 0, 1], "x"), "intensity"),
    (lambda: CircularPlaneWave([0, 0, 1], None), "intensity"),
    (lambda: CircularPlaneWave("abc", 1.0), "wave_vector"),
    (lambda: CircularPlaneWave([0, 0, 1], 1.0, "right", "0.5"), "phase"),
    (lambda: Boost([0, 0, 1], "0.5"), "speed"),
    (lambda: Boost("abc", 0.5), "direction"),
], ids=["grid_n_none", "grid_n_float", "grid_length_str", "grid_length_bool",
        "wave_intensity_str", "wave_intensity_none", "wave_vector_str",
        "wave_phase_str", "boost_speed_str", "boost_direction_str"])
def test_ill_typed_constructor_argument_is_named(build, name):
    with pytest.raises(FieldValidationError, match=f"^{name} "):
        build()


def test_single_wave_energy_density_is_uniform(spec16):
    weber = sample_to_grid(single_wave(), spec16)
    rho, s = _energy_density_and_flux(weber)
    assert_allclose(rho, np.full_like(rho, 1.0), rtol=1e-12)
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


# every public function that needs one representation, with the arguments it
# takes after the field; to_position and probability_flow take a wave function
_GUARDED = [
    ("forward_transform", POSITION, ()),
    ("inverse_transform", MOMENTUM, ()),
    ("transversality_residual", MOMENTUM, ()),
    ("project_transverse", MOMENTUM, ()),
    ("evolve", MOMENTUM, (0.1,)),
    ("klein_gordon_residual", MOMENTUM, (0.1,)),
    ("photon_wavefunction", MOMENTUM, ()),
    ("to_position", MOMENTUM, ()),
    ("density_profiles", MOMENTUM, ([0.1],)),
    ("photon_number", MOMENTUM, ()),
    ("probability_flow", POSITION, ()),
    ("weber_probability_flow", POSITION, ()),
    ("continuity_residual", MOMENTUM, ("phi_based", 0.1)),
]


@pytest.mark.parametrize("name, expects, extra", _GUARDED, ids=[row[0] for row in _GUARDED])
def test_a_wrong_representation_names_the_function(spec8, rng, name, expects, extra):
    wrong = POSITION if expects == MOMENTUM else MOMENTUM
    carrier = WeberGrid(_random_weber(spec8, rng).field, spec8, wrong)
    if name in ("to_position", "probability_flow"):
        carrier = PhotonWaveFunction(carrier.field, spec8, wrong)
    with pytest.raises(RepresentationError, match=f"^{name} expects the {expects} "):
        getattr(photonflow, name)(carrier, *extra)


def _payload_ordered(field):
    # the invariant of a WeberGrid: the [iz, iy, ix, c] view of its field is C-contiguous
    return field.dtype == np.complex128 and field.transpose(2, 1, 0, 3).flags.c_contiguous


def _producers(tmp_path):
    from photonflow import (evolve, normalize_single_photon, place, project_transverse,
                            read_weber, write_weber)
    from photonflow.planewaves import counterprop_pair

    spec = GridSpec(6, 2.0 * np.pi)
    rng = np.random.default_rng(7)
    c_ordered = rng.standard_normal((6, 6, 6, 3)) + 1j * rng.standard_normal((6, 6, 6, 3))
    momentum = place(counterprop_pair(1.0, 2.0), spec)

    def written_and_read():
        write_weber(tmp_path / "f.phwf", momentum)
        return read_weber(tmp_path / "f.phwf")

    return {
        "constructor": lambda: WeberGrid(c_ordered, spec),
        "place": lambda: momentum,
        "read_weber": written_and_read,
        "copy": lambda: momentum.copy(),
        "normalize_single_photon": lambda: normalize_single_photon(momentum),
        "evolve": lambda: evolve(momentum, 0.4),
        "forward_transform": lambda: forward_transform(WeberGrid(c_ordered, spec)),
        "project_transverse": lambda: project_transverse(WeberGrid(c_ordered, spec, MOMENTUM)),
        "sample_to_grid": lambda: sample_to_grid(single_wave(), spec),
    }


@pytest.mark.parametrize("producer", [
    "constructor", "place", "read_weber", "copy", "normalize_single_photon", "evolve", "forward_transform", "project_transverse",
    "sample_to_grid"])
def test_every_producer_holds_the_field_in_payload_order(tmp_path, producer):
    weber = _producers(tmp_path)[producer]()
    assert weber.field.shape == (6, 6, 6, 3)
    assert _payload_ordered(weber.field)


def test_a_field_in_payload_order_is_kept_without_a_copy(spec8, rng):
    planes = rng.standard_normal((8, 8, 8, 3)) + 1j * rng.standard_normal((8, 8, 8, 3))
    field = planes.transpose(2, 1, 0, 3)
    weber = WeberGrid(field, spec8)
    assert np.shares_memory(weber.field, planes)
    # a C-ordered input is copied into payload order once, values unchanged
    c_ordered = np.ascontiguousarray(field)
    copied = WeberGrid(c_ordered, spec8)
    assert not np.shares_memory(copied.field, c_ordered)
    assert copied.field.tobytes() == c_ordered.tobytes()


@pytest.mark.parametrize("kwargs, name", [
    ({"box_length": 1e-300}, "box_length"),
    ({"box_length": 1e41}, "box_length"),
    ({"c": 5e-324}, "c"),
    ({"c": 1e101}, "c"),
    ({"hbar": 1e-101}, "hbar"),
], ids=["tiny-box", "huge-box", "subnormal-c", "huge-c", "tiny-hbar"])
def test_grid_spec_rejects_values_outside_their_range(kwargs, name):
    args = dict({"box_length": 2.0 * np.pi}, **kwargs)
    with pytest.raises(FieldValidationError, match=f"^{name} = .* outside the supported range"):
        GridSpec(8, **args)


@pytest.mark.parametrize("end", [0, 1], ids=["smallest", "largest"])
@pytest.mark.parametrize("n", [2, 355, 2 ** 62])
def test_box_length_range_keeps_cell_and_k_volumes_normal(end, n):
    import sys
    from photonflow.fields import _BOX_LENGTH_RANGE

    spec = GridSpec(n, _BOX_LENGTH_RANGE[end], c=1e-100, hbar=1e100)
    for volume in (spec.dx ** 3, spec.dk ** 3, spec.box_length ** 3):
        assert sys.float_info.min <= volume <= sys.float_info.max
