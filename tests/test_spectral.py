"""Fourier conventions, transversality handling, and the exact propagator."""

import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from photonflow import (GridSpec, WeberGrid, evolve, fields, forward_transform,
                        inverse_transform, klein_gordon_residual, normalize_single_photon,
                        photon_number, place, project_transverse, read_weber, sample_to_grid,
                        single_wave, total_energy, transversality_residual, write_weber)
from photonflow.errors import (DCContentError, FieldValidationError, RepresentationError,
                               TransversalityError)
from photonflow.fieldio import check_weber, new_weber_files
from photonflow.fields import FieldPlanes, box_energy, plane_view
from photonflow.photon import (_good_weights, _profile_row, density_profiles, photon_count,
                               photon_sums, photon_wavefunction, single_photon_norm)
from photonflow.planewaves import StatePlanes, counterprop_pair, eval_weber
from photonflow.spectral import (_TWO_PI_3_2, _sweep, advance_into, forward_transform_in_place,
                                 kgrid)


def _random_weber(spec, rng):
    shape = (spec.n_per_axis,) * 3 + (3,)
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return WeberGrid(field, spec)


def _random_transverse(spec, rng):
    return project_transverse(forward_transform(_random_weber(spec, rng)))


def test_mode_indices_cover_symmetric_range(spec8):
    kg = kgrid(spec8)
    kx, ky, kz = kg.plane_k  # on the plane view's [iz, iy, ix] axes
    assert (kx.shape, ky.shape, kz.shape) == ((1, 1, 8), (1, 8, 1), (8, 1, 1))
    indices = kx.ravel() / spec8.dk
    assert list(indices) == [0, 1, 2, 3, -4, -3, -2, -1]
    assert ky.ravel().tobytes() == kz.ravel().tobytes() == kx.ravel().tobytes()
    iz, iy, ix = np.meshgrid(indices, indices, indices, indexing="ij")
    assert (kg.shell() == ix ** 2 + iy ** 2 + iz ** 2).all()
    assert_allclose(kg.shell_k[kg.shell()], spec8.dk * np.sqrt(ix ** 2 + iy ** 2 + iz ** 2),
                    atol=0)
    assert kg.shell_inv_k[0] == 0.0
    assert_allclose(kg.shell_inv_k[1:], 1.0 / kg.shell_k[1:], rtol=1e-15)


@pytest.mark.parametrize("n", [2, 7, 8, 18, 19, 20, 21])
def test_shell_tables_reproduce_the_full_k_grid_bit_for_bit(n):
    # the (n, n, n) |k| and 1/|k| the k-grid used to store, from float index
    # squares; n = 18, 19 keep the shell index in uint8, n = 20, 21 need uint16
    spec = GridSpec(n, 2.0 * np.pi * 1.37)
    kg = kgrid(spec)
    idx = ((np.arange(n) + n // 2) % n) - n // 2
    sq = idx.astype(float) ** 2
    k_norm = spec.dk * np.sqrt(sq[:, None, None] + sq[None, :, None] + sq[None, None, :])
    inv_k = np.divide(1.0, k_norm, out=np.zeros_like(k_norm), where=k_norm > 0)
    shell = kg.shell()
    assert shell.dtype == (np.uint8 if n < 20 else np.uint16)
    assert len(kg.shell_k) == len(kg.shell_inv_k) == 3 * (n // 2) ** 2 + 1
    assert kg.shell_k[shell].tobytes() == k_norm.tobytes()
    assert kg.shell_inv_k[shell].tobytes() == inv_k.tobytes()
    assert kg.shell_k[-1] == k_norm.max()
    # each z-plane of the plane view [iz, iy, ix] reads a table from its
    # offset mz^2 at the sums my^2 + mx^2, with no shell index formed: the
    # full grid's plane, bit for bit
    for iz in range(n):
        base = kg.axis_sq[iz]
        assert kg.shell_k[base:][kg.yx_sq].tobytes() == k_norm[iz].tobytes()
        assert kg.shell_inv_k[base:][kg.yx_sq].tobytes() == inv_k[iz].tobytes()


def test_kgrid_holds_the_shell_index_and_tables_only():
    # O(n^2): the per-axis squares and their n^2 sums over a z-plane, at
    # which each plane reads the tables from its offset, and the per-shell
    # tables of 3 (n/2)^2 + 1 floats each; no (n, n, n) array
    n = 64
    spec = GridSpec(n, 2.0 * np.pi * 1.61)  # not in kgrid's cache yet
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kg = kgrid(spec)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kg.yx_sq.nbytes == 8 * n ** 2
    assert all(getattr(value, "size", 0) <= n ** 2 for value in vars(kg).values())
    assert held <= 24 * n ** 2, held / n ** 2


def test_k_hat_vanishes_at_dc(spec8, rng):
    # k-hat = k / |k| with 1/|k| read as 0 at k = 0: a unit vector at every
    # other mode, none at DC, so projection leaves the DC mode as it is
    kg = kgrid(spec8)
    kx, ky, kz = kg.plane_k
    shell = kg.shell()
    norms = np.sqrt(kx ** 2 + ky ** 2 + kz ** 2) * kg.shell_inv_k[shell]
    assert shell[0, 0, 0] == 0 and norms[0, 0, 0] == 0.0
    assert_allclose(norms[shell > 0], 1.0, rtol=1e-14)
    tilde = forward_transform(_random_weber(spec8, rng))
    assert project_transverse(tilde).field[0, 0, 0].tobytes() == \
        tilde.field[0, 0, 0].tobytes()


def test_forward_transform_of_plane_wave_is_delta(spec8):
    # A e^{i k0 . x} -> single coefficient A L^3 / (2 pi)^{3/2} at k0.
    mesh = spec8.position_mesh()
    k0 = np.array([1.0, -2.0, 3.0]) * spec8.dk
    amp = np.array([0.3, -0.7 + 0.2j, 1.1j])
    field = amp * np.exp(1j * mesh @ k0)[..., None]
    tilde = forward_transform(WeberGrid(field, spec8))
    where = np.argwhere(np.linalg.norm(tilde.field, axis=-1) > 1e-8)
    assert len(where) == 1
    ix = tuple(where[0])
    # the FFT index of k0: signed integers 0, 1, 2, 3, -4, -3, -2, -1 per axis
    assert_allclose(spec8.dk * np.fft.fftfreq(8, 1 / 8)[list(ix)], k0, atol=1e-14)
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
    ix = tuple(np.argwhere(np.linalg.norm(tilde.field, axis=-1) > 1e-8)[0])
    k = spec16.dk * np.fft.fftfreq(16, 1 / 16)[list(ix)]
    transverse = np.linalg.norm(tilde.field[ix])
    alpha = 0.25 * transverse
    tilde.field[ix] += alpha * k / np.linalg.norm(k)
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
    m = np.fft.fftfreq(8, 1 / 8)
    k = spec8.dk * np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1)
    norm = np.linalg.norm(k, axis=-1, keepdims=True)
    k_hat = np.divide(k, norm, out=np.zeros_like(k), where=norm > 0)
    # removed part is purely longitudinal, kept part untouched
    removed = tilde.field - once.field
    perp = removed - k_hat * np.einsum("...i,...i->...", k_hat, removed)[..., None]
    assert_allclose(perp, 0.0, atol=1e-13)


def test_evolve_matches_matrix_exponential(spec8, rng):
    # dF~/dt = c k x F~ integrated per mode by expm of the cross-product matrix.
    weber = _random_transverse(spec8, rng)
    dt = 0.37
    evolved = evolve(weber.copy(), dt)
    m = np.fft.fftfreq(8, 1 / 8)  # signed FFT indices
    expected = np.empty_like(weber.field)
    for ix in np.ndindex(8, 8, 8):
        k = spec8.dk * m[list(ix)]
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
    before = tilde.field.tobytes()
    with pytest.raises(TransversalityError):
        evolve(tilde, 0.1)
    assert tilde.field.tobytes() == before and tilde.time == 0.0


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


@pytest.mark.parametrize("n, dt", [(7, -0.61), (8, 0.0), (8, 0.45), (15, 2.3), (15, -1.7)])
@pytest.mark.parametrize("read_only", [False, True], ids=["writeable", "read-only"])
def test_evolve_returns_a_new_field_with_the_bits_of_advance_into(tmp_path, rng, n, dt,
                                                                   read_only):
    # evolve only reads its input, so a read-only one steps too; the new field
    # is in payload order and holds the bytes advance_into writes from the
    # input's .phwf file into a new one (dt = 0: the input's own bytes)
    spec = GridSpec(n, 2.0 * np.pi, c=1.3)
    tilde = _random_transverse(spec, rng)
    tilde.time = 0.25
    write_weber(tmp_path / "state.phwf", tilde)
    tilde.field.flags.writeable = not read_only
    before = tilde.field.tobytes()
    evolved = evolve(tilde, dt)
    assert tilde.field.tobytes() == before and tilde.time == 0.25
    assert evolved is not tilde and not np.shares_memory(evolved.field, tilde.field)
    assert plane_view(evolved.field).flags.c_contiguous and evolved.time == 0.25 + dt
    write_weber(tmp_path / "evolved.phwf", evolved)
    _file_to_files(tmp_path / "state.phwf", [tmp_path / "next.phwf"], [dt])
    assert (tmp_path / "next.phwf").read_bytes() == (tmp_path / "evolved.phwf").read_bytes()
    if dt == 0:
        assert evolved.field.tobytes() == before


@pytest.mark.parametrize("spoil", ["nan", "longitudinal"])
def test_evolve_by_zero_still_runs_the_gate(spec8, rng, spoil):
    if spoil == "nan":
        tilde = forward_transform(sample_to_grid(single_wave(), spec8))
        tilde.field[1, 2, 3, 0] = np.nan
    else:
        tilde = forward_transform(_random_weber(spec8, rng))
    with pytest.raises(TransversalityError):
        evolve(tilde, 0.0)


def test_evolve_matches_matrix_exponential_for_odd_n(rng):
    # n = 7 splits its slabs unevenly between two workers
    spec = GridSpec(7, 2.0 * np.pi, c=1.3)
    weber = _random_transverse(spec, rng)
    dt = -0.61
    evolved = evolve(weber, dt)
    m = np.fft.fftfreq(7, 1 / 7)  # signed FFT indices 0, 1, 2, 3, -3, -2, -1
    for ix in np.ndindex(7, 7, 7):
        kx, ky, kz = spec.dk * m[list(ix)]
        cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
        assert_allclose(evolved.field[ix], expm(spec.c * dt * cross) @ weber.field[ix],
                        rtol=1e-12, atol=1e-12)


def test_evolve_and_photon_number_work_in_slabs(rng, tmp_path):
    # beyond its input, evolve holds its output plus plane-sized temporaries
    # (forward_transform_in_place, the temporaries alone: a few planes of 1/64
    # of the field per worker), photon_number (one plane of 1/|k|) and the
    # doubleslit pass, of one step or several (density_profiles: plane buffers
    # and n^2 profile floats a step), no full-size temporary at all,
    # normalize_single_photon and place little beyond the field they return
    # and inverse_transform one field besides it; the .phwf writer and reader
    # copy the payload straight between file and field, and advance_into from
    # one .phwf file into another, or into one file per step of several in
    # one pass, holds the kernel's plane buffers only: its reader fills one
    # of them and its writers write one of them
    spec = GridSpec(64, 2.0 * np.pi)
    weber = _random_transverse(spec, rng)
    weber.field[0, 0, 0] = 0.0  # photon_number rejects DC content
    position = inverse_transform(weber)
    state = counterprop_pair(3.0, 5.0)
    path = tmp_path / "field.phwf"
    kgrid(spec)  # the cached shell index and tables are not working memory
    budget = {}
    tracemalloc.start()
    try:
        for name, call, limit in (
                ("evolve", lambda: evolve(weber, 0.3), 1.5),
                ("photon_number", lambda: photon_number(weber), 0.05),
                ("forward_transform_in_place", lambda: forward_transform_in_place(position),
                 0.15),
                ("normalize_single_photon", lambda: normalize_single_photon(weber), 1.05),
                ("place", lambda: place(state, spec), 1.2),
                ("density_profiles_one_step", lambda: density_profiles(FieldPlanes(weber), [0.0]),
                 0.2),
                ("density_profiles", lambda: density_profiles(
                    FieldPlanes(weber), [0.0, 0.4, -0.3]), 0.25),
                ("write_weber", lambda: write_weber(path, weber), 0.005),
                ("advance_into", lambda: _file_to_files(path, [tmp_path / "next.phwf"], [0.3]),
                 0.16),
                ("advance_into_steps", lambda: _file_to_files(
                    path, [tmp_path / f"step_{i}.phwf" for i in range(4)],
                    [0.3, 0.0, -0.5, 0.2]), 0.16),
                ("read_weber", lambda: read_weber(path), 1.01),
                # a state file's photon number: one plane buffer per worker
                ("file_single_photon_norm", lambda: single_photon_norm(check_weber(path)),
                 0.05),
                # from a plane-wave state that no field holds: the plane buffers only
                ("state_density_profiles", lambda: density_profiles(
                    StatePlanes(state, spec), [0.0, 0.4, -0.3]), 0.25),
                ("state_single_photon_norm", lambda: single_photon_norm(
                    StatePlanes(state, spec)), 0.05),
                ("state_advance_into", lambda: _into_files(
                    StatePlanes(state, spec), [tmp_path / "placed.phwf"], [0.3]), 0.16),
                ("inverse_transform", lambda: inverse_transform(weber), 2.1)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            budget[name] = (tracemalloc.get_traced_memory()[1] - before) / weber.field.nbytes
            assert budget[name] < limit, budget
    finally:
        tracemalloc.stop()


def _into_files(source, targets, dts, **kwargs):
    """advance_into from the plane source ``source`` into a new .phwf file per
    step, all committed once every step has passed its gate; the FieldSums
    of each step."""
    times = [source.time]
    for dt in dts:  # as evolve stamps its snapshots
        times.append(times[-1] + dt)
    with new_weber_files(targets, source.spec, "momentum", times[1:]) as (files, commit):
        steps = list(advance_into(source, dts, files, **kwargs))
        for i in range(len(targets)):
            commit(i)
    return steps


def _file_to_files(source, targets, dts, **kwargs):
    """_into_files from the .phwf file ``source``."""
    return _into_files(check_weber(source), targets, dts, **kwargs)


@pytest.mark.parametrize("n, dt", [(7, -0.61), (8, 0.0), (15, 2.3)])
@pytest.mark.parametrize("workers", [1, 2])
def test_advance_into_reads_and_writes_the_bits_of_evolve(tmp_path, rng, monkeypatch, n, dt,
                                                           workers):
    # file to file, and from a file read through a divisor: the bytes of
    # evolve on the field (or on its normalized copy) written by
    # write_weber, and the sums of a pass from that field in memory
    monkeypatch.setattr(fields, "_WORKERS", workers)
    spec = GridSpec(n, 2.0 * np.pi, c=1.3, hbar=0.7)
    weber = _random_transverse(spec, rng)
    weber.field[0, 0, 0] = [1e-3, 2e-3j, 0.0]  # some DC content, carried unchanged
    weber.time = 0.25
    write_weber(tmp_path / "state.phwf", weber)
    divisor = single_photon_norm(FieldPlanes(weber), dc_tolerance=1.0)
    for source, reference in (
            (check_weber(tmp_path / "state.phwf"), weber),
            (replace(check_weber(tmp_path / "state.phwf"), divisor=divisor),
             normalize_single_photon(weber, dc_tolerance=1.0))):
        sums = list(advance_into(FieldPlanes(reference), [dt], None))
        write_weber(tmp_path / "reference.phwf", evolve(reference, dt))
        assert _into_files(source, [tmp_path / "next.phwf"], [dt]) == sums
        assert ((tmp_path / "next.phwf").read_bytes()
                == (tmp_path / "reference.phwf").read_bytes())


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("normalized", [False, True], ids=["file", "normalized-field"])
def test_one_pass_into_files_gives_the_bits_of_a_chain_of_passes(tmp_path, rng, monkeypatch,
                                                                 n, workers, normalized):
    # several steps (a repeated time, dt = 0, and a negative step among them)
    # in one pass, against one pass per step, each reading back the file the
    # step before it wrote: the same bytes in every file and the same sums
    monkeypatch.setattr(fields, "_WORKERS", workers)
    spec = GridSpec(n, 2.0 * np.pi, c=1.3, hbar=0.7)
    weber = _random_transverse(spec, rng)
    weber.field[0, 0, 0] = [1e-3, 2e-3j, 0.0]  # some DC content, carried unchanged
    weber.time = 0.25
    write_weber(tmp_path / "state.phwf", weber)
    dts = [0.35, 0.0, -0.8, 0.0, 0.2]

    def source():
        if normalized:
            return FieldPlanes(normalize_single_photon(weber, dc_tolerance=1.0))
        return check_weber(tmp_path / "state.phwf")
    chained, step_source = [], source()
    for i, dt in enumerate(dts):
        chained += _into_files(step_source, [tmp_path / f"chain_{i}.phwf"], [dt])
        step_source = check_weber(tmp_path / f"chain_{i}.phwf")
    one_pass = _into_files(source(), [tmp_path / f"pass_{i}.phwf" for i in range(len(dts))],
                           dts)
    assert one_pass == chained
    for i in range(len(dts)):
        assert ((tmp_path / f"pass_{i}.phwf").read_bytes()
                == (tmp_path / f"chain_{i}.phwf").read_bytes())


def test_advance_into_a_file_removes_it_when_the_gate_fails(tmp_path, spec8, rng):
    weber = _random_transverse(spec8, rng)
    weber.field[1, 2, 3, 0] += 0.5  # a longitudinal part
    write_weber(tmp_path / "state.phwf", weber)
    with pytest.raises(TransversalityError):
        _file_to_files(tmp_path / "state.phwf", [tmp_path / "next.phwf", tmp_path / "last.phwf"],
                       [0.4, 0.0])
    assert sorted(path.name for path in tmp_path.iterdir()) == ["state.phwf"]
    with pytest.raises(RepresentationError):
        advance_into(FieldPlanes(_random_weber(spec8, rng)), [0.4], None)


@pytest.mark.parametrize("n", [7, 8, 15])
@pytest.mark.parametrize("dt", [0.0, 0.83, -2.1])
def test_advance_into_reports_the_sums_of_the_field_it_leaves(rng, n, dt):
    spec = GridSpec(n, 2.0 * np.pi, c=1.3, hbar=0.7)
    source = _random_transverse(spec, rng)
    source.field[0, 0, 0] = [1e-3, 2e-3j, 0.0]  # some DC content, carried unchanged
    sums, = advance_into(FieldPlanes(source), [dt], None)
    weber = evolve(source, dt)
    flat = weber.field.view(np.float64)
    assert sums.residual == transversality_residual(weber)  # bit for bit
    assert box_energy(sums.sum_sq, spec, "momentum") == pytest.approx(total_energy(weber),
                                                                      rel=1e-13, abs=0)
    # photon_sums sums as the kernel does: the photon number of the field it
    # leaves, bit for bit
    assert photon_sums(FieldPlanes(weber)) == (sums.sum_sq_over_k, sums.sum_sq, sums.dc_sq)
    assert photon_count(sums.sum_sq_over_k, spec) == photon_number(weber, dc_tolerance=1.0)
    assert sums.dc_sq == np.einsum("c,c->", flat[0, 0, 0], flat[0, 0, 0])


# --- doubleslit's one pass: every step and profile from one read of each plane


def _profile_by_planes(weber):
    """The x,z-mean of rho_p along y as density_profiles has always formed it:
    Good's weight, an inverse FFT along y and |.|^2 per z-plane, the plane
    profiles added in plane order, then scaled."""
    spec, kg = weber.spec, kgrid(weber.spec)
    profile = 0.0
    for iz, plane in enumerate(plane_view(weber.field)):
        phi = plane[None] * _good_weights(spec)[kg.shell()[iz:iz + 1]][..., None]
        flat = np.ascontiguousarray(np.fft.ifft(phi, axis=1)).view(np.float64)
        profile = profile + np.einsum("zyxc,zyxc->y", flat, flat)
    return profile * (_TWO_PI_3_2 / (spec.dx ** 3 * spec.n_per_axis ** 2)) ** 2


@pytest.mark.parametrize("dts", [[0.0, 0.4, 0.4], [0.35, 0.0, -0.8, 0.0, 0.2],
                                 [0.0, 0.0, 0.5, 0.0, 0.0]],
                         ids=["benchmark-steps", "zero-and-negative-steps", "zero-steps-in-a-row"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [7, 8])
def test_one_pass_gives_the_bits_of_a_chain_of_one_step_passes(rng, monkeypatch, n, workers,
                                                               dts):
    monkeypatch.setattr(fields, "_WORKERS", workers)
    spec = GridSpec(n, 2.0 * np.pi, c=1.3, hbar=0.7)
    weber = _random_transverse(spec, rng)
    weber.field[0, 0, 0] = 0.0  # the DC gate of the profile
    weber.field.flags.writeable = False  # the pass only reads the state
    swept = _sweep(FieldPlanes(weber), [None if dt == 0 else spec.c * dt for dt in dts],
                   visit=_profile_row(spec))
    profiles = density_profiles(FieldPlanes(weber), dts)
    reference = weber
    for dt, (residual, sums, _), profile in zip(dts, swept, profiles, strict=True):
        assert residual == transversality_residual(reference)
        assert list(advance_into(FieldPlanes(reference), [dt], None)) == [sums]
        reference = evolve(reference, dt)
        assert (profile.tobytes() == density_profiles(FieldPlanes(reference), [0.0])[0].tobytes()
                == _profile_by_planes(reference).tobytes())


@pytest.mark.parametrize("workers", [1, 2])
def test_one_pass_raises_the_error_of_the_first_failing_step(spec8, rng, monkeypatch, workers):
    # the messages of evolve and of the whole-field DC gate photon_wavefunction
    # keeps: the transversality gate of a step before its DC gate
    monkeypatch.setattr(fields, "_WORKERS", workers)
    dts = [0.3, 0.0, -0.5]
    longitudinal = _random_transverse(spec8, rng)
    longitudinal.field[0, 0, 0] = 0.0
    longitudinal.field[1, 2, 3, 0] += 0.5
    heavy = _random_transverse(spec8, rng)
    heavy.field[0, 0, 0] = [3.0, 0.0, 0.0]
    both = longitudinal.copy()
    both.field[0, 0, 0] = heavy.field[0, 0, 0]
    for weber, error, parent in (
            (longitudinal, TransversalityError, lambda w: evolve(w, dts[0])),
            (heavy, DCContentError, lambda w: photon_wavefunction(evolve(w, dts[0]))),
            (both, TransversalityError, lambda w: evolve(w, dts[0]))):
        with pytest.raises(error) as expected:
            parent(weber)
        with pytest.raises(error) as raised:
            density_profiles(FieldPlanes(weber), dts)
        assert str(raised.value) == str(expected.value)


def test_forward_transform_in_place_is_fftn_bit_for_bit(rng):
    for n in (7, 8, 16):
        spec = GridSpec(n, 2.0 * np.pi * 0.9)
        weber = _random_weber(spec, rng)
        weber.time = 0.5
        reference = np.fft.fftn(weber.field, axes=(0, 1, 2))
        reference *= spec.dx ** 3 / (2.0 * np.pi) ** 1.5
        buffer = weber.field
        forward_transform_in_place(weber)
        assert weber.field is buffer
        assert (weber.representation, weber.time) == ("momentum", 0.5)
        assert weber.field.tobytes() == reference.tobytes()
    with pytest.raises(RepresentationError):
        forward_transform_in_place(weber)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 1e308, -1e308])
def test_evolve_rejects_a_step_with_a_non_finite_angle_before_writing(spec8, rng, dt):
    weber = _random_transverse(spec8, rng)
    before = weber.field.copy()
    with pytest.raises(FieldValidationError, match="dt"):
        evolve(weber, dt)
    assert weber.field.tobytes() == before.tobytes() and weber.time == 0.0


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


# --- the slab loops on worker threads ---------------------------------------


@pytest.mark.parametrize("n", [7, 8, 9])
def test_slab_loops_give_the_same_bits_for_any_worker_count(rng, monkeypatch, n):
    spec = GridSpec(n, 2.0 * np.pi, c=1.3, hbar=0.7)
    position = _random_weber(spec, rng)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(fields, "_WORKERS", workers)
        tilde = position.copy()
        forward_transform_in_place(tilde)
        transverse = project_transverse(tilde)
        transverse.field[0, 0, 0] = 0.0  # photon_number rejects DC content
        results.append((tilde.field.tobytes(), transversality_residual(tilde),
                        evolve(transverse, 0.7).field.tobytes(),
                        list(advance_into(FieldPlanes(transverse), [-1.1], None)),
                        photon_number(transverse),
                        photon_sums(FieldPlanes(transverse)),
                        density_profiles(FieldPlanes(transverse), [0.0])[0].tobytes(),
                        normalize_single_photon(transverse).field.tobytes()))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_over_planes_splits_the_planes_into_contiguous_runs_in_order(monkeypatch, workers):
    monkeypatch.setattr(fields, "_WORKERS", workers)
    calls = []

    def work(run):
        calls.append(run)  # once per run, not once per plane
        # thread objects, not idents: a finished thread's ident can be reused
        return [(zs, threading.current_thread()) for zs in run]

    records = fields.over_planes(7, work)
    assert [zs for zs, _ in records] == [slice(i, i + 1) for i in range(7)]
    assert len(calls) == workers
    threads = [thread for _, thread in records]
    assert threads[0] is threading.current_thread()  # the caller works the first run
    assert len(set(threads)) == workers
    assert sorted(threads, key=threads.index) == threads  # one run per thread
    assert fields.over_planes(7, lambda run: None) == []  # a loop that keeps no records


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_entry_in_the_second_workers_run_fails_the_gate(spec8, monkeypatch, bad):
    # an inf also makes inf - inf in the rotation: the worker's own errstate hides it
    monkeypatch.setattr(fields, "_WORKERS", 2)
    tilde = forward_transform(sample_to_grid(single_wave(), spec8))
    tilde.field[3, 2, 7, 1] = bad  # iz = 7: the last z-plane
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # in the workers too: the filters are global
        assert np.isnan(transversality_residual(tilde))
        with pytest.raises(TransversalityError):
            evolve(tilde, 0.1)


@pytest.mark.parametrize("failing", [0, 1], ids=["caller-run", "started-run"])
def test_a_worker_exception_reaches_the_caller(monkeypatch, failing):
    monkeypatch.setattr(fields, "_WORKERS", 2)
    before = set(threading.enumerate())

    def work(run):
        if (run[0].start > 0) == failing:
            raise ValueError(f"run from plane {run[0].start}")

    with pytest.raises(ValueError, match=f"run from plane {4 * failing}$"):
        fields.over_planes(8, work)
    assert set(threading.enumerate()) == before  # the started thread was joined
