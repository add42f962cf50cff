"""Boost kinematics, plane-wave transformation, and the four-vector audits.

The audits are the package's central result: the energy-unweighted flow
transforms as a four-current except against the boosted standing wave,
while the energy-weighted flow fails for every boosted scenario.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonflow import (Boost, analytic_probability_flow, audit_four_vector,
                        audit_to_json, boost_event,
                        boost_plane_wave, boost_wave_vector, eval_weber,
                        field_boost, fourvector_transform_flow,
                        velocity_addition)
from photonflow import lorentz
from photonflow.errors import (FieldValidationError, InternalConsistencyError,
                               ZeroFieldError)
from photonflow.fieldio import write_json
from photonflow.lorentz import default_sample_line
from photonflow.photon import PHI_BASED, WEBER_BASED
from photonflow.planewaves import (PlaneWaveSuperposition, counterprop_pair,
                                   single_wave)

X_HAT = np.array([1.0, 0.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])
GAMMA_HALF = 2.0 / np.sqrt(3.0)  # gamma at u = 0.5c


def _half_x():
    return Boost(X_HAT, 0.5)


def _half_z():
    return Boost(Z_HAT, 0.5)


def _random_boosts(rng, count):
    for _ in range(count):
        direction = rng.standard_normal(3)
        yield Boost(direction, rng.uniform(0.05, 0.9))


def test_boost_validation():
    with pytest.raises(FieldValidationError):
        Boost(Z_HAT, 1.0)
    with pytest.raises(FieldValidationError):
        Boost(Z_HAT, -0.1)
    with pytest.raises(FieldValidationError):
        Boost(np.zeros(3), 0.5)


def test_boost_gamma_and_inverse():
    boost = _half_z()
    assert_allclose(boost.gamma, GAMMA_HALF, rtol=1e-15)
    assert_allclose(boost.inverse().direction, -Z_HAT, atol=0)
    assert boost.inverse().speed == boost.speed


def test_event_round_trip_and_interval(rng):
    for boost in _random_boosts(rng, 10):
        x = rng.standard_normal(3)
        t = rng.standard_normal()
        xp, tp = boost_event(x, t, boost)
        xb, tb = boost_event(xp, tp, boost.inverse())
        assert_allclose(xb, x, atol=1e-12)
        assert_allclose(tb, t, atol=1e-12)
        assert_allclose(tp ** 2 - xp @ xp, t ** 2 - x @ x, atol=1e-10)


def test_parallel_boosts_compose_by_velocity_addition(rng):
    u1, u2 = 0.3, 0.55
    combined = Boost(Z_HAT, (u1 + u2) / (1.0 + u1 * u2))
    x = rng.standard_normal((7, 3))
    t = rng.standard_normal(7)
    x1, t1 = boost_event(x, t, Boost(Z_HAT, u1))
    x2, t2 = boost_event(x1, t1, Boost(Z_HAT, u2))
    xc, tc = boost_event(x, t, combined)
    assert_allclose(x2, xc, atol=1e-12)
    assert_allclose(t2, tc, atol=1e-12)


def test_wave_vector_doppler_and_aberration():
    k_par, w_par = boost_wave_vector(Z_HAT, _half_z())
    assert_allclose(k_par, Z_HAT / np.sqrt(3.0), rtol=1e-14)
    assert_allclose(w_par, 1.0 / np.sqrt(3.0), rtol=1e-14)
    k_perp, w_perp = boost_wave_vector(Z_HAT, _half_x())
    assert_allclose(k_perp, [-1.0 / np.sqrt(3.0), 0.0, 1.0], atol=1e-14)
    assert_allclose(w_perp, GAMMA_HALF, rtol=1e-14)
    k_left, w_left = boost_wave_vector(-2.0 * Z_HAT, _half_x())
    assert_allclose(k_left, [-2.0 / np.sqrt(3.0), 0.0, -2.0], atol=1e-14)
    assert_allclose(w_left, 2.0 * GAMMA_HALF, rtol=1e-14)


def test_boosted_wave_vector_stays_null(rng):
    for boost in _random_boosts(rng, 20):
        k = rng.standard_normal(3)
        kp, wp = boost_wave_vector(k, boost)
        assert_allclose(wp, np.linalg.norm(kp), rtol=1e-12)


def test_field_boost_parallel_scaling():
    f = np.array([1.0, 1.0j, 0.0])
    doppler = np.sqrt((1.0 - 0.5) / (1.0 + 0.5))
    assert_allclose(field_boost(f, _half_z()), doppler * f, rtol=1e-14)
    assert_allclose(field_boost(f, Boost(Z_HAT, 1e-12)), f, rtol=1e-11)


def test_field_boost_composes(rng):
    f = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    u1, u2 = 0.4, 0.35
    twice = field_boost(field_boost(f, Boost(X_HAT, u1)), Boost(X_HAT, u2))
    once = field_boost(f, Boost(X_HAT, (u1 + u2) / (1.0 + u1 * u2)))
    assert_allclose(twice, once, rtol=1e-12, atol=1e-12)


def test_boosted_plane_wave_intensities_and_handedness():
    state = counterprop_pair()
    boosted_z = boost_plane_wave(state, _half_z())
    assert_allclose(boosted_z.components[0].intensity, 1.0 / 3.0, rtol=1e-12)
    assert_allclose(boosted_z.components[1].intensity, 3.0, rtol=1e-12)
    boosted_x = boost_plane_wave(state, _half_x())
    for comp in boosted_x.components:
        assert_allclose(comp.intensity, GAMMA_HALF ** 2, rtol=1e-12)
    assert [c.handedness for c in boosted_x.components] == ["right", "left"]


def test_boosted_single_wave_polarization_structure():
    # x-boost of the (1, i, 0) wave: amplitude parallel to (1/gamma, i, u/c),
    # exactly transverse to k' = (-gamma u/c, 0, 1)
    boosted = boost_plane_wave(single_wave(), _half_x())
    wave = boosted.components[0]
    pol = np.array([1.0 / GAMMA_HALF, 1.0j, 0.5])
    k_prime = np.array([-GAMMA_HALF * 0.5, 0.0, 1.0])
    assert k_prime @ pol == 0.0
    assert_allclose(wave.wave_vector, k_prime, atol=1e-14)
    amp = wave.weber_amplitude() * np.exp(1j * wave.phase)
    ratio = amp[0] / pol[0]
    assert_allclose(amp, ratio * pol, rtol=1e-12, atol=1e-13)


def test_boost_round_trip_recovers_state(rng):
    state = counterprop_pair()
    for boost in _random_boosts(rng, 5):
        back = boost_plane_wave(boost_plane_wave(state, boost), boost.inverse())
        for orig, rec in zip(state.components, back.components):
            assert_allclose(rec.wave_vector, orig.wave_vector, atol=1e-12)
            assert_allclose(rec.intensity, orig.intensity, rtol=1e-12)
            assert rec.handedness == orig.handedness
            assert_allclose(np.exp(1j * rec.phase), np.exp(1j * orig.phase),
                            atol=1e-12)


def test_boosted_state_field_equals_boosted_field(rng):
    # F'(x') = L[F](x) at corresponding events, for every component count
    for state in (single_wave(), counterprop_pair()):
        for boost in _random_boosts(rng, 6):
            boosted = boost_plane_wave(state, boost)
            x = rng.standard_normal((9, 3))
            t = rng.standard_normal()
            xp, tp = boost_event(x, t, boost)
            lhs = eval_weber(boosted, xp, tp)
            rhs = field_boost(eval_weber(state, x, t), boost)
            assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_velocity_addition_parallel_and_light_speed(rng):
    v = np.array([0.0, 0.0, 0.9])
    expected = (0.9 - 0.5) / (1.0 - 0.45)
    assert_allclose(velocity_addition(v, _half_z()), [0, 0, expected], atol=1e-14)
    for boost in _random_boosts(rng, 20):
        direction = rng.standard_normal(3)
        v = direction / np.linalg.norm(direction)
        assert_allclose(np.linalg.norm(velocity_addition(v, boost)), 1.0,
                        rtol=1e-12)
    assert_allclose(velocity_addition(v, Boost(Z_HAT, 1e-15)), v, rtol=1e-12)


def test_flow_transform_preserves_minkowski_norm(rng):
    for boost in _random_boosts(rng, 20):
        rho = rng.uniform(0.5, 2.0, size=6)
        current = rng.standard_normal((6, 3))
        rho_p, current_p = fourvector_transform_flow(rho, current, boost)
        assert_allclose(rho_p ** 2 - (current_p ** 2).sum(axis=-1),
                        rho ** 2 - (current ** 2).sum(axis=-1),
                        rtol=1e-10, atol=1e-10)
        rho_b, current_b = fourvector_transform_flow(rho_p, current_p,
                                                     boost.inverse())
        assert_allclose(rho_b, rho, rtol=1e-12)
        assert_allclose(current_b, current, atol=1e-12)


def _boost_matrix(boost):
    """Lambda(beta n-hat) acting on (ct, x), in its textbook block form."""
    n, beta, gamma = boost.direction, boost.beta, boost.gamma
    lam = np.empty((4, 4))
    lam[0, 0] = gamma
    lam[0, 1:] = lam[1:, 0] = -gamma * beta * n
    lam[1:, 1:] = np.eye(3) + (gamma - 1.0) * np.outer(n, n)
    return lam


def _assert_boosted(lam, got_time_part, got_space, time_part, space):
    want = np.column_stack([time_part, space]) @ lam.T
    got = np.column_stack([got_time_part, got_space])
    assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_four_vector_maps_match_the_boost_matrix(rng):
    # c != 1 and arbitrary directions, against an independent reference
    c = 3.0
    for _ in range(20):
        boost = Boost(rng.standard_normal(3), rng.uniform(0.01, 0.99) * c, c)
        lam = _boost_matrix(boost)

        x, t = rng.standard_normal((8, 3)), rng.standard_normal(8)
        x_p, t_p = boost_event(x, t, boost)
        _assert_boosted(lam, c * t_p, x_p, c * t, x)

        k = rng.standard_normal(3)
        k_p, omega_p = boost_wave_vector(k, boost)
        _assert_boosted(lam, omega_p / c, k_p[None], np.linalg.norm(k), k[None])

        rho, current = rng.uniform(0.5, 2.0, 8), rng.standard_normal((8, 3))
        rho_p, current_p = fourvector_transform_flow(rho, current, boost)
        _assert_boosted(lam, c * rho_p, current_p, c * rho, current)

        v = rng.standard_normal((8, 3))
        v *= rng.uniform(0.0, c, (8, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        u = np.column_stack([np.full(8, c), v]) @ lam.T
        assert_allclose(velocity_addition(v, boost), c * u[:, 1:] / u[:, :1], rtol=1e-12)


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_audit_verdicts_match_the_covariance_table(c):
    # u = c/2 for either c: the audit takes c from the boost
    z_boost, x_boost = Boost(Z_HAT, 0.5 * c, c), Boost(X_HAT, 0.5 * c, c)
    scenarios = [(single_wave(), z_boost), (single_wave(), x_boost),
                 (counterprop_pair(), z_boost), (counterprop_pair(), x_boost)]
    phi = [audit_four_vector(s, b, PHI_BASED) for s, b in scenarios]
    weber = [audit_four_vector(s, b, WEBER_BASED) for s, b in scenarios]
    assert [a.verdict for a in phi] == ["four_vector_consistent"] * 3 + ["violated"]
    assert [a.verdict for a in weber] == ["violated"] * 4
    assert all(a.max_mismatch < 1e-9 for a in phi[:3])
    assert phi[3].max_mismatch > 0.4
    assert_allclose(weber[0].max_mismatch, 1.0 - (1.0 / 3.0) / (GAMMA_HALF / 2.0),
                    rtol=1e-9)  # |1/3 - gamma/2| / (gamma/2)
    assert_allclose(weber[1].max_mismatch, GAMMA_HALF - 1.0, rtol=1e-9)


def test_standing_wave_x_boost_closed_form():
    # rho' = gamma 3/2 - cos(2s)/sqrt(6) along the interference axis, and the
    # residual against the four-vector push oscillates with amplitude 1/sqrt(6)
    audit = audit_four_vector(counterprop_pair(), _half_x(), PHI_BASED)
    s = audit.s
    assert_allclose(audit.rho_a,
                    1.5 * GAMMA_HALF - np.cos(2.0 * s) / np.sqrt(6.0),
                    atol=1e-9)
    expected_current = np.stack([
        -np.sqrt(3.0) / 2.0 + 2.0 / np.sqrt(6.0) * np.cos(2.0 * s),
        -np.sin(2.0 * s) / np.sqrt(2.0),
        np.full_like(s, 0.5),
    ], axis=-1)
    assert_allclose(audit.current_a, expected_current, atol=1e-9)
    assert_allclose(audit.rho_b, 1.5 * GAMMA_HALF, rtol=1e-12)
    assert_allclose(audit.current_b,
                    np.broadcast_to([-np.sqrt(3.0) / 2.0, 0.0, 0.5],
                                    audit.current_b.shape), atol=1e-12)
    assert_allclose(np.abs(audit.rho_a - audit.rho_b).max(),
                    1.0 / np.sqrt(6.0), rtol=1e-9)


def test_boosted_flow_still_conserves_probability():
    # K . J - Omega rho is constant along the line: the boosted-frame flow
    # satisfies its own continuity equation even while failing covariance
    audit = audit_four_vector(counterprop_pair(), _half_x(), PHI_BASED)
    k_r, w_r = boost_wave_vector(np.array([0.0, 0.0, 1.0]), _half_x())
    k_l, w_l = boost_wave_vector(np.array([0.0, 0.0, -2.0]), _half_x())
    w = audit.current_a @ (k_r + k_l) - (w_r + w_l) * audit.rho_a
    assert_allclose(w, -5.0, atol=1e-9)


def test_audit_samples_cover_one_interference_period():
    state = counterprop_pair()
    s, points, t_prime = default_sample_line(boost_plane_wave(state, _half_x()), 128)
    assert points.shape == (128, 3)
    assert np.all(t_prime == 0.0)
    assert s[0] == 0.0
    period = np.pi  # 2 pi / |k_R' + k_L'| at u = 0.5c
    assert s[-1] < period <= s[-1] + (s[1] - s[0]) * 1.0001


def test_audit_samples_along_x_when_the_boosted_wave_vectors_cancel():
    s, points, _ = default_sample_line(
        boost_plane_wave(counterprop_pair(1.0, 1.0), Boost(Z_HAT, 0.0)), 64)
    assert np.all(points[:, 1:] == 0.0) and np.array_equal(points[:, 0], s)
    period = 2.0 * np.pi  # set by the largest boosted wavenumber, 1
    assert s[-1] < period <= s[-1] + (s[1] - s[0]) * 1.0001


def test_audit_json_payload(tmp_path):
    audit = audit_four_vector(single_wave(), _half_z(), WEBER_BASED, n_samples=16)
    payload = audit_to_json(audit)
    assert payload["recipe"] == WEBER_BASED
    assert payload["verdict"] == "violated"
    assert payload["boost"] == {"direction": [0.0, 0.0, 1.0], "speed": 0.5, "c": 1.0}
    # the samples are the audit's own arrays, handed to write_json as they are
    samples = payload["samples"]
    assert samples["rho_boosted_frame"] is audit.rho_a
    assert samples["current_fourvector"] is audit.current_b
    assert samples["mismatch"] is audit.mismatch_field
    assert all(value.dtype == np.float64 for value in samples.values())
    assert samples["x_prime"].shape == samples["current_boosted_frame"].shape == (16, 3)
    path = tmp_path / "audit.json"
    write_json(path, payload)
    written = json.loads(path.read_text())
    assert written["samples"]["current_fourvector"] == audit.current_b.tolist()
    assert written["samples"]["mismatch"] == audit.mismatch_field.tolist()


def test_audit_rejects_empty_state():
    with pytest.raises(ZeroFieldError):
        audit_four_vector(PlaneWaveSuperposition([]), _half_z())


def test_unboosted_audit_is_trivially_consistent():
    audit = audit_four_vector(counterprop_pair(), Boost(Z_HAT, 0.0), PHI_BASED)
    assert audit.verdict == "four_vector_consistent"
    rho, current = analytic_probability_flow(counterprop_pair(),
                                             audit.x_prime, 0.0)
    assert_allclose(audit.rho_a, rho, rtol=1e-12)
    assert_allclose(audit.current_a, current, atol=1e-12)


@pytest.mark.parametrize("corrupt", [
    lambda amp, boost: 1.01 * amp,                       # Doppler route disagrees
    lambda amp, boost: amp + 0.1 * np.abs(amp).max() * boost.direction,  # not helical
], ids=["intensity", "helicity"])
def test_boost_route_checks_fire_on_a_wrong_field_boost(monkeypatch, corrupt):
    real = lorentz.field_boost
    monkeypatch.setattr(lorentz, "field_boost",
                        lambda f, boost: corrupt(real(f, boost), boost))
    with pytest.raises(InternalConsistencyError):
        boost_plane_wave(single_wave(), _half_x())


def test_intensity_route_error_prints_python_floats(monkeypatch):
    # with no tolerance the two routes' roundoff apart fires the intensity guard
    # (the helicity residual of a z-boosted wave along z is exactly 0)
    monkeypatch.setattr(lorentz, "_CONSISTENCY_TOL", 0.0)
    with pytest.raises(InternalConsistencyError,
                       match=r"^component 0: field-route intensity [0-9.]+ disagrees with "
                             r"Doppler-route intensity [0-9.]+$") as info:
        boost_plane_wave(single_wave(), _half_z())
    assert "np.float64(" not in str(info.value)
