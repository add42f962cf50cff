"""Guidance velocities, trajectory integration, ensembles, and the
cross-frame consistency of both guidance laws."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonflow import (Boost, CircularPlaneWave, FieldValidationError,
                        GridSpec, GuidanceNodeError, InternalConsistencyError,
                        PlaneWaveSuperposition, analytic_probability_flow,
                        audit_four_vector, boost_plane_wave, continuity_residual,
                        forward_transform,
                        frame_consistency_check, guidance_velocity,
                        integrate_trajectories, sample_points_on_line,
                        sample_to_grid, transport_ensemble)
from photonflow import bohm
from photonflow.photon import PHI_BASED, WEBER_BASED
from photonflow.planewaves import (CompiledState, copropagating_pair,
                                   counterprop_pair, flow_recipe, single_wave)

X_HAT = np.array([1.0, 0.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


def _trajectory(state, x0, *args, **kwargs):
    """The one-point case of integrate_trajectories."""
    return integrate_trajectories(state, np.asarray(x0, dtype=float)[None], *args,
                                  **kwargs)[0]


def _boosted_pair():
    return boost_plane_wave(counterprop_pair(), Boost(X_HAT, 0.5))


def _random_state(rng):
    waves = []
    for _ in range(rng.integers(1, 5)):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        waves.append(CircularPlaneWave(
            rng.uniform(0.5, 4.0) * direction,
            rng.uniform(0.2, 3.0),
            rng.choice(["right", "left"]),
            rng.uniform(0.0, 2.0 * np.pi)))
    return PlaneWaveSuperposition(waves)


def test_single_wave_moves_at_c_under_both_recipes():
    points = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.7]])
    for recipe in (PHI_BASED, WEBER_BASED):
        v = guidance_velocity(single_wave(), points, 0.4, recipe)
        assert_allclose(v, np.broadcast_to(Z_HAT, (2, 3)), atol=1e-14)


def test_standing_wave_velocities():
    points = np.array([[0.2, 0.5, -1.0]])
    v_phi = guidance_velocity(counterprop_pair(), points, 0.0, PHI_BASED)
    assert_allclose(v_phi, [[0.0, 0.0, 1.0 / 3.0]], atol=1e-14)
    v_weber = guidance_velocity(counterprop_pair(), points, 0.0, WEBER_BASED)
    assert_allclose(v_weber, 0.0, atol=1e-14)


def test_guidance_velocity_at_node_raises():
    # equal-amplitude copropagating waves cancel the field on z = pi + c t
    node = np.array([[0.0, 0.0, np.pi]])
    with pytest.raises(GuidanceNodeError) as info:
        guidance_velocity(copropagating_pair(), node, 0.0, WEBER_BASED)
    assert_allclose(info.value.location, node[0], atol=1e-12)
    # the energy-unweighted density does not vanish there
    v = guidance_velocity(copropagating_pair(), node, 0.0, PHI_BASED)
    assert_allclose(v, [[0.0, 0.0, 1.0]], atol=1e-12)


def test_single_wave_trajectories_are_parallel_lines():
    starts = [np.zeros(3), np.array([0.3, -0.4, 1.1])]
    for recipe in (PHI_BASED, WEBER_BASED):
        ends = []
        for x0 in starts:
            traj = _trajectory(single_wave(), x0, 0.0, 2.5, 0.1, recipe)
            assert_allclose(traj.positions,
                            x0 + np.outer(traj.times, Z_HAT), atol=1e-12)
            assert_allclose(np.linalg.norm(traj.velocities, axis=1), 1.0,
                            atol=1e-12)
            assert not traj.node_hit
            ends.append(traj.positions[-1])
        assert_allclose(ends[1] - ends[0], starts[1] - starts[0], atol=1e-12)


def test_standing_wave_trajectories_drift_at_c_over_3():
    traj = _trajectory(counterprop_pair(), np.zeros(3), 0.0, 3.0, 0.1,
                                PHI_BASED)
    assert_allclose(traj.positions[-1], [0.0, 0.0, 1.0], atol=1e-12)
    assert traj.times[-1] == pytest.approx(3.0)


def test_final_knot_lands_exactly_on_t1():
    traj = _trajectory(single_wave(), np.zeros(3), 0.0, 1.03, 0.25,
                                PHI_BASED)
    assert traj.times[-1] == 1.03
    assert_allclose(traj.positions[-1], [0.0, 0.0, 1.03], atol=1e-12)


@pytest.mark.parametrize("t0, t1, step", [(0.0, 2.0 * np.pi, 0.05), (0.1, 1.0, 0.07),
                                           (-3.7, 2.3, 0.3), (-0.0, 0.0, 0.1),
                                           (0.0, -0.0, 0.1), (1e-3, 1e-3 + 1e-9, 1e-10)])
def test_rk4_knots_are_t0_plus_step_times_j_ending_on_t1(t0, t1, step):
    # the knot times as an array over the whole pass, as they were once formed
    reference = t0 + step * np.arange(int(bohm.knot_count(t0, t1, step)))
    reference[-1] = t1
    times = [t for t, *_ in bohm._rk4(single_wave(), [[0.0, 0.0, 0.0]], t0, t1, step,
                                      PHI_BASED, 1.0, bohm._NODE_FLOOR_REL)]
    assert np.array(times).tobytes() == reference.tobytes()


def test_rk4_holds_nothing_sized_by_the_knot_count():
    # 1e15 knots, under the 2^53 bound: an array of their times would take 7 PiB
    tracemalloc.start()
    try:
        knots = bohm._rk4(counterprop_pair(), [[0.0, 0.0, 0.3]], 0.0, 1e12, 1e-3, PHI_BASED,
                          1.0, 1e-12)
        first, second = next(knots), next(knots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (first[0], second[0]) == (0.0, 1e-3) and second[3].all()
    assert peak < 2 ** 20


def test_integrate_trajectories_holds_48_bytes_a_point_knot():
    # positions and velocities, (points, knots, 3), are allocated once and
    # filled knot by knot; beyond them the pass holds its knot times and the
    # per-step arrays of the points, a fixed allowance
    points = np.outer(np.linspace(0.1, 3.0, 128), Z_HAT)
    tracemalloc.start()
    try:
        trajectories = integrate_trajectories(counterprop_pair(), points, 0.0, 0.5, 2e-3,
                                              PHI_BASED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    point_knots = sum(len(traj.times) for traj in trajectories)
    assert point_knots == 128 * 251
    assert peak < 1.2 * 48 * point_knots + 2 ** 18, peak / (48 * point_knots)


def test_rk4_fourth_order_convergence():
    # curved trajectories in the boosted standing wave; halving the step
    # shrinks the endpoint error about sixteenfold against a 10x-finer run
    state = _boosted_pair()
    x0 = np.array([0.3, -0.2, 0.1])
    ref = _trajectory(state, x0, 0.0, 2.0, 0.02, PHI_BASED).positions[-1]
    errors = []
    for h in (0.4, 0.2, 0.1):
        end = _trajectory(state, x0, 0.0, 2.0, h, PHI_BASED).positions[-1]
        errors.append(np.linalg.norm(end - ref))
    for coarse, fine in zip(errors, errors[1:]):
        assert 10.0 < coarse / fine < 26.0


def test_trajectory_starting_on_node_raises():
    with pytest.raises(GuidanceNodeError):
        _trajectory(copropagating_pair(), np.array([0.0, 0.0, np.pi]),
                             0.0, 1.0, 0.1, WEBER_BASED)


def test_trajectory_stops_when_density_crosses_the_floor():
    # with a deliberately high floor the low-density troughs of the boosted
    # standing wave count as nodes; the drift Theta-dot < 0 guarantees the
    # particle reaches one
    state = _boosted_pair()
    k_sum_hat = np.array([-np.sqrt(3.0), 0.0, -1.0]) / 2.0
    x0 = (np.pi / 2.0) * k_sum_hat  # density maximum of the trough pattern
    traj = _trajectory(state, x0, 0.0, 2.0, 0.05, PHI_BASED,
                                node_floor_rel=0.45)
    assert traj.node_hit
    assert traj.times[-1] < 2.0
    full = _trajectory(state, x0, 0.0, 2.0, 0.05, PHI_BASED)
    assert not full.node_hit


def test_speed_never_exceeds_c(rng):
    for _ in range(60):
        state = _random_state(rng)
        points = rng.uniform(-np.pi, np.pi, size=(20, 3))
        t = rng.uniform(-2.0, 2.0)
        rho, current = analytic_probability_flow(state, points, t)
        assert np.all(np.linalg.norm(current, axis=-1) <= rho * (1.0 + 1e-12))
        rho_e, s = CompiledState(state).flow(flow_recipe(WEBER_BASED), points, t)
        assert np.all(np.linalg.norm(s, axis=-1) <= rho_e * (1.0 + 1e-12))
        for recipe in (PHI_BASED, WEBER_BASED):
            v = guidance_velocity(state, points, t, recipe)
            assert np.all(np.linalg.norm(v, axis=-1) <= 1.0 + 1e-12)


def test_transport_ensemble_matches_single_trajectories():
    state = _boosted_pair()
    points = np.array([[0.0, 0.0, 0.0], [0.5, 0.2, -0.3], [-1.0, 0.4, 0.8]])
    final, frozen = transport_ensemble(state, points, 0.0, 1.5, 0.05, PHI_BASED)
    assert not frozen.any()
    for x0, xf in zip(points, final):
        traj = _trajectory(state, x0, 0.0, 1.5, 0.05, PHI_BASED)
        assert_allclose(xf, traj.positions[-1], atol=1e-12)


def test_transport_ensemble_freezes_points_on_nodes():
    state = copropagating_pair()
    points = np.array([[0.0, 0.0, np.pi], [0.0, 0.0, 0.5]])
    final, frozen = transport_ensemble(state, points, 0.0, 1.0, 0.1, WEBER_BASED)
    assert frozen.tolist() == [True, False]
    assert_allclose(final[0], points[0], atol=0)
    assert_allclose(final[1], [0.0, 0.0, 1.5], atol=1e-12)


def test_sample_points_on_line_is_deterministic_and_density_weighted():
    state = _boosted_pair()
    k_sum_hat = np.array([-np.sqrt(3.0), 0.0, -1.0]) / 2.0
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(7)
        draws.append(sample_points_on_line(state, np.zeros(3), k_sum_hat,
                                           np.pi, 4000, rng, PHI_BASED))
    assert_allclose(draws[0], draws[1], atol=0)
    points = draws[0]
    s = points @ k_sum_hat
    assert s.min() >= 0.0 and s.max() <= np.pi
    # Theta = 2 s: density is lowest near Theta = 0 and highest at Theta = pi
    lo = (s < np.pi / 4.0).mean()
    hi = ((s > np.pi / 4.0) & (s < 3.0 * np.pi / 4.0)).mean()
    assert hi > lo * 1.15
    rho, _ = analytic_probability_flow(state, points, 0.0)
    assert rho.min() > 0.0


def test_density_upper_bound_is_an_upper_bound(rng):
    for _ in range(20):
        state = _random_state(rng)
        points = rng.uniform(-np.pi, np.pi, size=(40, 3))
        rho, _ = analytic_probability_flow(state, points, 0.3)
        compiled = CompiledState(state)
        assert rho.max() <= compiled.density_bound(flow_recipe(PHI_BASED)) * (1 + 1e-12)
        rho_e, _ = CompiledState(state).flow(flow_recipe(WEBER_BASED), points, 0.3)
        assert rho_e.max() <= compiled.density_bound(flow_recipe(WEBER_BASED)) * (1 + 1e-12)
    # a single wave saturates the bound
    assert_allclose(CompiledState(single_wave()).density_bound(flow_recipe(PHI_BASED)), 1.0,
                    rtol=1e-14)
    rho_single, _ = analytic_probability_flow(single_wave(), np.zeros((1, 3)), 0.0)
    assert_allclose(rho_single, 1.0, rtol=1e-14)


def _check_frame(state, axis, recipe, expected_mismatch, tol, c=1.0):
    result = frame_consistency_check(state, Boost(axis, 0.5 * c, c), np.zeros(3), 0.0,
                                     recipe)
    assert result.mismatch == pytest.approx(expected_mismatch, abs=tol)
    return result


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_frame_consistency_agreements(c):
    # velocity-addition of the rest velocity vs guidance in the boosted frame;
    # the check takes c from the boost
    for axis in (Z_HAT, X_HAT):
        for recipe in (PHI_BASED, WEBER_BASED):
            _check_frame(single_wave(), axis, recipe, 0.0, 1e-12, c)
    result = _check_frame(counterprop_pair(), Z_HAT, PHI_BASED, 0.0, 1e-12, c)
    assert_allclose(result.v_rest, [0.0, 0.0, c / 3.0], atol=1e-14 * c)
    assert_allclose(result.v_velocity_addition, [0.0, 0.0, -0.2 * c], atol=1e-12 * c)


def test_frame_consistency_disagreements():
    _check_frame(counterprop_pair(), Z_HAT, WEBER_BASED, 0.3, 1e-12)
    _check_frame(counterprop_pair(), X_HAT, PHI_BASED, 0.471074466474, 1e-10)
    _check_frame(counterprop_pair(), X_HAT, WEBER_BASED, 0.5, 1e-12)


def test_rk4_reuses_the_knot_velocity_as_k1(monkeypatch):
    times = []
    real = bohm._velocity_masked

    def recorded(compiled, recipe, x, t, floor):
        times.append(t)
        return real(compiled, recipe, x, t, floor)

    monkeypatch.setattr(bohm, "_velocity_masked", recorded)
    traj = _trajectory(counterprop_pair(), np.zeros(3), 0.0, 1.0, 0.1,
                                PHI_BASED)
    assert len(traj.times) - 1 == 10
    # the start knot, then k2, k3, k4 and the new knot's velocity per step
    assert times[:5] == [0.0, 0.05, 0.05, 0.1, 0.1]
    assert len(times) == 1 + 4 * 10


def _one_point_loop(state, x0, t1, recipe, node_floor_rel=bohm._NODE_FLOOR_REL):
    """Reference: the knots of bohm._rk4 for x0 alone, up to its first dead knot."""
    times, positions, velocities = [], [], []
    for t, x, v, live in bohm._rk4(state, np.reshape(x0, (1, 3)), 0.0, t1, 0.05, recipe,
                                   1.0, node_floor_rel):
        if not live[0]:
            break
        times.append(t)
        positions.append(x[0])
        velocities.append(v[0])
    return np.array(times), np.array(positions), np.array(velocities), not live[0]


def _assert_same_trajectory(traj, reference, recipe):
    times, positions, velocities, node_hit = reference
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.positions, positions)
    assert np.array_equal(traj.velocities, velocities)
    assert traj.node_hit == node_hit
    assert traj.guidance == recipe


@pytest.mark.parametrize("recipe", [PHI_BASED, WEBER_BASED])
def test_integrate_trajectories_equals_per_point_runs_bit_for_bit(rng, recipe):
    # the boosted pair's wave vectors lie in the x-z plane; a random state's
    # point out of it, so each phase k . x takes all three products
    for state in (_boosted_pair(), _random_state(rng)):
        points = rng.uniform(-np.pi, np.pi, size=(16, 3))
        batch = integrate_trajectories(state, points, 0.0, 1.3, 0.05, recipe)
        assert len(batch) == 16
        for x0, batched in zip(points, batch):
            reference = _one_point_loop(state, x0, 1.3, recipe)
            _assert_same_trajectory(batched, reference, recipe)
            _assert_same_trajectory(_trajectory(state, x0, 0.0, 1.3, 0.05, recipe),
                                    reference, recipe)


def test_integrate_trajectories_cuts_each_point_at_its_own_node_stop():
    # a high floor turns the troughs of the boosted standing wave into nodes,
    # which the points along k_sum reach at different knots
    state = _boosted_pair()
    k_sum_hat = np.array([-np.sqrt(3.0), 0.0, -1.0]) / 2.0
    points = np.outer([np.pi / 2.0, 1.2, 1.9, 2.2], k_sum_hat)
    batch = integrate_trajectories(state, points, 0.0, 2.0, 0.05, PHI_BASED,
                                   node_floor_rel=0.45)
    assert all(traj.node_hit for traj in batch)
    assert len({len(traj.times) for traj in batch}) == len(points)
    for x0, batched in zip(points, batch):
        reference = _one_point_loop(state, x0, 2.0, PHI_BASED, node_floor_rel=0.45)
        _assert_same_trajectory(batched, reference, PHI_BASED)
        _assert_same_trajectory(_trajectory(state, x0, 0.0, 2.0, 0.05, PHI_BASED,
                                                     node_floor_rel=0.45),
                                reference, PHI_BASED)


def test_integrate_trajectories_rejects_a_point_that_starts_on_a_node():
    state = copropagating_pair()
    node = np.array([0.0, 0.0, np.pi])
    with pytest.raises(GuidanceNodeError) as single:
        _trajectory(state, node, 0.0, 1.0, 0.1, WEBER_BASED)
    with pytest.raises(GuidanceNodeError) as batched:
        integrate_trajectories(state, [[0.0, 0.0, 0.5], node], 0.0, 1.0, 0.1,
                               WEBER_BASED)
    assert str(batched.value) == str(single.value)
    assert_allclose(batched.value.location, node, atol=0)
    assert batched.value.time == single.value.time == 0.0


def test_transport_ensemble_stops_points_where_trajectories_stop():
    # a high floor turns the troughs of the boosted standing wave into nodes;
    # the points reach one at different times, the last starts on one
    state = _boosted_pair()
    k_sum_hat = np.array([-np.sqrt(3.0), 0.0, -1.0]) / 2.0
    points = np.outer([np.pi / 2.0, 1.2, 0.3], k_sum_hat)
    final, frozen = transport_ensemble(state, points, 0.0, 2.0, 0.05, PHI_BASED,
                                       node_floor_rel=0.45)
    assert frozen.all()
    for x0, xf in zip(points[:2], final[:2]):
        traj = _trajectory(state, x0, 0.0, 2.0, 0.05, PHI_BASED,
                                    node_floor_rel=0.45)
        assert traj.node_hit
        assert_allclose(xf, traj.positions[-1], atol=1e-12)
    assert_allclose(final[2], points[2], atol=0)


@pytest.mark.parametrize("call", [
    lambda: guidance_velocity(single_wave(), [[np.nan, 0.0, 0.0]], 0.0),
    lambda: guidance_velocity(single_wave(), np.zeros((1, 3)), np.inf),
    lambda: _trajectory(single_wave(), [np.nan, 0.0, 0.0], 0.0, 1.0, 0.1),
    lambda: _trajectory(single_wave(), np.zeros(3), np.nan, 1.0, 0.1),
    lambda: _trajectory(single_wave(), np.zeros(3), 0.0, np.inf, 0.1),
    lambda: _trajectory(single_wave(), np.zeros(3), 0.0, 1.0, np.nan),
    lambda: transport_ensemble(single_wave(), [[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]],
                               0.0, 1.0, 0.1),
], ids=["point", "time", "x0", "t0", "t1", "step", "ensemble"])
def test_guidance_rejects_non_finite_input(call):
    with pytest.raises(FieldValidationError):
        call()


def test_speed_gate_fires_when_the_current_outgrows_the_density(monkeypatch):
    real = CompiledState.flow

    def inflated(self, recipe, x, t):
        rho, current = real(self, recipe, x, t)
        return rho, 2.0 * current

    monkeypatch.setattr(CompiledState, "flow", inflated)
    with pytest.raises(InternalConsistencyError):
        guidance_velocity(single_wave(), np.zeros((1, 3)), 0.0, PHI_BASED)


def test_speed_gate_fails_closed_on_nan():
    with pytest.raises(InternalConsistencyError):
        bohm._velocity_masked(CompiledState(single_wave()), flow_recipe(PHI_BASED),
                              np.full((1, 3), np.nan), 0.0, 0.0)


def _momentum_single_wave():
    return forward_transform(sample_to_grid(single_wave(), GridSpec(8, 2.0 * np.pi)))


@pytest.mark.parametrize("call", [
    lambda r: guidance_velocity(single_wave(), np.zeros((1, 3)), 0.0, r),
    lambda r: integrate_trajectories(single_wave(), np.zeros((1, 3)), 0.0, 1.0, 0.1, r),
    lambda r: transport_ensemble(single_wave(), np.zeros((2, 3)), 0.0, 1.0, 0.1, r),
    lambda r: sample_points_on_line(single_wave(), np.zeros(3), Z_HAT, 1.0, 4,
                                    np.random.default_rng(0), r),
    lambda r: frame_consistency_check(single_wave(), Boost(X_HAT, 0.5), np.zeros(3),
                                      0.0, r),
    lambda r: audit_four_vector(single_wave(), Boost(X_HAT, 0.5), r),
    lambda r: continuity_residual(_momentum_single_wave(), r, 0.01),
], ids=["guidance_velocity", "integrate_trajectories",
        "transport_ensemble", "sample_points_on_line", "frame_consistency_check",
        "audit_four_vector", "continuity_residual"])
def test_unknown_recipe_is_rejected_by_the_recipe_table(call):
    with pytest.raises(FieldValidationError, match="unknown flow recipe 'bogus'"):
        call("bogus")
