"""Library boundaries reject bad arguments with a named error.

Each case checks the error class and that the message names the
offending argument.
"""

import numpy as np
import pytest

from photonflow import (Boost, CircularPlaneWave, GridSpec, PlaneWaveSuperposition, WeberGrid,
                        audit_four_vector, boost_plane_wave, integrate_trajectories,
                        sample_points_on_line, single_wave)
from photonflow.errors import FieldValidationError, RepresentationError, ZeroFieldError
from photonflow.planewaves import CompiledState

SPEC = GridSpec(4, 2.0 * np.pi)
BOOST = Boost([0.0, 0.0, 1.0], 0.5)
# two equal waves half a turn apart: the compiled state keeps no mode
CANCELLING = PlaneWaveSuperposition([CircularPlaneWave([0.0, 0.0, 1.0], 1.0),
                                     CircularPlaneWave([0.0, 0.0, 1.0], 1.0, phase=np.pi)])


@pytest.mark.parametrize("call, named", [
    (lambda: integrate_trajectories(single_wave(), np.zeros((2, 2)), 0.0, 1.0, 0.1),
     "points must have shape (n, 3)"),
    (lambda: integrate_trajectories(single_wave(), np.zeros((2, 3)), 0.0, 1.0, 0.0),
     "step must be positive"),
    (lambda: integrate_trajectories(single_wave(), np.zeros((2, 3)), 1.0, 0.5, 0.1),
     "need t1 >= t0"),
    # the knot count overflows to inf, or passes 2^53 where a float counts inexactly
    (lambda: integrate_trajectories(single_wave(), np.zeros((1, 3)), 0.0, 1e300, 1e-300),
     "step = 1e-300 takes inf RK4 knots"),
    (lambda: integrate_trajectories(single_wave(), np.zeros((1, 3)), 0.0, 1.0, 1e-30),
     "step = 1e-30 takes 1e+30 RK4 knots"),
    # a wave near the float limit boosted against its motion: I' overflows
    (lambda: boost_plane_wave(PlaneWaveSuperposition([CircularPlaneWave([0.0, 0.0, 1.0],
                                                                         1e306)]),
                              Boost([0.0, 0.0, -1.0], 0.999999)),
     "component 0: its boosted intensity inf"),
    (lambda: Boost([[1, 0], [0]], 0.5), "direction must be finite and real"),
    (lambda: sample_points_on_line(CANCELLING, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, 4,
                                   np.random.default_rng(0)),
     "density vanishes along the whole segment"),
    (lambda: CompiledState(single_wave()).mode_sum("phi", np.zeros((4, 2)), 0.0),
     "points must have a trailing axis of size 3"),
    (lambda: GridSpec(8, 0.0), "box_length must be > 0"),
    (lambda: GridSpec(8, 1.0, c=-1.0), "c must be > 0"),
    (lambda: GridSpec(8, 1.0, hbar=0.0), "hbar must be > 0"),
    (lambda: WeberGrid(np.zeros((4, 4, 4)), SPEC), "field must have shape (4, 4, 4, 3)"),
    # 4 pi I / c overflows: a NaN amplitude fails the cancellation test, unnoticed
    (lambda: CompiledState(PlaneWaveSuperposition([
        CircularPlaneWave([0.0, 0.0, 2.0], 1.0), CircularPlaneWave([0.0, 0.0, 1.0], 1e308)])),
     "component 1: its Weber amplitude"),
    # hbar c |k| = 2.5e-349 underflows to 0, so the phi amplitude is infinite
    (lambda: CompiledState(PlaneWaveSuperposition([CircularPlaneWave([0.0, 0.0, 1e-150], 1.0)]),
                           c=1e-100, hbar=1e-100),
     "component 0: its Weber amplitude sqrt(4 pi I / c) or phi amplitude"),
    # |phi| = 2e154 is finite, but the density bound |phi|^2 is not
    (lambda: CompiledState(PlaneWaveSuperposition([CircularPlaneWave([0.0, 0.0, 1.0], 1e9)]),
                           c=1e-100, hbar=1e-100),
     "the density bound (sum of mode norms)^2 of the phi amplitudes is not finite"),
], ids=["point-shape", "zero-step", "backward-span", "knot-count-overflows",
        "knot-count-beyond-2-53", "boosted-intensity-overflows", "ragged-direction",
        "vanishing-line-density",
        "mode-sum-point-shape", "zero-box-length", "negative-c", "zero-hbar", "field-shape",
        "overflowing-weber-amplitude", "underflowing-phi-weight", "density-bound-overflows"])
def test_field_validation_error_names_the_argument(call, named):
    with pytest.raises(FieldValidationError) as exc:
        call()
    assert named in str(exc.value)


def test_zero_field_error_names_the_vacuous_audit():
    with pytest.raises(ZeroFieldError, match="audit is vacuous"):
        audit_four_vector(CANCELLING, BOOST)


def test_representation_error_names_the_unknown_representation():
    with pytest.raises(RepresentationError, match="got 'fourier'"):
        WeberGrid(np.zeros((4, 4, 4, 3)), SPEC, "fourier")
