"""Property test of the library constructors: an ill-typed, non-finite or
out-of-range argument of GridSpec, WeberGrid, CircularPlaneWave, Boost or
PlaneWaveSuperposition raises a photonflow error whose message starts with
the argument's name, whatever the other arguments are.

About 0.5 s of tier-1 time (derandomized, 300 examples)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonflow import Boost, CircularPlaneWave, GridSpec, PlaneWaveSuperposition, WeberGrid
from photonflow.errors import PhotonflowError

WAVE = CircularPlaneWave([0.0, 0.0, 1.0], 1.0)
# each constructor with arguments it accepts, by keyword
VALID = {
    GridSpec: {"n_per_axis": 4, "box_length": 2.0 * np.pi, "c": 1.0, "hbar": 1.0},
    WeberGrid: {"field": np.zeros((4, 4, 4, 3), complex), "spec": GridSpec(4, 2.0 * np.pi),
                "representation": "momentum", "time": 0.0},
    CircularPlaneWave: {"wave_vector": [0.0, 0.0, 1.0], "intensity": 1.0,
                        "handedness": "right", "phase": 0.0},
    Boost: {"direction": [0.0, 0.0, 1.0], "speed": 0.5, "c": 1.0},
    PlaneWaveSuperposition: {"components": [WAVE]},
}
# wrong for every argument: non-finite, text, bool, null, containers, complex
ILL_TYPED = [float("nan"), float("inf"), -float("inf"), "x", "ab", True, None, {}, [1], 1j]
# in type but out of range, per argument; [] is a valid (empty) component list
OUT_OF_RANGE = {
    "n_per_axis": st.sampled_from([1, 0, -3, 2.0, 2 ** 70]),
    "box_length": st.floats(max_value=0.0, allow_nan=False),
    "c": st.floats(max_value=0.0, allow_nan=False),
    "hbar": st.floats(max_value=0.0, allow_nan=False),
    "intensity": st.floats(max_value=0.0, allow_nan=False),
    "speed": st.sampled_from([-0.5, 1.0, 2.0]),
    "direction": st.just([0.0, 0.0, 0.0]),
    "wave_vector": st.sampled_from([[0.0, 0.0, 0.0], [0.0, 0.0, 1e200]]),
    "field": st.sampled_from([np.zeros((4, 4, 4)), np.zeros((3, 4, 4, 3))]),
    "components": st.sampled_from([(WAVE,), [WAVE, 1], [WAVE, "right"]]),
}


def _bad_value(name):
    return st.sampled_from(ILL_TYPED) | OUT_OF_RANGE.get(name, st.nothing())


CASES = st.sampled_from(sorted(((cls, name) for cls in VALID for name in VALID[cls]),
                               key=lambda case: (case[0].__name__, case[1]))).flatmap(
    lambda case: st.tuples(st.just(case[0]), st.just(case[1]), _bad_value(case[1])))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=CASES)
def test_a_bad_constructor_argument_raises_naming_it(case):
    cls, name, value = case
    with pytest.raises(PhotonflowError) as info:
        cls(**dict(VALID[cls], **{name: value}))
    assert str(info.value).startswith(f"{name} "), (cls.__name__, name, value, info.value)


def test_the_valid_arguments_construct():
    for cls, kwargs in VALID.items():
        cls(**kwargs)
