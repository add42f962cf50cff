"""Property test of the PHWF1 readers over fuzzed headers and payloads.

Every read of a file, open_weber followed by a full WeberFile.reader pass
and read_weber alike, either gives finite planes that hold the payload's
values or raises a FieldValidationError (RangeError included) whose
message starts with the path; a bad payload names its first non-finite
entry in payload order.
"""

import math
import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from photonflow import fieldio
from photonflow.errors import FieldValidationError
from photonflow.fieldio import open_weber, read_weber
from photonflow.fields import _BOX_LENGTH_RANGE, _UNIT_RANGE, plane_view

_HEADER = struct.Struct("<5sIdddBd")
_NAN, _INF = float("nan"), float("inf")

# each header field: (a value every reader accepts, values at and beyond the edges)
_FIELDS = {
    "magic": (st.just(b"PHWF1"), st.sampled_from([b"PHWF0", b"phwf1", b"\0" * 5, b"PHWF1"])),
    "n": (st.integers(2, 6), st.one_of(st.integers(0, 6),
                                       st.sampled_from([2 ** 20, 2 ** 31, 2 ** 32 - 1]))),
    "L": (st.floats(0.5, 20.0), st.sampled_from([0.0, -1.0, _NAN, _INF, -_INF, 5e-324, 1e-41,
                                                 1e-40, 1e40, 1e41])),
    "c": (st.floats(0.1, 10.0), st.sampled_from([0.0, -2.0, _NAN, _INF, -_INF, 1e-101, 1e-100,
                                                 1e100, 1e101])),
    "hbar": (st.floats(0.1, 10.0), st.sampled_from([0.0, -2.0, _NAN, _INF, -_INF, 1e-101,
                                                    1e-100, 1e100, 1e101])),
    "tag": (st.sampled_from([0, 1]), st.integers(0, 255)),
    "time": (st.floats(-10.0, 10.0), st.sampled_from([_NAN, -_NAN, _INF, -_INF, -0.0, 1e308])),
    "extra_bytes": (st.just(0), st.sampled_from([-1, 1])),
}


@st.composite
def _files(draw):
    """(header fields, payload floats, payload bytes): at most two fields
    drawn from their edge values, the others valid; the payload is random
    with non-finite entries at drawn places, cut or padded by extra_bytes."""
    broken = draw(st.sets(st.sampled_from(sorted(_FIELDS)), max_size=2))
    header = {name: draw(edge if name in broken else valid)
              for name, (valid, edge) in _FIELDS.items()}
    n = header["n"] if header["n"] <= 6 else 2
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    floats = rng.standard_normal(n ** 3 * 6)
    for place, value in draw(st.lists(st.tuples(st.integers(0, 2 ** 16),
                                                st.sampled_from([_NAN, -_NAN, _INF, -_INF])),
                                      max_size=3)):
        if floats.size:
            floats[place % floats.size] = value
    payload = floats.astype("<f8").tobytes()
    if header["extra_bytes"] < 0:
        payload = payload[:-1]
    elif header["extra_bytes"] > 0:
        payload += b"\x01"
    return header, floats, payload


def _accepted(header) -> bool:
    """Whether a reader accepts this header over the drawn payload (of its n up to 6)."""
    (low_l, high_l), (low_u, high_u) = _BOX_LENGTH_RANGE, _UNIT_RANGE
    return (header["magic"] == b"PHWF1" and header["tag"] in (0, 1) and 2 <= header["n"] <= 6
            and header["extra_bytes"] == 0 and math.isfinite(header["time"])
            and low_l <= header["L"] <= high_l
            and all(low_u <= header[name] <= high_u for name in ("c", "hbar")))


def _pass_of_planes(path, dtype):
    """open_weber(path), then every z-plane its reader reads into a buffer of ``dtype``."""
    stored = open_weber(path)
    n = stored.spec.n_per_axis
    with stored.reader(np.empty((1, n, n, 3), dtype=dtype)) as read:
        return np.concatenate([read(slice(iz, iz + 1)).astype(complex) for iz in range(n)])


@settings(derandomize=True, max_examples=250, deadline=None)
@given(drawn=_files(), big_endian=st.booleans())
def test_every_read_gives_finite_planes_or_names_the_file(tmp_path_factory, drawn, big_endian):
    header, floats, payload = drawn
    path = str(tmp_path_factory.mktemp("phwf") / "state.phwf")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(header["magic"], header["n"], header["L"], header["c"],
                              header["hbar"], header["tag"], header["time"]) + payload)
    bad = (np.argwhere(~np.isfinite(floats.reshape((header["n"],) * 3 + (6,))))
           if _accepted(header) else [])
    # a big-endian host reads into its native (">c16") buffer and swaps it
    buffer_dtype = ">c16" if big_endian else "<c16"
    for read in (lambda: _pass_of_planes(path, buffer_dtype),
                 lambda: plane_view(read_weber(path).field)):
        try:
            with mock.patch.object(fieldio, "_LITTLE_ENDIAN", not big_endian):
                planes = read()  # [iz, iy, ix, component], payload order
        except FieldValidationError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: "), message
            if len(bad):  # the first non-finite float in payload order: [iz, iy, ix, part]
                iz, iy, ix, part = bad[0]
                assert message == (f"{path}: payload is non-finite at grid index "
                                   f"{(int(ix), int(iy), int(iz))}, component {part // 2}")
            else:
                assert not _accepted(header), message
        else:
            assert _accepted(header) and not len(bad)
            assert np.ascontiguousarray(planes, dtype=complex).tobytes() == floats.tobytes()
