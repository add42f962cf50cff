"""Serialization: the PHWF1 binary field container, CSV exports and JSON payloads.

PHWF1 layout (all multi-byte values little-endian):

    offset  size  content
    0       5     magic bytes "PHWF1"
    5       4     uint32  n_per_axis
    9       8     float64 box_length
    17      8     float64 c
    25      8     float64 hbar
    33      1     representation tag: 0 = position, 1 = momentum
    34      8     float64 time
    42      -     payload: n^3 points, x index fastest, then y, then z;
                  per point six float64: Re Fx, Im Fx, Re Fy, Im Fy,
                  Re Fz, Im Fz.

A WeberGrid holds its field in this payload order (see fields), so both
directions move the payload one z-plane (n^2 points) at a time straight
between the file and the field, with no transpose and no plane buffer:
write_weber writes each plane of the field's plane view, and read_weber
checks the file size against the header's n before it allocates the
field, then reads each plane into place and checks it.  Only a
big-endian host converts, one plane at a time.

CSV exports carry their column names in the first line (no comment
prefix) so they load directly into plotting tools.

write_json writes a payload whose leaves may be float64 arrays, with the
bytes json.dumps gives once every such array is a list; it formats each
distinct float once and writes the text a piece at a time.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import FieldValidationError
from .fields import MOMENTUM, POSITION, GridSpec, WeberGrid, plane_view

MAGIC = b"PHWF1"
_HEADER = struct.Struct("<5sIdddBd")

_REP_TAGS = {POSITION: 0, MOMENTUM: 1}
_TAG_REPS = {v: k for k, v in _REP_TAGS.items()}


def write_weber(path, weber: WeberGrid) -> None:
    """Write a WeberGrid to a PHWF1 file, one z-plane at a time."""
    spec = weber.spec
    n = spec.n_per_axis
    header = _HEADER.pack(MAGIC, n, spec.box_length, spec.c,
                          spec.hbar, _REP_TAGS[weber.representation], weber.time)
    with open(path, "wb") as fh:
        fh.write(header)
        # a little-endian complex128 is the pair Re, Im of float64s, so each
        # z-plane of the plane view holds that plane's payload bytes; only a
        # big-endian host, or a field assigned out of payload order, copies
        for plane in plane_view(weber.field):
            fh.write(memoryview(np.ascontiguousarray(plane, dtype="<c16")))


def read_weber(path) -> WeberGrid:
    """Read a PHWF1 file back into a WeberGrid.

    The file size is checked against the header's n before the field is
    allocated; the payload is then read one z-plane at a time into its
    place in the field, and each plane is checked for non-finite values.
    A header box length, c or hbar outside GridSpec's range raises
    RangeError before the payload is read.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size or raw[:5] != MAGIC:
            raise FieldValidationError(f"{path}: not a PHWF1 container")
        magic, n, box_length, c, hbar, tag, time = _HEADER.unpack(raw)
        if tag not in _TAG_REPS:
            raise FieldValidationError(f"{path}: unknown representation tag {tag}")
        payload_bytes, expected = os.fstat(fh.fileno()).st_size - _HEADER.size, n ** 3 * 6 * 8
        if payload_bytes != expected:
            raise FieldValidationError(
                f"{path}: payload is {payload_bytes} bytes, expected {expected} for n = {n}")
        if not np.isfinite(time):
            raise FieldValidationError(f"{path}: header time {time!r} is not finite")
        spec = GridSpec(int(n), box_length, c, hbar)
        planes = np.empty((n, n, n, 3), dtype="<c16")  # [iz, iy, ix, component]
        for iz, plane in enumerate(planes):
            # the size was checked above: only a file shortened while it is read gets here
            if fh.readinto(plane) != plane.nbytes:
                raise FieldValidationError(f"{path}: payload ended early at z-plane {iz}")
            finite = np.isfinite(plane)
            if not finite.all():
                point, component = divmod(int(np.argmin(finite)), 3)
                raise FieldValidationError(
                    f"{path}: payload is non-finite at grid index "
                    f"{(point % n, point // n, iz)}, component {component}")
    return WeberGrid(plane_view(planes), spec, _TAG_REPS[tag], time)


# array elements per piece of text that write_json joins and writes: bounds the text held
_JSON_CHUNK = 1 << 14


def write_json(path, obj) -> None:
    """Write obj as JSON, the bytes of json.dumps(obj) with every float64 array
    replaced by its tolist().

    Dicts (with str keys), lists and tuples are walked; a float64 ndarray is
    written from one repr per distinct bit pattern, so NaN, +-inf and -0.0
    are spelled as json spells them; every other key and leaf goes through
    json.dumps, which rejects what it cannot encode.  The text goes to the
    file piece by piece and is never built whole.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _write_json_value(fh.write, obj)


def _write_json_value(write, obj) -> None:
    if isinstance(obj, dict):
        write("{")
        for i, (key, value) in enumerate(obj.items()):
            write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json_value(write, value)
        write("}")
    elif isinstance(obj, (list, tuple)):
        write("[")
        for i, value in enumerate(obj):
            if i:
                write(", ")
            _write_json_value(write, value)
        write("]")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        if obj.ndim and obj.size:
            _write_float_array(write, obj)
        else:  # a scalar or no elements: nothing to share
            write(json.dumps(obj.tolist()))
    else:
        write(json.dumps(obj))


def _write_float_array(write, array) -> None:
    # np.unique gets 1-d input only: its return_inverse shape differs between
    # numpy 1.x and 2.x for more dimensions
    distinct, inverse = np.unique(array.reshape(-1).view(np.uint64), return_inverse=True)
    reprs = np.array(json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "),
                     dtype=object)
    # each element followed by its separator: ", " inside the last axis, and
    # where k trailing axes end, k closing brackets, ", " and k opening ones
    pieces = np.full((array.size, 2), ", ", dtype=object)
    pieces[:, 0] = reprs[inverse]
    for depth in range(1, array.ndim + 1):
        stride = int(np.prod(array.shape[-depth:]))
        pieces[stride - 1::stride, 1] = "]" * depth + ", " + "[" * depth
    pieces[-1, 1] = "]" * array.ndim
    pieces = pieces.reshape(-1)
    write("[" * array.ndim)
    for start in range(0, pieces.size, 2 * _JSON_CHUNK):
        write("".join(pieces[start:start + 2 * _JSON_CHUNK].tolist()))


def write_csv(path, header: str, columns) -> None:
    """Write named columns (1-d arrays of equal length) as CSV, the bytes of
    np.savetxt(path, table, delimiter=",", header=header, comments="")
    formatted in one % over the whole table."""
    table = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    rows = (",".join(["%.18e"] * table.shape[1]) + "\n") * table.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{header}\n")
        fh.write(rows % tuple(table.ravel().tolist()))


def trajectories_to_csv(path, trajectories) -> None:
    """Trajectory list as traj,t,x,y,z,vx,vy,vz,node_hit (node_hit 0/1 per trajectory)."""
    rows = [np.column_stack([np.full(len(traj.times), idx), traj.times, traj.positions,
                             traj.velocities, np.full(len(traj.times), float(traj.node_hit))])
            for idx, traj in enumerate(trajectories)]
    table = np.vstack(rows) if rows else np.empty((0, 9))
    write_csv(path, "traj,t,x,y,z,vx,vy,vz,node_hit", table.T)
