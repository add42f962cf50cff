"""Serialization: the PHWF1 binary field container and CSV exports.

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

CSV exports carry their column names in the first line (no comment
prefix) so they load directly into plotting tools.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FieldValidationError
from .fields import MOMENTUM, POSITION, GridSpec, WeberGrid

MAGIC = b"PHWF1"
_HEADER = struct.Struct("<5sIdddBd")

_REP_TAGS = {POSITION: 0, MOMENTUM: 1}
_TAG_REPS = {v: k for k, v in _REP_TAGS.items()}


def write_weber(path, weber: WeberGrid) -> None:
    """Write a WeberGrid to a PHWF1 file."""
    spec = weber.spec
    header = _HEADER.pack(MAGIC, spec.n_per_axis, spec.box_length, spec.c,
                          spec.hbar, _REP_TAGS[weber.representation], weber.time)
    # a little-endian complex128 is the pair Re, Im of float64s, so the
    # z, y, x-ordered copy already holds the payload bytes
    zyx = np.ascontiguousarray(weber.field.transpose(2, 1, 0, 3), dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(zyx))


def read_weber(path) -> WeberGrid:
    """Read a PHWF1 file back into a WeberGrid."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:5] != MAGIC:
        raise FieldValidationError(f"{path}: not a PHWF1 container")
    magic, n, box_length, c, hbar, tag, time = _HEADER.unpack_from(raw)
    if tag not in _TAG_REPS:
        raise FieldValidationError(f"{path}: unknown representation tag {tag}")
    expected = _HEADER.size + n ** 3 * 6 * 8
    if len(raw) != expected:
        raise FieldValidationError(
            f"{path}: payload is {len(raw) - _HEADER.size} bytes, "
            f"expected {expected - _HEADER.size} for n = {n}")
    if not np.isfinite(time):
        raise FieldValidationError(f"{path}: header time {time!r} is not finite")
    payload = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    finite = np.isfinite(payload)
    if not finite.all():
        point, component = divmod(int(np.argmin(finite)), 3)
        raise FieldValidationError(
            f"{path}: payload is non-finite at grid index "
            f"{(point % n, point // n % n, point // (n * n))}, component {component}")
    field = payload.reshape(n, n, n, 3).transpose(2, 1, 0, 3)
    spec = GridSpec(int(n), box_length, c, hbar)
    return WeberGrid(field, spec, _TAG_REPS[tag], time)


def write_csv(path, header: str, columns) -> None:
    """Write named columns (1-d arrays of equal length) as CSV."""
    table = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    np.savetxt(path, table, delimiter=",", header=header, comments="")


def trajectories_to_csv(path, trajectories) -> None:
    """Trajectory list as traj,t,x,y,z,vx,vy,vz,node_hit (node_hit 0/1 per trajectory)."""
    rows = []
    for idx, traj in enumerate(trajectories):
        m = len(traj.times)
        block = np.empty((m, 9))
        block[:, 0] = idx
        block[:, 1] = traj.times
        block[:, 2:5] = traj.positions
        block[:, 5:8] = traj.velocities
        block[:, 8] = 1.0 if traj.node_hit else 0.0
        rows.append(block)
    table = np.vstack(rows) if rows else np.empty((0, 9))
    np.savetxt(path, table, delimiter=",",
               header="traj,t,x,y,z,vx,vy,vz,node_hit", comments="")
