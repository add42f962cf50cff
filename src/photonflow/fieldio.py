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

A WeberGrid holds its field in this payload order (see fields), so each
z-plane (n^2 points) of the payload is one contiguous plane of the field's
plane view, and every route moves the payload a plane at a time with no
transpose.  write_weber writes each plane of the plane view; read_weber
checks the header and the file size against the header's n before it
allocates the field, then reads each plane into place and checks it for
non-finite values; check_weber makes the same checks through one plane
buffer and holds no field, and weber_header makes the header and size
checks alone, so a caller can choose between the two before reading the
payload.  A WeberFile (a checked file, or a new one whose header
new_weber_files has written) reads and writes single z-planes at their
offsets, one file handle per worker run, as fields.FieldPlanes does for a
field in memory: it reads into the plane buffer of the run and writes the
contiguous plane it is given, so spectral.advance_into evolves a state
into one snapshot file per step through them, with no field held at all.
new_weber_files writes its files under temporary names and gives each its
name when the caller commits it, in the caller's order.  Only a big-endian
host converts, one plane at a time.

CSV exports carry their column names in the first line (no comment
prefix) so they load directly into plotting tools.

write_json writes a payload whose leaves may be float64 arrays, with the
bytes json.dumps gives once every such array is a list; it formats each
distinct float of the whole payload once and writes the text a piece at a
time.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import FieldValidationError
from .fields import MOMENTUM, POSITION, GridSpec, WeberGrid, plane_view

MAGIC = b"PHWF1"
_HEADER = struct.Struct("<5sIdddBd")

_REP_TAGS = {POSITION: 0, MOMENTUM: 1}
_TAG_REPS = {v: k for k, v in _REP_TAGS.items()}

# bytes of one grid point in the payload: three complex components
_POINT_BYTES = 6 * 8

# whether a complex128 in memory has the payload's byte order
_LITTLE_ENDIAN = np.dtype("<c16").isnative


@dataclass(frozen=True)
class WeberFile:
    """A PHWF1 file's path and header, its payload read and written a z-plane at a time.

    Like fields.FieldPlanes, ``reader(buffer)`` and ``writer()`` give each
    worker run of a plane loop read(zs) and write(zs, plane) for the plane
    view's z-planes ``zs`` of shape (1, n, n, 3), each at its offset in the
    file through the run's own file handle.  ``read`` fills the run's
    complex plane buffer ``buffer`` (payload order) and returns it;
    ``write`` writes ``plane``, which is to be contiguous in payload order.
    """

    path: object
    spec: GridSpec
    representation: str
    time: float

    def _seek(self, fh, zs) -> None:
        fh.seek(_HEADER.size + zs.start * self.spec.n_per_axis ** 2 * _POINT_BYTES)

    @contextmanager
    def reader(self, buffer):
        with open(self.path, "rb") as fh:
            def read(zs):
                self._seek(fh, zs)
                _read_plane(fh, self.path, buffer, zs.start)
                if not _LITTLE_ENDIAN:  # the payload's bytes, as native complex128
                    buffer.byteswap(inplace=True)
                return buffer
            yield read

    @contextmanager
    def writer(self):
        with open(self.path, "r+b") as fh:
            def write(zs, plane):
                self._seek(fh, zs)
                _write_plane(fh, plane)
            yield write


def _header_bytes(spec: GridSpec, representation: str, time: float) -> bytes:
    return _HEADER.pack(MAGIC, spec.n_per_axis, spec.box_length, spec.c, spec.hbar,
                        _REP_TAGS[representation], time)


def _write_plane(fh, plane) -> None:
    # a little-endian complex128 is the pair Re, Im of float64s, so a z-plane
    # of the plane view holds that plane's payload bytes; only a big-endian
    # host, or a plane out of payload order, copies
    fh.write(memoryview(np.ascontiguousarray(plane, dtype="<c16")))


def write_weber(path, weber: WeberGrid) -> None:
    """Write a WeberGrid to a PHWF1 file, one z-plane at a time."""
    with open(path, "wb") as fh:
        fh.write(_header_bytes(weber.spec, weber.representation, weber.time))
        for plane in plane_view(weber.field):
            _write_plane(fh, plane)


@contextmanager
def new_weber_files(paths, spec: GridSpec, representation: str, times):
    """Give (files, commit) for new PHWF1 files, one per path: ``files`` holds
    the WeberFile of each, with this header and the time of the same index,
    whose payload the block writes plane by plane (WeberFile.writer), and
    ``commit(i)`` gives file i the name ``paths[i]``.

    The files are written under temporary names in their directories, so a
    file the block reads may be one of ``paths``.  When the block ends, or
    raises, every file it has not committed is removed and its path left as
    it was.
    """
    partials = []
    for path in paths:
        directory, name = os.path.split(os.fspath(path))
        partials.append(os.path.join(directory, f".{name}.{os.getpid()}.partial"))

    def commit(i):
        os.replace(partials[i], paths[i])

    try:
        files = []
        for partial, time in zip(partials, times):
            with open(partial, "wb") as fh:
                fh.write(_header_bytes(spec, representation, time))
            files.append(WeberFile(partial, spec, representation, time))
        yield files, commit
    finally:
        for partial in partials:  # a committed file has its name: what is left is not
            if os.path.exists(partial):
                os.remove(partial)


def _read_header(fh, path) -> WeberFile:
    """The WeberFile of the open PHWF1 file ``fh`` after checking its header and size."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size or raw[:5] != MAGIC:
        raise FieldValidationError(f"{path}: not a PHWF1 container")
    magic, n, box_length, c, hbar, tag, time = _HEADER.unpack(raw)
    if tag not in _TAG_REPS:
        raise FieldValidationError(f"{path}: unknown representation tag {tag}")
    payload_bytes, expected = os.fstat(fh.fileno()).st_size - _HEADER.size, n ** 3 * _POINT_BYTES
    if payload_bytes != expected:
        raise FieldValidationError(
            f"{path}: payload is {payload_bytes} bytes, expected {expected} for n = {n}")
    if not np.isfinite(time):
        raise FieldValidationError(f"{path}: header time {time!r} is not finite")
    return WeberFile(path, GridSpec(int(n), box_length, c, hbar), _TAG_REPS[tag], time)


def _read_plane(fh, path, plane, iz) -> None:
    # the size was checked with the header: only a file shortened while it is read gets here
    if fh.readinto(plane) != plane.nbytes:
        raise FieldValidationError(f"{path}: payload ended early at z-plane {iz}")


def _read_payload(fh, stored: WeberFile, planes) -> None:
    """Read the payload of ``stored`` from ``fh`` into ``planes``, z-plane iz into
    planes[iz] (shape (n, n, 3)), checking each plane for non-finite values."""
    n = stored.spec.n_per_axis
    for iz, plane in enumerate(planes):
        _read_plane(fh, stored.path, plane, iz)
        finite = np.isfinite(plane)
        if not finite.all():
            point, component = divmod(int(np.argmin(finite)), 3)
            raise FieldValidationError(
                f"{stored.path}: payload is non-finite at grid index "
                f"{(point % n, point // n, iz)}, component {component}")


def read_weber(path) -> WeberGrid:
    """Read a PHWF1 file back into a WeberGrid.

    The file size is checked against the header's n before the field is
    allocated; the payload is then read one z-plane at a time into its
    place in the field, and each plane is checked for non-finite values.
    A header box length, c or hbar outside GridSpec's range raises
    RangeError before the payload is read.
    """
    with open(path, "rb") as fh:
        stored = _read_header(fh, path)
        n = stored.spec.n_per_axis
        planes = np.empty((n, n, n, 3), dtype="<c16")  # [iz, iy, ix, component]
        _read_payload(fh, stored, planes)
    return WeberGrid(plane_view(planes), stored.spec, stored.representation, stored.time)


def weber_header(path) -> WeberFile:
    """The WeberFile of a PHWF1 file whose header and size read_weber accepts,
    with the same errors; the payload is not read."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def check_weber(path) -> WeberFile:
    """Make read_weber's checks on a PHWF1 file, with the same errors, in one
    pass through one plane buffer; the checked file's WeberFile."""
    with open(path, "rb") as fh:
        stored = _read_header(fh, path)
        n = stored.spec.n_per_axis
        _read_payload(fh, stored, itertools.repeat(np.empty((n, n, 3), dtype="<c16"), n))
    return stored


# array elements per piece of text that write_json writes: bounds the text held
_JSON_CHUNK = 1 << 12

# the longest JSON spelling of a float64: sign, 17 digits, point, "e-" and 3 digits
_REPR_BYTES = 24


def write_json(path, obj) -> None:
    """Write obj as JSON, the bytes of json.dumps(obj) with every float64 array
    replaced by its tolist().

    Dicts (with str keys), lists and tuples are walked; the float64 ndarrays
    among them are written from one repr per distinct bit pattern over the
    whole payload, so NaN, +-inf and -0.0 are spelled as json spells them and
    a value repeated between arrays is formatted once; every other key and
    leaf goes through json.dumps, which rejects what it cannot encode.  The
    text goes to the file piece by piece and is never built whole.
    """
    # every distinct bit pattern, sorted, and its repr, null-padded to a fixed width
    bits = np.empty(0, dtype=np.uint64)
    for array in _float_arrays(obj):
        new = _distinct(np.sort(array.reshape(-1).view(np.uint64)))
        # a stable sort takes the two sorted runs in linear time
        bits = _distinct(np.sort(np.concatenate([bits, new]), kind="stable"))
    reprs = np.empty(bits.size, dtype=f"S{_REPR_BYTES}")
    for start in range(0, bits.size, _JSON_CHUNK):
        values = bits[start:start + _JSON_CHUNK].view(np.float64).tolist()
        reprs[start:start + _JSON_CHUNK] = json.dumps(values)[1:-1].encode().split(b", ")
    with open(path, "wb") as fh:
        _write_json_value(fh.write, obj, bits, reprs)


def _distinct(ordered):
    """The distinct values of the sorted 1-d array ``ordered``."""
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _is_float_array(obj) -> bool:
    """True for a float64 array of one or more axes and elements."""
    return (isinstance(obj, np.ndarray) and obj.dtype == np.float64
            and obj.ndim > 0 and obj.size > 0)


def _float_arrays(obj):
    """The float64 arrays with elements among the leaves of obj."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _float_arrays(value)
    elif _is_float_array(obj):
        yield obj


def _write_json_value(write, obj, bits, reprs) -> None:
    if isinstance(obj, dict):
        write(b"{")
        for i, (key, value) in enumerate(obj.items()):
            write(f"{', ' if i else ''}{json.dumps(key)}: ".encode())
            _write_json_value(write, value, bits, reprs)
        write(b"}")
    elif isinstance(obj, (list, tuple)):
        write(b"[")
        for i, value in enumerate(obj):
            if i:
                write(b", ")
            _write_json_value(write, value, bits, reprs)
        write(b"]")
    elif _is_float_array(obj):
        _write_float_array(write, obj, bits, reprs)
    else:  # a float64 scalar or array without elements too: nothing to share
        write(json.dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj).encode())


def _write_float_array(write, array, bits, reprs) -> None:
    # each element's repr and the separator after it, null-padded side by side
    # in one byte row per element, written without the nulls: ", " inside the
    # last axis; where k trailing axes end, k closing brackets, ", " and k
    # opening ones; after the last element, the closing brackets
    inner = array.ndim - 1
    rows = array.reshape(len(array), -1)
    step = max(1, _JSON_CHUNK // rows.shape[1])
    write(b"[" * array.ndim)
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step].reshape(-1).view(np.uint64)
        separators = np.full(chunk.size, b", ", dtype=f"S{2 + 2 * inner}")
        for depth in range(1, inner + 1):
            stride = int(np.prod(array.shape[-depth:]))
            separators[stride - 1::stride] = b"]" * depth + b", " + b"[" * depth
        if start + step >= len(rows):
            separators[-1] = b"]" * array.ndim
        text = np.concatenate([reprs[np.searchsorted(bits, chunk)].view(np.uint8).reshape(
            chunk.size, -1), separators.view(np.uint8).reshape(chunk.size, -1)], axis=1)
        write(text[text != 0].tobytes())


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
