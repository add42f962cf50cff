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

A WeberGrid holds its field in this payload order (see fields), so each
z-plane (n^2 points) of the payload is one contiguous plane of the field's
plane view, and every route moves the payload a plane at a time with no
transpose.  write_weber writes each plane of the plane view; read_weber
checks the header and the file size against the header's n before it
allocates the field, then reads each plane into place and checks it for
non-finite values; check_weber makes the same checks through one plane
buffer and holds no field, and weber_header makes the header and size
checks alone, so a caller can read the payload in a pass of its own.  A
WeberFile (a checked file, or a new one whose header new_weber_files has
written) reads and writes single z-planes at their offsets, one file handle
per worker run, as fields.FieldPlanes does for a field in memory: it reads
into the plane buffer of the run, divided by its divisor if it has one,
and writes the contiguous plane it is given, so spectral.advance_into
evolves a state, normalized or not, into one snapshot file per step
through them, with no field held at all.  read_weber, which holds the
field, serves the library and its tests; the command line reads every
state file through a WeberFile.
new_weber_files writes its files under temporary names and gives each its
name when the caller commits it, in the caller's order.  Only a big-endian
host converts, one plane at a time.

CSV exports carry their column names in the first line (no comment
prefix) so they load directly into plotting tools.  write_csv, the one CSV
writer, takes its rows in blocks and formats a bounded number of rows at a
time, so a caller that hands it one block per trajectory or per time holds
no table of the whole file.  write_npz writes the bytes of np.savez
straight from the arrays' memory, a block of numbers at a time.
"""

from __future__ import annotations

import itertools
import os
import struct
import zipfile
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

# CSV rows that write_csv formats in one %; each number of them takes a
# float object and a tuple slot (32 bytes) and 25 bytes of text
_CSV_ROWS = 4096

# numbers of an array that write_npz writes in one call (512 KiB of float64)
_NPZ_NUMBERS = 2 ** 16


@dataclass
class WeberFile:
    """A PHWF1 file's path and header, its payload read and written a z-plane at a time.

    Like fields.FieldPlanes and planewaves.StatePlanes, ``reader(buffer)``
    and ``writer()`` give each worker run of a plane loop read(zs) and
    write(zs, plane) for the plane view's z-planes ``zs`` of shape
    (1, n, n, 3), each at its offset in the file through the run's own file
    handle.  ``read`` fills the run's complex plane buffer ``buffer``
    (payload order), divides it in place by ``divisor`` if a divisor is
    given (numpy's complex division, the bits of np.divide of the field's
    plane), and returns it; ``write`` writes ``plane``, which is to be
    contiguous in payload order.  So a state file is normalized as it is
    read, a plane at a time, and never held.
    """

    path: object
    spec: GridSpec
    representation: str
    time: float
    divisor: object = None

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
                if self.divisor is not None:
                    np.divide(buffer, self.divisor, out=buffer)
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
    try:  # an n below 2, or an L, c or hbar out of range: named with the file, as above
        spec = GridSpec(int(n), box_length, c, hbar)
    except FieldValidationError as exc:  # a RangeError stays a RangeError
        raise type(exc)(f"{path}: {exc}") from exc
    return WeberFile(path, spec, _TAG_REPS[tag], time)


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


def write_csv(path, header: str, blocks) -> None:
    """Write the line ``header``, then row blocks as CSV: each block is a list
    of columns (arrays of equal length, or of shape (rows, m) for m columns),
    and the file has the bytes of np.savetxt(path, table, delimiter=",",
    header=header, comments="") for the table of every block's rows in turn.
    Each block is formatted _CSV_ROWS rows at a time, so what the writer
    holds does not grow with the row count."""
    with open(path, "w") as fh:
        fh.write(f"{header}\n")
        for block in blocks:
            block = [np.asarray(col, dtype=float) for col in block]
            for start in range(0, len(block[0]), _CSV_ROWS):
                table = np.column_stack([col[start:start + _CSV_ROWS] for col in block])
                rows = (",".join(["%.18e"] * table.shape[1]) + "\n") * table.shape[0]
                fh.write(rows % tuple(table.ravel().tolist()))


def write_npz(path, arrays: dict) -> None:
    """Write the bytes of np.savez(path, **arrays) for numeric arrays, each
    taken in C order: one stored zip64 member ``<name>.npy`` per array, its
    .npy version 1.0 header, then its numbers in blocks of _NPZ_NUMBERS,
    each written through a memoryview of the array's own memory.  np.savez
    copies each array whole through tobytes (a zip member is not a real
    file); this copies no C-contiguous array."""
    with zipfile.ZipFile(path, mode="w", compression=zipfile.ZIP_STORED,
                         allowZip64=True) as archive:
        for name, array in arrays.items():
            array = np.asarray(array, order="C")
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                numbers = array.reshape(-1)
                for start in range(0, numbers.size, _NPZ_NUMBERS):
                    member.write(memoryview(numbers[start:start + _NPZ_NUMBERS]))


def trajectories_to_csv(path, trajectories) -> None:
    """Trajectory list as traj,t,x,y,z,vx,vy,vz,node_hit (node_hit 0/1 per
    trajectory), one write_csv block per trajectory."""
    write_csv(path, "traj,t,x,y,z,vx,vy,vz,node_hit",
              ([np.broadcast_to(float(idx), traj.times.shape), traj.times, traj.positions,
                traj.velocities, np.broadcast_to(float(traj.node_hit), traj.times.shape)]
               for idx, traj in enumerate(trajectories)))
