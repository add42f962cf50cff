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
transpose.  write_weber writes each plane of the plane view.  read_weber
and open_weber check the header and the file size against the header's n
before anything is allocated; read_weber then reads each plane into place,
and open_weber gives the file's WeberFile, whose payload is read in passes
of the caller's own.  One function (_read_plane) reads every payload
plane, and it checks the plane it reads for non-finite values, so no route
reads a plane unchecked and none reads a file twice to check it.  A
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
writer, takes its rows in blocks and formats a fixed count of numbers at a
time, so a caller that hands it one block per trajectory or per time holds
no table of the whole file.  write_npz writes the bytes of np.savez
straight from the arrays' memory, or, for a member given by its shape,
from a spill file the caller has laid out in the members' order, a block
of numbers at a time.  new_files, behind new_weber_files, writes any new
files under temporary names and removes those not committed.
"""

from __future__ import annotations

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

# numbers that one formatting call turns into text (write_csv's % and the
# CLI's json.dumps of a piece of a sample list); each takes a float object
# and a tuple or list slot (32 bytes) and about 25 bytes of text
_PIECE_NUMBERS = 2 ** 10

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
    (payload order), raises read_weber's error if the plane holds a
    non-finite value, divides it in place by ``divisor`` if a divisor is
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
def new_files(paths):
    """Give (partials, commit): a temporary name in its directory for each of
    ``paths``, under which the block writes that file, and ``commit(i)``,
    which gives file i the name ``paths[i]``.  When the block ends, or
    raises, every file it has not committed is removed and its path left as
    it was; a file that is never committed is a scratch file of the block."""
    partials = []
    for path in paths:
        directory, name = os.path.split(os.fspath(path))
        partials.append(os.path.join(directory, f".{name}.{os.getpid()}.partial"))

    def commit(i):
        os.replace(partials[i], paths[i])

    try:
        yield partials, commit
    finally:
        for partial in partials:  # a committed file has its name: what is left is not
            if os.path.exists(partial):
                os.remove(partial)


@contextmanager
def new_weber_files(paths, spec: GridSpec, representation: str, times):
    """Give (files, commit) for new PHWF1 files, one per path: ``files`` holds
    the WeberFile of each, with this header and the time of the same index,
    whose payload the block writes plane by plane (WeberFile.writer), and
    ``commit(i)`` gives file i the name ``paths[i]``.

    The files are written under temporary names in their directories
    (new_files), so a file the block reads may be one of ``paths``.  When
    the block ends, or raises, every file it has not committed is removed
    and its path left as it was.
    """
    with new_files(paths) as (partials, commit):
        files = []
        for partial, time in zip(partials, times):
            with open(partial, "wb") as fh:
                fh.write(_header_bytes(spec, representation, time))
            files.append(WeberFile(partial, spec, representation, time))
        yield files, commit


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
    """Read z-plane ``iz`` of the payload from ``fh`` into the buffer ``plane``
    and check it for non-finite values, naming the first bad entry."""
    # the size was checked with the header: only a file shortened while it is read gets here
    if fh.readinto(plane) != plane.nbytes:
        raise FieldValidationError(f"{path}: payload ended early at z-plane {iz}")
    # the payload's own floats, six per point, whatever the buffer's dtype or byte order
    finite = np.isfinite(plane.view("<f8"))
    if not finite.all():
        point, part = divmod(int(np.argmin(finite)), 6)
        n = plane.shape[-2]
        raise FieldValidationError(
            f"{path}: payload is non-finite at grid index "
            f"{(point % n, point // n, iz)}, component {part // 2}")


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
        for iz, plane in enumerate(planes):
            _read_plane(fh, path, plane, iz)
    return WeberGrid(plane_view(planes), stored.spec, stored.representation, stored.time)


def open_weber(path) -> WeberFile:
    """The WeberFile of a PHWF1 file whose header and size read_weber accepts,
    with the same errors; the payload is not read here, and its reader makes
    read_weber's check of each plane it reads."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def write_csv(path, header: str, blocks) -> None:
    """Write the line ``header``, then row blocks as CSV: each block is a list
    of columns (arrays of equal length, or of shape (rows, m) for m columns),
    and the file has the bytes of np.savetxt(path, table, delimiter=",",
    header=header, comments="") for the table of every block's rows in turn.
    Each block is formatted in pieces of about _PIECE_NUMBERS numbers (that
    count over the block's column count, in rows), so what the writer holds
    grows with neither the row count nor the block size; ``blocks`` may be a
    generator that forms each block as the writer reaches it."""
    with open(path, "w") as fh:
        fh.write(f"{header}\n")
        for block in blocks:
            block = [np.asarray(col, dtype=float) for col in block]
            width = sum(1 if col.ndim == 1 else col.shape[1] for col in block)
            line, rows = ",".join(["%.18e"] * width) + "\n", max(1, _PIECE_NUMBERS // width)
            for start in range(0, len(block[0]), rows):
                table = np.column_stack([col[start:start + rows] for col in block])
                fh.write((line * len(table)) % tuple(table.ravel().tolist()))


def write_npz(path, arrays: dict, spill=None) -> None:
    """Write the bytes of np.savez(path, **arrays) for numeric arrays, each
    taken in C order: one stored zip64 member ``<name>.npy`` per array, its
    .npy version 1.0 header, then its numbers in blocks of _NPZ_NUMBERS.
    An array in memory is written through memoryviews of its own memory:
    np.savez copies each array whole through tobytes (a zip member is not a
    real file); this copies no C-contiguous array.  A member given by its
    shape, a tuple, in place of an array holds the next float64 numbers of
    the open binary file ``spill``, copied a block at a time, so a caller
    that lays out its rows in a file in the members' order holds none."""
    with zipfile.ZipFile(path, mode="w", compression=zipfile.ZIP_STORED,
                         allowZip64=True) as archive:
        for name, array in arrays.items():
            # a member given by its shape: a stand-in of that shape, which
            # holds one float64, gives its header, and spill its numbers
            spilled = isinstance(array, tuple)
            array = np.broadcast_to(0.0, array) if spilled else np.asarray(array, order="C")
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                for start in range(0, array.size, _NPZ_NUMBERS):
                    member.write(spill.read(8 * min(_NPZ_NUMBERS, array.size - start)) if spilled
                                 else memoryview(array.reshape(-1)[start:start + _NPZ_NUMBERS]))


def trajectories_to_csv(path, trajectories) -> None:
    """Trajectories (any iterable, e.g. a generator that integrates them as
    the writer reaches them) as traj,t,x,y,z,vx,vy,vz,node_hit (node_hit 0/1
    per trajectory), one write_csv block per trajectory."""
    write_csv(path, "traj,t,x,y,z,vx,vy,vz,node_hit",
              ([np.broadcast_to(float(idx), traj.times.shape), traj.times, traj.positions,
                traj.velocities, np.broadcast_to(float(traj.node_hit), traj.times.shape)]
               for idx, traj in enumerate(trajectories)))
