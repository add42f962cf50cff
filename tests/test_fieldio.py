"""Binary field container round trips and the CSV writers."""

import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonflow import GridSpec, WeberGrid, read_weber, write_weber
from photonflow.bohm import Trajectory
from photonflow.errors import FieldValidationError
from photonflow.fieldio import (_NPZ_NUMBERS, _PIECE_NUMBERS, open_weber, trajectories_to_csv,
                               write_csv, write_npz)
from photonflow.fields import plane_view


def _random_grid(rng, n=4, representation="position", c=1.0, hbar=1.0,
                 time=0.0):
    spec = GridSpec(n, 2.0 * np.pi, c, hbar)
    field = rng.standard_normal((n, n, n, 3)) + 1j * rng.standard_normal((n, n, n, 3))
    return WeberGrid(field, spec, representation=representation, time=time)


@pytest.mark.parametrize("representation", ["position", "momentum"])
def test_round_trip(tmp_path, rng, representation):
    weber = _random_grid(rng, representation=representation, c=2.5, hbar=0.7,
                         time=1.25)
    path = tmp_path / "field.phwf"
    write_weber(path, weber)
    back = read_weber(path)
    assert back.spec == weber.spec
    assert back.representation == representation
    assert back.time == 1.25
    assert_allclose(back.field, weber.field, atol=0)


def test_header_layout(tmp_path, rng):
    weber = _random_grid(rng, n=2, c=3.0, hbar=0.5, time=-0.75)
    path = tmp_path / "field.phwf"
    write_weber(path, weber)
    raw = path.read_bytes()
    magic, n, box, c, hbar, tag, time = struct.unpack_from("<5sIdddBd", raw)
    assert magic == b"PHWF1"
    assert n == 2
    assert box == 2.0 * np.pi
    assert (c, hbar, tag, time) == (3.0, 0.5, 0, -0.75)


def test_payload_is_x_fastest_interleaved(tmp_path, rng):
    weber = _random_grid(rng, n=2)
    path = tmp_path / "field.phwf"
    write_weber(path, weber)
    header_size = struct.calcsize("<5sIdddBd")
    payload = np.frombuffer(path.read_bytes()[header_size:], dtype="<f8")
    # second point of the stream is (ix=1, iy=0, iz=0)
    point1 = payload[6:12]
    expected = weber.field[1, 0, 0]
    assert_allclose(point1[0::2], expected.real, atol=0)
    assert_allclose(point1[1::2], expected.imag, atol=0)


def test_payload_bytes_match_a_hand_packed_reference(tmp_path):
    spec = GridSpec(2, 2.0 * np.pi, 1.5, 0.25)
    values = np.arange(1.0, 25.0)
    field = (values / 7.0 - 1j * values * 3.0).reshape(2, 2, 2, 3)  # all distinct
    field[1, 0, 1, 2] = complex(-0.0, 5e-324)  # signed zero and a subnormal
    path = tmp_path / "field.phwf"
    write_weber(path, WeberGrid(field, spec, representation="momentum", time=0.125))
    expected = struct.pack("<5sIdddBd", b"PHWF1", 2, spec.box_length, 1.5, 0.25, 1, 0.125)
    for iz in range(2):
        for iy in range(2):
            for ix in range(2):  # x fastest
                for value in field[ix, iy, iz]:
                    expected += struct.pack("<dd", value.real, value.imag)
    assert path.read_bytes() == expected
    back = read_weber(path)
    assert back.field.dtype == np.complex128
    assert back.field.tobytes() == field.tobytes()  # bit-exact, -0.0 included


@pytest.mark.parametrize("divisor", [None, 3.7, 1e-300])
def test_a_file_reads_its_planes_through_a_divisor_as_a_field_does(tmp_path, rng, divisor):
    # each plane read through the divisor holds the bits of np.divide of the
    # field's plane by it; the file itself is only read
    weber = _random_grid(rng, n=5, representation="momentum")
    path = tmp_path / "field.phwf"
    write_weber(path, weber)
    stored = open_weber(path)
    stored.divisor = divisor
    with stored.reader(np.empty((1, 5, 5, 3), dtype=complex)) as read:
        for iz in range(5):
            plane = plane_view(weber.field)[iz:iz + 1]
            expected = plane if divisor is None else np.divide(plane, divisor)
            assert read(slice(iz, iz + 1)).tobytes() == expected.tobytes()
    assert read_weber(path).field.tobytes() == weber.field.tobytes()


def test_bad_magic_rejected(tmp_path, rng):
    path = tmp_path / "field.phwf"
    write_weber(path, _random_grid(rng))
    raw = bytearray(path.read_bytes())
    raw[:5] = b"NOPE!"
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldValidationError):
        read_weber(path)


def test_truncated_payload_rejected(tmp_path, rng):
    path = tmp_path / "field.phwf"
    write_weber(path, _random_grid(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FieldValidationError):
        read_weber(path)


def test_bad_representation_tag_rejected(tmp_path, rng):
    path = tmp_path / "field.phwf"
    write_weber(path, _random_grid(rng, n=2))
    raw = bytearray(path.read_bytes())
    raw[struct.calcsize("<5sIddd")] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldValidationError):
        read_weber(path)


@pytest.mark.parametrize("n, offset, value, message", [
    # the header's last float64 is the time
    (2, struct.calcsize("<5sIdddB"), np.nan, "header time nan"),
    # float64 number 33 of the payload: point 5 = (ix 1, iy 0, iz 1), Im Fy
    (2, struct.calcsize("<5sIdddBd") + 8 * 33, np.nan, r"grid index \(1, 0, 1\), component 1"),
    (2, struct.calcsize("<5sIdddBd") + 8 * 33, -np.inf, r"grid index \(1, 0, 1\), component 1"),
    # float64 number 326 at n = 4: point 54 = (ix 2, iy 1, iz 3) in the last z-plane, Re Fy
    (4, struct.calcsize("<5sIdddBd") + 8 * 326, np.inf, r"grid index \(2, 1, 3\), component 1"),
], ids=["nan-time", "nan-payload", "inf-payload", "inf-last-plane"])
def test_non_finite_values_rejected(tmp_path, rng, n, offset, value, message):
    path = tmp_path / "field.phwf"
    write_weber(path, _random_grid(rng, n=n))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldValidationError, match=message):
        read_weber(path)


def test_write_csv_header_and_columns(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, "a,b", [[np.array([1.0, 2.0]), np.array([3.0, 4.0])]])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3
    assert_allclose([float(v) for v in lines[1].split(",")], [1.0, 3.0])


# the values whose spelling needs care: NaN of either sign, +-inf, -0.0 beside
# 0.0, subnormals, and 1e16 and 1e-5, where repr switches to exponent notation
SPECIAL = [float("nan"), -float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324,
           2.2250738585072e-308, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1.0, -2.5]


@pytest.mark.parametrize("rows, ncol", [(0, 3), (1, 1), (9, 4), (300, 9),
                                        (_PIECE_NUMBERS + 5, 2), (3, _PIECE_NUMBERS + 1)])
def test_write_csv_has_the_bytes_of_savetxt(tmp_path, rng, rows, ncol):
    table = rng.standard_normal((rows, ncol)) * 10.0 ** rng.integers(-300, 300, (rows, ncol))
    table.flat[::3] = rng.choice(SPECIAL, table.size)[::3]
    header = ",".join(f"c{i}" for i in range(ncol))
    # two blocks of columns; at 300 rows of 9 and at _PIECE_NUMBERS + 5 rows of 2
    # each spans two formatting pieces, and a row wider than a piece is a piece
    write_csv(tmp_path / "ours.csv", header, [list(part.T) for part in np.array_split(table, 2)])
    np.savetxt(tmp_path / "savetxt.csv", table, delimiter=",", header=header, comments="")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def _peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writers_hold_one_block_whatever_the_row_count(tmp_path, rng):
    # write_csv formats _PIECE_NUMBERS numbers at a time, and trajectories_to_csv
    # hands it one trajectory at a time: a file of many pieces, or of
    # trajectories longer than a piece, peaks as one piece does
    def trajectories(knots, count):
        return [Trajectory(np.arange(knots, dtype=float), rng.standard_normal((knots, 3)),
                           rng.standard_normal((knots, 3)), "phi_based") for _ in range(count)]

    path, budget = tmp_path / "out.csv", {}
    for name, write, one_block, many_blocks in (
            ("write_csv", lambda table: write_csv(path, "a,b,c,d", [list(table.T)]),
             rng.standard_normal((_PIECE_NUMBERS // 4, 4)),
             rng.standard_normal((12 * _PIECE_NUMBERS // 4 + 17, 4))),
            ("trajectories_to_csv", lambda trajs: trajectories_to_csv(path, trajs),
             trajectories(_PIECE_NUMBERS // 9, 1), trajectories(4 * _PIECE_NUMBERS // 9 + 5, 3))):
        budget[name] = _peak(lambda: write(many_blocks)) / _peak(lambda: write(one_block))
        assert budget[name] < 1.1, budget


def test_write_npz_has_the_bytes_of_savez(tmp_path, rng):
    # arrays of one block, of exactly two and of more than two whose last
    # block is short, stacked as boost-audit stacks its samples, an empty one
    # and a scalar
    arrays = {"one": rng.standard_normal((8, 5)),
              "edge": rng.standard_normal((2, _NPZ_NUMBERS)),
              "over": rng.standard_normal((8, _NPZ_NUMBERS // 3 + 7, 3)),
              "empty": np.empty((0, 3)), "scalar": np.float64(2.5)}
    write_npz(tmp_path / "ours.npz", arrays)
    np.savez(tmp_path / "savez.npz", **arrays)
    assert (tmp_path / "ours.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()
    # the same members, all but the first given by their shapes and copied
    # from a spill file that holds their numbers in member order
    spilled = {name: array for name, array in arrays.items() if name != "one"}
    with open(tmp_path / "spill", "w+b") as spill:
        for array in spilled.values():
            spill.write(np.asarray(array).tobytes())
        spill.seek(0)
        write_npz(tmp_path / "spilled.npz",
                  {name: np.shape(array) if name in spilled else array
                   for name, array in arrays.items()}, spill)
    assert (tmp_path / "spilled.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()


def test_write_npz_copies_no_array(tmp_path, rng):
    # np.savez copies an array whole; write_npz writes from the array's memory
    samples = rng.standard_normal((8, 4 * _NPZ_NUMBERS // 8, 3))
    peak = _peak(lambda: write_npz(tmp_path / "samples.npz", {"x_prime": samples}))
    assert peak < 0.01 * samples.nbytes, peak


def test_trajectories_csv_layout(tmp_path):
    times = np.array([0.0, 0.5])
    traj_a = Trajectory(times, np.zeros((2, 3)), np.ones((2, 3)), "phi_based")
    traj_b = Trajectory(times, np.ones((2, 3)), np.ones((2, 3)), "phi_based",
                        node_hit=True)
    path = tmp_path / "traj.csv"
    trajectories_to_csv(path, [traj_a, traj_b])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "traj,t,x,y,z,vx,vy,vz,node_hit"
    assert len(lines) == 1 + 4
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 0.0 and first[-1] == 0.0
    assert last[0] == 1.0 and last[-1] == 1.0


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("representation", ["position", "momentum"])
def test_asymmetric_round_trip_keeps_payload_order_and_sums(tmp_path, rng, n, representation):
    # a random field has no symmetry between x and z, so a swapped axis shows
    from photonflow import forward_transform, photon_number, total_energy
    from photonflow.fieldio import open_weber
    from photonflow.fields import FieldPlanes, box_energy
    from photonflow.photon import photon_count
    from photonflow.spectral import _sweep, kgrid, transversality_residual

    spec = GridSpec(n, 2.0 * np.pi * 1.3, 1.7, 0.6)
    values = rng.standard_normal((n, n, n, 3)) + 1j * rng.standard_normal((n, n, n, 3))
    weber = WeberGrid(values, spec, representation=representation, time=0.5)
    path = tmp_path / "field.phwf"
    write_weber(path, weber)
    payload = path.read_bytes()[struct.calcsize("<5sIdddBd"):]
    assert payload == np.ascontiguousarray(values.transpose(2, 1, 0, 3)).astype("<c16").tobytes()
    back = read_weber(path)
    assert back.field.transpose(2, 1, 0, 3).flags.c_contiguous
    assert back.field.tobytes() == values.tobytes()
    tilde = back if representation == "momentum" else forward_transform(back)
    (residual, sums, _), = _sweep(FieldPlanes(tilde))
    if representation == "momentum":  # the same pass reading the file's planes
        assert _sweep(open_weber(path))[0][:2] == (residual, sums)
    f = np.ascontiguousarray(tilde.field)  # C-ordered reference routes from here
    sq = (np.abs(f) ** 2).sum(axis=-1)
    kg = kgrid(spec)
    assert box_energy(sums.sum_sq, spec, "momentum") == pytest.approx(total_energy(tilde),
                                                                      rel=1e-13, abs=0)
    assert sums.sum_sq == pytest.approx(sq.sum(), rel=1e-13, abs=0)
    assert photon_count(sums.sum_sq_over_k, spec) == pytest.approx(
        photon_number(tilde, dc_tolerance=1.0), rel=1e-13, abs=0)
    assert sums.sum_sq_over_k == pytest.approx((sq * kg.shell_inv_k[kg.shell()]).sum(),
                                               rel=1e-13, abs=0)
    assert sums.dc_sq == pytest.approx(sq[0, 0, 0], rel=1e-15, abs=0)
    assert residual == transversality_residual(tilde)
    m = np.fft.fftfreq(n, 1 / n)  # signed FFT indices
    k = spec.dk * np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1)
    norm = np.linalg.norm(k, axis=-1, keepdims=True)
    k_hat = np.divide(k, norm, out=np.zeros_like(k), where=norm > 0)
    longitudinal = np.abs(np.einsum("xyzc,xyzc->xyz", k_hat, f)).max()
    assert residual == pytest.approx(longitudinal / np.sqrt(sq.max()), rel=1e-12, abs=0)
