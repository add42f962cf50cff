"""The comparison of tools/same_outputs.py --allow-ulps: distances in ulps of
the largest magnitude of an array, a CSV column, a JSON file or a stream."""

import importlib.util
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _up(value, ulps):
    """``value`` moved up by ``ulps`` of its own spacing."""
    for _ in range(ulps):
        value = np.nextafter(value, np.inf)
    return float(value)


def test_a_stream_is_measured_in_ulps_of_its_largest_number():
    old = "t =          0   energy = 248.050213442   N = 1   transversality = 2.440e-17\n"
    assert same_outputs.text_ulps(old, old) == 0.0
    # a noise-level value that doubles moves far less than an ulp of 248
    noisy = old.replace("2.440e-17", "4.880e-17")
    assert 0.0 < same_outputs.text_ulps(old, noisy) < 1e-3
    moved = old.replace("248.050213442", repr(_up(248.050213442, 3)))
    assert same_outputs.text_ulps(old, moved) == 3.0


@pytest.mark.parametrize("old, new, distance", [
    ("x = 0.0", "x = -0.0", 0.0),
    ("x = nan", "x = nan", 0.0),
    ("x = nan", "x = 1.0", math.inf),
    ("x = inf", "x = 1.0", math.inf),
    ("x = inf", "x = inf", 0.0),
])
def test_equal_numbers_are_at_distance_0_and_a_lost_finite_value_at_inf(old, new, distance):
    assert same_outputs.text_ulps(old, new) == distance


def test_text_between_the_numbers_must_match():
    assert same_outputs.NUMBER.findall("wrote snapshot_01.phwf, photonflow 0.1.0") == []
    assert same_outputs.NUMBER.findall("index (1, 2, 3), component -0, t = 2.5e-3.") == [
        "1", "2", "3", "-0", "2.5e-3"]
    with pytest.raises(same_outputs.TextDiffers):
        same_outputs.text_ulps("N = 1 photon", "N = 1 photons")
    with pytest.raises(same_outputs.TextDiffers):
        same_outputs.text_ulps("snapshot_01.phwf", "snapshot_02.phwf")


def test_json_numbers_form_one_array_and_its_structure_must_match(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    record = {"n": 16, "normalized": True, "snapshots": [
        {"energy": 2.5, "photon_number": 1.0, "transversality_residual": 2.44e-17}]}
    old.write_text(json.dumps(record))
    record["snapshots"][0]["energy"] = _up(2.5, 2)
    new.write_text(json.dumps(record))
    assert same_outputs.json_ulps(old, new) == pytest.approx(2.0 * np.spacing(2.5)
                                                             / np.spacing(16.0))
    record["normalized"] = False  # a bool is not a number
    new.write_text(json.dumps(record))
    with pytest.raises(same_outputs.TextDiffers):
        same_outputs.json_ulps(old, new)


def test_each_csv_column_is_its_own_array(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    table = np.array([[0.0, 1000.0, 1e-3], [0.5, 2000.0, 2e-3]])
    np.savetxt(old, table, delimiter=",", header="t,y,rho", comments="")
    table[1, 2] = _up(2e-3, 5)  # 5 ulps of the column's largest value
    np.savetxt(new, table, delimiter=",", header="t,y,rho", comments="")
    assert same_outputs.csv_ulps(old, new) == 5.0
    np.savetxt(new, table, delimiter=",", header="t,y,p", comments="")
    with pytest.raises(same_outputs.TextDiffers):
        same_outputs.csv_ulps(old, new)


def _phwf(path, payload, time=0.0, tag=1):
    header = struct.pack("<5sIdddBd", b"PHWF1", 2, 2.0 * math.pi, 1.0, 1.0, tag, time)
    path.write_bytes(header + np.asarray(payload, dtype="<c16").tobytes())


def test_a_phwf_payload_is_one_array_read_in_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(same_outputs, "_CHUNK", 5)  # the 48 payload floats in 10 chunks
    payload = np.arange(24, dtype=float) * (1.0 + 1.0j)
    _phwf(tmp_path / "old.phwf", payload)
    payload[10] = _up(10.0, 1) + 10.0j  # one ulp of 10: half an ulp of the largest, 23
    _phwf(tmp_path / "new.phwf", payload)
    assert same_outputs.phwf_ulps(tmp_path / "old.phwf", tmp_path / "new.phwf") == 0.5
    _phwf(tmp_path / "new.phwf", payload, tag=0)
    with pytest.raises(same_outputs.TextDiffers):
        same_outputs.phwf_ulps(tmp_path / "old.phwf", tmp_path / "new.phwf")


def test_npz_members_are_compared_as_arrays(tmp_path):
    np.savez(tmp_path / "old.npz", s=np.array([0.0, 4.0]), rho=np.array([1.0, 2.0]))
    np.savez(tmp_path / "new.npz", s=np.array([-0.0, 4.0]), rho=np.array([1.0, _up(2.0, 4)]))
    assert same_outputs.npz_ulps(tmp_path / "old.npz", tmp_path / "new.npz") == 4.0


def test_a_job_differs_beyond_roundoff_in_its_exit_code_and_unknown_files(tmp_path):
    (tmp_path / "a.txt").write_text("one")
    (tmp_path / "b.txt").write_text("two")
    (tmp_path / "a.json").write_text("[1.0]")
    (tmp_path / "b.json").write_text(json.dumps([_up(1.0, 1)]))
    old = (0, b"N = 1\n", b"", {"f.txt": tmp_path / "a.txt", "g.json": tmp_path / "a.json",
                                "h.json": tmp_path / "a.json"})
    new = (1, b"N = 1\n", b"", {"f.txt": tmp_path / "b.txt", "g.json": tmp_path / "b.json"})
    assert same_outputs.distances(old, new) == {
        "exit code": math.inf, "f.txt": math.inf, "g.json": 1.0, "h.json": math.inf}
    assert same_outputs.distances(old, old) == {}
