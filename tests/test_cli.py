"""End-to-end checks of the command-line interface.

Each test drives ``photonflow.cli.main`` in-process with a temp output
directory and inspects the files it writes; one test runs the installed
console script in a subprocess.
"""

import errno
import importlib.util
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import photonflow
from photonflow import (GridSpec, WeberGrid, __version__, forward_transform,
                        inverse_transform, photon_number, place, sample_to_grid, total_energy)
from photonflow import cli, fieldio, fields, photon, spectral
from photonflow.cli import (_AUDIT_SAMPLES_LIMIT, _FIELD_BYTES_LIMIT, _POINT_KNOTS_LIMIT,
                            _check_budget, build_parser, load_config, main)
from photonflow.errors import ConfigError
from photonflow.fieldio import _HEADER, read_weber, write_json, write_weber
from photonflow.planewaves import counterprop_pair

README = Path(__file__).resolve().parent.parent / "README.md"


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def _run(tmp_path, command, config=None, extra=()):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if config is not None:
        argv += ["--config", _write_config(tmp_path, config)]
    argv += list(extra)
    return main(argv), out


def _load_json(out, name):
    return json.loads((out / name).read_text())


# --- info ---------------------------------------------------------------


def test_info_prints_version_presets_and_tolerances(capsys):
    assert main(["info"]) == 0
    text = capsys.readouterr().out
    assert __version__ in text
    assert "single-wave" in text
    assert "counterprop-pair" in text
    assert "transversality" in text
    assert "PHWF1" in text


@pytest.mark.parametrize("option", [["--config", "absent.json"], ["--out", "x"],
                                    ["--seed", "3"], ["--tolerance", "audit=nan"]],
                         ids=["config", "out", "seed", "tolerance"])
def test_info_rejects_run_options(capsys, option):
    # info reads no config and writes nothing, so a run option is an error, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["info"] + option)
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "photonflow", "info"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert __version__ in result.stdout


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read what the command prints
    # block-buffered stdout, as by default for a pipe
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "photonflow", "boost-audit", "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr
    assert result.returncode == 1
    # the table is buffered, so the command wrote its files before the flush failed
    assert (tmp_path / "audits.json").exists()


# --- evolve ---------------------------------------------------------------


def test_evolve_writes_snapshots_and_diagnostics(tmp_path):
    rc, out = _run(tmp_path, "evolve")
    assert rc == 0
    diag = _load_json(out, "diagnostics.json")
    snapshots = diag["snapshots"]
    assert [s["time"] for s in snapshots] == [0.0, 1.0, 2.0]

    energies = [s["energy"] for s in snapshots]
    numbers = [s["photon_number"] for s in snapshots]
    box = (2.0 * np.pi) ** 3
    np.testing.assert_allclose(energies, box, rtol=1e-12)
    np.testing.assert_allclose(numbers, box, rtol=1e-12)
    assert all(s["transversality_residual"] < 1e-10 for s in snapshots)

    for s in snapshots:
        stored = read_weber(out / s["file"])
        assert stored.representation == "momentum"
        assert stored.time == s["time"]
        assert stored.spec.n_per_axis == diag["grid"]["n"]


def test_evolve_normalize_gives_unit_photon_number(tmp_path):
    rc, out = _run(tmp_path, "evolve",
                   config={"evolve": {"times": [0.0, 0.9, 3.7], "normalize": True}})
    assert rc == 0
    diag = _load_json(out, "diagnostics.json")
    assert diag["normalized"] is True
    for s in diag["snapshots"]:
        assert abs(s["photon_number"] - 1.0) < 1e-12


def test_evolve_resumes_from_snapshot_file(tmp_path):
    rc, first = _run(tmp_path, "evolve", config={"evolve": {"times": [0.0, 0.7]}})
    assert rc == 0

    resume_cfg = _write_config(
        tmp_path,
        {"state": {"file": str(first / "snapshot_01.phwf")},
         "evolve": {"times": [1.5]}},
        name="resume.json")
    resumed_out = tmp_path / "resumed"
    assert main(["evolve", "--config", resume_cfg, "--out", str(resumed_out)]) == 0

    rc, direct = _run(tmp_path, "evolve", config={"evolve": {"times": [1.5]}})
    assert rc == 0

    resumed = read_weber(resumed_out / "snapshot_00.phwf")
    reference = read_weber(direct / "snapshot_00.phwf")
    assert resumed.time == reference.time == 1.5
    np.testing.assert_allclose(resumed.field, reference.field, atol=1e-13)


def test_evolve_normalizes_a_state_file_as_it_does_the_placed_state(tmp_path):
    # a momentum file to be normalized is read into memory and read through
    # the same divisor as the placed state it holds: the snapshots agree bit for bit
    config = {"grid": {"n": 8}, "evolve": {"times": [0.0, 0.6]}}
    assert main(["evolve", "--config", _write_config(tmp_path, config, name="plain.json"),
                 "--out", str(tmp_path / "plain")]) == 0
    config["evolve"]["normalize"] = True
    assert main(["evolve", "--config", _write_config(tmp_path, config, name="norm.json"),
                 "--out", str(tmp_path / "normalized")]) == 0
    resume = {"state": {"file": str(tmp_path / "plain" / "snapshot_00.phwf")},
              "evolve": {"times": [0.0, 0.6], "normalize": True}}
    rc, out = _run(tmp_path, "evolve", config=resume)
    assert rc == 0
    for name in ("snapshot_00.phwf", "snapshot_01.phwf", "diagnostics.json"):
        assert (out / name).read_bytes() == (tmp_path / "normalized" / name).read_bytes()


def test_evolve_zero_state(tmp_path):
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"components": []}, "evolve": {"times": [0.0, 1.0]}})
    assert rc == 0
    diag = _load_json(out, "diagnostics.json")
    assert all(s["energy"] == 0.0 for s in diag["snapshots"])
    assert all(s["photon_number"] == 0.0 for s in diag["snapshots"])

    rc, _ = _run(tmp_path, "evolve",
                 config={"state": {"components": []},
                         "evolve": {"times": [0.0], "normalize": True}})
    assert rc == 1


def test_evolve_custom_components(tmp_path):
    config = {
        "state": {"components": [
            {"k": [0, 0, 2], "I": 0.5, "handedness": "left", "phase": 0.25},
        ]},
        "evolve": {"times": [0.4]},
    }
    rc, out = _run(tmp_path, "evolve", config=config)
    assert rc == 0
    snap = _load_json(out, "diagnostics.json")["snapshots"][0]
    box = (2.0 * np.pi) ** 3
    assert abs(snap["energy"] - 0.5 * box) < 1e-9
    assert abs(snap["photon_number"] - 0.25 * box) < 1e-9


def test_evolve_resumes_from_a_position_representation_file(tmp_path):
    spec = GridSpec(8, 2.0 * np.pi, 1.3, 0.9)
    position = sample_to_grid(counterprop_pair(1.0, 2.0), spec)
    assert position.representation == "position"
    path = tmp_path / "position.phwf"
    write_weber(path, position)
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(path)}, "evolve": {"times": [0.0, 0.5]}})
    assert rc == 0
    tilde = forward_transform(position)
    first, second = _load_json(out, "diagnostics.json")["snapshots"]
    # t = 0 is the state's own time: the snapshot is the transformed field itself
    assert read_weber(out / first["file"]).field.tobytes() == tilde.field.tobytes()
    assert (first["energy"], first["photon_number"]) == (total_energy(tilde),
                                                         photon_number(tilde))
    assert second["energy"] == pytest.approx(total_energy(tilde), rel=1e-13)
    assert second["photon_number"] == pytest.approx(photon_number(tilde), rel=1e-13)


@pytest.mark.parametrize("representation, normalize", [("position", False),
                                                      ("momentum", True)])
def test_a_state_file_read_into_memory_is_read_once(tmp_path, monkeypatch, representation,
                                                    normalize):
    # the header decides: a file that read_weber reads into memory is not
    # also run through check_weber's pass; a NaN entry still stops the run
    # before --out exists
    spec = GridSpec(8, 2.0 * np.pi)
    field = place(counterprop_pair(1.0, 2.0), spec)
    if representation == "position":
        field = inverse_transform(field)
    path = tmp_path / "state.phwf"
    write_weber(path, field)

    def refused(path):
        raise AssertionError(f"check_weber read {path}")
    monkeypatch.setattr(cli, "check_weber", refused)
    config = _write_config(tmp_path, {"state": {"file": str(path)},
                                      "evolve": {"times": [0.0], "normalize": normalize}})
    assert main(["evolve", "--config", config, "--out", str(tmp_path / "out")]) == 0
    field.field[1, 2, 3, 0] = np.nan
    write_weber(path, field)
    assert main(["evolve", "--config", config, "--out", str(tmp_path / "nan")]) == 1
    assert not (tmp_path / "nan").exists()


def _count_plane_reads(monkeypatch):
    """The (file name, z-plane) of every payload plane fieldio reads from now on."""
    reads, original = [], fieldio._read_plane

    def read_plane(fh, path, plane, iz):
        reads.append((Path(path).name, iz))
        return original(fh, path, plane, iz)
    monkeypatch.setattr(fieldio, "_read_plane", read_plane)
    return reads


def test_evolve_reads_its_source_in_one_pass(tmp_path, monkeypatch):
    # a normalized run of T times takes the photon number of its state once,
    # then makes one pass that reads each plane of the state once and writes
    # every snapshot, and takes every diagnostic from it: it reads no snapshot
    # back, never builds the normalized copy and calls none of the reference
    # routes
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(name)
            return result
        monkeypatch.setattr(module, name, wrapper)

    counted(spectral, "_sweep")
    for module, name in ((photon, "photon_number"), (photon, "normalize_single_photon"),
                         (fields, "total_energy"), (spectral, "transversality_residual")):
        counted(module, name)
        if hasattr(cli, name):
            counted(cli, name)
    reads = _count_plane_reads(monkeypatch)
    times = [0.0, 0.5, 1.0, 2.5]
    assert len(times) <= cli._STEPS_PER_PASS
    rc, out = _run(tmp_path, "evolve", config={"grid": {"n": 8}, "evolve": {
        "times": times, "normalize": True}})
    assert rc == 0
    assert calls == ["photon_number", "_sweep"] and reads == []
    snapshots = _load_json(out, "diagnostics.json")["snapshots"]
    assert [s["time"] for s in snapshots] == times
    # from a momentum state file: check_weber reads each plane once, the pass
    # once more
    calls.clear()
    (tmp_path / "resumed").mkdir()
    rc, resumed = _run(tmp_path / "resumed", "evolve", config={
        "state": {"file": str(out / "snapshot_03.phwf")}, "evolve": {"times": times}})
    assert rc == 0 and calls == ["_sweep"]
    assert sorted(reads) == sorted([("snapshot_03.phwf", iz) for iz in range(8)] * 2)


def test_a_long_evolve_holds_a_bounded_number_of_files(tmp_path, monkeypatch):
    # more times than one pass takes: the passes, each reading the last
    # snapshot of the pass before it, hold at most one file per snapshot of a
    # pass plus the one they read per worker, and write the bytes and lines of
    # one pass per step
    monkeypatch.setattr(fields, "_WORKERS", 2)
    per_pass = cli._STEPS_PER_PASS
    opened, peak = [], [0]

    def counting_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    def write_plane(fh, plane, original=fieldio._write_plane):
        peak[0] = max(peak[0], sum(not fh.closed for fh in opened))
        original(fh, plane)
    monkeypatch.setattr(fieldio, "open", counting_open, raising=False)
    monkeypatch.setattr(fieldio, "_write_plane", write_plane)
    reads = _count_plane_reads(monkeypatch)
    times = [0.25 * i - 1.0 for i in range(2 * per_pass + 3)]
    times[4] = times[3]  # dt = 0
    config = {"grid": {"n": 4}, "evolve": {"times": times}}
    rc, out = _run(tmp_path, "evolve", config=config)
    assert rc == 0
    assert per_pass < peak[0] <= 2 * (per_pass + 1)
    # the passes after the first read the last snapshot of the one before
    assert sorted(set(reads)) == [(f"snapshot_{i:02d}.phwf", iz)
                                  for i in (per_pass - 1, 2 * per_pass - 1) for iz in range(4)]
    monkeypatch.setattr(cli, "_STEPS_PER_PASS", 1)
    (tmp_path / "chained").mkdir()
    rc, chained = _run(tmp_path / "chained", "evolve", config=config)
    assert rc == 0
    assert _listing(out) == _listing(chained)
    assert len(_listing(out)) == len(times) + 1
    for name in _listing(out):
        if name != "diagnostics.json":  # which names its directory
            assert (out / name).read_bytes() == (chained / name).read_bytes()
    assert (_load_json(out, "diagnostics.json")["snapshots"]
            == _load_json(chained, "diagnostics.json")["snapshots"])


def _load_same_outputs():
    """tools/same_outputs.py as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# what each FAILING job of tools/same_outputs.py leaves: exit code, stderr and
# the files in --out (None: --out is not created); stdout is empty
_FAILING_OUTCOMES = {
    "evolve-longitudinal": (1, "error: state has transversality residual 3.333e-01 > 1.0e-10; "
                               "project_transverse it first\n", []),
    "evolve-dc-heavy": (1, "error: k = 0 mode carries fraction 2.000e-06 of |F~|^2 (tolerance "
                           "1.0e-12); the 1/sqrt(k) photon weighting is singular there\n",
                        ["snapshot_00.phwf"]),
    "evolve-nan": (1, "error: {state}: payload is non-finite at grid index (1, 2, 3), "
                      "component 0\n", None),
}


@pytest.mark.parametrize("kind", sorted(_FAILING_OUTCOMES))
def test_the_failing_jobs_of_same_outputs_leave_what_they_always_left(tmp_path, capsys, kind):
    same_outputs = _load_same_outputs()
    state = tmp_path / f"{kind}.phwf"
    same_outputs.write_state_file(state, same_outputs.FAILING[kind])
    rc, out = _run(tmp_path, "evolve", config={"state": {"file": str(state)},
                                               "evolve": {"times": [0.0, 1.0]}})
    code, err, files = _FAILING_OUTCOMES[kind]
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (code, "", err.format(state=state))
    assert (_listing(out) if out.exists() else None) == files
    if files:  # the first step (dt = 0) passed its gate: the state itself
        assert (out / files[0]).read_bytes() == state.read_bytes()


@pytest.mark.parametrize("times", [[1e308], [0.0, 1e308]], ids=["first", "second"])
@pytest.mark.parametrize("command", ["evolve", "doubleslit"])
def test_time_with_a_non_finite_rotation_angle_exits_2_before_writing(tmp_path, capsys,
                                                                       command, times):
    # |k| c dt overflows to inf: cos and sin of it would be NaN everywhere; every
    # step is checked before --out exists, not only the one that fails
    rc, out = _run(tmp_path, command, config={"grid": {"n": 8}, command: {"times": times}})
    assert rc == 2
    assert f"(field: {command}.times)" in capsys.readouterr().err
    assert not out.exists()


_USAGE = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable] + sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss, usage.ru_minflt)
"""


def _child_usage(args):
    """(peak resident set in bytes, minor page faults) of ``python args`` in a
    fresh interpreter, from os.wait4.

    A small launcher starts the child: Linux folds the resident set a process
    has before exec into its ru_maxrss, so a child started from this (large)
    test process would report at least this process's resident set.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(photonflow.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", _USAGE, *args], env=env,
                            capture_output=True, text=True, check=True)
    code, rss_kib, faults = map(int, result.stdout.split())
    assert code == 0, args
    return 1024 * rss_kib, faults


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
def test_evolve_jobs_hold_one_field(tmp_path):
    # the normalized evolve job and its resume, as the benchmark runs them at
    # n = 128, and a resume from a position-representation file.  Beyond the
    # interpreter with photonflow imported and the wave-vector grid, the first
    # two read and write a plane at a time and hold no field (the normalized
    # copy or the read payload, a full field, takes them over half a field),
    # and the third holds one field (a second full-size copy, of the read
    # bytes or the forward transform, takes it over one and a half)
    n = 96
    shells = 3 * (n // 2) ** 2 + 1
    field_bytes = 48 * n ** 3  # complex 3-vectors
    # the per-shell |k| and 1/|k| and the plane's sums of index squares
    kgrid_bytes = 16 * shells + 8 * n ** 2
    baseline = _child_usage(["-c", "import photonflow.cli"])[0]
    run = tmp_path / "run"
    position = tmp_path / "position.phwf"
    write_weber(position, sample_to_grid(counterprop_pair(1.0, 2.0), GridSpec(n, 2.0 * np.pi)))
    jobs = [({"grid": {"n": n}, "evolve": {"times": [0.0, 1.0], "normalize": True}}, run),
            ({"state": {"file": str(run / "snapshot_01.phwf")},
              "evolve": {"times": [1.0, 2.0]}}, tmp_path / "resumed"),
            ({"state": {"file": str(position)}, "evolve": {"times": [0.0, 1.0]}},
             tmp_path / "from-position")]
    for i, ((config, out), limit) in enumerate(zip(jobs, (0.5, 0.5, 1.5))):
        path = _write_config(tmp_path, config, name=f"job{i}.json")
        extra = _child_usage(["-m", "photonflow", "evolve", "--config", path,
                              "--out", str(out)])[0] - baseline
        assert extra < limit * field_bytes + kgrid_bytes, (i, extra / field_bytes)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults through os.wait4, as Linux reports them")
def test_doubleslit_job_faults_its_plane_buffers_in_once(tmp_path):
    # the benchmark's doubleslit job (perfbench/workloads.py) at n = 96.  Its
    # plane loops keep every plane temporary in run buffers: allocated and
    # freed per plane and step, they would be trimmed off the heap and
    # faulted in again each time.  Counted in a fresh process: in this one,
    # earlier large frees have raised glibc's trim threshold, so the churn
    # would not show
    n = 96
    config = {"grid": {"n": n}, "doubleslit": {"bundle_width": 2, "times": [0.0, 0.4, 0.8]}}
    baseline = _child_usage(["-c", "import photonflow.cli"])[1]
    faults = _child_usage(["-m", "photonflow", "doubleslit", "--config",
                           _write_config(tmp_path, config), "--out", str(tmp_path / "out")])[1]
    # half of one field's pages
    assert faults - baseline < 48 * n ** 3 / 4096 / 2, faults - baseline


# --- boost-audit ------------------------------------------------------------


def test_boost_audit_verdict_table(tmp_path):
    rc, out = _run(tmp_path, "boost-audit")
    assert rc == 0
    audits = _load_json(out, "audits.json")
    assert len(audits) == 8

    verdicts = {(a["scenario"], a["recipe"]): a["verdict"] for a in audits}
    for scenario in ("single-wave z-boost", "single-wave x-boost", "two-wave z-boost"):
        assert verdicts[(scenario, "phi_based")] == "four_vector_consistent"
    assert verdicts[("two-wave x-boost", "phi_based")] == "violated"
    for scenario in ("single-wave z-boost", "single-wave x-boost",
                     "two-wave z-boost", "two-wave x-boost"):
        assert verdicts[(scenario, "weber_based")] == "violated"

    failing = next(a for a in audits
                   if a["scenario"] == "two-wave x-boost" and a["recipe"] == "phi_based")
    assert abs(failing["max_mismatch"] - np.sqrt(2.0) / 3.0) < 1e-6


def test_boost_audit_without_a_net_boosted_wave_vector(tmp_path, capsys):
    # u = 0 and k_left = k_right: the pair's wave vectors cancel, and the audit
    # samples along x-hat over one period of the largest wavenumber
    rc, out = _run(tmp_path, "boost-audit", config={"audit": {"u": 0.0, "k_left": 1.0}})
    assert rc == 0
    rows = _audit_rows(capsys.readouterr().out)
    assert len(rows) == 8 and {row[3] for row in rows} == {"four_vector_consistent"}
    pair = [a for a in _load_json(out, "audits.json") if a["scenario"].startswith("two-wave")]
    for audit in pair:
        x_prime = np.array(audit["samples"]["x_prime"])
        assert np.all(x_prime[:, 1:] == 0.0) and x_prime[-1, 0] < 2.0 * np.pi


def _audit_rows(text):
    """(scenario, recipe, printed mismatch, verdict) of each row of an audit table."""
    rows = [tuple(line.rsplit(None, 3)) for line in text.splitlines()]
    return [row for row in rows if len(row) == 4 and row[1] in ("phi_based", "weber_based")]


def test_readme_audit_table_matches_the_default_run(tmp_path, capsys):
    assert _run(tmp_path, "boost-audit")[0] == 0
    printed = _audit_rows(capsys.readouterr().out)
    documented = _audit_rows(README.read_text().split("### boost-audit")[1].split("```")[1])
    assert len(printed) == len(documented) == 8
    for (scenario, recipe, mismatch, verdict), row in zip(printed, documented):
        assert (scenario, recipe, verdict) == (row[0], row[1], row[3])
        if verdict == "violated":  # the consistent rows differ in roundoff digits only
            assert mismatch == row[2]


def test_boost_audit_interference_csv(tmp_path):
    rc, out = _run(tmp_path, "boost-audit")
    assert rc == 0
    with open(out / "interference.csv") as fh:
        header = fh.readline().strip()
    assert header == "s,rho_boosted_frame,rho_fourvector,mismatch"
    table = np.loadtxt(out / "interference.csv", delimiter=",", skiprows=1)
    assert table.shape == (256, 4)

    rho = table[:, 1]
    gamma = 2.0 / np.sqrt(3.0)
    assert abs(rho.max() - (1.5 * gamma + 1.0 / np.sqrt(6.0))) < 1e-3
    assert abs(rho.min() - (1.5 * gamma - 1.0 / np.sqrt(6.0))) < 1e-3
    np.testing.assert_allclose(table[:, 3], np.abs(table[:, 1] - table[:, 2]),
                               atol=1e-12)
    # the four-vector route predicts a constant density for this state
    np.testing.assert_allclose(table[:, 2], 1.5 * gamma, atol=1e-9)


def test_audits_json_is_written_in_pieces(tmp_path, monkeypatch):
    # the benchmark's payload, eight audits of 4096 samples: write_json holds
    # one array's pieces at a time, where json.dumps held its lists and the
    # whole 7 MB text
    peaks = []

    def traced(path, payload):
        tracemalloc.start()
        try:
            write_json(path, payload)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "write_json", traced)
    rc, out = _run(tmp_path, "boost-audit", {"audit": {"samples": 4096}})
    assert rc == 0
    size = (out / "audits.json").stat().st_size
    assert size > 6e6
    assert peaks[0] <= 0.5 * size, peaks[0] / size


# --- trajectories -----------------------------------------------------------


def test_trajectories_single_wave_comoves_at_c(tmp_path):
    rc, out = _run(tmp_path, "trajectories")
    assert rc == 0
    summary = _load_json(out, "summary.json")
    assert summary["guidance"] == "phi_based"
    assert summary["count"] == 16
    assert summary["node_hits"] == 0
    assert abs(summary["max_speed_over_c"] - 1.0) < 1e-9

    checks = summary["frame_consistency"]
    assert [c["guidance"] for c in checks] == ["phi_based", "weber_based"]
    for check in checks:
        assert check["mismatch_over_c"] < 1e-10

    with open(out / "trajectories.csv") as fh:
        header = fh.readline().strip()
    assert header == "traj,t,x,y,z,vx,vy,vz,node_hit"
    table = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=1)
    assert set(np.unique(table[:, 0])) == set(range(16))
    assert np.abs(table[:, 5:8] - np.array([0.0, 0.0, 1.0])).max() < 1e-12


def test_trajectories_counterprop_frame_disagreement(tmp_path):
    config = {
        "state": {"preset": "counterprop-pair"},
        "boost": {"direction": [0, 0, 1], "u": 0.5},
        "trajectories": {"t0": 0.0, "t1": 1.0, "step": 0.05,
                         "initial_points": [[0.0, 0.0, 0.0], [0.3, 0.0, 1.1]]},
    }
    rc, out = _run(tmp_path, "trajectories", config=config)
    assert rc == 0
    summary = _load_json(out, "summary.json")
    assert summary["count"] == 2
    by_recipe = {c["guidance"]: c for c in summary["frame_consistency"]}
    assert by_recipe["phi_based"]["mismatch_over_c"] < 1e-10
    assert abs(by_recipe["weber_based"]["mismatch_over_c"] - 0.3) < 1e-9
    np.testing.assert_allclose(by_recipe["phi_based"]["v_velocity_addition"],
                               [0.0, 0.0, -0.2], atol=1e-12)


def test_trajectories_over_an_empty_span_keep_one_knot(tmp_path):
    config = {"trajectories": {"t0": 1.5, "t1": 1.5, "count": 4}}
    rc, out = _run(tmp_path, "trajectories", config=config)
    assert rc == 0
    table = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=1)
    assert table[:, 0].tolist() == [0, 1, 2, 3] and np.all(table[:, 1] == 1.5)


def test_trajectories_seed_controls_sampling(tmp_path):
    _, out_a = _run(tmp_path, "trajectories", extra=["--seed", "5"])
    csv_a = (out_a / "trajectories.csv").read_text()
    out_b = tmp_path / "again"
    main(["trajectories", "--out", str(out_b), "--seed", "5"])
    assert (out_b / "trajectories.csv").read_text() == csv_a
    out_c = tmp_path / "other-seed"
    main(["trajectories", "--out", str(out_c), "--seed", "6"])
    assert (out_c / "trajectories.csv").read_text() != csv_a


def test_trajectories_run_is_one_batched_pass(tmp_path, monkeypatch):
    from photonflow import bohm

    points_per_call = []
    real = bohm._velocity_masked

    def counted(compiled, recipe, x, t, floor):
        points_per_call.append(len(x))
        return real(compiled, recipe, x, t, floor)

    monkeypatch.setattr(bohm, "_velocity_masked", counted)
    rc, _ = _run(tmp_path, "trajectories")
    assert rc == 0
    # 126 RK4 steps over all 16 points: the start knot, then four a step;
    # the two recipes' frame checks add one rest and one boosted point each
    assert points_per_call == [16] * (1 + 4 * 126) + [1] * 4


# --- doubleslit -------------------------------------------------------------


def test_doubleslit_two_sources_show_fringes(tmp_path):
    rc, out = _run(tmp_path, "doubleslit")
    assert rc == 0
    summary = _load_json(out, "summary.json")
    assert summary["sources"] == 2
    assert summary["component_count"] == 2
    assert abs(summary["expected_spacing"] - np.pi) < 1e-12
    assert abs(summary["fringe_spacing"] - summary["expected_spacing"]) \
        <= summary["grid"]["cell"]
    assert abs(summary["visibility"] - 0.9) < 1e-6

    table = np.loadtxt(out / "frames.csv", delimiter=",", skiprows=1)
    n = summary["grid"]["n"]
    assert table.shape == (len(summary["times"]) * n, 3)
    assert set(np.unique(table[:, 0])) == set(summary["times"])


def test_doubleslit_unbalanced_sources_lower_visibility(tmp_path):
    ratio = 0.25
    rc, out = _run(tmp_path, "doubleslit",
                   config={"doubleslit": {"intensity_ratio": ratio}})
    assert rc == 0
    summary = _load_json(out, "summary.json")
    expected = 0.9 * 2.0 * np.sqrt(ratio) / (1.0 + ratio)
    assert abs(summary["visibility"] - expected) < 1e-6
    assert abs(summary["visibility"] - 0.72) < 1e-6


def test_doubleslit_single_source_is_fringe_free(tmp_path):
    rc, out = _run(tmp_path, "doubleslit", config={"doubleslit": {"sources": 1}})
    assert rc == 0
    summary = _load_json(out, "summary.json")
    assert summary["fringe_spacing"] is None
    assert summary["expected_spacing"] is None
    assert summary["visibility"] < 1e-9


def test_doubleslit_benchmark_result(tmp_path):
    # the n = 96, bundle_width 2 job the benchmark runs, pinned to the value
    # the sampled-and-transformed full-flow pipeline gave
    rc, out = _run(tmp_path, "doubleslit",
                   config={"grid": {"n": 96}, "doubleslit": {"bundle_width": 2}})
    assert rc == 0
    summary = _load_json(out, "summary.json")
    assert summary["component_count"] == 8
    assert summary["fringe_spacing"] == np.pi
    assert summary["visibility"] == pytest.approx(0.8269239098633674, rel=1e-12, abs=0)


def test_doubleslit_bundles_keep_fringe_spacing(tmp_path):
    rc, out = _run(tmp_path, "doubleslit",
                   config={"doubleslit": {"bundle_width": 1, "bundle_sigma": 0.8}})
    assert rc == 0
    summary = _load_json(out, "summary.json")
    # offsets -1, 0, +1 around m = +/-1; the m = 0 member of each bundle
    # is dropped, leaving {1, 2} and {-1, -2}
    assert summary["component_count"] == 4
    assert abs(summary["fringe_spacing"] - np.pi) < 1e-12
    # bundle spread washes the pattern out a little
    assert 0.5 < summary["visibility"] < 0.9


def test_doubleslit_bundle_wider_than_a_float_square_has_equal_weights():
    # sigma^2 overflows: the Gaussian is flat, and each kept mode gets 1/3
    section = dict(load_config(None)["doubleslit"], bundle_width=1, bundle_sigma=1e200)
    state = cli.build_slit_state(section, GridSpec(16, 2.0 * np.pi))
    assert [wave.intensity for wave in state.components] == [1.0 / 3.0] * 4


# --- config and error handling ----------------------------------------------


def test_invalid_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "grid": {\n    "n": 16,,\n  }\n}\n')
    rc = main(["evolve", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err


def test_over_long_integer_literal_exits_2(tmp_path):
    # json.loads raises a plain ValueError past Python's integer digit limit
    bad = tmp_path / "long.json"
    bad.write_text('{"grid": {"n": 1' + "0" * 5000 + "}}")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_preset_exits_2(tmp_path, capsys):
    rc, _ = _run(tmp_path, "evolve", config={"state": {"preset": "no-such"}})
    assert rc == 2
    err = capsys.readouterr().err
    assert "no-such" in err
    assert "single-wave" in err  # error lists the available presets


def test_off_grid_wave_vector_exits_2(tmp_path, capsys):
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"components": [{"k": [0, 0, 1.3], "I": 1.0}]}})
    assert rc == 2
    err = capsys.readouterr().err
    assert "nearest representable: [0.0, 0.0, 1.0]" in err and "(field: state)" in err
    assert not out.exists()


@pytest.mark.parametrize("pair", ["bogus=1e-3", "audit=nan", "dc=-1", "transversality=inf"],
                         ids=["bogus", "nan-audit", "negative-dc", "inf-transversality"])
def test_unknown_tolerance_key_exits_2(tmp_path, capsys, pair):
    rc, _ = _run(tmp_path, "evolve", extra=["--tolerance", pair])
    assert rc == 2
    assert f"(field: tolerance.{pair.partition('=')[0]})" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, field", [
    ("trajectories", {"trajectories": {"initial_points": [[float("nan"), 0, 0]]}},
     "trajectories.initial_points[0]"),
    ("trajectories", {"trajectories": {"initial_points": []}},
     "trajectories.initial_points"),
    ("trajectories", {"boost": {"direction": [0, 0, float("inf")], "u": 0.5}},
     "boost.direction"),
    ("evolve", {"state": {"components": [{"k": [0, 0, 1], "phase": "abc"}]}},
     "state.components[0].phase"),
    ("evolve", {"state": {"components": [{"k": [0, 0, 1], "phase": float("nan")}]}},
     "state.components[0].phase"),
    ("evolve", {"state": {"preset": "single-wave", "wavenumber": "x"}},
     "state.wavenumber"),
    ("evolve", {"state": {"preset": "single-wave", "intensity": float("nan")}},
     "state.intensity"),
    ("evolve", {"evolve": {"times": [0.0, float("inf")]}}, "evolve.times[1]"),
    ("doubleslit", {"doubleslit": {"times": [0.0, float("inf")]}}, "doubleslit.times[1]"),
    ("evolve", {"evolve": {"normalize": "no"}}, "evolve.normalize"),
    ("trajectories", {"trajectories": {"stpe": 0.1}}, "trajectories.stpe"),
    ("doubleslit", {"doubleslit": {"sources": True}}, "doubleslit.sources"),
    ("trajectories", {"trajectories": {"line": {"direction": [0, 0, 0]}}},
     "trajectories.line.direction"),
    ("trajectories", {"trajectories": {"line": {"direction": [1e200, 1e200, 0]}}},
     "trajectories.line.direction"),
    ("trajectories", {"boost": {"direction": [0.0, -0.0, 0.0], "u": 0.5}},
     "boost.direction"),
    # work over a limit of cli._check_budget: each fails the estimate, none allocates
    ("evolve", {"grid": {"n": 100_000_000}}, "grid.n"),
    ("evolve", {"grid": {"n": 10 ** 400}}, "grid.n"),
    ("doubleslit", {"grid": {"n": 356}}, "grid.n"),
    ("trajectories", {"trajectories": {"step": 1e-300}}, "trajectories.step"),
    ("trajectories", {"trajectories": {"t0": -1e308, "t1": 1e308}}, "trajectories.step"),
    ("trajectories", {"trajectories": {"count": 10 ** 17}}, "trajectories.count"),
    ("trajectories", {"trajectories": {"count": 10 ** 400}}, "trajectories.count"),
    ("trajectories", {"trajectories": {"initial_points": [[0, 0, 0]] * 40_000}},
     "trajectories.initial_points"),
    ("boost-audit", {"audit": {"samples": 10 ** 17}}, "audit.samples"),
    ("trajectories", {"trajectories": {"t0": 1.0, "t1": 0.5}}, "trajectories.t1"),
    # u c would round to c at the smallest subnormal c, which is outside the unit range
    ("boost-audit", {"units": {"c": 5e-324}, "audit": {"u": 0.9}}, "units.c"),
    ("trajectories", {"units": {"c": 5e-324}, "boost": {"u": 0.9}}, "units.c"),
    # units outside their range: I / c overflows in a wave amplitude, c^2
    # underflows in a boost
    ("trajectories", {"units": {"c": 5e-324}}, "units.c"),
    ("boost-audit", {"units": {"c": 1e-300}}, "units.c"),
    ("evolve", {"units": {"hbar": 1e101}}, "units.hbar"),
    # a box length outside its range: dk^3 overflows at L = 1e-300
    ("evolve", {"grid": {"L": 1e-300, "n": 8}}, "grid.L"),
    ("doubleslit", {"grid": {"L": 1e41}}, "grid.L"),
    ("trajectories", {"grid": {"L": 1e-41}}, "grid.L"),
    # a wave near the float limit boosted against its motion: I' overflows
    ("trajectories", {"state": {"components": [{"k": [0, 0, 1], "I": 1e306}]},
                      "boost": {"direction": [0, 0, -1], "u": 0.999999}}, "boost"),
    # I' = 2e307 is finite, but |F'|^2 = 8 pi I' / c is not
    ("trajectories", {"state": {"components": [{"k": [0, 0, 1], "I": 1e301}]},
                      "boost": {"direction": [0, 0, -1], "u": 0.999999}}, "boost"),
    # the rest-frame state compiles, but the redshifted 8 pi hbar c |k'| underflows
    # to 0, so the phi amplitude is not finite: the boosted state's compile rejects it
    ("trajectories", {"units": {"c": 1e-100, "hbar": 1e-100},
                      "state": {"components": [{"k": [0, 0, 1e-124], "I": 1e-120}]},
                      "boost": {"direction": [0, 0, 1], "u": 0.9998}}, "boost"),
    # the amplitudes are finite, but the phi density bound (sum |phi_m|)^2 is not
    ("trajectories", {"units": {"c": 1e-100, "hbar": 1e-100},
                      "state": {"components": [{"k": [0, 0, 1], "I": 1e9}]}}, "state"),
    # the outer bundle modes' Gaussian weight exp(-4e6) underflows to 0
    ("doubleslit", {"grid": {"n": 16}, "doubleslit": {"bundle_width": 2,
                                                      "bundle_sigma": 1e-3}},
     "doubleslit.bundle_sigma"),
    # sigma^2 underflows to 0, so even the centre mode's weight is 0 / 0
    ("doubleslit", {"grid": {"n": 16}, "doubleslit": {"bundle_sigma": 1e-200}},
     "doubleslit.bundle_sigma"),
    # the second source's ratio times an outer mode's weight underflows to 0
    ("doubleslit", {"grid": {"n": 16}, "doubleslit": {"bundle_width": 2,
                                                      "intensity_ratio": 5e-324}},
     "doubleslit.intensity_ratio"),
    # rho scales as L / (c^2 hbar), but |phi~|^2 overflows before the profile is scaled
    ("doubleslit", {"units": {"c": 1e-100}, "grid": {"n": 16, "L": 1e30}}, "units.c"),
    # the one pass holds n^2 profile floats per time: 2200 of them at n = 355
    # are over _FIELD_BYTES_LIMIT
    ("doubleslit", {"grid": {"n": 355}, "doubleslit": {"times": [0.0] * 2200}},
     "doubleslit.times"),
    # 33 snapshots at n = 355 take more than _SNAPSHOT_BYTES_LIMIT on disk:
    # rejected before the state is placed
    ("evolve", {"grid": {"n": 355}, "evolve": {"times": [0.0] * 33}}, "evolve.times"),
    # the unit wave vector of the single wave is index 1.6e-31 on this
    # lattice, within 1e-9 of the k = 0 site, where it would be placed
    ("evolve", {"grid": {"n": 8, "L": 1e-30}}, "state"),
    # |k|^2 underflows to 0 for the left wave; it overflows for the right one,
    # whose boosted intensity was NaN
    ("boost-audit", {"audit": {"k_left": 1e-300}}, "audit.k_left"),
    ("boost-audit", {"audit": {"k_right": 1e300}}, "audit.k_right"),
    # |k| is in range, but the z-boost's red shift (blue shift for the left
    # wave) takes the boosted |k'| out of it
    ("boost-audit", {"audit": {"k_right": 1.5e-154}}, "audit.k_right"),
    ("boost-audit", {"audit": {"k_left": 1e154}}, "audit.k_left"),
], ids=["nan-point", "no-points", "inf-boost", "text-phase", "nan-phase",
        "text-preset-arg", "nan-preset-arg", "inf-evolve-time", "inf-slit-time",
        "text-normalize", "misspelled-key", "bool-sources", "zero-line-direction",
        "overflowing-line-direction", "zero-boost-direction", "huge-grid",
        "grid-beyond-float", "grid-over-limit", "tiny-step", "overflowing-span",
        "huge-count", "count-beyond-float", "points-over-limit", "huge-audit",
        "backward-span", "audit-speed-rounds-to-c", "boost-speed-rounds-to-c",
        "subnormal-c-trajectories", "tiny-c-boost-audit", "huge-hbar", "tiny-box-evolve",
        "huge-box-doubleslit", "tiny-box-trajectories", "boosted-intensity-overflows",
        "boosted-amplitude-overflows", "boosted-phi-overflows", "density-bound-overflows",
        "tiny-bundle-sigma", "underflowing-bundle-sigma", "underflowing-second-source",
        "overflowing-slit-profile", "slit-times-over-limit", "snapshots-over-disk-limit",
        "wave-longer-than-box", "underflowing-k-left",
        "overflowing-k-right", "boost-underflows-k-right", "boost-overflows-k-left"])
def test_bad_config_value_exits_2_naming_the_field(tmp_path, capsys, command,
                                                   config, field):
    rc, out = _run(tmp_path, command, config=config)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"(field: {field})" in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, extra, named", [
    ("evolve", {"state": {"components": [{"k": [0, 0, 1]}], "wavenumber": 1.0}}, [],
     "(field: state.wavenumber)"),
    ("evolve", [1, 2], [], "the config must be an object"),
    ("evolve", None, ["--config", "absent.json"], "cannot read config file absent.json"),
    ("evolve", None, ["--tolerance", "audit"], "--tolerance expects KEY=VALUE"),
    ("evolve", None, ["--tolerance", "audit=abc"], "(field: tolerance.audit)"),
    ("evolve", {"state": {"preset": "single-wave", "bogus": 1.0}}, [], "(field: state)"),
    ("evolve", {"state": {"components": [{"k": [0, 0, 0]}]}}, [],
     "(field: state.components[0])"),
    ("doubleslit", {"grid": {"n": 8}, "doubleslit": {"forward_mode": 4}}, [],
     "(field: doubleslit)"),
], ids=["state-form-plus-extra", "config-not-object", "unreadable-config",
        "tolerance-without-equals", "tolerance-not-a-number", "bad-preset-argument",
        "bad-component", "slit-modes-beyond-grid"])
def test_rejected_input_exits_2_naming_the_field(tmp_path, capsys, command, config, extra,
                                                 named):
    rc, out = _run(tmp_path, command, config=config, extra=extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("c, hbar", [(1e-100, 1e-100), (1e100, 1e100), (1e-100, 1e100)])
@pytest.mark.parametrize("command", ["evolve", "boost-audit", "trajectories", "doubleslit"])
def test_units_at_the_ends_of_their_range_run(tmp_path, command, c, hbar):
    small = {"evolve": {"grid": {"n": 8}, "evolve": {"normalize": True}},
             "boost-audit": {"audit": {"samples": 16}},
             "trajectories": {"trajectories": {"count": 4}},
             "doubleslit": {"grid": {"n": 16}}}[command]
    rc, out = _run(tmp_path, command, config=dict(small, units={"c": c, "hbar": hbar}))
    assert rc == 0 and out.exists()


def test_every_speed_the_schema_takes_is_a_boost_below_c(rng):
    # the commands build Boost(direction, u c, c) unchecked: for c in the unit
    # range and u < 1, u c must stay below c so Boost cannot reject it
    low, high = np.log10(fields._UNIT_RANGE)
    cs = np.concatenate([fields._UNIT_RANGE, 10.0 ** rng.uniform(low, high, 2000)])
    for u in (np.nextafter(1.0, 0.0), 0.9, 0.0):
        for c in cs:
            boost = photonflow.Boost([0.0, 0.0, 1.0], u * c, c)
            assert boost.speed < boost.c and np.isfinite(boost.gamma)


@pytest.mark.parametrize("end", [0, 1], ids=["smallest", "largest"])
@pytest.mark.parametrize("normalize", [False, True])
def test_box_lengths_at_the_ends_of_their_range_run(tmp_path, end, normalize):
    # the photon number's sum of |F~|^2 / |k| grows as L^7: a range reaching
    # L = 1e-50 or 1e50 would give N = 0 or inf at its ends
    box_length = fields._BOX_LENGTH_RANGE[end]
    config = {"grid": {"n": 8, "L": box_length},
              "state": {"preset": "single-wave", "wavenumber": 2.0 * np.pi / box_length},
              "evolve": {"times": [0.0, box_length], "normalize": normalize}}
    rc, out = _run(tmp_path, "evolve", config=config)
    assert rc == 0
    for snapshot in _load_json(out, "diagnostics.json")["snapshots"]:
        assert np.isfinite([snapshot["energy"], snapshot["photon_number"]]).all()
        assert snapshot["energy"] > 0 and snapshot["photon_number"] > 0


def test_work_limits_sit_where_their_comment_says(tmp_path):
    assert 48 * 355 ** 3 <= _FIELD_BYTES_LIMIT < 48 * 356 ** 3
    # 2^22 point-knots: 1024 points of 4096 knots (4095 steps of 1 from 0)
    at_limit = {"grid": {"n": 355}, "audit": {"samples": _AUDIT_SAMPLES_LIMIT},
                "trajectories": {"count": 1024, "t0": 0.0, "t1": 4095.0, "step": 1.0}}
    assert 1024 * 4096 == _POINT_KNOTS_LIMIT
    for command in ("trajectories", "doubleslit", "boost-audit"):
        _check_budget(load_config(_write_config(tmp_path, at_limit)), command)
    at_limit["trajectories"]["count"] = 1025
    with pytest.raises(ConfigError, match="trajectories.count"):
        _check_budget(load_config(_write_config(tmp_path, at_limit)), "trajectories")
    # 32 snapshots at n = 355, headers included, fit in 2^36 bytes of disk
    cli._check_snapshot_bytes(355, 32)
    with pytest.raises(ConfigError, match="evolve.times"):
        cli._check_snapshot_bytes(355, 33)


def test_snapshot_disk_bytes_are_bounded_on_the_state_file_n(tmp_path, capsys, monkeypatch,
                                                            rng):
    # a state file's n, from its header, bounds the snapshots' disk bytes
    # before its payload is read; here the limit is three snapshots at n = 4
    monkeypatch.setattr(cli, "_SNAPSHOT_BYTES_LIMIT", 3 * (_HEADER.size + 48 * 4 ** 3))
    path = tmp_path / "state.phwf"
    _transverse_file(path, rng, n=4)
    reads = _count_plane_reads(monkeypatch)
    rc, out = _run(tmp_path, "evolve", config={"state": {"file": str(path)},
                                               "evolve": {"times": [0.0, 1.0, 2.0, 3.0]}})
    assert rc == 2 and "(field: evolve.times)" in capsys.readouterr().err
    assert not out.exists() and reads == []
    rc, out = _run(tmp_path, "evolve", config={"state": {"file": str(path)},
                                               "evolve": {"times": [0.0, 1.0, 2.0]}})
    assert rc == 0 and len(_listing(out)) == 4


# a section over its work limit beside a command that does not read it: the
# command runs, or, at grid.n = 355, passes the check that precedes any allocation
@pytest.mark.parametrize("command, config, reader, runs", [
    ("boost-audit", {"trajectories": {"count": 10 ** 9}, "audit": {"samples": 16}},
     "trajectories", True),
    ("doubleslit", {"grid": {"n": 16}, "trajectories": {"count": 10 ** 9}}, "trajectories",
     True),
    ("evolve", {"grid": {"n": 355}, "doubleslit": {"times": [0.0] * 2200}}, "doubleslit",
     False),
    ("trajectories", {"grid": {"n": 355}, "doubleslit": {"times": [0.0] * 2200},
                      "trajectories": {"count": 2}}, "doubleslit", True),
], ids=["boost-audit-beside-trajectories", "doubleslit-beside-trajectories",
        "evolve-beside-doubleslit", "trajectories-beside-doubleslit"])
def test_a_command_bounds_only_the_sections_it_reads(tmp_path, command, config, reader, runs):
    resolved = load_config(_write_config(tmp_path, config))
    with pytest.raises(ConfigError):
        _check_budget(resolved, reader)
    _check_budget(resolved, command)
    if runs:
        rc, out = _run(tmp_path, command, config=config)
        assert rc == 0 and out.exists()


_OVERFLOWING_STATE = {"state": {"components": [{"k": [0, 0, 1], "I": 1e308},
                                               {"k": [0, 0, 2], "I": 1.0}]}}


@pytest.mark.parametrize("command, config, field", [
    ("evolve", dict(_OVERFLOWING_STATE, grid={"n": 8}), "state"),
    ("trajectories", _OVERFLOWING_STATE, "state"),
    ("doubleslit", {"grid": {"n": 16}, "doubleslit": {"intensity_ratio": 1e308}},
     "doubleslit.intensity_ratio"),
], ids=["evolve", "trajectories", "doubleslit"])
def test_an_overflowing_amplitude_exits_non_zero_and_writes_nothing(tmp_path, capsys,
                                                                   command, config, field):
    # sqrt(4 pi I / c) overflows: the wave must not be dropped as if it had cancelled
    rc, out = _run(tmp_path, command, config=config)
    assert rc == 2
    err = capsys.readouterr().err
    assert "is not finite" in err and f"(field: {field})" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


def test_state_file_combined_with_preset_exits_2(tmp_path):
    rc, _ = _run(tmp_path, "evolve",
                 config={"state": {"file": "x.phwf", "preset": "single-wave"},
                         "evolve": {"times": [0.0]}})
    assert rc == 2


# one check each command makes itself before --out is created: a state whose
# amplitudes overflow, modes beyond the grid; boost-audit makes none of its own
_COMMAND_CHECK = {
    "evolve": (dict(_OVERFLOWING_STATE, grid={"n": 8}), "state"),
    "trajectories": (_OVERFLOWING_STATE, "state"),
    "doubleslit": ({"grid": {"n": 8}, "doubleslit": {"forward_mode": 4}}, "doubleslit"),
}
_BAD_KEY, _BAD_TOLERANCE = {"grdi": {"n": 8}}, ["--tolerance", "audit=0"]
_STATE_FILE = {"state": {"file": "x.phwf"}}


def _order_case(command, stage):
    """(config, extra arguments, the field the error must name) of one stage."""
    check_config, check_field = _COMMAND_CHECK.get(command, ({}, None))
    return {
        "config": (_BAD_KEY, [], "grdi"),
        "tolerance": (None, _BAD_TOLERANCE, "tolerance.audit"),
        "state-file": (_STATE_FILE, [], "state.file"),
        "command-check": (check_config, [], check_field),
        "config-before-tolerance": (_BAD_KEY, _BAD_TOLERANCE, "grdi"),
        "tolerance-before-state-file": (_STATE_FILE, _BAD_TOLERANCE, "tolerance.audit"),
        "state-file-before-command-check": (dict(check_config, **_STATE_FILE), [],
                                            "state.file"),
    }[stage]


@pytest.mark.parametrize("command, stage", [
    (command, stage)
    for command in ("evolve", "boost-audit", "trajectories", "doubleslit")
    for stage in ("config", "tolerance", "state-file", "command-check",
                  "config-before-tolerance", "tolerance-before-state-file",
                  "state-file-before-command-check")
    # evolve reads state.file: a missing file is evolve's own check
    if not (command == "evolve" and stage.startswith("state-file"))
    and not (command == "boost-audit" and stage.endswith("command-check"))])
def test_every_command_checks_its_input_in_one_order_before_creating_out(
        tmp_path, capsys, command, stage):
    config, extra, field = _order_case(command, stage)
    rc, out = _run(tmp_path, command, config=config, extra=extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"(field: {field})" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trajectories", "boost-audit", "doubleslit"])
def test_state_file_is_rejected_by_the_commands_that_do_not_read_it(tmp_path, capsys,
                                                                    command):
    rc, out = _run(tmp_path, command, config={"state": {"file": "x.phwf"}})
    assert rc == 2
    err = capsys.readouterr().err
    assert "state.file is read by evolve only" in err and "(field: state.file)" in err
    assert not out.exists()


def test_missing_state_file_exits_2(tmp_path):
    rc, _ = _run(tmp_path, "evolve",
                 config={"state": {"file": str(tmp_path / "absent.phwf")},
                         "evolve": {"times": [0.0]}})
    assert rc == 2


def test_unreadable_state_file_error_names_its_cause(tmp_path):
    config = _write_config(tmp_path, {"state": {"file": str(tmp_path / "absent.phwf")}})
    args = build_parser().parse_args(["evolve", "--config", config,
                                      "--out", str(tmp_path / "out")])
    with pytest.raises(ConfigError, match="cannot read field file") as exc:
        cli._run(args)
    assert exc.value.field == "state.file"
    assert isinstance(exc.value.__cause__, FileNotFoundError)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("excess, code", [(1, 2), (0, 1)], ids=["over", "at"])
def test_state_file_over_the_field_limit_exits_2_before_reading(tmp_path, capsys,
                                                                excess, code):
    # a sparse file: truncate sets the size without writing the bytes
    big = tmp_path / "big.phwf"
    with open(big, "wb") as fh:
        fh.truncate(_HEADER.size + _FIELD_BYTES_LIMIT + excess)
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(big)}, "evolve": {"times": [0.0]}})
    assert rc == code
    err = capsys.readouterr().err
    # at the limit the file is read, and its zero header is no PHWF1 container
    assert ("(field: state.file)" if code == 2 else "not a PHWF1 container") in err
    assert not out.exists()


def test_corrupt_state_file_exits_1(tmp_path):
    bad = tmp_path / "corrupt.phwf"
    bad.write_bytes(b"PHWF1" + b"\x00" * 16)
    rc, _ = _run(tmp_path, "evolve",
                 config={"state": {"file": str(bad)}, "evolve": {"times": [0.0]}})
    assert rc == 1


def test_state_file_with_nan_time_exits_1(tmp_path, capsys):
    bad = tmp_path / "nan-time.phwf"
    spec = GridSpec(4, 2.0 * np.pi)
    write_weber(bad, WeberGrid(np.zeros((4, 4, 4, 3), complex), spec, "momentum",
                               time=float("nan")))
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(bad)}, "evolve": {"times": [0.0]}})
    assert rc == 1
    assert "header time nan is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("normalize", [False, True])
def test_state_file_with_a_non_finite_payload_exits_1_before_out(tmp_path, capsys, normalize):
    # the payload's planes are checked in the pass that precedes --out, also
    # when the file is then read plane by plane by the first step
    field = np.zeros((4, 4, 4, 3), complex)
    field[0, 0, 1] = [1.0, 1j, 0.0]
    field[1, 2, 3, 0] = complex(0.0, np.inf)
    path = tmp_path / "inf.phwf"
    write_weber(path, WeberGrid(field, GridSpec(4, 2.0 * np.pi), "momentum"))
    rc, out = _run(tmp_path, "evolve", config={"state": {"file": str(path)}, "evolve": {
        "times": [0.0], "normalize": normalize}})
    assert rc == 1
    assert "payload is non-finite at grid index (1, 2, 3), component 0" in capsys.readouterr().err
    assert not out.exists()


def _snapshot_with_header(path, box_length=2.0 * np.pi, c=1.0, hbar=1.0):
    """A valid n = 4 momentum snapshot whose header then gets these L, c and hbar
    (GridSpec itself rejects values outside its ranges)."""
    field = np.zeros((4, 4, 4, 3), complex)
    field[0, 0, 1] = [1.0, 1j, 0.0]
    write_weber(path, WeberGrid(field, GridSpec(4, 2.0 * np.pi), "momentum"))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<ddd", raw, struct.calcsize("<5sI"), box_length, c, hbar)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("c, hbar", [(1e-300, 1e-300), (1.0, 1e101)])
def test_state_file_with_units_out_of_range_exits_2(tmp_path, capsys, c, hbar):
    # a snapshot carries its own units: hbar c = 1e-600 would make the photon
    # number's weight divide by zero
    path = tmp_path / "units.phwf"
    _snapshot_with_header(path, c=c, hbar=hbar)
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(path)}, "evolve": {"times": [0.0, 1.0]}})
    assert rc == 2
    err = capsys.readouterr().err
    assert "(field: state.file)" in err and "outside the supported range" in err
    assert not out.exists()


@pytest.mark.parametrize("box_length", [1e-300, 1e41])
def test_state_file_with_box_length_out_of_range_exits_2(tmp_path, capsys, box_length):
    path = tmp_path / "box.phwf"
    _snapshot_with_header(path, box_length=box_length)
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(path)}, "evolve": {"times": [0.0]}})
    assert rc == 2
    err = capsys.readouterr().err
    assert "(field: state.file)" in err and "box_length" in err
    assert "Traceback" not in err and not out.exists()


def test_evolve_gates_each_snapshot_on_its_dc_share(tmp_path, capsys):
    # the photon number of a snapshot is read from advance's sums, behind the
    # same DC gate as photon_number: 2e-6 of |F~|^2 in k = 0 fails the default
    spec = GridSpec(4, 2.0 * np.pi)
    field = np.zeros((4, 4, 4, 3), complex)
    field[0, 0, 1] = [1.0, 1j, 0.0]
    field[0, 0, 0] = [2e-3, 0.0, 0.0]
    path = tmp_path / "dc.phwf"
    write_weber(path, WeberGrid(field, spec, "momentum"))
    config = {"state": {"file": str(path)}, "evolve": {"times": [0.0]}}
    rc, _ = _run(tmp_path, "evolve", config=config)
    assert rc == 1
    assert "k = 0 mode carries fraction 2.000e-06" in capsys.readouterr().err
    rc, out = _run(tmp_path, "evolve", config=config, extra=["--tolerance", "dc=1e-5"])
    assert rc == 0
    snapshot = _load_json(out, "diagnostics.json")["snapshots"][0]
    weber = read_weber(out / snapshot["file"])
    assert snapshot["photon_number"] == pytest.approx(photon_number(weber, dc_tolerance=1e-5),
                                                      rel=1e-15)


# --- what a failing evolve leaves behind ------------------------------------


def _transverse_file(path, rng, n=8, time=0.0):
    """A random transverse momentum snapshot with nothing in k = 0, written to path."""
    spec = GridSpec(n, 2.0 * np.pi)
    values = rng.standard_normal((n, n, n, 3)) + 1j * rng.standard_normal((n, n, n, 3))
    weber = spectral.project_transverse(forward_transform(WeberGrid(values, spec)))
    weber.field[0, 0, 0] = 0.0
    weber.time = time
    write_weber(path, weber)
    return weber


def _listing(out):
    return sorted(path.name for path in out.iterdir())


def test_a_state_failing_the_gate_at_the_first_step_leaves_no_snapshot(tmp_path, capsys):
    field = np.zeros((4, 4, 4, 3), complex)
    field[0, 0, 1] = [1.0, 1j, 0.5]  # F~ has a part along k = (0, 0, 1)
    path = tmp_path / "longitudinal.phwf"
    write_weber(path, WeberGrid(field, GridSpec(4, 2.0 * np.pi), "momentum"))
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(path)}, "evolve": {"times": [0.0, 1.0]}})
    captured = capsys.readouterr()
    assert rc == 1
    assert "state has transversality residual" in captured.err
    assert captured.out == "" and _listing(out) == []
    # a snapshot of that name from an earlier run is left as it was
    (out / "snapshot_00.phwf").write_bytes(b"earlier")
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(path)}, "evolve": {"times": [0.0, 1.0]}})
    assert rc == 1 and (out / "snapshot_00.phwf").read_bytes() == b"earlier"


def test_evolve_resumes_from_the_snapshot_its_first_step_replaces(tmp_path):
    rc, out = _run(tmp_path, "evolve", config={"grid": {"n": 8}, "evolve": {"times": [0.0]}})
    assert rc == 0
    resume = {"state": {"file": str(out / "snapshot_00.phwf")},
              "evolve": {"times": [0.5, 1.0]}}
    rc, out = _run(tmp_path, "evolve", config=resume)
    assert rc == 0 and _listing(out) == ["diagnostics.json", "snapshot_00.phwf",
                                         "snapshot_01.phwf"]
    direct = tmp_path / "direct"
    assert main(["evolve", "--out", str(direct), "--config", _write_config(
        tmp_path, {"grid": {"n": 8}, "evolve": {"times": [0.5, 1.0]}}, name="direct.json")]) == 0
    for name in ("snapshot_00.phwf", "snapshot_01.phwf"):
        assert (out / name).read_bytes() == (direct / name).read_bytes()


def test_a_dc_failure_at_the_first_step_keeps_its_snapshot(tmp_path, capsys):
    # the snapshot is written before its DC share is checked
    field = np.zeros((4, 4, 4, 3), complex)
    field[0, 0, 1] = [1.0, 1j, 0.0]
    field[0, 0, 0] = [2e-3, 0.0, 0.0]
    path = tmp_path / "dc.phwf"
    write_weber(path, WeberGrid(field, GridSpec(4, 2.0 * np.pi), "momentum"))
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(path)}, "evolve": {"times": [0.0, 1.0]}})
    captured = capsys.readouterr()
    assert rc == 1
    assert "k = 0 mode carries fraction" in captured.err
    assert captured.out == "" and _listing(out) == ["snapshot_00.phwf"]
    assert (out / "snapshot_00.phwf").read_bytes() == path.read_bytes()


def test_a_failure_at_the_second_step_keeps_the_first(tmp_path, capsys, rng):
    # a transversality tolerance equal to the state's own residual passes the
    # first step; the rotated field's residual differs from it in its last bits
    path = tmp_path / "state.phwf"
    weber = _transverse_file(path, rng)
    residual = spectral.transversality_residual(weber)
    assert spectral.transversality_residual(spectral.evolve(weber, 1.0)) > residual
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(path)}, "evolve": {"times": [1.0, 2.0]}},
                   extra=["--tolerance", f"transversality={residual!r}"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "state has transversality residual" in captured.err
    assert len(captured.out.splitlines()) == 1 and captured.out.startswith("t =          1")
    assert _listing(out) == ["snapshot_00.phwf"]
    snapshot = read_weber(out / "snapshot_00.phwf")
    assert snapshot.time == 1.0
    assert snapshot.field.tobytes() == spectral.evolve(weber, 1.0).field.tobytes()


def test_snapshot_headers_carry_the_accumulated_time(tmp_path, rng):
    # each step's dt is t - time, and the time it reaches is time + dt, which
    # need not be t itself
    path = tmp_path / "state.phwf"
    _transverse_file(path, rng, time=0.001)
    rc, out = _run(tmp_path, "evolve",
                   config={"state": {"file": str(path)}, "evolve": {"times": [0.4, 1.86]}})
    assert rc == 0
    assert [s["time"] for s in _load_json(out, "diagnostics.json")["snapshots"]] == [0.4, 1.86]
    assert read_weber(out / "snapshot_00.phwf").time == 0.4
    assert read_weber(out / "snapshot_01.phwf").time == 1.8599999999999999


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
@pytest.mark.parametrize("command", ["boost-audit", "trajectories"])
def test_an_unusable_out_exits_2_naming_it(tmp_path, capsys, command, under):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--out {out}: cannot create the output directory" in err
    assert "Traceback" not in err
    assert blocker.read_text() == ""


def test_a_failed_snapshot_write_exits_1_and_removes_it(tmp_path, capsys, monkeypatch):
    def full(fh, plane):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(fieldio, "_write_plane", full)
    rc, out = _run(tmp_path, "evolve", config={"grid": {"n": 8}})
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"error: cannot write {out / 'snapshot_00.phwf'}: "
                   f"{os.strerror(errno.ENOSPC)}\n")
    assert _listing(out) == []


def test_tolerance_override_changes_behavior(tmp_path):
    # an absurdly tight audit tolerance makes even the consistent cases fail
    rc, out = _run(tmp_path, "boost-audit", extra=["--tolerance", "audit=1e-30"])
    assert rc == 0
    audits = _load_json(out, "audits.json")
    assert all(a["verdict"] == "violated" for a in audits)
    assert all(a["tolerance"] == 1e-30 for a in audits)
