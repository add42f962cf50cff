"""Every name a library module imports is used by that module; the package
imports its modules only when one of its names is first used, and the grid
jobs import no masked arrays."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import photonflow


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_library_modules_use_every_import():
    modules = sorted(Path(photonflow.__file__).parent.glob("*.py"))
    assert [bad for path in modules if path.name != "__init__.py"
            for bad in _unused_imports(path)] == []


# every name the package exports, by the module that defines it
_EXPORTED = {
    "errors": ["ConfigError", "DCContentError", "FieldValidationError", "GuidanceNodeError",
               "InternalConsistencyError", "OffGridWaveVectorError", "PhotonflowError",
               "RangeError", "RepresentationError", "TransversalityError", "ZeroFieldError"],
    "fields": ["GridSpec", "WeberGrid", "total_energy"],
    "spectral": ["evolve", "forward_transform", "inverse_transform", "klein_gordon_residual",
                 "project_transverse", "transversality_residual"],
    "photon": ["PHI_BASED", "WEBER_BASED", "PhotonWaveFunction", "ProbabilityFlow",
               "continuity_residual", "density_profiles", "normalize_single_photon",
               "photon_number", "photon_wavefunction", "probability_flow", "to_position",
               "weber_probability_flow"],
    "planewaves": ["PRESETS", "CircularPlaneWave", "PlaneWaveSuperposition",
                   "analytic_probability_flow", "copropagating_pair", "counterprop_pair",
                   "eval_weber", "place", "polarization_basis", "sample_to_grid", "single_wave"],
    "lorentz": ["Boost", "FourVectorAudit", "audit_four_vector", "audit_to_json", "boost_event",
                "boost_plane_wave", "boost_wave_vector", "field_boost",
                "fourvector_transform_flow", "velocity_addition"],
    "bohm": ["FrameConsistency", "Trajectory", "frame_consistency_check", "guidance_velocity",
             "integrate_trajectories", "sample_points_on_line", "transport_ensemble"],
    "fieldio": ["read_weber", "write_weber"],
}
_EXPORTED_NAMES = [(module, name) for module, names in _EXPORTED.items() for name in names]


def _fresh(code: str, *args: str) -> str:
    """stdout of ``python -c code args...`` in a fresh interpreter, with no
    OPENBLAS_NUM_THREADS in its environment."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(photonflow.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_importing_the_package_imports_no_module_and_sets_no_thread_policy():
    # the library's modules set nothing either: only photonflow.cli does
    out = _fresh("import sys, os, photonflow\n"
                 "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('photonflow')))\n"
                 "[getattr(photonflow, name) for name in photonflow.__all__]\n"
                 "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    assert out.split("\n")[:2] == ["['photonflow']", "None"]


@pytest.mark.parametrize("module, name", _EXPORTED_NAMES, ids=[name for _, name in _EXPORTED_NAMES])
def test_each_exported_name_is_its_modules_object(module, name):
    assert getattr(photonflow, name) is getattr(importlib.import_module(f"photonflow.{module}"), name)
    assert vars(photonflow)[name] is getattr(photonflow, name)  # resolved once, then cached


def test_the_package_exports_the_same_names():
    assert sorted(photonflow.__all__) == sorted(name for _, name in _EXPORTED_NAMES)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'photonflow' has no attribute 'flow'$"):
        photonflow.flow


def test_importing_the_entry_module_runs_no_command():
    assert _fresh("import photonflow.__main__") == ""


# imports photonflow.cli, runs each (command, config, out) of the JSON list in
# argv[1] through cli.main and prints, as its last line, the modules each job
# added to those loaded once photonflow.cli was imported
_JOB_IMPORTS = """
import json, sys
import photonflow.cli as cli
imported, added = set(sys.modules), []
for command, config, out in json.loads(sys.argv[1]):
    assert cli.main([command, "--config", config, "--out", out]) == 0
    added.append(sorted(set(sys.modules) - imported))
print(json.dumps(added))
"""


def test_grid_jobs_import_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma under numpy 2, which then stays resident in
    # every evolve and doubleslit job.  Measured against the modules loaded
    # with photonflow.cli: an older numpy loads numpy.ma with numpy itself
    jobs = [("evolve", {"grid": {"n": 8}, "evolve": {"normalize": True}}),
            ("doubleslit", {"grid": {"n": 16}})]
    argv = []
    for command, config in jobs:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        argv.append((command, str(path), str(tmp_path / command)))
    added = json.loads(_fresh(_JOB_IMPORTS, json.dumps(argv)).splitlines()[-1])
    assert [[name for name in names if name.split(".")[:2] == ["numpy", "ma"]]
            for names in added] == [[], []]
