"""Free Maxwell fields as a candidate one-photon quantum theory.

The field is carried as the complex combination F = E + iB on a periodic
grid or as an analytic superposition of circularly polarized plane waves.
The package evolves it exactly in k-space, builds the energy-weighted
photon wave function, compares the two candidate probability flows under
Lorentz boosts, and integrates the guidance trajectories each flow defines.

Importing the package imports none of its modules, and so not numpy: each
name below is imported from its module on first access (PEP 562).  The
command line (``photonflow.cli``) can thus set numpy's thread policy
before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": ("ConfigError", "DCContentError", "FieldValidationError", "GuidanceNodeError",
               "InternalConsistencyError", "OffGridWaveVectorError", "PhotonflowError",
               "RangeError", "RepresentationError", "TransversalityError", "ZeroFieldError"),
    "fields": ("GridSpec", "WeberGrid", "total_energy"),
    "spectral": ("evolve", "forward_transform", "inverse_transform", "klein_gordon_residual",
                 "project_transverse", "transversality_residual"),
    "photon": ("PHI_BASED", "WEBER_BASED", "PhotonWaveFunction", "ProbabilityFlow",
               "continuity_residual", "density_profiles", "normalize_single_photon",
               "photon_number", "photon_wavefunction", "probability_flow", "to_position",
               "weber_probability_flow"),
    "planewaves": ("PRESETS", "CircularPlaneWave", "PlaneWaveSuperposition",
                   "analytic_probability_flow", "copropagating_pair", "counterprop_pair",
                   "eval_weber", "place", "polarization_basis", "sample_to_grid",
                   "single_wave"),
    "lorentz": ("Boost", "FourVectorAudit", "audit_four_vector", "audit_to_json", "boost_event",
                "boost_plane_wave", "boost_wave_vector", "field_boost",
                "fourvector_transform_flow", "velocity_addition"),
    "bohm": ("FrameConsistency", "Trajectory", "frame_consistency_check", "guidance_velocity",
             "integrate_trajectories", "sample_points_on_line", "transport_ensemble"),
    "fieldio": ("read_weber", "write_weber"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
