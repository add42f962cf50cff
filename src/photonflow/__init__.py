"""Free Maxwell fields as a candidate one-photon quantum theory.

The field is carried as the complex combination F = E + iB on a periodic
grid or as an analytic superposition of circularly polarized plane waves.
The package evolves it exactly in k-space, builds the energy-weighted
photon wave function, compares the two candidate probability flows under
Lorentz boosts, and integrates the guidance trajectories each flow defines.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DCContentError, FieldValidationError,
                     GuidanceNodeError, InternalConsistencyError,
                     OffGridWaveVectorError, PhotonflowError,
                     RepresentationError, TransversalityError, ZeroFieldError)
from .fields import (GridSpec, WeberGrid, energy_density, poynting_vector,
                     total_energy)
from .spectral import (evolve, forward_transform, inverse_transform,
                       klein_gordon_residual, project_transverse,
                       transversality_residual)
from .photon import (PHI_BASED, WEBER_BASED, PhotonWaveFunction,
                     ProbabilityFlow, continuity_residual,
                     normalize_single_photon, photon_number,
                     photon_wavefunction, probability_flow, to_position,
                     weber_probability_flow)
from .planewaves import (PRESETS, CircularPlaneWave, PlaneWaveSuperposition,
                         analytic_probability_flow, analytic_weber_flow,
                         copropagating_pair, counterprop_pair, eval_weber,
                         polarization_basis, sample_to_grid, single_wave)
from .lorentz import (Boost, FourVectorAudit, audit_four_vector,
                      audit_to_json, boost_event,
                      boost_plane_wave, boost_wave_vector, field_boost,
                      fourvector_transform_flow, velocity_addition)
from .bohm import (FrameConsistency, Trajectory, frame_consistency_check,
                   guidance_velocity, integrate_trajectory,
                   sample_points_on_line, transport_ensemble)
from .fieldio import read_weber, write_weber
