"""Continuous loading of a magnetic trap from a magneto-optical trap:
forward rate-equation dynamics, trapped-cloud geometry, virial-theorem
thermometry, and the inverse fitting procedures."""

from .cloud import (CloudState, MotCloud, QuadrupoleField, density_at,
                    effective_volume, make_cloud_state, phase_space_density,
                    predict_mt_temperature, shape_params)
from .collisions import (cross_section_from_beta, excited_mot_density,
                         mean_collision_velocity, overlap_correction)
from .dynamics import (RateModel, Trajectory, integrate_mt_decay,
                       loading_curve, mot_on_decay_rate,
                       steady_state_population)
from .errors import (ConfigError, FitNotConvergedError, GravityAxisError,
                     InputDataError, MtloadError, UntrappedCloudError)
from .estimation import (DensityImage, SampleSeries, fit_density_image,
                         fit_linear, fit_loading_curve, fit_two_body_loss,
                         render_density_image)
from .excitation import (LightField, efficiency_from_rate,
                         excitation_probability, transfer_rate)
from .leastsq import FitResult, least_squares
from .mc import (PumpingDistribution, TransferReport, seed_stream,
                 simulate_transfer)
from .scenario import Scenario, load_scenario, parse_scenario
from .species import SpeciesData, chromium52
from .tables import TOOL_VERSION as __version__

__all__ = [
    "CloudState", "MotCloud", "QuadrupoleField", "density_at",
    "effective_volume", "make_cloud_state", "phase_space_density",
    "predict_mt_temperature", "shape_params",
    "cross_section_from_beta", "excited_mot_density",
    "mean_collision_velocity", "overlap_correction",
    "RateModel", "Trajectory", "integrate_mt_decay", "loading_curve",
    "mot_on_decay_rate", "steady_state_population",
    "ConfigError", "FitNotConvergedError", "GravityAxisError",
    "InputDataError", "MtloadError", "UntrappedCloudError",
    "DensityImage", "SampleSeries", "fit_density_image", "fit_linear",
    "fit_loading_curve", "fit_two_body_loss", "render_density_image",
    "LightField", "efficiency_from_rate",
    "excitation_probability", "transfer_rate",
    "FitResult", "least_squares",
    "PumpingDistribution", "TransferReport", "seed_stream",
    "simulate_transfer",
    "Scenario", "load_scenario", "parse_scenario",
    "SpeciesData", "chromium52",
    "__version__",
]
