"""hkflow: a numerical laboratory for mean curvature flow coupled with the
complex-phase heat flow on surfaces in flat hyperkahler R^4 and T^4.

The package root exports the entry points the README and the demos use;
the stepper, the operators and the data types import from their modules.
"""

__version__ = "0.1.0"

from .errors import (
    HkflowError,
    InputError,
    PreconditionError,
    NumericalError,
    IOFailure,
)
from .kernel import standard_twistor_triple
from .surface import (
    scenario,
    compute_geometry,
    surface_integral,
    gauss_curvature_check,
)
from .phase import (
    phase_field,
    twistor_energy,
    tension_field,
    plf_residual,
    bja_identity,
)
from .spectral import (
    lambda1,
    geodesic_ball_volumes,
    c0_from_l2_validator,
)
from .flow import (
    FlowConfig,
    run_flow,
    decay_fit,
)

__all__ = [
    "__version__",
    "HkflowError",
    "InputError",
    "PreconditionError",
    "NumericalError",
    "IOFailure",
    "standard_twistor_triple",
    "scenario",
    "compute_geometry",
    "surface_integral",
    "gauss_curvature_check",
    "phase_field",
    "twistor_energy",
    "tension_field",
    "plf_residual",
    "bja_identity",
    "lambda1",
    "geodesic_ball_volumes",
    "c0_from_l2_validator",
    "FlowConfig",
    "run_flow",
    "decay_fit",
]
