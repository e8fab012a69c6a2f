"""The package root: the entry points the README and the demos import."""

import inspect

import hkflow

ROOT_NAMES = [
    "FlowConfig", "HkflowError", "IOFailure", "InputError", "NumericalError",
    "PreconditionError", "__version__", "bja_identity", "c0_from_l2_validator",
    "compute_geometry", "decay_fit", "gauss_curvature_check", "geodesic_ball_volumes",
    "lambda1", "phase_field", "plf_residual", "run_flow", "scenario",
    "standard_twistor_triple", "surface_integral", "tension_field", "twistor_energy",
]


def test_root_exports_the_entry_points():
    # the stepper, the operators and the data types import from their modules
    assert sorted(hkflow.__all__) == ROOT_NAMES
    for name in hkflow.__all__:
        assert getattr(hkflow, name) is not None, name


# every function the root exports, with its parameters: a setting that was
# dropped cannot come back without an edit here
ROOT_SIGNATURES = {
    "bja_identity": "(cache, pf)",
    "c0_from_l2_validator": "(sigma, lam, cache, radius=0.5)",
    "compute_geometry": "(grid)",
    "decay_fit": "(series, window)",
    "gauss_curvature_check": "(cache)",
    "geodesic_ball_volumes": "(cache, radius=0.5)",
    "lambda1": "(cache)",
    "phase_field": "(cache)",
    "plf_residual": "(cache, pf)",
    "run_flow": "(cfg, grid, observe=None)",
    "scenario": "(name, nu, nv, **params)",
    "standard_twistor_triple": "()",
    "surface_integral": "(density, cache)",
    "tension_field": "(pf, cache)",
    "twistor_energy": "(pf, cache)",
}


def test_root_functions_keep_their_signatures():
    functions = {
        name: str(inspect.signature(getattr(hkflow, name)))
        for name in hkflow.__all__
        if inspect.isfunction(getattr(hkflow, name))
    }
    assert functions == ROOT_SIGNATURES
