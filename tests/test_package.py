"""The package root: the entry points the README and the demos import."""

import hkflow

ROOT_NAMES = [
    "FlowConfig", "FrameError", "HkflowError", "IOFailure", "InputError", "NumericalError",
    "PreconditionError", "__version__", "bja_identity", "build_immersion",
    "c0_from_l2_validator", "canonical_phase_from_frame", "compute_geometry", "decay_fit",
    "gauss_curvature_check", "geodesic_ball_volumes", "holomorphic_symplectic",
    "hyper_lagrangian_residual", "kahler_angle", "lagrangian_angle", "lambda1", "phase_field",
    "phase_operator", "plf_residual", "polar_identity_check", "run_flow", "scenario",
    "standard_twistor_triple", "surface_integral", "symplectic_form", "tension_field",
    "twistor_energy",
]


def test_root_exports_the_entry_points():
    # the stepper, the operators and the data types import from their modules
    assert sorted(hkflow.__all__) == ROOT_NAMES
    for name in hkflow.__all__:
        assert getattr(hkflow, name) is not None, name
