"""Reference twistor algebra for the tests, written node-major with the
pinned triple's matrices: the stack (J1, J2, J3), J_c applied to vectors,
and the companion phase b orthogonal to a, from which the paper's frame
adapted to a takes its normals e3 = J_b e1, e4 = J_b e2.  The package
reads none of these: its meters are gauge-free and need no companion."""

import numpy as np

from hkflow.kernel import standard_twistor_triple


def twistor_stack():
    """(J1, J2, J3) of the pinned triple as one (3, 4, 4) array."""
    t = standard_twistor_triple()
    return np.stack([t.j1, t.j2, t.j3])


def apply_phase(coeff, vec):
    """(sum_d coeff_d J_d) vec node-major: coeff (..., 3), vec (..., 4)."""
    return sum(coeff[..., d, None] * (vec @ j.T) for d, j in enumerate(twistor_stack()))


def companion(a):
    """Unit b orthogonal to the phases a (..., 3): z x a, normalized, while
    |z x a| > 0.1, and x x a near the poles of the third axis."""
    zxa = np.stack([-a[..., 1], a[..., 0], np.zeros_like(a[..., 0])], axis=-1)
    xxa = np.stack([np.zeros_like(a[..., 0]), -a[..., 2], a[..., 1]], axis=-1)
    b = np.where((np.linalg.norm(zxa, axis=-1) > 0.1)[..., None], zxa, xxa)
    return b / np.linalg.norm(b, axis=-1, keepdims=True)
