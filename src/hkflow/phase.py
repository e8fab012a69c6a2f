"""Complex phase field of an immersed surface and the pointwise meters.

The phase a(x) is the canonical twistor coefficient, under the pinned
triple kernel._TRIPLE, of the oriented orthonormal frame at each node.
Gradients of a are central differences in parameter space; the energy
density is the edge (Dirichlet form) density of
surface.dirichlet_energy_density, so that the integral of |grad a|^2
matches the quadratic form of the discrete Laplacian exactly.

The identity meters (mean-curvature formula, frame identity, polar
identity, hyper-Lagrangian residual) all work in the basis adapted to
the pair (a, b) where b is a deterministic pointwise-orthogonal
companion phase; every exported number is independent of that choice
and of the normal gauge, which the tests pin down.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import FrameError, PreconditionError
from .kernel import _TRIPLE, _apply_phase, _companion, _dot, _tangent_phase
from .surface import (
    _central,
    _cometric,
    _node_major,
    _planes,
    _second_fundamental_form,
    _shift,
    dirichlet_energy_density,
    laplace_beltrami,
    surface_integral,
)

POLE_TOL = 0.05          # refuse polar charts closer than this to |a3| = 1
LAGRANGIAN_TOL = 0.05    # refuse the Lagrangian angle beyond this |a3|
FRAME_VERIFY_TOL = 1e-6


@dataclass
class PhaseField:
    """Fields are (nu, nv, ...) views of component planes, as in GeometryCache."""

    a: np.ndarray                 # (nu, nv, 3) unit phase vectors
    energy_density: np.ndarray    # (nu, nv) edge-form |grad a|^2


def _central_grad(fld, cache):
    """Central parameter gradient of planes (..., nu, nv) -> (2, ..., nu, nv)."""
    return np.stack([_central(fld, -2, cache.hu), _central(fld, -1, cache.hv)])


def _phase_from_planes(a, cache):
    """PhaseField of a unit direction field given as planes (3, nu, nv)."""
    node_a = _node_major(a)
    return PhaseField(node_a, dirichlet_energy_density(node_a, cache))


def field_from_array(a, cache):
    """PhaseField from a raw per-node direction field (normalized first)."""
    a = np.ascontiguousarray(_planes(np.asarray(a, float)))
    return _phase_from_planes(a / np.sqrt(_dot(a, a)), cache)


def phase_field(cache):
    """Canonical phase of every node frame, with the defining relations
    verified in bulk (mirrors kernel.canonical_phase_from_frame)."""
    e1, e2, e3, e4 = (_planes(e) for e in (cache.e1, cache.e2, cache.e3, cache.e4))
    a = _tangent_phase(e1, e2, _TRIPLE)
    d1 = _apply_phase(a, e1, _TRIPLE) - e2
    d3 = _apply_phase(a, e3, _TRIPLE) + e4
    residual = np.sqrt(_dot(d1, d1)) + np.sqrt(_dot(d3, d3))
    worst = float(residual.max())
    if worst > FRAME_VERIFY_TOL:
        ij = tuple(int(k) for k in np.unravel_index(np.argmax(residual), residual.shape))
        raise FrameError(
            f"node frame at {ij} violates the twistor relations: residual {worst:.3e}"
        )
    return _phase_from_planes(a, cache)


def twistor_energy(pf, cache):
    return surface_integral(pf.energy_density, cache)


def tension_field(pf, cache):
    """Delta a + |grad a|^2 a, the sphere-projected driving term."""
    return laplace_beltrami(pf.a, cache) + pf.energy_density[..., None] * pf.a


def kahler_angle(pf):
    return np.arccos(np.clip(pf.a[..., 2], -1.0, 1.0))


def _wrap_angle(t):
    return (t + np.pi) % (2 * np.pi) - np.pi


def _angle_grad(theta, cache):
    """Central gradient of an angle field with 2 pi jumps removed."""
    hu, hv = cache.hu, cache.hv
    du = _wrap_angle(_shift(theta, -1, 0) - _shift(theta, 1, 0)) / (2 * hu)
    dv = _wrap_angle(_shift(theta, -1, 1) - _shift(theta, 1, 1)) / (2 * hv)
    return np.stack([du, dv])


def _winding(theta, axis):
    jumps = _wrap_angle(_shift(theta, -1, axis) - theta)
    total = jumps.sum(axis=axis)
    return int(np.round(np.mean(total) / (2 * np.pi)))


LagrangianAngle = namedtuple("LagrangianAngle", "theta residual winding")


def lagrangian_angle(pf, cache):
    """Unwrapped Lagrangian angle and the L2 exactness residual.

    theta = atan2(a2, a1).  For a Lagrangian surface the contraction of
    the mean curvature with omega_{J3} is an exact form; under the pinned
    triple the identity reads i_H omega + d theta = 0, and the residual
    is the L2 norm of that combination.  Only claimed for surfaces that
    are Lagrangian to begin with, hence the a3 gate.
    """
    max_a3 = float(np.abs(pf.a[..., 2]).max())
    if max_a3 >= LAGRANGIAN_TOL:
        raise PreconditionError(
            f"not-lagrangian: max |a3| = {max_a3:.3f} exceeds {LAGRANGIAN_TOL}"
        )
    raw = np.arctan2(pf.a[..., 1], pf.a[..., 0])
    rows = np.unwrap(raw, axis=1)
    col0 = np.unwrap(raw[:, 0])
    theta = rows + (col0 - raw[:, 0])[:, None]

    # omega_{J3}(H, f_i) in the pinned convention; J3 H spelled out
    H = _planes(cache.H)
    j3h = np.stack([H[3], -H[2], H[1], -H[0]])
    r_u = _dot(j3h, _planes(cache.f_u))
    r_v = _dot(j3h, _planes(cache.f_v))
    dth = _angle_grad(theta, cache)
    sq = _cometric(cache.ginv, r_u + dth[0], r_v + dth[1])
    residual = float(np.sqrt(max(surface_integral(sq, cache), 0.0)))
    winding = (_winding(raw, 0), _winding(raw, 1))
    return LagrangianAngle(theta, residual, winding)


def _to_frame(comp_u, comp_v, cache):
    """Convert 1-form components on (f_u, f_v) to the orthonormal frame
    using the metric Gram-Schmidt rows."""
    gs = _planes(cache.gs, 2)
    return gs[0, 0] * comp_u, gs[1, 0] * comp_u + gs[1, 1] * comp_v


def plf_residual(cache, pf):
    """Pointwise defect of the mean-curvature formula.

    With J = J_a, K = J_b for the companion b, the surface satisfies
    i_H Omega + 2 dbar(a'_2 + i a'_3) = 0, where the primes are the
    coefficients of nearby phases in the basis adapted at the node and
    dbar f = (df - i df(J .))/2 along the surface.  Returns the norm of
    the defect 1-form per node; both terms are assembled in parameter
    indices and pushed to the orthonormal frame together.  The result does
    not depend on the choice of companion b, which the tests exercise.
    """
    a = _planes(pf.a)
    b = _companion(a)
    axb = np.cross(a, b, axis=0)
    f_u, f_v = _planes(cache.f_u), _planes(cache.f_v)

    kh = _apply_phase(b, _planes(cache.H), _TRIPLE)     # J_b H
    jkh = _apply_phase(a, kh, _TRIPLE)                  # J_a J_b H
    p_u = _dot(jkh, f_u) - 1j * _dot(kh, f_u)
    p_v = _dot(jkh, f_v) - 1j * _dot(kh, f_v)

    # w(y) = <b(x), a(y)> + i <a x b(x), a(y)>, differentiated at y = x
    grad_u, grad_v = _central_grad(a, cache)
    dw_u = _dot(b, grad_u) + 1j * _dot(axb, grad_u)
    dw_v = _dot(b, grad_v) + 1j * _dot(axb, grad_v)

    p1, p2 = _to_frame(p_u, p_v, cache)
    dw1, dw2 = _to_frame(dw_u, dw_v, cache)
    rho = p1 + (dw1 - 1j * dw2)                    # P(e1) + 2 dbar w (e1)
    return np.sqrt(2.0) * np.abs(rho)


BjaResult = namedtuple("BjaResult", "lhs rhs ratio")


def bja_identity(cache, pf):
    """Both sides of the frame identity for |nabla J_a|^2.

    lhs = 4 |grad a|^2; rhs is the curvature expression in the frame
    adapted to (a, b): tangent (e1, e2), normals (J_b e1, J_b e2).
    Also returns the pointwise ratio |grad a| / |A|.
    """
    b = _companion(_planes(pf.a))
    normals = tuple(_apply_phase(b, _planes(e), _TRIPLE) for e in (cache.e1, cache.e2))
    f_uu, f_uv, f_vv = (_planes(f) for f in (cache.f_uu, cache.f_uv, cache.f_vv))
    hp = _second_fundamental_form(f_uu, f_uv, f_vv, normals)
    # gs hp gs^T: the lower-triangular gs rows act on the row index, then the column index
    rows = _to_frame(hp[:, 0], hp[:, 1], cache)
    horth = [_to_frame(r[:, 0], r[:, 1], cache) for r in rows]   # horth[i][j][alpha]

    x = np.stack([horth[1][i][0] - horth[0][i][1] for i in (0, 1)])    # h3_{2i} - h4_{1i}
    y = np.stack([horth[0][i][0] + horth[1][i][1] for i in (0, 1)])    # h3_{1i} + h4_{2i}
    rhs = 4.0 * (_dot(x, x) + _dot(y, y))
    lhs = 4.0 * pf.energy_density
    # ratio only means something where A is above noise level; 0/0 nodes
    # (flat spots of analytic scenarios) would otherwise dominate the max
    floor = 1e-12 * max(float(cache.norm_A_sq.max()), 1e-300)
    meaningful = cache.norm_A_sq > floor
    ratio = np.zeros_like(lhs)
    ratio[meaningful] = np.sqrt(
        pf.energy_density[meaningful] / cache.norm_A_sq[meaningful]
    )
    return BjaResult(lhs, rhs, ratio)


def polar_identity_check(pf, cache):
    """Residual of |grad a|^2 = sin^2(phi) |grad theta|^2 + |grad phi|^2
    in the polar chart around the third axis; refuses fields that touch
    the chart poles."""
    a3 = pf.a[..., 2]
    closeness = float((1.0 - np.abs(a3)).min())
    if closeness <= POLE_TOL:
        raise PreconditionError(
            f"pole-proximity: min(1 - |a3|) = {closeness:.3f} is inside {POLE_TOL}"
        )
    theta = np.arctan2(pf.a[..., 1], pf.a[..., 0])
    phi = np.arccos(np.clip(a3, -1.0, 1.0))
    dth = _angle_grad(theta, cache)
    dph = _central_grad(phi, cache)
    sq_th = _cometric(cache.ginv, dth[0], dth[1])
    rhs = np.sin(phi) ** 2 * sq_th + _cometric(cache.ginv, dph[0], dph[1])
    return np.abs(pf.energy_density - rhs)


def hyper_lagrangian_residual(cache, pf):
    """Max modulus of Omega_{a(x)} on the tangent pair, per node.

    Identically zero in the continuum for any surface with its canonical
    phase; here it meters frame and phase self-consistency."""
    a = _planes(pf.a)
    e1, e2 = _planes(cache.e1), _planes(cache.e2)
    kb_e1 = _apply_phase(_companion(a), e1, _TRIPLE)
    real = _dot(_apply_phase(a, kb_e1, _TRIPLE), e2)
    imag = -_dot(kb_e1, e2)
    return np.maximum(np.abs(real), np.abs(imag))
