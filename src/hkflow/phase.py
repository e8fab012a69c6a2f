"""Complex phase field of an immersed surface and the pointwise meters.

The phase a(x), a_d = <J_d e1, e2> under the kernel's one fixed triple,
reads the tangent pair alone; the frame's relations are pinned by a test.
Gradients of a are central differences in parameter space; the energy
density is the edge (Dirichlet form) density of
surface.dirichlet_energy_density, so that the integral of |grad a|^2
matches the quadratic form of the discrete Laplacian exactly.

The identity meters are the mean-curvature formula (a vector identity in
a and H, so no companion phase enters) and the frame identity (read off
the normal parts of the second differences, so no normal frame enters):
neither fixes a gauge.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, _real_array
from .kernel import _dot, _j_pairing, _tangent_phase
from .surface import (
    _central, _difference_gram, _node_major, _normal_parts, _planes, _weighted_density,
    laplace_beltrami, surface_integral,
)


@dataclass(eq=False)
class PhaseField:
    """Fields are (nu, nv, ...) views of component planes, as in GeometryCache.
    _gram, the metric-free difference Gram of `a` that _carried reuses, is no
    init field: dataclasses.replace leaves it empty, never stale."""

    a: np.ndarray                 # (nu, nv, 3) unit phase vectors
    energy_density: np.ndarray    # (nu, nv) edge-form |grad a|^2
    _gram: tuple = field(default=None, init=False, repr=False)


def _phase_from_planes(a, cache, gram=None):
    """PhaseField, with `a` read-only, of unit planes a (3, nu, nv) and their Gram."""
    gram = _difference_gram(a, cache.hu, cache.hv) if gram is None else gram
    a.flags.writeable = False           # every caller passes a fresh array or view
    pf = PhaseField(_node_major(a), _weighted_density(gram, cache))
    pf._gram = gram
    return pf


def _carried(pf, cache):
    """pf.a as it is on a cache of its grid size: only the metric weighting is redone."""
    return _phase_from_planes(_planes(pf.a), cache, pf._gram)


def _phase_norm(a):
    """|a| of phase planes a (3, nu, nv); a zero or non-finite vector raises InputError."""
    with np.errstate(over="ignore"):
        norm = np.sqrt(_dot(a, a))
    if not (norm.min() > 0 and norm.max() < np.inf):    # NaN fails too
        at = tuple(np.argwhere(~((norm > 0) & (norm < np.inf)))[0].tolist())
        raise InputError(
            f"phase vector at node {at} is zero or not finite: {a[(slice(None), *at)]}"
        )
    return norm


def field_from_array(a, cache):
    """PhaseField of a raw (nu, nv, 3) direction field, normalized first; another
    shape, and a zero or non-finite vector (named by its node), raise InputError."""
    a, shape = _real_array("phase array", a), cache.sqrt_det_g.shape + (3,)
    if a.shape != shape:
        raise InputError(f"phase array shape {a.shape} does not match the grid's {shape}")
    a = np.ascontiguousarray(_planes(a))
    return _phase_from_planes(a / _phase_norm(a), cache)


def phase_field(cache):
    """Canonical phase a_d = <J_d e1, e2> of every node's tangent pair; it reads
    no normal (the frame's relations are pinned by a test)."""
    return _phase_from_planes(_tangent_phase(_planes(cache.e1), _planes(cache.e2)), cache)


def twistor_energy(pf, cache):
    return surface_integral(pf.energy_density, cache)


def tension_field(pf, cache):
    """Delta a + |grad a|^2 a, the sphere-projected driving term (a view of contiguous planes)."""
    tau = np.ascontiguousarray(_planes(laplace_beltrami(pf.a, cache)))
    tau += pf.energy_density * _planes(pf.a)
    return _node_major(tau)


def plf_residual(cache, pf):
    """Pointwise defect of the mean-curvature formula.

    The surface satisfies i_H Omega + 2 dbar(a'_2 + i a'_3) = 0, where
    Omega is the holomorphic symplectic form of J = J_a, K = J_b for any
    unit b orthogonal to a, the primes are the coefficients of nearby
    phases along b and a x b, and dbar f = (df - i df(J .))/2 along the
    surface.  Since J_a J_b = J_{a x b}, its real and imaginary parts at e1
    are the b and a x b components of the vector

        rho = d1 a - <a, d1 a> a - a x (V + d2 a),   V_d = <J_d H, f_u> / sqrt(g_uu),

    with d1, d2 the derivatives along the orthonormal frame, and rho is
    orthogonal to a, so no companion b enters.  Returns sqrt(2) |rho|, the
    norm of the defect 1-form, per node.
    """
    a, g = _planes(pf.a), _planes(cache.g, 2)
    # frame derivatives by the Gram-Schmidt rows of the edge metric, which
    # shares the Laplacian's symbol; the first row is 1 / sqrt(g_uu)
    to_e1, ell = 1.0 / np.sqrt(g[0, 0]), np.sqrt(g[1, 1] - g[0, 1] ** 2 / g[0, 0])
    a_u = _central(a, -2, cache.hu)
    d1 = to_e1 * a_u
    d2 = -g[0, 1] / (g[0, 0] * ell) * a_u + (1.0 / ell) * _central(a, -1, cache.hv)
    v = to_e1 * _j_pairing(_planes(cache.H), _planes(cache.f_u))
    rho = d1 - _dot(a, d1) * a - np.cross(a, v + d2, axis=0)
    return np.sqrt(2.0) * np.sqrt(_dot(rho, rho))


BjaResult = namedtuple("BjaResult", "lhs rhs ratio")

# (k, l, i, j, sign): det[e1, e2, x, y] sums sign (x ^ y)_kl (e1 ^ e2)_ij over the
# six coordinate pairs (k, l), (i, j) the complementary pair
_PAIRS = ((0, 1, 2, 3, 1.0), (0, 2, 1, 3, -1.0), (0, 3, 1, 2, 1.0),
          (1, 2, 0, 3, 1.0), (1, 3, 0, 2, -1.0), (2, 3, 0, 1, 1.0))


def bja_identity(cache, pf):
    """Both sides of the frame identity for |nabla J_a|^2.

    lhs = 4 |grad a|^2; rhs = 4 (|A|^2 + 2 K_N) is the paper's expression
    in a frame adapted to the twistor family, read off the normal parts
    A_ij = f_ij^perp with no normal frame: the normal curvature is
    K_N = (g^uu w(A_uu, A_uv) + g^uv w(A_uu, A_vv) + g^vv w(A_uv, A_vv)) / sqrt det g
    with w(x, y) = det[e1, e2, x, y], 0 where the normal bundle is flat.
    Also returns the pointwise ratio |grad a| / |A|.
    """
    e1, e2 = _planes(cache.e1), _planes(cache.e2)
    star = [(sign * (e1[i] * e2[j] - e1[j] * e2[i]), k, l) for k, l, i, j, sign in _PAIRS]

    def omega(x, y):
        return sum(p * (x[k] * y[l] - x[l] * y[k]) for p, k, l in star)

    a_uu, a_uv, a_vv = _normal_parts(cache, _planes(cache.f_uv))
    ginv = _planes(cache.ginv, 2)
    k_n = (ginv[0, 0] * omega(a_uu, a_uv) + ginv[0, 1] * omega(a_uu, a_vv)
           + ginv[1, 1] * omega(a_uv, a_vv)) / cache.sqrt_det_g
    rhs = 4.0 * (cache.norm_A_sq + 2.0 * k_n)
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
