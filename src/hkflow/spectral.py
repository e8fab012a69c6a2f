"""Spectral gap, geodesic ball volumes, and the sup-norm validator.

The eigenproblem is the pencil (A, W) with A = -W Lap assembled in
sparse form from the same edge coefficients as the pointwise operator
(the tests require the two to agree to machine precision) and W the
diagonal of node areas.  A is symmetric positive semidefinite by
construction, so the first nonzero eigenvalue comes from shifted inverse
iteration with the constants projected out in the W inner product.
"""

from collections import namedtuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import InputError, NumericalError, PreconditionError
from .surface import _central, _cometric, surface_integral

RAYLEIGH_RTOL = 1e-10
RESIDUAL_TOL = 1e-7
MAX_ITERATIONS = 10_000
SHIFT_FRACTION = 0.01     # of the natural gap scale 4 pi^2 / area

SpectralResult = namedtuple("SpectralResult", "lambda1 vector iterations residual")
CollapseReport = namedtuple("CollapseReport", "kappa radius samples")
ValidatorReport = namedtuple("ValidatorReport", "bound max_observed holds epsilon kappa")


def _cyclic_shift(n, k):
    rows = np.arange(n)
    return sp.csr_matrix((np.ones(n), (rows, (rows + k) % n)), shape=(n, n))


def laplacian_matrix(cache):
    """Sparse (A, w) with A = -W Lap, w the node-area diagonal.

    A x equals -w * laplace_beltrami(x) for every field x; the skew
    central cross blocks and the symmetric flux blocks make A exactly
    symmetric, so eigensolvers can rely on it.
    """
    nu, nv = cache.grid.nu, cache.grid.nv
    hu, hv = cache.hu, cache.hv
    eye_u, eye_v = sp.identity(nu, format="csr"), sp.identity(nv, format="csr")
    su = sp.kron(_cyclic_shift(nu, 1), eye_v, format="csr")
    sv = sp.kron(eye_u, _cyclic_shift(nv, 1), format="csr")
    ident = sp.identity(nu * nv, format="csr")

    duf = (su - ident) / hu
    dvf = (sv - ident) / hv
    duc = (su - su.T) / (2 * hu)
    dvc = (sv - sv.T) / (2 * hv)

    au, av, cc = (sp.diags(c.ravel()) for c in (cache.au, cache.av, cache.cuv))
    a = (hu * hv) * (
        duf.T @ au @ duf + dvf.T @ av @ dvf - duc @ cc @ dvc - dvc @ cc @ duc
    )
    w = (cache.sqrt_det_g * hu * hv).ravel()
    return a.tocsr(), w


def lambda1(cache, rtol=RAYLEIGH_RTOL, residual_tol=RESIDUAL_TOL):
    """First nonzero eigenvalue of the surface Laplacian.

    Inverse power iteration with constant-mode deflation, run on a
    4-column block with a Rayleigh-Ritz projection each sweep: the tori
    of interest carry their lowest eigenvalue with multiplicity up to 4,
    and a single vector cannot settle inside such a cluster.  Fixed
    start block and direct sparse solves keep the result deterministic.
    """
    a, w = laplacian_matrix(cache)
    area = w.sum()
    gamma = SHIFT_FRACTION * 4 * np.pi**2 / area
    lu = spla.splu((a + sp.diags(gamma * w)).tocsc())

    uu, vv = cache.grid.param_axes()
    x = np.stack(
        [
            np.cos(uu).ravel(),
            np.sin(vv).ravel(),
            np.cos(uu + 2 * vv).ravel(),
            np.sin(2 * uu - vv).ravel(),
        ],
        axis=1,
    )

    def orthonormalize(block):
        block = block - np.outer(np.ones(block.shape[0]), w @ block) / area
        chol = sla.cholesky(block.T @ (w[:, None] * block), lower=False)
        return sla.solve_triangular(chol, block.T, lower=False, trans="T").T

    lam_prev = np.inf
    x = orthonormalize(x)
    for iteration in range(1, MAX_ITERATIONS + 1):
        y = orthonormalize(lu.solve(w[:, None] * x))
        small = y.T @ (a @ y)
        theta, rot = sla.eigh(0.5 * (small + small.T))
        y = y @ rot
        lam = float(theta[0])
        v = y[:, 0]
        r = a @ v - lam * (w * v)
        residual = float(np.sqrt((r * r / w).sum()))
        if (
            abs(lam - lam_prev) <= rtol * max(abs(lam), 1e-30)
            and residual <= residual_tol * max(1.0, abs(lam))
        ):
            shape = (cache.grid.nu, cache.grid.nv)
            return SpectralResult(lam, v.reshape(shape), iteration, residual)
        lam_prev, x = lam, y
    raise NumericalError(
        f"eigensolver stalled after {MAX_ITERATIONS} iterations "
        f"(last residual {residual:.3e}, Ritz gap estimate {theta[1] - theta[0]:.3e})"
    )


def _chord_graph(cache):
    """8-neighbor graph weighted by ambient chord lengths (shortest image)."""
    grid = cache.grid
    nu, nv = grid.nu, grid.nv
    idx = np.arange(nu * nv).reshape(nu, nv)
    pos = grid.positions
    rows, cols, data = [], [], []
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
        nbr = np.roll(np.roll(pos, -di, axis=0), -dj, axis=1)
        disp = grid.ambient.displacement(nbr, pos)
        rows.append(idx.ravel())
        cols.append(np.roll(np.roll(idx, -di, axis=0), -dj, axis=1).ravel())
        data.append(np.linalg.norm(disp, axis=-1).ravel())
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nu * nv, nu * nv),
    )


def default_ball_centers(cache, side=4):
    """Evenly spaced lattice of (i, j) sample centers."""
    nu, nv = cache.grid.nu, cache.grid.nv
    return tuple(
        ((nu * a) // side, (nv * b) // side) for a in range(side) for b in range(side)
    )


def geodesic_ball_volumes(cache, centers=None, radii=0.5):
    """Intrinsic ball areas over r^2 at the given centers and scales.

    Distances are Dijkstra on the 8-neighbor chord graph, so the ratio
    tends to pi on smooth surfaces as r shrinks (short of the stencil's
    direction bias, roughly 10% here).  Each search stops at the largest
    radius r_max: nodes farther out are never read, so they stay inf.
    The diameter proxy is the eccentricity of the first center, from one
    search cut at 2 r_max; if that search leaves any node unreached, the
    proxy exceeds 2 r_max and no radius is too large.  kappa is the
    worst sampled ratio: the noncollapsing constant in
    Vol(B(x, r)) >= kappa r^2.  Samples are (center, radius, volume,
    ratio) tuples.
    """
    radii = tuple(np.atleast_1d(np.asarray(radii, float)))
    if any(r <= 0 for r in radii):
        raise InputError(f"ball radii must be positive, got {radii}")
    if centers is None:
        centers = default_ball_centers(cache)
    nv = cache.grid.nv
    flat = [int(i) * nv + int(j) for i, j in centers]
    graph = _chord_graph(cache)
    reach = csgraph.dijkstra(graph, directed=False, indices=flat[0], limit=2 * max(radii))
    proxy = float(reach.max())
    if max(radii) > 0.5 * proxy:
        raise InputError(
            f"radius-too-large: {max(radii)} exceeds half the diameter proxy {proxy:.3f}"
        )
    dist = csgraph.dijkstra(graph, directed=False, indices=flat, limit=max(radii))
    w = cache.node_area().ravel()
    samples = []
    for k, center in enumerate(centers):
        for r in radii:
            r = float(r)
            vol = float(w[dist[k] <= r].sum())
            samples.append((tuple(center), r, vol, vol / r**2))
    kappa = min(s[3] for s in samples)
    return CollapseReport(kappa, max(radii), tuple(samples))


def c0_from_l2_validator(sigma, lam, cache, radius=0.5):
    """Sup bound (Lam + kappa^{-1/2}) eps^{1/4} for a small field sigma.

    eps is the L2 mass of sigma; the bound only claims anything when
    eps <= radius^4 and Lam really dominates the measured gradient, so
    both preconditions are enforced rather than assumed.
    """
    sigma = np.asarray(sigma, float)
    if sigma.shape != cache.sqrt_det_g.shape:
        raise InputError(f"field shape {sigma.shape} does not match the grid")
    grad_sq = _cometric(cache.ginv, _central(sigma, 0, cache.hu), _central(sigma, 1, cache.hv))
    measured = float(np.sqrt(grad_sq.max()))
    if lam < measured * (1 - 1e-9):
        raise PreconditionError(
            f"lipschitz-violated: claimed {lam:.6g}, measured gradient {measured:.6g}"
        )
    eps = float(surface_integral(sigma**2, cache))
    if eps > radius**4:
        raise PreconditionError(
            f"epsilon-too-large: L2 mass {eps:.3e} exceeds radius^4 = {radius**4:.3e}"
        )
    report = geodesic_ball_volumes(cache, radii=radius)
    bound = (lam + report.kappa**-0.5) * eps**0.25
    max_observed = float(np.abs(sigma).max())
    return ValidatorReport(bound, max_observed, max_observed <= bound, eps, report.kappa)
