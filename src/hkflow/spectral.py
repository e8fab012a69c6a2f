"""Spectral gap, geodesic ball volumes, and the sup-norm validator.

Ball volumes are measured at one radius from one fixed 4 x 4 lattice of
centres: the non-collapsing constant kappa enters only through
Vol(B(x, r)) >= kappa r^2 at the validator's radius.

The eigenproblem is the pencil (A, W) of surface.laplacian_matrix, the
operator the phase heat step applies: A = -W Lap is symmetric positive
semidefinite and W is the diagonal of node areas.  The first nonzero
eigenvalue comes from a block iteration with the constants projected out
in the W inner product, preconditioned by the exact FFT inverse of the
shifted pencil at the mean metric, so no matrix is factorized.  What
depends on the grid size alone, the start block and the Fourier factors
of that inverse, is computed once per grid and cached read-only, like
the Laplacian's stencil pattern.

scipy is imported inside the functions that use it: scipy.linalg at the
first eigen-solve, the CSR chord graph's scipy.sparse and the Dijkstra
search's scipy.sparse.csgraph at the first ball volume.
"""

import functools
from collections import namedtuple

import numpy as np

from .errors import InputError, NumericalError, PreconditionError, _finite_real, _real_array
from .kernel import _dot
from .surface import (
    _central, _cometric, _displacement, _param_axes, _planes, _shift, laplacian_matrix,
    surface_integral,
)

RAYLEIGH_RTOL = 1e-10
RESIDUAL_TOL = 1e-7
MAX_ITERATIONS = 10_000
STALL_SWEEPS = 50         # sweeps in which the best residual must halve, else it sits at its floor
SHIFT_FRACTION = 0.01     # of the natural gap scale 4 pi^2 / area

SpectralResult = namedtuple("SpectralResult", "lambda1 vector iterations residual")
CollapseReport = namedtuple("CollapseReport", "kappa radius samples")
ValidatorReport = namedtuple("ValidatorReport", "bound max_observed holds epsilon kappa")


@functools.lru_cache(maxsize=8)
def _start_block(nu, nv):
    """lambda1's fixed (nu * nv, 4) start block on the parameter grid.
    Read-only and shared by every call on an nu x nv grid."""
    uu, vv = _param_axes(nu, nv)
    x = np.stack(
        [
            np.cos(uu).ravel(),
            np.sin(vv).ravel(),
            np.cos(uu + 2 * vv).ravel(),
            np.sin(2 * uu - vv).ravel(),
        ],
        axis=1,
    )
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=8)
def _fft_factors(nu, nv):
    """The grid's Fourier factors 2 - 2 cos(t_u), 2 - 2 cos(t_v), sin(t_u),
    sin(t_v), shaped (nu, 1) and (1, nv // 2 + 1) for the rfft2 half plane.
    Read-only and shared by every call on an nu x nv grid."""
    tu = 2 * np.pi * np.fft.fftfreq(nu)[:, None]
    tv = 2 * np.pi * np.fft.rfftfreq(nv)[None, :]
    factors = (2 - 2 * np.cos(tu), 2 - 2 * np.cos(tv), np.sin(tu), np.sin(tv))
    for f in factors:
        f.flags.writeable = False
    return factors


def _fft_inverse(cache, w, gamma):
    """Exact inverse of A0 + gamma W0, applied to the columns of a block.

    A0 is the pencil's operator with every edge coefficient replaced by
    its mean and W0 = mean(w), so both are diagonal in the periodic
    Fourier basis; where the metric coefficients are constant (flat,
    Clifford and sheared tori) this is (A + gamma W)^-1 itself.
    """
    nu, nv = cache.grid.nu, cache.grid.nv
    hu, hv = cache.hu, cache.hv
    cos_u, cos_v, sin_u, sin_v = _fft_factors(nu, nv)
    symbol = (
        cache.au.mean() * cos_u * hv / hu
        + cache.av.mean() * cos_v * hu / hv
        + 2 * cache.cuv.mean() * sin_u * sin_v
    )
    inverse = 1.0 / (symbol + gamma * w.mean())

    def apply(block):
        fields = block.T.reshape(-1, nu, nv)
        out = np.fft.irfft2(np.fft.rfft2(fields) * inverse, s=(nu, nv))
        return out.reshape(block.shape[1], -1).T

    return apply


def lambda1(cache):
    """First nonzero eigenvalue of the surface Laplacian.

    Preconditioned block iteration (LOBPCG, Knyazev 2001) on a 4-column
    block with the constants deflated: the tori of interest carry their
    lowest eigenvalue with multiplicity up to 4, and a single vector
    cannot settle inside such a cluster.  Each sweep is a Rayleigh-Ritz
    projection onto [X, T R, P], with R = A X - W X Theta the block
    residual, T the FFT inverse of the shifted pencil at the mean metric,
    and P the previous update outside X.  No matrix is factorized; the
    fixed start block keeps the result deterministic.

    It returns only a residual within RESIDUAL_TOL x max(1, lambda1).  A
    best residual not halved in STALL_SWEEPS sweeps sits at its roundoff
    floor (a thin T^4 cylinder's is above that rule) and raises.
    """
    import scipy.linalg as sla

    a, w = laplacian_matrix(cache)
    gamma = SHIFT_FRACTION * 4 * np.pi**2 / w.sum()
    precondition = _fft_inverse(cache, w, gamma)
    sqrt_w = np.sqrt(w)

    x = _start_block(cache.grid.nu, cache.grid.nv)
    k = x.shape[1]

    def orthonormalize(*blocks):
        # the constants lead the QR, so the rest is W-orthogonal to them;
        # a QR cannot fail on a block that lost rank after convergence.
        # The F-ordered buffer is filled, and the C-ordered result divided
        # into, through their transposes, whose rows are contiguous
        buf = np.empty((len(w), 1 + sum(b.shape[1] for b in blocks)), order="F")
        rows = buf.T
        rows[0] = sqrt_w
        start = 1
        for b in blocks:
            np.multiply(sqrt_w, b.T, out=rows[start:start + b.shape[1]])
            start += b.shape[1]
        q = sla.qr(buf, mode="economic", overwrite_a=True, check_finite=False)[0]
        # C order: the products with an F-ordered Q round differently
        out = np.empty((len(w), q.shape[1] - 1))
        np.divide(q[:, 1:].T, sqrt_w, out=out.T)
        return out

    lam_prev = np.inf
    best, best_at, halved, halved_at = np.inf, 0, np.inf, 0
    x = orthonormalize(x)
    ax, p = a @ x, x[:, :0]
    for iteration in range(1, MAX_ITERATIONS + 1):
        rx = ax - w[:, None] * (x @ (x.T @ ax))
        s = orthonormalize(x, precondition(rx), p)
        a_s = a @ s
        small = s.T @ a_s
        theta, rot = sla.eigh(0.5 * (small + small.T))
        x = s @ rot[:, :k]
        lam = float(theta[0])
        v = x[:, 0]
        r = a @ v - lam * (w * v)
        residual = float(np.sqrt((r * r / w).sum()))
        if (
            abs(lam - lam_prev) <= RAYLEIGH_RTOL * max(abs(lam), 1e-30)
            and residual <= RESIDUAL_TOL * max(1.0, abs(lam))
        ):
            shape = (cache.grid.nu, cache.grid.nv)
            return SpectralResult(lam, v.reshape(shape), iteration, residual)
        best, best_at = min((best, best_at), (residual, iteration))
        if best <= 0.5 * halved:
            halved, halved_at = best, iteration
        elif iteration - halved_at >= STALL_SWEEPS:
            raise NumericalError(
                f"eigensolver residual stopped falling at sweep {iteration}: the best, "
                f"{best:.3e} at sweep {best_at}, has not halved in {STALL_SWEEPS} sweeps"
            )
        # the next sweep's rotations, never read once converged
        ax, p = a_s @ rot[:, :k], s[:, k:] @ rot[k:, :k]
        lam_prev = lam
    raise NumericalError(
        f"eigensolver stalled after {MAX_ITERATIONS} iterations "
        f"(last residual {residual:.3e}, Ritz gap estimate {theta[1] - theta[0]:.3e})"
    )


def _chord_graph(cache):
    """8-neighbor graph weighted by ambient chord lengths (shortest image)."""
    import scipy.sparse as sp

    grid = cache.grid
    nu, nv = grid.nu, grid.nv
    idx = np.arange(nu * nv).reshape(nu, nv)
    pos = np.ascontiguousarray(_planes(grid.positions))
    rows, cols, data = [], [], []
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
        disp = _displacement(grid.ambient, _shift(_shift(pos, -di, 1), -dj, 2), pos)
        rows.append(idx.ravel())
        cols.append(_shift(_shift(idx, -di, 0), -dj, 1).ravel())
        data.append(np.sqrt(_dot(disp, disp)).ravel())
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nu * nv, nu * nv),
    )


def default_ball_centers(cache):
    """Evenly spaced 4 x 4 lattice of (i, j) sample centers."""
    nu, nv = cache.grid.nu, cache.grid.nv
    return tuple(((nu * a) // 4, (nv * b) // 4) for a in range(4) for b in range(4))


def geodesic_ball_volumes(cache, radius=0.5):
    """Intrinsic ball areas over r^2 at one radius, centred on the 4 x 4
    lattice default_ball_centers.

    Distances are Dijkstra on the 8-neighbor chord graph, so the ratio
    tends to pi on smooth surfaces as r shrinks (short of the stencil's
    direction bias, roughly 10% here).  Each search stops at r: nodes
    farther out stay inf.  The diameter proxy is the eccentricity of the
    first center, from one search cut at 2 r; if that search leaves a
    node unreached, r is not too large.  kappa is the worst sampled
    ratio: the noncollapsing constant in Vol(B(x, r)) >= kappa r^2.
    Samples are (center, radius, volume, ratio) tuples.  A radius that
    is not a finite positive real number raises InputError.

    The report is computed once per cache and radius and then returned
    from the cache's memo: it describes cache.grid.positions as they
    were on the first call.  Errors are not stored.
    """
    radius = _radius(radius)
    return cache._memoized(("ball_volumes", radius), lambda: _ball_volumes(cache, radius))


def _radius(radius):
    """The ball radius as a float, or InputError unless it is a finite
    positive real number."""
    _finite_real("radius", radius)
    if radius <= 0:
        raise InputError(f"radius must be positive, got {radius}")
    return float(radius)


def _ball_volumes(cache, radius):
    """geodesic_ball_volumes on a validated float radius."""
    import scipy.sparse.csgraph as csgraph

    centers = default_ball_centers(cache)
    flat = [i * cache.grid.nv + j for i, j in centers]
    graph = _chord_graph(cache)
    reach = csgraph.dijkstra(graph, directed=False, indices=flat[0], limit=2 * radius)
    proxy = float(reach.max())
    if radius > 0.5 * proxy:
        raise InputError(f"radius-too-large: {radius} exceeds half the diameter proxy {proxy:.3f}")
    dist = csgraph.dijkstra(graph, directed=False, indices=flat, limit=radius)
    w = cache.node_area().ravel()
    volumes = [float(w[d <= radius].sum()) for d in dist]
    samples = tuple((c, radius, vol, vol / radius**2) for c, vol in zip(centers, volumes))
    return CollapseReport(min(s[3] for s in samples), radius, samples)


def c0_from_l2_validator(sigma, lam, cache, radius=0.5):
    """Sup bound (Lam + kappa^{-1/2}) eps^{1/4} for a small field sigma.

    eps is the L2 mass of sigma; the bound only claims anything when
    eps <= radius^4 and Lam really dominates the measured gradient, so
    both preconditions are enforced rather than assumed.  A sigma not of
    finite reals, a lam or radius that is not a finite real number, or a
    radius <= 0, raises InputError: an inf Lam would certify nothing.
    """
    sigma = _real_array("sigma", sigma)
    if sigma.shape != cache.sqrt_det_g.shape:
        raise InputError(f"sigma shape {sigma.shape} does not match the grid")
    finite = np.isfinite(sigma)
    if not finite.all():
        ij = tuple(int(k) for k in np.argwhere(~finite)[0])
        raise InputError(f"sigma must be finite, got {sigma[ij]} at node {ij}")
    _finite_real("lam", lam)
    _radius(radius)
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
    report = geodesic_ball_volumes(cache, radius)
    bound = (lam + report.kappa**-0.5) * eps**0.25
    max_observed = float(np.abs(sigma).max())
    return ValidatorReport(bound, max_observed, max_observed <= bound, eps, report.kappa)
