"""Eigensolver, geodesic ball volumes, and the sup-norm validator.

The eigenvalue oracles are Fourier: on a flat metric the discrete
operator's symbol is known exactly, so the error levels below are the
h^2/12 symbol defect, frozen at 64^2 with a refinement ratio.  The
sparse matrix itself is cross-checked against a dense solve at 16^2 and,
at machine precision, against a rolled flux stencil kept here as an
independent oracle.
"""

import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

import hkflow.spectral as spectral
from hkflow.errors import InputError, NumericalError, PreconditionError
from hkflow.spectral import (
    RESIDUAL_TOL,
    SHIFT_FRACTION,
    STALL_SWEEPS,
    CollapseReport,
    _chord_graph,
    c0_from_l2_validator,
    default_ball_centers,
    geodesic_ball_volumes,
    lambda1,
)
from hkflow.surface import compute_geometry, laplace_beltrami, laplacian_matrix, scenario

TWO_PI = 2.0 * np.pi
SHEAR = dict(
    exprs=["u + 0.5*v", "v", "0*u", "0*u"],
    periods=[np.pi, TWO_PI, TWO_PI, TWO_PI],
)


def cache_for(name, n, **params):
    return compute_geometry(scenario(name, n, n, **params))


@pytest.fixture(scope="module")
def flat64():
    return cache_for("flat-plane-torus", 64)


@pytest.fixture(scope="module")
def perturbed64():
    return cache_for("perturbed-complex-torus", 64, eps=0.05)


def rolled_laplace_beltrami(fld, cache):
    """Reference: the conservative-form operator as a rolled flux stencil,
    edge-averaged diagonal fluxes and centred cross fluxes."""
    f = np.asarray(fld, float)
    vec = f.ndim == 3
    if not vec:
        f = f[..., None]
    hu, hv = cache.hu, cache.hv
    au, av, cuv = cache.au[..., None], cache.av[..., None], cache.cuv[..., None]

    def central(g, axis, h):
        return (np.roll(g, -1, axis=axis) - np.roll(g, 1, axis=axis)) / (2 * h)

    out = (
        au * (np.roll(f, -1, axis=0) - f) - np.roll(au, 1, axis=0) * (f - np.roll(f, 1, axis=0))
    ) / hu**2
    out += (
        av * (np.roll(f, -1, axis=1) - f) - np.roll(av, 1, axis=1) * (f - np.roll(f, 1, axis=1))
    ) / hv**2
    out += central(cuv * central(f, 1, hv), 0, hu) + central(cuv * central(f, 0, hu), 1, hv)

    out /= cache.sqrt_det_g[..., None]
    return out if vec else out[..., 0]


def test_matrix_matches_pointwise_operator(perturbed64):
    # odd and non-square grids put every wrap-around of the stencil
    # pattern next to a different neighbour
    for c in (
        perturbed64,
        cache_for("clifford", 16, R=1.0, r=1.0),
        cache_for("custom-expression", 48, **SHEAR),
        compute_geometry(scenario("perturbed-complex-torus", 5, 9, eps=0.05)),
        compute_geometry(scenario("lagrangian-graph", 7, 4, eps=0.1)),
    ):
        a, w = laplacian_matrix(c)
        assert abs(a - a.T).max() == 0.0
        rng = np.random.default_rng(2)
        x = rng.standard_normal(a.shape[0])
        shape = c.sqrt_det_g.shape
        rhs = -(w * rolled_laplace_beltrami(x.reshape(shape), c).ravel())
        assert np.abs(a @ x - rhs).max() < 1e-12
        assert x @ (a @ x) > 0
        fields = rng.standard_normal(shape + (3,))
        diff = laplace_beltrami(fields, c) - rolled_laplace_beltrami(fields, c)
        assert np.abs(w.reshape(shape)[..., None] * diff).max() < 1e-12


def test_lambda1_matches_dense_oracle():
    # small enough for a full dense generalized solve
    c = cache_for("perturbed-complex-torus", 16, eps=0.05)
    a, w = laplacian_matrix(c)
    dense = sla.eigh(a.toarray(), np.diag(w), eigvals_only=True)
    assert abs(dense[0]) < 1e-10                   # constants
    res = lambda1(c)
    assert abs(res.lambda1 - dense[1]) < 1e-9


def test_lambda1_flat_symbol_error(flat64):
    res = lambda1(flat64)
    err = abs(res.lambda1 - 1.0)
    assert 5e-4 < err < 1.2e-3                     # h^2/12 = 8.03e-4
    fine = lambda1(cache_for("flat-plane-torus", 128))
    assert 3.5 < err / abs(fine.lambda1 - 1.0) < 4.5


def test_lambda1_eigenfunction_invariants(flat64):
    res = lambda1(flat64)
    w = flat64.node_area()
    assert abs((res.vector * w).sum()) < 1e-8
    assert abs((res.vector**2 * w).sum() - 1) < 1e-8
    assert res.lambda1 > 0
    assert res.residual <= 1e-7 * max(1.0, res.lambda1)
    assert res.iterations < 50


def test_lambda1_stops_within_its_rule_relative_to_lambda1():
    # the perturbed torus eps 0.3 scaled by 0.1: lambda1 = 95.40, and the
    # residual 2.21e-6 that lambda1 stops at is above an absolute RESIDUAL_TOL
    # but within its own rule, RESIDUAL_TOL x lambda1 = 9.54e-6
    scaled = dict(exprs=["0.1*u", "0.1*v", "0.03*sin(u)", "0.03*sin(v)"], periods=[0.2 * np.pi] * 4)
    res = lambda1(cache_for("custom-expression", 32, **scaled))
    assert res.lambda1 == pytest.approx(95.40, abs=0.01)
    assert RESIDUAL_TOL < res.residual <= RESIDUAL_TOL * res.lambda1


def test_lambda1_clifford_exact():
    # the induced metric is the flat square torus; edge weights cancel
    # the symbol defect entirely
    res = lambda1(cache_for("clifford", 64, R=1.0, r=1.0))
    assert abs(res.lambda1 - 1.0) < 1e-9


def test_lambda1_rectangular_torus():
    res = lambda1(cache_for("flat-plane-torus", 64, Lv=2 * TWO_PI))
    assert abs(res.lambda1 - 0.25) < 3e-4          # 2.01e-4 measured


def test_lambda1_sheared_torus():
    res = lambda1(cache_for("custom-expression", 64, **SHEAR))
    assert abs(res.lambda1 - 1.0) < 1.2e-3


def test_lambda1_scaling_invariance():
    # metric g -> c^2 g sends lambda1 -> lambda1 / c^2, exactly
    small = lambda1(cache_for("clifford", 48, R=1.0, r=1.0))
    large = lambda1(cache_for("clifford", 48, R=2.0, r=2.0))
    assert abs(4 * large.lambda1 - small.lambda1) < 1e-9


def test_lambda1_deterministic(perturbed64):
    r1, r2 = lambda1(perturbed64), lambda1(perturbed64)
    assert r1.lambda1 == r2.lambda1
    assert np.array_equal(r1.vector, r2.vector)
    assert 0.99 < r1.lambda1 < 1.0                 # 0.99795 measured


@pytest.mark.parametrize("name, n, params", [
    ("lagrangian-graph", 64, dict(eps=0.3)),       # 5 iterations
    ("perturbed-complex-torus", 32, dict(eps=0.05)),
])
def test_lambda1_qr_matches_numpy_qr(monkeypatch, name, n, params):
    # the economic LAPACK QR on an F-ordered buffer gives numpy's QR bit for bit
    def outcome(res):
        return res.lambda1, res.iterations, res.residual, res.vector.tobytes()

    cache = cache_for(name, n, **params)
    fast = outcome(lambda1(cache))
    monkeypatch.setattr(sla, "qr", lambda a, **kw: np.linalg.qr(a))
    assert outcome(lambda1(cache)) == fast


def test_lambda1_grid_tables_are_read_only_and_exact():
    # the start block and the Fourier factors are cached per grid size;
    # each equals its formula evaluated afresh on the grid's param_axes
    nu, nv = 40, 24
    uu, vv = scenario("flat-plane-torus", nu, nv).param_axes()
    block = np.stack(
        [np.cos(uu).ravel(), np.sin(vv).ravel(), np.cos(uu + 2 * vv).ravel(),
         np.sin(2 * uu - vv).ravel()],
        axis=1,
    )
    tu = 2 * np.pi * np.fft.fftfreq(nu)[:, None]
    tv = 2 * np.pi * np.fft.rfftfreq(nv)[None, :]
    fresh = [block, 2 - 2 * np.cos(tu), 2 - 2 * np.cos(tv), np.sin(tu), np.sin(tv)]
    cached = [spectral._start_block(nu, nv), *spectral._fft_factors(nu, nv)]
    assert spectral._start_block(nu, nv) is cached[0]
    for got, expect in zip(cached, fresh):
        assert not got.flags.writeable
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def test_lambda1_grid_tables_do_not_leak_between_grids():
    # 32^2, then 40 x 24, then 32^2 on warm tables: each result is the
    # one computed with the tables built afresh for its grid
    def outcome(cache):
        res = lambda1(cache)
        return res.lambda1, res.iterations, res.residual, res.vector.tobytes()

    square = cache_for("perturbed-complex-torus", 32, eps=0.05)
    oblong = compute_geometry(scenario("perturbed-complex-torus", 40, 24, eps=0.05))
    cold = {}
    for key, cache in (("square", square), ("oblong", oblong)):
        spectral._start_block.cache_clear()
        spectral._fft_factors.cache_clear()
        cold[key] = outcome(cache)
    for key, cache in (("square", square), ("oblong", oblong), ("square", square)):
        assert outcome(cache) == cold[key], key


def inverse_iteration_reference(cache, rtol=1e-10, residual_tol=1e-7):
    """Reference: shifted inverse iteration on the same 4-column start
    block, one sparse LU of A + gamma W and a Rayleigh-Ritz step per
    sweep.  Returns (lambda1, iterations)."""
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
    for iteration in range(1, 10_000):
        y = orthonormalize(lu.solve(w[:, None] * x))
        small = y.T @ (a @ y)
        theta, rot = sla.eigh(0.5 * (small + small.T))
        y = y @ rot
        lam = float(theta[0])
        r = a @ y[:, 0] - lam * (w * y[:, 0])
        residual = float(np.sqrt((r * r / w).sum()))
        if (
            abs(lam - lam_prev) <= rtol * max(abs(lam), 1e-30)
            and residual <= residual_tol * max(1.0, abs(lam))
        ):
            return lam, iteration
        lam_prev, x = lam, y
    raise AssertionError("reference inverse iteration did not converge")


SPECTRAL_SCENARIOS = {
    f"{key}-{n}": (name, n, params)
    for n in (32, 64)
    for key, name, params in (
        ("flat", "flat-plane-torus", {}),
        ("clifford", "clifford", dict(R=1.0, r=1.0)),
        ("perturbed", "perturbed-complex-torus", dict(eps=0.05)),
        ("lagrangian", "lagrangian-graph", dict(eps=0.1)),
    )
}
SPECTRAL_SCENARIOS["rectangular-64"] = ("flat-plane-torus", 64, dict(Lv=2 * TWO_PI))
SPECTRAL_SCENARIOS["sheared-48"] = ("custom-expression", 48, SHEAR)


@pytest.mark.parametrize("key", sorted(SPECTRAL_SCENARIOS))
def test_lambda1_matches_inverse_iteration_reference(key):
    name, n, params = SPECTRAL_SCENARIOS[key]
    c = cache_for(name, n, **params)
    ref, ref_iterations = inverse_iteration_reference(c)
    res = lambda1(c)
    assert abs(res.lambda1 - ref) <= 1e-12 * ref
    assert res.iterations <= ref_iterations
    a, w = laplacian_matrix(c)
    v = res.vector.ravel()
    r = a @ v - res.lambda1 * (w * v)
    assert res.residual == pytest.approx(np.sqrt((r * r / w).sum()), rel=1e-6, abs=1e-15)
    assert res.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("name, params", [
    ("flat-plane-torus", {}),
    ("perturbed-complex-torus", dict(eps=0.05)),
])
def test_lambda1_stall_raises(monkeypatch, name, params):
    # a residual tolerance of zero is never met, so every sweep runs,
    # including those after the block has lost rank
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 6)
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericalError, match="eigensolver stalled after 6 iterations") as exc:
        lambda1(cache_for(name, 32, **params))
    assert "nan" not in str(exc.value)


def thin_cylinder(r, n=32):
    # a circle of radius r times the u-circle in T^4: the metric is constant,
    # so the preconditioner is exact, and lambda1 is the u-circle's
    # (2 - 2 cos h) / h^2; the pencil's norm grows as 1 / r^2
    exprs = ["u", "0*u", f"{r!r}*cos(v)", f"{r!r}*sin(v)"]
    return compute_geometry(scenario("custom-expression", n, n, exprs=exprs, periods=[TWO_PI] * 4))


def test_lambda1_thin_cylinder_converges():
    h = TWO_PI / 32
    res = lambda1(thin_cylinder(1e-3))
    assert abs(res.lambda1 - (2 - 2 * np.cos(h)) / h**2) <= 1e-9
    assert res.iterations > 5


@pytest.mark.parametrize("r", [3e-4, 1e-4])
def test_lambda1_stops_at_its_roundoff_floor(r):
    # the residual's floor, eps times the pencil's norm, sits above
    # RESIDUAL_TOL: the solve ends once its best residual stops halving,
    # not after MAX_ITERATIONS sweeps
    with pytest.raises(NumericalError, match="residual stopped falling") as exc:
        lambda1(thin_cylinder(r))
    sweep = int(re.search(r"at sweep (\d+):", str(exc.value)).group(1))
    best = float(re.search(r"the best, (\S+) at sweep", str(exc.value)).group(1))
    assert STALL_SWEEPS < sweep <= 200
    assert RESIDUAL_TOL < best < 1e-3


def test_ball_volumes_flat(flat64):
    rep = geodesic_ball_volumes(flat64)
    assert rep.radius == 0.5 and type(rep.radius) is float
    assert [s[0] for s in rep.samples] == list(default_ball_centers(flat64))
    assert default_ball_centers(flat64)[0] == (0, 0) and len(rep.samples) == 16
    ratios = [s[3] for s in rep.samples]
    # 8-neighbor Dijkstra overestimates distances by up to 8% in the
    # worst direction, shrinking the measured disk by ~10%
    assert 0.88 < rep.kappa / np.pi < 0.92
    assert max(ratios) - min(ratios) < 1e-9        # homogeneous surface
    assert rep.samples[0][1] == 0.5
    assert rep.samples[0][2] == pytest.approx(rep.kappa * 0.25)


def test_ball_volumes_clifford():
    rep = geodesic_ball_volumes(cache_for("clifford", 64, R=1.0, r=1.0))
    assert 0.88 < rep.kappa / np.pi < 0.92


def test_ball_volumes_small_radius_limit():
    # ratio -> pi as r -> 0; needs resolution, so one coarse-to-fine point
    rep = geodesic_ball_volumes(cache_for("flat-plane-torus", 256), radius=0.1)
    mean = np.mean([s[3] for s in rep.samples])
    assert abs(mean / np.pi - 1.0) < 0.1           # 0.94 measured


HOSTILE_RADII = {
    # NaN slipped past `r <= 0` and gave kappa = nan
    "radius must be finite": (np.nan, np.inf, -np.inf),
    "radius must be positive": (-0.5, 0.0, -0.0, 0),
    # a string, a nested list or a sequence with None used to escape as a
    # bare TypeError or ValueError; a sequence is refused, one radius is read
    "radius must be a real number": (
        "x", "0.5", True, False, None, [0.5], [0.3, 0.5], [0.5, np.nan], [[0.5]], [], (0.5,),
        np.array([0.5]), np.array(0.5),
    ),
}


def test_ball_volumes_validation(flat64):
    with pytest.raises(InputError, match="radius-too-large"):
        geodesic_ball_volumes(flat64, radius=3.0)
    # the ball volumes and the validator refuse a radius through one check
    sigma = np.zeros(flat64.sqrt_det_g.shape)
    for message, radii in HOSTILE_RADII.items():
        for radius in radii:
            with pytest.raises(InputError, match=message) as balls:
                geodesic_ball_volumes(flat64, radius=radius)
            with pytest.raises(InputError) as validator:
                c0_from_l2_validator(sigma, 0.0, flat64, radius=radius)
            assert str(balls.value) == str(validator.value)


def counting_chord_graph(monkeypatch):
    """Count the chord graphs geodesic_ball_volumes builds: one per memo miss."""
    built = []

    def counted(cache):
        built.append(cache)
        return _chord_graph(cache)

    monkeypatch.setattr(spectral, "_chord_graph", counted)
    return built


def test_ball_volumes_memo_matches_a_cold_cache(monkeypatch):
    def fresh():
        return cache_for("perturbed-complex-torus", 48, eps=0.05)

    warm = fresh()
    built = counting_chord_graph(monkeypatch)
    cases = [dict(), dict(radius=0.3), dict(radius=1.0)]
    for kw in cases:
        first = geodesic_ball_volumes(warm, **kw)
        again = geodesic_ball_volumes(warm, **kw)
        assert again is first, kw
        cold = geodesic_ball_volumes(fresh(), **kw)
        assert repr(again) == repr(cold) and again == cold, kw
    # each case missed once on the warm cache and once on its cold twin
    assert len(built) == 2 * len(cases)
    # the key is the float radius, whatever its type
    assert geodesic_ball_volumes(warm, np.float64(0.3)) is geodesic_ball_volumes(warm, 0.3)
    assert geodesic_ball_volumes(warm, 1) is geodesic_ball_volumes(warm, radius=1.0)
    assert len(built) == 2 * len(cases)


def test_ball_volumes_memo_keeps_no_error(monkeypatch, flat64):
    rep = geodesic_ball_volumes(flat64)
    built = counting_chord_graph(monkeypatch)
    for _ in range(2):
        with pytest.raises(InputError, match="radius-too-large"):
            geodesic_ball_volumes(flat64, radius=3.0)
        with pytest.raises(InputError, match="radius must be finite"):
            geodesic_ball_volumes(flat64, radius=np.nan)
    # the oversized radius built its graph each time, the bad input none
    assert len(built) == 2
    assert geodesic_ball_volumes(flat64) is rep


def test_replaced_cache_starts_with_an_empty_memo(monkeypatch):
    c = cache_for("perturbed-complex-torus", 32, eps=0.05)
    geodesic_ball_volumes(c)
    built = counting_chord_graph(monkeypatch)
    moved = dataclasses.replace(c, f_uu=2 * c.f_uu)
    assert moved._memo == {} and c._memo != {}
    assert geodesic_ball_volumes(moved) == geodesic_ball_volumes(c)
    assert len(built) == 1 and built[0] is moved


def unbounded_ball_volumes(cache, radius=0.5):
    """Reference: full-grid Dijkstra from every default center, and the
    proxy taken over every reachable node of the first search."""
    radius = float(radius)
    centers = default_ball_centers(cache)
    flat = [i * cache.grid.nv + j for i, j in centers]
    dist = csgraph.dijkstra(_chord_graph(cache), directed=False, indices=flat)
    proxy = float(dist[0][np.isfinite(dist[0])].max())
    if radius > 0.5 * proxy:
        raise InputError(f"radius-too-large: {radius} exceeds half the diameter proxy {proxy:.3f}")
    w = cache.node_area().ravel()
    samples = []
    for k, center in enumerate(centers):
        vol = float(w[dist[k] <= radius].sum())
        samples.append((center, radius, vol, vol / radius**2))
    return CollapseReport(min(s[3] for s in samples), radius, tuple(samples))


def ball_outcome(fn, cache, radius):
    try:
        return fn(cache, radius)
    except InputError as exc:
        return ("raised", str(exc))


BALL_SCENARIOS = {
    "clifford": ("clifford", 64, dict(R=1.0, r=1.0)),
    "flat": ("flat-plane-torus", 64, {}),
    "perturbed": ("perturbed-complex-torus", 64, dict(eps=0.05)),
    "lagrangian": ("lagrangian-graph", 64, dict(eps=0.1)),
    "sheared": ("custom-expression", 48, SHEAR),
}


@pytest.mark.parametrize("key", sorted(BALL_SCENARIOS))
def test_ball_volumes_match_unbounded_search(key):
    name, n, params = BALL_SCENARIOS[key]
    c = cache_for(name, n, **params)
    full = csgraph.dijkstra(_chord_graph(c), directed=False, indices=0)
    attained = float(full[full <= 0.5].max())      # a node sits exactly at r
    half_proxy = 0.5 * float(full.max())
    radii = [0.1, 0.3, 0.5, 1.5, attained, np.nextafter(half_proxy, 0.0), half_proxy]
    for radius in radii + [np.nextafter(half_proxy, np.inf)]:
        got = ball_outcome(geodesic_ball_volumes, c, radius)
        assert got == ball_outcome(unbounded_ball_volumes, c, radius), radius
    assert ball_outcome(geodesic_ball_volumes, c, half_proxy)[0] != "raised"
    raised = ball_outcome(geodesic_ball_volumes, c, np.nextafter(half_proxy, np.inf))
    assert raised[0] == "raised" and "radius-too-large" in raised[1]


def test_validator_sine_field(flat64):
    uu, _ = flat64.grid.param_axes()
    sigma = 1e-3 * np.sin(uu)
    rep = c0_from_l2_validator(sigma, 1.1e-3, flat64)
    assert rep.holds
    assert rep.max_observed == pytest.approx(1e-3, rel=1e-6)
    assert 0.02 < rep.bound < 0.08                 # 0.0398 measured
    assert rep.epsilon == pytest.approx(2 * np.pi**2 * 1e-6, rel=1e-6)


def test_validator_enforces_preconditions(flat64):
    uu, _ = flat64.grid.param_axes()
    sigma = 1e-3 * np.sin(uu)
    with pytest.raises(PreconditionError, match="lipschitz-violated"):
        c0_from_l2_validator(sigma, 5e-4, flat64)
    with pytest.raises(PreconditionError, match="epsilon-too-large"):
        c0_from_l2_validator(sigma, 1.1e-3, flat64, radius=0.05)
    with pytest.raises(InputError, match="shape"):
        c0_from_l2_validator(np.zeros((8, 8)), 1.0, flat64)
    # each used to return a report: nan bounds, and inf lam held vacuously
    for lam in (np.nan, np.inf):
        with pytest.raises(InputError, match="lam must be finite"):
            c0_from_l2_validator(sigma, lam, flat64)
    spoiled = sigma.copy()
    spoiled[5, 9] = np.nan
    with pytest.raises(InputError, match=r"sigma must be finite, got nan at node \(5, 9\)"):
        c0_from_l2_validator(spoiled, 1.1e-3, flat64)
    for radius in (np.nan, np.inf):
        with pytest.raises(InputError, match="radius must be finite"):
            c0_from_l2_validator(sigma, 1.1e-3, flat64, radius=radius)
    # a string used to escape as a bare TypeError
    for lam in ("1", None):
        with pytest.raises(InputError, match="lam must be a real number"):
            c0_from_l2_validator(sigma, lam, flat64)
    with pytest.raises(InputError, match="radius must be a real number"):
        c0_from_l2_validator(sigma, 1.1e-3, flat64, radius="0.5")
    # radius 0 used to read as epsilon-too-large
    for radius in (0.0, -0.5):
        with pytest.raises(InputError, match="radius must be positive"):
            c0_from_l2_validator(sigma, 1.1e-3, flat64, radius=radius)


def test_validator_random_bandlimited_fields():
    # the lemma must hold for any admissible field; the validator's kappa
    # is the only estimated quantity, so a sweep cross-checks it
    c = cache_for("flat-plane-torus", 48)
    uu, vv = c.grid.param_axes()
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        sigma = np.zeros_like(uu)
        for _ in range(6):
            m, n = rng.integers(-4, 5, size=2)
            amp = 1e-4 * rng.standard_normal()
            sigma += amp * np.cos(m * uu + n * vv + rng.uniform(0, TWO_PI))
        hu = c.hu
        du = (np.roll(sigma, -1, 0) - np.roll(sigma, 1, 0)) / (2 * hu)
        dv = (np.roll(sigma, -1, 1) - np.roll(sigma, 1, 1)) / (2 * hu)
        lam = float(np.sqrt((du**2 + dv**2).max()))
        rep = c0_from_l2_validator(sigma, lam * (1 + 1e-9), c)
        assert rep.holds
