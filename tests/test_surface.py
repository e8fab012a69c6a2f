"""Discrete geometry of periodic immersions: metric, curvatures, Laplacian.

Oracle policy: closed-form values (flat metrics, product tori, Fourier
symbols) are derived by hand in the comments next to each assertion;
grid-dependent error levels were measured once at the stated resolution
and frozen with a margin, together with a refinement ratio that pins the
convergence order.
"""

import dataclasses
import functools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import snapshot_positions, with_positions
from twistor_oracle import apply_phase, companion, twistor_stack

from hkflow import flow, surface
from hkflow.cli import _run_checks, main
from hkflow.errors import InputError, IOFailure, NumericalError
from hkflow.flow import FlowConfig, run_flow
from hkflow.kernel import AmbientSpace, TwistorTriple, _dot, standard_twistor_triple
from hkflow.phase import (
    bja_identity, field_from_array, phase_field, plf_residual, tension_field, twistor_energy,
)
from hkflow.spectral import c0_from_l2_validator, lambda1
from hkflow.surface import (
    GeometryCache,
    SurfaceGrid,
    _central,
    _lam_min,
    _planes,
    _shift,
    compute_geometry,
    dirichlet_energy_density,
    gauss_curvature_check,
    laplace_beltrami,
    laplacian_matrix,
    load_snapshot,
    save_snapshot,
    scenario,
    surface_integral,
)

TWO_PI = 2.0 * np.pi
# constant shear, g_uv = 1/2, det g = 1; closes over x0-period pi
SHEARED = dict(exprs=["u + 0.5*v", "v", "0*u", "0*u"], periods=[np.pi, TWO_PI, TWO_PI, TWO_PI])
# a graph in T^4 whose normal curvature [h3, h4] is not zero, unlike the named scenarios
TWISTED = dict(exprs=["u", "v", "0.3*sin(u)*cos(v)", "0.3*sin(v)"], periods=[TWO_PI] * 4)


def node_major_geometry(grid):
    """Reference: the geometry core written node-major, (nu, nv, 4) vectors
    reduced over their last axis and J_d applied as the matrix product
    vec @ J_d^T.  Returns the GeometryCache fields by name (guards omitted)
    and the paper's frame, which the cache does not build: the normals
    e3 = J_b e1, e4 = J_b e2 adapted to the tangent phase a and its
    companion b, the metric Gram-Schmidt rows gs and the second fundamental
    form h[..., alpha, i, j] = <f_ij, e_{3+alpha}> in those normals."""
    pos, hu, hv, amb = grid.positions, grid.hu, grid.hv, grid.ambient
    js = twistor_stack()

    def central(f, axis, h):
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)

    def unit(x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    du_f = amb.displacement(pos, np.roll(pos, -1, axis=0))
    dv_f = amb.displacement(pos, np.roll(pos, -1, axis=1))
    du_b, dv_b = np.roll(du_f, 1, axis=0), np.roll(dv_f, 1, axis=1)
    f_u, f_v = (du_f + du_b) / (2 * hu), (dv_f + dv_b) / (2 * hv)
    f_uu, f_vv = (du_f - du_b) / hu**2, (dv_f - dv_b) / hv**2
    f_uv = central(f_u, 1, hv)

    g = np.empty(pos.shape[:2] + (2, 2))
    g[..., 0, 0] = 0.5 * ((du_f**2).sum(-1) + (du_b**2).sum(-1)) / hu**2
    g[..., 1, 1] = 0.5 * ((dv_f**2).sum(-1) + (dv_b**2).sum(-1)) / hv**2
    g[..., 0, 1] = g[..., 1, 0] = (f_u * f_v).sum(-1)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    ginv = np.empty_like(g)
    ginv[..., 0, 0] = g[..., 1, 1] / det
    ginv[..., 1, 1] = g[..., 0, 0] / det
    ginv[..., 0, 1] = ginv[..., 1, 0] = -g[..., 0, 1] / det
    sqrt_det_g = np.sqrt(det)

    e1 = unit(f_u)
    e2 = unit(f_v - (f_v * e1).sum(-1, keepdims=True) * e1)
    ell = np.sqrt(g[..., 1, 1] - g[..., 0, 1] ** 2 / g[..., 0, 0])
    gs = np.zeros(pos.shape[:2] + (2, 2))
    gs[..., 0, 0] = 1.0 / np.sqrt(g[..., 0, 0])
    gs[..., 1, 0] = -g[..., 0, 1] / (g[..., 0, 0] * ell)
    gs[..., 1, 1] = 1.0 / ell

    a = unit(np.stack([((e1 @ j.T) * e2).sum(-1) for j in js], axis=-1))
    b = companion(a)
    e3, e4 = apply_phase(b, e1), apply_phase(b, e2)
    h = np.empty(pos.shape[:2] + (2, 2, 2))
    for alpha, n in enumerate((e3, e4)):
        h[..., alpha, 0, 0] = (f_uu * n).sum(-1)
        h[..., alpha, 0, 1] = h[..., alpha, 1, 0] = (f_uv * n).sum(-1)
        h[..., alpha, 1, 1] = (f_vv * n).sum(-1)

    trace = (
        ginv[..., 0, 0, None] * f_uu + 2 * ginv[..., 0, 1, None] * f_uv
        + ginv[..., 1, 1, None] * f_vv
    )
    big_h = (
        trace - (trace * e1).sum(-1, keepdims=True) * e1
        - (trace * e2).sum(-1, keepdims=True) * e2
    )
    flux_u, flux_v = sqrt_det_g * ginv[..., 0, 0], sqrt_det_g * ginv[..., 1, 1]
    return dict(
        g=g, ginv=ginv, sqrt_det_g=sqrt_det_g, f_u=f_u, f_v=f_v, f_uu=f_uu, f_uv=f_uv,
        f_vv=f_vv, e1=e1, e2=e2, e3=e3, e4=e4, gs=gs, h=h, H=big_h,
        norm_H_sq=(big_h**2).sum(-1),
        norm_A_sq=np.einsum("...ik,...jl,...aij,...akl->...", ginv, ginv, h, h, optimize=True),
        au=0.5 * (flux_u + np.roll(flux_u, -1, axis=0)),
        av=0.5 * (flux_v + np.roll(flux_v, -1, axis=1)),
        cuv=sqrt_det_g * ginv[..., 0, 1],
        min_edge=float(
            min(np.sqrt((du_f**2).sum(-1)).min(), np.sqrt((dv_f**2).sum(-1)).min())
        ),
    )


def node_major_meters(cache, pf):
    """Reference: the pointwise algebra of the check suite written node-major
    with generic numpy, in the paper's frame of node_major_geometry.
    Returns the Brioschi Gauss defect from two stacked 3 x 3 determinants
    against the extrinsic curvature read off h, the metric eigenvalues from
    eigvalsh, the bja right-hand side with h rotated into the orthonormal
    frame by an einsum, and the paper's complex form of the mean-curvature
    formula, sqrt(2) |i_H Omega + 2 dbar w| at e1, in the basis adapted to
    a and the companion b = companion(a) (plf) or 0.6 b + 0.8 a x b
    (plf_rotated)."""
    hu, hv = cache.hu, cache.hv
    frame = node_major_geometry(cache.grid)

    def central(w, axis, h):
        return (np.roll(w, -1, axis=axis) - np.roll(w, 1, axis=axis)) / (2 * h)

    def second(w, axis, h):
        return (np.roll(w, -1, axis=axis) - 2 * w + np.roll(w, 1, axis=axis)) / h**2

    def plf(b):
        # Omega(x, y) = <J_a J_b x, y> - i <J_b x, y> and
        # w(y) = <b, a(y)> + i <a x b, a(y)>, in parameter indices; the frame
        # rows gs push both to (e1, e2), and 2 dbar w (e1) = dw(e1) - i dw(e2)
        a, axb = pf.a, np.cross(pf.a, b)
        k_h = apply_phase(b, frame["H"])
        j_k_h = apply_phase(a, k_h)
        tangents = np.stack([frame["f_u"], frame["f_v"]], -2)
        i_h_omega = ((j_k_h[..., None, :] * tangents).sum(-1)
                     - 1j * (k_h[..., None, :] * tangents).sum(-1))
        grad_a = np.stack([central(a, 0, hu), central(a, 1, hv)], -2)
        dw = (grad_a * b[..., None, :]).sum(-1) + 1j * (grad_a * axb[..., None, :]).sum(-1)
        i_h_omega, dw = (np.einsum("...ik,...k->...i", frame["gs"], x) for x in (i_h_omega, dw))
        return np.sqrt(2.0) * np.abs(i_h_omega[..., 0] + dw[..., 0] - 1j * dw[..., 1])

    h, det = frame["h"], cache.sqrt_det_g**2
    k_ext = (
        h[..., 0, 0, 0] * h[..., 0, 1, 1] - h[..., 0, 0, 1] ** 2
        + h[..., 1, 0, 0] * h[..., 1, 1, 1] - h[..., 1, 0, 1] ** 2
    ) / det
    E, F, G = cache.g[..., 0, 0], cache.g[..., 0, 1], cache.g[..., 1, 1]
    Eu, Ev, Fu, Fv = central(E, 0, hu), central(E, 1, hv), central(F, 0, hu), central(F, 1, hv)
    Gu, Gv = central(G, 0, hu), central(G, 1, hv)
    corner = -0.5 * second(E, 1, hv) + central(Fv, 0, hu) - 0.5 * second(G, 0, hu)
    m1 = np.stack([
        np.stack([corner, 0.5 * Eu, Fu - 0.5 * Ev], -1),
        np.stack([Fv - 0.5 * Gu, E, F], -1),
        np.stack([0.5 * Gv, F, G], -1),
    ], -2)
    m2 = np.stack([
        np.stack([np.zeros_like(E), 0.5 * Ev, 0.5 * Gu], -1),
        np.stack([0.5 * Ev, E, F], -1),
        np.stack([0.5 * Gu, F, G], -1),
    ], -2)
    k_int = (np.linalg.det(m1) - np.linalg.det(m2)) / det**2

    b = companion(pf.a)
    normals = [apply_phase(b, e) for e in (cache.e1, cache.e2)]
    hp = np.empty(det.shape + (2, 2, 2))
    for alpha, n in enumerate(normals):
        hp[..., alpha, 0, 0] = (cache.f_uu * n).sum(-1)
        hp[..., alpha, 0, 1] = hp[..., alpha, 1, 0] = (cache.f_uv * n).sum(-1)
        hp[..., alpha, 1, 1] = (cache.f_vv * n).sum(-1)
    horth = np.einsum("...ik,...jl,...akl->...aij", frame["gs"], frame["gs"], hp)
    x = horth[..., 0, 1, :] - horth[..., 1, 0, :]
    y = horth[..., 0, 0, :] + horth[..., 1, 1, :]
    return dict(
        gauss=np.abs(k_int - k_ext), gauss_scale=np.abs(k_int).max() + np.abs(k_ext).max(),
        eig=np.linalg.eigvalsh(cache.g), bja_rhs=4.0 * ((x**2).sum(-1) + (y**2).sum(-1)),
        plf=plf(b), plf_rotated=plf(0.6 * b + 0.8 * np.cross(pf.a, b)),
    )


def cache_for(name, n, **params):
    return compute_geometry(scenario(name, n, n, **params))


@pytest.fixture(scope="module")
def flat64():
    return cache_for("flat-plane-torus", 64)


@pytest.fixture(scope="module")
def clifford64():
    return cache_for("clifford", 64, R=1.0, r=1.0)


@pytest.fixture(scope="module")
def perturbed48():
    return cache_for("perturbed-complex-torus", 48, eps=0.05)


@pytest.fixture(scope="module")
def sheared64():
    return cache_for("custom-expression", 64, **SHEARED)


def test_flat_torus_metric_is_exact(flat64):
    c = flat64
    assert np.abs(c.g[..., 0, 0] - 1).max() < 1e-12
    assert np.abs(c.g[..., 1, 1] - 1).max() < 1e-12
    assert np.abs(c.g[..., 0, 1]).max() < 1e-12
    assert np.abs(c.sqrt_det_g - 1).max() < 1e-12
    assert c.norm_H_sq.max() < 1e-26
    assert c.norm_A_sq.max() < 1e-26
    area = surface_integral(np.ones((64, 64)), c)
    assert abs(area - TWO_PI**2) < 1e-9


def test_shift_is_roll():
    # the periodic shift moves data only: equal to np.roll on every axis, for
    # contiguous arrays and transposed views, and composed for tuple shifts
    rng = np.random.default_rng(5)
    fields = [rng.standard_normal((5, 7)), rng.standard_normal((4, 5, 7)),
              rng.standard_normal((5, 7, 3)).transpose(2, 0, 1), rng.standard_normal((7, 5)).T]
    for f in fields:
        for axis in range(-f.ndim, f.ndim):
            for k in (-1, 1, 0, 3, -9):
                assert np.array_equal(_shift(f, k, axis), np.roll(f, k, axis=axis))
        for k in ((1, 1), (1, -1), (-1, 2)):
            both = _shift(_shift(f, k[0], -2), k[1], -1)
            assert np.array_equal(both, np.roll(f, k, axis=(-2, -1)))


def test_flat_torus_seam_wrap():
    # stretched torus: positions cross the period seam, metric must not notice
    c = cache_for("flat-plane-torus", 32, Lu=2 * TWO_PI)
    assert np.abs(c.g[..., 0, 0] - 4.0).max() < 1e-12
    area = surface_integral(np.ones((32, 32)), c)
    assert abs(area - 2 * TWO_PI**2) < 1e-9


def test_clifford_curvatures_exact(clifford64):
    # product of two unit circles: |H|^2 = |A|^2 = 2 pointwise; the
    # finite-difference symbol cancels against the edge metric exactly
    c = clifford64
    assert np.abs(c.norm_H_sq - 2.0).max() < 1e-10
    assert np.abs(c.norm_A_sq - 2.0).max() < 1e-10
    assert gauss_curvature_check(c).max() < 1e-10


def test_clifford_area_closed_form(clifford64):
    # every u- and v-edge is a chord of a unit circle, so the discrete
    # area carries the factor sinc^2(h/2) relative to 4 pi^2
    h = TWO_PI / 64
    area = surface_integral(np.ones((64, 64)), clifford64)
    assert abs(area - TWO_PI**2 * np.sinc(h / (2 * np.pi)) ** 2) < 1e-9
    assert 0.02 < TWO_PI**2 - area < 0.04


def test_laplacian_fourier_modes(flat64, perturbed48, sheared64):
    uu, vv = flat64.grid.param_axes()
    # symbol error h^2/12 per direction: 8.03e-4 at 64^2
    err1 = np.abs(laplace_beltrami(np.sin(uu), flat64) + np.sin(uu)).max()
    assert 5e-4 < err1 < 1e-3
    f2 = np.sin(uu) * np.sin(vv)
    err2 = np.abs(laplace_beltrami(f2, flat64) + 2 * f2).max()
    assert err2 < 2e-3
    assert np.abs(laplace_beltrami(np.ones((64, 64)), flat64)).max() < 1e-13
    # each row's diagonal closes the sum in the product's own order
    for c in (perturbed48, sheared64, cache_for("lagrangian-graph", 48, eps=0.1)):
        a, _ = laplacian_matrix(c)
        assert np.all(a @ np.ones(a.shape[0]) == 0.0)
        assert np.all(laplace_beltrami(np.ones(c.sqrt_det_g.shape + (3,)), c) == 0.0)
        a.sort_indices()            # scipy may reorder one matrix in place ...
        b, _ = laplacian_matrix(c)  # ... and the next one keeps its own order
        assert abs(b - a).max() == 0.0
        assert np.all(b @ np.ones(b.shape[0]) == 0.0)

    c128 = cache_for("flat-plane-torus", 128)
    u2, _ = c128.grid.param_axes()
    err1_fine = np.abs(laplace_beltrami(np.sin(u2), c128) + np.sin(u2)).max()
    assert 3.5 < err1 / err1_fine < 4.5


def test_laplacian_sheared_metric(sheared64):
    c = sheared64
    assert np.abs(c.g[..., 0, 1] - 0.5).max() < 1e-12
    assert np.abs(c.sqrt_det_g - 1.0).max() < 1e-12
    assert c.norm_H_sq.max() < 1e-24
    _, vv = c.grid.param_axes()
    # lowest eigenmode of the sheared metric is still sin(v)
    err = np.abs(laplace_beltrami(np.sin(vv), c) + np.sin(vv)).max()
    assert err < 1e-3


# g^-1 = [[1.25, -0.5], [-0.5, 1]], so the plane waves along the diagonals
# read the cross flux with either sign: the O(h^2) errors are 1.4e-3 and
# 5.0e-3 at 64^2, and a mirrored cross flux gives about 2 on each
@pytest.mark.parametrize("sign, k", [(1, 1.25), (-1, 3.25)])
def test_laplacian_sheared_metric_diagonal_waves(sheared64, sign, k):
    uu, vv = sheared64.grid.param_axes()
    f = np.cos(uu + sign * vv)
    assert np.abs(laplace_beltrami(f, sheared64) + k * f).max() < 1e-2


def test_laplacian_self_adjoint_and_negative(perturbed48, sheared64):
    rng = np.random.default_rng(11)
    for c in (perturbed48, sheared64):
        w = c.node_area()
        x, y = rng.standard_normal((2,) + w.shape)
        lx, ly = laplace_beltrami(x, c), laplace_beltrami(y, c)
        asym = abs(np.sum(x * ly * w) - np.sum(y * lx * w))
        scale = max(abs(np.sum(x * ly * w)), 1.0)
        assert asym < 1e-11 * scale
        assert -np.sum(x * lx * w) > -1e-12


def test_surface_integral_trig(flat64):
    uu, _ = flat64.grid.param_axes()
    # uniform grid sums sin^2 exactly: n/2 per row
    assert abs(surface_integral(np.sin(uu) ** 2, flat64) - 2 * np.pi**2) < 1e-9


def test_mean_curvature_is_metric_trace(perturbed48):
    # the cache's gauge-free H against the trace of h in the paper's frame
    c, ref = perturbed48, node_major_geometry(perturbed48.grid)
    htrace = np.einsum("...ij,...aij->...a", c.ginv, ref["h"])
    rebuilt = htrace[..., 0, None] * ref["e3"] + htrace[..., 1, None] * ref["e4"]
    assert np.abs(rebuilt - c.H).max() < 1e-12


def test_frames_orthonormal_oriented(perturbed48):
    # the cache's tangent pair completed by the paper's normals
    c, ref = perturbed48, node_major_geometry(perturbed48.grid)
    frame = np.stack([c.e1, c.e2, ref["e3"], ref["e4"]], axis=-2)
    gram = np.einsum("...ik,...jk->...ij", frame, frame)
    assert np.abs(gram - np.eye(4)).max() < 1e-10
    assert np.linalg.det(frame).min() > 0.99
    # metric Gram-Schmidt rows are orthonormal for g, not for the chords
    ggs = np.einsum("...ik,...kl,...jl->...ij", ref["gs"], c.g, ref["gs"])
    assert np.abs(ggs - np.eye(2)).max() < 1e-11


@pytest.mark.parametrize(
    "name, params",
    [
        ("perturbed-complex-torus", {"eps": 0.05}),
        ("clifford", {"R": 1.0, "r": 1.0}),
        ("lagrangian-graph", {"eps": 0.2}),
        ("custom-expression", SHEARED),
        ("custom-expression", TWISTED),
    ],
)
def test_normal_frame_is_adapted_to_the_phase(name, params):
    # the paper's frame: e3 = J_b e1, e4 = J_b e2 for the tangent phase
    # a_d = <J_d e1, e2> and its companion b, written out with the triple's
    # matrices; then the twistor relations J_a e1 = e2 and J_a e3 = -e4,
    # which phase_field relies on and does not re-verify
    c = cache_for(name, 48, **params)
    e3, e4 = (node_major_geometry(c.grid)[key] for key in ("e3", "e4"))
    js = twistor_stack()
    a = np.stack([((c.e1 @ j.T) * c.e2).sum(-1) for j in js], axis=-1)
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    b = companion(a)
    j_a, j_b = (sum(x[..., d, None, None] * js[d] for d in range(3)) for x in (a, b))
    assert np.abs(e3 - np.einsum("...kl,...l->...k", j_b, c.e1)).max() < 1e-14
    assert np.abs(e4 - np.einsum("...kl,...l->...k", j_b, c.e2)).max() < 1e-14
    assert np.abs(np.einsum("...kl,...l->...k", j_a, c.e1) - c.e2).max() < 1e-14
    assert np.abs(np.einsum("...kl,...l->...k", j_a, e3) + e4).max() < 1e-14


def test_non_finite_node_is_named():
    grid = scenario("perturbed-complex-torus", 16, 16, eps=0.05)
    grid.positions[3, 5, 2] = np.nan
    with pytest.raises(NumericalError, match=r"non-finite position at node \(3, 5\)") as err:
        compute_geometry(grid)
    assert "folding" not in str(err.value)


@pytest.mark.parametrize("exprs, det", [
    # squared edges overflow: det g = inf * inf - inf
    (["1e200*(u + v)", "1e200*v", "0*u", "0*u"], "nan"),
    # finite squared edges whose product overflows at some nodes only
    (["u", "v", "1e155*sin(u)**8", "0*u"], "inf"),
])
def test_non_finite_metric_fails_the_det_floor(exprs, det):
    # finite positions; the first node whose det g is not finite is named, with
    # no RuntimeWarning, which the suite turns into an error
    grid = scenario("custom-expression", 8, 8, exprs=exprs)
    message = rf"metric-degenerate at node \(0, 0\): det g = {det} is not finite, \(g_uu"
    with pytest.raises(NumericalError, match=message):
        compute_geometry(grid)


def test_gauss_residual_refines_second_order():
    vals = {}
    for n in (32, 64, 128):
        c = cache_for("lagrangian-graph", n, eps=0.2)
        vals[n] = gauss_curvature_check(c).max()
    assert vals[64] < 1.1e-3           # 7.64e-4 measured
    assert 3.3 < vals[32] / vals[64] < 4.7
    assert 3.3 < vals[64] / vals[128] < 4.7


def test_scenario_validation():
    with pytest.raises(InputError, match="unknown scenario"):
        scenario("moebius", 16, 16)
    with pytest.raises(InputError, match="grid too small"):
        scenario("flat-plane-torus", 3, 16)
    # int() floored 8.7 to 8, and NaN and inf escaped as ValueError and OverflowError
    for size in (8.7, 8.0, np.nan, np.inf, True):
        with pytest.raises(InputError, match=re.escape(f"grid size nv must be an integer, got {size!r}")):
            scenario("flat-plane-torus", 8, size)
    assert type(scenario("flat-plane-torus", np.int64(8), 8).nu) is int
    assert scenario("clifford", 8, 8, R=np.float32(2.0)).positions[0, 0, 0] == 2.0
    for periods in ([1.0, 2.0, 3.0, 4.0], (1.0, 2.0, 3.0, 4.0), np.array([1.0, 2.0, 3.0, 4.0])):
        grid = scenario("custom-expression", 8, 8, exprs=["u", "v", "0*u", "0*u"], periods=periods)
        assert grid.ambient.periods == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(InputError, match="eps"):
        scenario("perturbed-complex-torus", 16, 16, eps=-0.1)
    with pytest.raises(InputError, match="positive radii"):
        scenario("clifford", 16, 16, R=0.0)
    with pytest.raises(InputError, match="positive radii"):
        scenario("clifford", 16, 16, R=np.nan)
    with pytest.raises(InputError, match="positive periods"):
        scenario("flat-plane-torus", 16, 16, Lu=-1.0)
    with pytest.raises(InputError, match="positive periods"):
        scenario("flat-plane-torus", 16, 16, Lu=np.nan)
    with pytest.raises(InputError, match="4 strings"):
        scenario("custom-expression", 16, 16, exprs=["u"])
    with pytest.raises(InputError, match="cannot evaluate"):
        scenario("custom-expression", 16, 16, exprs=["__import__('os')", "v", "u", "v"])


def test_oversized_grid_is_refused_before_allocation():
    # the nine-point CSR pattern is indexed by int32: 9 * nu * nv entries at most
    huge = int("9" * 400)
    tracemalloc.start()
    try:
        for nu, nv in ((huge, 8), (2**16, 2**16)):
            with pytest.raises(InputError, match=f"grid too large: nu={nu}, nv={nv}"):
                scenario("flat-plane-torus", nu, nv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _flat_oracle(u, v, Lu=TWO_PI, Lv=TWO_PI):
    return [Lu * u / (2 * np.pi), Lv * v / (2 * np.pi), 0 * u, 0 * u], (Lu, Lv, TWO_PI, TWO_PI)


def _clifford_oracle(u, v, R=1.0, r=1.0):
    return [R * np.cos(u), R * np.sin(u), r * np.cos(v), r * np.sin(v)], None


def _perturbed_oracle(u, v, eps=0.05):
    return [u, v, eps * np.sin(u), eps * np.sin(v)], (TWO_PI,) * 4


def _lagrangian_oracle(u, v, eps=0.1):
    return [u, v, eps * np.cos(u) * np.sin(v), -eps * np.sin(u) * np.cos(v)], (TWO_PI,) * 4


def _sheared_oracle(u, v, exprs, periods):
    return [u + 0.5 * v, v, 0 * u, 0 * u], tuple(periods)


def assert_matches_oracle(name, params, oracle, nu, nv):
    grid = scenario(name, nu, nv, **params)
    u = np.arange(nu)[:, None] * (TWO_PI / nu) * np.ones((1, nv))
    v = np.ones((nu, 1)) * np.arange(nv)[None, :] * (TWO_PI / nv)
    coords, periods = oracle(u, v, **params)
    expect = AmbientSpace(periods).wrap(np.stack(coords, -1))
    assert grid.positions.tobytes() == expect.tobytes()
    assert grid.ambient.periods == periods


def test_custom_expression_matches_direct_numpy():
    # the expression walker must reproduce plain numpy arithmetic bit for bit
    assert_matches_oracle("custom-expression", SHEARED, _sheared_oracle, 48, 48)


@pytest.mark.parametrize("nu, nv", [(8, 8), (48, 24), (5, 9), (128, 128)])
@pytest.mark.parametrize("name, params, oracle", [
    ("flat-plane-torus", {}, _flat_oracle),
    ("flat-plane-torus", {"Lu": 3.0, "Lv": 9.5}, _flat_oracle),
    ("clifford", {}, _clifford_oracle),
    ("clifford", {"R": 1.5, "r": 0.75}, _clifford_oracle),
    ("perturbed-complex-torus", {}, _perturbed_oracle),
    ("perturbed-complex-torus", {"eps": 0.3}, _perturbed_oracle),
    ("lagrangian-graph", {}, _lagrangian_oracle),
    ("lagrangian-graph", {"eps": 0.25}, _lagrangian_oracle),
])
def test_named_scenarios_match_direct_numpy(name, params, oracle, nu, nv):
    # each named scenario is a table row read by the same walker; its
    # closed-form numpy, defaults and one other parameter set, is the oracle
    assert_matches_oracle(name, params, oracle, nu, nv)


@pytest.mark.parametrize("name, params, message", [
    pytest.param(
        "custom-expression", {"exprs": ["u", "sqrt(-1-u)", "0*u", "0*u"]},
        "coordinate 1 'sqrt(-1-u)' of 'custom-expression' is not finite at node (0, 0)",
        id="sqrt",
    ),
    pytest.param(
        "custom-expression", {"exprs": ["u", "v", "1/(u - pi)", "0*u"]},
        "coordinate 2 '1/(u - pi)' of 'custom-expression' is not finite at node (4, 0)",
        id="pole",
    ),
    pytest.param(
        "custom-expression", {"exprs": ["u", "v", "(-1)**0.5", "0*u"]},
        "coordinate 2 '(-1)**0.5' of 'custom-expression' is not finite at node (0, 0)",
        id="complex-power",
    ),
    pytest.param(
        "clifford", {"R": np.inf},
        "coordinate 0 'R*cos(u)' of 'clifford' is not finite at node (0, 0)", id="R-inf",
    ),
    pytest.param("clifford", {"R": np.nan}, "clifford needs positive radii", id="R-nan"),
    pytest.param(
        "lagrangian-graph", {"eps": np.inf},
        "coordinate 2 'eps*cos(u)*sin(v)' of 'lagrangian-graph' is not finite at node (0, 0)",
        id="eps-inf",
    ),
])
def test_non_finite_coordinate_is_refused_by_name(name, params, message):
    # numpy's warnings are silenced inside the walker; the refusal names the
    # coordinate, its expression, the scenario and the first bad node
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as err:
            scenario(name, 8, 8, **params)
    assert message in str(err.value)


def test_degenerate_metric_detected():
    # collapses the v-direction entirely
    grid = scenario("custom-expression", 16, 16, exprs=["cos(u)", "sin(u)", "0*u", "0*u"])
    with pytest.raises(NumericalError, match="metric-degenerate"):
        compute_geometry(grid)


def test_degenerate_node_is_named():
    # zeroing the second coordinate of the flat torus collapses every
    # v-edge; the node prints as plain integers
    grid = scenario("flat-plane-torus", 16, 16)
    grid.positions[..., 1] = 0.0
    with pytest.raises(NumericalError, match=r"metric-degenerate at node \(0, 0\): det g"):
        compute_geometry(grid)


@pytest.mark.parametrize("axis, message", [
    (0, r"f_u = \[0\. 0\. 0\. 0\.\], f_v = \[\S"),
    (1, r"f_u = \[\S.*\], f_v = \[0\. 0\. 0\. 0\.\]"),
])
def test_vanishing_central_tangent_is_named(axis, message):
    # nodes alternate along one axis between two parallel unit circles:
    # every edge is long, so the edge-metric det floor passes, but the
    # central tangent F(k+1) - F(k-1) along that axis is zero everywhere
    t = TWO_PI * np.arange(16) / 16
    pos = np.zeros((16, 16, 4))
    pos[..., 0], pos[..., 1] = np.cos(t), np.sin(t)
    pos[..., 2] = 0.5 * (np.arange(16) % 2)[:, None]
    if axis == 1:
        pos = pos.transpose(1, 0, 2).copy()
    grid = SurfaceGrid(16, 16, pos, AmbientSpace(None))
    match = r"tangent-degenerate at node \(0, 0\): " + message
    with warnings.catch_warnings(), pytest.raises(NumericalError, match=match):
        warnings.simplefilter("error")        # no division warning first
        compute_geometry(grid)


def test_laplacian_shape_mismatch(flat64):
    with pytest.raises(InputError, match="shape"):
        laplace_beltrami(np.zeros((8, 8)), flat64)


def validator(sigma, cache):
    return c0_from_l2_validator(sigma, 1.0, cache)


@pytest.mark.parametrize("call, value, message", [
    pytest.param(validator, 1e-4j * np.ones((16, 16)),
                 "sigma must hold real numbers, got complex128 entries", id="validator-complex"),
    pytest.param(validator, np.full((16, 16), "0"),
                 "sigma must hold real numbers, got <U1 entries", id="validator-str"),
    pytest.param(validator, np.ones((16, 16, 1)),
                 "sigma shape (16, 16, 1) does not match the grid", id="validator-shape"),
    pytest.param(field_from_array, 1j * np.ones((16, 16, 3)),
                 "phase array must hold real numbers, got complex128 entries", id="phase-complex"),
    pytest.param(field_from_array, np.full((16, 16, 3), "1"),
                 "phase array must hold real numbers, got <U1 entries", id="phase-str"),
    pytest.param(dirichlet_energy_density, 1j * np.ones((16, 16)),
                 "field must hold real numbers, got complex128 entries", id="density-complex"),
    pytest.param(dirichlet_energy_density, np.ones((8, 8)),
                 "field shape (8, 8) does not match the grid", id="density-shape"),
    pytest.param(dirichlet_energy_density, np.ones((16, 16, 3, 1)),
                 "field shape (16, 16, 3, 1) does not match the grid", id="density-ndim"),
    pytest.param(laplace_beltrami, [[1j] * 16] * 16,
                 "field must hold real numbers, got [[1j", id="laplacian-complex-list"),
])
def test_a_grid_array_not_of_real_numbers_or_the_grid_shape_is_refused(call, value, message):
    # a complex array was cast to its real part with only a ComplexWarning
    # (the validator then certified 1e-4j with bound 0.0), and strings and a
    # mismatched shape escaped as a bare ValueError
    with pytest.raises(InputError, match=re.escape(message)):
        call(value, cache_for("flat-plane-torus", 16))


def test_snapshot_roundtrip(tmp_path):
    grid = scenario("perturbed-complex-torus", 16, 16, eps=0.03)
    pos = grid.positions.copy()
    pos[0, 0, 2], pos[3, 5, 1] = -0.0, 5e-324          # a signed zero and a subnormal
    grid = SurfaceGrid(16, 16, pos, grid.ambient)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_snapshot(grid, p1)
    assert json.loads(p1.read_text())["version"] == 2
    back = load_snapshot(p1)
    assert back.positions.tobytes() == pos.tobytes()
    assert back.positions.dtype == np.float64
    assert back.positions.flags.c_contiguous and back.positions.flags.writeable
    assert back.ambient.periods == grid.ambient.periods
    save_snapshot(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_version_1_still_loads(tmp_path):
    grid = scenario("clifford", 8, 8, R=1.0, r=1.0)
    save_snapshot(grid, tmp_path / "v2.json")
    v1 = {"version": 1, "nu": 8, "nv": 8, "periods": None,
          "positions": grid.positions.ravel().tolist()}
    (tmp_path / "v1.json").write_text(json.dumps(v1))
    old, new = load_snapshot(tmp_path / "v1.json"), load_snapshot(tmp_path / "v2.json")
    assert old.positions.tobytes() == new.positions.tobytes() == grid.positions.tobytes()
    assert old.ambient.periods == new.ambient.periods is None


def test_malformed_version_1_snapshot_is_refused(tmp_path, capsys):
    # version 1 was only ever written as a flat list (positions.reshape(-1).tolist())
    grid = scenario("flat-plane-torus", 8, 8)
    flat = grid.positions.ravel().tolist()
    v1 = {"version": 1, "nu": 8, "nv": 8, "periods": list(grid.ambient.periods),
          "positions": flat}
    spoiled = flat.copy()
    spoiled[5] = True
    hostile = [
        ("'positions' is not a flat list of numbers: entry 0 is list",
         {**v1, "positions": grid.positions.reshape(64, 4).tolist()}),
        ("'positions' is not a flat list of numbers: entry 5 is bool", {**v1, "positions": spoiled}),
        ("'periods' is not a flat list of numbers: entry 0 is bool",
         {**v1, "periods": [True, 1, 1, 1]}),
        ("'periods' must be null or a list of numbers, got int", {**v1, "periods": 1}),
    ]
    bad = tmp_path / "bad.json"
    for message, doc in hostile:
        bad.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=message):
            load_snapshot(bad)
        assert main(["check", str(bad)]) == 2, message
        assert message in capsys.readouterr().err
    # periods take the same rule under version 2
    save_snapshot(grid, bad)
    doc = json.loads(bad.read_text())
    bad.write_text(json.dumps({**doc, "periods": [True, 1, 1, 1]}))
    with pytest.raises(InputError, match="'periods' is not a flat list of numbers"):
        load_snapshot(bad)
    # a valid flat version-1 document still loads bit for bit
    bad.write_text(json.dumps(v1))
    back = load_snapshot(bad)
    assert back.positions.tobytes() == grid.positions.tobytes()
    assert back.ambient.periods == grid.ambient.periods


def test_hostile_snapshot_positions_exit_2(tmp_path, capsys):
    good = tmp_path / "good.json"
    save_snapshot(scenario("flat-plane-torus", 8, 8), good)
    doc = json.loads(good.read_text())
    pos = snapshot_positions(doc)
    spoiled = pos.copy()
    spoiled[9] = np.nan
    hostile = [
        ("not base64", {**doc, "positions": "@@not base64@@"}),
        ("2046 bytes", {**doc, "positions": doc["positions"][:-4]}),
        ("expected 256 coordinates, got 252", with_positions(doc, pos[:-4])),
        ("non-finite", with_positions(doc, spoiled)),
        ("base64 text under version 2, got list", {**doc, "positions": pos.tolist()}),
        ("list under version 1, got str", {**doc, "version": 1}),
    ]
    bad = tmp_path / "bad.json"
    for message, bad_doc in hostile:
        bad.write_text(json.dumps(bad_doc))
        assert main(["check", str(bad)]) == 2, message
        err = capsys.readouterr().err
        assert err.startswith("validation failure:") and "'positions'" in err, err
        assert message in err, err


def test_snapshot_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(InputError, match="not valid JSON"):
        load_snapshot(bad)

    grid = scenario("flat-plane-torus", 8, 8)
    good = tmp_path / "good.json"
    save_snapshot(grid, good)
    doc = json.loads(good.read_text())

    missing = dict(doc)
    del missing["periods"]
    (tmp_path / "m.json").write_text(json.dumps(missing))
    with pytest.raises(InputError, match="missing field"):
        load_snapshot(tmp_path / "m.json")

    short = with_positions(doc, snapshot_positions(doc)[:5])
    (tmp_path / "s.json").write_text(json.dumps(short))
    with pytest.raises(InputError, match="expected"):
        load_snapshot(tmp_path / "s.json")

    nan = with_positions(doc, [float("nan")] * (8 * 8 * 4))
    (tmp_path / "n.json").write_text(json.dumps(nan, allow_nan=True))
    with pytest.raises(InputError, match="non-finite"):
        load_snapshot(tmp_path / "n.json")

    versioned = dict(doc, version=99)
    (tmp_path / "v.json").write_text(json.dumps(versioned))
    with pytest.raises(InputError, match="version"):
        load_snapshot(tmp_path / "v.json")

    with pytest.raises(IOFailure):
        load_snapshot(tmp_path / "absent.json")
    with pytest.raises(IOFailure):
        save_snapshot(grid, tmp_path / "no" / "such" / "dir" / "x.json")


def test_node_area_definition(perturbed48):
    c = perturbed48
    assert np.array_equal(c.node_area(), c.sqrt_det_g * c.hu * c.hv)


NORMAL_CORE = ["f_uv", "H", "norm_H_sq", "norm_A_sq"]
# the paper's frame of node_major_geometry, which the cache does not hold
ORACLE_FRAME = ("e3", "e4", "gs", "h")


def test_array_holding_types_compare_by_identity():
    # two instances built alike hold equal but distinct arrays: == answers a
    # bool instead of asking an array for its truth value, the frozen types
    # hash, and dataclasses.replace still builds a new instance
    grid = scenario("perturbed-complex-torus", 8, 8, eps=0.3)
    cache = compute_geometry(grid)
    triple = standard_twistor_triple()
    builds = [
        lambda: SurfaceGrid(8, 8, grid.positions.copy(), grid.ambient),
        lambda: compute_geometry(grid),
        lambda: phase_field(cache),
        lambda: flow.make_state(grid),
        lambda: TwistorTriple(triple.j1.copy(), triple.j2.copy(), triple.j3.copy()),
    ]
    for build in builds:
        x, y = build(), build()
        assert (x == y) is False and (x != y) is True and (x == x) is True
        twin = dataclasses.replace(x)
        assert type(twin) is type(x) and twin is not x and (twin == x) is False
    assert hash(triple) == hash(triple) and triple in {triple}


def test_cache_arrays_are_read_only(perturbed48):
    # a memoized report must not drift from the arrays it was computed from
    c = perturbed48
    eager = [f.name for f in dataclasses.fields(GeometryCache) if f.type is np.ndarray]
    cached = [k for k, v in vars(GeometryCache).items() if isinstance(v, functools.cached_property)]
    assert cached == ["_core", *NORMAL_CORE, "metric_spacing"]
    lazy = [k for k in cached if isinstance(getattr(c, k), np.ndarray)]
    assert lazy == NORMAL_CORE
    for name in eager + lazy:
        arr = getattr(c, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            _planes(arr, arr.ndim - 2)[(0,) * arr.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr += 0.0
    # every array the cache holds, once all of them were read
    assert sorted(eager + lazy) == sorted(
        k for k, v in vars(c).items() if isinstance(v, np.ndarray))


def counting_cores(monkeypatch):
    """The caches whose normal core is built, one entry per build."""
    built = []

    def counted(cache, build=surface._normal_core):
        built.append(cache)
        return build(cache)

    monkeypatch.setattr(surface, "_normal_core", counted)
    return built


def test_the_normal_core_is_built_once_on_first_read(monkeypatch):
    built = counting_cores(monkeypatch)
    c = cache_for("perturbed-complex-torus", 16, eps=0.05)
    assert built == []
    core = {name: getattr(c, name) for name in NORMAL_CORE}
    assert built == [c]
    assert all(getattr(c, name) is arr for name, arr in core.items())
    assert built == [c]

    # a replaced cache builds its own core, once, from whichever field is read first
    fresh = dataclasses.replace(c)
    assert np.array_equal(fresh.f_uv, c.f_uv)
    assert built == [c, fresh]
    assert np.array_equal(fresh.norm_A_sq, c.norm_A_sq)
    assert built == [c, fresh]


def test_check_builds_the_normal_core_once(monkeypatch):
    built = counting_cores(monkeypatch)
    c = cache_for("perturbed-complex-torus", 16, eps=0.05)
    _run_checks(c)
    assert built == [c]


@pytest.mark.parametrize("scheme, cadence", [("euler", 0), ("rk2", 0), ("euler", 1), ("rk2", 1)])
def test_run_flow_builds_the_normal_core_once_per_cache(monkeypatch, scheme, cadence):
    built = counting_cores(monkeypatch)
    made = []

    def counted_geometry(grid):
        made.append(compute_geometry(grid))
        return made[-1]

    monkeypatch.setattr(flow, "compute_geometry", counted_geometry)
    cfg = FlowConfig(steps=6, scheme=scheme, lambda1_cadence=3, consistency_cadence=cadence)
    series, _ = run_flow(cfg, scenario("perturbed-complex-torus", 12, 12, eps=0.3))
    assert len(series.records) == 7
    # euler makes the first cache and one per step; rk2 one more per step at the half step
    assert len(made) == (1 + 6 if scheme == "euler" else 1 + 12)
    assert sorted(map(id, built)) == sorted(map(id, made))


def test_spectrum_init_and_validator_never_build_the_normal_core(monkeypatch, tmp_path):
    built = counting_cores(monkeypatch)
    monkeypatch.chdir(tmp_path)
    stem = "perturbed-complex-torus-16x16"
    assert main(["init", "--scenario", "perturbed-complex-torus", "--nu", "16", "--nv", "16"]) == 0
    assert main(["spectrum", f"{stem}.snapshot.json", "--eigenfunction", "ef.json"]) == 0
    c = compute_geometry(load_snapshot(tmp_path / f"{stem}.snapshot.json"))
    lam = lambda1(c).lambda1
    u, _ = c.grid.param_axes()
    assert c0_from_l2_validator(1e-4 * np.sin(u), lam, c).holds
    assert built == []


# odd and non-square grids put every roll and reindexing next to a different neighbour
ORACLE_GRIDS = pytest.mark.parametrize("nu, nv", [(32, 32), (5, 9), (7, 4)])
ORACLE_SURFACES = pytest.mark.parametrize(
    "name, params",
    [
        ("perturbed-complex-torus", {"eps": 0.05}),
        ("clifford", {"R": 1.0, "r": 1.0}),
        ("flat-plane-torus", {}),
        ("flat-plane-torus", {"Lu": 2 * TWO_PI, "Lv": 0.5 * TWO_PI}),
        ("lagrangian-graph", {"eps": 0.1}),
        ("custom-expression", SHEARED),
        ("custom-expression", TWISTED),
    ],
)


@ORACLE_GRIDS
@ORACLE_SURFACES
def test_plane_core_matches_node_major_oracle(name, params, nu, nv):
    # all fields but |A|^2 come out bit for bit, also with every node moved
    # off the sampled surface, so no two edges share a length: g's diagonal
    # and min_edge read squared forward edges once, against the oracle's
    # recomputed backward squares and its least edge length
    sampled = scenario(name, nu, nv, **params)
    jitter = 0.02 * np.random.default_rng(nu * nv).standard_normal(sampled.positions.shape)
    jittered = SurfaceGrid(nu, nv, sampled.ambient.wrap(sampled.positions + jitter),
                           sampled.ambient)
    for grid in (sampled, jittered):
        cache, ref = compute_geometry(grid), node_major_geometry(grid)
        for key, want in ref.items():
            if key in ORACLE_FRAME:
                continue
            got = getattr(cache, key)
            assert np.shape(got) == np.shape(want), key
            if key != "norm_A_sq":
                assert np.array_equal(got, want), key
        # |A|^2 is a closed-form trace instead of the contraction
        scale = np.abs(ref["norm_A_sq"]).max()
        assert np.abs(cache.norm_A_sq - ref["norm_A_sq"]).max() <= 1e-14 * scale


@ORACLE_GRIDS
@ORACLE_SURFACES
def test_pointwise_closed_forms_match_node_major_oracle(name, params, nu, nv):
    # the closed forms on planes against generic numpy in the paper's frame:
    # equal up to the rounding of a different evaluation order, so the
    # gauge-free Gauss, bja and plf forms are the frame forms
    cache = compute_geometry(scenario(name, nu, nv, **params))
    pf = phase_field(cache)
    ref = node_major_meters(cache, pf)
    checks = {c["name"]: c for c in _run_checks(cache)}

    lam, eig = _lam_min(_planes(cache.g, 2)), ref["eig"]
    assert np.all(np.abs(lam - eig[..., 0]) <= 1e-15 * eig[..., 1])

    # zero scale (constant metric, flat frame) demands exact zeros on both sides
    gauss_tol = 1e-13 * ref["gauss_scale"]
    assert np.abs(gauss_curvature_check(cache) - ref["gauss"]).max() <= gauss_tol
    assert abs(checks["gauss-curvature"]["measured"] - ref["gauss"].max()) <= gauss_tol

    lhs, rhs, _ = bja_identity(cache, pf)
    bja_tol = 1e-14 * ref["bja_rhs"].max()
    assert np.abs(rhs - ref["bja_rhs"]).max() <= bja_tol
    assert abs(checks["bja-identity"]["measured"] - np.abs(lhs - ref["bja_rhs"]).max()) <= bja_tol

    # the companion-free vector form is the complex form under either
    # companion; the floor is roundoff on terms of the size of |A|, which
    # Clifford's machine-zero residual at 32^2 (7.6e-16 apart) needs
    plf = plf_residual(cache, pf)
    plf_tol = 1e-13 * ref["plf"].max() + 1e-14 * np.sqrt(cache.norm_A_sq.max())
    for key in ("plf", "plf_rotated"):
        assert np.abs(plf - ref[key]).max() <= plf_tol, key
        assert abs(checks["plf-identity"]["measured"] - ref[key].max()) <= plf_tol, key


def one_piece_energy_density(fld, cache):
    """Reference: dirichlet_energy_density in one piece, the differences and
    their metric weights together, as it was before the split into
    _difference_gram and _weighted_density."""
    f = np.asarray(fld, float)
    f = f[None] if f.ndim == 2 else _planes(f)
    hu, hv = cache.hu, cache.hv
    du = (_shift(f, -1, 1) - f) / hu
    dv = (_shift(f, -1, 2) - f) / hv
    e_u = cache.au * _dot(du, du)
    e_v = cache.av * _dot(dv, dv)
    density = 0.5 * (e_u + _shift(e_u, 1, 0) + e_v + _shift(e_v, 1, 1))
    density += 2.0 * cache.cuv * _dot(_central(f, 1, hu), _central(f, 2, hv))
    return density / cache.sqrt_det_g


def same_bits(x, y):
    return np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@ORACLE_GRIDS
@ORACLE_SURFACES
def test_energy_density_halves_compose_to_the_one_piece_oracle(name, params, nu, nv):
    # scalar and vector fields, node-major arrays and views of planes alike
    cache = compute_geometry(scenario(name, nu, nv, **params))
    rng = np.random.default_rng(nu * nv)
    pf = phase_field(cache)
    for f in (rng.standard_normal((nu, nv)), rng.standard_normal((nu, nv, 3)), pf.a, cache.f_u):
        assert same_bits(dirichlet_energy_density(f, cache), one_piece_energy_density(f, cache))
    assert same_bits(pf.energy_density, one_piece_energy_density(pf.a, cache))


@ORACLE_GRIDS
@ORACLE_SURFACES
def test_energy_density_is_the_quadratic_form(name, params, nu, nv):
    # the identity the density is built to satisfy, a meter and not a copy of
    # its code: the integral of the edge-form density is sum_k f_k^T A f_k over
    # the components, A = -W Lap the stiffness matrix, exactly up to rounding;
    # the phase is read through twistor_energy, and on the flat and sheared
    # tori it is constant, so both sides are 0
    cache = compute_geometry(scenario(name, nu, nv, **params))
    a, _ = laplacian_matrix(cache)
    rng = np.random.default_rng(nu * nv)
    pf = phase_field(cache)
    fields = [(pf.a, twistor_energy(pf, cache))]
    for f in (rng.standard_normal((nu, nv)), rng.standard_normal((nu, nv, 3))):
        fields.append((f, surface_integral(dirichlet_energy_density(f, cache), cache)))
    for f, energy in fields:
        f = f.reshape(nu * nv, -1)
        form = float(np.sum(f * (a @ f)))
        assert energy >= 0
        assert abs(energy - form) <= 1e-11 * energy + 1e-15, (energy, form)


@ORACLE_GRIDS
@ORACLE_SURFACES
@pytest.mark.parametrize("scheme", ["euler", "rk2"])
def test_the_mcf_step_carries_the_phase_as_it_is(name, params, nu, nv, scheme):
    state = flow.make_state(scenario(name, nu, nv, **params))
    moved = flow.mcf_step(state, flow.cfl_dt(state.cache), scheme)
    # no second normalization of a phase that is unit since its projection
    assert same_bits(moved.phase.a, state.phase.a)
    # its differences, weighted by the moved metric, are the one-piece density
    assert same_bits(moved.phase.energy_density,
                     one_piece_energy_density(state.phase.a, moved.cache))
    for pf, cache in ((state.phase, state.cache), (moved.phase, moved.cache)):
        lap = laplace_beltrami(pf.a, cache)
        assert same_bits(tension_field(pf, cache), lap + pf.energy_density[..., None] * pf.a)
