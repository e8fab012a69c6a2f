"""Discrete geometry of periodic immersions: metric, curvatures, Laplacian.

Oracle policy: closed-form values (flat metrics, product tori, Fourier
symbols) are derived by hand in the comments next to each assertion;
grid-dependent error levels were measured once at the stated resolution
and frozen with a margin, together with a refinement ratio that pins the
convergence order.
"""

import json

import numpy as np
import pytest

from hkflow.errors import InputError, IOFailure, NumericalError
from hkflow.kernel import AmbientSpace, phi_field, standard_twistor_triple
from hkflow.surface import (
    build_immersion,
    compute_geometry,
    dirichlet_energy_density,
    gauss_curvature_check,
    laplace_beltrami,
    load_snapshot,
    save_snapshot,
    scenario,
    surface_integral,
)

TWO_PI = 2.0 * np.pi
# constant shear, g_uv = 1/2, det g = 1; closes over x0-period pi
SHEARED = dict(exprs=["u + 0.5*v", "v", "0*u", "0*u"], periods=[np.pi, TWO_PI, TWO_PI, TWO_PI])


def cache_for(name, n, **params):
    return compute_geometry(build_immersion(scenario(name, n, n, **params)))


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


def test_laplacian_fourier_modes(flat64):
    uu, vv = flat64.grid.param_axes()
    # symbol error h^2/12 per direction: 8.03e-4 at 64^2
    err1 = np.abs(laplace_beltrami(np.sin(uu), flat64) + np.sin(uu)).max()
    assert 5e-4 < err1 < 1e-3
    f2 = np.sin(uu) * np.sin(vv)
    err2 = np.abs(laplace_beltrami(f2, flat64) + 2 * f2).max()
    assert err2 < 2e-3
    assert np.abs(laplace_beltrami(np.ones((64, 64)), flat64)).max() < 1e-13

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


def test_energy_density_is_the_quadratic_form(perturbed48):
    # integral of the edge-form density must equal -<f, Lap f>_W exactly,
    # scalar and vector fields alike
    c = perturbed48
    rng = np.random.default_rng(5)
    w = c.node_area()
    for shape in [w.shape, w.shape + (3,)]:
        f = rng.standard_normal(shape)
        lhs = surface_integral(dirichlet_energy_density(f, c), c)
        wt = w[..., None] if f.ndim == 3 else w
        rhs = -np.sum(f * laplace_beltrami(f, c) * wt)
        assert lhs >= 0
        assert abs(lhs - rhs) < 1e-10 * max(lhs, 1.0)


def test_surface_integral_trig(flat64):
    uu, _ = flat64.grid.param_axes()
    # uniform grid sums sin^2 exactly: n/2 per row
    assert abs(surface_integral(np.sin(uu) ** 2, flat64) - 2 * np.pi**2) < 1e-9


def test_mean_curvature_is_metric_trace(perturbed48):
    c = perturbed48
    htrace = np.einsum("...ij,...aij->...a", c.ginv, c.h)
    rebuilt = htrace[..., 0, None] * c.e3 + htrace[..., 1, None] * c.e4
    assert np.abs(rebuilt - c.H).max() < 1e-12


def test_frames_orthonormal_oriented(perturbed48):
    c = perturbed48
    frame = np.stack([c.e1, c.e2, c.e3, c.e4], axis=-2)
    gram = np.einsum("...ik,...jk->...ij", frame, frame)
    assert np.abs(gram - np.eye(4)).max() < 1e-10
    assert np.linalg.det(frame).min() > 0.99
    # metric Gram-Schmidt rows are orthonormal for g, not for the chords
    ggs = np.einsum("...ik,...kl,...jl->...ij", c.gs, c.g, c.gs)
    assert np.abs(ggs - np.eye(2)).max() < 1e-11


@pytest.mark.parametrize(
    "name, params",
    [
        ("perturbed-complex-torus", {"eps": 0.05}),
        ("clifford", {"R": 1.0, "r": 1.0}),
        ("lagrangian-graph", {"eps": 0.2}),
        ("custom-expression", SHEARED),
    ],
)
def test_normal_frame_is_adapted_to_the_phase(name, params):
    # e3 = J_b e1, e4 = J_b e2 for the tangent phase a_d = <J_d e1, e2>
    # and its companion b, written out with the triple's matrices
    c = cache_for(name, 48, **params)
    js = standard_twistor_triple().as_stack()
    a = np.stack([((c.e1 @ j.T) * c.e2).sum(-1) for j in js], axis=-1)
    b = phi_field(a / np.linalg.norm(a, axis=-1, keepdims=True))
    j_b = sum(b[..., d, None, None] * js[d] for d in range(3))
    assert np.abs(c.e3 - np.einsum("...kl,...l->...k", j_b, c.e1)).max() < 1e-14
    assert np.abs(c.e4 - np.einsum("...kl,...l->...k", j_b, c.e2)).max() < 1e-14


def test_non_finite_node_is_named():
    grid = build_immersion(scenario("perturbed-complex-torus", 16, 16, eps=0.05))
    grid.positions[3, 5, 2] = np.nan
    with pytest.raises(NumericalError, match=r"non-finite position at node \(3, 5\)") as err:
        compute_geometry(grid)
    assert "folding" not in str(err.value)


def test_nan_metric_fails_the_det_floor():
    # finite positions whose squared edges overflow: det g = inf * inf - inf
    grid = build_immersion(
        scenario("custom-expression", 16, 16, exprs=["1e200*(u + v)", "1e200*v", "0*u", "0*u"])
    )
    with pytest.raises(NumericalError, match="metric-degenerate"), np.errstate(all="ignore"):
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
        build_immersion(scenario("moebius", 16, 16))
    with pytest.raises(InputError, match="grid too small"):
        build_immersion(scenario("flat-plane-torus", 3, 16))
    with pytest.raises(InputError, match="eps"):
        build_immersion(scenario("perturbed-complex-torus", 16, 16, eps=-0.1))
    with pytest.raises(InputError, match="positive radii"):
        build_immersion(scenario("clifford", 16, 16, R=0.0))
    with pytest.raises(InputError, match="positive periods"):
        build_immersion(scenario("flat-plane-torus", 16, 16, Lu=-1.0))
    with pytest.raises(InputError, match="4 strings"):
        build_immersion(scenario("custom-expression", 16, 16, exprs=["u"]))
    with pytest.raises(InputError, match="cannot evaluate"):
        build_immersion(
            scenario("custom-expression", 16, 16, exprs=["__import__('os')", "v", "u", "v"])
        )


def test_custom_expression_matches_direct_numpy():
    # the expression walker must reproduce plain numpy arithmetic bit for bit
    n = 48
    periods = [np.pi, TWO_PI, TWO_PI, TWO_PI]
    grid = build_immersion(
        scenario(
            "custom-expression", n, n,
            exprs=["u + 0.5*v", "v", "0*u", "0*u"], periods=periods,
        )
    )
    h = TWO_PI / n
    u = np.arange(n)[:, None] * h * np.ones((1, n))
    v = np.ones((n, 1)) * np.arange(n)[None, :] * h
    expect = AmbientSpace(tuple(periods)).wrap(np.stack([u + 0.5 * v, v, 0 * u, 0 * u], -1))
    assert np.array_equal(grid.positions, expect)


def test_degenerate_metric_detected():
    # collapses the v-direction entirely
    grid = build_immersion(
        scenario("custom-expression", 16, 16, exprs=["cos(u)", "sin(u)", "0*u", "0*u"])
    )
    with pytest.raises(NumericalError, match="metric-degenerate"):
        compute_geometry(grid)


def test_laplacian_shape_mismatch(flat64):
    with pytest.raises(InputError, match="shape"):
        laplace_beltrami(np.zeros((8, 8)), flat64)


def test_snapshot_roundtrip(tmp_path):
    grid = build_immersion(scenario("perturbed-complex-torus", 16, 16, eps=0.03))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_snapshot(grid, p1)
    back = load_snapshot(p1)
    assert np.array_equal(back.positions, grid.positions)
    assert back.ambient.periods == grid.ambient.periods
    save_snapshot(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(InputError, match="not valid JSON"):
        load_snapshot(bad)

    grid = build_immersion(scenario("flat-plane-torus", 8, 8))
    good = tmp_path / "good.json"
    save_snapshot(grid, good)
    doc = json.loads(good.read_text())

    missing = dict(doc)
    del missing["periods"]
    (tmp_path / "m.json").write_text(json.dumps(missing))
    with pytest.raises(InputError, match="missing field"):
        load_snapshot(tmp_path / "m.json")

    short = dict(doc, positions=doc["positions"][:5])
    (tmp_path / "s.json").write_text(json.dumps(short))
    with pytest.raises(InputError, match="expected"):
        load_snapshot(tmp_path / "s.json")

    nan = dict(doc, positions=[float("nan")] * (8 * 8 * 4))
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
