"""Phase field extraction and the pointwise identity meters.

The workhorse scenario is the product torus aligned so its phase is the
great-circle map a = (-cos(u-v), sin(u-v), 0): every meter has a closed
form there (most of them zero to machine precision, by cancellation of
the shared finite-difference symbols).  Error levels on the genuinely
curved scenarios were measured at 64^2/128^2 and frozen with margins,
with the refinement ratio asserting second order.
"""

import dataclasses

import numpy as np
import pytest

from hkflow import phase
from hkflow.errors import FrameError, PreconditionError
from hkflow.kernel import phi_field
from hkflow.phase import (
    bja_identity,
    field_from_array,
    hyper_lagrangian_residual,
    kahler_angle,
    lagrangian_angle,
    phase_field,
    plf_residual,
    polar_identity_check,
    tension_field,
    twistor_energy,
)
from hkflow.surface import (
    _planes, build_immersion, compute_geometry, laplace_beltrami, scenario, surface_integral,
)

TWO_PI = 2.0 * np.pi

# product torus with the circle factors paired so the phase sits on the
# equator of the twistor sphere (third coefficient identically zero)
EQUATOR_TORUS = ["0.7*cos(u)", "0.7*cos(v)", "0.7*sin(v)", "0.7*sin(u)"]


def cache_for(name, n, **params):
    return compute_geometry(build_immersion(scenario(name, n, n, **params)))


def equator_pair(n):
    c = cache_for("custom-expression", n, exprs=EQUATOR_TORUS)
    return c, phase_field(c)


@pytest.fixture(scope="module")
def eq64():
    return equator_pair(64)


@pytest.fixture(scope="module")
def eq128():
    return equator_pair(128)


@pytest.fixture(scope="module")
def perturbed():
    out = {}
    for n in (64, 128):
        c = cache_for("perturbed-complex-torus", n, eps=0.05)
        out[n] = (c, phase_field(c))
    return out


@pytest.fixture(scope="module")
def graph():
    out = {}
    for n in (64, 128):
        c = cache_for("lagrangian-graph", n, eps=0.2)
        out[n] = (c, phase_field(c))
    return out


def test_equator_phase_closed_form(eq64):
    c, pf = eq64
    uu, vv = c.grid.param_axes()
    exact = np.stack([-np.cos(uu - vv), np.sin(uu - vv), np.zeros_like(uu)], -1)
    assert np.abs(pf.a - exact).max() < 1e-13
    assert np.abs(np.linalg.norm(pf.a, axis=-1) - 1).max() < 1e-14
    assert np.abs(kahler_angle(pf) - np.pi / 2).max() < 1e-14


def test_flat_phase_constant():
    c = cache_for("flat-plane-torus", 32)
    pf = phase_field(c)
    assert np.abs(pf.a - np.array([-1.0, 0.0, 0.0])).max() < 1e-14
    assert twistor_energy(pf, c) < 1e-15
    assert polar_identity_check(pf, c).max() < 1e-15


def test_equator_tension_machine_zero(eq64):
    # great-circle phase of a flat product metric is discretely harmonic:
    # the Laplacian symbol matches the edge-form density symbol exactly
    c, pf = eq64
    assert np.abs(tension_field(pf, c)).max() < 1e-11


def test_twistor_energy_closed_form(eq64):
    c, pf = eq64
    h = TWO_PI / 64
    # |grad a|^2 = 2/R^2 up to the shared chord factor; the weights cancel
    # everything except sinc^2(h/2) on the 8 pi^2 total
    expected = 8 * np.pi**2 * np.sinc(h / (2 * np.pi)) ** 2
    assert abs(twistor_energy(pf, c) - expected) < 1e-9


def test_energy_agrees_with_laplacian_form(perturbed):
    c, pf = perturbed[64]
    w = c.node_area()
    byparts = -np.sum(pf.a * laplace_beltrami(pf.a, c) * w[..., None])
    e = twistor_energy(pf, c)
    assert abs(e - byparts) < 1e-10 * max(e, 1.0)


def test_lagrangian_angle_equator_torus(eq64, eq128):
    c, pf = eq64
    ang = lagrangian_angle(pf, c)
    assert ang.winding == (-1, 1)
    uu, vv = c.grid.param_axes()
    # theta = pi - (u - v) up to a 2 pi lattice shift
    dev = ang.theta - (np.pi - (uu - vv))
    dev = (dev + np.pi) % TWO_PI - np.pi
    assert np.abs(dev).max() < 1e-12
    assert ang.residual < 2e-2          # 1.43e-2 measured
    c2, pf2 = eq128
    fine = lagrangian_angle(pf2, c2)
    assert 3.4 < ang.residual / fine.residual < 4.6


def test_lagrangian_angle_graph(graph):
    c, pf = graph[64]
    assert np.abs(pf.a[..., 2]).max() < 1e-12
    ang = lagrangian_angle(pf, c)
    assert ang.winding == (0, 0)
    assert ang.residual < 6e-3          # 4.13e-3 measured
    c2, pf2 = graph[128]
    fine = lagrangian_angle(pf2, c2)
    assert 3.4 < ang.residual / fine.residual < 4.6


def test_lagrangian_angle_gate():
    # the standard embedding of the same torus has phase sweeping a full
    # great circle through the poles: not Lagrangian for this structure
    c = cache_for("clifford", 48, R=0.7, r=0.7)
    pf = phase_field(c)
    assert pf.a[..., 2].max() > 0.99
    with pytest.raises(PreconditionError, match="not-lagrangian"):
        lagrangian_angle(pf, c)


def test_mean_curvature_formula_machine_zero_on_equator(eq64, eq128):
    for c, pf in (eq64, eq128):
        assert plf_residual(c, pf).max() < 1e-11


def test_mean_curvature_formula_refines(perturbed, graph):
    for pair, lvl in ((perturbed, 4e-4), (graph, 2.5e-3)):
        c, pf = pair[64]
        coarse = plf_residual(c, pf).max()
        assert coarse < lvl
        c2, pf2 = pair[128]
        fine = plf_residual(c2, pf2).max()
        assert 3.4 < coarse / fine < 4.6


def test_mean_curvature_formula_companion_independent(perturbed, monkeypatch):
    c, pf = perturbed[64]
    b = phi_field(pf.a)
    alt = np.cross(pf.a, b)
    mix = 0.6 * b + 0.8 * alt
    base = plf_residual(c, pf)
    for other in (alt, mix):
        # plf_residual reads its companion from phase._companion, on (3, nu, nv) planes
        monkeypatch.setattr(phase, "_companion", lambda a, other=other: _planes(other))
        assert np.abs(plf_residual(c, pf) - base).max() < 1e-12


def test_frame_identity_equator(eq64):
    c, pf = eq64
    res = bja_identity(c, pf)
    assert np.abs(res.lhs - res.rhs).max() < 1e-10
    # 4 |grad a|^2 = 8 / R^2 with R = 0.7, independent of resolution
    assert abs(res.lhs.mean() - 8 / 0.49) < 1e-6
    assert np.abs(res.ratio - 1.0).max() < 1e-12


def test_frame_identity_refines(graph):
    c, pf = graph[64]
    res = bja_identity(c, pf)
    gap = np.abs(res.lhs - res.rhs).max()
    assert gap < 4e-3                   # 2.73e-3 measured
    c2, pf2 = graph[128]
    res2 = bja_identity(c2, pf2)
    assert 3.4 < gap / np.abs(res2.lhs - res2.rhs).max() < 4.6


def test_gradient_curvature_ratio_bounded(eq64, perturbed, graph):
    # |grad a| <= sqrt(2) |A| pointwise; measured maxima stay near 1.22
    ratios = []
    for c, pf in (eq64, perturbed[64], graph[64]):
        ratios.append(bja_identity(c, pf).ratio.max())
    assert max(ratios) < 1.45
    assert min(ratios) > 0.9


def test_hyper_lagrangian_residual_machine_zero(eq64, perturbed, graph):
    for c, pf in (eq64, perturbed[64], graph[64]):
        assert hyper_lagrangian_residual(c, pf).max() < 1e-14


def test_polar_identity_equator(eq64, eq128):
    c, pf = eq64
    res = polar_identity_check(pf, c)
    assert res.max() < 5e-3             # 3.28e-3 measured
    c2, pf2 = eq128
    assert 3.4 < res.max() / polar_identity_check(pf2, c2).max() < 4.6


def test_polar_identity_pole_gate():
    c = cache_for("flat-plane-torus", 16)
    pf = field_from_array(np.broadcast_to([0.0, 0.0, 1.0], (16, 16, 3)).copy(), c)
    with pytest.raises(PreconditionError, match="pole-proximity"):
        polar_identity_check(pf, c)


def test_phi_field_charts():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 10, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    b = phi_field(a)
    assert np.abs(np.linalg.norm(b, axis=-1) - 1).max() < 1e-14
    assert np.abs((a * b).sum(-1)).max() < 1e-14
    # near the third axis the z-chart degenerates and the x-chart takes over
    polar = np.array([[[0.03, 0.0, 0.999]]]) / np.linalg.norm([0.03, 0.0, 0.999])
    bp = phi_field(polar)
    expected = np.array([0.0, -polar[0, 0, 2], polar[0, 0, 1]])
    expected /= np.linalg.norm(expected)
    assert np.abs(bp[0, 0] - expected).max() < 1e-14


def test_normal_gauge_invariance(perturbed):
    c, pf = perturbed[64]
    uu, vv = c.grid.param_axes()
    gam = 0.3 + 0.2 * np.sin(uu + vv)
    cg, sg = np.cos(gam)[..., None], np.sin(gam)[..., None]
    rotated = dataclasses.replace(c, e3=cg * c.e3 + sg * c.e4, e4=-sg * c.e3 + cg * c.e4)
    pf2 = phase_field(rotated)
    assert np.array_equal(pf2.a, pf.a)


def test_tangent_rotation_invariance(perturbed):
    c, pf = perturbed[64]
    uu, vv = c.grid.param_axes()
    beta = 0.4 * np.cos(uu) + 0.1 * vv * 0
    cb, sb = np.cos(beta)[..., None], np.sin(beta)[..., None]
    rotated = dataclasses.replace(c, e1=cb * c.e1 + sb * c.e2, e2=-sb * c.e1 + cb * c.e2)
    pf2 = phase_field(rotated)
    assert np.abs(pf2.a - pf.a).max() < 1e-13


def test_phase_field_rejects_broken_frames(perturbed):
    # swapping the normals gives a mirror frame: orthonormal, but the
    # second twistor relation fails by |2 e3| at every node
    c, _ = perturbed[64]
    broken = dataclasses.replace(c, e3=c.e4, e4=c.e3)
    with pytest.raises(FrameError, match=r"node frame at \(\d+, \d+\) violates the twistor"):
        phase_field(broken)


def test_field_from_array_renormalizes(perturbed):
    c, pf = perturbed[64]
    doubled = field_from_array(2.0 * pf.a, c)
    assert np.abs(doubled.a - pf.a).max() < 1e-14
    assert np.abs(doubled.energy_density - pf.energy_density).max() < 1e-13


def test_twistor_energy_positive(graph):
    c, pf = graph[64]
    assert twistor_energy(pf, c) > 3.0   # 3.0999 measured at eps = 0.2
    assert surface_integral(pf.energy_density, c) == twistor_energy(pf, c)
