"""Acceptance slate: eight end-to-end criteria, one PASS/FAIL line each.

Each criterion prints its verdict to the real stdout (so the line shows
up even under capture) and then asserts it.  The numbered budgets are
wall-clock ceilings measured per criterion, not per test session.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import cli_env

from hkflow.errors import NumericalError
from hkflow.flow import (
    FlowConfig,
    coupled_step,
    decay_fit,
    make_state,
    run_flow,
)
from hkflow.kernel import standard_twistor_triple
from hkflow.phase import bja_identity, phase_field, plf_residual
from hkflow.spectral import c0_from_l2_validator, geodesic_ball_volumes, lambda1
from hkflow.surface import compute_geometry, gauss_curvature_check, scenario

TRIPLE = standard_twistor_triple()
TWO_PI = 2.0 * np.pi


def report(capfd, num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    # capfd.disabled() reaches the real terminal even under fd capture,
    # so the verdict line lands next to the test's own PASSED/FAILED
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def cache_for(name, n, **kw):
    return compute_geometry(scenario(name, n, n, **kw))


@pytest.fixture(scope="module")
def caches():
    out = {}
    for n in (64, 128):
        out["clifford", n] = cache_for("clifford", n, R=1.0, r=1.0)
        out["perturbed", n] = cache_for("perturbed-complex-torus", n, eps=0.05)
    return out


@pytest.fixture(scope="module")
def converged():
    """The desk-scale convergence experiment shared by criteria 5, 6 and 7.

    Criterion 7's ball-volume kappa rides on the same run: it is sampled
    at t = 0, every 500 steps and on the final state.
    """
    cfg = FlowConfig(steps=12000, lambda1_cadence=10, max_h_below=1e-6)
    steps = itertools.count()
    kappa = []

    def sample(rec, state):
        kappa.append((rec.t, geodesic_ball_volumes(state.cache, radius=0.5).kappa, rec.E_accum))

    def observe(rec, state):
        if next(steps) % 500 == 0:
            sample(rec, state)

    t0 = time.perf_counter()
    series, final = run_flow(
        cfg, scenario("perturbed-complex-torus", 64, 64, eps=0.05), observe=observe
    )
    if (len(series.records) - 1) % 500:
        sample(series.records[-1], final)
    return series, final, kappa, time.perf_counter() - t0


def test_criterion_1_kernel_exactness(capfd):
    t0 = time.perf_counter()
    js = (TRIPLE.j1, TRIPLE.j2, TRIPLE.j3)
    eye = np.eye(4)
    worst = max(
        np.abs(js[0] @ js[1] - js[2]).max(),
        np.abs(js[1] @ js[2] - js[0]).max(),
        np.abs(js[2] @ js[0] - js[1]).max(),
        max(np.abs(j @ j + eye).max() for j in js),
        max(np.abs(j.T @ j - eye).max() for j in js),
    )
    wall = time.perf_counter() - t0
    ok = worst <= 1e-12 and wall < 1.0
    report(capfd, 1, ok, f"kernel exactness: worst residual {worst:.2e} <= 1e-12, {wall:.2f}s < 1s")


def test_criterion_2_geometry_convergence(caches, capfd):
    t0 = time.perf_counter()
    h_err = {}
    lam_err = {}
    for n in (64, 128):
        h_err[n] = np.abs(caches["clifford", n].norm_H_sq - 2.0).max()
        flat = cache_for("flat-plane-torus", n)
        lam_err[n] = abs(lambda1(flat).lambda1 - 1.0)
    wall = time.perf_counter() - t0
    ok = (
        h_err[64] <= 5e-3
        and lam_err[64] <= 1e-3
        and h_err[128] <= max(h_err[64] / 3.0, 1e-9)
        and lam_err[128] <= lam_err[64] / 3.0
        and wall < 30.0
    )
    report(
        capfd,
        2,
        ok,
        f"geometry convergence: clifford |H|^2 err {h_err[64]:.2e}->{h_err[128]:.2e}, "
        f"flat lambda1 err {lam_err[64]:.2e}->{lam_err[128]:.2e} (x{lam_err[64] / lam_err[128]:.2f}), "
        f"{wall:.1f}s < 30s",
    )


def test_criterion_3_pointwise_identities(caches, capfd):
    t0 = time.perf_counter()
    meters = {}
    for key in (("clifford", 64), ("clifford", 128), ("perturbed", 64), ("perturbed", 128)):
        cache = caches[key]
        pf = phase_field(cache)
        lhs, rhs, _ = bja_identity(cache, pf)
        vals = {
            "plf": plf_residual(cache, pf).max(),
            "bja": np.abs(lhs - rhs).max(),
            "gauss": gauss_curvature_check(cache).max(),
        }
        h = TWO_PI / key[1]
        margin = (2.0 * pf.energy_density - cache.norm_H_sq).min()
        vals["hdp_ok"] = margin >= -10.0 * h**2 * cache.norm_A_sq.max()
        meters[key] = vals
    wall = time.perf_counter() - t0

    ok = wall < 120.0
    worst64 = 0.0
    for scen in ("clifford", "perturbed"):
        m64, m128 = meters[scen, 64], meters[scen, 128]
        ok = ok and m64["hdp_ok"] and m128["hdp_ok"]
        for name in ("plf", "bja", "gauss"):
            worst64 = max(worst64, m64[name])
            ok = ok and m64[name] <= 5e-3
            ok = ok and m128[name] <= max(m64[name] / 3.0, 1e-9)
    report(
        capfd,
        3,
        ok,
        f"pointwise identities: worst 64^2 residual {worst64:.2e} <= 5e-3, all order-2 "
        f"or at floor by 128^2, hdp margin >= -slack, {wall:.1f}s < 2min",
    )


def test_criterion_4_preservation_consistency(caches, capfd):
    t0 = time.perf_counter()
    state = make_state(caches["perturbed", 128].grid)
    cap = 0.25 * state.cache.metric_spacing**2
    errs = []
    for dt in (0.999 * cap, 0.4995 * cap):
        cfg = FlowConfig(dt=dt, steps=1, scheme="rk2", lambda1_cadence=1000)
        _, rec = coupled_step(state, cfg, with_consistency=True)
        errs.append(rec.consistency_error)
    ratio = errs[0] / errs[1]
    wall = time.perf_counter() - t0
    ok = 3.0 <= ratio <= 5.0 and wall < 300.0
    report(
        capfd,
        4,
        ok,
        f"frame-vs-heat preservation: per-step error {errs[0]:.2e} -> {errs[1]:.2e} "
        f"under dt halving at 128^2, ratio {ratio:.2f} in [3, 5], {wall:.1f}s < 5min",
    )


def test_criterion_5_monotonicity_suite(converged, capfd):
    series, _, _, wall = converged
    recs = series.records
    area_ok = all(b.area <= a.area * (1 + 1e-10) for a, b in zip(recs, recs[1:]))
    energy_ok = all(
        b.twistor_energy <= a.twistor_energy * (1 + 1e-12) for a, b in zip(recs, recs[1:])
    )
    a3_ok = True
    armed = False
    for a, b in zip(recs, recs[1:]):
        if a.min_a3 > 0:
            armed = True
            a3_ok = a3_ok and b.min_a3 >= a.min_a3 - 1e-8
    h = TWO_PI / 64
    mono_ok = True
    worst_efa = 0.0
    for rec in recs:
        if rec.efa_residual is None:
            continue
        tol = (2.0 * h**2 + 4.0 * 10 * rec.dt) * rec.twistor_energy + 1e-12
        worst_efa = max(worst_efa, rec.efa_residual, rec.efe_residual)
        mono_ok = mono_ok and rec.efa_residual <= tol and rec.efe_residual <= tol
    ok = area_ok and energy_ok and a3_ok and mono_ok and wall < 600.0
    report(
        capfd,
        5,
        ok,
        f"monotonicity suite: area nonincreasing {area_ok}, energy nonincreasing {energy_ok}, "
        f"min a3 clause {'held' if armed else 'vacuous (min a3 < 0 throughout)'}, "
        f"efa/efe max {worst_efa:.2e} within tol_mono, {wall:.0f}s < 10min",
    )


def test_criterion_6_convergence_experiment(converged, capfd):
    series, _, _, wall = converged
    recs = series.records
    ratio = recs[-1].twistor_energy / recs[0].twistor_energy
    lam_late = [r.lambda1 for r in recs if r.lambda1 is not None][-1]
    rate, rsq = decay_fit(series, (2.0, 4.0))
    rate_ratio = abs(rate) / (2.0 * lam_late)

    # documented failure mode: a perturbation too large for the fixed
    # step degenerates and must abort loudly instead of emitting data
    failed_loudly = False
    try:
        run_flow(
            FlowConfig(dt=2.1e-3, steps=3000, lambda1_cadence=10_000),
            scenario("perturbed-complex-torus", 48, 48, eps=1.5),
        )
    except NumericalError as exc:
        failed_loudly = "step" in str(exc)

    ok = (
        series.stop_reason == "max_H_below"
        and recs[-1].max_H < 1e-6
        and ratio < 1e-8
        and series.final_phase_spread < 1e-4
        and 1.0 <= rate_ratio <= 3.0
        and rsq > 0.999
        and failed_loudly
        and wall < 1800.0
    )
    report(
        capfd,
        6,
        ok,
        f"convergence experiment: stop {series.stop_reason} at t {recs[-1].t:.2f}, "
        f"energy ratio {ratio:.1e} < 1e-8, spread {series.final_phase_spread:.1e} < 1e-4, "
        f"decay rate {rate:.4f} = {rate_ratio:.3f} x 2 lambda1 in [1, 3], "
        f"large-eps failure aborts loudly {failed_loudly}, {wall:.0f}s < 30min",
    )


def test_criterion_7_noncollapsing_suite(converged, capfd):
    _, final_state, samples, wall = converged
    t0 = time.perf_counter()
    kappa0 = samples[0][1]
    kappa_ok = all(k >= kappa0 * np.exp(-3.0 * e) * 0.9 for _, k, e in samples)
    worst = min(k - kappa0 * np.exp(-3.0 * e) * 0.9 for _, k, e in samples)

    cache = final_state.cache
    grid = final_state.cache.grid
    u = np.arange(grid.nu)[:, None] * (TWO_PI / grid.nu)
    v = np.arange(grid.nv)[None, :] * (TWO_PI / grid.nv)
    rng = np.random.default_rng(20240817)
    held = 0
    trials = 1000
    for _ in range(trials):
        sigma = np.zeros((grid.nu, grid.nv))
        for _ in range(4):
            ku, kv = rng.integers(-4, 5, size=2)
            amp = 1e-4 * rng.standard_normal()
            sigma = sigma + amp * np.sin(ku * u + kv * v + rng.uniform(0, TWO_PI))
        du = (np.roll(sigma, -1, 0) - np.roll(sigma, 1, 0)) * grid.nu / (2 * TWO_PI)
        dv = (np.roll(sigma, -1, 1) - np.roll(sigma, 1, 1)) * grid.nv / (2 * TWO_PI)
        grad = np.sqrt(
            cache.ginv[..., 0, 0] * du**2
            + 2 * cache.ginv[..., 0, 1] * du * dv
            + cache.ginv[..., 1, 1] * dv**2
        ).max()
        result = c0_from_l2_validator(sigma, float(grad) * 1.05 + 1e-12, cache, radius=0.5)
        held += bool(result.holds)
    sweep_wall = time.perf_counter() - t0
    ok = kappa_ok and held == trials and (wall + sweep_wall) < 600.0
    report(
        capfd,
        7,
        ok,
        f"non-collapsing: kappa(t) above kappa0 e^(-3E) - 10% at {len(samples)} samples "
        f"(worst margin {worst:.3f}), validator held {held}/{trials}, "
        f"{wall + sweep_wall:.0f}s < 10min",
    )


def test_criterion_8_manifest_determinism(tmp_path, capfd):
    cli = [sys.executable, "-m", "hkflow.cli"]
    out = subprocess.run(
        cli
        + [
            "init", "--scenario", "clifford", "--R", "1", "--r", "1",
            "--nu", "32", "--nv", "32", "--steps", "40", "--lambda1-cadence", "5",
        ],
        cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    blobs = []
    for _ in range(2):
        out = subprocess.run(
            cli + ["run", "clifford-32x32.manifest"],
            cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=600,
        )
        assert out.returncode == 0, out.stderr
        blobs.append((tmp_path / "clifford-32x32.csv").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 1000
    report(
        capfd,
        8,
        ok,
        f"determinism: manifest replay byte-identical CSV ({len(blobs[0])} bytes x 2)",
    )
