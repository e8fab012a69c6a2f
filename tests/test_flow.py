"""Coupled flow loop: stepping, guards, monitors, runner, decay fits.

Reference numbers below were measured on the shipped scenarios and
frozen with margins.  The two step-error regimes of the consistency
meter matter: with the euler scheme the splitting error sits on the
dt*h^2 floor (halving dt gives a ratio near 2), while rk2 moves the
surface off the euler path and the dt^2 term dominates up to the
parabolic cap (ratio near 4).  Both are asserted.
"""

import dataclasses
import math

import numpy as np
import pytest

import hkflow.flow
from hkflow.cli import main
from hkflow.errors import InputError, NumericalError, PreconditionError
from hkflow.flow import (
    FlowConfig,
    SurfaceState,
    cfl_dt,
    consistency_check,
    coupled_step,
    decay_fit,
    efa_monitor,
    efe_monitor,
    make_state,
    mcf_step,
    metric_evolution_monitor,
    metric_spacing,
    phase_heat_step,
    run_flow,
)
from hkflow.phase import field_from_array, phase_field, tension_field, twistor_energy
from hkflow.surface import _lam_min, build_immersion, scenario

TWO_PI = 2.0 * np.pi

EQUATOR_TORUS = ["0.7*cos(u)", "0.7*cos(v)", "0.7*sin(v)", "0.7*sin(u)"]


def state_for(name, n, **kw):
    return make_state(build_immersion(scenario(name, n, n, **kw)))


@pytest.fixture(scope="module")
def pert64():
    return state_for("perturbed-complex-torus", 64, eps=0.05)


@pytest.fixture(scope="module")
def clifford_run():
    cfg = FlowConfig(steps=100, lambda1_cadence=1000)
    series, final = run_flow(cfg, scenario("clifford", 64, 64, R=1.0, r=1.0))
    return series, final


@pytest.fixture(scope="module")
def pert_run():
    cfg = FlowConfig(steps=400, lambda1_cadence=10, consistency_cadence=100)
    series, final = run_flow(cfg, scenario("perturbed-complex-torus", 64, 64, eps=0.05))
    return series, final


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(InputError):
        FlowConfig(dt=-1.0)
    with pytest.raises(InputError):
        FlowConfig(scheme="leapfrog")
    with pytest.raises(InputError):
        FlowConfig(safety=0.0)
    # each bound names its field; 0 is a valid step count but no cadence
    with pytest.raises(InputError, match=r"steps must be >= 0, got -1"):
        FlowConfig(steps=-1)
    for cadence in (0, -2):
        with pytest.raises(InputError, match=rf"lambda1_cadence must be >= 1, got {cadence}"):
            FlowConfig(lambda1_cadence=cadence)
    with pytest.raises(InputError, match=r"consistency_cadence must be >= 0, got -1"):
        FlowConfig(consistency_cadence=-1)
    FlowConfig(steps=0, consistency_cadence=0)
    # NaN passes every ordering test (dt <= 0, max_H < stop), so it is named
    for name in ("c_mon", "dt", "max_h_below", "t_final"):
        with pytest.raises(InputError, match=f"{name} must be finite"):
            FlowConfig(**{name: float("nan")})
    FlowConfig(dt=1e-3, scheme="rk2", max_h_below=1e-6, t_final=2.0)


def test_cfl_formula(pert64):
    # the flat and Clifford metrics are isotropic at every node, where
    # 0.5 (tr - sqrt(tr^2 - 4 det)) would lose half the digits
    for state in (state_for("flat-plane-torus", 64), state_for("clifford", 64, R=1.0, r=1.0)):
        eigs = np.linalg.eigvalsh(state.cache.g)
        expect = np.sqrt(eigs.min()) * min(state.cache.hu, state.cache.hv)
        assert metric_spacing(state.cache) == pytest.approx(expect, rel=1e-14)
    cache = pert64.cache
    hg = metric_spacing(cache)
    eigs = np.linalg.eigvalsh(cache.g)
    assert hg == pytest.approx(np.sqrt(eigs.min()) * min(cache.hu, cache.hv), rel=1e-14)
    expect = 0.9 * hg**2 / (4.0 * (1.0 + cache.norm_A_sq.max() * hg**2))
    assert cfl_dt(cache, 0.9) == pytest.approx(expect, rel=1e-14)
    assert cfl_dt(cache, 0.45) == pytest.approx(expect / 2, rel=1e-14)


def test_metric_spacing_once_per_cache(monkeypatch):
    # the phase step reads the moved cache's spacing, and the next step's
    # cfl_dt the same cache's; both used to compute it
    calls = []

    def counted(g):
        calls.append(g)
        return _lam_min(g)

    st = state_for("perturbed-complex-torus", 16, eps=0.05)
    expect = [metric_spacing(st.cache)]
    monkeypatch.setattr(hkflow.flow, "_lam_min", counted)
    for _ in range(3):
        st, _ = coupled_step(st, FlowConfig())
        expect.append(metric_spacing(st.cache))
    assert len(calls) == 3                       # one per moved cache
    for k, g in enumerate(calls):
        assert expect[k + 1] == float(np.sqrt(_lam_min(g).min())) * (TWO_PI / 16)


# ---------------------------------------------------------------- stepping


def test_state_is_geometry_and_phase():
    # the grid is cache.grid and the triple is the kernel's pinned one
    assert [f.name for f in dataclasses.fields(SurfaceState)] == ["cache", "phase"]


def test_flat_mcf_step_is_identity():
    st = state_for("flat-plane-torus", 16)
    for scheme in ("euler", "rk2"):
        moved = mcf_step(st, 1e-3, scheme=scheme)
        assert np.array_equal(moved.cache.grid.positions, st.cache.grid.positions)


def test_displacement_guard():
    st = state_for("clifford", 32, R=1.0, r=1.0)
    # |H| = sqrt(2), min edge ~ 2 pi / 32: dt = 0.1 moves ~0.14 >> quarter edge
    with pytest.raises(NumericalError, match="stability-violation"):
        mcf_step(st, 0.1)


def test_displacement_guard_names_nan():
    st = state_for("perturbed-complex-torus", 16, eps=0.05)
    h = st.cache.H.copy()
    h[4, 7, 0] = np.nan
    st = dataclasses.replace(st, cache=dataclasses.replace(st.cache, H=h))
    with pytest.raises(NumericalError, match="non-finite displacement nan"):
        mcf_step(st, 1e-4)


def test_phase_drift_guard_names_nan():
    st = state_for("perturbed-complex-torus", 16, eps=0.05)
    a = st.phase.a.copy()
    a[4, 7] = np.nan
    dt = 0.5 * cfl_dt(st.cache)
    with pytest.raises(NumericalError, match="non-finite phase: unit drift nan"):
        phase_heat_step(dataclasses.replace(st.phase, a=a), st.cache, dt)


def test_phase_step_parabolic_guard():
    st = state_for("flat-plane-torus", 16)
    cap = 0.25 * metric_spacing(st.cache) ** 2
    with pytest.raises(NumericalError, match="parabolic bound"):
        phase_heat_step(st.phase, st.cache, cap * 1.01)
    phase_heat_step(st.phase, st.cache, cap * 0.99)


def test_constant_phase_is_fixed_point():
    # flat plane phase is a single twistor point; discrete laplacian of a
    # constant field vanishes identically, so the step must not move it.
    # The plane spanned by e0 and -e3 has its phase at the pole (0, 0, 1),
    # where the companion takes the x x a chart
    pole = ["u", "0*u", "0*u", "-v"]
    for st, a in (
        (state_for("flat-plane-torus", 16), [-1.0, 0.0, 0.0]),
        (state_for("custom-expression", 16, exprs=pole, periods=[TWO_PI] * 4), [0.0, 0.0, 1.0]),
    ):
        assert np.array_equal(st.phase.a, np.broadcast_to(a, st.phase.a.shape))
        out = phase_heat_step(st.phase, st.cache, cfl_dt(st.cache, 0.9))
        assert np.abs(out.a - st.phase.a).max() < 1e-13


def test_harmonic_phase_is_fixed_point():
    # the equator-aligned product torus has machine-zero tension
    st = state_for("custom-expression", 64, exprs=EQUATOR_TORUS)
    dt = cfl_dt(st.cache, 0.9)
    assert np.abs(tension_field(st.phase, st.cache)).max() < 5e-12
    out = phase_heat_step(st.phase, st.cache, dt)
    assert np.abs(out.a - st.phase.a).max() < 10 * dt * 5e-12


def test_coupled_step_record_fields(pert64):
    cfg = FlowConfig(steps=1, lambda1_cadence=1000)
    new_state, rec = coupled_step(pert64, cfg, t=0.0, e_accum=0.0)
    assert rec.t == pytest.approx(rec.dt)
    assert rec.area < pert64.cache.node_area().sum()
    assert rec.max_H > 0 and rec.max_A > 0
    assert rec.E_accum == pytest.approx(
        rec.dt * (pert64.cache.norm_H_sq.max() + np.sqrt(pert64.cache.norm_H_sq.max() * pert64.cache.norm_A_sq.max())),
        rel=1e-12,
    )


# ---------------------------------------------------------------- consistency


def test_consistency_flat_exact():
    st = state_for("flat-plane-torus", 32)
    cfg = FlowConfig(steps=1, lambda1_cadence=1000)
    _, rec = coupled_step(st, cfg, with_consistency=True)
    assert rec.consistency_error < 1e-14


def test_consistency_euler_floor(pert64):
    # at the parabolic cap the euler splitting error is dominated by the
    # dt*h^2 term: halving dt lands near ratio 2, not 4 (measured 2.26)
    cap = 0.25 * metric_spacing(pert64.cache) ** 2
    errs = []
    for dt in (0.999 * cap, 0.4995 * cap):
        cfg = FlowConfig(dt=dt, steps=1, lambda1_cadence=1000)
        _, rec = coupled_step(pert64, cfg, with_consistency=True)
        errs.append(rec.consistency_error)
    ratio = errs[0] / errs[1]
    assert 1.9 < ratio < 2.8
    assert errs[0] < 1e-8


def test_consistency_rk2_second_order(pert64):
    # rk2 leaves the dt^2 term dominant: measured ratio 4.063
    cap = 0.25 * metric_spacing(pert64.cache) ** 2
    errs = []
    for dt in (0.999 * cap, 0.4995 * cap):
        cfg = FlowConfig(dt=dt, steps=1, scheme="rk2", lambda1_cadence=1000)
        _, rec = coupled_step(pert64, cfg, with_consistency=True)
        errs.append(rec.consistency_error)
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_consistency_error_shrinks_with_h(pert64):
    # matched cap fraction: error scales like h^4 across resolutions
    st128 = state_for("perturbed-complex-torus", 128, eps=0.05)
    out = {}
    for st in (pert64, st128):
        dt = cfl_dt(st.cache, 0.9)
        cfg = FlowConfig(dt=dt, steps=1, lambda1_cadence=1000)
        _, rec = coupled_step(st, cfg, with_consistency=True)
        out[st.cache.grid.nu] = rec.consistency_error
    assert 12.0 < out[64] / out[128] < 20.0


# ---------------------------------------------------------------- monitors


def test_metric_monitor_flat_zero():
    st = state_for("flat-plane-torus", 16)
    after = mcf_step(st, 1e-3)
    assert metric_evolution_monitor(st, after, 1e-3) < 1e-13


def test_metric_monitor_first_order_in_dt():
    st = state_for("clifford", 48, R=1.0, r=1.0)
    vals = {}
    for dt in (2e-4, 1e-4):
        after = mcf_step(st, dt)
        vals[dt] = metric_evolution_monitor(st, after, dt)
    assert 1.5 < vals[2e-4] / vals[1e-4] < 2.5
    assert vals[1e-4] < 5e-4


def test_monitor_insufficient_records(pert_run):
    series, _ = pert_run
    left, right = [r for r in series.records if r.lambda1 is not None][:2]
    unsampled = series.records[1]
    assert unsampled.lambda1 is None
    for monitor in (efa_monitor, efe_monitor):
        assert monitor(left, right, 8.0) >= 0.0
        with pytest.raises(PreconditionError, match="insufficient-records"):
            monitor(left, unsampled, 8.0)
        with pytest.raises(PreconditionError, match="insufficient-records"):
            monitor(unsampled, right, 8.0)


def test_monitors_propagate_nan(pert_run):
    # max(0, nan) is 0, which would read as "inequality held"
    series, _ = pert_run
    left, right = [r for r in series.records if r.lambda1 is not None][-2:]
    nan_left = dataclasses.replace(left, lambda1=float("nan"))
    assert math.isnan(efa_monitor(nan_left, right, 8.0))
    assert math.isnan(efe_monitor(nan_left, right, 8.0))
    assert efa_monitor(left, right, 8.0) >= 0.0


# ---------------------------------------------------------------- runner


def test_flat_run_stops_immediately():
    cfg = FlowConfig(steps=50, max_h_below=1e-8)
    series, final = run_flow(cfg, scenario("flat-plane-torus", 32, 32))
    assert len(series.records) == 1
    assert series.stop_reason == "max_H_below"
    rec = series.records[0]
    assert rec.t == 0.0
    assert rec.max_H == 0.0
    assert rec.twistor_energy < 1e-25
    assert rec.metric_residual == 0.0
    assert 0.99 < rec.lambda1 < 1.0
    assert series.final_phase_spread < 1e-12


def test_clifford_shrinks_at_rate_two(clifford_run):
    series, _ = clifford_run
    recs = series.records
    h = TWO_PI / 64
    scale = 4 * np.pi**2 * np.sinc(h / TWO_PI) ** 2
    ts = [r.t for r in recs[1:]]
    r2 = [r.area / scale for r in recs[1:]]
    slope = np.polyfit(ts, r2, 1)[0]
    assert slope == pytest.approx(-2.0, rel=0.05)


def test_area_monotone(clifford_run, pert_run):
    for series, _ in (clifford_run, pert_run):
        recs = series.records
        for a, b in zip(recs, recs[1:]):
            assert b.area <= a.area * (1 + 1e-10)


def test_twistor_energy_monotone(pert_run):
    series, _ = pert_run
    recs = series.records
    for a, b in zip(recs, recs[1:]):
        assert b.twistor_energy <= a.twistor_energy * (1 + 1e-12)


def test_hdp_margin(pert_run):
    series, _ = pert_run
    h = TWO_PI / 64
    for rec in series.records:
        slack = 10.0 * h**2 * rec.max_A**2
        assert rec.hdp_margin >= -slack
        assert rec.hdp_margin >= -1e-12


def test_min_a3_monotone_once_positive(pert_run):
    # the standard triple sees the perturbed torus near the equator and
    # the a3 clause never arms; the same maximum principle for <a, w0>,
    # w0 the initial mean phase, starts inside that hemisphere and must
    # hold on every row
    series, _ = pert_run
    assert all(r.min_a3 < 0 for r in series.records)
    for a, b in zip(series.records, series.records[1:]):
        if a.min_a3 > 0:
            assert b.min_a3 >= a.min_a3 - 1e-8
        assert b.min_alignment >= a.min_alignment - 1e-8


def test_alignment_improves(pert_run):
    series, _ = pert_run
    recs = series.records
    assert recs[0].min_alignment > 0.99
    assert recs[-1].min_alignment > recs[0].min_alignment


def test_lambda1_cadence_and_rise(pert_run):
    series, _ = pert_run
    recs = series.records
    assert recs[0].lambda1 is not None
    lam = [(i, r.lambda1) for i, r in enumerate(recs) if r.lambda1 is not None]
    idx = [i for i, _ in lam]
    assert idx[:3] == [0, 10, 20]
    assert len(lam) == 41
    assert 0.995 < lam[0][1] < 1.0
    assert lam[-1][1] > lam[0][1]


def test_efa_efe_residuals_small(pert_run):
    # excess over the decay bound comes from sampling the secant over the
    # lambda1 cadence window; rate^2 * window / 2 of the energy covers it
    series, _ = pert_run
    recs = series.records
    dt = recs[1].dt
    h = TWO_PI / 64
    for rec in recs:
        if rec.efa_residual is None:
            continue
        tol = (2.0 * h**2 + 4.0 * 10 * dt) * rec.twistor_energy + 1e-12
        assert rec.efa_residual <= tol
        assert rec.efe_residual <= tol
    assert max(r.efa_residual for r in recs if r.efa_residual is not None) > 0.0


def test_e_accum_replays_from_rows(clifford_run):
    series, _ = clifford_run
    recs = series.records
    acc = 0.0
    for prev, rec in zip(recs, recs[1:]):
        acc += rec.dt * (prev.max_H**2 + prev.max_H * prev.max_A)
        assert rec.E_accum == pytest.approx(acc, rel=1e-12, abs=1e-15)


def test_consistency_cadence(pert_run):
    series, _ = pert_run
    recs = series.records
    have = [i for i, r in enumerate(recs) if r.consistency_error is not None]
    assert have == [100, 200, 300, 400]
    assert all(recs[i].consistency_error < 1e-5 for i in have)


def test_observer_receives_every_row_and_state():
    rows, states = [], []

    def observe(rec, state):
        rows.append(rec)
        states.append(state)

    cfg = FlowConfig(steps=20, lambda1_cadence=1000)
    series, final = run_flow(cfg, scenario("clifford", 32, 32, R=1.0, r=1.0), observe=observe)
    assert len(rows) == len(series.records) == 21
    assert all(rows[k] is series.records[k] for k in range(21))
    assert states[-1] is final
    # each state is the one its row was measured on
    assert all(r.max_H == np.sqrt(st.cache.norm_H_sq.max()) for r, st in zip(rows, states))
    assert rows[0].max_H < rows[-1].max_H


def test_lambda1_failure_names_its_step(monkeypatch, tmp_path, capsys):
    real = hkflow.flow.lambda1
    calls = []

    def stalls_third_call(cache):
        calls.append(cache)
        if len(calls) == 3:
            raise NumericalError("eigensolver stalled after 40 iterations")
        return real(cache)

    monkeypatch.setattr(hkflow.flow, "lambda1", stalls_third_call)
    with pytest.raises(NumericalError) as info:
        run_flow(
            FlowConfig(steps=40, lambda1_cadence=10), scenario("clifford", 32, 32, R=1.0, r=1.0)
        )
    assert str(info.value) == "step 20: eigensolver stalled after 40 iterations"
    assert info.value.step == 20

    # the command layer: exit 3, with the rows of steps 0-19 already on disk
    monkeypatch.chdir(tmp_path)
    init = ["init", "--scenario", "clifford", "--R", "1", "--r", "1", "--nu", "32", "--nv", "32"]
    assert main(init + ["--steps", "40", "--out", "stall"]) == 0
    calls.clear()
    assert main(["run", "stall.manifest"]) == 3
    assert "numerical failure: step 20: eigensolver stalled" in capsys.readouterr().err
    rows = (tmp_path / "stall.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 20
    assert float(rows[-1].split(",")[0]) > 0.0


def test_t_final_stop():
    cfg = FlowConfig(dt=1e-3, steps=10_000, t_final=5e-3, lambda1_cadence=1000)
    series, _ = run_flow(cfg, scenario("clifford", 32, 32, R=1.0, r=1.0))
    assert series.stop_reason == "t_final"
    assert series.records[-1].t == pytest.approx(5e-3, abs=1e-12)


def test_step_budget_stop(pert_run):
    series, _ = pert_run
    assert series.stop_reason == "steps"
    assert len(series.records) == 401


def test_collapse_raises_with_step_index():
    cfg = FlowConfig(dt=1e-3, steps=10_000, lambda1_cadence=10_000)
    with pytest.raises(NumericalError, match=r"step \d+.*stability-violation"):
        run_flow(cfg, scenario("clifford", 32, 32, R=0.4, r=0.4))


def test_determinism():
    cfg = FlowConfig(steps=50, lambda1_cadence=10)
    sc = scenario("perturbed-complex-torus", 48, 48, eps=0.05)
    s1, f1 = run_flow(cfg, sc)
    s2, f2 = run_flow(cfg, sc)
    for a, b in zip(s1.records, s2.records):
        assert a == b
    assert s1.final_phase_spread == s2.final_phase_spread
    assert np.array_equal(f1.cache.grid.positions, f2.cache.grid.positions)


# ---------------------------------------------------------------- decay


def _fake_series(ts, es):
    class Row:
        def __init__(self, t, e):
            self.t = t
            self.twistor_energy = e

    return [Row(t, e) for t, e in zip(ts, es)]


def test_decay_fit_exact_exponential():
    ts = np.linspace(0.0, 1.0, 60)
    rate, r2 = decay_fit(_fake_series(ts, np.exp(-3 * ts)), (0.0, 1.0))
    assert rate == pytest.approx(-3.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_perturbed():
    ts = np.linspace(0.0, 1.0, 60)
    es = np.exp(-3 * ts) * (1 + 0.01 * np.sin(7 * ts))
    rate, _ = decay_fit(_fake_series(ts, es), (0.0, 1.0))
    assert rate == pytest.approx(-3.0, rel=0.02)


def test_decay_fit_constant_series():
    ts = np.linspace(0.0, 2.0, 30)
    rate, r2 = decay_fit(_fake_series(ts, np.full(30, 2.5)), (0.0, 2.0))
    assert abs(rate) < 1e-12
    assert r2 == 1.0


def test_decay_fit_errors():
    ts = np.linspace(0.0, 1.0, 60)
    with pytest.raises(PreconditionError, match="insufficient-samples"):
        decay_fit(_fake_series(ts, np.exp(-ts)), (0.98, 1.0))
    es = np.exp(-ts).copy()
    es[30] = 0.0
    with pytest.raises(PreconditionError, match="nonpositive-energy"):
        decay_fit(_fake_series(ts, es), (0.0, 1.0))


def test_decay_fit_on_real_run(pert_run):
    series, _ = pert_run
    rate, r2 = decay_fit(series, (0.4, 0.85))
    assert -2.3 < rate < -1.7
    assert r2 > 0.99
