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

import closed_forms
import numpy as np
import pytest
from test_surface import node_major_geometry

import hkflow.flow
from hkflow import kernel, phase, surface
from hkflow.cli import main
from hkflow.errors import InputError, NumericalError, PreconditionError
from hkflow.flow import (
    DiagnosticsSeries,
    FlowConfig,
    SurfaceState,
    cfl_dt,
    coupled_step,
    decay_fit,
    efa_monitor,
    efe_monitor,
    make_state,
    mcf_step,
    metric_evolution_monitor,
    phase_heat_step,
    run_flow,
)
from hkflow.kernel import AmbientSpace, phi_field
from hkflow.phase import field_from_array, tension_field
from hkflow.spectral import lambda1
from hkflow.surface import (
    _lam_min,
    _planes,
    dirichlet_energy_density,
    load_snapshot,
    save_snapshot,
    scenario,
)

TWO_PI = 2.0 * np.pi

EQUATOR_TORUS = ["0.7*cos(u)", "0.7*cos(v)", "0.7*sin(v)", "0.7*sin(u)"]


def state_for(name, n, **kw):
    return make_state(scenario(name, n, n, **kw))


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
    for name in ("dt", "max_h_below", "t_final"):
        with pytest.raises(InputError, match=f"{name} must be finite"):
            FlowConfig(**{name: float("nan")})
    FlowConfig(dt=1e-3, scheme="rk2", max_h_below=1e-6, t_final=2.0)
    assert FlowConfig(dt=np.float32(1e-3), safety=np.float64(0.5), steps=np.int64(3)).steps == 3


# a scalar, container or name of the wrong kind is refused by name: not
# coerced (a cadence of 2.5 would sample every 5 steps, R = "2" a radius-2
# torus, periods "abcd" four string periods) and not left to escape as a
# bare TypeError, ValueError or OverflowError
@pytest.mark.parametrize("make, message", [
    (lambda: FlowConfig(steps=2.5), "steps must be an integer, got 2.5"),
    (lambda: FlowConfig(steps=None), "steps must be an integer, got None"),
    (lambda: FlowConfig(steps=True), "steps must be an integer, got True"),
    (lambda: FlowConfig(lambda1_cadence=2.5), "lambda1_cadence must be an integer, got 2.5"),
    (lambda: FlowConfig(consistency_cadence=1.5), "consistency_cadence must be an integer, got 1.5"),
    (lambda: FlowConfig(dt="0.1"), "dt must be a real number, got '0.1'"),
    (lambda: FlowConfig(max_h_below="1e-6"), "max_h_below must be a real number, got '1e-6'"),
    (lambda: FlowConfig(t_final=True), "t_final must be a real number, got True"),
    (lambda: FlowConfig(safety="0.9"), "cfl safety must be a real number, got '0.9'"),
    (lambda: scenario("clifford", 8, 8, R="abc"), "R must be a real number, got 'abc'"),
    (lambda: scenario("clifford", 8, 8, R="2"), "R must be a real number, got '2'"),
    (lambda: scenario("clifford", 8, 8, R=True), "R must be a real number, got True"),
    (lambda: scenario("custom-expression", 8, 8, exprs=[1, 2, 3, 4]),
     "custom-expression needs exprs = 4 strings"),
    (lambda: scenario("custom-expression", 8, 8, exprs="u;v;u;v"),
     "custom-expression needs exprs = 4 strings"),
    (lambda: scenario("custom-expression", 8, 8, exprs=["u", "v", "0*u", "0*u"],
                      periods=["2*pi", 1.0, 1.0, 1.0]), "period must be a real number, got '2*pi'"),
    (lambda: AmbientSpace((1.0, 1.0, 1.0, None)), "period must be a real number, got None"),
    (lambda: FlowConfig(dt=10**400),
     "dt must be a real number within float range: int too large to convert to float"),
    (lambda: scenario("clifford", 8, 8, R=10**400),
     "R must be a real number within float range: int too large to convert to float"),
    (lambda: AmbientSpace(5), "periods must be 4 positive finite lengths, got 5"),
    (lambda: AmbientSpace("abcd"), "periods must be 4 positive finite lengths, got abcd"),
    (lambda: scenario("custom-expression", 8, 8, exprs=["u", "v", "0*u", "0*u"], periods=5),
     "periods must be 4 positive finite lengths, got 5"),
    (lambda: scenario(["clifford"], 8, 8), "unknown scenario ['clifford']"),
], ids=[
    "steps-2.5", "steps-None", "steps-True", "lambda1_cadence-2.5", "consistency_cadence-1.5",
    "dt-str", "max_h_below-str", "t_final-True", "safety-str", "R-abc", "R-str", "R-True",
    "exprs-int", "exprs-str", "period-str", "period-None", "dt-huge-int", "R-huge-int",
    "periods-int", "periods-str", "scenario-periods-int", "name-list",
])
def test_api_refuses_a_scalar_that_is_not_a_number(make, message):
    with pytest.raises(InputError) as err:
        make()
    assert str(err.value) == message


def test_cfl_formula(pert64):
    # the flat and Clifford metrics are isotropic at every node, where
    # 0.5 (tr - sqrt(tr^2 - 4 det)) would lose half the digits
    for state in (state_for("flat-plane-torus", 64), state_for("clifford", 64, R=1.0, r=1.0)):
        eigs = np.linalg.eigvalsh(state.cache.g)
        expect = np.sqrt(eigs.min()) * min(state.cache.hu, state.cache.hv)
        assert state.cache.metric_spacing == pytest.approx(expect, rel=1e-14)
    cache = pert64.cache
    hg = cache.metric_spacing
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
    expect = [st.cache.metric_spacing]
    monkeypatch.setattr(surface, "_lam_min", counted)
    for _ in range(3):
        st, _ = coupled_step(st, FlowConfig())
        expect.append(st.cache.metric_spacing)
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
    cache = dataclasses.replace(st.cache)
    cache.H = h      # assigned before its first read, so building the normal core keeps it
    st = dataclasses.replace(st, cache=cache)
    with pytest.raises(NumericalError, match="non-finite displacement nan"):
        mcf_step(st, 1e-4)


def test_phase_drift_guard_names_nan():
    st = state_for("perturbed-complex-torus", 16, eps=0.05)
    a = st.phase.a.copy()
    a[4, 7] = np.nan
    dt = 0.5 * cfl_dt(st.cache)
    with pytest.raises(NumericalError, match="non-finite phase: unit drift nan"):
        phase_heat_step(dataclasses.replace(st.phase, a=a), st.cache, dt)


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_phase_drift_guard_budget(monkeypatch, factor):
    # the budget is 1.5 (dt^2 max|tau|^2 + dt max|<a, tau>|) + 1e-13, its
    # margin written here as the literal 1.5.  tau is the unit companion of
    # a, so <a, tau> is roundoff, and the phase is scaled off the sphere
    # until |s a + dt tau| - 1 = sqrt(s^2 + dt^2) - 1 is factor x the budget
    st = state_for("perturbed-complex-torus", 16, eps=0.05)
    tau = phi_field(st.phase.a)
    monkeypatch.setattr(hkflow.flow, "tension_field", lambda pf, cache: tau)
    dt = 0.5 * cfl_dt(st.cache)
    budget = 1.5 * dt**2 + 1e-13
    scaled = np.sqrt((1 + factor * budget) ** 2 - dt**2) * st.phase.a
    pf = dataclasses.replace(st.phase, a=scaled)
    drift = np.abs(np.linalg.norm(scaled + dt * tau, axis=-1) - 1).max()
    tau_sq = (tau * tau).sum(-1).max()
    defect = np.abs((scaled * tau).sum(-1)).max()
    bound = 1.5 * (dt**2 * tau_sq + dt * defect) + 1e-13
    assert drift / bound == pytest.approx(factor, rel=1e-6)
    if factor > 1:
        with pytest.raises(NumericalError, match="phase-drift .* exceeds the projection budget"):
            phase_heat_step(pf, st.cache, dt)
    else:
        phase_heat_step(pf, st.cache, dt)


def test_phase_spread_is_the_largest_angle():
    # a = (sin(alpha cos u), 0, cos(alpha cos u)) on a flat torus with even
    # nu: the first components cancel in pairs u, u + pi, so the mean
    # direction is the pole, and the largest angle to it is alpha, at
    # u = 0 and u = pi; the mean angle would read about 2 alpha / pi
    alpha = 0.6
    st = state_for("flat-plane-torus", 16)
    uu, _ = st.cache.grid.param_axes()
    a = np.stack([np.sin(alpha * np.cos(uu)), 0 * uu, np.cos(alpha * np.cos(uu))], axis=-1)
    state = SurfaceState(st.cache, field_from_array(a, st.cache))
    assert hkflow.flow._phase_spread(state) == pytest.approx(alpha, rel=0, abs=1e-12)


def test_phase_step_parabolic_guard():
    st = state_for("flat-plane-torus", 16)
    cap = 0.25 * st.cache.metric_spacing**2
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
    new_state, rec = coupled_step(pert64, cfg)
    assert rec.t == pytest.approx(rec.dt)
    assert rec.area < pert64.cache.node_area().sum()
    assert rec.max_H > 0 and rec.max_A > 0
    assert rec.E_accum == pytest.approx(
        rec.dt * (pert64.cache.norm_H_sq.max() + np.sqrt(pert64.cache.norm_H_sq.max() * pert64.cache.norm_A_sq.max())),
        rel=1e-12,
    )
    # the next step continues from the row measured on its state
    _, nxt = coupled_step(new_state, cfg, rec)
    assert nxt.t == rec.t + nxt.dt
    assert nxt.E_accum == rec.E_accum + nxt.dt * (rec.max_H**2 + rec.max_A * rec.max_H)


@pytest.mark.parametrize("scheme, with_consistency", [("euler", False), ("rk2", False),
                                                      ("euler", True)])
def test_every_reduce_of_a_step_reads_contiguous_planes(monkeypatch, scheme, with_consistency):
    # _dot's one reduce over the first axis is several times slower on a
    # transposed view of a node-major array than on contiguous planes
    strided = []
    dot = kernel._dot

    def spy(x, y):
        for operand in (x, y):
            if np.prod(np.shape(operand)[1:]) > 1 and not operand.flags.c_contiguous:
                strided.append(np.shape(operand))
        return dot(x, y)

    for module in (kernel, surface, phase, hkflow.flow):
        monkeypatch.setattr(module, "_dot", spy)
    state = state_for("perturbed-complex-torus", 32, eps=0.05)
    cfg = FlowConfig(scheme=scheme, lambda1_cadence=1000)
    last = None
    for _ in range(2):
        state, last = coupled_step(state, cfg, last, with_consistency=with_consistency)
    assert strided == []


def test_a_replaced_phase_gets_a_fresh_difference_pass(monkeypatch):
    # replace() leaves the private difference Gram empty, so no step reuses
    # the Gram of the phase it replaced
    state = state_for("perturbed-complex-torus", 16, eps=0.3)
    other = field_from_array(state.phase.a + [0.5, 0.0, 0.0], state.cache).a
    replaced = dataclasses.replace(state.phase, a=other)
    passes = []
    gram = phase._difference_gram
    monkeypatch.setattr(phase, "_difference_gram",
                        lambda f, hu, hv: passes.append(f.copy()) or gram(f, hu, hv))
    dt = 0.5 * cfl_dt(state.cache)

    mcf_step(state, dt)
    assert passes == []                 # the state's own phase carries its Gram
    moved = mcf_step(SurfaceState(state.cache, replaced), dt)
    assert len(passes) == 1 and np.array_equal(passes[0], _planes(other))
    assert np.array_equal(moved.phase.energy_density,
                          dirichlet_energy_density(other, moved.cache))

    stepped = phase_heat_step(replaced, state.cache, dt)
    assert len(passes) == 2 and np.array_equal(passes[1], _planes(stepped.a))
    assert np.array_equal(stepped.energy_density,
                          dirichlet_energy_density(stepped.a, state.cache))


# ---------------------------------------------------------------- consistency


def test_consistency_flat_exact():
    st = state_for("flat-plane-torus", 32)
    cfg = FlowConfig(steps=1, lambda1_cadence=1000)
    _, rec = coupled_step(st, cfg, with_consistency=True)
    assert rec.consistency_error < 1e-14


def test_consistency_euler_floor(pert64):
    # at the parabolic cap the euler splitting error is dominated by the
    # dt*h^2 term: halving dt lands near ratio 2, not 4 (measured 2.26)
    cap = 0.25 * pert64.cache.metric_spacing**2
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
    cap = 0.25 * pert64.cache.metric_spacing**2
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


@pytest.mark.parametrize("name, params", [
    ("custom-expression", dict(exprs=["u", "v", "0.3*sin(u)*cos(v)", "0.3*sin(v)"],
                               periods=[TWO_PI] * 4)),
    ("clifford", dict(R=1.0, r=0.5)),
])
def test_metric_monitor_is_the_frame_form(name, params):
    # H is normal, so <H, f_ij> = sum_alpha <H, e_alpha> h_alpha,ij in the
    # paper's frame of the node-major oracle; the twisted graph has normal
    # curvature, Clifford (1, 0.5) two unequal circles.
    # Measured at the CFL step: 2.7e-14 relative at most, pointwise 5e-16
    st = state_for(name, 32, **params)
    c, dt = st.cache, cfl_dt(st.cache)
    after = mcf_step(st, dt)
    ref = node_major_geometry(c.grid)
    normal_h = np.stack([(c.H * ref["e3"]).sum(-1), (c.H * ref["e4"]).sum(-1)], -1)
    frame = np.einsum("...a,...aij->...ij", normal_h, ref["h"])
    want = float(np.abs((after.cache.g - c.g) / dt + 2 * frame).max())
    assert abs(metric_evolution_monitor(st, after, dt) - want) <= 1e-12 * want
    direct = np.stack([(c.H * f).sum(-1) for f in (c.f_uu, c.f_uv, c.f_uv, c.f_vv)], -1)
    assert np.abs(direct - frame.reshape(direct.shape)).max() <= 1e-12 * np.abs(frame).max()


def test_monitor_insufficient_records(pert_run):
    series, _ = pert_run
    left, right = [r for r in series.records if r.lambda1 is not None][:2]
    unsampled = series.records[1]
    assert unsampled.lambda1 is None
    for monitor in (efa_monitor, efe_monitor):
        assert monitor(left, right) >= 0.0
        with pytest.raises(PreconditionError, match="insufficient-records"):
            monitor(left, unsampled)
        with pytest.raises(PreconditionError, match="insufficient-records"):
            monitor(unsampled, right)


def test_monitors_propagate_nan(pert_run):
    # max(0, nan) is 0, which would read as "inequality held"
    series, _ = pert_run
    left, right = [r for r in series.records if r.lambda1 is not None][-2:]
    nan_left = dataclasses.replace(left, lambda1=float("nan"))
    assert math.isnan(efa_monitor(nan_left, right))
    assert math.isnan(efe_monitor(nan_left, right))
    assert efa_monitor(left, right) >= 0.0


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


# the product families of closed_forms, each run to a flow time well before
# its singular time min(radius)^2 / 2; Clifford (1, 0.5) stops at t = 0.05,
# since its area reads order 1.78 at t = 0.1.  Relative errors of max|A|,
# max|H|, area, T and lambda1 at the first row past that time, 16^2 -> 32^2:
#   clifford (1, 1)   2.03e-3 -> 5.11e-4, 8.77e-3 -> 2.19e-3, 1.28e-2 -> 3.21e-3, 4.06e-3 -> 1.02e-3
#   clifford (1, 0.5) 4.43e-3 -> 1.20e-3, 7.53e-3 -> 1.77e-3, 1.63e-2 -> 4.17e-3, 3.59e-4 -> 9.79e-5
#   cylinder          2.06e-3 -> 5.52e-4, 4.36e-3 -> 1.06e-3, 8.46e-3 -> 2.16e-3, 1.28e-2 -> 3.21e-3
# (|A| and |H| alike); second order in h, as the O(h^2) stencils and the
# explicit dt ~ h^2 allow, and bounded at 32^2 with a margin of 1.5
CLOSED_FORM_RUNS = {
    "clifford-1-1": ("clifford", dict(R=1.0, r=1.0), 0.1,
                     lambda t: closed_forms.clifford(t, 1.0, 1.0),
                     dict(max_A=7.7e-4, max_H=7.7e-4, area=3.3e-3, twistor_energy=4.9e-3,
                          lambda1=1.6e-3)),
    "clifford-1-0.5": ("clifford", dict(R=1.0, r=0.5), 0.05,
                       lambda t: closed_forms.clifford(t, 1.0, 0.5),
                       dict(max_A=1.8e-3, max_H=1.8e-3, area=2.7e-3, twistor_energy=6.3e-3,
                            lambda1=1.5e-4)),
    "cylinder": ("custom-expression", dict(exprs=["u", "0*u", "cos(v)", "sin(v)"],
                                           periods=[TWO_PI] * 4), 0.1,
                 closed_forms.cylinder,
                 dict(max_A=8.3e-4, max_H=8.3e-4, area=1.6e-3, twistor_energy=3.3e-3,
                      lambda1=4.9e-3)),
}


@pytest.mark.parametrize("family", list(CLOSED_FORM_RUNS))
def test_flow_converges_to_the_closed_form(family):
    name, params, t_final, closed_form, bound = CLOSED_FORM_RUNS[family]
    errs = {}
    for n in (16, 32):
        cfg = FlowConfig(t_final=t_final, steps=10_000, lambda1_cadence=10_000)
        series, final = run_flow(cfg, scenario(name, n, n, **params))
        last = series.records[-1]
        assert series.stop_reason == "t_final" and t_final <= last.t < t_final + last.dt
        got = dict(vars(last), lambda1=lambda1(final.cache).lambda1)
        errs[n] = {key: abs(got[key] / val - 1) for key, val in closed_form(last.t).items()}
    for key in errs[16]:
        assert math.log2(errs[16][key] / errs[32][key]) >= 1.8, key
        assert errs[32][key] < bound[key], key


def test_area_monotone(clifford_run, pert_run):
    for series, _ in (clifford_run, pert_run):
        recs = series.records
        for a, b in zip(recs, recs[1:]):
            assert b.area <= a.area * (1 + 1e-10)


def test_series_refuses_a_non_positive_area(clifford_run):
    # a row whose area reached 0 breaks the series
    row = dataclasses.replace(clifford_run[0].records[0], area=0.0)
    with pytest.raises(NumericalError, match=r"non-positive area 0\.0 at t = 0\.0"):
        DiagnosticsSeries().append(row)


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
    grid = scenario("perturbed-complex-torus", 48, 48, eps=0.05)
    s1, f1 = run_flow(cfg, grid)
    s2, f2 = run_flow(cfg, grid)
    for a, b in zip(s1.records, s2.records):
        assert a == b
    assert s1.final_phase_spread == s2.final_phase_spread
    assert np.array_equal(f1.cache.grid.positions, f2.cache.grid.positions)


@pytest.mark.parametrize("name, params", [
    ("clifford", dict(R=1.0, r=1.0)),
    ("perturbed-complex-torus", dict(eps=0.3)),
    ("custom-expression", dict(exprs=["u", "v", "0.3*sin(u+v)", "cos(v)"], periods=[TWO_PI] * 4)),
], ids=["clifford", "perturbed", "custom"])
def test_run_from_a_snapshot_matches_the_sampled_run(tmp_path, name, params):
    # run_flow starts from any grid: a snapshot read back gives the run
    # the sampled scenario gives, row for row and bit for bit
    cfg = FlowConfig(steps=20, lambda1_cadence=5)
    grid = scenario(name, 16, 16, **params)
    save_snapshot(grid, tmp_path / "start.json")
    sampled, f1 = run_flow(cfg, grid)
    loaded, f2 = run_flow(cfg, load_snapshot(tmp_path / "start.json"))
    assert len(sampled.records) == 21 and sampled.records[-1].lambda1 is not None
    assert [repr(dataclasses.astuple(r)) for r in loaded.records] == [
        repr(dataclasses.astuple(r)) for r in sampled.records
    ]
    assert loaded.stop_reason == sampled.stop_reason
    assert repr(loaded.final_phase_spread) == repr(sampled.final_phase_spread)
    assert f2.cache.grid.ambient == f1.cache.grid.ambient
    assert f2.cache.grid.positions.tobytes() == f1.cache.grid.positions.tobytes()
    assert f2.phase.a.tobytes() == f1.phase.a.tobytes()


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


@pytest.mark.parametrize("window, message", [
    (2.0, "^decay window must be two real numbers, got 2.0$"),
    (None, "^decay window must be two real numbers, got None$"),
    ((0.0, 0.5, 1.0), r"^decay window must be two real numbers, got \(0.0, 0.5, 1.0\)$"),
    ((0.0, "x"), "^decay window bound must be a real number, got 'x'$"),
    ((True, 1.0), "^decay window bound must be a real number, got True$"),
], ids=["scalar", "None", "three", "str", "bool"])
def test_decay_fit_refuses_a_window_that_is_not_two_numbers(window, message):
    ts = np.linspace(0.0, 1.0, 60)
    series = _fake_series(ts, np.exp(-ts))
    with pytest.raises(InputError, match=message):
        decay_fit(series, window)
    # any pair of real numbers is a window, numpy scalars and arrays among them
    assert decay_fit(series, np.array([0.0, 1.0])) == decay_fit(series, (0, 1.0))


def test_decay_fit_on_real_run(pert_run):
    series, _ = pert_run
    rate, r2 = decay_fit(series, (0.4, 0.85))
    assert -2.3 < rate < -1.7
    assert r2 > 0.99
