"""Coupled mean-curvature / phase-heat flow with its monitor suite.

One step = move positions along H, rebuild the geometry, then heat-step
the phase on the updated metric.  The splitting defect is not assumed
small: consistency_check measures it by re-deriving the phase from the
moved frames and comparing against the heat-flow prediction.

All stepping is explicit and deterministic; stability is enforced, not
hoped for (displacement guard for the motion, parabolic bound for the
phase, unit-drift guard before each projection back to the sphere).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .kernel import standard_twistor_triple
from .phase import PhaseField, field_from_array, phase_field, tension_field, twistor_energy
from .surface import ScenarioSpec, SurfaceGrid, build_immersion, compute_geometry, surface_integral

DISPLACEMENT_FRACTION = 0.25    # of the shortest grid edge, per step
DRIFT_MARGIN = 1.5              # on the predicted pre-projection unit drift
DEFAULT_C_MON = 8.0             # calibrated stand-in for the frame constant


@dataclass(frozen=True)
class FlowConfig:
    """Integration policy.  dt fixed when given, else CFL with `safety`."""

    dt: float | None = None
    safety: float = 0.9
    scheme: str = "euler"
    steps: int = 100
    lambda1_cadence: int = 10
    consistency_cadence: int = 0      # 0 disables the per-step check
    c_mon: float = DEFAULT_C_MON
    max_h_below: float | None = None
    t_final: float | None = None

    def __post_init__(self):
        for name in ("dt", "c_mon", "max_h_below", "t_final"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise InputError(f"{name} must be finite, got {val}")
        if self.dt is not None and self.dt <= 0:
            raise InputError(f"fixed dt must be positive, got {self.dt}")
        if not 0 < self.safety <= 1:
            raise InputError(f"cfl safety must lie in (0, 1], got {self.safety}")
        if self.scheme not in ("euler", "rk2"):
            raise InputError(f"unknown scheme {self.scheme!r}")
        if self.steps < 0 or self.lambda1_cadence < 1 or self.consistency_cadence < 0:
            raise InputError("steps and cadences must be non-negative")


@dataclass
class SurfaceState:
    grid: SurfaceGrid
    cache: object
    phase: PhaseField
    triple: object


def make_state(grid, triple):
    cache = compute_geometry(grid)
    return SurfaceState(grid, cache, phase_field(cache, triple), triple)


@dataclass
class DiagnosticsRecord:
    t: float
    dt: float
    area: float
    twistor_energy: float
    max_H: float
    max_A: float
    min_a3: float
    hdp_margin: float
    metric_residual: float
    E_accum: float
    lambda1: float | None = None
    efa_residual: float | None = None
    efe_residual: float | None = None
    consistency_error: float | None = None
    # not part of the exchange format; used by the monitors
    max_grad_sq: float = 0.0
    min_alignment: float | None = None


@dataclass
class DiagnosticsSeries:
    records: list = field(default_factory=list)
    stop_reason: str = ""
    final_energy: float | None = None
    final_phase_spread: float | None = None

    def append(self, rec):
        if self.records and rec.t <= self.records[-1].t:
            raise InputError(f"time must increase, got {rec.t} after {self.records[-1].t}")
        if rec.area <= 0:
            raise InputError(f"non-positive area {rec.area} at t = {rec.t}")
        self.records.append(rec)


def metric_spacing(cache):
    """sqrt(min eigenvalue of g) x the shorter parameter step."""
    g = cache.g
    tr = g[..., 0, 0] + g[..., 1, 1]
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    lam_min = 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4 * det, 0.0)))
    return float(np.sqrt(lam_min.min())) * min(cache.hu, cache.hv)


def cfl_dt(cache, safety=0.9):
    """Parabolic bound with a curvature guard on the reaction terms."""
    hg = metric_spacing(cache)
    return safety * hg**2 / (4.0 * (1.0 + float(cache.norm_A_sq.max()) * hg**2))


def mcf_step(state, dt, scheme="euler"):
    """Move the immersion by its mean curvature for one step."""
    cache = state.cache
    if scheme == "euler":
        disp = dt * cache.H
    elif scheme == "rk2":
        half = state.grid.ambient.wrap(state.grid.positions + 0.5 * dt * cache.H)
        mid = compute_geometry(SurfaceGrid(state.grid.nu, state.grid.nv, half, state.grid.ambient))
        disp = dt * mid.H
    else:
        raise InputError(f"unknown scheme {scheme!r}")
    moved = float(np.linalg.norm(disp, axis=-1).max())
    limit = DISPLACEMENT_FRACTION * cache.min_edge
    if moved > limit:
        raise NumericalError(
            f"stability-violation: displacement {moved:.3e} exceeds "
            f"{DISPLACEMENT_FRACTION} of the shortest edge {cache.min_edge:.3e}"
        )
    grid = SurfaceGrid(
        state.grid.nu,
        state.grid.nv,
        state.grid.ambient.wrap(state.grid.positions + disp),
        state.grid.ambient,
    )
    new_cache = compute_geometry(grid)
    carried = field_from_array(state.phase.a, new_cache)
    return SurfaceState(grid, new_cache, carried, state.triple)


def phase_heat_step(pf, cache, dt):
    """Explicit step of (d/dt - Lap) a = |grad a|^2 a, projected to S^2."""
    hg = metric_spacing(cache)
    if dt > 0.25 * hg**2 * (1 + 1e-12):
        raise NumericalError(
            f"stability-violation: dt {dt:.3e} exceeds the parabolic bound "
            f"{0.25 * hg**2:.3e}"
        )
    tau = tension_field(pf, cache)
    raw = pf.a + dt * tau
    drift = float(np.abs(np.linalg.norm(raw, axis=-1) - 1.0).max())
    tau_sq = float((tau * tau).sum(-1).max())
    defect = float(np.abs((pf.a * tau).sum(-1)).max())
    bound = DRIFT_MARGIN * (dt**2 * tau_sq + dt * defect) + 1e-13
    if drift > bound:
        raise NumericalError(
            f"phase-drift {drift:.3e} exceeds the projection budget {bound:.3e}"
        )
    return field_from_array(raw, cache)


def consistency_check(state, pf_evolved):
    """Distance between the frame-derived phase and the heat-flow phase.

    The defect is returned raw (it scales as O(dt^2) + O(dt h^2) per step).
    """
    frame_phase = phase_field(state.cache, state.triple)
    return float(np.linalg.norm(frame_phase.a - pf_evolved.a, axis=-1).max())


def metric_evolution_monitor(before, after, dt):
    """Defect of d/dt g_ij = -2 H^alpha h^alpha_ij at the step scale."""
    rate = (after.cache.g - before.cache.g) / dt
    hten = np.einsum("...a,...aij->...ij", _normal_H(before.cache), before.cache.h)
    return float(np.abs(rate + 2.0 * hten).max())


def _normal_H(cache):
    return np.stack([(cache.H * cache.e3).sum(-1), (cache.H * cache.e4).sum(-1)], axis=-1)


def _record(state, t, dt, e_accum):
    cache, pf = state.cache, state.phase
    ones = np.ones_like(cache.sqrt_det_g)
    max_h_sq = float(cache.norm_H_sq.max())
    return DiagnosticsRecord(
        t=t,
        dt=dt,
        area=float(surface_integral(ones, cache)),
        twistor_energy=float(twistor_energy(pf, cache)),
        max_H=float(np.sqrt(max_h_sq)),
        max_A=float(np.sqrt(cache.norm_A_sq.max())),
        min_a3=float(pf.a[..., 2].min()),
        hdp_margin=float((2.0 * pf.energy_density - cache.norm_H_sq).min()),
        metric_residual=0.0,
        E_accum=e_accum,
        max_grad_sq=float(pf.energy_density.max()),
    )


def coupled_step(state, cfg, t=0.0, e_accum=0.0, with_consistency=False):
    """One MCF step, then one phase heat step on the moved geometry."""
    dt = cfg.dt if cfg.dt is not None else cfl_dt(state.cache, cfg.safety)
    pre_h = float(np.sqrt(state.cache.norm_H_sq.max()))
    pre_a = float(np.sqrt(state.cache.norm_A_sq.max()))

    moved = mcf_step(state, dt, cfg.scheme)
    new_pf = phase_heat_step(moved.phase, moved.cache, dt)
    new_state = replace(moved, phase=new_pf)

    rec = _record(new_state, t + dt, dt, e_accum + dt * (pre_h**2 + pre_a * pre_h))
    rec.metric_residual = metric_evolution_monitor(state, new_state, dt)
    if with_consistency:
        rec.consistency_error = consistency_check(new_state, new_pf)
    return new_state, rec


def efa_monitor(tail, c_mon=DEFAULT_C_MON):
    """Violation of the energy decay inequality between lambda1 samples.

    d/dt T <= (-2 lambda1 + C max|H||A| + 2 max|grad a|^2) T, everything
    on the right frozen at the left sample.
    """
    left, right = _lambda_pair(tail)
    rate = (right.twistor_energy - left.twistor_energy) / (right.t - left.t)
    rhs = (
        -2.0 * left.lambda1
        + c_mon * left.max_H * left.max_A
        + 2.0 * left.max_grad_sq
    ) * left.twistor_energy
    return _violation(rate - rhs)


def efe_monitor(tail, c_mon=DEFAULT_C_MON):
    """Violation of d/dt lambda1 >= -(max|H|^2 + C max|H||A|) lambda1."""
    left, right = _lambda_pair(tail)
    rate = (right.lambda1 - left.lambda1) / (right.t - left.t)
    rhs = (left.max_H**2 + c_mon * left.max_H * left.max_A) * left.lambda1
    return _violation(-rate - rhs)


def _violation(excess):
    """max(0, excess), except that NaN stays NaN instead of reading as held."""
    return 0.0 if excess <= 0 else excess


def _lambda_pair(tail):
    sampled = [r for r in tail if r.lambda1 is not None]
    if len(sampled) < 2:
        raise PreconditionError(
            f"insufficient-records: need two lambda1 samples, have {len(sampled)}"
        )
    return sampled[-2], sampled[-1]


def run_flow(cfg, scenario, triple=None, sink=None):
    """Drive the coupled flow from a scenario until a stop condition.

    `scenario` is a ScenarioSpec or an already-sampled SurfaceGrid.
    Emits every DiagnosticsRecord to `sink` as it is produced (the CSV
    writer in the command layer), including the t = 0 row.  On failure
    the partial series is already flushed; the raised error carries the
    step index.
    """
    from .spectral import lambda1 as solve_lambda1

    grid = build_immersion(scenario) if isinstance(scenario, ScenarioSpec) else scenario
    state = make_state(grid, triple if triple is not None else standard_twistor_triple())
    series = DiagnosticsSeries()
    w0 = _mean_phase_direction(state)

    def emit(rec, current):
        rec.min_alignment = float((current.phase.a @ w0).min())
        series.append(rec)
        if sink is not None:
            sink(rec)

    first = _record(state, 0.0, 0.0, 0.0)
    first.lambda1 = solve_lambda1(state.cache).lambda1
    emit(first, state)

    t, e_accum = 0.0, 0.0
    for step in range(1, cfg.steps + 1):
        max_h = float(np.sqrt(state.cache.norm_H_sq.max()))
        if cfg.max_h_below is not None and max_h < cfg.max_h_below:
            series.stop_reason = "max_H_below"
            break
        if cfg.t_final is not None and t >= cfg.t_final - 1e-15:
            series.stop_reason = "t_final"
            break
        try:
            with_cons = cfg.consistency_cadence > 0 and step % cfg.consistency_cadence == 0
            state, rec = coupled_step(
                state, cfg, t=t, e_accum=e_accum, with_consistency=with_cons
            )
        except NumericalError as exc:
            exc.step = step
            raise NumericalError(f"step {step}: {exc}", step=step) from exc
        t, e_accum = rec.t, rec.E_accum
        if step % cfg.lambda1_cadence == 0:
            rec.lambda1 = solve_lambda1(state.cache).lambda1
            tail = series.records + [rec]
            try:
                rec.efa_residual = efa_monitor(tail, cfg.c_mon)
                rec.efe_residual = efe_monitor(tail, cfg.c_mon)
            except PreconditionError:
                pass
        emit(rec, state)
    else:
        series.stop_reason = "steps"

    series.final_energy = series.records[-1].twistor_energy
    series.final_phase_spread = _phase_spread(state)
    return series, state


def _mean_phase_direction(state):
    w = state.cache.node_area()[..., None]
    mean = (state.phase.a * w).sum((0, 1))
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        return np.array([0.0, 0.0, 1.0])
    return mean / norm


def _phase_spread(state):
    wstar = _mean_phase_direction(state)
    dots = np.clip(state.phase.a @ wstar, -1.0, 1.0)
    return float(np.arccos(dots).max())


def decay_fit(series, window):
    """Least-squares slope of log T over records with t inside window."""
    lo, hi = window
    records = series.records if isinstance(series, DiagnosticsSeries) else list(series)
    picked = [r for r in records if lo <= r.t <= hi]
    if any(r.twistor_energy <= 0 for r in picked):
        raise PreconditionError("nonpositive-energy: cannot fit log of the series")
    if len(picked) < 10:
        raise PreconditionError(
            f"insufficient-samples: {len(picked)} records in [{lo}, {hi}], need 10"
        )
    t = np.array([r.t for r in picked])
    y = np.log([r.twistor_energy for r in picked])
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot < 1e-28 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared
