"""Coupled mean-curvature / phase-heat flow with its monitor suite.

A SurfaceState is what evolves: the geometry cache, whose grid is
cache.grid, and the phase, read through the kernel's pinned triple.  One
step = move positions along H, rebuild the geometry, then heat-step the
phase on the updated metric.  The splitting defect is not assumed small:
consistency_check measures it by re-deriving the phase from the moved
frames and comparing against the heat-flow prediction.

run_flow is the one stepping loop: it hands each row and the state it was
measured on to one `observe(rec, state)` callback, so a CSV writer or a
meter rides on the run instead of stepping it again.

All stepping is explicit and deterministic; stability is enforced, not
hoped for (displacement guard for the motion, parabolic bound for the
phase, unit-drift guard before each projection back to the sphere).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .kernel import _dot
from .phase import PhaseField, field_from_array, phase_field, tension_field, twistor_energy
from .spectral import lambda1
from .surface import _lam_min, _planes, build_immersion, compute_geometry, surface_integral

DISPLACEMENT_FRACTION = 0.25    # of the shortest grid edge, per step
DRIFT_MARGIN = 1.5              # on the predicted pre-projection unit drift
DEFAULT_C_MON = 8.0             # calibrated stand-in for the frame constant
SCHEMES = ("euler", "rk2")


@dataclass(frozen=True)
class FlowConfig:
    """Integration policy.  dt fixed when given, else CFL with `safety`."""

    dt: float | None = None
    safety: float = 0.9
    scheme: str = "euler"
    steps: int = 5000
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
        if self.scheme not in SCHEMES:
            raise InputError(f"unknown scheme {self.scheme!r}")
        for name, low in (("steps", 0), ("lambda1_cadence", 1), ("consistency_cadence", 0)):
            if not getattr(self, name) >= low:
                raise InputError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class SurfaceState:
    cache: object
    phase: PhaseField


def make_state(grid):
    cache = compute_geometry(grid)
    return SurfaceState(cache, phase_field(cache))


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
    final_phase_spread: float | None = None

    def append(self, rec):
        # the run broke the series, not its input: a step that no longer
        # advances t, or a surface whose area reached 0
        if self.records and rec.t <= self.records[-1].t:
            raise NumericalError(f"time must increase, got {rec.t} after {self.records[-1].t}")
        if rec.area <= 0:
            raise NumericalError(f"non-positive area {rec.area} at t = {rec.t}")
        self.records.append(rec)


def metric_spacing(cache):
    """sqrt(min eigenvalue of g) x the shorter parameter step.

    Computed once per cache: the phase step reads it on the moved cache,
    and the next step's cfl_dt on that same cache.
    """
    return cache._memoized(
        "metric_spacing",
        lambda: float(np.sqrt(_lam_min(_planes(cache.g, 2)).min())) * min(cache.hu, cache.hv),
    )


def cfl_dt(cache, safety=0.9):
    """Parabolic bound with a curvature guard on the reaction terms."""
    hg = metric_spacing(cache)
    return safety * hg**2 / (4.0 * (1.0 + float(cache.norm_A_sq.max()) * hg**2))


def mcf_step(state, dt, scheme="euler"):
    """Move the immersion by its mean curvature for one step."""
    cache, grid = state.cache, state.cache.grid
    if scheme == "euler":
        disp = dt * cache.H
    elif scheme == "rk2":
        half = grid.ambient.wrap(grid.positions + 0.5 * dt * cache.H)
        disp = dt * compute_geometry(replace(grid, positions=half)).H
    else:
        raise InputError(f"unknown scheme {scheme!r}")
    step = _planes(disp)
    moved = float(np.sqrt(_dot(step, step)).max())
    limit = DISPLACEMENT_FRACTION * cache.min_edge
    if not moved <= limit:                      # NaN fails too
        raise NumericalError(
            f"stability-violation: displacement {moved:.3e} exceeds "
            f"{DISPLACEMENT_FRACTION} of the shortest edge {cache.min_edge:.3e}"
            if math.isfinite(moved)
            else f"non-finite displacement {moved} in the mean curvature step"
        )
    after = compute_geometry(replace(grid, positions=grid.ambient.wrap(grid.positions + disp)))
    return SurfaceState(after, field_from_array(state.phase.a, after))


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
    raw_p, tau_p = _planes(raw), _planes(tau)
    drift = float(np.abs(np.sqrt(_dot(raw_p, raw_p)) - 1.0).max())
    tau_sq = float(_dot(tau_p, tau_p).max())
    defect = float(np.abs(_dot(_planes(pf.a), tau_p)).max())
    bound = DRIFT_MARGIN * (dt**2 * tau_sq + dt * defect) + 1e-13
    if not drift <= bound:                      # NaN fails too
        raise NumericalError(
            f"phase-drift {drift:.3e} exceeds the projection budget {bound:.3e}"
            if math.isfinite(drift)
            else f"non-finite phase: unit drift {drift} before the projection"
        )
    return field_from_array(raw, cache)


def consistency_check(state, pf_evolved):
    """Distance between the frame-derived phase and the heat-flow phase.

    The defect is returned raw (it scales as O(dt^2) + O(dt h^2) per step).
    """
    gap = _planes(phase_field(state.cache).a - pf_evolved.a)
    return float(np.sqrt(_dot(gap, gap)).max())


def metric_evolution_monitor(before, after, dt):
    """Defect of d/dt g_ij = -2 H^alpha h^alpha_ij at the step scale."""
    rate = (_planes(after.cache.g, 2) - _planes(before.cache.g, 2)) / dt
    n3, n4 = _normal_H(before.cache)
    h = _planes(before.cache.h, 3)
    return float(np.abs(rate + 2.0 * (n3 * h[0] + n4 * h[1])).max())


def _normal_H(cache):
    """(<H, e3>, <H, e4>) as planes (2, nu, nv)."""
    big_h = _planes(cache.H)
    return np.stack([_dot(big_h, _planes(cache.e3)), _dot(big_h, _planes(cache.e4))])


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


def efa_monitor(left, right, c_mon=DEFAULT_C_MON):
    """Violation of the energy decay inequality between lambda1 samples.

    d/dt T <= (-2 lambda1 + C max|H||A| + 2 max|grad a|^2) T, everything
    on the right frozen at the left sample.
    """
    _require_lambda1(left, right)
    rate = (right.twistor_energy - left.twistor_energy) / (right.t - left.t)
    rhs = (
        -2.0 * left.lambda1
        + c_mon * left.max_H * left.max_A
        + 2.0 * left.max_grad_sq
    ) * left.twistor_energy
    return _violation(rate - rhs)


def efe_monitor(left, right, c_mon=DEFAULT_C_MON):
    """Violation of d/dt lambda1 >= -(max|H|^2 + C max|H||A|) lambda1."""
    _require_lambda1(left, right)
    rate = (right.lambda1 - left.lambda1) / (right.t - left.t)
    rhs = (left.max_H**2 + c_mon * left.max_H * left.max_A) * left.lambda1
    return _violation(-rate - rhs)


def _violation(excess):
    """max(0, excess), except that NaN stays NaN instead of reading as held."""
    return 0.0 if excess <= 0 else excess


def _require_lambda1(*recs):
    if any(rec.lambda1 is None for rec in recs):
        raise PreconditionError("insufficient-records: a record carries no lambda1 sample")


def run_flow(cfg, scenario, observe=None):
    """Drive the coupled flow from a scenario until a stop condition.

    Every DiagnosticsRecord, the t = 0 row included, is appended to the
    series and then handed to `observe(rec, state)` with the state it
    was measured on; the state of the last row is the returned final
    state.  A NumericalError raised along the way is re-raised as
    "step k: ..." with `step = k` (the t = 0 row is step 0), after the
    rows before it have been observed.
    """
    grid = build_immersion(scenario)
    series = DiagnosticsSeries()
    step = 0
    try:
        state = make_state(grid)
        w0 = _mean_phase_direction(state)

        def emit(rec, current):
            rec.min_alignment = float(_alignment(current, w0).min())
            series.append(rec)
            if observe is not None:
                observe(rec, current)

        sampled = _record(state, 0.0, 0.0, 0.0)    # the last row with lambda1
        sampled.lambda1 = lambda1(state.cache).lambda1
        emit(sampled, state)

        t, e_accum = 0.0, 0.0
        for step in range(1, cfg.steps + 1):
            max_h = float(np.sqrt(state.cache.norm_H_sq.max()))
            if cfg.max_h_below is not None and max_h < cfg.max_h_below:
                series.stop_reason = "max_H_below"
                break
            if cfg.t_final is not None and t >= cfg.t_final - 1e-15:
                series.stop_reason = "t_final"
                break
            with_cons = cfg.consistency_cadence > 0 and step % cfg.consistency_cadence == 0
            state, rec = coupled_step(
                state, cfg, t=t, e_accum=e_accum, with_consistency=with_cons
            )
            t, e_accum = rec.t, rec.E_accum
            if step % cfg.lambda1_cadence == 0:
                rec.lambda1 = lambda1(state.cache).lambda1
                rec.efa_residual = efa_monitor(sampled, rec, cfg.c_mon)
                rec.efe_residual = efe_monitor(sampled, rec, cfg.c_mon)
                sampled = rec
            emit(rec, state)
        else:
            series.stop_reason = "steps"
    except NumericalError as exc:
        raise NumericalError(f"step {step}: {exc}", step=step) from exc

    series.final_phase_spread = _phase_spread(state)
    return series, state


def _mean_phase_direction(state):
    w = state.cache.node_area()[..., None]
    mean = (state.phase.a * w).sum((0, 1))
    norm = np.sqrt(_dot(mean, mean))
    if norm < 1e-12:
        return np.array([0.0, 0.0, 1.0])
    return mean / norm


def _alignment(state, w):
    """<a, w> per node for one unit direction w."""
    return _dot(_planes(state.phase.a), w[:, None, None])


def _phase_spread(state):
    dots = np.clip(_alignment(state, _mean_phase_direction(state)), -1.0, 1.0)
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
