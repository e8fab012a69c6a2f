"""Span tracer for the per-layer run.

The tracer wraps every public function of the hkflow layer modules at
every hkflow module that holds a reference to it (so `hkflow.cli.lambda1`,
`hkflow.spectral.lambda1` and the lazy import inside `run_flow` all hit
the same wrapper).  Nothing inside the package changes: spans are
recorded here, around the calls into each layer, kept in memory and
written once when the benchmark ends.

A span is (id, name, start, end, parent id, run id).  Self time is a
span's duration minus the time its direct child spans cover; calls are
sequential, so the children never overlap.
"""

import functools
import hashlib
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("surface", "phase", "flow", "spectral", "cli")
# sparse factorizations are counted, not spanned, so lambda1's self time
# keeps the cost of the factorization it starts
FACTORIZERS = ("splu", "spilu", "factorized")

# per-layer metric -> the spans it aggregates
GROUPS = {
    "phase.meters": (
        "phase.plf_residual",
        "phase.bja_identity",
        "phase.polar_identity_check",
        "phase.hyper_lagrangian_residual",
    ),
    "flow.efa_efe_monitor": ("flow.efa_monitor", "flow.efe_monitor"),
    "cli.run": ("cli.cmd_run",),
    "cli.check": ("cli.cmd_check",),
}

# (layer, stats) in report order.  calls and self_s are medians over the
# traced passes of per-pass totals; ms_p50 and ms_tail pool every span of
# the traced process, set-up included (that is where snapshots are saved)
SPAN_METRICS = (
    ("surface.compute_geometry", ("calls", "self_s", "ms_p50")),
    ("surface.load_snapshot", ("ms_p50",)),
    ("surface.save_snapshot", ("ms_p50",)),
    ("phase.field_from_array", ("calls", "self_s")),
    ("phase.tension_field", ("self_s",)),
    ("phase.phase_field", ("self_s",)),
    ("phase.meters", ("self_s",)),
    ("flow.coupled_step", ("calls", "ms_p50", "ms_tail", "self_s")),
    ("flow.mcf_step", ("self_s",)),
    ("flow.phase_heat_step", ("self_s",)),
    ("flow.metric_evolution_monitor", ("self_s",)),
    ("flow.efa_efe_monitor", ("self_s",)),
    ("flow.run_flow", ("self_s",)),
    ("spectral.lambda1", ("calls", "ms_p50", "ms_tail", "self_s")),
    ("spectral.laplacian_matrix", ("calls", "self_s")),
    ("spectral.geodesic_ball_volumes", ("calls", "ms_p50", "self_s")),
    ("spectral.c0_from_l2_validator", ("self_s",)),
    ("cli.run", ("self_s",)),
    ("cli.check", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "ms_p50": "ms", "ms_tail": "ms"}
OUTER_LAYERS = ("cli.run", "flow.run_flow")
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)


def tail(samples):
    """The highest percentile of the ladder with at least ten samples
    beyond it (nearest rank), else the median."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1]
    return statistics.median(ordered)


class Tracer:
    def __init__(self):
        self.spans = []
        self.available = set()
        self.run_id = None
        self.lambda1_results = []        # (run id, iterations, residual)
        self.ball_keys = []              # (run id, geometry fingerprint)
        self.factorizations = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._patches = []

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap the layer functions; `uninstall` restores the originals."""
        names = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"hkflow.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__:
                    names[id(fn)] = (fn, f"{layer}.{attr}")
        self.available = {name for _, name in names.values()}
        wrappers = {key: self._span_wrapper(name, fn) for key, (fn, name) in names.items()}

        import scipy.sparse.linalg as spla

        for attr in FACTORIZERS:
            fn = getattr(spla, attr, None)
            if fn is not None:
                names[id(fn)] = (fn, attr)
                wrappers[id(fn)] = self._count_wrapper(fn)
                self._patch(spla, attr, wrappers[id(fn)])

        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hkflow" or modname.startswith("hkflow.")):
                continue
            for attr, val in list(vars(mod).items()):
                entry = names.get(id(val))
                if entry is not None and entry[0] is val:
                    self._patch(mod, attr, wrappers[id(val)])

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _patch(self, mod, attr, wrapper):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _span_wrapper(self, name, fn):
        observe = {
            "spectral.lambda1": self._observe_lambda1,
            "spectral.geodesic_ball_volumes": self._observe_balls,
        }.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.run_id))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.factorizations[self.run_id] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe_lambda1(self, args, kwargs, result):
        self.lambda1_results.append(
            (self.run_id, getattr(result, "iterations", None), getattr(result, "residual", None))
        )

    def _observe_balls(self, args, kwargs, result):
        kwargs = dict(kwargs)
        cache = args[0] if args else kwargs.pop("cache")
        digest = hashlib.blake2b(digest_size=16)
        digest.update(cache.grid.positions.tobytes())
        digest.update(repr((args[1:], sorted(kwargs.items()))).encode())
        self.ball_keys.append((self.run_id, digest.hexdigest()))

    # ------------------------------------------------------------ analysis

    def self_times(self):
        """Per span: (name, run id, duration, self time)."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (name, run, end - start, end - start - covered[sid])
            for sid, name, start, end, _, run in self.spans
        ]

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run}
                    )
                    + "\n"
                )


def layer_metrics(tracer, traced_runs):
    """Per-layer metrics from the spans of the traced passes.

    Returns (metrics, absent): metrics maps name -> (value, unit); a
    layer whose functions no longer exist under their traced names is
    listed in `absent` and reported as 0 so the run still completes.
    """
    runs = set(traced_runs)
    per_run = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    durations = defaultdict(list)
    for name, run, dur, self_t in tracer.self_times():
        durations[name].append(dur)
        if run in runs:
            cell = per_run[run][name]
            cell[0] += 1
            cell[1] += self_t

    def per_pass(names, index):
        return statistics.median(
            sum(per_run[run][n][index] for n in names) for run in traced_runs
        )

    metrics, absent = {}, []
    for layer, stats in SPAN_METRICS:
        names = GROUPS.get(layer, (layer,))
        present = any(n in tracer.available for n in names)
        if not present:
            absent.append(layer)
        pooled = [d for n in names for d in durations[n]]
        for stat in stats:
            if not present:
                value = 0
            elif stat == "calls":
                value = per_pass(names, 0)
            elif stat == "self_s":
                value = per_pass(names, 1)
            elif stat == "ms_p50":
                value = 1e3 * statistics.median(pooled) if pooled else 0.0
            else:
                value = 1e3 * tail(pooled) if pooled else 0.0
            metrics[f"{layer}.{stat}"] = (value, UNITS[stat])

    lam = [r for r in tracer.lambda1_results if r[0] in runs]
    iterations = [r[1] for r in lam if r[1] is not None]
    residuals = [r[2] for r in lam if r[2] is not None]
    if not iterations:
        absent.append("spectral.lambda1.iterations")
    metrics["spectral.lambda1.iterations_mean"] = (
        statistics.fmean(iterations) if iterations else 0, "iter_computed"
    )
    metrics["spectral.lambda1.residual_max"] = (max(residuals, default=0), "residual")
    metrics["spectral.factorizations"] = (
        statistics.median(tracer.factorizations[run] for run in traced_runs), "count"
    )
    ratios = []
    for run in traced_runs:
        keys = [k for r, k in tracer.ball_keys if r == run]
        ratios.append(len(set(keys)) / len(keys) if keys else 0)
    metrics["spectral.ball_volumes.useful_ratio"] = (statistics.median(ratios), "ratio_computed")
    return metrics, absent
