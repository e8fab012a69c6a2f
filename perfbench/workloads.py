"""The hkflow workloads: set-up, timed passes, output gates, metrics.

Every workload drives the package from outside, through the command
line entry point `hkflow.cli.main(argv)` run in-process and through the
public library functions.  A run is: `init` the workload's snapshots
and manifests SETUP_REPEATS times (set-up), then passes until the
requested seconds have elapsed.  A pass runs the flow manifest, if the
workload has one, and then audits its surfaces: `check --json`,
`spectrum`, and a seeded sweep of `c0_from_l2_validator` calls with the
fields of acceptance criterion 7.

Each CLI command and each validator call is one operation.  It fails if
it exits nonzero, raises, or fails an output gate; repeated outputs of
one run, and of earlier runs of the same code and seed, must also be
byte-identical (the determinism gate).
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

import hkflow.cli
import hkflow.flow
import hkflow.spectral
import hkflow.surface

import spans

SETUP_REPEATS = 3
MIN_PASSES = 2          # the determinism gate compares passes
EPS_RANGE = (0.045, 0.055)
VALIDATOR_RADIUS = 0.5
VALIDATE_TAIL_PCT = 90.0
ANALYTIC_LAMBDA1_TOL = 1e-3
# criterion 5's reading of "never increases"
AREA_RTOL = 1e-10
ENERGY_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    inits: object           # rng -> [(stem, init arguments)]
    flow_gates: object      # (rows, stdout) -> problems; None: no flow step
    audit_repeats: int      # check and spectrum runs per surface per pass
    validator_calls: int    # validator fields per surface per pass
    analytic_lambda1: tuple = ()   # stems whose lambda1 is exactly 1


def _eps(rng):
    return repr(float(rng.uniform(*EPS_RANGE)))


def _grid(n):
    return ["--nu", str(n), "--nv", str(n)]


def _converge_inits(rng):
    return [(
        "converge",
        ["--scenario", "perturbed-complex-torus", *_grid(32), "--eps", _eps(rng),
         "--scheme", "euler", "--safety", "0.9", "--lambda1-cadence", "10",
         "--max-h-below", "1e-6", "--steps", "100000"],
    )]


def _march_inits(rng):
    # lambda1 cadence beyond the step count: the only lambda1 is at t = 0
    return [(
        "march",
        ["--scenario", "perturbed-complex-torus", *_grid(128), "--eps", _eps(rng),
         "--scheme", "euler", "--safety", "0.9", "--lambda1-cadence", "1000000",
         "--t-final", "0.05", "--steps", "100000"],
    )]


def _audit_inits(rng):
    return [
        ("clifford", ["--scenario", "clifford", *_grid(128), "--R", "1.0", "--r", "1.0"]),
        ("flat", ["--scenario", "flat-plane-torus", *_grid(128)]),
        ("perturbed", ["--scenario", "perturbed-complex-torus", *_grid(128), "--eps", _eps(rng)]),
        ("lagrangian", ["--scenario", "lagrangian-graph", *_grid(128), "--eps", _eps(rng)]),
    ]


def _monotone(rows):
    problems = []
    for a, b in zip(rows, rows[1:]):
        if b.area > a.area * (1 + AREA_RTOL):
            problems.append(f"area increases at t = {b.t}")
            break
    for a, b in zip(rows, rows[1:]):
        if b.twistor_energy > a.twistor_energy * (1 + ENERGY_RTOL):
            problems.append(f"twistor energy increases at t = {b.t}")
            break
    return problems


def _stop_reason(stdout):
    match = re.search(r"stop (\S+),", stdout)
    return match.group(1) if match else None


def _converge_gates(rows, stdout):
    problems = _monotone(rows)
    if _stop_reason(stdout) != "max_H_below":
        problems.append(f"stop reason {_stop_reason(stdout)!r}, expected max_H_below")
    if not rows[-1].max_H < 1e-6:
        problems.append(f"last max_H {rows[-1].max_H:.3e} is not below 1e-6")
    ratio = rows[-1].twistor_energy / rows[0].twistor_energy
    if not ratio < 1e-8:
        problems.append(f"energy ratio {ratio:.3e} is not below 1e-8")
    rate, rsq = hkflow.flow.decay_fit(rows, (2.0, 4.0))
    lam_late = [r.lambda1 for r in rows if r.lambda1 is not None][-1]
    rate_ratio = abs(rate) / (2.0 * lam_late)
    if not (1.0 <= rate_ratio <= 3.0 and rsq > 0.999):
        problems.append(f"decay rate ratio {rate_ratio:.4f} (r^2 {rsq:.6f}) outside [1, 3]")
    return problems


def _march_gates(rows, stdout):
    problems = _monotone(rows)
    if _stop_reason(stdout) != "t_final":
        problems.append(f"stop reason {_stop_reason(stdout)!r}, expected t_final")
    return problems


# Why each workload exists is recorded in README.md and BENCHMARK.json.
# Every workload makes at least 100 validator calls in MIN_PASSES passes,
# so at least ten samples lie beyond the p90 tail.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("converge-32", 32, _converge_inits, _converge_gates,
                 audit_repeats=3, validator_calls=50),
        Workload("march-128", 128, _march_inits, _march_gates,
                 audit_repeats=3, validator_calls=50),
        Workload("audit-128", 128, _audit_inits, None,
                 audit_repeats=2, validator_calls=13, analytic_lambda1=("clifford", "flat")),
    )
}


# ---------------------------------------------------------------- helpers


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_rows(path):
    with open(path, newline="") as fh:
        return [
            SimpleNamespace(**{k: float(v) if v else None for k, v in row.items()})
            for row in csv.DictReader(fh)
        ]


def _nearest_rank(samples, pct):
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _validator_fields(rng, n, count):
    """Criterion 7's recipe: four random Fourier modes of amplitude ~1e-4."""
    u = np.arange(n)[:, None] * (2.0 * np.pi / n)
    v = np.arange(n)[None, :] * (2.0 * np.pi / n)
    fields = []
    for _ in range(count):
        sigma = np.zeros((n, n))
        for _ in range(4):
            ku, kv = rng.integers(-4, 5, size=2)
            amp = 1e-4 * rng.standard_normal()
            sigma = sigma + amp * np.sin(ku * u + kv * v + rng.uniform(0, 2.0 * np.pi))
        fields.append(sigma)
    return fields


def _lipschitz(sigma, cache):
    du = (np.roll(sigma, -1, 0) - np.roll(sigma, 1, 0)) / (2 * cache.hu)
    dv = (np.roll(sigma, -1, 1) - np.roll(sigma, 1, 1)) / (2 * cache.hv)
    grad = np.sqrt(
        cache.ginv[..., 0, 0] * du**2
        + 2 * cache.ginv[..., 0, 1] * du * dv
        + cache.ginv[..., 1, 1] * dv**2
    ).max()
    return float(grad) * 1.05 + 1e-12


def cache_bytes(cache):
    """Bytes of every array the geometry cache holds (computed, not timed)."""
    return sum(v.nbytes for v in vars(cache).values() if isinstance(v, np.ndarray))


# ---------------------------------------------------------------- bench


class Bench:
    def __init__(self, workload, seed, workdir, tracer=None):
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {k: [] for k in ("solve_s", "check_ms", "spectrum_ms", "validate_ms")}
        self.digests = {}
        self.setup_times = []
        self.stems = []
        self.bytes_written = {"csv": 0, "snapshot": 0, "final": 0}

    # ------------------------------------------------------------ ops

    def _op(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def _digest(self, key, value, label):
        first = self.digests.setdefault(key, value)
        if first != value:
            self.failed += 1
            self.problems.append(f"{label}: output {key} differs from the first run of it")

    def _cli(self, argv):
        """hkflow.cli.main in-process: (exit code, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hkflow.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # an operation that raises counts as failed
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def _cli_op(self, label, argv):
        code, out, err, secs = self._cli(argv)
        ok = code == 0
        if not ok:
            self._op(label, [f"exit {code}: {err.strip()[-300:]}"])
        return ok, out, secs

    # ------------------------------------------------------------ set-up

    def setup(self, rng):
        specs = self.wl.inits(rng)
        for k in range(SETUP_REPEATS):
            self.set_run(f"setup{k}")
            batch = self.workdir / f"setup{k}"
            batch.mkdir(parents=True)
            start = time.perf_counter()
            for stem, argv in specs:
                ok, _, _ = self._cli_op(f"init {stem}", ["init", *argv, "--out", str(batch / stem)])
                if ok:
                    self._op(f"init {stem}", [])
            self.setup_times.append(time.perf_counter() - start)
            for stem, _ in specs:
                snap = batch / f"{stem}.snapshot.json"
                if snap.exists():
                    self._digest(f"snapshot:{stem}", _sha(snap), f"init {stem}")
        self.set_run(None)
        first = self.workdir / "setup0"
        self.stems = [(stem, first / stem) for stem, _ in specs]
        self.bytes_written["snapshot"] = sum(
            (first / f"{stem}.snapshot.json").stat().st_size
            for stem, _ in specs
            if (first / f"{stem}.snapshot.json").exists()
        )

    def set_run(self, run_id):
        if self.tracer is not None:
            self.tracer.run_id = run_id

    # ------------------------------------------------------------ pass

    def run_pass(self):
        wl = self.wl
        start = time.perf_counter()
        if wl.flow_gates is not None:
            stem, path = self.stems[0]
            targets = [(stem, Path(f"{path}.final.json"))]
            ok, out, secs = self._cli_op("run", ["run", f"{path}.manifest"])
            self.samples["solve_s"].append(secs)
            if ok:
                csv_path = Path(f"{path}.csv")
                try:
                    problems = wl.flow_gates(_read_rows(csv_path), out)
                except Exception as exc:  # a gate that cannot be evaluated fails
                    problems = [f"gate raised {exc!r}"]
                self._op("run", problems)
                self._digest("csv", _sha(csv_path), "run")
                self._digest("final", _sha(targets[0][1]), "run")
                self.bytes_written["csv"] = csv_path.stat().st_size
                self.bytes_written["final"] = targets[0][1].stat().st_size
        else:
            targets = [(stem, Path(f"{path}.snapshot.json")) for stem, path in self.stems]

        for k, (stem, snap) in enumerate(targets):
            for _ in range(wl.audit_repeats):
                self._check(stem, snap)
                self._spectrum(stem, snap)
            self._validate(k, stem, snap)
        if wl.flow_gates is None:
            self.samples["solve_s"].append(time.perf_counter() - start)

    def _check(self, stem, snap):
        report = snap.with_suffix(".check.json")
        ok, _, secs = self._cli_op(f"check {stem}", ["check", str(snap), "--json", str(report)])
        if not ok:
            return
        self.samples["check_ms"].append(1e3 * secs)
        try:
            doc = json.loads(report.read_text())
        except (OSError, ValueError) as exc:
            self._op(f"check {stem}", [f"unreadable report: {exc}"])
            return
        failing = [c["name"] for c in doc.get("checks", []) if c.get("status") == "FAIL"]
        self._op(f"check {stem}", [] if doc.get("all_pass") else [f"failing checks {failing}"])
        self._digest(f"check:{stem}", _sha(report), f"check {stem}")

    def _spectrum(self, stem, snap):
        ok, out, secs = self._cli_op(f"spectrum {stem}", ["spectrum", str(snap)])
        if not ok:
            return
        self.samples["spectrum_ms"].append(1e3 * secs)
        match = re.search(r"^lambda1 (\S+)$", out, re.MULTILINE)
        lam = float(match.group(1)) if match else math.nan
        problems = []
        if not (math.isfinite(lam) and lam > 0):
            problems.append(f"lambda1 {lam} is not a positive number")
        elif stem in self.wl.analytic_lambda1 and abs(lam - 1.0) > ANALYTIC_LAMBDA1_TOL:
            problems.append(f"lambda1 {lam!r} is not within {ANALYTIC_LAMBDA1_TOL} of 1")
        self._op(f"spectrum {stem}", problems)
        self._digest(f"spectrum:{stem}", out, f"spectrum {stem}")

    def _validate(self, k, stem, snap):
        label = f"validate {stem}"
        try:
            cache = hkflow.surface.compute_geometry(hkflow.surface.load_snapshot(str(snap)))
        except Exception as exc:  # no geometry: every call of the sweep fails
            for _ in range(self.wl.validator_calls):
                self._op(label, [f"geometry of {snap.name} raised {exc!r}"])
            return
        rng = np.random.default_rng([self.seed, k])
        outcome = []
        for sigma in _validator_fields(rng, self.wl.grid, self.wl.validator_calls):
            lam = _lipschitz(sigma, cache)
            start = time.perf_counter()
            try:
                res = hkflow.spectral.c0_from_l2_validator(
                    sigma, lam, cache, radius=VALIDATOR_RADIUS
                )
            except Exception as exc:  # a raising call counts as failed
                self._op(label, [f"raised {exc!r}"])
                continue
            self.samples["validate_ms"].append(1e3 * (time.perf_counter() - start))
            self._op(label, [] if res.holds else [f"bound {res.bound:.3e} < {res.max_observed:.3e}"])
            outcome.append((res.bound, res.max_observed, bool(res.holds)))
        self._digest(f"validate:{stem}", repr(outcome), label)


# ---------------------------------------------------------------- run


def _code_key(root, workload, seed):
    digest = hashlib.sha256()
    for base in (root / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(base)).encode())
            digest.update(path.read_bytes())
    digest.update(f"{platform.python_version()} {np.__version__} {scipy.__version__}".encode())
    return f"{digest.hexdigest()[:16]}:{workload}:{seed}"


def _replay_check(bench, store, key):
    """Compare this run's outputs with an earlier run of the same code and seed."""
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    earlier = known.get(key)
    if earlier is not None:
        for name, value in bench.digests.items():
            if name in earlier and earlier[name] != hashlib.sha256(value.encode()).hexdigest():
                bench.failed += 1
                bench.problems.append(f"replay: {name} differs from an earlier run of this seed")
        return "compared with an earlier run"
    known[key] = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in bench.digests.items()}
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return "first run of this code and seed, recorded"


def run(name, seed, seconds, trace, import_s, root, workdir, info):
    wl = WORKLOADS[name]
    run_dir = workdir / f"{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tracer = spans.Tracer() if trace else None
    bench = Bench(wl, seed, run_dir, tracer)
    try:
        if tracer is not None:
            tracer.install()
        try:
            bench.setup(np.random.default_rng(seed))
        finally:
            if tracer is not None:
                tracer.uninstall()

        # set-up traced, then passes alternate untraced / traced
        traced_runs, plain, traced_solve = [], [], []
        min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
        start = time.perf_counter()
        k = 0
        while k < min_passes or time.perf_counter() - start < seconds:
            traced_pass = trace and k % 2 == 1
            bench.set_run(f"pass{k}")
            if traced_pass:
                tracer.install()
            try:
                bench.run_pass()
            finally:
                if traced_pass:
                    tracer.uninstall()
            solve = bench.samples["solve_s"][-1]
            (traced_solve if traced_pass else plain).append(solve)
            if traced_pass:
                traced_runs.append(f"pass{k}")
            k += 1
        measured_s = time.perf_counter() - start
        bench.set_run(None)
        replay = _replay_check(bench, workdir / "digests.json", _code_key(root, name, seed))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        geometry = hkflow.surface.compute_geometry(
            hkflow.surface.load_snapshot(f"{bench.stems[0][1]}.snapshot.json")
        )
        cbytes = cache_bytes(geometry)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    s = bench.samples
    for problem in bench.problems[:20]:
        print(f"FAILED {problem}")
    empty = [key for key, vals in s.items() if not vals]
    if empty:
        raise SystemExit(f"benchmark: no successful operation timed for {', '.join(empty)}")
    validate_tail, beyond = _nearest_rank(s["validate_ms"], VALIDATE_TAIL_PCT)
    info.update(
        workload=name,
        seed=seed,
        passes=k,
        measured_s=round(measured_s, 3),
        solve_samples=" ".join(f"{x:.3f}" for x in plain),
        validate_samples=len(s["validate_ms"]),
        validate_tail=f"p{VALIDATE_TAIL_PCT:g} with {beyond} samples beyond it",
        determinism=f"{len(bench.digests)} outputs byte-identical within the run; {replay}",
        geometry_cache=f"{cbytes} B at {wl.grid}^2 (computed from array sizes)",
    )
    for level, size in (("L2", info.get("l2_bytes")), ("L3", info.get("l3_bytes"))):
        if size:
            info[f"geometry_cache_over_{level}"] = round(cbytes / size, 4)

    if not trace:
        metrics = {
            "setup_s": (import_s + statistics.median(bench.setup_times), "s"),
            "solve_s": (statistics.median(plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "check_ms_p50": (statistics.median(s["check_ms"]), "ms"),
            "spectrum_ms_p50": (statistics.median(s["spectrum_ms"]), "ms"),
            "validate_ms_p50": (statistics.median(s["validate_ms"]), "ms"),
            "validate_ms_tail": (validate_tail, "ms"),
        }
    else:
        metrics, absent = spans.layer_metrics(tracer, traced_runs)
        solve_traced = statistics.median(traced_solve)
        outer = sum(metrics[f"{layer}.self_s"][0] for layer in spans.OUTER_LAYERS)
        metrics.update({
            "surface.cache_bytes": (cbytes, "B_computed"),
            "cli.csv_bytes": (bench.bytes_written["csv"], "B_computed"),
            "cli.snapshot_bytes": (
                bench.bytes_written["snapshot"] + bench.bytes_written["final"],
                "B_computed",
            ),
            "trace.solve_s": (solve_traced, "s"),
            "trace.overhead_s": (solve_traced - statistics.median(plain), "s"),
            "trace.unexplained_frac": (outer / solve_traced, "ratio"),
        })
        info["absent_layers"] = ", ".join(absent) if absent else "none"
        spans_path = workdir / f"spans-{name}.jsonl"
        tracer.write(spans_path)
        info["spans"] = f"{len(tracer.spans)} spans written to {spans_path.relative_to(root)}"

    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
