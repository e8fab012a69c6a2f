"""Command line front end: scenario setup, flow runs, invariant checks.

Four subcommands: `init` samples a scenario onto a grid and writes a
snapshot plus a run manifest, `run` replays a manifest into a CSV series
(and optional SVG plots), `check` executes the whole invariant suite on
one snapshot, `spectrum` reports the first nonzero eigenvalue.

The manifest is flat key = value text so that runs diff cleanly; the CSV
is the interface of record (fixed 17-significant-digit scientific
notation, empty cells where a cadence skipped a column).  Exit codes:
0 success, 2 validation failure, 3 numerical failure, 4 I/O failure.
"""

import argparse
import json
import math
import platform
import sys

import numpy as np

from . import __version__
from .errors import HkflowError, InputError, IOFailure, NumericalError, PreconditionError
from .flow import FlowConfig, run_flow
from .kernel import standard_twistor_triple
from .phase import (
    bja_identity,
    hyper_lagrangian_residual,
    phase_field,
    plf_residual,
    polar_identity_check,
)
from .spectral import RESIDUAL_TOL, lambda1, laplacian_matrix
from .surface import (
    build_immersion,
    compute_geometry,
    gauss_curvature_check,
    load_snapshot,
    save_snapshot,
    scenario,
)

TRIPLE_TAG = "right-quaternion(-i,-j,-k)"

CSV_COLUMNS = (
    "t,dt,area,twistor_energy,lambda1,max_H,max_A,min_a3,hdp_margin,"
    "efa_residual,efe_residual,metric_residual,E_accum,consistency_error"
)

# identity meters were measured at 5e-3 on the curved scenarios at 64^2;
# the tolerance tightens quadratically with the grid and never goes
# below the roundoff floor
CHECK_TOL_64 = 5e-3
CHECK_TOL_FLOOR = 1e-9

SCENARIO_NAMES = (
    "flat-plane-torus",
    "clifford",
    "perturbed-complex-torus",
    "lagrangian-graph",
    "custom-expression",
)
SCENARIO_PARAMS = ("eps", "R", "r", "Lu", "Lv")


# ---------------------------------------------------------------- manifest


def _fmt_value(val):
    if isinstance(val, float):
        return repr(val)
    return str(val)


def write_manifest(path, entries):
    try:
        with open(path, "w") as fh:
            for key, val in entries:
                fh.write(f"{key} = {_fmt_value(val)}\n")
    except OSError as exc:
        raise IOFailure(f"cannot write manifest {path}: {exc}") from exc


def read_manifest(path):
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IOFailure(f"cannot read manifest {path}: {exc}") from exc
    doc = {}
    for n, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InputError(f"{path}:{n}: expected key = value, got {line.rstrip()!r}")
        key, val = body.split("=", 1)
        key = key.strip()
        if key in doc:
            raise InputError(f"{path}:{n}: duplicate key {key!r}")
        doc[key] = val.strip()
    return doc


def _manifest_number(doc, key, kind, default=None):
    raw = doc.get(key, default)
    if raw is None:
        raise InputError(f"manifest is missing {key}")
    try:
        val = kind(raw)
    except ValueError:
        raise InputError(f"manifest key {key} must be {kind.__name__}, got {raw!r}") from None
    if not math.isfinite(val):
        raise InputError(f"manifest key {key} must be finite, got {raw!r}")
    return val


def _parse_periods(text, label):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"{label} must be comma separated numbers, got {text!r}") from None


def _scenario_from_manifest(doc):
    name = doc.get("scenario")
    if name not in SCENARIO_NAMES:
        raise InputError(f"manifest names unknown scenario {name!r}")
    params = {}
    for key in SCENARIO_PARAMS:
        if key in doc:
            params[key] = _manifest_number(doc, key, float)
    if "exprs" in doc:
        params["exprs"] = doc["exprs"].split(";")
    if "periods" in doc:
        params["periods"] = _parse_periods(doc["periods"], "manifest key periods")
    nu, nv = _manifest_number(doc, "nu", int), _manifest_number(doc, "nv", int)
    return scenario(name, nu, nv, **params)


def _config_from_manifest(doc):
    # the format keeps no on/off switches: a manifest may still carry one
    # set to true, the only behaviour there is, but false has no path
    for key, val in doc.items():
        if val == "false":
            raise InputError(f"manifest key {key} = false is not supported; it is always on")
    dt_raw = doc.get("dt_flow_time", "cfl")
    dt = None if dt_raw == "cfl" else _manifest_number(doc, "dt_flow_time", float)
    kw = dict(
        dt=dt,
        safety=_manifest_number(doc, "cfl_safety", float, "0.9"),
        scheme=doc.get("scheme", "euler"),
        steps=_manifest_number(doc, "steps", int, "5000"),
        lambda1_cadence=_manifest_number(doc, "lambda1_cadence", int, "10"),
        consistency_cadence=_manifest_number(doc, "consistency_cadence", int, "0"),
        c_mon=_manifest_number(doc, "c_mon", float, "8.0"),
    )
    if "stop_max_h_below" in doc:
        kw["max_h_below"] = _manifest_number(doc, "stop_max_h_below", float)
    if "stop_t_final_flow_time" in doc:
        kw["t_final"] = _manifest_number(doc, "stop_t_final_flow_time", float)
    return FlowConfig(**kw)


def _platform_tag():
    return (
        f"{platform.system()}-{platform.machine()}"
        f"-py{platform.python_version()}-numpy{np.__version__}"
    )


# ---------------------------------------------------------------- init


def cmd_init(args):
    params = {}
    for key in SCENARIO_PARAMS:
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    if args.exprs is not None:
        params["exprs"] = args.exprs.split(";")
    if args.periods is not None:
        params["periods"] = _parse_periods(args.periods, "--periods")
    spec = scenario(args.scenario, args.nu, args.nv, **params)
    grid = build_immersion(spec)
    compute_geometry(grid)  # reject degenerate setups before writing anything

    stem = args.out or f"{args.scenario}-{args.nu}x{args.nv}"
    snapshot_path = f"{stem}.snapshot.json"
    manifest_path = f"{stem}.manifest"
    save_snapshot(grid, snapshot_path)

    entries = [
        ("format_version", 1),
        ("scenario", args.scenario),
        ("nu", args.nu),
        ("nv", args.nv),
    ]
    for key in SCENARIO_PARAMS:
        if key in params:
            entries.append((key, params[key]))
    if "exprs" in params:
        entries.append(("exprs", ";".join(params["exprs"])))
    if "periods" in params:
        entries.append(("periods", ",".join(repr(x) for x in params["periods"])))
    entries += [
        ("dt_flow_time", "cfl" if args.dt is None else args.dt),
        ("cfl_safety", args.safety),
        ("scheme", args.scheme),
        ("steps", args.steps),
        ("lambda1_cadence", args.lambda1_cadence),
        ("consistency_cadence", args.consistency_cadence),
        ("c_mon", args.c_mon),
    ]
    if args.max_h_below is not None:
        entries.append(("stop_max_h_below", args.max_h_below))
    if args.t_final is not None:
        entries.append(("stop_t_final_flow_time", args.t_final))
    entries += [
        ("triple", TRIPLE_TAG),
        ("tool_version", __version__),
        ("platform", _platform_tag()),
        ("snapshot_path", snapshot_path),
        ("csv_path", f"{stem}.csv"),
        ("final_snapshot_path", f"{stem}.final.json"),
    ]
    write_manifest(manifest_path, entries)
    print(f"wrote {snapshot_path} ({args.nu * args.nv} nodes) and {manifest_path}")
    return 0


# ---------------------------------------------------------------- run


def _csv_cell(val):
    return "" if val is None else f"{val:.16e}"


def _csv_row(rec):
    cells = (
        rec.t,
        rec.dt,
        rec.area,
        rec.twistor_energy,
        rec.lambda1,
        rec.max_H,
        rec.max_A,
        rec.min_a3,
        rec.hdp_margin,
        rec.efa_residual,
        rec.efe_residual,
        rec.metric_residual,
        rec.E_accum,
        rec.consistency_error,
    )
    return ",".join(_csv_cell(c) for c in cells)


def _svg_line_plot(path, xs, ys, xlabel, ylabel):
    width, height = 640, 400
    ml, mr, mt, mb = 70, 20, 20, 45
    pts = [(x, y) for x, y in zip(xs, ys) if np.isfinite(x) and np.isfinite(y)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="#333"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="#333"/>',
    ]
    if len(pts) >= 2:
        x0 = min(p[0] for p in pts)
        x1 = max(p[0] for p in pts)
        y0 = min(p[1] for p in pts)
        y1 = max(p[1] for p in pts)
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 1.0, y1 + 1.0

        def px(x):
            return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

        def py(y):
            return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

        for i in range(5):
            xv = x0 + i * (x1 - x0) / 4
            yv = y0 + i * (y1 - y0) / 4
            parts.append(
                f'<line x1="{px(xv):.1f}" y1="{height - mb}" x2="{px(xv):.1f}" '
                f'y2="{height - mb + 5}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{px(xv):.1f}" y="{height - mb + 18}" font-size="11" '
                f'text-anchor="middle">{xv:.4g}</text>'
            )
            parts.append(
                f'<line x1="{ml - 5}" y1="{py(yv):.1f}" x2="{ml}" y2="{py(yv):.1f}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{ml - 8}" y="{py(yv):.1f}" font-size="11" '
                f'text-anchor="end" dominant-baseline="middle">{yv:.4g}</text>'
            )
        poly = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{poly}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        )
    else:
        parts.append(
            f'<text x="{width / 2}" y="{height / 2}" font-size="14" '
            f'text-anchor="middle">no data</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2}" y="{height - 8}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(mt + height - mb) / 2})">{ylabel}</text>'
    )
    parts.append("</svg>")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise IOFailure(f"cannot write plot {path}: {exc}") from exc


def cmd_run(args):
    doc = read_manifest(args.manifest)
    if doc.get("triple", TRIPLE_TAG) != TRIPLE_TAG:
        raise InputError(f"unsupported triple convention {doc.get('triple')!r}")
    spec = _scenario_from_manifest(doc)
    cfg = _config_from_manifest(doc)
    csv_path = doc.get("csv_path")
    if not csv_path:
        raise InputError("manifest is missing csv_path")

    try:
        fh = open(csv_path, "w")
    except OSError as exc:
        raise IOFailure(f"cannot write series {csv_path}: {exc}") from exc
    fh.write(CSV_COLUMNS + "\n")

    def sink(rec):
        fh.write(_csv_row(rec) + "\n")
        fh.flush()

    # rows written so far survive a mid-run numerical failure
    try:
        series, final = run_flow(cfg, spec, sink=sink)
    finally:
        fh.close()

    final_path = doc.get("final_snapshot_path")
    if final_path:
        save_snapshot(final.grid, final_path)
    if args.plot:
        stem = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
        recs = series.records
        ts = [r.t for r in recs]
        logs = [
            np.log10(r.twistor_energy) if r.twistor_energy > 0 else np.nan for r in recs
        ]
        _svg_line_plot(f"{stem}_energy.svg", ts, logs, "t", "log10 twistor energy")
        lam_t = [r.t for r in recs if r.lambda1 is not None]
        lam = [r.lambda1 for r in recs if r.lambda1 is not None]
        _svg_line_plot(f"{stem}_lambda1.svg", lam_t, lam, "t", "lambda1")
    print(
        f"wrote {csv_path}: {len(series.records)} rows, stop {series.stop_reason}, "
        f"final twistor energy {series.final_energy:.6e}"
    )
    return 0


# ---------------------------------------------------------------- check


def _run_checks(cache):
    triple = standard_twistor_triple()
    nu, nv = cache.grid.nu, cache.grid.nv
    h = 2.0 * np.pi / min(nu, nv)
    href = 2.0 * np.pi / 64.0
    tol_id = max(CHECK_TOL_64 * (h / href) ** 2, CHECK_TOL_FLOOR)
    checks = []

    def residual(name, measured, tol):
        checks.append(
            {
                "name": name,
                "status": "PASS" if measured <= tol else "FAIL",
                "measured": float(measured),
                "tolerance": float(tol),
                "direction": "below",
            }
        )

    def lower_bound(name, measured, bound):
        checks.append(
            {
                "name": name,
                "status": "PASS" if measured >= bound else "FAIL",
                "measured": float(measured),
                "tolerance": float(bound),
                "direction": "above",
            }
        )

    js = (triple.j1, triple.j2, triple.j3)
    prod = max(
        np.abs(js[0] @ js[1] - js[2]).max(),
        np.abs(js[1] @ js[2] - js[0]).max(),
        np.abs(js[2] @ js[0] - js[1]).max(),
    )
    residual("quaternion-product-table", prod, 1e-12)
    residual("j-squared", max(np.abs(j @ j + np.eye(4)).max() for j in js), 1e-12)
    residual("j-isometry", max(np.abs(j.T @ j - np.eye(4)).max() for j in js), 1e-12)

    residual("metric-symmetry", np.abs(cache.g[..., 0, 1] - cache.g[..., 1, 0]).max(), 1e-12)
    eig_min = np.linalg.eigvalsh(cache.g).min()
    lower_bound("metric-positivity", eig_min, 1e-10)
    frames = np.stack([cache.e1, cache.e2, cache.e3, cache.e4], axis=2)
    gram = np.einsum("ijad,ijbd->ijab", frames, frames)
    residual("frame-orthonormality", np.abs(gram - np.eye(4)).max(), 1e-8)
    mat, _ = laplacian_matrix(cache)
    asym = abs(mat - mat.T).max() / max(abs(mat).max(), 1e-300)
    residual("laplacian-symmetry", asym, 1e-10)
    residual("gauss-curvature", gauss_curvature_check(cache).max(), tol_id)

    pf = phase_field(cache, triple)
    residual("plf-identity", plf_residual(cache, pf, triple).max(), tol_id)
    lhs, rhs, _ = bja_identity(cache, pf, triple)
    residual("bja-identity", np.abs(lhs - rhs).max(), tol_id)
    try:
        residual("etd-polar-identity", polar_identity_check(pf, cache).max(), tol_id)
    except PreconditionError as exc:
        checks.append({"name": "etd-polar-identity", "status": "SKIP", "reason": str(exc)})
    residual(
        "hyper-lagrangian-residual",
        hyper_lagrangian_residual(cache, pf, triple).max(),
        tol_id,
    )
    margin = (2.0 * pf.energy_density - cache.norm_H_sq).min()
    slack = 10.0 * h**2 * cache.norm_A_sq.max()
    lower_bound("hdp-margin", margin, -slack)

    spec_res = lambda1(cache)
    lower_bound("lambda1-positive", spec_res.lambda1, 1e-10)
    residual("lambda1-residual", spec_res.residual, RESIDUAL_TOL)
    return checks


def cmd_check(args):
    grid = load_snapshot(args.snapshot)
    cache = compute_geometry(grid)
    checks = _run_checks(cache)
    for chk in checks:
        if chk["status"] == "SKIP":
            print(f"{chk['name']:<26} SKIP ({chk['reason']})")
        else:
            rel = "<=" if chk["direction"] == "below" else ">="
            print(
                f"{chk['name']:<26} {chk['status']} measured {chk['measured']:.3e} "
                f"{rel} {chk['tolerance']:.3e}"
            )
    all_pass = all(chk["status"] != "FAIL" for chk in checks)
    if args.json:
        doc = {"snapshot": args.snapshot, "all_pass": all_pass, "checks": checks}
        try:
            with open(args.json, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise IOFailure(f"cannot write report {args.json}: {exc}") from exc
    print("all checks passed" if all_pass else "CHECK FAILURES")
    return 0 if all_pass else 2


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args):
    grid = load_snapshot(args.snapshot)
    cache = compute_geometry(grid)
    res = lambda1(cache)
    print(f"lambda1 {res.lambda1!r}")
    print(f"residual {res.residual:.6e}")
    print(f"iterations {res.iterations}")
    if args.eigenfunction:
        doc = {
            "nu": grid.nu,
            "nv": grid.nv,
            "lambda1": res.lambda1,
            "values": [float(x) for x in res.vector.reshape(-1)],
        }
        try:
            with open(args.eigenfunction, "w") as fh:
                json.dump(doc, fh)
                fh.write("\n")
        except OSError as exc:
            raise IOFailure(f"cannot write eigenfunction {args.eigenfunction}: {exc}") from exc
    return 0


# ---------------------------------------------------------------- entry


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hkflow", description="mean curvature flow laboratory for tori in flat R^4/T^4"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="sample a scenario and write snapshot + manifest")
    p_init.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    p_init.add_argument("--nu", type=int, default=64)
    p_init.add_argument("--nv", type=int, default=64)
    for key in SCENARIO_PARAMS:
        p_init.add_argument(f"--{key}", type=float, default=None)
    p_init.add_argument("--exprs", default=None, help="4 expressions joined with ;")
    p_init.add_argument("--periods", default=None, help="ambient periods, comma separated")
    p_init.add_argument("--out", default=None, help="output stem (default scenario-NUxNV)")
    p_init.add_argument("--dt", type=float, default=None, help="fixed step (default: cfl)")
    p_init.add_argument("--safety", type=float, default=0.9)
    p_init.add_argument("--scheme", default="euler", choices=("euler", "rk2"))
    p_init.add_argument("--steps", type=int, default=5000)
    p_init.add_argument("--lambda1-cadence", type=int, default=10)
    p_init.add_argument("--consistency-cadence", type=int, default=0)
    p_init.add_argument("--c-mon", type=float, default=8.0)
    p_init.add_argument("--max-h-below", type=float, default=1e-6)
    p_init.add_argument("--t-final", type=float, default=None)
    p_init.set_defaults(func=cmd_init)

    p_run = sub.add_parser("run", help="execute a manifest into a CSV series")
    p_run.add_argument("manifest")
    p_run.add_argument("--plot", action="store_true", help="also write SVG line plots")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run the invariant suite on a snapshot")
    p_check.add_argument("snapshot")
    p_check.add_argument("--json", default=None, help="also write a JSON report")
    p_check.set_defaults(func=cmd_check)

    p_spec = sub.add_parser("spectrum", help="first nonzero eigenvalue of a snapshot")
    p_spec.add_argument("snapshot")
    p_spec.add_argument("--eigenfunction", default=None, help="dump the eigenfunction as JSON")
    p_spec.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IOFailure as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except HkflowError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
