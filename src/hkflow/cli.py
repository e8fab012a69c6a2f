"""Command line front end: scenario setup, flow runs, invariant checks.

Four subcommands: `init` samples a scenario onto a grid and writes a
snapshot plus a run manifest, `run` replays a manifest into a CSV series
(and optional SVG plots), `check` meters one snapshot in five rows
(curvature and phase identities, energy margin, lambda1 area / (4 pi^2);
a positive metric, the triple's relations, A's exact symmetry and
lambda1's residual rule are built in), `spectrum` reports the first
nonzero eigenvalue.  `main` builds its argument parser once per process,
on its first call, and looks each subcommand up by name when it runs.

The manifest is flat key = value text so that runs diff cleanly; the CSV
is the interface of record (fixed 17-significant-digit scientific
notation, empty cells where a cadence skipped a column).  Its run
settings are the rows of RUN_KEYS: each pairs a manifest key with the
FlowConfig field of the same meaning, so a key the manifest leaves out
takes FlowConfig's default; a key with one possible value is a row of
_ONE_VALUE_KEYS.  Exit codes: 0 success, 2 validation failure, 3
numerical failure, 4 I/O failure; files are read and written through
errors._read_text and errors._write_text, apart from the streamed CSV.
"""

import argparse
import functools
import json
import math
import platform
import sys

import numpy as np

from . import __version__
from .errors import HkflowError, InputError, IOFailure, NumericalError, _read_text, _write_text
from .flow import C_MON, SCHEMES, FlowConfig, run_flow
from .phase import bja_identity, phase_field, plf_residual
from .spectral import lambda1
from .surface import (
    SCENARIO_NAMES,
    SCENARIO_PARAMS,
    compute_geometry,
    gauss_curvature_check,
    load_snapshot,
    save_snapshot,
    scenario,
    surface_integral,
)

CSV_COLUMNS = (
    "t,dt,area,twistor_energy,lambda1,max_H,max_A,min_a3,hdp_margin,"
    "efa_residual,efe_residual,metric_residual,E_accum,consistency_error"
)

# identity meters were measured at 5e-3 on the curved scenarios at 64^2;
# the tolerance tightens quadratically with the grid and never goes
# below the roundoff floor
CHECK_TOL_64 = 5e-3
CHECK_TOL_FLOOR = 1e-9

# manifest key, FlowConfig field (also the `init --<field>` flag) and type;
# a None dt is written as cfl and a None stop is left out
RUN_KEYS = (
    ("dt_flow_time", "dt", float),
    ("cfl_safety", "safety", float),
    ("scheme", "scheme", str),
    ("steps", "steps", int),
    ("lambda1_cadence", "lambda1_cadence", int),
    ("consistency_cadence", "consistency_cadence", int),
    ("stop_max_h_below", "max_h_below", float),
    ("stop_t_final_flow_time", "t_final", float),
)

# manifest keys with one value, as written: init writes the first two, and
# earlier versions wrote the two retired ones, whose manifests still replay
_ONE_VALUE_KEYS = {
    "format_version": "1",
    "triple": "right-quaternion(-i,-j,-k)",
    "renormalize_phase": "true",
    "c_mon": repr(C_MON),
}

# every key a manifest may hold: the ones init writes and the retired ones
_MANIFEST_KEYS = frozenset((
    *_ONE_VALUE_KEYS, "scenario", "nu", "nv", *SCENARIO_PARAMS, "exprs", "periods",
    *(key for key, _, _ in RUN_KEYS),
    "tool_version", "platform", "snapshot_path", "csv_path", "final_snapshot_path",
))


# ---------------------------------------------------------------- manifest


def _fmt_value(val):
    if isinstance(val, float):
        return repr(val)
    return str(val)


def write_manifest(path, entries):
    _write_text(path, "manifest", "".join(f"{key} = {_fmt_value(val)}\n" for key, val in entries))


def read_manifest(path):
    doc = {}
    # split at \n alone, as readlines does: str.splitlines also splits at \f, \v, \x1c-\x1e
    for n, line in enumerate(_read_text(path, "manifest").split("\n"), 1):
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


def _manifest_number(doc, key, kind):
    raw = doc.get(key)
    if raw is None:
        raise InputError(f"manifest is missing {key}")
    try:
        val = kind(raw)
    except ValueError:
        raise InputError(f"manifest key {key} must be {kind.__name__}, got {raw!r}") from None
    if kind is float and not math.isfinite(val):
        raise InputError(f"manifest key {key} must be finite, got {raw!r}")
    return val


def _parse_periods(text, label):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"{label} must be comma separated numbers, got {text!r}") from None


def _scenario_args(doc):
    """The manifest's scenario() arguments: (name, nu, nv, params)."""
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
    return name, _manifest_number(doc, "nu", int), _manifest_number(doc, "nv", int), params


def _config_from_manifest(doc):
    kw = {}
    for key, name, kind in RUN_KEYS:
        if key not in doc or (name == "dt" and doc[key] == "cfl"):
            continue
        kw[name] = doc[key] if kind is str else _manifest_number(doc, key, kind)
    return FlowConfig(**kw)


def _platform_tag():
    return (
        f"{platform.system()}-{platform.machine()}"
        f"-py{platform.python_version()}-numpy{np.__version__}"
    )


# ---------------------------------------------------------------- init


def cmd_init(args):
    # refuse what `run` could not replay before anything is written: each
    # config flag builds its FlowConfig field, no parameter may be non-finite,
    # and the manifest reader cuts a value at '#', a line at a line break and
    # the whitespace around a value
    for _, name, _ in RUN_KEYS:
        try:
            FlowConfig(**{name: getattr(args, name)})
        except InputError as exc:
            raise InputError(f"--{name.replace('_', '-')}: {exc}") from None
    for flag, text in (("--exprs", args.exprs), ("--out", args.out)):
        if text is not None and (any(c in text for c in "#\r\n") or text != text.strip()):
            raise InputError(
                f"{flag} {text!r}: a manifest value cannot hold '#', a line break "
                "or surrounding whitespace"
            )
    params = {}
    for key in SCENARIO_PARAMS:
        val = getattr(args, key)
        if val is not None:
            if not math.isfinite(val):
                raise InputError(f"--{key} must be finite, got {val}")
            params[key] = val
    if args.exprs is not None:
        params["exprs"] = args.exprs.split(";")
    if args.periods is not None:
        params["periods"] = _parse_periods(args.periods, "--periods")
    grid = scenario(args.scenario, args.nu, args.nv, **params)
    compute_geometry(grid)  # reject degenerate setups before writing anything

    stem = args.out or f"{args.scenario}-{args.nu}x{args.nv}"
    snapshot_path = f"{stem}.snapshot.json"
    manifest_path = f"{stem}.manifest"
    save_snapshot(grid, snapshot_path)

    entries = [
        ("format_version", _ONE_VALUE_KEYS["format_version"]),
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
    for key, name, _ in RUN_KEYS:
        val = getattr(args, name)
        if val is not None or name == "dt":
            entries.append((key, "cfl" if val is None else val))
    entries += [
        ("triple", _ONE_VALUE_KEYS["triple"]),
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
    return ",".join(_csv_cell(getattr(rec, name)) for name in CSV_COLUMNS.split(","))


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
    _write_text(path, "plot", "\n".join(parts) + "\n")


def cmd_run(args):
    doc = read_manifest(args.manifest)
    unknown = sorted(doc.keys() - _MANIFEST_KEYS)
    if unknown:
        raise InputError(f"manifest holds unknown keys: {', '.join(unknown)}")
    for key, val in _ONE_VALUE_KEYS.items():
        if doc.get(key, val) != val:
            raise InputError(
                f"manifest key {key} = {doc[key]} is not supported; it is always {val}"
            )
    name, nu, nv, params = _scenario_args(doc)
    cfg = _config_from_manifest(doc)
    csv_path = doc.get("csv_path")
    if not csv_path:
        raise InputError("manifest is missing csv_path")
    grid = scenario(name, nu, nv, **params)

    fh = None

    def write_row(rec, state):
        # opened at the t = 0 row: a surface that run_flow refuses leaves
        # an earlier series at csv_path as it was
        nonlocal fh
        if fh is None:
            try:
                fh = open(csv_path, "w")
            except OSError as exc:
                raise IOFailure(f"cannot write series {csv_path}: {exc}") from exc
            fh.write(CSV_COLUMNS + "\n")
        fh.write(_csv_row(rec) + "\n")
        fh.flush()

    # rows written so far survive a mid-run numerical failure
    try:
        series, final = run_flow(cfg, grid, observe=write_row)
    finally:
        if fh is not None:
            fh.close()

    final_path = doc.get("final_snapshot_path")
    if final_path:
        save_snapshot(final.cache.grid, final_path)
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
        f"final twistor energy {series.records[-1].twistor_energy:.6e}"
    )
    return 0


# ---------------------------------------------------------------- check


def _run_checks(cache):
    h = 2.0 * np.pi / min(cache.grid.nu, cache.grid.nv)
    href = 2.0 * np.pi / 64.0
    tol_id = max(CHECK_TOL_64 * (h / href) ** 2, CHECK_TOL_FLOOR)
    checks = []

    def record(name, measured, tol, direction="below"):
        held = measured <= tol if direction == "below" else measured >= tol
        checks.append(dict(
            name=name, status="PASS" if held else "FAIL", measured=float(measured),
            tolerance=float(tol), direction=direction,
        ))

    record("gauss-curvature", gauss_curvature_check(cache).max(), tol_id)

    pf = phase_field(cache)
    record("plf-identity", plf_residual(cache, pf).max(), tol_id)
    lhs, rhs, _ = bja_identity(cache, pf)
    record("bja-identity", np.abs(lhs - rhs).max(), tol_id)
    margin = (2.0 * pf.energy_density - cache.norm_H_sq).min()
    slack = 10.0 * h**2 * cache.norm_A_sq.max()
    record("hdp-margin", margin, -slack, "above")

    # lambda1 scales as 1/length^2, so it is judged as lambda1 area / (4 pi^2): about 1 on
    # the flat torus of side 2 pi and on Clifford (1, 1), whatever their scale
    scaled = lambda1(cache).lambda1 * surface_integral(1.0, cache) / (4.0 * np.pi**2)
    record("lambda1-positive", scaled, 1e-10, "above")
    return checks


def cmd_check(args):
    grid = load_snapshot(args.snapshot)
    cache = compute_geometry(grid)
    checks = _run_checks(cache)
    for chk in checks:
        rel = "<=" if chk["direction"] == "below" else ">="
        print(
            f"{chk['name']:<26} {chk['status']} measured {chk['measured']:.3e} "
            f"{rel} {chk['tolerance']:.3e}"
        )
    all_pass = all(chk["status"] == "PASS" for chk in checks)
    if args.json:
        doc = {"snapshot": args.snapshot, "all_pass": all_pass, "checks": checks}
        _write_text(args.json, "report", json.dumps(doc, indent=2) + "\n")
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
            "values": res.vector.reshape(-1).tolist(),
        }
        _write_text(args.eigenfunction, "eigenfunction", json.dumps(doc) + "\n")
    return 0


# ---------------------------------------------------------------- entry


@functools.cache
def build_parser():
    """The one parser of the process, built on the first call."""
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
    for _, name, kind in RUN_KEYS:
        p_init.add_argument(
            f"--{name.replace('_', '-')}", type=kind,
            # init's one default of its own: a run stops once max|H| < 1e-6
            default=1e-6 if name == "max_h_below" else getattr(FlowConfig, name),
            choices=SCHEMES if name == "scheme" else None,
        )

    p_run = sub.add_parser("run", help="execute a manifest into a CSV series")
    p_run.add_argument("manifest")
    p_run.add_argument("--plot", action="store_true", help="also write SVG line plots")

    p_check = sub.add_parser("check", help="run the invariant suite on a snapshot")
    p_check.add_argument("snapshot")
    p_check.add_argument("--json", default=None, help="also write a JSON report")

    p_spec = sub.add_parser("spectrum", help="first nonzero eigenvalue of a snapshot")
    p_spec.add_argument("snapshot")
    p_spec.add_argument("--eigenfunction", default=None, help="dump the eigenfunction as JSON")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up at each call, not stored in the parser that outlives it,
    # so a cmd_* replaced after the first call is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
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
