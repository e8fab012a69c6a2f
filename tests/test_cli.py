"""End-to-end command line tests, in process through the `run_cli` fixture.

Tests that need a fresh interpreter start `python -m hkflow.cli`: one
parser serving independent calls, scipy loading at first use, and one
check per failure exit code that stderr shows no traceback or warning.

The CSV golden bytes pin the column order and the fixed 17-digit
scientific formatting; everything else would silently survive a
formatting regression.  Exit codes: 0 ok, 2 validation, 3 numerical,
4 i/o.
"""

import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import cli_env, snapshot_positions, with_positions

from hkflow import cli
from hkflow.flow import FlowConfig
from hkflow.surface import compute_geometry, load_snapshot

CLI = [sys.executable, "-m", "hkflow.cli"]

CSV_HEADER = (
    "t,dt,area,twistor_energy,lambda1,max_H,max_A,min_a3,hdp_margin,"
    "efa_residual,efe_residual,metric_residual,E_accum,consistency_error"
)

# flat 32^2 single-row series, frozen byte for byte (lambda1 at 32^2 is
# the symbol 4 sin^2(h/2) / h^2, h = 2 pi / 32, up to the solver's
# roundoff, and the solver is deterministic)
FLAT_ROW = (
    "0.0000000000000000e+00,0.0000000000000000e+00,3.9478417604357432e+01,"
    "0.0000000000000000e+00,9.9679136404495861e-01,0.0000000000000000e+00,"
    "0.0000000000000000e+00,0.0000000000000000e+00,0.0000000000000000e+00,"
    ",,0.0000000000000000e+00,0.0000000000000000e+00,"
)


@pytest.fixture
def run_cli(tmp_path, capsys, monkeypatch):
    """`run_cli(*argv)` runs `cli.main(argv)` in tmp_path and returns
    (exit code, stdout, stderr); argparse's SystemExit is its exit code."""
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2, 3, 4), code
        got = capsys.readouterr()
        return code, got.out, got.err

    return run


def succeeded(result):
    """Exit 0; returns stdout."""
    code, out, err = result
    assert code == 0, err
    return out


def assert_validation_failure(result):
    """Exit 2 with a validation message and no traceback; returns stderr."""
    code, _, err = result
    assert code == 2, err
    assert "validation failure:" in err
    assert "Traceback" not in err
    return err


def run_child(*argv, cwd, env=None):
    return subprocess.run(
        CLI + list(argv), cwd=cwd, env=env or cli_env(), capture_output=True, text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def flat_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("flat")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        code = cli.main(["init", "--scenario", "flat-plane-torus", "--nu", "32", "--nv", "32"])
    assert code == 0
    return d


def test_init_writes_snapshot_and_manifest(flat_dir):
    snap = flat_dir / "flat-plane-torus-32x32.snapshot.json"
    man = flat_dir / "flat-plane-torus-32x32.manifest"
    assert snap.exists() and man.exists()
    grid = load_snapshot(snap)
    assert grid.nu == grid.nv == 32
    assert np.all(grid.positions[..., 2:] == 0.0)
    text = man.read_text()
    assert "scenario = flat-plane-torus" in text
    assert "triple = right-quaternion(-i,-j,-k)" in text
    assert "dt_flow_time = cfl" in text


def test_init_clifford_area(tmp_path, run_cli):
    succeeded(run_cli(
        "init", "--scenario", "clifford", "--R", "1", "--r", "1", "--nu", "64", "--nv", "64",
    ))
    grid = load_snapshot(tmp_path / "clifford-64x64.snapshot.json")
    cache = compute_geometry(grid)
    h = 2 * np.pi / 64
    # neighbor differences see the chord, not the arc: the closed form
    # carries the sinc^2 factor of the chord length
    expect = 4 * np.pi**2 * np.sinc(h / (2 * np.pi)) ** 2
    assert cache.node_area().sum() == pytest.approx(expect, abs=1e-9)


def test_init_rejects_bad_flags(run_cli):
    assert_validation_failure(run_cli("init", "--scenario", "clifford", "--R", "-1"))
    assert run_cli("init", "--scenario", "nonsense")[0] == 2  # argparse choice rejection
    err = assert_validation_failure(
        run_cli("init", "--scenario", "flat-plane-torus", "--periods", "1,two")
    )
    assert "--periods must be comma separated numbers" in err


HOSTILE_EXPRESSIONS = (
    "().__class__.__base__.__subclasses__()",
    "0*().__class__.__base__.__subclasses__().__len__() + u",
    "__import__('os')",
    "u.real",
    "lambda: u",
    "[w for w in (u, v)]",
    "sin(x=u)",
    "sin(u, v)",
    "9**9**9",
)


@pytest.mark.parametrize("expr", HOSTILE_EXPRESSIONS)
def test_init_rejects_hostile_expression(tmp_path, run_cli, expr):
    err = assert_validation_failure(run_cli(
        "init", "--scenario", "custom-expression", "--nu", "8", "--nv", "8",
        "--exprs", f"{expr};v;0*u;0*u", "--out", "hostile",
    ))
    assert "cannot evaluate expression" in err
    assert list(tmp_path.iterdir()) == []


def test_init_names_a_non_finite_coordinate(tmp_path, run_cli):
    # numpy's invalid-value warning stays inside the expression walker
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = assert_validation_failure(run_cli(
            "init", "--scenario", "custom-expression", "--nu", "8", "--nv", "8",
            "--exprs", "u;sqrt(-1-u);0*u;0*u",
        ))
    assert err == (
        "validation failure: coordinate 1 'sqrt(-1-u)' of 'custom-expression' "
        "is not finite at node (0, 0)\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--scenario", "clifford", "--eps", "0.3", "--periods", "1,2,3,4", "--exprs", "u;v;u;v"],
     "clifford does not take eps, exprs, periods"),
    (["--scenario", "custom-expression", "--exprs", "u;v;0*u;0*u", "--R", "-1"],
     "custom-expression does not take R"),
], ids=["clifford", "custom-expression"])
def test_init_refuses_parameters_the_scenario_does_not_take(tmp_path, run_cli, argv, message):
    err = assert_validation_failure(run_cli("init", "--nu", "8", "--nv", "8", *argv))
    assert err == f"validation failure: {message}\n"
    assert list(tmp_path.iterdir()) == []


# each of these used to write a manifest that `run` refused or misread:
# the config flags failed FlowConfig only at replay, and the reader cuts a
# value at '#', a line at a line break and strips the value; --c-mon set
# a constant that is no longer a setting, and argparse refuses it
UNREPLAYABLE_INIT_FLAGS = (
    (["--steps", "-1"], "validation failure: --steps: steps must be >= 0"),
    (["--safety", "5"], "validation failure: --safety: cfl safety must lie in"),
    (["--lambda1-cadence", "0"], "validation failure: --lambda1-cadence: lambda1_cadence must be >= 1"),
    (["--consistency-cadence", "-1"], "validation failure: --consistency-cadence: consistency_cadence must be >= 0"),
    (["--dt", "-1"], "validation failure: --dt: fixed dt must be positive"),
    (["--c-mon", "4"], "hkflow: error: unrecognized arguments: --c-mon 4"),
    (["--max-h-below", "inf"], "validation failure: --max-h-below: max_h_below must be finite"),
    (["--t-final", "nan"], "validation failure: --t-final: t_final must be finite"),
    (["--eps", "nan"], "validation failure: --eps must be finite"),
    (["--out", "exp#1"], "validation failure: --out 'exp#1': a manifest value cannot hold '#'"),
    (["--out", "exp\n1"], "validation failure: --out 'exp\\n1': a manifest value cannot hold"),
    (["--out", " exp"], "validation failure: --out ' exp': a manifest value cannot hold"),
    (["--exprs", "u;v;0*u;0*u#note"], "validation failure: --exprs 'u;v;0*u;0*u#note': a manifest value"),
    (["--exprs", "u;v;0*u;\n0*u"], "validation failure: --exprs 'u;v;0*u;\\n0*u': a manifest value"),
    (["--exprs", "u;v;0*u;0*u\r"], "validation failure: --exprs 'u;v;0*u;0*u\\r': a manifest value"),
)


@pytest.mark.parametrize("flags, message", UNREPLAYABLE_INIT_FLAGS)
def test_init_refuses_unreplayable_manifest(tmp_path, run_cli, flags, message):
    code, _, err = run_cli(
        "init", "--scenario", "custom-expression", "--nu", "8", "--nv", "8",
        "--exprs", "u;v;0*u;0*u", "--periods", "6.283185307179586," * 3 + "6.283185307179586",
        *flags,
    )
    assert code == 2, err
    assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_init_unwritable_path(tmp_path):
    # a fresh interpreter: the exit-4 path prints no traceback
    out = run_child(
        "init", "--scenario", "flat-plane-torus", "--nu", "8", "--nv", "8",
        "--out", "no-such-dir/stem", cwd=tmp_path,
    )
    assert out.returncode == 4
    assert "i/o failure" in out.stderr
    assert "Traceback" not in out.stderr


def test_run_flat_golden_csv(flat_dir, tmp_path, run_cli):
    # the manifest names its outputs relative to the working directory
    succeeded(run_cli("run", str(flat_dir / "flat-plane-torus-32x32.manifest")))
    text = (tmp_path / "flat-plane-torus-32x32.csv").read_text()
    assert text == CSV_HEADER + "\n" + FLAT_ROW + "\n"
    assert (tmp_path / "flat-plane-torus-32x32.final.json").exists()
    h = 2 * np.pi / 32
    symbol = 4 * np.sin(h / 2) ** 2 / h**2
    assert float(FLAT_ROW.split(",")[4]) == pytest.approx(symbol, rel=1e-14, abs=0)


def test_run_is_byte_deterministic(tmp_path, run_cli):
    succeeded(run_cli(
        "init", "--scenario", "clifford", "--R", "1", "--r", "1",
        "--nu", "32", "--nv", "32", "--steps", "25", "--lambda1-cadence", "5",
    ))
    blobs = []
    for _ in range(2):
        succeeded(run_cli("run", "clifford-32x32.manifest"))
        blobs.append((tmp_path / "clifford-32x32.csv").read_bytes())
    assert blobs[0] == blobs[1]
    rows = blobs[0].decode().strip().split("\n")
    assert len(rows) == 27  # header + t=0 + 25 steps
    # cadence gaps are empty cells, not zeros
    assert rows[2].split(",")[4] == ""
    assert rows[6].split(",")[4] != ""


def test_run_plot_writes_svgs(tmp_path, run_cli):
    succeeded(run_cli(
        "init", "--scenario", "perturbed-complex-torus", "--eps", "0.05",
        "--nu", "32", "--nv", "32", "--steps", "40",
    ))
    succeeded(run_cli("run", "perturbed-complex-torus-32x32.manifest", "--plot"))
    for name in ("energy", "lambda1"):
        svg = (tmp_path / f"perturbed-complex-torus-32x32_{name}.svg").read_text()
        assert svg.startswith("<svg")
        assert "<polyline" in svg


def test_run_plot_draws_no_data_and_a_constant_series(tmp_path, run_cli):
    # one row is too few points to draw
    flat = ["init", "--scenario", "flat-plane-torus", "--nu", "8", "--nv", "8"]
    succeeded(run_cli(*flat, "--steps", "0", "--out", "zero"))
    succeeded(run_cli("run", "zero.manifest", "--plot"))
    for name in ("energy", "lambda1"):
        assert "no data" in (tmp_path / f"zero_{name}.svg").read_text()
    # the flat torus's lambda1 is constant: its line sits mid-height
    succeeded(run_cli(*flat, "--steps", "3", "--lambda1-cadence", "1", "--max-h-below", "0"))
    succeeded(run_cli("run", "flat-plane-torus-8x8.manifest", "--plot"))
    svg = (tmp_path / "flat-plane-torus-8x8_lambda1.svg").read_text()
    assert 'points="70.00,187.50 253.33,187.50 436.67,187.50 620.00,187.50"' in svg


def test_run_collapse_exits_3_with_partial_series(tmp_path, run_cli):
    succeeded(run_cli(
        "init", "--scenario", "clifford", "--R", "0.4", "--r", "0.4",
        "--nu", "32", "--nv", "32", "--dt", "1e-3", "--steps", "10000", "--out", "shrink",
    ))
    code, _, err = run_cli("run", "shrink.manifest")
    assert code == 3
    assert "numerical failure" in err and "step" in err
    rows = (tmp_path / "shrink.csv").read_text().strip().split("\n")
    assert rows[0] == CSV_HEADER
    assert len(rows) > 10  # partial series flushed before the failure


def test_run_that_stops_advancing_time_exits_3(tmp_path, run_cli):
    # under the CFL step the collapsing torus shrinks dt until t + dt == t:
    # the run broke its series, so it is a numerical failure at a step
    succeeded(run_cli(
        "init", "--scenario", "clifford", "--R", "1", "--r", "1",
        "--nu", "12", "--nv", "12", "--steps", "20000",
    ))
    code, _, err = run_cli("run", "clifford-12x12.manifest")
    assert code == 3, err
    assert err.startswith("numerical failure: step ") and "time must increase" in err
    rows = (tmp_path / "clifford-12x12.csv").read_text().strip().split("\n")
    assert rows[0] == CSV_HEADER
    assert len(rows) > 100  # partial series flushed before the failure


def test_run_bad_manifest(tmp_path, run_cli):
    (tmp_path / "dup.manifest").write_text("scenario = clifford\nscenario = clifford\n")
    assert run_cli("run", "dup.manifest")[0] == 2
    (tmp_path / "junk.manifest").write_text("this is not a key value line\n")
    assert run_cli("run", "junk.manifest")[0] == 2
    assert run_cli("run", "missing.manifest")[0] == 4


def test_run_rejects_malformed_numbers(flat_dir, tmp_path, run_cli):
    man = (flat_dir / "flat-plane-torus-32x32.manifest").read_text()
    assert "\nnu = 32\n" in man
    for name, text, message in (
        ("abc", man.replace("\nnu = 32\n", "\nnu = abc\n"), "manifest key nu must be int"),
        ("missing", man.replace("\nnu = 32\n", "\n"), "manifest is missing nu"),
        ("steps", man.replace("\nsteps = ", "\nsteps = x"), "manifest key steps must be int"),
        ("periods", man + "periods = 1,two,3,4\n", "manifest key periods must be"),
        ("nan", man + "c_mon = nan\n", "manifest key c_mon = nan is not supported; it is always 8.0"),
        ("scheme", man.replace("\nscheme = euler\n", "\nscheme = false\n"), "unknown scheme 'false'"),
        # init used to write a parameter the scenario does not take
        ("stray", man + "eps = 0.3\n", "flat-plane-torus does not take eps"),
        ("inf", man + "eps = inf\n", "manifest key eps must be finite, got 'inf'"),
        ("stop", man.replace("\nstop_max_h_below = 1e-06\n", "\nstop_max_h_below = nan\n"),
         "manifest key stop_max_h_below must be finite, got 'nan'"),
        ("bogus", man.replace("\nscenario = flat-plane-torus\n", "\nscenario = bogus\n"),
         "manifest names unknown scenario 'bogus'"),
        ("csv", man.replace("\ncsv_path = flat-plane-torus-32x32.csv\n", "\n"),
         "manifest is missing csv_path"),
    ):
        assert text != man, name
        (tmp_path / f"{name}.manifest").write_text(text)
        assert message in assert_validation_failure(run_cli("run", f"{name}.manifest"))


def test_refused_run_keeps_the_earlier_series(tmp_path, run_cli):
    # the series is opened at the t = 0 row, after run_flow has built and
    # validated the scenario: a refused manifest leaves the earlier CSV's bytes
    succeeded(run_cli("init", "--scenario", "flat-plane-torus", "--nu", "8", "--nv", "8"))
    succeeded(run_cli("run", "flat-plane-torus-8x8.manifest"))
    csv = tmp_path / "flat-plane-torus-8x8.csv"
    before = csv.read_bytes()
    assert before.count(b"\n") == 2     # header and t = 0: max|H| = 0 stops the run
    manifest = tmp_path / "flat-plane-torus-8x8.manifest"
    manifest.write_text(manifest.read_text() + "eps = 0.3\n")
    err = assert_validation_failure(run_cli("run", "flat-plane-torus-8x8.manifest"))
    assert "flat-plane-torus does not take eps" in err
    assert csv.read_bytes() == before


def test_run_old_renormalize_switch(flat_dir, tmp_path, run_cli):
    # the phase is always projected back to the sphere: a manifest written
    # when that was a switch replays when it is on and is refused when off
    man = (flat_dir / "flat-plane-torus-32x32.manifest").read_text()
    assert "renormalize_phase" not in man
    (tmp_path / "off.manifest").write_text(man + "renormalize_phase = false\n")
    assert "renormalize_phase" in assert_validation_failure(run_cli("run", "off.manifest"))
    (tmp_path / "on.manifest").write_text(man + "renormalize_phase = true\n")
    succeeded(run_cli("run", "on.manifest"))
    assert (tmp_path / "flat-plane-torus-32x32.csv").read_text().split("\n")[1] == FLAT_ROW


@pytest.mark.parametrize("line, message", [
    ("c_mon = 4.0", "c_mon = 4.0 is not supported; it is always 8.0"),
    ("triple = left", "triple = left is not supported; it is always right-quaternion(-i,-j,-k)"),
    ("format_version = 2", "format_version = 2 is not supported; it is always 1"),
], ids=["c_mon", "triple", "format_version"])
def test_run_refuses_another_value_of_a_one_value_key(flat_dir, tmp_path, run_cli, line, message):
    key = line.split(" = ")[0]
    man = (flat_dir / "flat-plane-torus-32x32.manifest").read_text()
    kept = [l for l in man.split("\n") if not l.startswith(f"{key} = ")]
    (tmp_path / "bad.manifest").write_text("\n".join(kept) + line + "\n")
    err = assert_validation_failure(run_cli("run", "bad.manifest"))
    assert err == f"validation failure: manifest key {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "bad.manifest"]


def test_manifest_with_retired_keys_replays_to_the_same_bytes(tmp_path, run_cli):
    # earlier versions wrote c_mon, and before it the renormalize_phase
    # switch; each holds its one value, so such a manifest replays unchanged
    succeeded(run_cli(
        "init", "--scenario", "perturbed-complex-torus", "--nu", "16", "--nv", "16",
        "--steps", "12", "--lambda1-cadence", "4", "--consistency-cadence", "3",
    ))
    man = tmp_path / "perturbed-complex-torus-16x16.manifest"
    csv = tmp_path / "perturbed-complex-torus-16x16.csv"
    text = man.read_text()
    assert "c_mon" not in text and "renormalize_phase" not in text
    succeeded(run_cli("run", man.name))
    fresh = csv.read_bytes()
    assert fresh.count(b"\n") == 14 and b",," not in fresh.split(b"\n")[5]   # efa/efe at step 4
    man.write_text(
        text.replace("\nstop_max_h_below = ", "\nc_mon = 8.0\nstop_max_h_below = ")
        + "renormalize_phase = true\n"
    )
    csv.unlink()
    succeeded(run_cli("run", man.name))
    assert csv.read_bytes() == fresh


def test_run_refuses_unknown_keys(tmp_path, run_cli):
    # a misspelled stop rule used to be dropped without a word: the run
    # went on to its step budget
    succeeded(run_cli(
        "init", "--scenario", "perturbed-complex-torus", "--nu", "16", "--nv", "16",
        "--t-final", "0.01", "--steps", "50", "--out", "t",
    ))
    assert "2 rows, stop t_final" in succeeded(run_cli("run", "t.manifest"))
    csv, man = tmp_path / "t.csv", tmp_path / "t.manifest"
    csv.unlink()
    man.write_text(man.read_text().replace("\nstop_t_final_flow_time = ", "\nstop_t_final = "))
    err = assert_validation_failure(run_cli("run", "t.manifest"))
    assert err == "validation failure: manifest holds unknown keys: stop_t_final\n"
    man.write_text(man.read_text() + "renormalise_phase = true\n")
    err = assert_validation_failure(run_cli("run", "t.manifest"))
    assert err.endswith("unknown keys: renormalise_phase, stop_t_final\n")
    assert not csv.exists()
    # every key init writes is one run knows, exprs and periods included
    succeeded(run_cli(
        "init", "--scenario", "custom-expression", "--nu", "8", "--nv", "8", "--out", "custom",
        "--exprs", "u;v;0*u;0*u", "--periods", ",".join([repr(2 * np.pi)] * 4),
    ))
    succeeded(run_cli("run", "custom.manifest"))


def test_c_mon_is_a_constant_not_a_setting(run_cli):
    assert "c_mon" not in {f.name for f in dataclasses.fields(FlowConfig)}
    code, out, _ = run_cli("init", "--help")
    assert code == 0
    assert "--consistency-cadence" in out and "--c-mon" not in out


@pytest.mark.parametrize("flags", [
    ["--scenario", "clifford", "--R", "1", "--r", "1"],
    ["--scenario", "perturbed-complex-torus", "--eps", "0.3"],
    ["--scenario", "custom-expression", "--exprs", "u;v;0.3*sin(u+v);cos(v)",
     "--periods", ",".join([repr(2 * np.pi)] * 4)],
], ids=["clifford", "perturbed", "custom"])
def test_run_starts_from_the_snapshot_bytes(tmp_path, run_cli, flags):
    # run samples the scenario again instead of reading snapshot_path;
    # a run of no steps writes back the very positions init saved
    succeeded(run_cli("init", *flags, "--nu", "16", "--nv", "12", "--steps", "0", "--out", "z"))
    assert "1 rows, stop steps" in succeeded(run_cli("run", "z.manifest"))
    assert (tmp_path / "z.final.json").read_bytes() == (tmp_path / "z.snapshot.json").read_bytes()


def test_run_unwritable_csv(flat_dir, tmp_path, run_cli):
    man = (flat_dir / "flat-plane-torus-32x32.manifest").read_text()
    man = man.replace(
        "csv_path = flat-plane-torus-32x32.csv", "csv_path = no-such-dir/out.csv"
    )
    (tmp_path / "bad.manifest").write_text(man)
    assert run_cli("run", "bad.manifest")[0] == 4


def test_check_passes_on_flat(flat_dir, tmp_path, run_cli):
    out = succeeded(run_cli(
        "check", str(flat_dir / "flat-plane-torus-32x32.snapshot.json"), "--json", "report.json",
    ))
    assert "all checks passed" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["all_pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"gauss-curvature", "plf-identity", "bja-identity", "hdp-margin",
            "lambda1-positive"} == names
    for chk in doc["checks"]:
        if chk["direction"] == "below":
            assert chk["measured"] <= 1e-10


@pytest.mark.parametrize("length", ["1e-5", "1e6"])
def test_check_passes_on_a_flat_torus_of_any_size(tmp_path, run_cli, length):
    # no row is an absolute floor on a quantity with units: lambda1 scales as
    # 1/length^2 and is judged as lambda1 area / (4 pi^2), here the 16^2
    # symbol (2 sin(h/2) / h)^2 at every size
    succeeded(run_cli("init", "--scenario", "flat-plane-torus", "--Lu", length, "--Lv", length,
                      "--nu", "16", "--nv", "16", "--out", "t"))
    assert "all checks passed" in succeeded(run_cli("check", "t.snapshot.json", "--json", "t.json"))
    checks = json.loads((tmp_path / "t.json").read_text())["checks"]
    scaled = next(c["measured"] for c in checks if c["name"] == "lambda1-positive")
    h = 2 * np.pi / 16
    assert scaled == pytest.approx((2 * np.sin(h / 2) / h) ** 2, rel=1e-9)


def test_check_tolerance_scales_with_grid(tmp_path, run_cli):
    for n in (64, 128):
        succeeded(run_cli(
            "init", "--scenario", "clifford", "--R", "1", "--r", "1",
            "--nu", str(n), "--nv", str(n),
        ))
        succeeded(run_cli("check", f"clifford-{n}x{n}.snapshot.json", "--json", f"rep{n}.json"))
    rep64 = json.loads((tmp_path / "rep64.json").read_text())
    rep128 = json.loads((tmp_path / "rep128.json").read_text())

    def tol(doc, name):
        return next(c["tolerance"] for c in doc["checks"] if c["name"] == name)

    assert tol(rep64, "plf-identity") == pytest.approx(5e-3)
    assert tol(rep128, "plf-identity") == pytest.approx(1.25e-3)


def test_check_corrupt_snapshot(flat_dir, tmp_path, run_cli):
    doc = json.loads((flat_dir / "flat-plane-torus-32x32.snapshot.json").read_text())
    pos = snapshot_positions(doc)
    pos[7] = float("nan")
    bad = tmp_path / "bad.snapshot.json"
    bad.write_text(json.dumps(with_positions(doc, pos)))
    assert_validation_failure(run_cli("check", str(bad)))

    pos[7] = 0.0
    doc = with_positions(doc, pos)
    doc["version"] = 99
    bad.write_text(json.dumps(doc))
    assert run_cli("check", str(bad))[0] == 2

    bad.write_text("{not json")
    assert run_cli("check", str(bad))[0] == 2

    assert run_cli("check", "never-written.json")[0] == 4


def test_check_rejects_non_numeric_snapshot(flat_dir, tmp_path, run_cli):
    good = json.loads((flat_dir / "flat-plane-torus-32x32.snapshot.json").read_text())
    # version 1 holds the positions as a JSON list, whose entries can be non-numeric
    good = {**good, "version": 1, "positions": snapshot_positions(good).tolist()}
    bad = tmp_path / "bad.snapshot.json"
    for key, val in (
        ("nu", "abc"),
        ("nu", 32.5),
        ("nv", [32]),
        ("positions", ["x"] * len(good["positions"])),
        ("periods", ["a", "b", "c", "d"]),
    ):
        bad.write_text(json.dumps({**good, key: val}))
        assert repr(key) in assert_validation_failure(run_cli("check", str(bad)))
    bad.write_text(json.dumps({**good, "nu": float("inf")}))    # int() overflows
    assert_validation_failure(run_cli("check", str(bad)))
    bad.write_text(json.dumps({**good, "nu": -2, "nv": -2, "positions": [0.0] * 16}))
    assert "empty" in assert_validation_failure(run_cli("check", str(bad)))
    bad.write_text("[1, 2, 3]")
    assert_validation_failure(run_cli("check", str(bad)))
    bad.write_text(json.dumps({**good, "periods": [float("nan")] + good["periods"][1:]}))
    assert "periods" in assert_validation_failure(run_cli("check", str(bad)))


def test_check_rejects_a_snapshot_entry_beyond_float_range(flat_dir, tmp_path, run_cli):
    good = json.loads((flat_dir / "flat-plane-torus-32x32.snapshot.json").read_text())
    good = {**good, "version": 1, "positions": snapshot_positions(good).tolist()}
    bad = tmp_path / "bad.snapshot.json"
    bad.write_text(json.dumps({**good, "positions": [10**400] + good["positions"][1:]}))
    assert ("field 'positions' is not numeric: int too large to convert to float"
            in assert_validation_failure(run_cli("check", str(bad))))


def test_spectrum_flat(flat_dir, run_cli):
    out = succeeded(run_cli("spectrum", str(flat_dir / "flat-plane-torus-32x32.snapshot.json")))
    lines = dict(l.split(" ", 1) for l in out.strip().split("\n"))
    assert float(lines["lambda1"]) == pytest.approx(1.0, abs=5e-3)
    assert float(lines["residual"]) < 1e-7
    assert int(lines["iterations"]) >= 1


def test_spectrum_rectangular_torus(tmp_path, run_cli):
    lv = repr(4 * np.pi)
    succeeded(run_cli(
        "init", "--scenario", "flat-plane-torus", "--Lv", lv,
        "--nu", "64", "--nv", "64", "--out", "rect",
    ))
    out = succeeded(run_cli("spectrum", "rect.snapshot.json", "--eigenfunction", "ef.json"))
    lam = float(out.split("\n")[0].split(" ")[1])
    assert lam == pytest.approx(0.25, abs=1e-3)
    ef = json.loads((tmp_path / "ef.json").read_text())
    assert len(ef["values"]) == 64 * 64
    assert ef["lambda1"] == lam


def test_spectrum_degenerate_snapshot(flat_dir, tmp_path, run_cli):
    doc = json.loads((flat_dir / "flat-plane-torus-32x32.snapshot.json").read_text())
    # collapse the v direction: every row of nodes maps to one point
    pos = snapshot_positions(doc).reshape(32, 32, 4)
    pos[:, :, 1] = 0.0
    doc = with_positions(doc, pos)
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli("spectrum", str(bad))
    assert code == 3
    assert "metric-degenerate" in err


@pytest.mark.parametrize("nu", [16])
def test_vanishing_central_tangent_exits_3(tmp_path, nu):
    # rows of nodes alternate between two parallel unit circles: every
    # edge is long, so the det floor passes, but F(i+1) - F(i-1) = 0; a
    # fresh interpreter, whose stderr would show a RuntimeWarning
    t = 2 * np.pi * np.arange(16) / 16
    pos = np.zeros((nu, 16, 4))
    pos[..., 0], pos[..., 1] = np.cos(t), np.sin(t)
    pos[..., 2] = 0.5 * (np.arange(nu) % 2)[:, None]
    snap = tmp_path / "alternating.json"
    doc = {"version": 1, "nu": nu, "nv": 16, "periods": None, "positions": pos.ravel().tolist()}
    snap.write_text(json.dumps(doc))
    for cmd in ("check", "spectrum"):
        out = run_child(cmd, str(snap), cwd=tmp_path)
        assert out.returncode == 3, out.stderr
        assert "tangent-degenerate at node (0, 0)" in out.stderr
        assert "Traceback" not in out.stderr and "RuntimeWarning" not in out.stderr
        assert out.stdout == ""


def test_small_snapshot_grid_exits_2(tmp_path):
    # a 2 x 16 grid is refused at load, as scenario() refuses it,
    # before its coinciding neighbours read as a numerical failure; a fresh
    # interpreter, whose stderr would show a traceback
    t = 2 * np.pi * np.arange(16) / 16
    pos = np.zeros((2, 16, 4))
    pos[..., 0], pos[..., 1] = np.cos(t), np.sin(t)
    pos[1, :, 2] = 0.5
    snap = tmp_path / "small.json"
    doc = {"version": 1, "nu": 2, "nv": 16, "periods": None, "positions": pos.ravel().tolist()}
    snap.write_text(json.dumps(doc))
    for cmd in ("check", "spectrum"):
        out = run_child(cmd, str(snap), cwd=tmp_path)
        assert out.returncode == 2, out.stderr
        assert "grid 2 x 16 is too small, need 4 x 4" in out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""


def test_manifest_replays_the_init_settings(run_cli):
    # each run setting is written by init and read back by run from one
    # table; a key the manifest leaves out takes FlowConfig's default
    base = ["init", "--scenario", "flat-plane-torus", "--nu", "8", "--nv", "8"]
    succeeded(run_cli(*base, "--out", "plain"))
    assert cli._config_from_manifest(cli.read_manifest("plain.manifest")) == FlowConfig(
        max_h_below=1e-6
    )
    flags = ["--dt", "0.001", "--safety", "0.5", "--scheme", "rk2", "--steps", "7",
             "--lambda1-cadence", "3", "--consistency-cadence", "2",
             "--max-h-below", "1e-3", "--t-final", "2"]
    succeeded(run_cli(*base, *flags, "--out", "set"))
    succeeded(run_cli("run", "set.manifest"))      # every key init writes is one run knows
    assert cli._config_from_manifest(cli.read_manifest("set.manifest")) == FlowConfig(
        dt=0.001, safety=0.5, scheme="rk2", steps=7, lambda1_cadence=3,
        consistency_cadence=2, max_h_below=1e-3, t_final=2.0,
    )
    assert cli._config_from_manifest({}) == FlowConfig()
    assert FlowConfig().steps == 5000


def test_huge_integers_exit_cleanly(tmp_path, run_cli):
    # a 400-digit integer used to overflow math.isfinite or the grid arrays
    huge = "9" * 400
    base = ["init", "--scenario", "flat-plane-torus", "--nv", "8"]
    code, _, err = run_cli(*base, "--nu", huge)
    assert code == 2
    assert f"grid too large: nu={huge}, nv=8" in err
    assert list(tmp_path.iterdir()) == []
    # a huge step count is written and replayed: the flat torus stops at once
    succeeded(run_cli(*base, "--nu", "8", "--steps", huge))
    man = (tmp_path / "flat-plane-torus-8x8.manifest").read_text()
    assert f"\nsteps = {huge}\n" in man
    succeeded(run_cli("run", "flat-plane-torus-8x8.manifest"))
    (tmp_path / "nu.manifest").write_text(man.replace("\nnu = 8\n", f"\nnu = {huge}\n"))
    code, _, err = run_cli("run", "nu.manifest")
    assert code == 2
    assert err.startswith("validation failure: grid too large") and "Traceback" not in err


def test_hostile_bytes_exit_2(tmp_path, run_cli):
    # bytes that are not UTF-8, and JSON nested beyond the parser's recursion
    files = {
        "bytes.manifest": b"scenario = flat-plane-torus\nnu = 8\xff\n",
        "bytes.snapshot.json": b'{"version": 2, "nu": "\xff"}',
        "deep.snapshot.json": b"[" * 200000,
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
        code, _, err = run_cli("run" if name.endswith(".manifest") else "check", name)
        assert code == 2, name
        assert err.startswith("validation failure:") and name in err, err
        assert "Traceback" not in err


# init, check, a refused flag, --help, check again, spectrum and run; the
# grid is small and the run stops after a few steps
ONE_PROCESS_CALLS = (
    ["init", "--scenario", "perturbed-complex-torus", "--nu", "16", "--nv", "16",
     "--eps", "0.05", "--steps", "4", "--out", "p"],
    ["check", "p.snapshot.json", "--json", "first.json"],
    ["check", "--no-such-flag"],
    ["--help"],
    ["check", "p.snapshot.json", "--json", "again.json"],
    ["spectrum", "p.snapshot.json"],
    ["run", "p.manifest"],
)


def test_one_parser_serves_independent_calls(tmp_path, run_cli, monkeypatch):
    # main parses with one parser per process; every call behaves as the
    # first call of a fresh interpreter does, byte for byte
    assert cli.build_parser() is cli.build_parser()
    inproc, child = tmp_path, tmp_path / "child"
    child.mkdir()
    monkeypatch.setenv("COLUMNS", "80")           # argparse wraps help to the terminal
    env = {**cli_env(), "COLUMNS": "80"}
    codes = []
    for argv in ONE_PROCESS_CALLS:
        got = run_cli(*argv)
        out = run_child(*argv, cwd=child, env=env)
        assert got == (out.returncode, out.stdout, out.stderr), argv
        codes.append(got[0])
    assert codes == [0, 0, 2, 0, 0, 0, 0]
    first = (inproc / "first.json").read_bytes()
    assert (inproc / "again.json").read_bytes() == first == (child / "again.json").read_bytes()
    for name in ("p.csv", "p.final.json"):
        assert (inproc / name).read_bytes() == (child / name).read_bytes()


# One fresh interpreter: which scipy modules are loaded after each step.
LEAN_START = """
import json, sys
import hkflow, hkflow.cli
from hkflow import cli, spectral, surface

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report, codes = {"import": scipy_modules()}, []
codes.append(cli.main(["init", "--scenario", "flat-plane-torus", "--nu", "16", "--nv", "16"]))
report["init"] = scipy_modules()
with open("bad.json", "w") as fh:
    fh.write("{ not json")
codes.append(cli.main(["check", "bad.json"]))
report["refusal"] = scipy_modules()
snap = "flat-plane-torus-16x16.snapshot.json"
codes.append(cli.main(["spectrum", snap]))
report["spectrum"] = scipy_modules()
cache = surface.compute_geometry(surface.load_snapshot(snap))
report["kappa"] = spectral.geodesic_ball_volumes(cache, radius=0.5).kappa
report["balls"] = scipy_modules()
report["codes"] = codes
print(json.dumps(report))
"""


def test_scipy_loads_at_first_use(tmp_path):
    # init and an exit-2 refusal never load scipy; spectrum loads what its
    # Laplacian and eigen-solve need, but the ball search's csgraph waits
    # for the first ball volume
    out = subprocess.run(
        [sys.executable, "-c", LEAN_START], cwd=tmp_path, env=cli_env(),
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 2, 0]
    assert report["import"] == report["init"] == report["refusal"] == []
    assert {"scipy.sparse", "scipy.linalg"} <= set(report["spectrum"])
    assert not {"scipy.sparse.csgraph", "scipy.sparse.linalg"} & set(report["spectrum"])
    assert "scipy.sparse.csgraph" in report["balls"]
    assert 0 < report["kappa"] < float("inf")
