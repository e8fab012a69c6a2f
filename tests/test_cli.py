"""End-to-end command line tests, all through subprocess.

The CSV golden bytes pin the column order and the fixed 17-digit
scientific formatting; everything else would silently survive a
formatting regression.  Exit codes: 0 ok, 2 validation, 3 numerical,
4 i/o.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import cli_env

from hkflow.surface import compute_geometry, load_snapshot

CLI = [sys.executable, "-m", "hkflow.cli"]

CSV_HEADER = (
    "t,dt,area,twistor_energy,lambda1,max_H,max_A,min_a3,hdp_margin,"
    "efa_residual,efe_residual,metric_residual,E_accum,consistency_error"
)

# flat 32^2 single-row series, frozen byte for byte (lambda1 at 32^2 is
# 1 - h^2/12 + O(h^4) and the solver is deterministic)
FLAT_ROW = (
    "0.0000000000000000e+00,0.0000000000000000e+00,3.9478417604357432e+01,"
    "0.0000000000000000e+00,9.9679136404495949e-01,0.0000000000000000e+00,"
    "0.0000000000000000e+00,0.0000000000000000e+00,0.0000000000000000e+00,"
    ",,0.0000000000000000e+00,0.0000000000000000e+00,"
)


def run_cli(*argv, cwd):
    return subprocess.run(
        CLI + list(argv), cwd=cwd, env=cli_env(), capture_output=True, text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def flat_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("flat")
    out = run_cli("init", "--scenario", "flat-plane-torus", "--nu", "32", "--nv", "32", cwd=d)
    assert out.returncode == 0, out.stderr
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


def test_init_clifford_area(tmp_path):
    out = run_cli(
        "init", "--scenario", "clifford", "--R", "1", "--r", "1",
        "--nu", "64", "--nv", "64", cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    grid = load_snapshot(tmp_path / "clifford-64x64.snapshot.json")
    cache = compute_geometry(grid)
    h = 2 * np.pi / 64
    # neighbor differences see the chord, not the arc: the closed form
    # carries the sinc^2 factor of the chord length
    expect = 4 * np.pi**2 * np.sinc(h / (2 * np.pi)) ** 2
    assert cache.node_area().sum() == pytest.approx(expect, abs=1e-9)


def test_init_rejects_bad_flags(tmp_path):
    out = run_cli("init", "--scenario", "clifford", "--R", "-1", cwd=tmp_path)
    assert out.returncode == 2
    assert "validation failure" in out.stderr
    out = run_cli("init", "--scenario", "nonsense", cwd=tmp_path)
    assert out.returncode == 2  # argparse choice rejection
    out = run_cli("init", "--scenario", "flat-plane-torus", "--periods", "1,two", cwd=tmp_path)
    assert out.returncode == 2
    assert "--periods must be comma separated numbers" in out.stderr


def assert_validation_failure(out):
    assert out.returncode == 2, out.stderr
    assert "validation failure:" in out.stderr
    assert "Traceback" not in out.stderr


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
def test_init_rejects_hostile_expression(tmp_path, expr):
    out = run_cli(
        "init", "--scenario", "custom-expression", "--nu", "8", "--nv", "8",
        "--exprs", f"{expr};v;0*u;0*u", "--out", "hostile", cwd=tmp_path,
    )
    assert_validation_failure(out)
    assert "cannot evaluate expression" in out.stderr
    assert list(tmp_path.iterdir()) == []


def test_init_unwritable_path(tmp_path):
    out = run_cli(
        "init", "--scenario", "flat-plane-torus", "--nu", "8", "--nv", "8",
        "--out", "no-such-dir/stem", cwd=tmp_path,
    )
    assert out.returncode == 4
    assert "i/o failure" in out.stderr


def test_run_flat_golden_csv(flat_dir):
    out = run_cli("run", "flat-plane-torus-32x32.manifest", cwd=flat_dir)
    assert out.returncode == 0, out.stderr
    text = (flat_dir / "flat-plane-torus-32x32.csv").read_text()
    assert text == CSV_HEADER + "\n" + FLAT_ROW + "\n"
    assert (flat_dir / "flat-plane-torus-32x32.final.json").exists()


def test_run_is_byte_deterministic(tmp_path):
    out = run_cli(
        "init", "--scenario", "clifford", "--R", "1", "--r", "1",
        "--nu", "32", "--nv", "32", "--steps", "25", "--lambda1-cadence", "5",
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    blobs = []
    for _ in range(2):
        out = run_cli("run", "clifford-32x32.manifest", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        blobs.append((tmp_path / "clifford-32x32.csv").read_bytes())
    assert blobs[0] == blobs[1]
    rows = blobs[0].decode().strip().split("\n")
    assert len(rows) == 27  # header + t=0 + 25 steps
    # cadence gaps are empty cells, not zeros
    assert rows[2].split(",")[4] == ""
    assert rows[6].split(",")[4] != ""


def test_run_plot_writes_svgs(tmp_path):
    out = run_cli(
        "init", "--scenario", "perturbed-complex-torus", "--eps", "0.05",
        "--nu", "32", "--nv", "32", "--steps", "40", cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    out = run_cli("run", "perturbed-complex-torus-32x32.manifest", "--plot", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    for name in ("energy", "lambda1"):
        svg = (tmp_path / f"perturbed-complex-torus-32x32_{name}.svg").read_text()
        assert svg.startswith("<svg")
        assert "<polyline" in svg


def test_run_collapse_exits_3_with_partial_series(tmp_path):
    out = run_cli(
        "init", "--scenario", "clifford", "--R", "0.4", "--r", "0.4",
        "--nu", "32", "--nv", "32", "--dt", "1e-3", "--steps", "10000",
        "--out", "shrink", cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    out = run_cli("run", "shrink.manifest", cwd=tmp_path)
    assert out.returncode == 3
    assert "numerical failure" in out.stderr and "step" in out.stderr
    rows = (tmp_path / "shrink.csv").read_text().strip().split("\n")
    assert rows[0] == CSV_HEADER
    assert len(rows) > 10  # partial series flushed before the failure


def test_run_bad_manifest(tmp_path):
    (tmp_path / "dup.manifest").write_text("scenario = clifford\nscenario = clifford\n")
    out = run_cli("run", "dup.manifest", cwd=tmp_path)
    assert out.returncode == 2
    (tmp_path / "junk.manifest").write_text("this is not a key value line\n")
    out = run_cli("run", "junk.manifest", cwd=tmp_path)
    assert out.returncode == 2
    out = run_cli("run", "missing.manifest", cwd=tmp_path)
    assert out.returncode == 4


def test_run_rejects_malformed_numbers(flat_dir, tmp_path):
    man = (flat_dir / "flat-plane-torus-32x32.manifest").read_text()
    assert "\nnu = 32\n" in man
    for name, text, message in (
        ("abc", man.replace("\nnu = 32\n", "\nnu = abc\n"), "manifest key nu must be int"),
        ("missing", man.replace("\nnu = 32\n", "\n"), "manifest is missing nu"),
        ("steps", man.replace("\nsteps = ", "\nsteps = x"), "manifest key steps must be int"),
        ("periods", man + "periods = 1,two,3,4\n", "manifest key periods must be"),
        ("nan", man.replace("\nc_mon = ", "\nc_mon = nan # "), "manifest key c_mon must be finite"),
    ):
        (tmp_path / f"{name}.manifest").write_text(text)
        out = run_cli("run", f"{name}.manifest", cwd=tmp_path)
        assert_validation_failure(out)
        assert message in out.stderr


def test_run_old_renormalize_switch(flat_dir, tmp_path):
    # the phase is always projected back to the sphere: a manifest written
    # when that was a switch replays when it is on and is refused when off
    man = (flat_dir / "flat-plane-torus-32x32.manifest").read_text()
    assert "renormalize_phase" not in man
    (tmp_path / "off.manifest").write_text(man + "renormalize_phase = false\n")
    out = run_cli("run", "off.manifest", cwd=tmp_path)
    assert_validation_failure(out)
    assert "renormalize_phase" in out.stderr
    (tmp_path / "on.manifest").write_text(man + "renormalize_phase = true\n")
    out = run_cli("run", "on.manifest", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "flat-plane-torus-32x32.csv").read_text().split("\n")[1] == FLAT_ROW


def test_run_unwritable_csv(flat_dir, tmp_path):
    man = (flat_dir / "flat-plane-torus-32x32.manifest").read_text()
    man = man.replace(
        "csv_path = flat-plane-torus-32x32.csv", "csv_path = no-such-dir/out.csv"
    )
    (tmp_path / "bad.manifest").write_text(man)
    out = run_cli("run", "bad.manifest", cwd=tmp_path)
    assert out.returncode == 4


def test_check_passes_on_flat(flat_dir):
    out = run_cli(
        "check", "flat-plane-torus-32x32.snapshot.json", "--json", "report.json",
        cwd=flat_dir,
    )
    assert out.returncode == 0, out.stderr
    assert "all checks passed" in out.stdout
    doc = json.loads((flat_dir / "report.json").read_text())
    assert doc["all_pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"quaternion-product-table", "plf-identity", "bja-identity",
            "etd-polar-identity", "hyper-lagrangian-residual", "gauss-curvature",
            "hdp-margin", "lambda1-residual"} <= names
    for chk in doc["checks"]:
        if chk["status"] != "SKIP" and chk.get("direction") == "below":
            assert chk["measured"] <= 1e-10


def test_check_tolerance_scales_with_grid(tmp_path):
    for n in (64, 128):
        out = run_cli(
            "init", "--scenario", "clifford", "--R", "1", "--r", "1",
            "--nu", str(n), "--nv", str(n), cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        out = run_cli(
            "check", f"clifford-{n}x{n}.snapshot.json", "--json", f"rep{n}.json",
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
    rep64 = json.loads((tmp_path / "rep64.json").read_text())
    rep128 = json.loads((tmp_path / "rep128.json").read_text())

    def tol(doc, name):
        return next(c["tolerance"] for c in doc["checks"] if c["name"] == name)

    assert tol(rep64, "plf-identity") == pytest.approx(5e-3)
    assert tol(rep128, "plf-identity") == pytest.approx(1.25e-3)
    skip = next(c for c in rep64["checks"] if c["name"] == "etd-polar-identity")
    assert skip["status"] == "SKIP" and "pole-proximity" in skip["reason"]


def test_check_corrupt_snapshot(flat_dir, tmp_path):
    doc = json.loads((flat_dir / "flat-plane-torus-32x32.snapshot.json").read_text())
    doc["positions"][7] = float("nan")
    bad = tmp_path / "bad.snapshot.json"
    bad.write_text(json.dumps(doc))
    out = run_cli("check", str(bad), cwd=tmp_path)
    assert out.returncode == 2
    assert "validation failure" in out.stderr

    doc["positions"][7] = 0.0
    doc["version"] = 99
    bad.write_text(json.dumps(doc))
    out = run_cli("check", str(bad), cwd=tmp_path)
    assert out.returncode == 2

    bad.write_text("{not json")
    out = run_cli("check", str(bad), cwd=tmp_path)
    assert out.returncode == 2

    out = run_cli("check", "never-written.json", cwd=tmp_path)
    assert out.returncode == 4


def test_check_rejects_non_numeric_snapshot(flat_dir, tmp_path):
    good = json.loads((flat_dir / "flat-plane-torus-32x32.snapshot.json").read_text())
    bad = tmp_path / "bad.snapshot.json"
    for key, val in (
        ("nu", "abc"),
        ("nv", [32]),
        ("positions", ["x"] * len(good["positions"])),
        ("periods", ["a", "b", "c", "d"]),
    ):
        bad.write_text(json.dumps({**good, key: val}))
        out = run_cli("check", str(bad), cwd=tmp_path)
        assert_validation_failure(out)
        assert repr(key) in out.stderr
    bad.write_text(json.dumps({**good, "nu": float("inf")}))    # int() overflows
    assert_validation_failure(run_cli("check", str(bad), cwd=tmp_path))
    bad.write_text(json.dumps({**good, "nu": -2, "nv": -2, "positions": [0.0] * 16}))
    out = run_cli("check", str(bad), cwd=tmp_path)
    assert_validation_failure(out)
    assert "empty" in out.stderr
    bad.write_text("[1, 2, 3]")
    assert_validation_failure(run_cli("check", str(bad), cwd=tmp_path))
    bad.write_text(json.dumps({**good, "periods": [float("nan")] + good["periods"][1:]}))
    out = run_cli("check", str(bad), cwd=tmp_path)
    assert_validation_failure(out)
    assert "periods" in out.stderr


def test_spectrum_flat(flat_dir):
    out = run_cli("spectrum", "flat-plane-torus-32x32.snapshot.json", cwd=flat_dir)
    assert out.returncode == 0, out.stderr
    lines = dict(l.split(" ", 1) for l in out.stdout.strip().split("\n"))
    assert float(lines["lambda1"]) == pytest.approx(1.0, abs=5e-3)
    assert float(lines["residual"]) < 1e-7
    assert int(lines["iterations"]) >= 1


def test_spectrum_rectangular_torus(tmp_path):
    lv = repr(4 * np.pi)
    out = run_cli(
        "init", "--scenario", "flat-plane-torus", "--Lv", lv,
        "--nu", "64", "--nv", "64", "--out", "rect", cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    out = run_cli(
        "spectrum", "rect.snapshot.json", "--eigenfunction", "ef.json", cwd=tmp_path
    )
    assert out.returncode == 0, out.stderr
    lam = float(out.stdout.split("\n")[0].split(" ")[1])
    assert lam == pytest.approx(0.25, abs=1e-3)
    ef = json.loads((tmp_path / "ef.json").read_text())
    assert len(ef["values"]) == 64 * 64
    assert ef["lambda1"] == lam


def test_spectrum_degenerate_snapshot(flat_dir, tmp_path):
    doc = json.loads((flat_dir / "flat-plane-torus-32x32.snapshot.json").read_text())
    # collapse the v direction: every row of nodes maps to one point
    pos = np.array(doc["positions"]).reshape(32, 32, 4)
    pos[:, :, 1] = 0.0
    doc["positions"] = [float(x) for x in pos.reshape(-1)]
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps(doc))
    out = run_cli("spectrum", str(bad), cwd=tmp_path)
    assert out.returncode == 3
    assert "metric-degenerate" in out.stderr
