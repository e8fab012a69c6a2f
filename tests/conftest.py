"""Shared harness: the ``python -m hkflow.cli`` environment and snapshot edits.

The CLI tests call ``cli.main`` in process.  A few need a fresh
interpreter and run the real entry point as a subprocess with ``cwd`` set
to a temp directory: one parser serving independent calls, scipy loading
at first use, the no-traceback checks for exit codes 2, 3 and 4 (a
warning printed to stderr shows only there), and acceptance criterion 8.
A relative ``PYTHONPATH`` such as ``src`` does not resolve in the temp
directory, and an unrelated installed ``hkflow`` would be picked up in
its place.  The child therefore gets the directory that holds the
``hkflow`` package this test process imported at the front of its
``PYTHONPATH``, whatever directory pytest was started from.

A version-2 snapshot stores its positions as base64 text of ``<f8``
bytes; tests that corrupt a written snapshot edit the decoded
coordinates through ``snapshot_positions`` and ``with_positions``.
"""

import base64
import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import hkflow

PACKAGE_FILE = Path(hkflow.__file__).resolve()
PACKAGE_ROOT = str(PACKAGE_FILE.parent.parent)


@functools.cache
def cli_env():
    """Environment for a CLI subprocess, checked once per test run.

    A probe child started from an empty temp directory must import this
    very ``hkflow``; otherwise the calling test fails with a message that
    names the path put on ``PYTHONPATH``.
    """
    pythonpath = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    with tempfile.TemporaryDirectory() as tmp:
        probe = subprocess.run(
            [sys.executable, "-c", "import hkflow; print(hkflow.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=600,
        )
    found = probe.stdout.strip()
    if probe.returncode != 0 or Path(found).resolve() != PACKAGE_FILE:
        pytest.fail(
            f"a subprocess with {PACKAGE_ROOT} first on PYTHONPATH does not "
            f"import the hkflow under test ({PACKAGE_FILE}); it imported "
            f"{found or 'nothing'}\n{probe.stderr.strip()}",
            pytrace=False,
        )
    return env


def snapshot_positions(doc):
    """The flat float64 coordinates of a version-2 snapshot document."""
    return np.frombuffer(base64.b64decode(doc["positions"]), "<f8").copy()


def with_positions(doc, positions):
    """A copy of a version-2 snapshot document carrying these coordinates."""
    payload = np.asarray(positions, "<f8").tobytes()
    return {**doc, "positions": base64.b64encode(payload).decode("ascii")}
