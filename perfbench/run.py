"""hkflow benchmark: time to solution, audit time and per-layer spans.

    python3 perfbench/run.py --workload converge-32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs per process.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
`--workload all` runs every workload, each in a fresh process, and ends
with one JSON object holding each workload's result.

The package is imported from the checkout's own src/ (resolved from this
file, not from the working directory); without it the benchmark exits 2.
See perfbench/README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"
WORKLOADS = ("converge-32", "march-128", "audit-128")
# single-threaded BLAS/OpenMP: steadier on a shared machine, and the
# plain single-threaded baseline; it never exceeds nproc
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# glibc sysconf names; cache sizes come from cpuid, no file is read
SC_LEVEL2_CACHE_SIZE = 191
SC_LEVEL3_CACHE_SIZE = 194


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cache_sizes():
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        sizes = libc.sysconf(SC_LEVEL2_CACHE_SIZE), libc.sysconf(SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None, None
    return tuple(s if s > 0 else None for s in sizes)


def run_all(args):
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        for metric, entry in results[name]["metrics"].items():
            print(f"{name:<12} {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "hkflow" / "__init__.py").is_file():
        print(f"benchmark: no hkflow package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import hkflow.cli

    import_s = time.perf_counter() - start
    if Path(hkflow.__file__).resolve().parent != SRC / "hkflow":
        print(f"benchmark: imported hkflow from {hkflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import workloads

    l2, l3 = cache_sizes()
    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "l2_bytes": l2,
        "l3_bytes": l3,
    }
    WORKDIR.mkdir(exist_ok=True)
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s, ROOT, WORKDIR, info
    )
    for key, val in info.items():
        print(f"info {key}: {val}")
    for metric, entry in result["metrics"].items():
        print(f"metric {metric}: {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
