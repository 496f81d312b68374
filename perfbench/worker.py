"""One workload in a fresh interpreter: set up, then timed passes.

Started by run.py with the BLAS/OpenMP thread pools already pinned in the
environment.  Prints `ready` once stokes_lab is imported and the inputs are
built; with --setup-only it stops there.  Otherwise it runs passes until
--seconds have elapsed (three passes at least) and prints one JSON record as
its last line.

With --trace 1, a first untraced pass warms up, then passes alternate between
traced (wrappers installed for that pass only) and untraced, so the record
carries per-layer figures and the tracing overhead; with --trace 0 no wrapper
is ever installed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback


def _openblas_threads() -> dict:
    """Thread count in effect for each OpenBLAS the process has loaded."""
    paths = set()
    with open("/proc/self/maps") as f:
        for line in f:
            name = os.path.basename(line.split()[-1])
            if "openblas" in name and ".so" in name:
                paths.add(line.split()[-1])
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is None or os.path.basename(path) in found:
                    continue
                get.restype = ctypes.c_int
                entry = {"threads": get(), "config": ""}
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if config is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
                found[os.path.basename(path)] = entry
    return found


def environment() -> dict:
    import numpy as np
    import scipy

    a = np.ones((256, 256))
    a @ a  # let BLAS start any worker threads it is going to start
    with open("/proc/self/status") as f:
        threads = int(next(line for line in f if line.startswith("Threads:")).split()[1])
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_threads(),
        "os_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "pinned_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import stokes_lab
    import stokes_lab.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    src = os.path.realpath(args.src)
    if not os.path.realpath(stokes_lab.__file__).startswith(src + os.sep):
        print(f"worker: stokes_lab was imported from {stokes_lab.__file__}, not {src}",
              file=sys.stderr)
        return 3

    from workloads import WORKLOADS, PassFailed

    workload = WORKLOADS[args.workload](args.seed, args.outdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    env = environment()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    passes, traced, failures, errors = [], [], [], {}
    digest = None
    start = time.perf_counter()
    # at least three passes, so that a median can set one slow pass aside; with
    # tracing, pass 0 warms up untraced, then traced and untraced alternate
    while len(passes) < 3 or time.perf_counter() - start < args.seconds:
        on = bool(tracer) and len(passes) % 2 == 1
        if on:
            tracer.pass_id = len(passes)
            tracer.install()
        t0 = time.perf_counter()
        try:
            errs, d = workload.run_pass()
            if digest is None:
                digest = d
            elif d != digest:
                raise PassFailed("outputs differ from the first pass of this run")
            for k, v in errs.items():
                errors[k] = max(errors.get(k, v), v)
        except PassFailed as exc:
            failures.append(str(exc))
        except Exception:  # a crash in the library is a failed pass, reported in full
            failures.append(traceback.format_exc())
        finally:
            passes.append(time.perf_counter() - t0)
            traced.append(on)
            if on:
                tracer.uninstall()
                tracer.pass_id = None

    record = {
        "passes": passes,
        "failures": failures,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    if tracer:
        record["layers"] = tracer.layer_medians(
            [(i, s) for i, (s, on) in enumerate(zip(passes, traced)) if on],
            [s for i, (s, on) in enumerate(zip(passes, traced)) if i and not on])
        record["absent"] = tracer.absent
        record["spans"] = tracer.spans
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
