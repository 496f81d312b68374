"""stokes-lab benchmark: time to verdict, memory and accuracy per workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a fresh interpreter (worker.py) with OpenBLAS/OpenMP
pinned to one thread before numpy loads; workloads never run concurrently.
With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics (setup_s, pass_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics of a separate traced run, and the spans are written to
perfbench/out/.  The lines before it name every metric with its unit, the
accuracy figures (err.*), the sample counts and quartiles, and the numeric
environment in effect.  See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("bem-solve", "bem-field", "annulus-oracle", "annulus-contrast")

# set-up is sampled in this many fresh interpreters besides the measuring one
SETUP_PROBES = 4
# no single interpreter may run longer than this
CHILD_TIMEOUT_S = 150.0

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _worker(args, outdir: str, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time (spawn to `ready`) and record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload_name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", SRC, "--outdir", outdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.communicate(timeout=CHILD_TIMEOUT_S)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{args.workload_name}: worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(args) -> dict:
    outdir = os.path.join(WORK, args.workload_name)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(args, outdir, setup_only=True)[0])
    setup_s, rec = _worker(args, outdir, setup_only=False)
    setups.append(setup_s)

    passes = rec["passes"]
    result = {
        "attempted": len(passes),
        "failed": len(rec["failures"]),
        "failures": rec["failures"],
        "errors": rec["errors"],
        "env": rec["env"],
    }
    if args.trace:
        result["metrics"] = rec["layers"]
        result["absent"] = rec["absent"]
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload_name}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload_name, "seed": args.seed,
                       "passes": passes, "spans": rec["spans"]}, f)
        result["spans_file"] = os.path.relpath(path, ROOT)
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(passes),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    result["samples"] = {"setup_s": setups, "pass_s": passes}
    return result


def _print_human(name: str, res: dict, units: dict):
    print(f"== {name}: {res['attempted']} passes, {res['failed']} failed")
    for key, value in res["metrics"].items():
        line = f"  {key:32s} {value:14.6g} {units[key]}"
        if units[key] not in ("s", "MB"):
            line += "   (computed)"
        samples = res["samples"].get(key)
        if samples and len(samples) > 1:
            q1, q3 = _quartiles(samples)
            line += f"   (median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    for key, value in res["errors"].items():
        print(f"  {key:32s} {value:14.6g} 1")
    for failure in res["failures"]:
        print(f"  FAILED: {failure.strip()}")
    for absent in res.get("absent", []):
        print(f"  layer absent: {absent}")
    if "spans_file" in res:
        print(f"  spans: {res['spans_file']}")
    env = res["env"]
    blas = "; ".join(f"{k}: {v['threads']} thread(s), {v['config']}"
                     for k, v in env["openblas"].items())
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']} (affinity {env['affinity']}), cpu {env['cpu']}, "
          f"os threads {env['os_threads']}, {blas}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stokes_lab", "__init__.py")):
        print(f"run.py: no stokes_lab sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload_name = name
            results[name] = run_workload(args)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if args.trace:
        from spans import METRICS as units
    else:
        units = END_TO_END_UNITS
    for name, res in results.items():
        _print_human(name, res, units)
    prefix = len(names) > 1
    metrics = {f"{name}.{k}" if prefix else k: {"value": v, "unit": units[k]}
               for name, res in results.items() for k, v in res["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    raise SystemExit(main())
