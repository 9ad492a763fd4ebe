"""Benchmark of the strichartz-gls experiment runner.

    python3 perfbench/run.py [--workload sweep-1d|spectral|small-batch|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Drives the public entry point ``cli.run(config, out)`` on a seeded batch of
generated configs (see workloads.py), one workload per fresh process, in a
closed loop with one client.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` a separate run wraps the package's public
functions and prints the per-layer metrics, each with the end-to-end
metrics and workload it should move.  ``--workload all`` (the
default) prints the end-to-end table of every workload and then the traced
per-layer tables.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Run it from the root of a checkout; it reads and writes only there
(``.perfbench_tmp/`` for generated configs and artifacts, removed on exit;
``.perfbench_out/`` for the full record of each run).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only; numpy is imported by the workers)
from tracing import MODULES, PER_LAYER  # noqa: E402
from worker import pin_threads  # noqa: E402

SETUP_SAMPLES = 7   # fresh processes per run whose set-up time is measured
RUN_TIMEOUT = 170.0  # seconds for all worker processes of one workload; a run must end within 180


END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("experiment_s_p50", "s"),
    ("experiment_s_p90", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "frac"),
)


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, trace, mode, deadline) -> dict:
    """Run one worker process to completion and return its JSON record."""
    env = dict(os.environ)
    pin_threads(env)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--mode", mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(n: int) -> int:
    """90, or the highest whole percentile with at least 10 samples above it."""
    for q in range(90, 0, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 50


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs) / 100) - 1)]


def measure(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT
    setups = [spawn(workload, seed, seconds, 0, "setup", deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    rec = spawn(workload, seed, seconds, 0, "measure", deadline)
    setups.append(rec)
    problems = [p for r in setups for p in r["problems"]]
    failed = rec["failed"] + sum(bool(r["problems"]) for r in setups[:-1])
    attempted = rec["attempted"] + len(setups) - 1
    n = len(rec["times"])
    q = tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(rec["pass_walls"]),
        "experiment_s_p50": statistics.median(rec["times"]),
        "experiment_s_p90": percentile(rec["times"], q),
        "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
        "verified_frac": 1.0 - failed / attempted,
    }
    notes = {"samples": n, "passes": len(rec["pass_walls"]), "tail_percentile": q,
             "failed_frac": failed / attempted}
    return {"workload": workload, "seed": seed, "trace": 0, "metrics": metrics,
            "notes": notes, "attempted": attempted, "failed": failed,
            "problems": problems, "env": rec["env"],
            "inputs": workloads.summarize(rec["inputs"]),
            "input_configs": rec["inputs"]}


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    rec = spawn(workload, seed, seconds, 1, "measure", time.monotonic() + RUN_TIMEOUT)
    layer = rec["layer"]
    metrics = {name: statistics.median(p[name] for p in layer)
               for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (statistics.median(rec["traced_walls"])
                                      / statistics.median(rec["pass_walls"]) - 1.0)
    return {"workload": workload, "seed": seed, "trace": 1, "metrics": metrics,
            "notes": {"traced_passes": len(layer), "spans_file": rec["spans_file"]},
            "attempted": rec["attempted"], "failed": rec["failed"],
            "problems": rec["problems"], "env": rec["env"]}


def dominant(metrics: dict) -> tuple:
    name = max(MODULES, key=lambda m: metrics[f"{m}.self_share"])
    return name, metrics[f"{name}.self_share"]


def print_result(res: dict) -> None:
    w, m = res["workload"], res["metrics"]
    env = res["env"]
    print(f"# {w} seed={res['seed']} trace={res['trace']}: python {env['python']}, "
          f"numpy {env['numpy']}, nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"cpu {env['cpu']}")
    if res["trace"] == 0:
        n = res["notes"]
        print(f"# inputs: {json.dumps(res['inputs'])}")
        for name, unit in END_TO_END:
            extra = ""
            if name.startswith("experiment_s"):
                extra = f"  (n={n['samples']} over {n['passes']} passes)"
            if name == "experiment_s_p90" and n["tail_percentile"] != 90:
                extra += f"  reported as p{n['tail_percentile']}: fewer than 10 samples above p90"
            print(f"{w:12s} {name:40s} {m[name]:14.6g} {unit}{extra}")
        print(f"{w:12s} {'failed_frac':40s} {n['failed_frac']:14.6g} frac"
              f"  ({res['failed']} of {res['attempted']} attempted)")
    else:
        for name, unit, target in PER_LAYER:
            print(f"{w:12s} {name:40s} {m[name]:14.6g} {unit:6s}  moves: {target}")
        mod, share = dominant(m)
        print(f"# {w}: dominant layer {mod}: {share:.1%} of traced wall_s "
              f"{m['trace.wall_s']:.4g} s (self time)")
    for p in res["problems"][:10]:
        print(f"# FAILED {w}: {p}", file=sys.stderr)


def save(res: dict) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of cli.run on seeded workloads.")
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "strichartz_gls" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        plan = [(w, 0) for w in workloads.WORKLOADS] + [(w, 1) for w in workloads.WORKLOADS]
    else:
        plan = [(args.workload, args.trace)]
    results = []
    try:
        for workload, trace in plan:
            run = measure_traced if trace else measure
            res = run(workload, args.seed, seconds)
            save(res)
            print_result(res)
            results.append(res)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics = {}
    for res in results:
        unit = dict(END_TO_END if res["trace"] == 0 else (n[:2] for n in PER_LAYER))
        for k, v in res["metrics"].items():
            name = k if len(results) == 1 else f"{res['workload']}/{k}"
            metrics[name] = {"value": v, "unit": unit[k]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
