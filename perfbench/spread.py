"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--out FILE]

Every run measures for BENCHMARK.json's ``run_seconds``, so the spreads are
those of the benchmark as the bounds apply to it.  For every workload and
end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles as a share of
the median (``statistics.quantiles(values, n=4)``), the spread that each
metric's ``bound`` in BENCHMARK.json must cover.  ``--out`` writes the
medians and quartiles as one JSON point of the benchmark's trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"seeds": args.seeds, "run_seconds": seconds, "workloads": {}}
    for w in workloads.WORKLOADS:
        values, env = {}, None
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: {res['failed']} failed", file=sys.stderr)
                return 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            env = env or next(ln for ln in proc.stdout.splitlines() if ln.startswith("# "))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{w:12s} {name:20s} median {med:.5g}  spread {spread:.4f}  "
                  f"bound {bounds[name]}  {'ok' if spread <= bounds[name] / 3 else 'WIDE'}")
        point["workloads"][w] = {"env": env, "metrics": stats}
    if args.out:
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
