"""One workload in one fresh process (started by run.py).

Imports the package from ``<root>/src``, generates the seeded batch, runs
one untimed warm-up experiment and reports ``setup_s`` (seconds since the
parent took ``--t0`` just before starting this process).  The benchmark's
own bookkeeping (loading the references, checking the warm-up, describing
the inputs) comes after that timestamp.  In ``measure``
mode it then runs the batch through ``cli.run`` in a closed loop (one
client; each experiment starts when the previous one returns), whole
passes until ``--seconds`` have elapsed, and checks every artifact against
the recorded references after each pass.  With ``--trace 1`` untraced and
traced passes alternate.  It prints one JSON line for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import check
import workloads
from tracing import Tracer, pass_metrics

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads(env=os.environ) -> None:
    """Pin BLAS/OpenMP pools to one thread (at most nproc); call before numpy is imported."""
    for var in THREAD_VARS:
        env[var] = "1"


def load_package(root: Path):
    """Import the package from the checkout at ``root``, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (counted in setup_s)
    import strichartz_gls
    from strichartz_gls import cli, witness
    if Path(strichartz_gls.__file__).resolve().parent.parent != src:
        raise ImportError(f"strichartz_gls imported from {strichartz_gls.__file__}, not {src}")
    return cli, witness.GAP_TOL


def environment() -> dict:
    import numpy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": os.environ.get("OMP_NUM_THREADS")}


def run_one(cli, config_path: Path, out_dir: Path):
    """(exit code, error) of one cli.run call; an exception is an error, not a crash."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.run(str(config_path), str(out_dir)), None
        except Exception:  # the benchmark keeps going and counts the failure
            return None, traceback.format_exc(limit=3)


def write_configs(batch, directory: Path) -> list:
    paths = []
    for i, exp in enumerate(batch):
        path = directory / f"{i:03d}.json"
        path.write_text(json.dumps(exp.config, indent=1))
        paths.append(path)
    return paths


class Batch:
    """The seeded batch, its config files, and the checks run after each pass."""

    def __init__(self, cli, workload, seed, tmp: Path):
        self.cli, self.workload, self.tmp = cli, workload, tmp
        self.experiments = workloads.generate(workload, seed)
        (tmp / "configs").mkdir()
        self.paths = write_configs(self.experiments, tmp / "configs")
        self.refs, self.gap_tol = None, None
        self.digests = {}
        self.problems = []

    def load_refs(self, gap_tol) -> None:
        """Load what the checks compare with (not part of set-up time)."""
        self.refs, self.gap_tol = check.load_refs(self.workload), gap_tol

    def run_pass(self, tracer=None):
        """Time one pass, then check it: (wall_s, per-experiment seconds, failures, rejections)."""
        out_root = self.tmp / "out"
        shutil.rmtree(out_root, ignore_errors=True)
        out_root.mkdir()
        outs = [out_root / str(i) for i in range(len(self.paths))]
        times, results = [], []
        clock = time.perf_counter
        if tracer is not None:
            tracer.install()
        try:
            start = clock()
            for path, out in zip(self.paths, outs):
                t = clock()
                results.append(run_one(self.cli, path, out))
                times.append(clock() - t)
            wall = clock() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        failed = sum(not self._verify(i, rc, err, outs[i]) for i, (rc, err) in enumerate(results))
        rejections = sum(rc == e.expect_rc != 0 for (rc, _), e in zip(results, self.experiments))
        return wall, times, failed, rejections

    def _verify(self, i, rc, err, out: Path) -> bool:
        exp = self.experiments[i]
        if err is not None:
            return self._fail(exp, [err])
        files = check.read_artifacts(out)
        problems = check.compare(rc, files, self.refs[exp.id], self.gap_tol)
        digest = hashlib.sha256(json.dumps([rc, files], sort_keys=True).encode()).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            problems.append("artifacts differ from an earlier pass (traced or untraced)")
        return not problems or self._fail(exp, problems)

    def _fail(self, exp, problems) -> bool:
        self.problems.append(f"{exp.id}: {'; '.join(problems)}")
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), default="measure")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = ap.parse_args(argv)
    pin_threads()
    root = Path(args.root).resolve()
    cli, gap_tol = load_package(root)
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_tmp"))
    try:
        return _run(args, root, tmp, cli, gap_tol)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, root, tmp, cli, gap_tol) -> int:
    batch = Batch(cli, args.workload, args.seed, tmp)
    warm = workloads.warmup(args.workload)
    warm_path = write_configs([warm], tmp)[0]
    rc, err = run_one(cli, warm_path, tmp / "warmup")
    setup_s = time.monotonic() - args.t0
    batch.load_refs(gap_tol)
    warm_problems = [err] if err else check.compare(
        rc, check.read_artifacts(tmp / "warmup"), batch.refs[warm.id], gap_tol)
    record = {"setup_s": setup_s, "problems": [f"warm-up {warm.id}: {p}" for p in warm_problems]}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    walls, traced_walls, times, layer = [], [], [], []
    attempted = failed = 0
    tracer = Tracer() if args.trace else None
    spans_file = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, t, f, _ = batch.run_pass()
        walls.append(wall)
        times.extend(t)
        attempted += len(t)
        failed += f
        if tracer is not None:
            wall, t, f, rejections = batch.run_pass(tracer)
            traced_walls.append(wall)
            attempted += len(t)
            failed += f
            if spans_file is None:
                (root / ".perfbench_out").mkdir(exist_ok=True)
                spans_file = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.txt"
                tracer.dump_spans(spans_file)
            layer.append(pass_metrics(tracer.collect(), wall, rejections))
    failed += bool(warm_problems)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    inputs = [workloads.describe(e.config) for e in batch.experiments]
    record.update({
        "pass_walls": walls, "traced_walls": traced_walls, "times": times,
        "attempted": attempted + 1, "failed": failed,
        "problems": record["problems"] + batch.problems[:20],
        "peak_rss_kb": peak_rss_kb,
        "env": environment(), "inputs": inputs, "layer": layer,
        "spans_file": str(spans_file) if spans_file else None,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
