"""Record the reference artifacts every benchmark check compares against.

Runs every variant of every slot of each workload once through cli.run
and stores its exit code and artifacts in ``perfbench/refs/<workload>.json.gz``.
Run it only at a commit whose outputs are the accepted ones:

    python3 perfbench/record.py

It refuses to write when a config gives another exit code than its slot
expects, or when a witness summary reports a failure, and prints each
config's time.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads
from worker import load_package, pin_threads, run_one

ROOT = Path(__file__).resolve().parent.parent


def record(cli, workload: str, scratch: Path) -> dict:
    refs, bad = {}, []
    for exp in workloads.all_variants(workload):
        name = exp.id.replace("/", "_").replace("#", "_")
        cfg_path = scratch / f"{name}.json"
        cfg_path.write_text(json.dumps(exp.config, indent=1))
        out = scratch / name
        t = time.perf_counter()
        rc, err = run_one(cli, cfg_path, out)
        dt = time.perf_counter() - t
        files = check.read_artifacts(out)
        summary = next((json.loads(v) for k, v in files.items() if k.endswith("_summary.json")), {})
        note = ""
        if str(summary.get("experiment", "")).startswith("witness-"):
            note = f"pass={summary.get('pass')} max_rel_gap={summary.get('max_rel_gap'):.3g}"
            if not summary.get("pass"):
                bad.append(f"{exp.id}: witness summary fails ({note})")
        print(f"{workload:12s} {exp.id:36s} rc={rc} {dt:7.3f}s {note}", flush=True)
        if err or rc != exp.expect_rc:
            bad.append(f"{exp.id}: exit code {rc}, expected {exp.expect_rc} {err or ''}")
        refs[exp.id] = {"rc": rc, "files": files if rc == 0 else {}}
    if bad:
        raise SystemExit("not recorded:\n  " + "\n  ".join(bad))
    return refs


def main() -> int:
    pin_threads()
    cli, _ = load_package(ROOT)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as tmp:
            check.save_refs(workload, record(cli, workload, Path(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
