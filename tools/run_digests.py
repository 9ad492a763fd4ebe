"""Print one digest line per run of every benchmark variant and shipped config.

Usage:
    python3 tools/run_digests.py > digests.txt

Runs each config of perfbench.workloads.all_variants (every workload; the
warm-ups are among them) and each configs/*.json through cli.run, in-process
(run_config, which tests/test_refs.py shares), with RuntimeWarning raised as
an error.  Each line is

    <run id> <exit code> <sha256 over the run's files and stderr>

so two checkouts that print the same lines wrote the same bytes and the same
stderr with the same exit codes.  perfbench/ is imported, never written.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from strichartz_gls import cli  # noqa: E402
import workloads  # noqa: E402


def runs():
    """(id, config) of every run, benchmark variants first."""
    for workload in workloads.WORKLOADS:
        for exp in workloads.all_variants(workload):
            yield f"{workload}:{exp.id}", exp.config
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield f"configs/{path.name}", json.loads(path.read_text())


def run_config(config: dict, tmp: Path) -> tuple:
    """(exit code, output directory, stderr) of cli.run on config, written to
    tmp/config.json, with its artifacts in tmp/out."""
    cfg, out = tmp / "config.json", tmp / "out"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.run(str(cfg), str(out))
    return rc, out, err.getvalue()


def digest(config: dict, tmp: Path) -> tuple:
    """(exit code, sha256 over each output file's name and bytes, then stderr)."""
    rc, out, err = run_config(config, tmp)
    h = hashlib.sha256()
    for f in sorted(out.rglob("*")) if out.exists() else ():
        if f.is_file():
            h.update(f.relative_to(out).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    h.update(err.encode())
    return rc, h.hexdigest()


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    for run_id, config in runs():
        with tempfile.TemporaryDirectory() as tmp:
            rc, hexdigest = digest(config, Path(tmp))
        print(run_id, rc, hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
