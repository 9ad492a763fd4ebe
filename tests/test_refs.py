"""Every benchmark variant and warm-up, run in-process through cli.run, against the
reference artifacts in perfbench/refs: exit code, file set, summary keys and every
number within perfbench/check.py's tolerance, with the witness gaps below GAP_TOL."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from strichartz_gls import cli
from strichartz_gls.witness import GAP_TOL

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import check  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_variant_matches_its_reference(workload, tmp_path):
    refs = check.load_refs(workload)
    experiments = [*workloads.all_variants(workload), workloads.warmup(workload)]
    problems = []
    for i, exp in enumerate(experiments):
        cfg, out = tmp_path / f"{i}.json", tmp_path / str(i)
        cfg.write_text(json.dumps(exp.config))
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(str(cfg), str(out))
        found = check.compare(rc, check.read_artifacts(out), refs[exp.id], GAP_TOL)
        if rc != exp.expect_rc:
            found.append(f"exit code {rc}, expected {exp.expect_rc}")
        problems += [f"{exp.id}: {p}" for p in found]
    assert {exp.id for exp in experiments} == set(refs)
    assert not problems, problems
