"""Every benchmark variant and warm-up, run in-process through tools/run_digests.py's
run_config, against the reference artifacts in perfbench/refs: exit code, file set,
summary keys and every number within perfbench/check.py's tolerance, with the witness
gaps below GAP_TOL."""

import sys
from pathlib import Path

import pytest

from strichartz_gls.witness import GAP_TOL

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]
import check  # noqa: E402
import run_digests  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_variant_matches_its_reference(workload, tmp_path):
    refs = check.load_refs(workload)
    experiments = [*workloads.all_variants(workload), workloads.warmup(workload)]
    problems = []
    for i, exp in enumerate(experiments):
        (tmp := tmp_path / str(i)).mkdir()
        rc, out, _ = run_digests.run_config(exp.config, tmp)
        found = check.compare(rc, check.read_artifacts(out), refs[exp.id], GAP_TOL)
        if rc != exp.expect_rc:
            found.append(f"exit code {rc}, expected {exp.expect_rc}")
        problems += [f"{exp.id}: {p}" for p in found]
    assert {exp.id for exp in experiments} == set(refs)
    assert not problems, problems
