"""Output check: compare one experiment's artifacts with the reference
recorded at the seed commit.

Numbers agree when they are within REL_TOL of the reference, relative to
the larger of the value and the largest magnitude in the same CSV column or
JSON list (so round-off in entries near zero, such as the imaginary part of
a heat-flow sample, is judged against the column's scale).  Error measures
(relative gaps, fit residuals, drifts) are differences of nearly equal
numbers, so they are judged against a scale of at least 1.  Every other
cell and field must match exactly.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent

REL_TOL = 1e-13  # ROADMAP aim 1: values within 1e-13 relative of the previous run

ERROR_MEASURES = {"rel_gap", "max_rel_gap", "residual", "max_consecutive_drift",
                  "slope_delta_pct", "max_abs_slope_error"}


def refs_path(workload: str) -> Path:
    return HERE / "refs" / f"{workload}.json.gz"


def load_refs(workload: str) -> dict:
    with gzip.open(refs_path(workload), "rt") as fh:
        return json.load(fh)


def save_refs(workload: str, refs: dict) -> None:
    path = refs_path(workload)
    path.parent.mkdir(exist_ok=True)
    # mtime=0 keeps the file byte-identical when recorded twice.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(refs, sort_keys=True, indent=0).encode())


def read_artifacts(out_dir: Path) -> dict:
    """File name -> text for everything cli.run wrote into ``out_dir``."""
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _close(got: float, ref: float, scale: float) -> bool:
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= REL_TOL * max(abs(ref), scale)


def _compare_csv(name: str, got: str, ref: str, problems: list):
    g_rows = list(csv.reader(io.StringIO(got)))
    r_rows = list(csv.reader(io.StringIO(ref)))
    if len(g_rows) != len(r_rows) or (r_rows and g_rows[0] != r_rows[0]):
        problems.append(f"{name}: header or row count differs")
        return
    ncol = len(r_rows[0]) if r_rows else 0
    scale = [1.0 if h in ERROR_MEASURES else 0.0 for h in r_rows[0]] if r_rows else []
    for row in r_rows[1:]:
        for j, cell in enumerate(row[:ncol]):
            x = _as_float(cell)
            if x is not None and math.isfinite(x):
                scale[j] = max(scale[j], abs(x))
    for i, (g, r) in enumerate(zip(g_rows[1:], r_rows[1:]), start=2):
        if len(g) != len(r):
            problems.append(f"{name}:{i}: column count differs")
            return
        for j, (gc, rc) in enumerate(zip(g, r)):
            gx, rx = _as_float(gc), _as_float(rc)
            ok = (gc == rc) if gx is None or rx is None else _close(gx, rx, scale[j])
            if not ok:
                problems.append(f"{name}:{i}:{r_rows[0][j]}: {gc} != {rc}")
                return


def _compare_json(path: str, got, ref, problems: list, scale: float = 0.0):
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None:
        if got != ref:
            problems.append(f"{path}: {got!r} != {ref!r}")
    elif isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if not _close(float(got), float(ref), scale):
            problems.append(f"{path}: {got!r} != {ref!r}")
    elif isinstance(ref, list) and isinstance(got, list) and len(ref) == len(got):
        nums = [abs(x) for x in ref if isinstance(x, (int, float)) and math.isfinite(x)]
        sub = max(nums, default=0.0)
        for k, (g, r) in enumerate(zip(got, ref)):
            _compare_json(f"{path}[{k}]", g, r, problems, sub)
    elif isinstance(ref, dict) and isinstance(got, dict):
        if sorted(got) != sorted(ref):
            problems.append(f"{path}: keys {sorted(got)} != {sorted(ref)}")
            return
        for k in ref:
            _compare_json(f"{path}.{k}", got[k], ref[k], problems,
                          1.0 if k in ERROR_MEASURES else 0.0)
    elif got != ref:
        problems.append(f"{path}: {got!r} != {ref!r}")


def compare(rc: int, files: dict, ref: dict, gap_tol: float) -> list:
    """Problems found in one experiment's exit code and artifacts; empty if none.

    A rejected config (nonzero reference exit code) is judged by its exit code
    alone.  A witness whose reference summary passes must also keep its grid
    channel within ``gap_tol`` of the closed form; one whose reference summary
    already fails is only compared with that reference.
    """
    if rc != ref["rc"]:
        return [f"exit code {rc} != {ref['rc']}"]
    if rc != 0:
        return []
    problems = []
    if sorted(files) != sorted(ref["files"]):
        return [f"artifacts {sorted(files)} != {sorted(ref['files'])}"]
    for name, text in ref["files"].items():
        if name.endswith(".csv"):
            _compare_csv(name, files[name], text, problems)
            continue
        got, want = json.loads(files[name]), json.loads(text)
        _compare_json(name, got, want, problems)
        if str(want.get("experiment", "")).startswith("witness-") and want.get("pass"):
            gap = got.get("max_rel_gap")
            if not (isinstance(gap, (int, float)) and gap < gap_tol):
                problems.append(f"{name}: max_rel_gap {gap!r} not below GAP_TOL {gap_tol}")
    return problems
