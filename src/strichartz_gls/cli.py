"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Usage:
    strichartz-gls run <config.json> [--out DIR]
    strichartz-gls report <DIR>

Exit codes: 0 success, 1 config error, 2 numerical-domain error.
Outputs are deterministic; re-running a config produces byte-identical
files.  Every CSV row carries a provenance tag (grid | closed-form |
asymptotic | fit).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .functionals import (
    fit_rate,
    mixed_norm,
    predicted_rate,
    space_norm,
    v_sr_curve,
    w_sp_curve,
)
from .grid_field import (
    INF,
    GaussianSpec,
    GridFunction,
    box_indicator,
    gaussian_sample,
    make_grid,
    moment_profile,
)
from .propagators import (
    HEAT,
    SCHRODINGER,
    PropagatorKind,
    check_window,
    fractional,
    propagate,
)
from .spaces import PsiSpec, exponent_grid, fundamental_asymptotic, fundamental_gls
from .witness import GAP_TOL, sp_witness, sr_witness, gaussian_moment_law_check

EXPERIMENTS = (
    "norms",
    "fundamental",
    "propagate",
    "functional-sweep",
    "witness-sp",
    "witness-sr",
    "moment-law",
    "mixed-norm",
    "rate-report",
)


class ConfigError(Exception):
    """Invalid or missing configuration fields; message carries the field path."""


def _fmt(x: float) -> str:
    if x == INF:
        return "inf"
    return format(float(x), ".16e")


def _get(cfg: dict, path: str, typ=None, default=KeyError):
    node = cfg
    parts = path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            if default is not KeyError:
                return default
            raise ConfigError(f"missing config field: {'.'.join(parts[: i + 1])}")
        node = node[part]
    if typ is not None:
        try:
            if typ is float:
                return _parse_real(node)
            node = typ(node)
        except (TypeError, ValueError):
            raise ConfigError(f"field {path} has invalid value {node!r}")
    return node


def _parse_real(v) -> float:
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return INF
        return float(v)
    return float(v)


def _real_list(cfg: dict, path: str) -> list:
    """A config field that must be a list of reals ("inf" allowed)."""
    node = _get(cfg, path)
    if isinstance(node, list):
        try:
            return [_parse_real(v) for v in node]
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"field {path} must be a list of numbers, got {node!r}")


def parse_psi(block, path: str) -> PsiSpec:
    if not isinstance(block, dict):
        raise ConfigError(f"field {path} must be an object")
    variant = _get(block, "variant", str)
    try:
        if variant == "degenerate":
            return PsiSpec.degenerate(_get(block, "s", float))
        if variant == "zeta":
            return PsiSpec.zeta(
                _get(block, "a", float),
                _get(block, "b", float),
                _get(block, "alpha", float),
                _get(block, "beta", float),
            )
        if variant == "table":
            pts = _get(block, "points")
            if not isinstance(pts, dict) or not pts:
                raise ConfigError(f"field {path}.points must be a non-empty object")
            return PsiSpec.table({_parse_real(k): _parse_real(v) for k, v in pts.items()})
    except ValueError as e:
        raise ConfigError(f"invalid weight at {path}: {e}")
    raise ConfigError(f"field {path}.variant must be one of degenerate|zeta|table")


def parse_t_grid(block, path: str) -> np.ndarray:
    if isinstance(block, list):
        t = np.asarray([_parse_real(v) for v in block], dtype=float)
    else:
        start = _get(block, "start", float)
        stop = _get(block, "stop", float)
        count = _get(block, "count", int)
        spacing = _get(block, "spacing", str, default="geometric")
        if count < 1 or stop <= start or start <= 0:
            raise ConfigError(f"field {path}: need 0 < start < stop and count >= 1")
        if spacing == "geometric":
            t = np.geomspace(start, stop, count)
        elif spacing == "linear":
            t = np.linspace(start, stop, count)
        else:
            raise ConfigError(f"field {path}.spacing must be geometric|linear")
    if np.any(np.diff(t) <= 0):
        raise ConfigError(f"field {path}: times must be strictly increasing")
    return t


def parse_grid(cfg: dict):
    d = _get(cfg, "d", int)
    L = _get(cfg, "grid.L", float)
    N = _get(cfg, "grid.N", int)
    try:
        return make_grid(d, L, N)
    except ValueError as e:
        raise ConfigError(f"invalid grid: {e}")


def parse_initial(cfg: dict, grid) -> tuple[GridFunction, float]:
    """(initial data, Re sigma^2 for the safe window; 1.0 for the indicator)."""
    block = _get(cfg, "initial", default={"type": "gaussian", "sigma2": 1.0})
    typ = _get(block, "type", str)
    if typ == "gaussian":
        s2 = block.get("sigma2", 1.0)
        if isinstance(s2, list):
            s2 = complex(s2[0], s2[1])
        else:
            s2 = complex(_parse_real(s2))
        return gaussian_sample(grid, GaussianSpec(s2, grid.dim)), s2.real
    if typ == "indicator":
        return box_indicator(grid, _get(block, "nodes_per_axis", int)), 1.0
    raise ConfigError("field initial.type must be gaussian|indicator")


def parse_kind(cfg: dict, default="heat") -> PropagatorKind:
    block = _get(cfg, "kind", default=default)
    if isinstance(block, str):
        block = {"name": block}
    name = _get(block, "name", str)
    if name == "heat":
        return HEAT
    if name == "schrodinger":
        return SCHRODINGER
    if name == "fractional":
        try:
            return fractional(_get(block, "alpha", float))
        except ValueError as e:
            raise ConfigError(f"invalid kind: {e}")
    raise ConfigError("field kind.name must be heat|schrodinger|fractional")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _write_summary(path: Path, data: dict):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


@contextlib.contextmanager
def _config_fault():
    """Report a ValueError raised in the block as a config fault (exit 1)."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(str(e))


# ---------------------------------------------------------------- experiments


def _run_norms(cfg, out, prefix):
    grid = parse_grid(cfg)
    f, _ = parse_initial(cfg, grid)
    if isinstance(cfg.get("p_grid"), list):
        p = np.asarray(_real_list(cfg, "p_grid"))
    else:
        a = _get(cfg, "p_grid.a", float)
        b = _get(cfg, "p_grid.b", float)
        p = exponent_grid(a, b)
    prof = moment_profile(f, p, "grid")
    _write_csv(
        out / f"{prefix}.csv",
        ["p", "value", "provenance"],
        [[_fmt(pi), _fmt(vi), "grid"] for pi, vi in zip(prof.p_grid, prof.values)],
    )
    _write_summary(out / f"{prefix}_summary.json", {
        "experiment": "norms",
        "count": int(prof.p_grid.size),
        "min": prof.values.min(),
        "max": prof.values.max(),
    })


def _run_fundamental(cfg, out, prefix):
    psi = parse_psi(_get(cfg, "psi"), "psi")
    deltas = _real_list(cfg, "deltas")
    regime = _get(cfg, "regime", str, default=None)
    rows, ratios = [], []
    for delta in deltas:
        num = fundamental_gls(psi, delta)
        if regime and psi.variant == "zeta":
            asy = fundamental_asymptotic(psi.zeta_params, delta, regime)
            ratios.append(num.value / asy.value)
            rows.append([_fmt(delta), _fmt(num.value), _fmt(asy.value), "grid"])
        else:
            rows.append([_fmt(delta), _fmt(num.value), "", "grid"])
    _write_csv(out / f"{prefix}.csv", ["delta", "numeric", "asymptotic", "provenance"], rows)
    summary = {"experiment": "fundamental", "deltas": deltas}
    if ratios:
        summary["num_over_asymptotic"] = ratios
        drift = [abs(ratios[i + 1] / ratios[i] - 1.0) for i in range(len(ratios) - 1)]
        summary["max_consecutive_drift"] = max(drift) if drift else 0.0
        summary["pass"] = bool(all(x < 0.10 for x in drift))
    _write_summary(out / f"{prefix}_summary.json", summary)


def _run_propagate(cfg, out, prefix):
    grid = parse_grid(cfg)
    f, _ = parse_initial(cfg, grid)
    kind = parse_kind(cfg)
    t = _get(cfg, "t", float)
    u = propagate(f, kind, t)
    flat = u.values.reshape(-1)
    _write_csv(
        out / f"{prefix}.csv",
        ["index", "real", "imag", "provenance"],
        [[str(i), _fmt(v.real), _fmt(v.imag), "grid"] for i, v in enumerate(flat)],
    )
    _write_summary(out / f"{prefix}_summary.json", {
        "experiment": "propagate", "kind": kind.kind, "t": t,
        "max_abs": float(np.max(np.abs(flat))),
    })


def _run_functional_sweep(cfg, out, prefix):
    grid = parse_grid(cfg)
    f, sigma2_real = parse_initial(cfg, grid)
    psiX = parse_psi(_get(cfg, "X"), "X")
    psiY = parse_psi(_get(cfg, "Y"), "Y")
    t_grid = parse_t_grid(_get(cfg, "t_grid"), "t_grid")
    functional = _get(cfg, "functional", str)
    kind = parse_kind(cfg) if functional == "SP" else SCHRODINGER
    with _config_fault():
        check_window(t_grid, grid, kind, sigma2_real)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if functional == "SP":
            curve = w_sp_curve(
                f, psiX, psiY, t_grid,
                K1=_get(cfg, "K1", float, default=1.0),
                K2=_get(cfg, "K2", float, default=1.0),
                kind=kind,
            )
        elif functional == "SR":
            curve = v_sr_curve(
                f, psiX, psiY, t_grid,
                K=_get(cfg, "K", float, default=1.0),
                normalization=_get(cfg, "sr_normalization", str, default="definition"),
            )
        else:
            raise ConfigError("field functional must be SP|SR")
    for w in caught:
        print(f"WARNING: {w.message}", file=sys.stderr)
    rows = [[_fmt(t), _fmt(v), "0", "", "grid"] for t, v in zip(curve.t_grid, curve.values)]
    rows += [[_fmt(t), "", "1", reason, "grid"] for t, reason in curve.exclusions]
    rows.sort(key=lambda r: float(r[0]))
    _write_csv(out / f"{prefix}.csv", ["t", "value", "excluded_flag", "reason", "provenance"], rows)
    _write_summary(out / f"{prefix}_summary.json", {
        "experiment": "functional-sweep",
        "functional": functional,
        "normalization": curve.meta.get("normalization", ""),
        "min": curve.values.min(),
        "max": curve.values.max(),
        "ratio": float(curve.values.max() / curve.values.min()),
        "warnings": [str(w.message) for w in caught],
    })


def _run_witness(cfg, out, prefix, which: str):
    grid = parse_grid(cfg)
    t_grid = parse_t_grid(_get(cfg, "t_grid"), "t_grid")
    if which == "sp":
        kind = parse_kind(cfg)
        nu = parse_psi(_get(cfg, "nu"), "nu")
    with _config_fault():
        if which == "sp":
            rep = sp_witness(nu, t_grid, grid, kind=kind)
        else:
            rep = sr_witness(t_grid, grid)
    rows = [
        [_fmt(t), _fmt(g), _fmt(c), _fmt(gap), "grid"]
        for t, g, c, gap in zip(rep.t_grid, rep.grid_values, rep.closed_values, rep.rel_gaps)
    ]
    _write_csv(out / f"{prefix}.csv",
               ["t", "grid_value", "closed_form_value", "rel_gap", "provenance"], rows)
    floor = rep.closed_form_floor()
    _write_summary(out / f"{prefix}_summary.json", {
        "experiment": f"witness-{which}",
        "min": rep.min_value,
        "max": rep.max_value,
        "ratio": rep.ratio,
        "fitted_slope": rep.fitted_slope(),
        "max_rel_gap": rep.max_gap,
        "positivity_floor": floor,
        "pass": bool(rep.min_value > floor and rep.ratio < 3.0 and rep.max_gap < GAP_TOL),
    })


def _run_moment_law(cfg, out, prefix):
    grid = parse_grid(cfg)
    d = _get(cfg, "d", int)
    t_grid = parse_t_grid(_get(cfg, "t_grid"), "t_grid")
    r_list = _real_list(cfg, "r_list")
    with _config_fault():
        rows = gaussian_moment_law_check(d, r_list, t_grid, grid)
    _write_csv(out / f"{prefix}.csv",
               ["r", "fitted_slope", "predicted_slope", "provenance"],
               [[_fmt(r), _fmt(f), _fmt(p), "fit"] for r, f, p in rows])
    errs = [abs(f - p) for _, f, p in rows]
    _write_summary(out / f"{prefix}_summary.json", {
        "experiment": "moment-law",
        "max_abs_slope_error": max(errs),
        "pass": bool(all(e < 0.02 for e in errs)),
    })


def _run_mixed_norm(cfg, out, prefix):
    theta = parse_psi(_get(cfg, "theta"), "theta")
    curve = _get(cfg, "curve")
    power = _get(curve, "power", float)
    coef = _get(curve, "coef", float, default=1.0)
    t_max = _get(curve, "t_max", float)
    t_min = _get(curve, "t_min", float, default=1e-12)
    count = _get(curve, "count", int, default=2048)
    t = np.geomspace(t_min, t_max, count)
    y = coef * t ** power
    value = mixed_norm(t, y, theta)
    _write_summary(out / f"{prefix}_summary.json", {
        "experiment": "mixed-norm",
        "value": ("inf" if value == INF else value),
        "finite": bool(value != INF),
    })


def _run_rate_report(cfg, out, prefix):
    grid = parse_grid(cfg)
    f, sigma2_real = parse_initial(cfg, grid)
    psiX = parse_psi(_get(cfg, "X"), "X")
    psiY = parse_psi(_get(cfg, "Y"), "Y")
    t_grid = parse_t_grid(_get(cfg, "t_grid"), "t_grid")
    kind = parse_kind(cfg)
    with _config_fault():
        check_window(t_grid, grid, kind, sigma2_real)
    with_log = _get(cfg, "with_log", default=True)
    if not isinstance(with_log, bool):
        raise ConfigError(f"field with_log must be true or false, got {with_log!r}")
    norm_x = space_norm(f, psiX)
    if norm_x == INF or norm_x == 0.0:
        raise ValueError("initial data is not admissible in X")
    vals = np.asarray([space_norm(propagate(f, kind, float(t)), psiY) / norm_x for t in t_grid])
    fit = fit_rate(t_grid, vals, with_log=with_log)
    pred_block = _get(cfg, "predicted")
    source = _get(pred_block, "source", str)
    params = {k: _parse_real(v) for k, v in pred_block.items() if k != "source"}
    try:
        pred = predicted_rate(source, **params)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"invalid predicted block: {e}")
    _write_csv(out / f"{prefix}.csv", ["t", "value", "provenance"],
               [[_fmt(t), _fmt(v), "grid"] for t, v in zip(t_grid, vals)])
    delta_pct = abs(fit.slope - pred.power) / max(abs(pred.power), 1e-30) * 100.0
    _write_summary(out / f"{prefix}_summary.json", {
        "experiment": "rate-report",
        "fitted_slope": fit.slope,
        "fitted_log_exponent": fit.log_exponent,
        "predicted_slope": pred.power,
        "predicted_log_exponent": pred.log_power,
        "slope_delta_pct": delta_pct,
        "residual": fit.residual,
        "pass": bool(delta_pct < 5.0 and abs(fit.log_exponent - pred.log_power) < 0.3),
    })


_RUNNERS = {
    "norms": _run_norms,
    "fundamental": _run_fundamental,
    "propagate": _run_propagate,
    "functional-sweep": _run_functional_sweep,
    "witness-sp": lambda c, o, p: _run_witness(c, o, p, "sp"),
    "witness-sr": lambda c, o, p: _run_witness(c, o, p, "sr"),
    "moment-law": _run_moment_law,
    "mixed-norm": _run_mixed_norm,
    "rate-report": _run_rate_report,
}


def run(config_path: str, out_dir: str | None = None) -> int:
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        print(f"config error: no such file: {config_path}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"config error: invalid JSON: {e}", file=sys.stderr)
        return 1
    try:
        kind = _get(cfg, "experiment", str)
        if kind not in EXPERIMENTS:
            raise ConfigError(
                f"field experiment must be one of {', '.join(EXPERIMENTS)}"
            )
        out = Path(out_dir) if out_dir else Path(config_path).with_suffix("")
        out.mkdir(parents=True, exist_ok=True)
        prefix = cfg.get("out_prefix", kind.replace("-", "_"))
        _RUNNERS[kind](cfg, out, prefix)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"numerical-domain error: {e}", file=sys.stderr)
        return 2
    return 0


def report(artifact_dir: str) -> int:
    path = Path(artifact_dir)
    summaries = sorted(path.glob("**/*_summary.json"))
    if not summaries:
        print(f"error: no run artifacts found in {artifact_dir}", file=sys.stderr)
        return 1
    for s in summaries:
        with open(s) as fh:
            data = json.load(fh)
        parts = [f"{s.name}: experiment={data.get('experiment', '?')}"]
        for key in ("min", "max", "ratio", "fitted_slope", "predicted_slope",
                    "slope_delta_pct", "max_rel_gap", "value"):
            if key in data:
                v = data[key]
                parts.append(f"{key}={v:.6g}" if isinstance(v, float) else f"{key}={v}")
        if "pass" in data:
            parts.append("PASS" if data["pass"] else "FAIL")
        print(", ".join(parts))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="strichartz-gls",
        description="Decay-estimate experiments: JSON config in, CSV/JSON out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_rep = sub.add_parser("report", help="summarize artifacts in a directory")
    p_rep.add_argument("dir")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out)
    return report(args.dir)


if __name__ == "__main__":
    sys.exit(main())
