"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Usage:
    strichartz-gls run <config.json> [--out DIR]
    strichartz-gls report <DIR>

A run writes {prefix}.csv and {prefix}_summary.json into its output
directory, and mixed-norm only the summary.  Every CSV row carries a
provenance tag (grid | closed-form | asymptotic | fit).  Outputs are
deterministic; re-running a config produces byte-identical files.

Exit codes: 0 success, 1 config or file error, 2 numerical-domain error.
The experiment runs before anything is written, so a run that exits 1 or
2 after its config is read writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np

from .functionals import (
    MIN_CURVE_SAMPLES,
    MIN_FIT_SAMPLES,
    PREDICTED_SOURCES,
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
from .spaces import CoverageError, PsiSpec, exponent_grid, fundamental_asymptotic, fundamental_gls
from .witness import GAP_TOL, sp_witness, sr_witness, gaussian_moment_law_check

_FLOWS = {"heat": HEAT, "schrodinger": SCHRODINGER, "fractional": None}

# Size caps, far above every shipped config, that bound the memory a config can ask for.
MAX_GRID_NODES = 2 ** 24     # N^d: 16 Mi nodes, 256 MiB per complex array
MAX_TIME_SAMPLES = 4096      # t_grid.count: one propagation per sample
MAX_CURVE_SAMPLES = 2 ** 20  # curve.count of mixed-norm

_MISSING = object()


class ConfigError(Exception):
    """Invalid or missing configuration fields; message carries the field path."""


class Fields:
    """One JSON object of a config and its dotted path.

    Each accessor reads one field, checks its JSON type without coercing it and
    raises ConfigError naming the full path; an absent field gives ``default``.
    """

    def __init__(self, data: dict, path: str = ""):
        self.data, self.path = data, path

    def name(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def holds(self, key, typ) -> bool:
        """Whether the field is present with JSON type ``typ`` (for fields of two forms)."""
        return isinstance(self.data.get(key), typ)

    def read(self, key, default, accept, expected: str):
        """The field converted by ``accept``, which returns None for a value not ``expected``."""
        if key not in self.data:
            if default is _MISSING:
                raise ConfigError(f"missing config field: {self.name(key)}")
            return default
        value = accept(self.data[key])
        if value is None:
            raise ConfigError(f"field {self.name(key)} must be {expected}, got {self.data[key]!r}")
        return value

    def real(self, key, default=_MISSING) -> float:
        return self.read(key, default, _as_real, 'a number or "inf"')

    def positive(self, key, default=_MISSING) -> float:
        return self.read(key, default, lambda v: x if (x := _as_real(v)) and 0 < x < INF else None,
                         "a positive finite number")

    def integer(self, key, default=_MISSING, least=None, cap=None) -> int:
        n = self.read(key, default, _as_integer, "an integer")
        if least is not None and n < least:
            raise ConfigError(f"field {self.name(key)} must be at least {least}, got {n}")
        if cap is not None and n > cap:
            raise ConfigError(f"field {self.name(key)} must be at most {cap}, got {n}")
        return n

    def choice(self, key, choices, default=_MISSING) -> str:
        return self.read(key, default, lambda v: v if isinstance(v, str) and v in choices else None,
                          "one of " + "|".join(choices))

    def flag(self, key, default=_MISSING) -> bool:
        return self.read(key, default, lambda v: v if isinstance(v, bool) else None,
                         "true or false")

    def reals(self, key) -> list:
        """A non-empty list of reals; entries are named ``key.<index>``."""
        items = self.read(key, _MISSING, lambda v: v if isinstance(v, list) and v else None,
                           "a non-empty list of numbers")
        entries = Fields(dict(enumerate(items)), self.name(key))
        return [entries.real(i) for i in range(len(items))]

    def block(self, key, default=_MISSING) -> "Fields":
        data = self.read(key, default, lambda v: v if isinstance(v, dict) else None, "an object")
        return Fields(data, self.name(key))


def _as_real(v):
    """A JSON number (not a bool, not NaN) or "inf"/"infinity" in any case, as a float."""
    if isinstance(v, str):
        return INF if v.lower() in ("inf", "infinity") else None
    return float(v) if type(v) is float and v == v or type(v) is int and abs(v) < 1e308 else None


def _as_integer(v):
    return int(v) if type(v) is int or type(v) is float and v.is_integer() else None


def _fmt(x) -> list:
    """Each entry of x in full precision, as format(float(x_i), ".16e") writes it."""
    return list(map("{:.16e}".format, np.asarray(x, dtype=float).tolist()))


def _csv_text(rows) -> str:
    """The text csv.writer(lineterminator="\\n") writes for rows: rows of plain fields, the
    runners' numbers and tags, are joined directly; otherwise csv.writer writes them all."""
    text = "\n".join(map(",".join, rows)) + "\n"
    # the join puts len(row) - 1 commas and one LF in each row, so any more are in a field
    if (text.count(",") + text.count("\n") == sum(map(len, rows)) and '"' not in text
            and "\r" not in text and "\n\n" not in "\n" + text):
        return text
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _plain_name(v):
    """A file name with no directory part."""
    ok = isinstance(v, str) and v not in ("", ".", "..") and not any(c in v for c in "/\\\0")
    return v if ok else None


@contextlib.contextmanager
def _config_fault(field: str = ""):
    """Report a ValueError raised in the block as a config fault (exit 1); an uncovered
    weight stays a numerical-domain fault (exit 2)."""
    try:
        yield
    except CoverageError:
        raise
    except ValueError as e:
        raise ConfigError(f"invalid {field}: {e}" if field else str(e))


def parse_psi(cfg: Fields, key: str) -> PsiSpec:
    block = cfg.block(key)
    variant = block.choice("variant", ("degenerate", "zeta", "table"))
    with _config_fault(block.path):
        if variant == "degenerate":
            return PsiSpec.degenerate(block.real("s"))
        if variant == "zeta":
            return PsiSpec.zeta(*(block.real(k) for k in ("a", "b", "alpha", "beta")))
        points = block.block("points")
        return PsiSpec.table({float(k): points.real(k) for k in points.data})


def parse_t_grid(cfg: Fields) -> np.ndarray:
    if cfg.holds("t_grid", list):
        t = np.asarray(cfg.reals("t_grid"), dtype=float)
    else:
        block = cfg.block("t_grid")
        start, stop = block.real("start"), block.real("stop")
        count = block.integer("count", least=1, cap=MAX_TIME_SAMPLES)
        spacing = block.choice("spacing", ("geometric", "linear"), "geometric")
        if stop <= start or start <= 0:
            raise ConfigError("field t_grid: need 0 < start < stop")
        t = (np.geomspace if spacing == "geometric" else np.linspace)(start, stop, count)
    if np.any(np.diff(t) <= 0):
        raise ConfigError("field t_grid: times must be strictly increasing")
    return t


def parse_grid(cfg: Fields):
    d = cfg.integer("d")
    block = cfg.block("grid")
    L, N = block.real("L"), block.integer("N")
    with _config_fault("grid"):
        grid = make_grid(d, L, N)
    if N ** d > MAX_GRID_NODES:
        raise ConfigError(f"field {block.name('N')} must keep N^d at most {MAX_GRID_NODES}, "
                          f"got {N}^{d}")
    return grid


def parse_initial(cfg: Fields, grid) -> tuple[GridFunction, float]:
    """(initial data, Re sigma^2 for the safe window; 1.0 for the indicator)."""
    block = cfg.block("initial", {"type": "gaussian"})
    if block.choice("type", ("gaussian", "indicator")) == "indicator":
        return box_indicator(grid, block.integer("nodes_per_axis")), 1.0
    if block.holds("sigma2", list):  # [re, im]: a complex variance
        parts = block.reals("sigma2")
        if len(parts) != 2:
            raise ConfigError(f"field {block.name('sigma2')} must be a number or [re, im], "
                              f"got {block.data['sigma2']!r}")
        s2 = complex(*parts)
    else:
        s2 = complex(block.real("sigma2", 1.0))
    return gaussian_sample(grid, GaussianSpec(s2, grid.dim)), s2.real


def parse_kind(cfg: Fields) -> PropagatorKind:
    """A flow name, or {"name": ..., "alpha": ...} for the fractional flow; default heat."""
    if cfg.holds("kind", dict):
        name = cfg.block("kind").choice("name", _FLOWS)
    else:
        name = cfg.choice("kind", _FLOWS, "heat")
    if name != "fractional":
        return _FLOWS[name]
    with _config_fault("kind"):
        return fractional(cfg.block("kind").real("alpha"))


def _check_times(t_grid, grid, kind: PropagatorKind, least: int, sigma2_real=1.0):
    """Check t_grid against the wrap-around-safe window, then for at least ``least`` times."""
    with _config_fault():
        check_window(t_grid, grid, kind, sigma2_real)
    if t_grid.size < least:
        raise ConfigError(f"field t_grid must hold at least {least} times, got {t_grid.size}")


def _parse_flow(cfg: Fields, kind: PropagatorKind | None = None, least: int = 1):
    """(initial data, X, Y, t_grid, flow) of a decay experiment, its times checked by
    _check_times; the flow is read from the config unless given."""
    grid = parse_grid(cfg)
    f, sigma2_real = parse_initial(cfg, grid)
    psiX, psiY = parse_psi(cfg, "X"), parse_psi(cfg, "Y")
    t_grid = parse_t_grid(cfg)
    if kind is None:
        kind = parse_kind(cfg)
    _check_times(t_grid, grid, kind, least, sigma2_real)
    return f, psiX, psiY, t_grid, kind


# ---------------------------------------------------------------- experiments
#
# Each runner maps a config to (CSV header or None, CSV rows of strings, summary)
# and writes nothing; run() writes them once the experiment has finished.


def _run_norms(cfg):
    grid = parse_grid(cfg)
    f, _ = parse_initial(cfg, grid)
    if cfg.holds("p_grid", list):
        p = np.asarray(cfg.reals("p_grid"))
    else:
        block = cfg.block("p_grid")
        p = exponent_grid(block.real("a"), block.real("b"))
    prof = moment_profile(f, p, "grid")
    rows = list(zip(_fmt(prof.p_grid), _fmt(prof.values), repeat("grid")))
    return ["p", "value", "provenance"], rows, {
        "count": int(prof.p_grid.size),
        "min": prof.values.min(),
        "max": prof.values.max(),
    }


def _run_fundamental(cfg):
    psi = parse_psi(cfg, "psi")
    deltas = cfg.reals("deltas")
    regime = cfg.choice("regime", ("small", "large"), None)
    nums, asys, ratios = [], [], []
    for delta in deltas:
        nums.append(fundamental_gls(psi, delta).value)
        if regime and psi.variant == "zeta":
            asys.append(fundamental_asymptotic(psi.zeta_params, delta, regime).value)
            ratios.append(nums[-1] / asys[-1])
    rows = list(zip(_fmt(deltas), _fmt(nums), _fmt(asys) if asys else repeat(""), repeat("grid")))
    summary = {"deltas": deltas}
    if ratios:
        summary["num_over_asymptotic"] = ratios
        drift = [abs(ratios[i + 1] / ratios[i] - 1.0) for i in range(len(ratios) - 1)]
        summary["max_consecutive_drift"] = max(drift) if drift else 0.0
        summary["pass"] = bool(all(x < 0.10 for x in drift))
    return ["delta", "numeric", "asymptotic", "provenance"], rows, summary


def _run_propagate(cfg):
    grid = parse_grid(cfg)
    f, _ = parse_initial(cfg, grid)
    kind = parse_kind(cfg)
    t = cfg.real("t")
    flat = propagate(f, kind, t).values.reshape(-1)
    rows = list(zip(map(str, range(flat.size)), _fmt(flat.real), _fmt(flat.imag), repeat("grid")))
    return ["index", "real", "imag", "provenance"], rows, {
        "kind": kind.kind, "t": t, "max_abs": float(np.max(np.abs(flat))),
    }


def _run_functional_sweep(cfg):
    functional = cfg.choice("functional", ("SP", "SR"))
    f, psiX, psiY, t_grid, kind = _parse_flow(cfg, None if functional == "SP" else SCHRODINGER)
    if functional == "SP":
        sweep, params = w_sp_curve, {"K1": cfg.positive("K1", 1.0),
                                     "K2": cfg.positive("K2", 1.0), "kind": kind}
    else:
        sweep, params = v_sr_curve, {"K": cfg.positive("K", 1.0), "normalization": cfg.choice(
            "sr_normalization", ("definition", "proof"), "definition")}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = sweep(f, psiX, psiY, t_grid, **params)
    for w in caught:
        print(f"WARNING: {w.message}", file=sys.stderr)
    rows = list(zip(_fmt(curve.t_grid), _fmt(curve.values), *map(repeat, ("0", "", "grid"))))
    rows += [(*_fmt([t]), "", "1", reason, "grid") for t, reason in curve.exclusions]
    rows.sort(key=lambda r: float(r[0]))
    return ["t", "value", "excluded_flag", "reason", "provenance"], rows, {
        "functional": functional,
        "normalization": params.get("normalization", ""),
        "min": curve.values.min(),
        "max": curve.values.max(),
        "ratio": float(curve.values.max() / curve.values.min()),
        "warnings": [str(w.message) for w in caught],
    }


def _run_witness(cfg):
    """witness-sp or witness-sr, as the config's experiment field says."""
    grid = parse_grid(cfg)
    t_grid = parse_t_grid(cfg)
    sp = cfg.data["experiment"] == "witness-sp"
    kind, nu = (parse_kind(cfg), parse_psi(cfg, "nu")) if sp else (SCHRODINGER, None)
    _check_times(t_grid, grid, kind, MIN_FIT_SAMPLES)
    with _config_fault():
        rep = sp_witness(nu, t_grid, grid, kind=kind) if sp else sr_witness(t_grid, grid)
    rows = list(zip(*map(_fmt, (rep.t_grid, rep.grid_values, rep.closed_values, rep.rel_gaps)),
                    repeat("grid")))
    floor = rep.closed_form_floor()
    return ["t", "grid_value", "closed_form_value", "rel_gap", "provenance"], rows, {
        "min": rep.min_value,
        "max": rep.max_value,
        "ratio": rep.ratio,
        "fitted_slope": rep.fitted_slope(),
        "max_rel_gap": rep.max_gap,
        "positivity_floor": floor,
        "pass": bool(rep.min_value > floor and rep.ratio < 3.0 and rep.max_gap < GAP_TOL),
    }


def _run_moment_law(cfg):
    grid = parse_grid(cfg)
    t_grid = parse_t_grid(cfg)
    r_list = cfg.reals("r_list")
    _check_times(t_grid, grid, SCHRODINGER, MIN_FIT_SAMPLES)
    with _config_fault():
        slopes = gaussian_moment_law_check(grid.dim, r_list, t_grid, grid)
    errs = [abs(f - p) for _, f, p in slopes]
    rows = list(zip(*map(_fmt, zip(*slopes)), repeat("fit")))
    return ["r", "fitted_slope", "predicted_slope", "provenance"], rows, {
        "max_abs_slope_error": max(errs),
        "pass": bool(all(e < 0.02 for e in errs)),
    }


def _run_mixed_norm(cfg):
    theta = parse_psi(cfg, "theta")
    curve = cfg.block("curve")
    power = curve.real("power")
    coef = curve.real("coef", 1.0)
    t_max = curve.real("t_max")
    t_min = curve.real("t_min", 1e-12)
    count = curve.integer("count", 2048, least=MIN_CURVE_SAMPLES, cap=MAX_CURVE_SAMPLES)
    t = np.geomspace(t_min, t_max, count)
    value = mixed_norm(t, coef * t ** power, theta)
    return None, [], {"value": ("inf" if value == INF else value), "finite": bool(value != INF)}


def _run_rate_report(cfg):
    f, psiX, psiY, t_grid, kind = _parse_flow(cfg, least=MIN_FIT_SAMPLES)
    with_log = cfg.flag("with_log", True)
    block = cfg.block("predicted")
    source = block.choice("source", PREDICTED_SOURCES)
    params = {k: block.real(k) for k in block.data if k != "source"}
    try:
        with _config_fault(block.path):
            pred = predicted_rate(source, **params)
    except KeyError as e:
        raise ConfigError(f"missing config field: {block.name(e.args[0])}")
    norm_x = space_norm(f, psiX)
    if norm_x == INF or norm_x == 0.0:
        raise ValueError("initial data is not admissible in X")
    vals = np.asarray([space_norm(propagate(f, kind, float(t)), psiY) / norm_x for t in t_grid])
    fit = fit_rate(t_grid, vals, with_log=with_log)
    delta_pct = abs(fit.slope - pred.power) / max(abs(pred.power), 1e-30) * 100.0
    rows = list(zip(_fmt(t_grid), _fmt(vals), repeat("grid")))
    return ["t", "value", "provenance"], rows, {
        "fitted_slope": fit.slope,
        "fitted_log_exponent": fit.log_exponent,
        "predicted_slope": pred.power,
        "predicted_log_exponent": pred.log_power,
        "slope_delta_pct": delta_pct,
        "residual": fit.residual,
        "pass": bool(delta_pct < 5.0 and abs(fit.log_exponent - pred.log_power) < 0.3),
    }


_RUNNERS = {
    "norms": _run_norms,
    "fundamental": _run_fundamental,
    "propagate": _run_propagate,
    "functional-sweep": _run_functional_sweep,
    "witness-sp": _run_witness,
    "witness-sr": _run_witness,
    "moment-law": _run_moment_law,
    "mixed-norm": _run_mixed_norm,
    "rate-report": _run_rate_report,
}


def run(config_path: str, out_dir: str | None = None) -> int:
    try:
        data = json.loads(Path(config_path).read_bytes())
    except (OSError, ValueError) as e:  # unreadable file, undecodable bytes or invalid JSON
        print(f"config error: cannot read {config_path}: {e}", file=sys.stderr)
        return 1
    try:
        if not isinstance(data, dict):
            raise ConfigError("the config must be a JSON object")
        cfg = Fields(data)
        experiment = cfg.choice("experiment", _RUNNERS)
        prefix = cfg.read("out_prefix", experiment.replace("-", "_"), _plain_name,
                           "a plain file name")
        header, rows, summary = _RUNNERS[experiment](cfg)
        out = Path(out_dir) if out_dir else Path(config_path).with_suffix("")
        out.mkdir(parents=True, exist_ok=True)
        if header is not None:
            (out / f"{prefix}.csv").write_text(_csv_text([header, *rows]), newline="")
        (out / f"{prefix}_summary.json").write_text(json.dumps(
            {"experiment": experiment, **summary}, indent=2, sort_keys=True, default=str) + "\n")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as e:  # ArithmeticError: float overflow, division by 0
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
        try:
            data = json.loads(s.read_bytes())
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as e:
            print(f"error: unreadable summary {s}: {e}", file=sys.stderr)
            return 1
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
