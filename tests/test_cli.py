import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from strichartz_gls import GaussianSpec, cli, functionals, witness
from strichartz_gls.cli import main, report, run

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

ALL_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def _run(cfg_path, out_dir):
    return run(str(cfg_path), str(out_dir))


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_run_clean(cfg, tmp_path, monkeypatch):
    windows, check_window = [], cli.check_window
    for module in (cli, witness):  # every run with times checks them against its window once
        monkeypatch.setattr(module, "check_window", lambda *a, **k: windows.append(a)
                            or check_window(*a, **k))
    assert _run(cfg, tmp_path / cfg.stem) == 0
    data = json.loads(cfg.read_text())
    assert len(windows) == (data["experiment"] not in ("norms", "fundamental", "mixed-norm"))
    prefix = data.get("out_prefix", data["experiment"].replace("-", "_"))
    written = {p.name for p in (tmp_path / cfg.stem).iterdir()}
    # one CSV and one summary per run; mixed-norm has no CSV
    csv_file = set() if data["experiment"] == "mixed-norm" else {f"{prefix}.csv"}
    assert written == csv_file | {f"{prefix}_summary.json"}
    _assert_stdlib_bytes(tmp_path / cfg.stem)


def _stdlib_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _assert_stdlib_bytes(out):
    """Each CSV is what csv.writer writes for its own parse, each summary what json.dumps does."""
    for f in out.iterdir():
        text = f.read_bytes().decode()
        if f.suffix == ".csv":
            assert text == _stdlib_csv(csv.reader(io.StringIO(text, newline="")))
        else:
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_rerun_is_byte_identical(tmp_path):
    cfg = CONFIG_DIR / "witness_sp.json"
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert _run(cfg, out1) == 0
    assert _run(cfg, out2) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_witness_csv_layout(tmp_path):
    assert _run(CONFIG_DIR / "witness_sr.json", tmp_path) == 0
    csv_path = tmp_path / "witness_sr.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,grid_value,closed_form_value,rel_gap,provenance"
    first = lines[1].split(",")
    assert first[-1] == "grid"
    # values are written in full precision scientific notation
    assert "e" in first[1]
    assert float(first[3]) < 1e-6


def test_witness_summary_contents(tmp_path):
    assert _run(CONFIG_DIR / "witness_sp.json", tmp_path) == 0
    data = json.loads((tmp_path / "witness_sp_summary.json").read_text())
    assert data["experiment"] == "witness-sp"
    assert data["pass"] is True
    assert data["max_rel_gap"] < 1e-6
    assert data["ratio"] < 3.0
    assert data["min"] > data["positivity_floor"]


def test_missing_field_exit_code_and_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "experiment": "witness-sp",
        "d": 1,
        "grid": {"L": 200.0},
        "nu": {"variant": "table", "points": {"2.0": 1.0, "4.0": 1.0}},
        "t_grid": [4, 16],
    }))
    assert run(str(bad), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "grid.N" in err


def test_malformed_psi_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad_psi.json"
    bad.write_text(json.dumps({
        "experiment": "fundamental",
        "psi": {"variant": "zeta", "a": 3.0, "b": 1.0, "alpha": 1.0, "beta": 1.0},
        "deltas": [1e-4],
    }))
    assert run(str(bad), str(tmp_path / "out")) == 1
    assert "psi" in capsys.readouterr().err


def test_unsafe_window_exit_code(tmp_path, capsys):
    bad = tmp_path / "unsafe.json"
    bad.write_text(json.dumps({
        "experiment": "witness-sp",
        "d": 1,
        "grid": {"L": 200.0, "N": 8192},
        "nu": {"variant": "table", "points": {"2.0": 1.0, "4.0": 1.0}},
        "t_grid": [4, 1e9],
    }))
    assert run(str(bad), str(tmp_path / "out")) == 1
    assert "safe" in capsys.readouterr().err


@pytest.mark.parametrize("config, change, code", [
    ("witness_sp", {"grid": {"L": 200.0}}, 1),
    ("mixed_norm", {"theta": {"variant": "table", "points": {"1.0": 1.0, "1.01": 1.0}}}, 2),
], ids=["missing-grid.N", "uncovered-theta"])
def test_failed_run_writes_nothing(config, change, code, tmp_path):
    cfg = {**json.loads((CONFIG_DIR / f"{config}.json").read_text()), **change}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == code
    assert not (tmp_path / "out").exists()
    assert run(str(path)) == code  # the default output directory, beside the config
    assert {p.name for p in tmp_path.iterdir()} == {"bad.json"}


@pytest.mark.parametrize("sigma2, code", [(1e-170, 2), (1e-300, 2), (1e-150, 0)])
def test_gaussian_underflow_names_sigma2(sigma2, code, tmp_path, capsys):
    # below about 1e-162 the envelope variance |sigma2|^2 / Re(sigma2) underflows to 0
    cfg = json.loads((CONFIG_DIR / "norms_gaussian.json").read_text())
    cfg.update(d=3, grid={"L": 32.0, "N": 64}, initial={"type": "gaussian", "sigma2": sigma2})
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert ("numerical-domain error" in err and "sigma2" in err) if code else not err


def test_gaussian_overflow_names_sigma2(tmp_path, capsys):
    # |sigma2|^2 overflows a float: exit 2, naming sigma2
    cfg = json.loads((CONFIG_DIR / "norms_gaussian.json").read_text())
    cfg["initial"]["sigma2"] = [1.0, 1e200]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "numerical-domain error: sigma2 = (1+1e+200j) is too large: the envelope variance "
        "|sigma2|^2 / Re(sigma2) overflows\n")
    assert not (tmp_path / "out").exists()


def test_invalid_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run(str(bad), str(tmp_path / "out")) == 1
    assert run(str(tmp_path / "missing.json"), str(tmp_path / "out")) == 1


def test_overlap_warning_does_not_abort(tmp_path, capsys):
    cfg = tmp_path / "overlap.json"
    cfg.write_text(json.dumps({
        "experiment": "functional-sweep",
        "functional": "SP",
        "d": 1,
        "grid": {"L": 256.0, "N": 8192},
        "initial": {"type": "gaussian", "sigma2": 1.0},
        "X": {"variant": "zeta", "a": 1.0, "b": 3.0, "alpha": 1.0, "beta": 1.0},
        "Y": {"variant": "zeta", "a": 2.0, "b": 6.0, "alpha": 1.0, "beta": 1.0},
        "t_grid": [4, 16, 64],
    }))
    assert run(str(cfg), str(tmp_path / "out")) == 0
    assert "WARNING" in capsys.readouterr().err


def test_report_prints_pass_lines(tmp_path, capsys):
    assert _run(CONFIG_DIR / "witness_sp.json", tmp_path) == 0
    assert _run(CONFIG_DIR / "moment_law.json", tmp_path) == 0
    capsys.readouterr()
    assert report(str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "witness_sp_summary.json" in out
    assert "moment_law_summary.json" in out
    assert out.count("PASS") == 2
    assert "FAIL" not in out


def test_report_empty_dir_fails(tmp_path, capsys):
    assert report(str(tmp_path)) == 1
    assert "no run artifacts" in capsys.readouterr().err


def test_main_entry_point(tmp_path, capsys):
    cfg = CONFIG_DIR / "norms_gaussian.json"
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "norms_gaussian.csv").exists()
    assert main(["report", str(tmp_path)]) == 0
    assert "norms_gaussian_summary.json" in capsys.readouterr().out


def test_norms_csv_values(tmp_path):
    assert _run(CONFIG_DIR / "norms_gaussian.json", tmp_path) == 0
    lines = (tmp_path / "norms_gaussian.csv").read_text().splitlines()
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    # |g_1|_1 = 1, |g_1|_inf = (2 pi)^{-1/2}
    one = [r for r in rows.values() if float(r[0]) == 1.0][0]
    assert float(one[1]) == pytest.approx(1.0, abs=1e-12)
    inf_row = [r for r in rows if rows[r][0] == "inf"]
    assert inf_row
    assert float(rows[inf_row[0]][1]) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-12)


def test_mixed_norm_summary(tmp_path):
    assert _run(CONFIG_DIR / "mixed_norm.json", tmp_path) == 0
    data = json.loads(next(tmp_path.glob("*_summary.json")).read_text())
    assert data["experiment"] == "mixed-norm"
    assert data["finite"] is True


def test_mixed_norm_uncovered_theta_exit_code(tmp_path, capsys):
    # a theta whose profile grid cannot cover (a, b) is rejected, as for X and Y
    cfg = json.loads((CONFIG_DIR / "mixed_norm.json").read_text())
    cfg["theta"] = {"variant": "table", "points": {"1.0": 1.0, "1.01": 1.0}}
    path = tmp_path / "narrow_theta.json"
    path.write_text(json.dumps(cfg))
    assert _run(path, tmp_path / "out") == 2
    assert "does not cover (1.0, 1.01)" in capsys.readouterr().err


@pytest.mark.parametrize("theta", [{"variant": "degenerate", "s": 2.0},
                                   {"variant": "table", "points": {"1.5": 1.0, "3.0": 2.0}}],
                         ids=["L_2", "table"])
def test_mixed_norm_steep_curve_is_infinite_without_warning(theta, tmp_path):
    # t^-400 overflows near t_min; the time integral diverges, so its norm is inf, and no
    # RuntimeWarning (an error in these tests) is raised on the way
    cfg = json.loads((CONFIG_DIR / "mixed_norm.json").read_text())
    cfg["theta"], cfg["curve"] = theta, {"power": -400, "t_max": 1.0}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(cfg))
    assert _run(path, tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "mixed_norm_summary.json").read_text())
    assert data["finite"] is False and data["value"] == "inf"


def test_zeta_crossover_within_a_float_spacing_of_a_is_a_config_fault(tmp_path):
    # a + 1 rounds to a = 1e17, so the crossover's bracket [a, a + 1] is empty: the
    # run must end (in a subprocess, so that a hang fails this test instead of the suite)
    cfg = json.loads((CONFIG_DIR / "fundamental_zeta.json").read_text())
    cfg["psi"] = {"variant": "zeta", "a": 1e17, "b": "inf", "alpha": 1, "beta": -1}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "strichartz_gls.cli", "run", str(path),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: invalid psi: crossover lies within")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, field, zeta, message", [
    ("fundamental_zeta", "psi", (1, "inf", 1, 0), "b = inf requires alpha >= 0 and beta < 0"),
    ("functional_sweep_sp", "X", (2, "inf", 0, -1), "alpha = 0 with b = inf requires a = 1"),
    ("witness_sp", "nu", (1, 1.5, 0.01, 5), "crossover lies within 1e-12 of a = 1"),
], ids=["infinite-b-beta", "infinite-b-alpha-zero", "root-at-a"])
def test_zeta_crossover_refusal_is_a_config_fault(config, field, zeta, message, tmp_path,
                                                  capsys):
    cfg = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    cfg[field] = {"variant": "zeta", **dict(zip(("a", "b", "alpha", "beta"), zeta))}
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps(cfg))
    assert _run(path, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"config error: invalid {field}: {message}\n"
    assert not (tmp_path / "out").exists()


STEEP_ZETA = {"variant": "zeta", "a": 1.5, "b": 6.0, "alpha": 1.0, "beta": 500.0}


def test_steep_zeta_weight_is_accepted(tmp_path, capsys):
    # 4.5^500 overflows at the crossover's bracket end: this used to exit 1
    cfg = json.loads((CONFIG_DIR / "witness_sp.json").read_text())
    cfg["nu"] = STEEP_ZETA
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "sp")) == 0
    summary = json.loads((tmp_path / "sp" / "witness_sp_summary.json").read_text())
    assert summary["pass"] is True
    # its small-delta asymptotic (beta b^2 / e)^beta is beyond the float range
    cfg = json.loads((CONFIG_DIR / "fundamental_zeta.json").read_text())
    cfg["psi"] = STEEP_ZETA
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "fund")) == 2
    assert capsys.readouterr().err.startswith("numerical-domain error")


@pytest.mark.parametrize("regime, psi, deltas, field", [
    ("small", None, [1e-6, 0.5], "deltas.1"),
    ("small", None, [math.exp(-2.0)], "deltas.0"),
    ("large", {"variant": "zeta", "a": 1.0, "b": "inf", "alpha": 1.0, "beta": -1.0}, [2.0],
     "deltas.0"),
    ("large", {"variant": "zeta", "a": 1.0, "b": "inf", "alpha": 1.0, "beta": -1.0},
     [1e6, math.exp(2.0)], "deltas.1"),
], ids=["small-0.5", "small-e^-2", "large-2", "large-e^2"])
def test_delta_outside_its_regime_is_a_config_fault(regime, psi, deltas, field, tmp_path,
                                                    capsys, monkeypatch):
    # each used to exit 2 naming no field, after the fundamental functions before it
    monkeypatch.setattr(cli, "fundamental_gls", lambda *a: pytest.fail("computed a phi"))
    cfg = json.loads((CONFIG_DIR / "fundamental_zeta.json").read_text())
    cfg.update(regime=regime, deltas=deltas, **({"psi": psi} if psi else {}))
    path = tmp_path / "fund.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid {field}: the {regime}-delta asymptotic needs"), err
    assert not (tmp_path / "out").exists()


def test_overflowing_small_delta_asymptotic_says_so(tmp_path, capsys):
    # (beta b^2 / e)^beta is about 10^1910 here: exit 2, naming the asymptotic
    cfg = {**json.loads((CONFIG_DIR / "fundamental_zeta.json").read_text()),
           "psi": STEEP_ZETA, "regime": "small"}
    path = tmp_path / "fund.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical-domain error: evaluating the small-delta asymptotic "
                          "overflows"), err
    assert not (tmp_path / "out").exists()


TINY_TABLE = {"variant": "table", "points": {"1.5": 1e-308, "4.0": 1.0}}


@pytest.mark.parametrize("config, fields, message", [
    ("fundamental_zeta", {"psi": {"variant": "zeta", "a": 200.0, "b": "inf", "alpha": 1.0,
                                  "beta": -1.0}, "regime": "large", "deltas": [1e300]},
     "evaluating the large-delta asymptotic underflows a float at delta = 1e+300"),
    ("fundamental_zeta", {"psi": TINY_TABLE, "deltas": [1e3], "regime": None},
     "evaluating the fundamental function overflows a float at delta = 1000"),
    ("witness_sp", {"nu": TINY_TABLE},
     "evaluating the fundamental function overflows a float at delta = 4"),
    ("fundamental_zeta", {"psi": {"variant": "table", "points": {"1.5": 1e308, "4.0": 1e308}},
                          "deltas": [1e-300, 1e-3], "regime": None},
     "evaluating the fundamental function underflows a float at delta = 1e-300")],
    ids=["large-delta-asymptotic", "fundamental", "witness-sp", "fundamental-underflow"])
def test_a_fundamental_function_outside_the_float_range_says_so(config, fields, message,
                                                                 tmp_path, capsys):
    # each used to exit 2 with "float division by zero" or "math range error"; a field
    # given as None is dropped
    cfg = {**json.loads((CONFIG_DIR / f"{config}.json").read_text()), **fields}
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "range.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"numerical-domain error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_huge_finite_extent_samples_the_gaussian(tmp_path):
    # x^2 overflows at |x| ~ 1e200, where exp(-x^2 / 2) is exactly 0: one node, x = 0, is not
    cfg = json.loads((CONFIG_DIR / "norms_gaussian.json").read_text())
    cfg["grid"]["L"] = 1e200
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == 0
    rows = list(csv.reader((tmp_path / "out" / "norms_gaussian.csv").open()))
    assert rows[-1][0] == "inf" and float(rows[-1][1]) == (2.0 * math.pi) ** -0.5


def test_overflowing_cell_volume_says_so(tmp_path, capsys):
    # h^d = (2L / N)^2 overflows for L = 1e200: exit 2, naming the cell volume, grid.L and d,
    # also when no finite exponent asks for a power sum
    cfg = {**json.loads((CONFIG_DIR / "norms_gaussian.json").read_text()),
           "d": 2, "grid": {"L": 1e200, "N": 16}}
    for p_grid in (cfg["p_grid"], ["inf"]):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({**cfg, "p_grid": p_grid}))
        assert run(str(path), str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical-domain error: cell volume h^d overflows"), err
        assert "grid.L = 1e+200" in err and "d = 2" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, field, points", [
    ("witness_sp.json", "nu", {"2.0": 1.0, "2.01": 1.0}),
    ("functional_sweep_sp.json", "Y", {"3.0": 1.0, "3.01": 1.0}),
    ("functional_sweep_sr.json", "Y", {"3.0": 1.0, "3.01": 1.0}),
    ("rate_report.json", "X", {"1.0": 1.0, "1.01": 1.0}),
    ("mixed_norm.json", "theta", {"1.0": 1.0, "1.01": 1.0}),
], ids=["witness-nu", "sweep-sp-Y", "sweep-sr-Y", "rate-report-X", "mixed-norm-theta"])
def test_uncovered_weight_is_a_numerical_domain_fault(config, field, points, tmp_path, capsys):
    # an uncovered weight exits 2, names the field and writes nothing
    cfg = json.loads((CONFIG_DIR / config).read_text())
    cfg[field] = {"variant": "table", "points": points}
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(cfg))
    assert _run(path, tmp_path / "out") == 2
    lo, hi = sorted(points, key=float)
    assert capsys.readouterr().err == (f"numerical-domain error: weight {field}: profile grid "
                                       f"does not cover ({lo}, {hi}) densely enough\n")
    assert not (tmp_path / "out").exists()


def test_witness_unsafe_window_stays_a_config_fault(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "witness_sp.json").read_text())
    cfg["t_grid"] = [3.0, 4.0, 1e6]
    path = tmp_path / "unsafe.json"
    path.write_text(json.dumps(cfg))
    assert _run(path, tmp_path / "out") == 1
    assert "wrap-around-safe window" in capsys.readouterr().err


WITNESS_CONFIGS = {
    "witness-sp": {"nu": {"variant": "table", "points": {"2.0": 1.0, "4.0": 1.0}}},
    "witness-sr": {},
    "moment-law": {"r_list": [2, 4, "inf"]},
}


@pytest.mark.parametrize("experiment", sorted(WITNESS_CONFIGS))
def test_witness_time_at_most_two_exit_code(experiment, tmp_path, capsys):
    cfg = tmp_path / "early.json"
    cfg.write_text(json.dumps({
        "experiment": experiment,
        "d": 1,
        "grid": {"L": 200.0, "N": 8192},
        "t_grid": [1, 4, 8, 16],
        **WITNESS_CONFIGS[experiment],
    }))
    assert run(str(cfg), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "t_grid" in err


@pytest.mark.parametrize("form", ["list", "count"])
@pytest.mark.parametrize("config", ["rate_report", "witness_sp", "witness_sr", "moment_law"])
def test_rate_fit_needs_four_times_before_any_propagation(config, form, tmp_path, capsys,
                                                          monkeypatch):
    cfg = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    times = cli.parse_t_grid(cli.Fields(cfg))[:3].tolist()
    cfg["t_grid"] = times if form == "list" else {"start": times[0], "stop": times[-1],
                                                  "count": 3}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    propagations = []
    for module in (cli, witness, functionals):
        monkeypatch.setattr(module, "propagate", lambda *a, **k: propagations.append(a))
    assert _run(path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "t_grid" in err and "at least 4 times" in err
    assert propagations == []


def test_functional_sweep_takes_one_time(tmp_path):
    cfg = json.loads((CONFIG_DIR / "functional_sweep_sp.json").read_text())
    cfg["t_grid"] = [16.0]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg))
    assert _run(path, tmp_path / "out") == 0
    assert len((tmp_path / "out" / "functional_sweep_sp.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("config, field, value", [
    ("moment_law", "r_list", 5),
    ("moment_law", "r_list", ["abc"]),
    ("fundamental_zeta", "deltas", 5),
    ("fundamental_zeta", "deltas", [1e-6, None]),
    ("norms_gaussian", "p_grid", [1, "two"]),
])
def test_malformed_real_list_exit_code(config, field, value, tmp_path, capsys):
    base = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    base[field] = value
    cfg = tmp_path / "bad_list.json"
    cfg.write_text(json.dumps(base))
    assert run(str(cfg), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert field in err


@pytest.mark.parametrize("value", ["false", 0, None])
def test_with_log_must_be_boolean(value, tmp_path, capsys):
    base = json.loads((CONFIG_DIR / "rate_report.json").read_text())
    base["with_log"] = value
    cfg = tmp_path / "with_log.json"
    cfg.write_text(json.dumps(base))
    assert run(str(cfg), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "with_log" in err


def test_verbose_flag_removed(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["run", str(CONFIG_DIR / "norms_gaussian.json"), "--out", str(tmp_path), "--verbose"])


_DROP = object()

# (shipped config, path of the field to change, new value or _DROP, dotted name in the error)
CONFIG_FAULTS = [
    ("norms_gaussian", ("initial", "sigma2"), [1], "initial.sigma2"),
    ("norms_gaussian", ("initial", "sigma2"), [1, 2, 3], "initial.sigma2"),
    ("norms_gaussian", ("initial", "sigma2"), "abc", "initial.sigma2"),
    ("norms_gaussian", ("out_prefix",), "a/b", "out_prefix"),
    ("norms_gaussian", ("out_prefix",), "../esc", "out_prefix"),
    ("witness_sp", ("nu", "points", "2.0"), [1.0], "nu.points.2.0"),
    ("rate_report", ("predicted", "a1"), [1.0], "predicted.a1"),
    ("rate_report", ("predicted", "d"), "abc", "predicted.d"),
    ("norms_gaussian", ("d",), 1.9, "d"),
    ("norms_gaussian", ("d",), True, "d"),
    ("norms_gaussian", ("grid", "N"), 1024.7, "grid.N"),
    ("functional_sweep_sp", ("t_grid", "count"), 7.9, "t_grid.count"),
    ("functional_sweep_sp", ("K1",), True, "K1"),
    ("propagate_heat", ("t",), True, "t"),
    ("norms_gaussian", ("initial",), {"type": "indicator", "nodes_per_axis": 2.5},
     "initial.nodes_per_axis"),
    ("norms_gaussian", ("p_grid",), [], "p_grid"),
    ("functional_sweep_sr", ("sr_normalization",), "bogus", "sr_normalization"),
    ("fundamental_zeta", ("regime",), 5, "regime"),
    ("fundamental_zeta", ("regime",), "bogus", "regime"),
    ("functional_sweep_sp", ("functional",), "sp", "functional"),
    ("mixed_norm", ("curve", "t_max"), _DROP, "curve.t_max"),
    ("functional_sweep_sp", ("X", "variant"), _DROP, "X.variant"),
    ("functional_sweep_sp", ("t_grid", "start"), _DROP, "t_grid.start"),
    ("witness_sp_fractional", ("kind", "alpha"), _DROP, "kind.alpha"),
    ("norms_gaussian", ("initial", "type"), _DROP, "initial.type"),
    ("witness_sp", ("nu", "points", "2.0"), "inf", "nu"),
    # size caps: each value below used to raise IndexError or MemoryError
    ("functional_sweep_sp", ("t_grid", "count"), 2 ** 63, "t_grid.count"),
    ("functional_sweep_sp", ("t_grid", "count"), 10 ** 12, "t_grid.count"),
    ("mixed_norm", ("curve", "count"), 2 ** 63, "curve.count"),
    ("mixed_norm", ("curve", "count"), 10 ** 12, "curve.count"),
    ("norms_gaussian", ("grid", "N"), 2 ** 63, "grid.N"),
    ("norms_gaussian", ("grid", "N"), 2 ** 25, "grid.N"),
    ("propagate_heat", ("d",), 3, "grid.N"),  # 256^3 nodes: one CSV row each
    # mixed_norm needs at least 8 samples: each value below used to exit 2
    ("mixed_norm", ("curve", "count"), 0, "curve.count"),
    ("mixed_norm", ("curve", "count"), 3, "curve.count"),
    ("mixed_norm", ("curve", "count"), -1, "curve.count"),
    # each value below used to exit 0 with a NaN or infinite value, or exit 2 naming no field
    ("mixed_norm", ("curve", "t_max"), "inf", "curve.t_max"),
    ("mixed_norm", ("curve", "t_min"), 5.0, "curve.t_min"),
    ("mixed_norm", ("curve", "power"), "inf", "curve.power"),
    ("mixed_norm", ("curve", "coef"), -1.0, "curve.coef"),
    ("norms_gaussian", ("p_grid",), {"a": 3, "b": 2}, "p_grid"),
    ("norms_gaussian", ("p_grid",), [0.5], "p_grid"),
    ("norms_gaussian", ("p_grid",), [2, 1], "p_grid"),
    # a repeated inf used to pass with a RuntimeWarning (inf - inf) and write two rows
    ("norms_gaussian", ("p_grid",), [1, "inf", "inf"], "p_grid"),
    # the grid's decade count overflows (a default cap of 8a = inf): it used to exit 2
    ("norms_gaussian", ("p_grid",), {"a": 1e308, "b": "inf"}, "p_grid"),
    ("norms_gaussian", ("p_grid",), {"a": 1, "b": 1e308}, "p_grid"),
    ("fundamental_zeta", ("deltas",), [-1], "deltas.0"),
    ("fundamental_zeta", ("deltas",), [1e-6, 0], "deltas.1"),
    # infinite extents and times used to reach numpy, exit 1 or 2 naming no field and,
    # under the RuntimeWarning policy, end in a traceback
    ("norms_gaussian", ("grid", "L"), "inf", "grid.L"),
    ("propagate_heat", ("t",), "inf", "t"),
    ("functional_sweep_sp", ("t_grid", "start"), "inf", "t_grid.start"),
    ("functional_sweep_sp", ("t_grid", "stop"), "inf", "t_grid.stop"),
    # each value below used to reach numpy and exit 2 naming no field
    ("norms_gaussian", ("initial",), {"type": "indicator", "nodes_per_axis": 0},
     "initial.nodes_per_axis"),
    ("norms_gaussian", ("initial",), {"type": "indicator", "nodes_per_axis": 2048},
     "initial.nodes_per_axis"),
    ("norms_gaussian", ("initial", "sigma2"), "inf", "initial.sigma2"),
    ("norms_gaussian", ("initial", "sigma2"), [1, "inf"], "initial.sigma2.1"),
    # an infinite table exponent used to end in a traceback, a repeated one to exit 0
    ("witness_sp", ("nu", "points", "inf"), 1.0, "nu"),
    ("witness_sp", ("nu", "points", "1e400"), 2.0, "nu"),
    ("witness_sp", ("nu", "points", "4"), 3.0, "nu"),
    # the propagate time: past the window it exited 0, negative for heat it exited 2
    ("propagate_heat", ("t",), 1000, "t"),
    ("propagate_heat", ("t",), -1, "t"),
    # a regime with no asymptotic form was ignored (exit 0), or exited 2
    ("fundamental_zeta", ("regime",), "large", "regime"),
    ("fundamental_zeta", ("psi",), {"variant": "degenerate", "s": 2.0}, "regime"),
    ("fundamental_zeta", ("psi",), {"variant": "table", "points": {"1.5": 1.0, "3": 2.0}},
     "regime"),
    # an alpha on heat or schrodinger never reached the flow record: heat exited 0
    ("propagate_heat", ("kind",), {"name": "heat", "alpha": 1.5}, "kind"),
    ("propagate_heat", ("kind",), {"name": "schrodinger", "alpha": 1.5}, "kind"),
    # predicted.d was any real: "inf" wrote -Infinity and NaN, another d exited 0 with a
    # FAIL against the rate of that dimension
    ("rate_report", ("predicted", "d"), "inf", "predicted.d"),
    ("rate_report", ("predicted", "d"), 1.5, "predicted.d"),
    ("rate_report", ("predicted", "d"), 0, "predicted.d"),
    ("rate_report", ("predicted", "d"), 2, "predicted.d"),
    # a witness input named no field, or called nu "Y"
    ("moment_law", ("r_list",), [2, 0.5], "r_list.1"),
    ("witness_sp", ("nu",), {"variant": "zeta", "a": 1, "b": 3, "alpha": 1, "beta": 1}, "nu"),
]


@pytest.mark.parametrize("config, path, value, field", CONFIG_FAULTS, ids=[
    f"{f}-missing" if v is _DROP else f"{f}={v!r}" for _, _, v, f in CONFIG_FAULTS])
def test_config_fault_names_dotted_field(config, path, value, field, tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run(str(bad), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert re.search(rf"(?<![\w.]){re.escape(field)}(?![\w.])", err), err
    assert {p.name for p in tmp_path.iterdir()} == {"bad.json"}


@pytest.mark.parametrize("field", ["K1", "K2", "K"])
def test_functional_constant_must_be_positive_and_finite(field, tmp_path, capsys, monkeypatch):
    config = "functional_sweep_sr" if field == "K" else "functional_sweep_sp"
    monkeypatch.setattr(functionals, "propagate", lambda *a: pytest.fail("propagated"))
    for value in (0, -1, "inf"):
        cfg = {**json.loads((CONFIG_DIR / f"{config}.json").read_text()), field: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run(str(bad), str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field {field} must be a positive finite number")
        assert not (tmp_path / "out").exists()


def test_zeta_endpoint_finer_than_float_spacing(tmp_path):
    # b - 1e-12 rounds to b here; the exponent grid must still stay inside (a, b)
    cfg = json.loads((CONFIG_DIR / "fundamental_zeta.json").read_text())
    cfg["psi"]["b"] = 1e6 + 0.5
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == 0


def test_rate_report_checks_predicted_before_sweep(tmp_path, monkeypatch, capsys):
    def no_propagation(*args, **kwargs):
        raise AssertionError("propagated before the predicted block was checked")

    monkeypatch.setattr(cli, "propagate", no_propagation)
    cfg = json.loads((CONFIG_DIR / "rate_report.json").read_text())
    cfg["predicted"]["source"] = "bogus"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run(str(bad), str(tmp_path / "out")) == 1
    assert "predicted.source" in capsys.readouterr().err


# times the rate fit cannot use exited 2, after every time had propagated; these lie
# inside both flows' windows (schrodinger's is 42.7 here)
@pytest.mark.parametrize("t_grid, with_log", [
    ([0.0, 4.0, 16.0, 32.0], False), ([-4.0, 4.0, 16.0, 32.0], False),
    ([0.5, 4.0, 16.0, 32.0], True), ([1.0, 4.0, 16.0, 32.0], True)])
@pytest.mark.parametrize("kind", ["heat", "schrodinger"])
def test_rate_report_refuses_unfittable_times_before_any_propagation(
        t_grid, with_log, kind, tmp_path, capsys, monkeypatch):
    cfg = json.loads((CONFIG_DIR / "rate_report.json").read_text())
    cfg.update(t_grid=t_grid, with_log=with_log, kind=kind)
    path = tmp_path / "times.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(cli, "propagate", lambda *a: pytest.fail("propagated"))
    assert _run(path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "t_grid" in err, err
    assert "window" not in err and not (tmp_path / "out").exists()


def test_rate_report_without_log_fits_times_below_one(tmp_path):
    cfg = json.loads((CONFIG_DIR / "rate_report.json").read_text())
    cfg.update(t_grid=[0.5, 4.0, 16.0, 64.0], with_log=False)
    path = tmp_path / "times.json"
    path.write_text(json.dumps(cfg))
    assert _run(path, tmp_path / "out") == 0


def test_norms_of_a_complex_variance_gaussian_are_exact(tmp_path):
    cfg = json.loads((CONFIG_DIR / "norms_gaussian.json").read_text())
    cfg["initial"]["sigma2"] = [1.0, 0.5]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(cfg))
    assert _run(path, tmp_path / "out") == 0
    rows = list(csv.reader((tmp_path / "out" / "norms_gaussian.csv").read_text().splitlines()))[1:]
    assert len(rows) == 7
    for p, value, provenance in rows:
        want = GaussianSpec(complex(1.0, 0.5), 1).lp(float(p))
        assert float(value) == pytest.approx(want, rel=1e-14) and provenance == "grid"


def test_config_that_is_an_array_exits_1(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([json.loads((CONFIG_DIR / "norms_gaussian.json").read_text())]))
    assert _run(path, tmp_path / "out") == 1
    assert capsys.readouterr().err == "config error: the config must be a JSON object\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["config-is-directory", "undecodable-config", "out-is-a-file"])
def test_run_file_boundary_faults_exit_1(case, tmp_path, capsys):
    config, out = CONFIG_DIR / "norms_gaussian.json", tmp_path / "out"
    if case == "config-is-directory":
        config = tmp_path
    elif case == "undecodable-config":
        config = tmp_path / "bytes.json"
        config.write_bytes(b'{"experiment": "\xff"}')
    else:
        out.write_text("")
    assert run(str(config), str(out)) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"], ids=["malformed", "not-an-object"])
def test_report_bad_summary_exits_1(text, tmp_path, capsys):
    (tmp_path / "x_summary.json").write_text(text)
    assert report(str(tmp_path)) == 1
    assert "x_summary.json" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["a,b", 'say "x"', "cr\rx", "lf\nx", "", "inf",
                                   "-0.0000000000000000e+00", "\r\n", ","])
def test_csv_text_quotes_as_the_stdlib(field):
    for rows in ([["t", "value", "reason"], ["1.0e+00", field, "grid"]],
                 [["t", "reason"], [field, field], ["2.0e+00", "x"]],
                 [["t"], [field]], [[field], ["x"]]):
        assert cli._csv_text(rows) == _stdlib_csv(rows)


def test_csv_text_joins_plain_rows():
    rows = [("index", "real"), *zip(map(str, range(5)), cli._fmt(np.linspace(-1, 1, 5)))]
    assert cli._csv_text(rows) == _stdlib_csv(rows)
    assert cli._csv_text([[""], ["x", ""]]) == _stdlib_csv([[""], ["x", ""]]) == '""\nx,\n'


def test_fmt_writes_what_format_writes():
    values = [math.inf, -math.inf, -0.0, 5e-324, 1.7e308, 1.0 / 3.0, 1]
    expected = [format(float(x), ".16e") for x in values]
    assert cli._fmt(values) == expected
    assert cli._fmt(np.array(values)) == expected
    assert expected[:3] == ["inf", "-inf", "-0.0000000000000000e+00"]


def _excluded_time_sweep(tmp_path) -> Path:
    cfg = json.loads((CONFIG_DIR / "functional_sweep_sr.json").read_text())
    cfg["t_grid"] = [1.5, 16.0, 64.0]  # 1.5 is excluded: t must exceed 2
    path = tmp_path / "excluded.json"
    path.write_text(json.dumps(cfg))
    return path


def test_excluded_time_reason_is_quoted(tmp_path):
    out = tmp_path / "out"
    assert _run(_excluded_time_sweep(tmp_path), out) == 0
    _assert_stdlib_bytes(out)
    row = (out / "functional_sweep_sr.csv").read_text().splitlines()[1]
    reason = '"functionals are defined for t > 2, got t=1.5"'
    assert row == f"1.5000000000000000e+00,,1,{reason},grid"
