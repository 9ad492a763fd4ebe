import json
import math
import re
from pathlib import Path

import pytest

from strichartz_gls import cli
from strichartz_gls.cli import main, report, run

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

ALL_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def _run(cfg_path, out_dir):
    return run(str(cfg_path), str(out_dir))


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_run_clean(cfg, tmp_path):
    assert _run(cfg, tmp_path / cfg.stem) == 0


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
    # mixed_norm needs at least 8 samples: each value below used to exit 2
    ("mixed_norm", ("curve", "count"), 0, "curve.count"),
    ("mixed_norm", ("curve", "count"), 3, "curve.count"),
    ("mixed_norm", ("curve", "count"), -1, "curve.count"),
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
    assert {p.name for p in tmp_path.iterdir()} <= {"bad.json", "out"}


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
