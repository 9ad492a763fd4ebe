"""Each rule on a weight or a time grid has one owner and one message.

One parametrized test per rule drives every caller of its owner, in Python and,
for the rules a config can break, through cli.run: the run exits 1, prints the
owner's message and writes nothing.  RuntimeWarning is an error here, so a
numpy warning on the way would fail the run instead of passing unnoticed.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from strichartz_gls import (
    HEAT,
    INF,
    SCHRODINGER,
    PsiSpec,
    exponent_grid,
    fit_rate,
    fractional,
    gaussian_sample,
    make_grid,
    mixed_norm,
    moment_profile,
    sp_witness,
    v_sr_curve,
    w_sp_curve,
    zeta_crossover,
    zeta_eval,
)
from strichartz_gls import spaces
from strichartz_gls.cli import run
from strichartz_gls.grid_field import GaussianSpec

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _run_config(name, tmp_path, capsys, **fields):
    """Exit code and stderr of cli.run on a shipped config with ``fields`` replaced."""
    cfg = {**json.loads((CONFIG_DIR / f"{name}.json").read_text()), **fields}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(cfg))
    rc = run(str(path), str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    return rc, capsys.readouterr().err


def _sweep_setup():
    grid = make_grid(1, 64.0, 1024)
    f = gaussian_sample(grid, GaussianSpec(1.0, 1))
    return grid, f, PsiSpec.zeta(1.0, 2.0, 1.0, 1.0), PsiSpec.zeta(3.0, 6.0, 1.0, 1.0)


# ---------------------------------------------------------------- the order rule

def _increasing_cases():
    grid, f, X, Y = _sweep_setup()
    y = np.ones(9)
    return {
        "moment_profile": (lambda: moment_profile(f, [1.0, INF, INF]), "p_grid", "inf", "inf"),
        "w_sp_curve": (lambda: w_sp_curve(f, X, Y, [4.0, 8.0, 8.0]), "t_grid", "8", "8"),
        "v_sr_curve": (lambda: v_sr_curve(f, X, Y, [4.0, INF, INF]), "t_grid", "inf", "inf"),
        "mixed_norm-repeated-inf": (lambda: mixed_norm([*range(1, 8), INF, INF], y, X),
                                    "t_samples", "inf", "inf"),
        "mixed_norm-nan": (lambda: mixed_norm([1, 2, math.nan, *range(4, 10)], y, X),
                           "t_samples", "2", "nan"),
        "table": (lambda: PsiSpec.table({"2": 1.0, "2.0": 5.0, "3": 1.0}),
                  "table weight exponents", "2", "2"),
        "PsiSpec": (lambda: PsiSpec(2.0, 3.0, "table", table_p=np.array([2.0, 3.0, 3.0]),
                                    table_v=np.ones(3)), "table weight exponents", "3", "3"),
    }


INCREASING_CLI = {
    "witness-sr": ("witness_sr", {"t_grid": [3, 4, 5, "inf", "inf"]}, "t_grid", "inf", "inf"),
    "witness-sp": ("witness_sp", {"t_grid": [4, 16, 16, 64]}, "t_grid", "16", "16"),
    "functional-sweep": ("functional_sweep_sp", {"t_grid": [4, 8, 8]}, "t_grid", "8", "8"),
    "rate-report": ("rate_report", {"t_grid": [16, 32, 64, 32]}, "t_grid", "64", "32"),
    "moment-law": ("moment_law", {"t_grid": [16, "inf", "inf", 64]}, "t_grid", "inf", "inf"),
    "norms": ("norms_gaussian", {"p_grid": [1, "inf", "inf"]}, "p_grid", "inf", "inf"),
    "table-weight": ("witness_sp", {"nu": {"variant": "table",
                                           "points": {"2": 1.0, "2.0": 5.0, "3": 1.0}}},
                     "table weight exponents", "2", "2"),
}


def _increasing_message(name, lo, hi):
    return re.escape(f"{name} must be strictly increasing, got {lo} then {hi}")


@pytest.mark.parametrize("case", _increasing_cases())
def test_order_rule_has_one_message_in_python(case):
    call, name, lo, hi = _increasing_cases()[case]
    with pytest.raises(ValueError, match=_increasing_message(name, lo, hi)):
        call()


@pytest.mark.parametrize("case", INCREASING_CLI)
def test_order_rule_is_a_config_fault_with_one_message(case, tmp_path, capsys):
    # a repeated "inf" in a t_grid list used to reach np.diff (inf - inf) and, with
    # RuntimeWarning an error, end in a traceback
    config, fields, name, lo, hi = INCREASING_CLI[case]
    rc, err = _run_config(config, tmp_path, capsys, **fields)
    assert rc == 1 and err.startswith("config error: "), err
    assert re.search(_increasing_message(name, lo, hi), err), err
    assert "Traceback" not in err


# ---------------------------------------------------------------- the interval rule

INTERVAL_PYTHON = {
    "zeta_crossover": lambda: zeta_crossover(3.0, 2.0, 1.0, 1.0),
    "PsiSpec.zeta": lambda: PsiSpec.zeta(3.0, 2.0, 1.0, 1.0),
    "PsiSpec.table": lambda: PsiSpec.table({0.5: 1.0, 2.0: 1.0}),
    "PsiSpec": lambda: PsiSpec(0.5, 2.0, "table", table_p=np.array([0.5, 2.0]),
                               table_v=np.ones(2)),
    "exponent_grid": lambda: exponent_grid(3.0, 2.0),
}
INTERVAL_CLI = {
    "zeta-X": ("functional_sweep_sp",
               {"X": {"variant": "zeta", "a": 3, "b": 2, "alpha": 1, "beta": 1}}, "X"),
    "zeta-psi": ("fundamental_zeta",
                 {"psi": {"variant": "zeta", "a": 3, "b": 2, "alpha": 1, "beta": 1}}, "psi"),
    "table-theta": ("mixed_norm",
                    {"theta": {"variant": "table", "points": {"0.5": 1.0, "2": 1.0}}}, "theta"),
    "p_grid": ("norms_gaussian", {"p_grid": {"a": 3, "b": 2}}, "p_grid"),
}
_BAD = {"PsiSpec.table": (0.5, 2.0), "PsiSpec": (0.5, 2.0), "table-theta": (0.5, 2.0)}


@pytest.mark.parametrize("case", [*INTERVAL_PYTHON, *INTERVAL_CLI])
def test_interval_rule_has_one_message(case, tmp_path, capsys):
    a, b = _BAD.get(case, (3.0, 2.0))
    message = re.escape(f"need 1 <= a < b, got a={a}, b={b}")
    if case in INTERVAL_PYTHON:
        with pytest.raises(ValueError, match=message):
            INTERVAL_PYTHON[case]()
        return
    config, fields, field = INTERVAL_CLI[case]
    rc, err = _run_config(config, tmp_path, capsys, **fields)
    assert rc == 1 and err.startswith(f"config error: invalid {field}: "), err
    assert re.search(message, err), err


@pytest.mark.parametrize("make", [lambda: PsiSpec.zeta(1.0, 3.0, 1.0, 2.0),
                                  lambda: PsiSpec.zeta(1.0, INF, 1.0, -1.0),
                                  lambda: PsiSpec.table({1.5: 1.0, 3.0: 2.0})],
                         ids=["zeta-finite-b", "zeta-infinite-b", "table"])
def test_a_weight_checks_its_interval_once(make, monkeypatch):
    calls, check = [], spaces.check_interval
    monkeypatch.setattr(spaces, "check_interval", lambda a, b: calls.append((a, b)) or check(a, b))
    psi = make()
    assert calls == [(psi.a, psi.b)]


# ---------------------------------------------------------------- the weight record

def test_a_zeta_weight_carries_its_parameters_and_crossover():
    psi = PsiSpec.zeta(1.0, 5.0, 1.0, 2.0)
    assert (psi.a, psi.b, psi.alpha, psi.beta) == (1.0, 5.0, 1.0, 2.0)
    assert psi.crossover == zeta_crossover(1.0, 5.0, 1.0, 2.0)
    assert PsiSpec.degenerate(2.0).crossover is None
    assert not hasattr(spaces, "ZetaParams") and not hasattr(psi, "zeta_params")


@pytest.mark.parametrize("psi", [PsiSpec.degenerate(2.0), PsiSpec.table({1.5: 1.0, 3.0: 2.0})],
                         ids=["degenerate", "table"])
def test_zeta_eval_refuses_a_weight_that_is_not_zeta(psi):
    with pytest.raises(ValueError, match=f"zeta_eval needs a zeta weight, got a {psi.variant} one"):
        zeta_eval(psi, 2.0)


@pytest.mark.parametrize("make, match", [
    (lambda: PsiSpec(1.0, 2.0, "zeta"), "a zeta weight needs alpha and beta"),
    (lambda: PsiSpec(1.0, 2.0, "zeta", alpha=1.0), "a zeta weight needs alpha and beta"),
    (lambda: PsiSpec(1.0, 2.0, "degenerate"), "degenerate exponent must be >= 1, got a=1.0, b=2"),
    (lambda: PsiSpec(0.5, 0.5, "degenerate"), r"degenerate exponent must be >= 1"),
    (lambda: PsiSpec(1.0, 2.0, "table"), "table weight needs at least two points"),
    (lambda: PsiSpec(1.0, 3.0, "table", table_p=np.array([1.0, 2.0]), table_v=np.ones(2)),
     "table weight exponents must run from a to b"),
    (lambda: PsiSpec(1.0, 2.0, "table", table_p=np.array([1.0, 2.0]), table_v=np.ones(3)),
     "table weight needs at least two points"),
    (lambda: PsiSpec(1.0, 2.0, "bogus"), "unknown weight variant 'bogus'"),
], ids=["zeta-bare", "zeta-no-beta", "degenerate-a-below-b", "degenerate-below-1",
        "table-bare", "table-ends", "table-shapes", "unknown"])
def test_the_constructor_refuses_an_inconsistent_weight(make, match):
    # PsiSpec(1.0, 2.0, "zeta") used to raise AttributeError
    with pytest.raises(ValueError, match=match):
        make()


# ---------------------------------------------------------------- the SP exponent

@pytest.mark.parametrize("kind, d, want", [(HEAT, 1, 0.5), (HEAT, 3, 1.5),
                                           (fractional(1.5), 2, 2 / 1.5),
                                           (fractional(2.0), 3, 1.5)],
                         ids=["heat-1d", "heat-3d", "fractional-1.5", "fractional-2"])
def test_sp_exponent_values(kind, d, want):
    assert kind.sp_exponent(d) == want


SP_REFUSAL = "the schrodinger group has no SP functional: use the SR one"


@pytest.mark.parametrize("caller", ["sp_exponent", "w_sp_curve", "sp_witness", "cli-witness-sp"])
def test_sp_exponent_refuses_the_schrodinger_group_with_one_message(caller, tmp_path, capsys):
    if caller == "cli-witness-sp":
        rc, err = _run_config("witness_sp", tmp_path, capsys, kind="schrodinger",
                              t_grid=[3, 4, 5, 6])
        assert rc == 1 and err == f"config error: {SP_REFUSAL}\n"
        return
    grid, f, X, Y = _sweep_setup()
    calls = {"sp_exponent": lambda: SCHRODINGER.sp_exponent(1),
             "w_sp_curve": lambda: w_sp_curve(f, X, Y, [4.0, 8.0], kind=SCHRODINGER),
             "sp_witness": lambda: sp_witness(PsiSpec.degenerate(2.0), [3.0, 4.0, 5.0, 6.0],
                                              grid, kind=SCHRODINGER)}
    with pytest.raises(ValueError, match=re.escape(SP_REFUSAL)):
        calls[caller]()


# ---------------------------------------------------------------- NaN and 0 * inf

@pytest.mark.parametrize("theta", [{"variant": "degenerate", "s": 2.0},
                                   {"variant": "zeta", "a": 1, "b": 2, "alpha": 1, "beta": 1}],
                         ids=["degenerate", "zeta"])
def test_zero_curve_with_a_steep_power_has_norm_zero(theta, tmp_path):
    # 0 * t^400 used to be 0 * inf = NaN: "value": NaN with "finite": true (degenerate), 0.0
    # reached through NaN samples (zeta), and a traceback under the RuntimeWarning policy
    cfg = json.loads((CONFIG_DIR / "mixed_norm.json").read_text())
    cfg["theta"], cfg["curve"] = theta, {"coef": 0, "power": 400, "t_max": 1000}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == 0
    data = json.loads((tmp_path / "out" / "mixed_norm_summary.json").read_text())
    assert data["value"] == 0.0 and data["finite"] is True


@pytest.mark.parametrize("bad", [math.nan, INF, 0.0, -1.0])
def test_fit_rate_refuses_a_nan_or_nonpositive_value(bad):
    # a NaN value used to give a RateFit with a NaN slope
    with pytest.raises(ValueError, match="rate fit requires positive finite values"):
        fit_rate([3.0, 4.0, 5.0, 6.0], [1.0, bad, 0.5, 0.4])


@pytest.mark.parametrize("theta", [PsiSpec.degenerate(2.0), PsiSpec.zeta(1.0, 2.0, 1.0, 1.0)],
                         ids=["degenerate", "zeta"])
def test_mixed_norm_refuses_a_nan_sample(theta):
    # it used to return NaN (degenerate theta) or 0.0 (zeta theta)
    y = np.ones(9)
    y[3] = math.nan
    with pytest.raises(ValueError, match="curve values must be nonnegative"):
        mixed_norm(np.geomspace(1.0, 10.0, 9), y, theta)


@pytest.mark.parametrize("t", [[0.0, *range(1, 9)], [*range(1, 9), INF]], ids=["zero", "inf"])
def test_mixed_norm_times_must_be_positive_and_finite(t):
    with pytest.raises(ValueError, match="t_samples must be positive and finite"):
        mixed_norm(t, np.ones(9), PsiSpec.degenerate(2.0))
