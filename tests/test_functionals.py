import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from strichartz_gls import cli, functionals, spaces
from strichartz_gls import (
    HEAT,
    INF,
    SCHRODINGER,
    GaussianSpec,
    PsiSpec,
    fit_rate,
    fractional,
    gaussian_sample,
    make_grid,
    mixed_norm,
    predicted_rate,
    v_sr_curve,
    w_sp_curve,
)


def w_sp(f, psiX, psiY, t, **params):
    """W_SP at one time t > 2: the curve over a one-time grid."""
    return w_sp_curve(f, psiX, psiY, [t], **params).values[0]


def v_sr(f, psiX, psiY, t, **params):
    """V_SR at one time t > 2: the curve over a one-time grid."""
    return v_sr_curve(f, psiX, psiY, [t], **params).values[0]


# ---------------------------------------------------------------- fit_rate

def test_fit_rate_pure_power():
    t = np.geomspace(3.0, 300.0, 12)
    y = 2.0 * t ** -1.5
    fit = fit_rate(t, y)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(2.0, rel=1e-12)
    assert fit.residual < 1e-12
    assert fit.n_samples == 12


def test_fit_rate_with_log_correction():
    t = np.geomspace(5.0, 5000.0, 24)
    y = 3.0 * t ** 0.25 * np.log(t) ** 2
    fit = fit_rate(t, y, with_log=True)
    assert fit.slope == pytest.approx(0.25, abs=1e-6)
    assert fit.log_exponent == pytest.approx(2.0, abs=1e-6)
    assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-6)


def test_fit_rate_without_log_misreads_log_factor():
    # the plain fit absorbs a genuine log factor into a slope bias
    t = np.geomspace(5.0, 5000.0, 24)
    y = t ** -1.0 * np.log(t) ** 2
    plain = fit_rate(t, y)
    assert abs(plain.slope - (-1.0)) > 0.1
    corrected = fit_rate(t, y, with_log=True)
    assert corrected.slope == pytest.approx(-1.0, abs=1e-6)


def test_fit_rate_guards():
    with pytest.raises(ValueError):
        fit_rate([3.0, 4.0, 5.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        fit_rate([3.0, 4.0, 5.0, 6.0], [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        fit_rate([0.5, 1.0, 2.0, 4.0], [1.0, 1.0, 1.0, 1.0], with_log=True)
    for t0, with_log in ((0.0, False), (-1.0, False), (0.0, True)):
        # a plain ValueError, raised before log t warns
        with pytest.raises(ValueError, match="the rate fit( with_log)? needs at least 4 times, "
                                             "each above"):
            fit_rate([t0, 2.0, 4.0, 8.0], [1.0, 1.0, 1.0, 1.0], with_log=with_log)


# ---------------------------------------------------------- predicted_rate

def test_predicted_rate_parabolic_zeta():
    pr = predicted_rate("parabolic-zeta", d=1, a1=1.0, a2=3.0, alpha1=0.0, alpha2=1.0)
    assert pr.power == pytest.approx(-0.5 * (1.0 - 1.0 / 3.0))
    assert pr.log_power == pytest.approx(1.0)
    with pytest.raises(ValueError):
        predicted_rate("parabolic-zeta", d=1, a1=3.0, a2=1.0)
    with pytest.raises(ValueError):
        predicted_rate("parabolic-zeta", d=1, a1=1.0, b1=2.0, a2=1.5, b2=6.0)


def test_predicted_rate_schrodinger_zeta():
    # b1 = 2 is self-conjugate, so the time power vanishes
    pr = predicted_rate("schrodinger-zeta", d=2, b1=2.0, beta1=1.5)
    assert pr.power == pytest.approx(0.0)
    assert pr.log_power == pytest.approx(-1.5)
    pr = predicted_rate("schrodinger-zeta", d=1, b1=1.5, beta1=0.0)
    # conjugate exponent of 1.5 is 3: power = 1/2 - 1/3
    assert pr.power == pytest.approx(1.0 / 6.0)
    with pytest.raises(ValueError):
        predicted_rate("schrodinger-zeta", d=1, b1=3.0)


def test_predicted_rate_fractional_pair():
    pr = predicted_rate("fractional", d=1, alpha=2.0, p=1.0, r=INF)
    assert pr.power == pytest.approx(-0.5)
    lap = predicted_rate("fractional-laplacian", d=1, alpha=2.0, p=1.0, r=INF)
    assert lap.power == pytest.approx(-1.0)
    assert lap.power == pytest.approx(pr.power - 1.0 / 2.0)
    with pytest.raises(ValueError):
        predicted_rate("fractional", d=1, alpha=3.0, p=1.0, r=2.0)
    with pytest.raises(ValueError):
        predicted_rate("fractional", d=1, alpha=2.0, p=3.0, r=2.0)


def test_predicted_rate_lp_sources():
    pr = predicted_rate("heat-lp", d=1, p=1.0, r=3.0)
    assert pr.power == pytest.approx(0.5 * (1.0 / 3.0 - 1.0))
    pr = predicted_rate("schrodinger-lp", d=2, p=INF)
    assert pr.power == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        predicted_rate("heat-lp", d=1, p=3.0, r=2.0)
    with pytest.raises(ValueError):
        predicted_rate("schrodinger-lp", d=1, p=1.5)
    with pytest.raises(ValueError):
        predicted_rate("no-such-source", d=1)


# ------------------------------------------------------------- w_sp_curve

def _sp_setup():
    g = make_grid(1, 256.0, 8192)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    psiX = PsiSpec.zeta(1.0, 2.0, 1.0, 1.0)
    psiY = PsiSpec.zeta(3.0, 6.0, 1.0, 1.0)
    return g, f, psiX, psiY


def test_w_sp_positive_and_scale_invariant():
    _, f, psiX, psiY = _sp_setup()
    v = w_sp(f, psiX, psiY, 16.0)
    assert v > 0
    assert w_sp(5.0 * f, psiX, psiY, 16.0) == pytest.approx(v, rel=1e-12)


def test_w_sp_family_bounded():
    # the functional should stay uniformly bounded in t
    g, f, psiX, psiY = _sp_setup()
    f2 = gaussian_sample(g, GaussianSpec(4.0, 1))
    t_grid = [4.0, 16.0, 64.0, 256.0, 1024.0]
    for f0 in (f, f2):
        curve = w_sp_curve(f0, psiX, psiY, t_grid)
        assert curve.values.max() / curve.values.min() < 10.0
        assert curve.values.max() < 10.0


def test_w_sp_guards():
    g, f, psiX, psiY = _sp_setup()
    zero = f + (-1.0) * f
    with pytest.raises(ValueError):
        w_sp(zero, psiX, psiY, 16.0)
    # t <= 2 is not an error but an exclusion; a curve with no other time has no value
    assert w_sp_curve(f, psiX, psiY, [2.0, 16.0]).exclusions == (
        (2.0, "functionals are defined for t > 2, got t=2.0"),)
    with pytest.raises(ValueError, match="no admissible time samples"):
        w_sp(f, psiX, psiY, 2.0)
    with pytest.raises(ValueError):
        w_sp(f, psiX, psiY, 16.0, K1=-1.0)
    with pytest.raises(ValueError):
        w_sp(f, psiX, psiY, 16.0, kind=SCHRODINGER)


def test_w_sp_overlap_warning():
    g, f, psiX, _ = _sp_setup()
    with pytest.warns(UserWarning):
        w_sp(f, psiX, PsiSpec.zeta(1.5, 4.0, 1.0, 1.0), 16.0)


def test_w_sp_fractional_kind():
    g, f, psiX, psiY = _sp_setup()
    v = w_sp(f, psiX, psiY, 16.0, kind=fractional(2.0))
    assert v > 0 and math.isfinite(v)


# ------------------------------------------------------------- v_sr_curve

def _sr_setup():
    g = make_grid(1, 4096.0, 65536)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    psiX = PsiSpec.degenerate(1.0)
    psiY = PsiSpec.degenerate(INF)
    return g, f, psiX, psiY


def test_v_sr_closed_form_value():
    # X = L_1, Y = L_inf: phi(X, .) is the identity, so the t powers cancel
    # and V equals t^{d/2} |U_t g|_inf -> (2 pi)^{-1/2}
    _, f, psiX, psiY = _sr_setup()
    t = 100.0
    v = v_sr(f, psiX, psiY, t)
    closed = t ** 0.5 * (2 * math.pi) ** -0.5 * (1 + t * t) ** -0.25
    assert v == pytest.approx(closed, rel=1e-10)


def test_v_sr_k_scaling_exact():
    # phi(L_1, K delta) = K delta, so the K-dependence is exactly 1/K
    _, f, psiX, psiY = _sr_setup()
    v1 = v_sr(f, psiX, psiY, 50.0, K=1.0)
    v3 = v_sr(f, psiX, psiY, 50.0, K=3.0)
    assert v3 == pytest.approx(v1 / 3.0, rel=1e-12)


def test_v_sr_proof_normalization():
    _, f, psiX, psiY = _sr_setup()
    t = 50.0
    # definition: divide by phi(X, t^-d) = t^-1; proof: by phi(X, t^{d/2}) = t^{1/2}
    v_def = v_sr(f, psiX, psiY, t, normalization="definition")
    v_proof = v_sr(f, psiX, psiY, t, normalization="proof")
    assert v_proof == pytest.approx(v_def * t ** -1.5, rel=1e-12)
    with pytest.raises(ValueError):
        v_sr(f, psiX, psiY, t, normalization="other")


def test_v_sr_family_bounded():
    _, f, psiX, _ = _sr_setup()
    psiY = PsiSpec.zeta(2.5, 6.0, 1.0, 1.0)
    curve = v_sr_curve(f, psiX, psiY, np.geomspace(16.0, 256.0, 7))
    assert curve.values.max() / curve.values.min() < 10.0


def test_v_sr_low_exponent_warning():
    _, f, psiX, _ = _sr_setup()
    with pytest.warns(UserWarning):
        v_sr(f, psiX, PsiSpec.zeta(1.5, 6.0, 1.0, 1.0), 50.0)


def test_curve_records_exclusions():
    _, f, psiX, psiY = _sr_setup()
    curve = v_sr_curve(f, psiX, psiY, [1.0, 16.0, 64.0])
    assert curve.t_grid.tolist() == [16.0, 64.0]
    assert len(curve.exclusions) == 1
    assert curve.exclusions[0][0] == 1.0


def test_sweep_excludes_a_non_finite_or_nonpositive_value():
    _, f, psiX, psiY = _sp_setup()
    values = {4.0: INF, 8.0: 0.0, 16.0: 0.5, 32.0: -1.0, 64.0: math.nan}
    curve = functionals._sweep(lambda t, norm_y, norm_x: values[t], f, HEAT, psiX, psiY,
                               list(values))
    assert curve.t_grid.tolist() == [16.0] and curve.values.tolist() == [0.5]
    assert curve.exclusions == tuple(
        (t, f"non-finite or nonpositive value {values[t]}") for t in (4.0, 8.0, 32.0, 64.0))


@pytest.mark.parametrize("sweep", [w_sp_curve, v_sr_curve], ids=["SP", "SR"])
def test_sweep_takes_the_x_norm_once(sweep, monkeypatch):
    _, f, psiX, psiY = _sp_setup()
    space_norm = functionals.space_norm
    calls = []
    monkeypatch.setattr(functionals, "space_norm",
                        lambda h, psi: calls.append(psi) or space_norm(h, psi))
    t_grid = [2.0, 4.0, 16.0, 64.0]
    curve = sweep(f, psiX, psiY, t_grid)
    # the Y norms go through space_norm too, one per kept time
    assert [psi for psi in calls if psi is psiX] == [psiX]
    assert calls.count(psiY) == curve.t_grid.size == 3
    assert curve.values[1] == sweep(f, psiX, psiY, [16.0]).values[0]
    assert curve.exclusions == ((2.0, "functionals are defined for t > 2, got t=2.0"),)

    # an infinite X norm fails the sweep before its first time; it is still taken once
    calls.clear()
    monkeypatch.setattr(functionals, "space_norm", lambda h, psi: calls.append(psi) or INF)
    with pytest.raises(ValueError, match="f is not admissible in X: its norm is inf"):
        sweep(f, psiX, psiY, t_grid)
    assert calls == [psiX]


@pytest.mark.parametrize("sweep, psiX, psiY, message", [
    (w_sp_curve, PsiSpec.zeta(1.0, 2.0, 1.0, 1.0), PsiSpec.zeta(1.5, 4.0, 1.0, 1.0),
     "exponent supports overlap"),
    (v_sr_curve, PsiSpec.degenerate(1.0), PsiSpec.zeta(1.5, 6.0, 1.0, 1.0),
     "dispersive regime expects"),
], ids=["SP", "SR"])
def test_sweep_warns_once(sweep, psiX, psiY, message):
    # the warning is about (X, Y), which does not depend on t: one per sweep, not per time
    _, f, _, _ = _sp_setup()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = sweep(f, psiX, psiY, [4.0, 16.0, 64.0])
    assert curve.t_grid.size == 3
    assert [str(w.message)[:len(message)] for w in caught] == [message]
    assert [w.filename for w in caught] == [__file__]  # the warning points at the caller


@pytest.mark.parametrize("sweep, constant", [
    (w_sp_curve, "K1"), (w_sp_curve, "K2"), (v_sr_curve, "K")])
def test_constants_are_checked_once_before_the_first_time(sweep, constant, monkeypatch):
    _, f, psiX, psiY = _sp_setup()
    monkeypatch.setattr(functionals, "propagate", lambda *a: pytest.fail("propagated"))
    for value in (0.0, -1.0, INF):
        with pytest.raises(ValueError, match="positive and finite"):
            sweep(f, psiX, psiY, [4.0, 16.0, 64.0], **{constant: value})


@pytest.mark.parametrize("sweep", [w_sp_curve, v_sr_curve], ids=["SP", "SR"])
def test_sweep_checks_its_time_grid_before_the_x_norm(sweep, monkeypatch):
    # a grid that does not increase is rejected up front, even where its out-of-order
    # time (1.0 here) would have been excluded
    _, f, psiX, psiY = _sp_setup()
    monkeypatch.setattr(functionals, "space_norm", lambda *a: pytest.fail("took the X norm"))
    for t_grid in ([16.0, 4.0], [16.0, 1.0], [4.0, 4.0]):
        with pytest.raises(ValueError, match="t_grid must be strictly increasing"):
            sweep(f, psiX, psiY, t_grid)


@pytest.mark.parametrize("sweep", [w_sp_curve, v_sr_curve], ids=["SP", "SR"])
def test_sweep_rejects_an_uncovered_weight_before_the_first_time(sweep, monkeypatch):
    _, f, psiX, psiY = _sp_setup()
    monkeypatch.setattr(functionals, "propagate", lambda *a: pytest.fail("propagated"))
    narrow_x = PsiSpec.table({1.5: 1.0, 1.51: 1.0})
    narrow_y = PsiSpec.table({3.0: 1.0, 3.01: 1.0})
    # X is read first, so with both uncovered X is the one named
    for X, Y, name, lo in ((narrow_x, psiY, "X", "1.5"), (psiX, narrow_y, "Y", "3.0"),
                           (narrow_x, narrow_y, "X", "1.5")):
        with pytest.raises(spaces.CoverageError, match=rf"^weight {name}: .* cover \({lo}, "):
            sweep(f, X, Y, [4.0, 16.0])


def test_zero_datum_has_zero_norm_in_x():
    _, f, psiX, psiY = _sp_setup()
    zero = f + (-1.0) * f
    for sweep in (w_sp_curve, v_sr_curve):
        with pytest.raises(ValueError, match="f is not admissible in X: its norm is 0"):
            sweep(zero, psiX, psiY, [16.0])


def test_sweep_takes_few_moment_profile_exponents(monkeypatch, tmp_path):
    # the shipped SP sweep: one X norm and one Y norm per time, each of whose full
    # exponent grids the bounded sup mostly never evaluates
    config = Path(__file__).resolve().parents[1] / "configs" / "functional_sweep_sp.json"
    spec = json.loads(config.read_text())
    moment_profile = functionals.moment_profile
    asked = []
    monkeypatch.setattr(functionals, "moment_profile",
                        lambda f, p, *rest: asked.append(len(p)) or moment_profile(f, p, *rest))
    assert cli.run(str(config), str(tmp_path)) == 0
    psiX, psiY = (PsiSpec.zeta(*(spec[s][k] for k in ("a", "b", "alpha", "beta"))) for s in "XY")
    full = psiX.samples[0].size + spec["t_grid"]["count"] * psiY.samples[0].size
    assert 0 < sum(asked) <= 0.25 * full


def test_rate_report_builds_each_profile_grid_once(monkeypatch, tmp_path):
    # X and Y each sample their exponents once, not Y once per time; every module
    # binding of exponent_grid is wrapped, wherever the grid is built from
    config = Path(__file__).resolve().parents[1] / "configs" / "rate_report.json"
    exponent_grid = spaces.exponent_grid
    offsets = []
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "strichartz_gls"]:
        if getattr(mod, "exponent_grid", None) is exponent_grid:
            monkeypatch.setattr(mod, "exponent_grid", lambda *a, **k: offsets.append(
                k.get("min_offset")) or exponent_grid(*a, **k))
    assert cli.run(str(config), str(tmp_path)) == 0
    assert offsets.count(functionals.PROFILE_MIN_OFFSET) == 2


def test_curve_fit_matches_closed_form_slope():
    _, f, psiX, psiY = _sr_setup()
    curve = v_sr_curve(f, psiX, psiY, np.geomspace(16.0, 256.0, 7))
    # closed form tends to a constant, so the fitted slope is ~0
    assert abs(fit_rate(curve.t_grid, curve.values).slope) < 5e-3


# -------------------------------------------------------------- mixed_norm

def test_mixed_norm_degenerate_power_curve(tmp_path):
    # y = t^{-1/4} on (0, T]: the L_q integral in time is T^{1-q/4}/(1-q/4)
    t = np.geomspace(1e-9, 4.0, 8001)
    y = t ** -0.25
    q = 2.0
    got = mixed_norm(t, y, PsiSpec.degenerate(q))
    expected = (4.0 ** (1 - q / 4.0) / (1 - q / 4.0)) ** (1 / q)
    assert got == pytest.approx(expected, rel=1e-3)
    assert expected == pytest.approx(2.0)
    # the shipped config, c t^s on [t_min, T]: c ((T^(sq+1) - t_min^(sq+1)) / (sq+1))^(1/q)
    config = Path(__file__).resolve().parents[1] / "configs" / "mixed_norm.json"
    spec = json.loads(config.read_text())
    assert spec["theta"]["s"] == q and "t_min" not in spec["curve"]
    assert cli.run(str(config), str(tmp_path)) == 0
    shipped = json.loads((tmp_path / "mixed_norm_summary.json").read_text())["value"]
    c, s, t_max = (spec["curve"][k] for k in ("coef", "power", "t_max"))
    t_min = 1e-12
    closed = c * ((t_max ** (s * q + 1) - t_min ** (s * q + 1)) / (s * q + 1)) ** (1 / q)
    assert shipped == pytest.approx(closed, rel=1e-5)  # 5.69e-6 high at 2048 samples
    # the trapezoid rule converges at second order: 8 times the samples, a gap 64 times smaller
    gaps = [abs(mixed_norm(t, c * t ** s, PsiSpec.degenerate(q)) - closed)
            for t in (np.geomspace(t_min, t_max, n) for n in (2048, 16384))]
    assert gaps[0] / gaps[1] > 50


def test_mixed_norm_divergence_flag():
    # y = t^{-1/2} is not in L_2 near t = 0
    t = np.geomspace(1e-8, 1.0, 400)
    y = t ** -0.5
    assert mixed_norm(t, y, PsiSpec.degenerate(2.0)) == INF
    # but it is in L_1.5
    assert math.isfinite(mixed_norm(t, y, PsiSpec.degenerate(1.5)))


def test_mixed_norm_sup_variant():
    t = np.linspace(0.1, 1.0, 32)
    y = np.full_like(t, 3.0)
    assert mixed_norm(t, y, PsiSpec.degenerate(INF)) == 3.0


def test_mixed_norm_gls_weight():
    t = np.linspace(0.1, 1.0, 64)
    y = np.full_like(t, 1.0)
    got = mixed_norm(t, y, PsiSpec.table({1.5: 1.0, 4.0: 1.0}))
    # sup over q of (0.9)^{1/q}: approached at q -> 4
    assert got == pytest.approx(0.9 ** 0.25, rel=1e-3)


def test_mixed_norm_rejects_an_uncovered_theta():
    # the shipped curve under a theta too narrow for the profile grid: space_norm
    # rejects such a weight, and so does the time norm
    t = np.geomspace(1e-12, 1.0, 2048)
    theta = PsiSpec.table({1.0: 1.0, 1.01: 1.0})
    with pytest.raises(ValueError, match=r"does not cover \(1\.0, 1\.01\) densely enough"):
        mixed_norm(t, t ** -0.25, theta)


def test_mixed_norm_guards():
    with pytest.raises(ValueError):
        mixed_norm([1.0, 2.0], [1.0, 1.0], PsiSpec.degenerate(2.0))
    t = np.linspace(0.1, 1.0, 16)
    with pytest.raises(ValueError):
        mixed_norm(t, -np.ones_like(t), PsiSpec.degenerate(2.0))
