import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from strichartz_gls import cli, functionals, spaces, witness
from strichartz_gls import (
    HEAT,
    INF,
    SCHRODINGER,
    GaussianSpec,
    PsiSpec,
    WitnessReport,
    fit_rate,
    fractional,
    gaussian_gls_exact,
    gaussian_sample,
    gaussian_moment_law_check,
    lp_norm,
    make_grid,
    predicted_rate,
    propagate,
    sp_witness,
    sr_witness,
    v_sr_curve,
    w_sp_curve,
)

GAP_TOL = 1e-6

SP_GRID = make_grid(1, 200.0, 8192)
SP_TIMES = [4.0, 16.0, 64.0, 256.0, 1024.0]
SR_GRID = make_grid(1, 4096.0, 65536)
SR_TIMES = np.geomspace(16.0, 256.0, 7)


def ratio(rep) -> float:
    """max/min of a witness's grid channel."""
    return rep.grid_values.max() / rep.grid_values.min()


def test_sp_witness_two_channels_agree():
    nu = PsiSpec.table({2.0: 1.0, 4.0: 1.0})
    rep = sp_witness(nu, SP_TIMES, SP_GRID)
    assert rep.rel_gaps.max() < GAP_TOL


@pytest.mark.parametrize("nu, grid, times, kind", [
    (PsiSpec.table({2.0: 1.0, 4.0: 1.0}), SP_GRID, [4.0, 16.0, 64.0, 256.0, 512.0],
     fractional(2.0)),
    (PsiSpec.zeta(1.5, 6.0, 1.0, 1.0), make_grid(2, 60.0, 256), [4.0, 16.0, 32.0, 64.0], HEAT),
    (PsiSpec.degenerate(3.0), make_grid(3, 24.0, 32), [3.0, 6.0, 9.0, 12.0], HEAT),
], ids=["d1-fractional-table", "d2-heat-zeta", "d3-heat-L3"])
def test_sp_witness_grid_channel_is_the_functional_curve(nu, grid, times, kind):
    f = gaussian_sample(grid, GaussianSpec(1.0, grid.dim))
    curve = w_sp_curve(f, PsiSpec.degenerate(1.0), nu, times, kind=kind)
    rep = sp_witness(nu, times, grid, kind=kind)
    assert rep.grid_values.tolist() == curve.values.tolist()
    assert rep.t_grid.tolist() == curve.t_grid.tolist()


@pytest.mark.parametrize("grid, times", [(SR_GRID, SR_TIMES), (make_grid(2, 48.0, 256),
                                                               [3.0, 4.0, 5.0, 7.0])],
                         ids=["d1", "d2"])
def test_sr_witness_grid_channel_is_the_functional_curve(grid, times):
    f = gaussian_sample(grid, GaussianSpec(1.0, grid.dim))
    curve = v_sr_curve(f, PsiSpec.degenerate(1.0), PsiSpec.degenerate(INF), times)
    assert sr_witness(times, grid).grid_values.tolist() == curve.values.tolist()


def test_sp_witness_takes_few_moment_profile_exponents(monkeypatch, tmp_path):
    # the grid channel takes the norm the functionals take: the bounded sup over the
    # weight's exponents, not a full moment profile at every time
    config = Path(__file__).resolve().parents[1] / "configs" / "witness_sp.json"
    spec = json.loads(config.read_text())
    moment_profile = functionals.moment_profile
    asked = []
    monkeypatch.setattr(functionals, "moment_profile",
                        lambda f, p, *rest: asked.append(len(p)) or moment_profile(f, p, *rest))
    assert cli.run(str(config), str(tmp_path)) == 0
    nu = PsiSpec.table(spec["nu"]["points"])
    assert 0 < sum(asked) <= 0.25 * len(spec["t_grid"]) * nu.samples[0].size


def test_sp_witness_bounded_and_positive():
    nu = PsiSpec.table({2.0: 1.0, 4.0: 1.0})
    rep = sp_witness(nu, SP_TIMES, SP_GRID)
    assert ratio(rep) < 3.0
    assert rep.grid_values.min() > 0.5 * rep.closed_values.min()
    assert rep.grid_values.min() > 0.25


def test_sp_witness_heat_moments_match_exact_law():
    # spot-check the grid channel against the exact evolved-gaussian moments
    f = gaussian_sample(SP_GRID, GaussianSpec(1.0, 1))
    for t in (4.0, 64.0):
        u = propagate(f, HEAT, t)
        for p in (2.0, 3.0, 4.0):
            assert lp_norm(u, p) == pytest.approx(
                GaussianSpec(1.0 + t, 1).lp(p), rel=1e-8
            )


def test_sp_witness_fractional_order_two():
    nu = PsiSpec.table({2.0: 1.0, 4.0: 1.0})
    rep = sp_witness(nu, [4.0, 16.0, 64.0, 256.0], SP_GRID, kind=fractional(2.0))
    assert rep.rel_gaps.max() < GAP_TOL
    assert ratio(rep) < 3.0


def test_sp_witness_degenerate_target():
    rep = sp_witness(PsiSpec.degenerate(2.0), SP_TIMES, SP_GRID)
    assert rep.rel_gaps.max() < GAP_TOL
    # Y = L_2: W = t^{1/2} |g_{1+t}|_2 / phi(L_2, t^{1/2}) = t^{1/4} |g_{1+t}|_2
    t = np.asarray(SP_TIMES)
    expected = t ** 0.25 * (4 * math.pi * (1 + t)) ** -0.25
    assert np.allclose(rep.closed_values, expected, rtol=1e-12)


def test_sp_witness_guards():
    nu = PsiSpec.table({2.0: 1.0, 4.0: 1.0})
    with pytest.raises(ValueError):
        sp_witness(nu, [4.0, 1e6], SP_GRID)  # outside the safe window
    with pytest.raises(ValueError, match="defined for t > 2"):
        sp_witness(nu, [1.0, 4.0, 16.0, 64.0], SP_GRID)
    with pytest.raises(ValueError):
        sp_witness(nu, SP_TIMES, SP_GRID, kind=fractional(1.5))
    with pytest.raises(ValueError, match="^nu: the witness requires a support above 1, got a = 1$"):
        sp_witness(PsiSpec.zeta(1.0, 2.0, 1.0, 1.0), SP_TIMES, SP_GRID)


def test_sp_witness_checks_nu_once_before_its_first_time(monkeypatch):
    names, check_covered = [], witness.check_covered
    monkeypatch.setattr(witness, "check_covered",
                        lambda psi, name: names.append(name) or check_covered(psi, name))
    sp_witness(PsiSpec.table({2.0: 1.0, 4.0: 1.0}), SP_TIMES, SP_GRID)
    assert names == ["nu"]
    monkeypatch.setattr(GaussianSpec, "evolve", lambda *a: pytest.fail("evolved"))
    with pytest.raises(spaces.CoverageError, match=r"^weight nu: profile grid does not cover"):
        sp_witness(PsiSpec.table({2.0: 1.0, 2.01: 1.0}), SP_TIMES, SP_GRID)


@pytest.mark.parametrize("grid, times", [(SR_GRID, SR_TIMES),
                                         (make_grid(2, 48.0, 256), [3.0, 4.0, 5.0, 7.0]),
                                         (make_grid(3, 24.0, 32), [2.5, 2.8, 3.1, 3.5])],
                         ids=["d1", "d2", "d3"])
def test_sr_witness_closed_channel_is_the_exact_sup_law(grid, times):
    d = grid.dim
    want = np.array([t ** (d / 2) * (2 * math.pi) ** (-d / 2) * (1 + t * t) ** (-d / 4)
                     for t in np.asarray(times, dtype=float)])
    closed = sr_witness(times, grid).closed_values
    assert np.max(np.abs(closed - want) / want) <= 1e-15


def test_sr_witness_two_channels_agree():
    rep = sr_witness(SR_TIMES, SR_GRID)
    assert rep.rel_gaps.max() < GAP_TOL


def test_sr_witness_flat_positive_limit():
    rep = sr_witness(SR_TIMES, SR_GRID)
    # closed form t^{1/2} (2 pi)^{-1/2} (1+t^2)^{-1/4} tends to (2 pi)^{-1/2}
    assert abs(fit_rate(rep.t_grid, rep.grid_values).slope) < 1e-3
    assert rep.grid_values.min() > 0.9 * (2 * math.pi) ** -0.5
    assert rep.grid_values.max() < (2 * math.pi) ** -0.5 * (1 + 1e-9)
    assert rep.grid_values.min() > 0.5 * rep.closed_values.min()


def test_sr_witness_guards():
    with pytest.raises(ValueError, match="defined for t > 2"):
        sr_witness([1.0, 16.0, 32.0, 64.0], SR_GRID)
    with pytest.raises(ValueError):
        sr_witness(np.geomspace(16.0, 1e7, 5), SR_GRID)


def test_moment_law_check_rows():
    rows = gaussian_moment_law_check([2.0, 4.0, INF], SR_TIMES, SR_GRID)
    assert len(rows) == 3
    for r, fitted, predicted in rows:
        inv_r = 0.0 if r == INF else 1.0 / r
        assert predicted == pytest.approx(-1.0 * (0.5 - inv_r))
        assert fitted == pytest.approx(predicted, abs=0.02)


def test_moment_law_check_guards():
    with pytest.raises(ValueError, match=r"^r_list\.0: the moment law holds for r in \(1, inf\]"):
        gaussian_moment_law_check([1.0], SR_TIMES, SR_GRID)


# Gaussian witnesses in d = 2, 3.  Under the Schrodinger flow the unit
# Gaussian needs h <= 0.375: its spectrum exp(-xi^2/2) at the Nyquist
# frequency pi/h is then below 1e-15 (at h = 0.75 the gap is 3e-5); the heat
# flow damps those modes, so the parabolic witness tolerates h = 0.75.
@pytest.mark.parametrize("d, L, n, times", [(2, 60.0, 256, [4.0, 16.0, 32.0, 64.0]),
                                            (3, 24.0, 64, [4.0, 6.0, 9.0, 12.0])], ids=["d2", "d3"])
def test_sp_witness_heat_in_higher_dimension(d, L, n, times):
    rep = sp_witness(PsiSpec.table({2.0: 1.0, 4.0: 1.0}), times, make_grid(d, L, n))
    assert rep.rel_gaps.max() < GAP_TOL


@pytest.mark.parametrize("d, L, n, times", [(2, 48.0, 256, [3.0, 4.0, 5.0, 7.0]),
                                            (3, 24.0, 128, [2.5, 2.8, 3.1, 3.5])], ids=["d2", "d3"])
def test_sr_witness_in_higher_dimension(d, L, n, times):
    rep = sr_witness(times, make_grid(d, L, n))
    assert rep.rel_gaps.max() < GAP_TOL


def test_moment_law_d3_matches_closed_form_slopes():
    # over t in (2, 4) the slope is still far from -d(1/2 - 1/r), so the
    # fitted slope is compared with the fit of the exact norms at those times
    t = np.array([2.5, 2.9, 3.3, 3.8])
    rows = gaussian_moment_law_check([4.0, INF], t, make_grid(3, 24.0, 128))
    for r, fitted, _ in rows:
        exact = fit_rate(t, [GaussianSpec(1.0 + 1j * ti, 3).lp(r) for ti in t]).slope
        assert abs(fitted - exact) < GAP_TOL * abs(exact)


def test_moment_law_holds_one_evolved_field_at_a_time():
    grid = make_grid(2, 48.0, 256)
    field_bytes = 16 * 256 ** 2

    def peak(t_grid):
        tracemalloc.start()
        try:
            gaussian_moment_law_check([2.0, 4.0, INF], t_grid, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # eight more times must not hold eight more complex fields
    assert peak(np.geomspace(3.0, 7.0, 12)) < peak(np.geomspace(3.0, 7.0, 4)) + 0.5 * field_bytes


@pytest.mark.parametrize("run", [
    lambda g, t: sr_witness(t, g),
    lambda g, t: gaussian_moment_law_check([2.0, 4.0, INF], t, g),
], ids=["sr_witness", "moment_law"])
def test_witness_drops_each_evolved_field_before_the_next(run):
    grid = make_grid(3, 24.0, 64)
    field_bytes = 16 * 64 ** 3
    tracemalloc.start()
    try:
        run(grid, [2.5, 3.0, 3.5, 3.8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the datum and one evolved field at a time; two evolved fields would reach 3 fields
    assert peak < 2.5 * field_bytes


def test_witness_report_is_its_four_arrays():
    names = ["t_grid", "grid_values", "closed_values", "rel_gaps"]
    assert [f.name for f in dataclasses.fields(WitnessReport)] == names
    rep = WitnessReport(*(np.ones(4) for _ in names))
    assert [n for n in dir(rep) if not n.startswith("_")] == sorted(names)


@pytest.mark.parametrize("sigma2", [1.0, 7.5, 1.0 + 40.0j])
@pytest.mark.parametrize("d", [1, 3])
def test_gaussian_gls_exact_of_a_degenerate_weight_is_the_lp_norm(sigma2, d):
    for s in (1.0, 2.5, INF):
        want = GaussianSpec(sigma2, d).lp(s)
        assert gaussian_gls_exact(GaussianSpec(sigma2, d), PsiSpec.degenerate(s)) == want


# (d, nu = zeta(a2, b2; alpha2, beta2)) of the Laplace-limit check
LAPLACE_ROWS = [(1, (3.0, 6.0, 1.0, 1.0)), (1, (3.0, 6.0, 2.0, 1.0)), (1, (2.0, INF, 1.0, -1.0)),
                (3, (3.0, 6.0, 1.0, 1.0)), (3, (2.0, 8.0, 0.5, 1.0))]


@pytest.mark.parametrize("v", [1e10, 1e30, 1e100, 1e150])
@pytest.mark.parametrize("d, zeta", LAPLACE_ROWS, ids=lambda x: str(x))
def test_gaussian_gls_exact_tends_to_its_laplace_limit(d, zeta, v):
    """||g_v||_{G(nu)} ~ |g_v|_a (2 alpha a^2 / (d e log v))^alpha as v -> inf.

    With s = p - a, log(|g_v|_p / |g_v|_a) = -(d/2) log(2 pi v) s / a^2 + O(s^2 log v + s),
    and alpha log s peaks against its linear term at s = 2 alpha a^2 / (d log(2 pi v)).
    The next term of log(exact / limit) is c / log v, with
    c = alpha (2 alpha a / d - 1 + log(a / (2 pi))) from log 2 pi in the variance, the
    s^2 term of 1/p, and the factor p^(-d/(2p)) of |g_v|_p.  The ratio must lie between
    1 and exp(2 c / log v): on the side of that term, and within twice its size."""
    a, b, alpha, beta = zeta
    log_v = math.log(v)
    limit = GaussianSpec(v, d).lp(a) * (2.0 * alpha * a * a / (d * math.e * log_v)) ** alpha
    exact = gaussian_gls_exact(GaussianSpec(v, d), PsiSpec.zeta(a, b, alpha, beta))
    c = alpha * (2.0 * alpha * a / d - 1.0 + math.log(a / (2.0 * math.pi)))
    lo, hi = sorted((1.0, math.exp(2.0 * c / log_v)))
    assert lo < exact / limit < hi


def family_bound(kind, d: int, psi: PsiSpec, nu: PsiSpec, t: float, ratios) -> float:
    """L(t) = max over sigma2 = ratio * t of ||g_sigma2 evolved to t||_nu / ||g_sigma2||_psi:
    a lower bound on the norm of the flow from G(psi) to G(nu), read off the exact Gaussians."""
    return max(gaussian_gls_exact(GaussianSpec(s2, d).evolve(kind, t), nu)
               / gaussian_gls_exact(GaussianSpec(s2, d), psi) for s2 in (ratios * t).tolist())


# (flow, source, psi's exponent, nu's exponent, predicted_rate's parameters)
CONTROL_ROWS = [(HEAT, "heat-lp", p, r, {"p": p, "r": r})
                for p, r in ((1.0, 2.0), (1.5, 3.0), (2.0, INF))] + [
               (SCHRODINGER, "schrodinger-lp", 1.0 / (1.0 - 1.0 / p), p, {"p": p})
               for p in (2.0, 4.0, 6.0, INF)]


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("kind, source, p, r, params", CONTROL_ROWS,
                         ids=[f"{row[1]}-{row[2]:g}-{row[3]:g}" for row in CONTROL_ROWS])
def test_the_gaussian_family_bound_has_the_predicted_lp_power(kind, source, p, r, params, d):
    # L(t) is self-similar in t over the sigma2 / t grid, so its power is exact up to rounding
    ratios = np.geomspace(1e-10, 1e4, 1401)
    psi, nu = PsiSpec.degenerate(p), PsiSpec.degenerate(r)
    lo, hi = (family_bound(kind, d, psi, nu, t, ratios) for t in (1e10, 1e30))
    power = math.log(hi / lo) / math.log(1e20)
    assert abs(power - predicted_rate(source, d=d, **params).power) < 1e-9


# (d, psi = zeta(a1, b1; alpha1, beta1), nu = zeta(a2, b2; alpha2, beta2)) of the heat flow
ZETA_FAMILY_ROWS = [(1, (1.2, 2.0, 1.0, 1.0), (3.0, 6.0, 1.0, 1.0)),
                    (1, (1.0, 2.0, 1.0, 1.0), (2.5, 8.0, 0.5, 1.0)),
                    (2, (1.0, 2.0, 1.0, 1.0), (2.5, 8.0, 0.5, 1.0)),
                    (1, (1.2, 2.5, 2.0, 1.0), (3.0, 6.0, 0.5, 1.0)),
                    (1, (1.2, 2.5, 0.0, 1.0), (3.0, 6.0, 2.0, 1.0))]


@pytest.mark.parametrize("d, zeta1, zeta2", ZETA_FAMILY_ROWS, ids=lambda x: str(x))
def test_the_gaussian_family_bound_has_the_log_power_alpha1_minus_alpha2(d, zeta1, zeta2):
    # With predicted_rate's power taken out, L(t) grows like (log t)^(alpha1 - alpha2): each
    # norm carries (c / log v)^alpha of its own weight.  predicted_rate's log power is
    # alpha2 - alpha1, the opposite sign; this checks the Gaussian family alone.
    (a1, _, alpha1, _), (a2, _, alpha2, _) = zeta1, zeta2
    power = predicted_rate("parabolic-zeta", d=d, a1=a1, a2=a2, alpha1=alpha1,
                           alpha2=alpha2).power
    ratios = np.geomspace(1e-8, 1e2, 201)
    lo, hi = (family_bound(HEAT, d, PsiSpec.zeta(*zeta1), PsiSpec.zeta(*zeta2), t, ratios)
              / t ** power for t in (1e100, 1e150))
    log_power = math.log(hi / lo) / math.log(math.log(1e150) / math.log(1e100))
    assert abs(log_power - (alpha1 - alpha2)) < 0.05
