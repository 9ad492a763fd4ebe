import math
import warnings

import numpy as np
import pytest

from strichartz_gls import (
    INF,
    GaussianSpec,
    GridFunction,
    PsiSpec,
    box_indicator,
    exponent_grid,
    fundamental_asymptotic,
    fundamental_gls,
    gaussian_sample,
    make_grid,
    mixed_norm,
    moment_profile,
    space_norm,
    zeta_crossover,
    zeta_eval,
)
from strichartz_gls import spaces
from strichartz_gls.spaces import CoverageError, _bounded_sup, _weighted_sup

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_crossover_symmetric():
    assert zeta_crossover(1.0, 3.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_crossover_terminates_on_wide_interval():
    # Floats near the root 500001 are 5.8e-11 apart, wider than the bisection tolerance.
    assert zeta_crossover(1.0, 1e6 + 1.0, 1.0, 1.0) == pytest.approx(500001.0, rel=1e-12)


def test_crossover_golden_ratio():
    # (h - 1)^1 = h^{-1} on (1, inf) has the golden ratio as its root
    h = zeta_crossover(1.0, INF, 1.0, -1.0)
    assert h == pytest.approx(GOLDEN, abs=1e-9)


def test_crossover_weighted():
    h = zeta_crossover(2.0, 4.0, 2.0, 2.0)
    assert h == pytest.approx(3.0, abs=1e-12)
    h2 = zeta_crossover(1.0, 5.0, 1.0, 2.0)
    assert (h2 - 1.0) == pytest.approx((5.0 - h2) ** 2, abs=1e-9)


def test_crossover_alpha_zero_conventions():
    assert zeta_crossover(1.0, 3.0, 0.0, 1.0) == pytest.approx(2.0)
    assert zeta_crossover(1.0, INF, 0.0, -1.0) == 1.0
    assert zeta_crossover(1.0, 3.0, 0.0, 0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        zeta_crossover(1.5, 2.0, 0.0, 1.0)  # b - 1 not interior


def test_crossover_rejects_bad_interval():
    with pytest.raises(ValueError):
        zeta_crossover(3.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        zeta_crossover(1.0, 1.0, 1.0, 1.0)


def test_steep_crossover_compares_its_sides_in_logs():
    # (b - a)^500 = 4.5^500 overflows a float at the left end of the bracket
    h = zeta_crossover(1.5, 6.0, 1.0, 500.0)
    assert h == pytest.approx(4.99749, abs=1e-5)
    assert abs(math.log(h - 1.5) - 500.0 * math.log(6.0 - h)) < 1e-9
    assert PsiSpec.zeta(1.5, 6.0, 1.0, 500.0).crossover == h


def test_zeta_eval_values():
    zp = PsiSpec.zeta(1.0, 3.0, 1.0, 1.0)
    assert zp.crossover == pytest.approx(2.0)
    assert zeta_eval(zp, 1.5) == pytest.approx(0.5)
    assert zeta_eval(zp, 2.5) == pytest.approx(0.5)
    zp2 = PsiSpec.zeta(1.0, 2.0, 1.0, 1.0)
    assert zeta_eval(zp2, 1.1) == pytest.approx(0.1, rel=1e-12)


def test_zeta_continuity_at_crossover():
    for (a, b, al, be) in [(1.0, 3.0, 1.0, 1.0), (1.0, 5.0, 1.0, 2.0),
                           (1.0, INF, 1.0, -1.0), (2.0, INF, 0.5, -2.0)]:
        zp = PsiSpec.zeta(a, b, al, be)
        h = zp.crossover
        eps = 1e-9
        left = zeta_eval(zp, h - eps)
        right = zeta_eval(zp, h + eps)
        assert abs(left - right) < 1e-7 * max(left, right, 1e-30)


def test_exponent_grid_coverage():
    p = exponent_grid(1.0, 2.0)
    assert p[0] > 1.0 and p[-1] < 2.0
    assert np.all(np.diff(p) > 0)
    assert p[0] - 1.0 <= 2e-6
    assert 2.0 - p[-1] <= 2e-6
    # at least 64 points per decade of offset from the left endpoint
    decades = math.log10((p[-1] - 1.0) / (p[0] - 1.0))
    assert len(p) >= 64 * decades


@pytest.mark.parametrize("a, b", [(1e308, INF), (1e307, INF), (1.0, 1e308)])
def test_exponent_grid_too_wide_is_a_value_error(a, b):
    # the cap 8a (or the span / min_offset) overflows: this used to raise OverflowError
    with pytest.raises(ValueError, match="too wide to grid"):
        exponent_grid(a, b)


@pytest.mark.parametrize("points, match", [
    ({"2": 1.0, "inf": 2.0}, "exponents must be finite"),
    ({"2": 1.0, "1e400": 2.0}, "exponents must be finite"),
    ({"nan": 1.0, "2": 1.0, "3": 1.0}, "exponents must be finite"),
    ({"2": 1.0, "2.0": 5.0, "3": 1.0}, "strictly increasing, got 2 then 2"),
    ({2.0: 1.0, "2": 5.0, 3.0: 1.0}, "strictly increasing, got 2 then 2"),
], ids=["inf", "overflow", "nan", "two-spellings", "number-and-string"])
def test_table_rejects_an_infinite_or_repeated_exponent(points, match):
    # a repeated exponent used to give a weight that depends on the keys' order
    with pytest.raises(ValueError, match=match):
        PsiSpec.table(points)


def test_samples_reject_an_uncovered_weight_at_every_use():
    psi = PsiSpec.table({1.0: 1.0, 1.01: 1.0})
    for _ in range(2):
        with pytest.raises(CoverageError, match=r"does not cover \(1\.0, 1\.01\) densely"):
            psi.samples
    p, w = PsiSpec.degenerate(1.0).samples
    assert p.tolist() == [1.0] and w.tolist() == [1.0]


def test_gls_norm_gaussian_exact_channel():
    # psi == 1 on (1.5, 4): norm is the sup of |f|_p over that range,
    # attained at p -> 1.5 for a standard gaussian
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    psi = PsiSpec.table({1.5: 1.0, 4.0: 1.0})
    val = space_norm(f, psi)
    # |g|_{1.5} = (2 pi)^{-1/6} 1.5^{-1/3}
    expected = (2 * math.pi) ** (-0.5 * (1 - 1 / 1.5)) * 1.5 ** (-1.0 / 3.0)
    assert val <= expected * (1 + 1e-9)
    assert val == pytest.approx(expected, rel=1e-3)


def test_gls_norm_indicator():
    g = make_grid(1, 32.0, 1024)
    f = box_indicator(g, 4)
    psi = PsiSpec.table({1.5: 1.0, 4.0: 1.0})
    # sup of delta^{1/p} over (1.5, 4) at delta = 1/4 is at p = 4
    assert space_norm(f, psi) == pytest.approx(0.25 ** 0.25, rel=1e-4)


def test_gls_norm_zero_function():
    g = make_grid(1, 32.0, 256)
    f = box_indicator(g, 4) + (-1.0) * box_indicator(g, 4)
    psi = PsiSpec.zeta(1.0, 2.0, 1.0, 1.0)
    assert space_norm(f, psi) == 0.0


def test_gls_norm_degenerate_matches_lp():
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    psi = PsiSpec.degenerate(2.0)
    assert space_norm(f, psi) == pytest.approx((4 * math.pi) ** -0.25, rel=1e-12)


def test_gls_norm_degenerate_is_the_profile_entry_bit_for_bit():
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    for p in (1.0, 2.0, 3.5, 8.0):
        h = moment_profile(f, [p]).values[0]
        assert space_norm(f, PsiSpec.degenerate(p)).hex() == float(h).hex()
    assert space_norm(GridFunction(g, np.zeros(1024)), PsiSpec.degenerate(4.0)) == 0.0


def test_gls_norm_degenerate_at_inf_reads_the_inf_entry():
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    prof = moment_profile(f, [1.0, 2.0, INF])
    assert space_norm(f, PsiSpec.degenerate(INF)) == prof.values[-1]
    assert space_norm(f, PsiSpec.degenerate(INF)) == moment_profile(f, [INF]).values[0]


def test_gls_norm_scaling_axiom():
    g = make_grid(1, 32.0, 512)
    f = box_indicator(g, 16)
    psi = PsiSpec.zeta(1.0, 3.0, 1.0, 1.0)
    base = space_norm(f, psi)
    assert space_norm(3.0 * f, psi) == pytest.approx(3.0 * base, rel=1e-12)
    h = gaussian_sample(g, GaussianSpec(1.0, 1))
    assert space_norm(f + h, psi) <= space_norm(f, psi) + space_norm(h, psi) + 1e-12


def test_gls_norm_monotone_in_psi():
    # pointwise larger psi gives a smaller norm
    g = make_grid(1, 32.0, 512)
    f = box_indicator(g, 16)
    lo = PsiSpec.table({1.5: 1.0, 4.0: 1.0})
    hi = PsiSpec.table({1.5: 2.0, 4.0: 2.0})
    assert space_norm(f, hi) == pytest.approx(0.5 * space_norm(f, lo), rel=1e-9)


# frozen against an independent brute-force maximizer (2e7-point dense
# sampling of delta^(1/p) zeta(p)); agreement there was ~1e-15 relative
FROZEN_FUNDAMENTAL = [
    # (a, b, alpha, beta, delta, value)
    (1.0, 2.0, 1.0, 1.0, 1e-6, 9.374153571053337e-05),
    (1.0, 2.0, 1.0, 1.0, 1e-2, 2.3211698375190215e-02),
    (1.0, 2.0, 1.0, 1.0, 1e4, 4.517702633173189e+02),
]


@pytest.mark.parametrize("a,b,al,be,delta,value", FROZEN_FUNDAMENTAL)
def test_fundamental_frozen_values(a, b, al, be, delta, value):
    psi = PsiSpec.zeta(a, b, al, be)
    assert fundamental_gls(psi, delta) == pytest.approx(value, rel=1e-9)


def test_fundamental_degenerate_closed_form():
    psi = PsiSpec.degenerate(2.0)
    assert fundamental_gls(psi, 0.09) == pytest.approx(0.3, rel=0)


def test_fundamental_monotone_in_delta():
    psi = PsiSpec.zeta(1.0, 2.0, 1.0, 1.0)
    deltas = np.geomspace(1e-8, 1e4, 25)
    vals = [fundamental_gls(psi, d) for d in deltas]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def _fundamental_exact(psi: PsiSpec, delta: float) -> float:
    """exp max_p F(p), F(p) = log delta / p - log psi(p), over the candidates of each
    smooth piece of log psi: its stationary points, its kinks (the crossover or the
    table knots) and the ends where psi is finite (alpha = 0, beta = 0, a table)."""
    L = math.log(delta)
    if psi.variant == "table":  # log psi is linear on each segment: F' = 0 at sqrt(-L / c)
        p, lv = psi.table_p.tolist(), np.log(psi.table_v).tolist()
        cands = list(zip(p, lv))
        for p0, p1, v0, v1 in zip(p, p[1:], lv, lv[1:]):
            c = (v1 - v0) / (p1 - p0)
            if c * L < 0 and p0 < (r := math.sqrt(-L / c)) < p1:
                cands.append((r, v0 + c * (r - p0)))
        return math.exp(max(L / x - y for x, y in cands))
    a, b, al, be, h = psi.a, psi.b, psi.alpha, psi.beta, psi.crossover

    def below(x):  # log zeta below the crossover
        return al * math.log(x - a) if al else 0.0

    def above(x):
        return be * math.log(x if b == INF else b - x) if be else 0.0

    def roots(k, c):  # of k p^2 - L p + L c = 0
        disc = L * L - 4.0 * k * L * c
        return [(L + s * math.sqrt(disc)) / (2.0 * k) for s in (1, -1)] if disc >= 0 else []

    cands = [(h, above(h))] + ([(h, below(h))] if h > a else [])  # F = L / p + log zeta
    cands += [(a, 0.0)] if al == 0 else [(x, below(x)) for x in roots(al, a) if a < x < h]
    if b == INF:
        cands += [(x, above(x)) for x in [L / be] if h < x]
    else:
        cands += [(b, 0.0)] if be == 0 else [(x, above(x)) for x in roots(be, b) if h < x < b]
    return math.exp(max(L / x + lz for x, lz in cands))


CLOSED_FORM_WEIGHTS = {
    "zeta-finite-b": PsiSpec.zeta(1.0, 2.0, 1.0, 1.0),
    "zeta-finite-b-steep": PsiSpec.zeta(1.5, 6.0, 1.0, 2.0),
    "zeta-finite-b-wide": PsiSpec.zeta(2.0, 4.0, 2.0, 0.5),
    "zeta-finite-b-alpha0": PsiSpec.zeta(1.0, 3.0, 0.0, 1.0),
    "zeta-finite-b-beta0": PsiSpec.zeta(1.0, 3.0, 1.0, 0.0),
    "zeta-infinite-b": PsiSpec.zeta(1.0, INF, 1.0, -1.0),
    "zeta-infinite-b-a2": PsiSpec.zeta(2.0, INF, 0.5, -2.0),
    "zeta-infinite-b-alpha2": PsiSpec.zeta(1.5, INF, 2.0, -1.0),
    "zeta-infinite-b-alpha0": PsiSpec.zeta(1.0, INF, 0.0, -1.0),
    # |beta| < 1/8: the argmax log(delta) / beta lies past 8(|log delta| + 1)
    "zeta-infinite-b-shallow": PsiSpec.zeta(1.0, INF, 1.0, -0.1),
    "zeta-infinite-b-shallower": PsiSpec.zeta(1.0, INF, 1.0, -0.05),
    "table-two-points": PsiSpec.table({1.0: 2.0, 8.0: 1.0}),
    "table-dip": PsiSpec.table({1.5: 1.0, 2.5: 0.5, 4.0: 2.0}),
    "table-deep-dip": PsiSpec.table({2.0: 1.0, 3.0: 0.25, 4.0: 2.0}),
}


@pytest.mark.parametrize("name", CLOSED_FORM_WEIGHTS)
def test_fundamental_matches_its_closed_form(name):
    # the sampled sup with golden-section refinement against the exact sup; it samples
    # (a, b) only, so it can approach but not exceed the exact value
    psi = CLOSED_FORM_WEIGHTS[name]
    for delta in np.geomspace(1e-12, 1e12, 49).tolist():
        got, exact = fundamental_gls(psi, delta), _fundamental_exact(psi, delta)
        assert abs(got - exact) <= 1e-10 * exact, (delta, got, exact)
        assert got <= exact * (1.0 + 1e-13), (delta, got, exact)


@pytest.mark.parametrize("make_psi, builds", [
    (lambda: PsiSpec.zeta(1.0, 2.0, 1.0, 1.0), 1),
    (lambda: PsiSpec.table({1.5: 1.0, 3.0: 2.0}), 1),
    # b = inf: one grid per change of the exponent cap, max(100, 8a, 8(|log delta| + 1));
    # of these deltas only 1e-6 reaches past 100
    (lambda: PsiSpec.zeta(1.0, INF, 1.0, -1.0), 2),
], ids=["zeta-finite-b", "table", "zeta-infinite-b"])
def test_fundamental_builds_a_finite_b_grid_once(make_psi, builds, monkeypatch):
    deltas = np.geomspace(1e-6, 1e4, 7)
    fresh = [fundamental_gls(make_psi(), d) for d in deltas]
    grid, calls = spaces.exponent_grid, []
    monkeypatch.setattr(spaces, "exponent_grid", lambda *a, **k: calls.append(a) or grid(*a, **k))
    psi = make_psi()
    assert [fundamental_gls(psi, d) for d in deltas] == fresh
    assert len(calls) == builds


def test_fundamental_rejects_bad_delta():
    psi = PsiSpec.zeta(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        fundamental_gls(psi, 0.0)
    with pytest.raises(ValueError):
        fundamental_gls(psi, -1.0)


def test_asymptotic_small_delta_finite_b():
    psi = PsiSpec.zeta(1.0, 2.0, 1.0, 1.0)
    beta, b = 1.0, 2.0
    pref = (beta * b * b / math.e) ** beta
    deltas = [1e-6, 1e-8, 1e-10]
    ratios = []
    for d in deltas:
        asym = pref * d ** (1.0 / b) * abs(math.log(d)) ** (-beta)
        fv = fundamental_asymptotic(psi, d, regime="small")
        assert fv == pytest.approx(asym, rel=1e-12)
        ratios.append(fundamental_gls(psi, d) / fv)
    # relative drift between consecutive delta decades shrinks below 10%
    drifts = [abs(r2 / r1 - 1.0) for r1, r2 in zip(ratios, ratios[1:])]
    assert all(d2 < d1 for d1, d2 in zip(drifts, drifts[1:]))
    assert drifts[-1] < 0.10


def test_asymptotic_small_delta_infinite_b():
    psi = PsiSpec.zeta(1.0, INF, 1.0, -1.0)
    fv = fundamental_asymptotic(psi, 1e-8, regime="small")
    # |beta|^{|beta|} |log delta|^{-|beta|} with beta = -1
    assert fv == pytest.approx(1.0 / abs(math.log(1e-8)), rel=1e-12)
    ratios = [
        fundamental_gls(psi, d) / fundamental_asymptotic(psi, d, regime="small")
        for d in (1e-8, 1e-12, 1e-16)
    ]
    drifts = [abs(r2 / r1 - 1.0) for r1, r2 in zip(ratios, ratios[1:])]
    assert drifts[-1] < 0.10


def test_asymptotic_small_delta_steep_infinite_b_in_logs():
    # m^m overflows for m = |beta| = 200, yet (m / |log delta|)^m is about 2.2e-108
    fv = fundamental_asymptotic(PsiSpec.zeta(1.0, INF, 1.0, -200.0), 1e-300, regime="small")
    assert fv == pytest.approx((200.0 / abs(math.log(1e-300))) ** 200.0, rel=1e-12)
    # here the value itself, about 10^31700, is beyond the float range
    with pytest.raises(OverflowError, match="small-delta asymptotic overflows"):
        fundamental_asymptotic(PsiSpec.zeta(1.0, INF, 1.0, -1e4), 1e-3, regime="small")


def test_asymptotic_large_delta():
    psi = PsiSpec.zeta(1.0, INF, 1.0, -1.0)
    a, alpha = 1.0, 1.0
    pref = (a * a * alpha / math.e) ** alpha
    fv = fundamental_asymptotic(psi, 1e6, regime="large")
    assert fv == pytest.approx(pref * 1e6 * math.log(1e6) ** -1.0, rel=1e-12)
    ratios = [
        fundamental_gls(psi, d) / fundamental_asymptotic(psi, d, regime="large")
        for d in (1e6, 1e9, 1e12)
    ]
    drifts = [abs(r2 / r1 - 1.0) for r1, r2 in zip(ratios, ratios[1:])]
    assert drifts[-1] < 0.10


def test_asymptotic_large_delta_worked_value():
    zp = PsiSpec.zeta(2.0, INF, 1.0, -1.0)
    fv = fundamental_asymptotic(zp, math.exp(20.0), regime="large")
    # (a^2 alpha / e)^alpha delta^{1/a} (log delta)^{-a} at delta = e^20
    assert fv == pytest.approx((4.0 / math.e) * math.exp(10.0) / 400.0, rel=1e-12)
    assert fv == pytest.approx(81.03083927575385, rel=1e-12)


def test_asymptotic_regime_guards():
    zp = PsiSpec.zeta(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        fundamental_asymptotic(zp, 10.0, regime="small")
    with pytest.raises(ValueError):
        fundamental_asymptotic(zp, 1e-4, regime="large")
    with pytest.raises(ValueError):
        fundamental_asymptotic(zp, 1e-8, regime="sideways")
    with pytest.raises(ValueError):
        # finite b has no large-delta closed form
        fundamental_asymptotic(zp, 1e6, regime="large")
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError, match=r"needs 0 < delta < e\^-2, got"):
            fundamental_asymptotic(zp, delta, regime="small")


def test_moment_norm_consistency():
    # space_norm of an indicator agrees with a direct sup over the profile
    g = make_grid(1, 32.0, 512)
    f = box_indicator(g, 32)
    psi = PsiSpec.zeta(1.0, 3.0, 1.0, 1.0)
    val = space_norm(f, psi)
    p = exponent_grid(1.0, 3.0)
    prof = moment_profile(f, p)
    direct = max(v / psi.psi(pp) for pp, v in zip(p, prof.values))
    assert val == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------- array-valued weights

ARRAY_WEIGHTS = {
    "zeta-finite-b": (PsiSpec.zeta(1.0, 3.0, 1.0, 2.0), exponent_grid(1.0, 3.0)),
    "zeta-infinite-b": (PsiSpec.zeta(1.0, INF, 1.0, -1.0), exponent_grid(1.0, INF)),
    "table": (PsiSpec.table({2.0: 1.0, 3.0: 0.25, 4.0: 2.0}), exponent_grid(2.0, 4.0)),
    "degenerate": (PsiSpec.degenerate(2.0), np.array([1.5, 2.0, 3.0, INF])),
}


@pytest.mark.parametrize("name", ARRAY_WEIGHTS)
def test_psi_on_array_matches_float_calls(name):
    psi, p = ARRAY_WEIGHTS[name]
    got = psi.psi(p)
    want = np.array([psi.psi(float(x)) for x in p])
    assert isinstance(got, np.ndarray) and got.shape == p.shape
    # numpy's array power may differ from libm's pow in the last bit
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", ARRAY_WEIGHTS)
def test_psi_float_in_gives_float_out(name):
    psi, p = ARRAY_WEIGHTS[name]
    assert type(psi.psi(float(p[p.size // 2]))) is float
    assert type(zeta_eval(PsiSpec.zeta(1.0, 3.0, 1.0, 2.0), 2.5)) is float


@pytest.mark.parametrize("name", ["zeta-finite-b", "zeta-infinite-b", "table"])
def test_psi_array_with_one_point_outside_raises(name):
    psi, p = ARRAY_WEIGHTS[name]
    for bad in (psi.a, psi.a - 0.5, math.nan) + ((psi.b,) if psi.b != INF else ()):
        q = p.copy()
        q[q.size // 2] = bad
        with pytest.raises(ValueError, match="outside"):
            psi.psi(q)
    with pytest.raises(ValueError, match="outside"):
        zeta_eval(PsiSpec.zeta(1.0, 3.0, 1.0, 2.0), np.array([1.5, 3.0]))


@pytest.mark.parametrize("h, w, want", [
    ([0.0, 1.0], [0.0, 2.0], 0.5),         # a zero h is skipped before its weight is looked at
    ([5.0, 1.0], [INF, 2.0], 0.5),         # an infinite weight is skipped
    ([INF, 1.0], [INF, 2.0], 0.5),         # ... even under an infinite h
    ([1.0, 1.0], [0.0, 2.0], INF),         # a zero weight with h > 0 gives inf
    ([INF, 1.0], [3.0, 2.0], INF),         # an infinite h with a finite weight gives inf
    ([0.0, 3.0], [1.0, INF], 0.0),         # no entry left
    ([], [], 0.0),
], ids=["zero-h", "inf-w", "inf-h-inf-w", "zero-w", "inf-h", "none-left", "empty"])
def test_weighted_sup_rules(h, w, want):
    got = _weighted_sup(np.array(h, dtype=float), np.array(w, dtype=float))
    assert type(got) is float and got == want


def test_bounded_sup_evaluates_a_nan_bound():
    # round 1 takes p[0], p[16] and p[32]; between h = 0 and h = inf the chord of
    # p log h is -inf + inf = NaN, so p[20] must be evaluated, not pruned
    p = np.arange(1.0, 34.0)
    h = np.ones(p.size)
    h[16], h[20], h[32] = 0.0, 5.0, INF
    w = np.ones(p.size)
    w[32] = INF
    assert _bounded_sup(lambda q: h[(q - 1.0).astype(int)], p, w)[0] == 5.0 == _weighted_sup(h, w)


@pytest.mark.parametrize("name", ["zeta-finite-b", "zeta-infinite-b", "table"])
@pytest.mark.parametrize("data", ["gaussian", "indicator", "zero"])
def test_space_norm_matches_full_profile_sup(name, data):
    psi = ARRAY_WEIGHTS[name][0]
    g = make_grid(1, 32.0, 1024)
    f = {"gaussian": gaussian_sample(g, GaussianSpec(1.0, 1)),
         "indicator": box_indicator(g, 16),
         "zero": GridFunction(g, np.zeros(1024))}[data]
    want = _weighted_sup(moment_profile(f, psi.samples[0]).values, psi.samples[1])
    got = space_norm(f, psi)
    if data == "zero":
        assert got == want == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_mixed_norm_degenerate_is_h_of_s():
    t = np.geomspace(0.1, 10.0, 16)
    assert mixed_norm(t, np.zeros_like(t), PsiSpec.degenerate(2.0)) == 0.0
    y = 1.0 / (1.0 + t)
    want = float(np.trapezoid(y ** 2.0, t)) ** 0.5
    assert mixed_norm(t, y, PsiSpec.degenerate(2.0)) == want


# zeta(1, inf, 200, -1): (p - 1)^200 overflows above the crossover, where it is
# not the weight; zeta(1, inf, 1, -200): p^-200 is subnormal or 0 for large p
@pytest.mark.parametrize("psi", [PsiSpec.zeta(1.0, INF, 200.0, -1.0),
                                 PsiSpec.zeta(1.0, INF, 1.0, -200.0)], ids=["overflow", "subnormal"])
def test_extreme_zeta_weights_raise_no_warning(psi):
    f = gaussian_sample(make_grid(1, 40.0, 1024), GaussianSpec(1.0, 1))
    t = np.geomspace(0.1, 10.0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in (1e-8, 0.5, 1e4):
            assert fundamental_gls(psi, delta) > 0
        assert math.isfinite(space_norm(f, psi))
        assert math.isfinite(mixed_norm(t, t / (1.0 + t), psi))


# The rectangle rule is exact for a node-aligned box, |1_B|_p = |B|^(1/p), so the norm of
# the box is the fundamental function at |B|.  For these weights and |B| < 1 the argmax
# log|B|/beta lies past the crossover, from 7 to 374 here, and for the smallest boxes past
# the last sample, 100: the b = inf tail.  What is left is the sampling error of a smooth
# maximum at 64 exponents per decade, |beta| (10^(1/64) - 1)^2 / 8 <= 1.7e-5.
@pytest.mark.parametrize("beta", [-0.1, -0.05])
@pytest.mark.parametrize("d, N", [(1, 64), (1, 1024), (2, 64), (2, 1024), (3, 64), (3, 1024)])
def test_box_norm_is_the_fundamental_function(beta, d, N):
    psi = PsiSpec.zeta(1.0, INF, 1.0, beta)
    g = make_grid(d, 1.0, N)
    for m in (1, 4, 16):
        phi = fundamental_gls(psi, (m * g.spacing) ** d)
        assert space_norm(box_indicator(g, m), psi) == pytest.approx(phi, rel=2e-5, abs=0.0)


def test_constant_curve_mixed_norm_is_the_fundamental_function():
    # the trapezoid rule is exact for a constant c on (t_0, T), so the mixed norm is
    # c phi(T - t_0); the argmax 276 lies in the b = inf tail, where c^q overflows
    psi = PsiSpec.zeta(1.0, INF, 1.0, -0.05)
    t = np.geomspace(1e-12, 1e-6, 2048)
    for c in (5.0, 1e3):
        want = c * fundamental_gls(psi, t[-1] - t[0])
        assert mixed_norm(t, np.full(t.size, c), psi) == pytest.approx(want, rel=2e-5, abs=0.0)


def test_flat_infinite_b_tail_reaches_the_sup_at_infinity():
    # psi = p^1e-300 is 1.0 in floats past the crossover 2, and |1_B|_p = |B|^(1/p) rises
    # to 1: the tail extends until |B|^(1/P) rounds to 1, which is then the sup
    psi = PsiSpec.zeta(1.0, INF, 1.0, -1e-300)
    assert space_norm(box_indicator(make_grid(1, 1.0, 64), 1), psi) == 1.0
