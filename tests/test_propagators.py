import math

import numpy as np
import pytest

from strichartz_gls import (
    HEAT,
    INF,
    SCHRODINGER,
    GaussianSpec,
    GridFunction,
    PropagatorKind,
    PsiSpec,
    box_indicator,
    check_window,
    fractional,
    gaussian_moment_law_check,
    gaussian_sample,
    laplacian_propagate,
    lp_norm,
    make_grid,
    moment_profile,
    propagate,
    safe_time_bound,
    sr_witness,
    w_sp_curve,
)
from strichartz_gls import propagators
from strichartz_gls.propagators import _axis_symbol, _multiplier
from strichartz_gls.spaces import exponent_grid


def _setup(L=40.0, n=1024, sigma2=1.0):
    g = make_grid(1, L, n)
    f = gaussian_sample(g, GaussianSpec(sigma2, 1))
    return g, f


@pytest.mark.parametrize(
    "d, L, n", [(1, 40.0, 1024), (2, 20.0, 128), (3, 16.0, 64)], ids=["d1", "d2", "d3"]
)
def test_heat_gaussian_exactness(d, L, n):
    g = make_grid(d, L, n)
    f = gaussian_sample(g, GaussianSpec(1.0, d))
    t = 4.0
    assert t <= safe_time_bound(g, HEAT, 1.0)
    u = propagate(f, HEAT, t)
    exact = gaussian_sample(g, GaussianSpec(1.0 + t, d))
    num = lp_norm(u + (-1.0) * exact, INF)
    den = lp_norm(exact, INF)
    assert num / den < 1e-10


@pytest.mark.parametrize(
    "d, L, n, t",
    [(1, 60.0, 2048, 3.0), (2, 24.0, 128, 3.0), (3, 12.0, 64, 1.0)],
    ids=["d1", "d2", "d3"],
)
def test_schrodinger_gaussian_exactness(d, L, n, t):
    g = make_grid(d, L, n)
    f = gaussian_sample(g, GaussianSpec(1.0, d))
    assert t <= safe_time_bound(g, SCHRODINGER, 1.0)
    u = propagate(f, SCHRODINGER, t)
    exact = gaussian_sample(g, GaussianSpec(1.0, d).evolve(SCHRODINGER, t))
    num = lp_norm(u + (-1.0) * exact, INF)
    assert num / lp_norm(exact, INF) < 1e-10


def test_heat_semigroup():
    g, f = _setup()
    u1 = propagate(propagate(f, HEAT, 1.5), HEAT, 2.5)
    u2 = propagate(f, HEAT, 4.0)
    assert lp_norm(u1 + (-1.0) * u2, INF) < 1e-12


def test_fractional_semigroup():
    kind = fractional(1.5)
    g, f = _setup()
    u1 = propagate(propagate(f, kind, 1.0), kind, 2.0)
    u2 = propagate(f, kind, 3.0)
    assert lp_norm(u1 + (-1.0) * u2, INF) < 1e-12


def test_schrodinger_unitary_and_reversible():
    g, f = _setup(L=60.0, n=2048)
    u = propagate(f, SCHRODINGER, 2.0)
    assert lp_norm(u, 2.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)
    back = propagate(u, SCHRODINGER, -2.0)
    assert lp_norm(back + (-1.0) * f, INF) < 1e-10


def test_heat_positivity_contraction_mass():
    g, f = _setup()
    u = propagate(f, HEAT, 2.0)
    assert np.all(u.values.real > -1e-15)
    assert np.max(np.abs(u.values.imag)) < 1e-15
    for p in (1.0, 2.0, INF):
        assert lp_norm(u, p) <= lp_norm(f, p) * (1 + 1e-12)
    assert lp_norm(u, 1.0) == pytest.approx(lp_norm(f, 1.0), rel=1e-12)


def test_fractional_two_matches_heat():
    # S_2(t) = T_{2t} holds exactly at the multiplier level
    g, f = _setup()
    u1 = propagate(f, fractional(2.0), 1.2)
    u2 = propagate(f, HEAT, 2.4)
    assert np.array_equal(u1.values, u2.values)


def test_propagate_time_zero_identity():
    g, f = _setup()
    u = propagate(f, HEAT, 0.0)
    assert np.array_equal(u.values, f.values)
    assert u is not f


@pytest.mark.parametrize("kind", [HEAT, SCHRODINGER, fractional(1.5)],
                         ids=["heat", "schrodinger", "fractional1.5"])
def test_propagate_time_zero_keeps_the_factors(kind):
    f = gaussian_sample(make_grid(3, 12.0, 32), GaussianSpec(1.0 + 0.5j, 3))
    u = propagate(f, kind, 0.0)
    assert u is not f and u.factors is not None and "values" not in vars(u)
    assert all(np.array_equal(a, b) for a, b in zip(u.factors, f.factors))
    assert np.array_equal(u.values, f.values)


@pytest.mark.parametrize("kind", [HEAT, SCHRODINGER, fractional(1.5)],
                         ids=["heat", "schrodinger", "fractional1.5"])
def test_propagate_time_zero_shares_the_values(kind):
    f = gaussian_sample(make_grid(2, 12.0, 32), GaussianSpec(1.0 + 0.5j, 2))
    full = GridFunction(f.grid, f.values)
    u = propagate(full, kind, 0.0)
    # values are read-only, so the identity flow copies none of them
    assert u is not full and u.factors is None and u.values is full.values


def test_propagate_rejects_negative_time_for_dissipative():
    g, f = _setup()
    with pytest.raises(ValueError):
        propagate(f, fractional(1.5), -1.0)
    # the flow, its exact Gaussian evolution and its window state one backward-time rule
    messages = set()
    for refuse in (lambda: propagate(f, HEAT, -1.0),
                   lambda: GaussianSpec(1.0, 1).evolve(HEAT, -1.0),
                   lambda: check_window([-1.0], g, HEAT, name="t")):
        with pytest.raises(ValueError) as e:
            refuse()
        messages.add(str(e.value))
    assert messages == {"t holds the negative time -1: only the schrodinger flow runs backward, "
                        "not heat"}


def test_fractional_rejects_bad_alpha():
    with pytest.raises(ValueError):
        fractional(0.0)
    with pytest.raises(ValueError):
        fractional(-1.0)


@pytest.mark.parametrize("kind, same, order, rate", [
    (HEAT, PropagatorKind("heat"), 2.0, 0.5),
    (SCHRODINGER, PropagatorKind("schrodinger"), 2.0, 0.5j),
    (fractional(1.5), PropagatorKind("fractional", 1.5), 1.5, 1.0),
    (fractional(2.0), PropagatorKind("fractional", 2.0), 2.0, 1.0)],
    ids=["heat", "schrodinger", "fractional1.5", "fractional2.0"])
def test_each_flow_is_one_record_of_its_order_and_rate(kind, same, order, rate):
    assert kind == same and (kind.order, kind.rate) == (order, rate)
    with pytest.raises(TypeError):  # set from the name, never given
        PropagatorKind(kind.kind, kind.alpha, order, rate)
    with pytest.raises(AttributeError):
        kind.rate = 1.0


@pytest.mark.parametrize("args, match", [
    (("bogus",), "unknown propagator kind 'bogus'"),
    (("heat", 1.5), "alpha is only meaningful for the fractional kind"),
    (("schrodinger", 2.0), "alpha is only meaningful for the fractional kind"),
    (("fractional", 2.5), r"fractional order must lie in \(0, 2\], got 2.5"),
    (("fractional", math.nan), r"fractional order must lie in \(0, 2\], got nan"),
    (("fractional",), r"fractional order must lie in \(0, 2\], got None")],
    ids=["unknown", "heat-alpha", "schrodinger-alpha", "fractional-2.5", "fractional-nan",
         "fractional-bare"])
def test_the_record_refuses_an_inconsistent_flow(args, match):
    with pytest.raises(ValueError, match=match):
        PropagatorKind(*args)


def test_exact_gaussian_evolution_specs():
    g = GaussianSpec(1.0, 1)
    assert g.evolve(HEAT, 3.0).sigma2 == 4.0
    assert g.evolve(SCHRODINGER, 3.0).sigma2 == 1.0 + 3.0j
    # S_2(t) = T_2t: order 2 doubles the heat variance increment
    assert g.evolve(fractional(2.0), 3.0).sigma2 == 7.0
    with pytest.raises(ValueError):
        g.evolve(fractional(2.0), -1.0)
    with pytest.raises(ValueError):
        g.evolve(fractional(1.5), 3.0)


def test_schrodinger_sup_norm_law():
    # |U_t g_1|_inf = (2 pi)^{-d/2} (1 + t^2)^{-d/4}
    g, f = _setup(L=80.0, n=4096)
    for t in (1.0, 4.0, 8.0):
        u = propagate(f, SCHRODINGER, t)
        expected = (2 * math.pi) ** -0.5 * (1 + t * t) ** -0.25
        assert lp_norm(u, INF) == pytest.approx(expected, rel=1e-9)


def test_schrodinger_lq_matches_complex_variance_formula():
    g, f = _setup(L=80.0, n=4096)
    t = 5.0
    u = propagate(f, SCHRODINGER, t)
    for q in (2.0, 3.0, INF):
        assert lp_norm(u, q) == pytest.approx(
            GaussianSpec(1.0 + 1j * t, 1).lp(q), rel=1e-9
        )


def test_laplacian_propagate_linearity():
    g, f = _setup()
    h = gaussian_sample(g, GaussianSpec(2.0, 1))
    t = 2.0
    lhs = laplacian_propagate(f + 2.0 * h, 1.5, t)
    rhs = laplacian_propagate(f, 1.5, t) + 2.0 * laplacian_propagate(h, 1.5, t)
    assert lp_norm(lhs + (-1.0) * rhs, INF) < 1e-12


def test_laplacian_propagate_alpha_two_analytic():
    # Delta applied to a gaussian of variance v: (x^2/v^2 - 1/v) g_v
    g = make_grid(1, 60.0, 4096)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    t = 3.0
    u = laplacian_propagate(f, 2.0, t)
    v = 1.0 + 2.0 * t
    x = g.axis_coords()
    gv = gaussian_sample(g, GaussianSpec(v, 1)).values
    expected = (x * x / v ** 2 - 1.0 / v) * gv
    assert np.max(np.abs(u.values - expected)) < 1e-8


def test_laplacian_propagate_rejects_nonpositive_time():
    g, f = _setup()
    with pytest.raises(ValueError):
        laplacian_propagate(f, 2.0, 0.0)


def test_safe_time_bound_values():
    g = make_grid(1, 60.0, 1024)
    w = 10.0
    assert safe_time_bound(g, HEAT, 1.0) == pytest.approx(w * w - 1.0)
    assert safe_time_bound(g, SCHRODINGER, 1.0) == pytest.approx(
        math.sqrt((w * w - 1.0) * 1.0)
    )
    assert safe_time_bound(g, fractional(2.0), 1.0) == pytest.approx((w * w - 1.0) / 2.0)
    assert safe_time_bound(g, fractional(1.5), 1.0) == pytest.approx(w ** 1.5)


def test_check_window():
    g = make_grid(1, 60.0, 1024)
    check_window([4.0, 99.0], g, HEAT)
    with pytest.raises(ValueError, match="t_grid.*safe"):
        check_window([4.0, 100.0], g, HEAT)
    # a wider initial Gaussian leaves less room
    with pytest.raises(ValueError, match="safe"):
        check_window([4.0, 99.0], g, HEAT, sigma2_real=2.0)
    # the largest |t| is bounded, and only schrodinger takes a negative time
    g = make_grid(1, 16.0, 256)  # schrodinger's safe bound is 2.47
    check_window([-2.0, 2.0], g, SCHRODINGER)
    with pytest.raises(ValueError, match=r"^t_grid .*\|min t\| = 1000 > safe bound 2\.47"):
        check_window([-1000.0, 2.0], g, SCHRODINGER)
    with pytest.raises(ValueError, match=r"^t .*max t = 1000 > safe bound 6\.11"):
        check_window([1000.0], g, HEAT, name="t")
    for kind in (HEAT, fractional(1.5)):
        with pytest.raises(ValueError, match="^t_grid holds the negative time -1"):
            check_window([-1.0, 2.0], g, kind)


@pytest.mark.parametrize("kind, t_grid, match", [
    (HEAT, [3.0, math.nan], "^t_grid holds the non-finite time nan$"),
    (fractional(1.5), [math.nan], "^t_grid holds the non-finite time nan$"),
    (SCHRODINGER, [math.nan], "^t_grid holds the non-finite time nan$"),
    (SCHRODINGER, [-1.0, math.nan], "^t_grid holds the non-finite time nan$"),
    (HEAT, [-INF, 2.0], "^t_grid holds the non-finite time -inf$"),
    (SCHRODINGER, [-INF, 2.0], "^t_grid holds the non-finite time -inf$")],
    ids=["heat", "fractional", "schrodinger", "schrodinger-negative", "heat-minus-inf",
         "schrodinger-minus-inf"])
def test_a_nan_time_fails_the_window(kind, t_grid, match):
    # NaN used to pass both comparisons, t < 0 and max(t_max, -t_min) > bound; then it was
    # called negative for heat, and -inf was negative or past the window
    with pytest.raises(ValueError, match=match):
        check_window(t_grid, make_grid(1, 16.0, 256), kind)


def test_a_nan_time_is_refused_before_the_flow_builds_anything(monkeypatch):
    # propagate(f, HEAT, nan) used to build the evolved field, then fail on its finiteness
    monkeypatch.setattr(propagators, "_apply_multiplier", lambda *a: pytest.fail("applied"))
    f = gaussian_sample(make_grid(2, 12.0, 32), GaussianSpec(1.0, 2))
    for field in (f, GridFunction(f.grid, f.values)):
        with pytest.raises(ValueError, match="^t holds the non-finite time nan$"):
            propagate(field, HEAT, math.nan)


@pytest.mark.parametrize("t", [INF, -INF, math.nan], ids=["inf", "minus-inf", "nan"])
@pytest.mark.parametrize("kind", [HEAT, SCHRODINGER, fractional(1.5), fractional(2.0)],
                         ids=["heat", "schrodinger", "fractional1.5", "fractional2.0"])
def test_every_flow_refuses_a_non_finite_time(kind, t):
    # these used to raise a RuntimeWarning in the symbol, return a NaN variance, call a
    # NaN negative or, for laplacian_propagate, refuse it as t <= 0
    f = gaussian_sample(make_grid(1, 40.0, 64), GaussianSpec(1.0, 1))
    calls = [lambda: propagate(f, kind, t)]
    if kind.order == 2:
        calls.append(lambda: GaussianSpec(1.0, 1).evolve(kind, t))
    if kind.alpha is not None:
        calls.append(lambda: laplacian_propagate(f, kind.alpha, t))
    for call in calls:
        with pytest.raises(ValueError, match=f"^t holds the non-finite time {t:g}$"):
            call()


SYMBOLS = {
    "heat": (HEAT, lambda k2, t: np.exp(-t * k2 / 2.0)),
    "schrodinger": (SCHRODINGER, lambda k2, t: np.exp(-1j * t * k2 / 2.0)),
    "fractional1.5": (fractional(1.5), lambda k2, t: np.exp(-t * k2 ** 0.75)),
    "fractional2.0": (fractional(2.0), lambda k2, t: np.exp(-t * k2)),
}


@pytest.mark.parametrize("sigma2", [1.0, 1.0 + 0.5j], ids=["real", "complex"])
@pytest.mark.parametrize("name", sorted(SYMBOLS))
@pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (3, 32)], ids=["d1", "d2", "d3"])
def test_multiplier_matches_full_grid_symbol(d, n, name, sigma2):
    # reference: the symbol of ||xi||^2 over all N^d nodes, forward transform per call
    kind, symbol = SYMBOLS[name]
    g = make_grid(d, 12.0, n)
    f = gaussian_sample(g, GaussianSpec(sigma2, d))
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=g.spacing)
    k2 = sum(np.meshgrid(*[xi ** 2] * d, indexing="ij"))
    t = 1.7
    ref = np.fft.ifftn(symbol(k2, t) * np.fft.fftn(f.values))
    u = propagate(f, kind, t).values
    assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(u))


@pytest.mark.parametrize("sweep", ["sr_witness", "w_sp_curve", "moment_law"])
def test_sweep_transforms_its_initial_datum_once(sweep, monkeypatch):
    g = make_grid(1, 60.0, 512)
    times = [3.0, 4.0, 6.0, 8.0]
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda a, *args, **kw: calls.append(a.shape)
                        or fftn(a, *args, **kw))
    if sweep == "sr_witness":
        sr_witness(times, g)
    elif sweep == "w_sp_curve":
        f = gaussian_sample(g, GaussianSpec(1.0, 1))
        w_sp_curve(f, PsiSpec.zeta(1.0, 2.0, 1.0, 1.0), PsiSpec.zeta(3.0, 6.0, 1.0, 1.0), times)
    else:
        gaussian_moment_law_check([2.0, 4.0, INF], times, g)
    assert calls == [g.shape]


def test_grid_function_values_are_read_only():
    g, f = _setup()
    with pytest.raises(ValueError):
        f.values[0] = 1
    with pytest.raises(ValueError):
        f.spectrum[0] = 1
    u = propagate(f, SCHRODINGER, 2.0)
    with pytest.raises(ValueError):
        u.values[0] = 1
    with pytest.raises(ValueError):
        u.factors[0][0] = 1


# ------------------------------------------------------------ tensor-product fields

PRODUCT_FLOWS = {"heat": HEAT, "schrodinger": SCHRODINGER, "fractional2.0": fractional(2.0)}
SIGMA2 = {"real": 1.0, "complex": 1.0 + 0.5j}


def _initial(data, d, n):
    g = make_grid(d, 12.0, n)
    if data == "indicator":
        return box_indicator(g, n // 4)
    return gaussian_sample(g, GaussianSpec(SIGMA2[data], d))


@pytest.mark.parametrize("data", ["real", "complex", "indicator"])
@pytest.mark.parametrize("name", sorted(PRODUCT_FLOWS))
@pytest.mark.parametrize("d, n", [(2, 64), (3, 32)], ids=["d2", "d3"])
def test_factored_path_matches_full_grid_path(d, n, name, data):
    f = _initial(data, d, n)
    assert f.factors is not None
    u = propagate(f, PRODUCT_FLOWS[name], 1.7)
    assert u.factors is not None
    full = propagate(GridFunction(f.grid, f.values), PRODUCT_FLOWS[name], 1.7)
    assert full.factors is None
    assert np.max(np.abs(u.values - full.values)) <= 1e-13 * np.max(np.abs(full.values))


PROFILE_GRIDS = {"dense": np.append(exponent_grid(1.0, 20.0, per_decade=64, min_offset=1e-3),
                                     INF),
                 "p1": [1.0], "p3.7": [3.7], "inf": [INF]}


@pytest.mark.parametrize("p_name", sorted(PROFILE_GRIDS))
@pytest.mark.parametrize("data", ["real", "complex", "indicator"])
@pytest.mark.parametrize("name", sorted(PRODUCT_FLOWS))
@pytest.mark.parametrize("d, n", [(2, 64), (3, 32)], ids=["d2", "d3"])
def test_factored_profile_matches_the_node_profile(d, n, name, data, p_name):
    # the product of the factors' sums against the sums over the same values node by node
    u = propagate(_initial(data, d, n), PRODUCT_FLOWS[name], 1.7)
    assert u.factors is not None
    p_grid = PROFILE_GRIDS[p_name]
    got = moment_profile(u, p_grid).values
    ref = moment_profile(GridFunction(u.grid, u.values), p_grid).values
    assert np.allclose(got, ref, rtol=1e-13, atol=0)


def test_unfactored_input_and_nonproduct_flow_take_the_full_path():
    g = make_grid(2, 12.0, 32)
    f = gaussian_sample(g, GaussianSpec(1.0, 2))
    h = box_indicator(g, 8)
    assert (f + h).factors is None
    assert propagate(f + h, HEAT, 1.0).factors is None
    # ||xi||^1.5 is not a sum over the axes, so exp(-t ||xi||^1.5) is no product
    u = propagate(f, fractional(1.5), 1.0)
    assert u.factors is None
    ref = propagate(GridFunction(g, f.values), fractional(1.5), 1.0)
    assert np.array_equal(u.values, ref.values)


def test_factored_propagate_takes_no_full_grid_transform(monkeypatch):
    g = make_grid(3, 16.0, 64)
    f = gaussian_sample(g, GaussianSpec(1.0, 3))
    shapes = {"fftn": [], "ifftn": []}
    for name, seen in shapes.items():
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, _fn=fn, _seen=seen, **kw:
                            _seen.append(np.shape(a)) or _fn(a, *args, **kw))
    for t in (1.0, 2.0):
        propagate(f, SCHRODINGER, t)
    # amp * e and e, the factor the other two axes share: two forward transforms, taken
    # once for f, and two inverse transforms per time
    assert shapes == {"fftn": [(64,)] * 2, "ifftn": [(64,)] * 4}


@pytest.mark.parametrize("data", ["real", "complex", "indicator"])
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_one_dimensional_propagate_is_the_full_grid_computation(name, data):
    # d = 1: the symbol over all N frequencies times fftn(values), then ifftn, bit for bit
    kind, symbol = SYMBOLS[name]
    g = make_grid(1, 12.0, 512)
    f = _initial(data, 1, 512)
    if data != "indicator":
        s2 = complex(SIGMA2[data])
        ref_f = (2.0 * np.pi * s2) ** -0.5 * np.exp(-g.axis_coords() ** 2 / (2.0 * s2))
        assert np.array_equal(f.values, ref_f)
    xi2 = (2.0 * np.pi * np.fft.fftfreq(512, d=g.spacing)) ** 2
    for t in (0.3, 2.5):
        ref = np.fft.ifftn(symbol(xi2, t) * np.fft.fftn(f.values))
        assert np.array_equal(propagate(f, kind, t).values, ref)


@pytest.mark.parametrize("n", [128, 8192, 65536])
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_mirrored_axis_symbol_is_the_full_symbol(name, n):
    kind, symbol = SYMBOLS[name]
    g = make_grid(1, 4096.0, n)
    xi2 = (2.0 * np.pi * np.fft.fftfreq(n, d=g.spacing)) ** 2
    for t in (0.3, 16.0, 37.7, 256.0):
        assert np.array_equal(_axis_symbol(g, kind, t), symbol(xi2, t))


def test_full_grid_multiplier_is_the_outer_product_of_the_axis_symbol():
    g = make_grid(3, 12.0, 16)
    m = _axis_symbol(g, SCHRODINGER, 1.3)
    assert np.array_equal(_multiplier(g, SCHRODINGER, 1.3),
                          np.multiply.outer(np.multiply.outer(m, m), m))
    assert _axis_symbol(g, fractional(1.5), 1.3) is None
