import functools
import math
import tracemalloc

import numpy as np
import pytest

from strichartz_gls import (
    INF,
    SCHRODINGER,
    GaussianSpec,
    GridFunction,
    box_indicator,
    box_measure,
    gaussian_lp_exact,
    gaussian_sample,
    lp_norm,
    make_grid,
    moment_profile,
    periodic_convolve,
    propagate,
)
from strichartz_gls.spaces import exponent_grid


def test_make_grid_spacing():
    g = make_grid(1, 40.0, 1024)
    assert g.spacing == pytest.approx(0.078125, abs=0)
    g2 = make_grid(2, 20.0, 256)
    assert g2.spacing == pytest.approx(0.15625, abs=0)
    assert g2.shape == (256, 256)


def test_make_grid_node_coords():
    g = make_grid(1, 4.0, 16)
    x = g.axis_coords()
    assert x[0] == -4.0
    assert np.allclose(np.diff(x), g.spacing)
    assert x[-1] == pytest.approx(4.0 - g.spacing)


@pytest.mark.parametrize("args", [
    (1, 10.0, 100),   # not a power of two
    (1, 10.0, 4),     # too few points
    (1, -1.0, 64),    # nonpositive extent
    (4, 10.0, 64),    # unsupported dimension
    (0, 10.0, 64),
])
def test_make_grid_rejects(args):
    with pytest.raises(ValueError):
        make_grid(*args)


def test_gaussian_peak_and_mass():
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    assert lp_norm(f, INF) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-12)
    assert lp_norm(f, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_symmetry_exact():
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(2.5, 1))
    v = f.values
    # node k and node N-k sit at mirrored coordinates
    assert np.array_equal(v[1:], v[:0:-1])


def test_gaussian_rejects_small_grid():
    g = make_grid(1, 10.0, 64)
    with pytest.raises(ValueError):
        gaussian_sample(g, GaussianSpec(9.0, 1))


def test_gaussian_rejects_bad_variance():
    with pytest.raises(ValueError):
        GaussianSpec(-1.0, 1)
    with pytest.raises(ValueError):
        GaussianSpec(-0.5 + 2j, 1)


def test_gaussian_2d_mass():
    g = make_grid(2, 16.0, 256)
    f = gaussian_sample(g, GaussianSpec(1.0, 2))
    assert lp_norm(f, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_indicator_norms_exact():
    g = make_grid(1, 32.0, 1024)  # h = 0.0625, 8 nodes -> measure 0.5
    f = box_indicator(g, 8)
    delta = box_measure(g, 8)
    assert delta == 0.5
    assert lp_norm(f, 2.0) == pytest.approx(0.5 ** 0.5, rel=1e-14)
    for p in (1.0, 3.0, 7.5):
        assert lp_norm(f, p) == pytest.approx(delta ** (1.0 / p), rel=1e-14)
    assert lp_norm(f, INF) == 1.0


def test_lp_norm_gaussian_values():
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    assert lp_norm(f, 2.0) == pytest.approx((4 * math.pi) ** -0.25, rel=1e-12)
    assert lp_norm(f, INF) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-12)


def test_lp_norm_rejects_small_exponent():
    g = make_grid(1, 32.0, 64)
    f = box_indicator(g, 4)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_gaussian_lp_exact_basics():
    assert gaussian_lp_exact(1.0, 1, 1.0) == pytest.approx(1.0)
    assert gaussian_lp_exact(1.0, 1, 2.0) == pytest.approx((4 * math.pi) ** -0.25, rel=1e-14)
    assert gaussian_lp_exact(1.0, 1, INF) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-14)
    with pytest.raises(ValueError):
        gaussian_lp_exact(-1.0, 1, 2.0)


def test_gaussian_lp_exact_scaling_law():
    # |g_s|_q / |g_1|_q = sigma^{-d(1 - 1/q)} with sigma = sqrt(s)
    for q in (1.0, 1.5, 2.0, 4.0, INF):
        inv_q = 0.0 if q == INF else 1.0 / q
        for s in (0.25, 4.0, 9.0):
            ratio = gaussian_lp_exact(s, 1, q) / gaussian_lp_exact(1.0, 1, q)
            assert ratio == pytest.approx(math.sqrt(s) ** (-(1.0 - inv_q)), rel=1e-12)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, INF])
def test_gaussian_lp_exact_complex_vs_quadrature(q):
    g = make_grid(1, 40.0, 2048)
    s2 = 1.0 + 2.0j
    f = gaussian_sample(g, GaussianSpec(s2, 1))
    assert lp_norm(f, q) == pytest.approx(gaussian_lp_exact(s2, 1, q), rel=1e-10)


def test_moment_profile_indicator_law():
    g = make_grid(1, 32.0, 1024)
    f = box_indicator(g, 8)
    p = [1.0, 2.0, 4.0, INF]
    prof = moment_profile(f, p, "indicator")
    expected = [0.5, 0.5 ** 0.5, 0.5 ** 0.25, 1.0]
    assert np.allclose(prof.values, expected, rtol=1e-14)
    assert prof.provenance == "indicator"


def test_moment_profile_gaussian_values():
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    prof = moment_profile(f, [1.0, 2.0, INF])
    assert prof.values == pytest.approx(
        [1.0, (4 * math.pi) ** -0.25, (2 * math.pi) ** -0.5], rel=1e-10
    )


def _power_sum_profile(f, p_grid):
    """The reference: one power sum over every node per exponent."""
    a = np.abs(f.values)
    m = a.max()
    return [m if p == INF else m * (np.sum((a / m) ** p) * f.grid.cell_volume) ** (1.0 / p)
            for p in p_grid]


DENSE_P = exponent_grid(1.0, 20.0, per_decade=64, min_offset=1e-3)


@pytest.mark.parametrize("make_f, p_grid", [
    (lambda: gaussian_sample(make_grid(1, 40.0, 2048), GaussianSpec(1.0, 1)), DENSE_P),
    # 99% of the nodes underflow to exactly 0
    (lambda: gaussian_sample(make_grid(1, 4096.0, 65536), GaussianSpec(1.0, 1)), DENSE_P),
    (lambda: box_indicator(make_grid(1, 32.0, 1024), 100), DENSE_P),
    (lambda: gaussian_sample(make_grid(3, 20.0, 32), GaussianSpec(2.0, 3)), DENSE_P),
    (lambda: gaussian_sample(make_grid(2, 20.0, 128), GaussianSpec(1.0, 2)),
     np.append(exponent_grid(2.0, INF, per_decade=64, min_offset=1e-3), INF)),
    # one block spans exponents whose underflow cut-offs are far apart
    (lambda: gaussian_sample(make_grid(1, 40.0, 2048), GaussianSpec(1.0, 1)),
     [1.0, 4.0, 64.0, 512.0]),
], ids=["dense-gaussian", "wide-box", "box-indicator", "d3-N32", "ends-in-inf",
        "sparse-exponents"])
def test_moment_profile_matches_power_sum(make_f, p_grid):
    f = make_f()
    values = moment_profile(f, p_grid).values
    assert np.allclose(values, _power_sum_profile(f, p_grid), rtol=1e-13, atol=0)


def test_one_exponent_lp_norm_is_the_power_sum():
    f = gaussian_sample(make_grid(3, 20.0, 32), GaussianSpec(2.0, 3))
    for p in (1.0, 2.0, 3.7):
        assert lp_norm(f, p) == _power_sum_profile(f, [p])[0]


def test_lp_norm_inf_allocates_no_scaled_copy():
    f = gaussian_sample(make_grid(3, 20.0, 64), GaussianSpec(2.0, 3))
    abs_bytes = f.values.size * 8
    tracemalloc.start()
    try:
        lp_norm(f, INF)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * abs_bytes


def test_moment_profile_rejects_bad_grids():
    g = make_grid(1, 32.0, 64)
    f = box_indicator(g, 4)
    with pytest.raises(ValueError):
        moment_profile(f, [])
    with pytest.raises(ValueError):
        moment_profile(f, [2.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        moment_profile(f, [0.5, 2.0])


def _random_function(rng, grid):
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return GridFunction(grid, v)


def test_moment_profile_log_convexity():
    g = make_grid(1, 32.0, 512)
    rng = np.random.default_rng(7)
    fns = [
        gaussian_sample(g, GaussianSpec(1.0, 1)),
        box_indicator(g, 16),
        gaussian_sample(g, GaussianSpec(2.0, 1)) + box_indicator(g, 8),
        _random_function(rng, g),
    ]
    p = np.linspace(1.0, 12.0, 45)
    for f in fns:
        h = moment_profile(f, p).values
        for i in range(0, len(p) - 2, 3):
            pa, pq, pr = p[i], p[i + 1], p[i + 2]
            theta = (1.0 / pq - 1.0 / pr) / (1.0 / pa - 1.0 / pr)
            bound = h[i] ** theta * h[i + 2] ** (1.0 - theta)
            assert h[i + 1] <= bound * (1.0 + 1e-9)


def test_norm_axioms_random_pairs():
    g = make_grid(1, 16.0, 256)
    rng = np.random.default_rng(11)
    for _ in range(30):
        f = _random_function(rng, g)
        h = _random_function(rng, g)
        c = complex(rng.standard_normal(), rng.standard_normal())
        p = float(rng.uniform(1.0, 6.0))
        assert lp_norm(c * f, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12)
        assert lp_norm(f + h, p) <= lp_norm(f, p) + lp_norm(h, p) + 1e-12


def test_convolution_inequality_random_pairs():
    # 1 + 1/r = 1/p + 1/q: the convolution norm is controlled by the factors
    g = make_grid(1, 16.0, 256)
    rng = np.random.default_rng(12345)
    violations = 0
    for _ in range(100):
        f = _random_function(rng, g)
        h = _random_function(rng, g)
        p = float(rng.uniform(1.0, 2.0))
        q = float(rng.uniform(1.0, 2.0))
        inv_r = 1.0 / p + 1.0 / q - 1.0
        r = INF if inv_r <= 1e-12 else 1.0 / inv_r
        conv = periodic_convolve(f, h)
        lhs = lp_norm(conv, r)
        rhs = lp_norm(f, p) * lp_norm(h, q)
        if lhs > rhs + 1e-9:
            violations += 1
    assert violations == 0


def test_gridfunction_requires_matching_grid():
    a = box_indicator(make_grid(1, 16.0, 256), 4)
    b = box_indicator(make_grid(1, 16.0, 512), 4)
    with pytest.raises(ValueError):
        _ = a + b


def test_gridfunction_rejects_nonfinite():
    g = make_grid(1, 16.0, 64)
    v = np.zeros(64, dtype=complex)
    v[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, v)


def test_zero_function_norms():
    g = make_grid(1, 16.0, 64)
    z = GridFunction(g, np.zeros(64, dtype=complex))
    for p in (1.0, 2.0, INF):
        assert lp_norm(z, p) == 0.0
    # exponents are checked before the all-zero shortcut
    with pytest.raises(ValueError):
        lp_norm(z, 0.5)
    with pytest.raises(ValueError):
        moment_profile(z, [0.5, 2.0])


# ------------------------------------------------------------ tensor-product fields

@pytest.mark.parametrize("make_f", [
    lambda: gaussian_sample(make_grid(2, 12.0, 64), GaussianSpec(1.0, 2)),
    lambda: gaussian_sample(make_grid(3, 12.0, 32), GaussianSpec(1.0 + 0.5j, 3)),
    lambda: box_indicator(make_grid(3, 12.0, 32), 8),
    lambda: propagate(gaussian_sample(make_grid(3, 12.0, 32), GaussianSpec(1.0, 3)),
                      SCHRODINGER, 2.0),
], ids=["gaussian-d2", "complex-gaussian-d3", "indicator-d3", "propagated-d3"])
def test_values_are_the_outer_product_of_the_factors(make_f):
    f = make_f()
    assert len(f.factors) == f.grid.dim
    assert np.array_equal(f.values, functools.reduce(np.multiply.outer, f.factors))
    assert all(not v.flags.writeable for v in f.factors)


def test_initial_data_share_their_axis_factors():
    g = make_grid(3, 12.0, 32)
    f = gaussian_sample(g, GaussianSpec(1.0, 3))
    assert f.factors[1] is f.factors[2] and f.factors[0] is not f.factors[1]
    box = box_indicator(g, 8)
    assert box.factors[0] is box.factors[1] is box.factors[2]
    assert box._factor_spectra[0] is box._factor_spectra[2]


def test_gaussian_sample_is_the_full_grid_formula():
    g = make_grid(3, 12.0, 32)
    x2 = sum(np.meshgrid(*[g.axis_coords() ** 2] * 3, indexing="ij"))
    for s2 in (1.0, 1.0 + 0.5j):
        ref = (2.0 * np.pi * s2) ** -1.5 * np.exp(-x2 / (2.0 * s2))
        got = gaussian_sample(g, GaussianSpec(s2, 3)).values
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_gridfunction_rejects_bad_factors():
    g = make_grid(2, 16.0, 64)
    e = np.ones(64)
    with pytest.raises(ValueError, match="2 arrays of 64"):
        GridFunction(g, factors=(e,))
    with pytest.raises(ValueError, match="2 arrays of 64"):
        GridFunction(g, factors=(e, np.ones(32)))
    with pytest.raises(ValueError, match="not both"):
        GridFunction(g, np.ones((64, 64)), factors=(e, e))
    bad = e.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        GridFunction(g, factors=(e, bad))
    bad[3] = np.inf
    # (inf + 0j) * (1 + 0j) has the imaginary part inf * 0
    with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
        GridFunction(g, factors=(bad, e))


def _isfinite_shapes(monkeypatch) -> list:
    """The shape of every array np.isfinite is called on from here on."""
    shapes = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a, *args, **kw: shapes.append(np.shape(a))
                        or isfinite(a, *args, **kw))
    return shapes


def test_overflowing_factor_product_is_rejected(monkeypatch):
    g = make_grid(2, 16.0, 64)
    big = np.full(64, 1e200)
    shapes = _isfinite_shapes(monkeypatch)
    # the bound fails, and the node-by-node check sees the overflowed outer product
    with pytest.raises(ValueError, match="values contain non-finite entries"), \
            np.errstate(over="ignore"):
        GridFunction(g, factors=(big, big.astype(complex)))
    assert shapes == [(64, 64)]


def test_factor_product_near_the_bound_takes_the_node_check(monkeypatch):
    g = make_grid(2, 16.0, 64)
    shapes = _isfinite_shapes(monkeypatch)
    # 1e150 * 1e150 is below half the largest float: accepted from the factors alone
    f = GridFunction(g, factors=(np.full(64, 1e150), np.full(64, 1e150)))
    assert shapes == []
    # 1e154 * 1e154 = 1e308 is finite but above half the largest float
    f = GridFunction(g, factors=(np.full(64, 1e154), np.full(64, 1e154)))
    assert shapes == [(64, 64)]
    assert np.all(f.values == 1e154 * 1e154)


@pytest.mark.parametrize("make_f", [
    lambda g: gaussian_sample(g, GaussianSpec(1.0, 1)),
    lambda g: gaussian_sample(g, GaussianSpec(1.0 + 0.5j, 1)),
    lambda g: box_indicator(g, 100),
    lambda g: propagate(gaussian_sample(g, GaussianSpec(1.0, 1)), SCHRODINGER, 3.0),
], ids=["gaussian", "complex-gaussian", "indicator", "propagated"])
def test_one_dimensional_factored_profile_is_bit_identical(make_f):
    f = make_f(make_grid(1, 40.0, 2048))
    assert f.factors is not None
    full = GridFunction(f.grid, f.values)
    for p_grid in (np.append(DENSE_P, INF), [1.0], [3.7], [INF]):
        assert np.array_equal(moment_profile(f, p_grid).values,
                              moment_profile(full, p_grid).values)


def test_underflowed_factored_field_has_the_zero_profile():
    g = make_grid(2, 16.0, 64)
    e = gaussian_sample(make_grid(1, 16.0, 64), GaussianSpec(1.0, 1)).values * 1e-170
    f = GridFunction(g, factors=(e, e))
    assert not np.any(f.values)  # every node is below 1e-340
    for p_grid in (np.append(DENSE_P, INF), [2.0], [INF]):
        assert np.array_equal(moment_profile(f, p_grid).values, np.zeros(len(p_grid)))


def test_factored_profile_touches_only_axis_arrays(monkeypatch):
    f = propagate(gaussian_sample(make_grid(3, 16.0, 64), GaussianSpec(1.0, 3)),
                  SCHRODINGER, 2.0)
    sizes = []
    for name in ("abs", "log"):
        fn = getattr(np, name)
        monkeypatch.setattr(np, name, lambda a, *args, _fn=fn, **kw:
                            sizes.append(np.size(a)) or _fn(a, *args, **kw))
    for p_grid in (np.append(DENSE_P, INF), [2.0], [INF]):
        moment_profile(f, p_grid)
    # |f_j| and the log of its nonzero part, each once per distinct factor and branch
    assert sizes and max(sizes) <= 64
