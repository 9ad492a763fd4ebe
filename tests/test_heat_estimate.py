"""The upper side of the heat estimate, on arbitrary data.

L_1 -> G(nu): each L_p norm of T_t f = g_t * f is at most |f|_1 |g_t|_p (Minkowski), g_t
the heat kernel, a Gaussian of variance t.  The GLS norm is a sup of weighted L_p norms,
so ||T_t f||_{G(nu)} <= |f|_1 ||g_t||_{G(nu)} for every datum, with equality at a point
mass: on the grid, the one-node box.  Every time lies deep inside the heat window, where
wrap-around is far below rounding.

L_p -> L_r, r > p: Gaussian kernels have only Gaussian maximizers (Lieb, Invent. Math.
102, 1990), so |T_t f|_r <= C(t) |f|_p with C(t) = sup_s |g_(s+t)|_r / |g_s|_p, attained
by the Gaussian of variance s at the sup.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from strichartz_gls import (  # noqa: E402
    HEAT,
    GaussianSpec,
    GridFunction,
    PsiSpec,
    box_indicator,
    gaussian_gls_exact,
    gaussian_sample,
    lp_norm,
    make_grid,
    propagate,
    space_norm,
)

GRID = make_grid(1, 100.0, 4096)
TIMES = (3.0, 12.0, 40.0)
WEIGHTS = {
    "zeta-finite-b": PsiSpec.zeta(2.0, 6.0, 1.0, 1.0),
    "zeta-infinite-b": PsiSpec.zeta(1.5, math.inf, 0.5, -1.0),
    "table": PsiSpec.table({2: 1.0, 3: 0.5, 5: 2.0}),
}
_KERNEL_NORMS = {}


def kernel_norm(name: str, t: float) -> float:
    """||g_t||_{G(nu)} from the exact Gaussian moments, over the exponents nu samples."""
    if (name, t) not in _KERNEL_NORMS:
        _KERNEL_NORMS[name, t] = gaussian_gls_exact(GaussianSpec(t, 1), WEIGHTS[name])
    return _KERNEL_NORMS[name, t]


def ratio(f: GridFunction, name: str, t: float) -> float:
    """||T_t f||_{G(nu)} over its bound |f|_1 ||g_t||_{G(nu)}."""
    return space_norm(propagate(f, HEAT, t), WEIGHTS[name]) / (lp_norm(f, 1) * kernel_norm(name, t))


@st.composite
def data(draw, families=("gaussian", "box", "bumps")) -> GridFunction:
    """A Gaussian of variance 0.5 or 2, a box of 1, 8 or 64 nodes, a sum of four Gaussian
    bumps of either sign, at drawn centres and widths, or seeded white noise under a
    Gaussian envelope of drawn centre and width."""
    family = draw(st.sampled_from(families))
    if family == "gaussian":
        return gaussian_sample(GRID, GaussianSpec(draw(st.sampled_from([0.5, 2.0])), 1))
    if family == "box":
        return box_indicator(GRID, draw(st.sampled_from([1, 8, 64])))
    x = GRID.axis_coords()
    if family == "noise":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        c, w = draw(st.floats(-30.0, 30.0)), draw(st.floats(0.5, 100.0))
        envelope = np.exp(-(x - c) ** 2 / (2.0 * w))
        return GridFunction(GRID, rng.standard_normal(x.size) * envelope)
    values = np.zeros(x.size)
    for _ in range(4):
        c, w = draw(st.floats(-30.0, 30.0)), draw(st.floats(0.05, 4.0))
        amp = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
        values += amp * np.exp(-(x - c) ** 2 / (2.0 * w))
    return GridFunction(GRID, values)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(f=data(), name=st.sampled_from(sorted(WEIGHTS)), t=st.sampled_from(TIMES))
def test_heat_flow_from_l1_is_bounded_by_the_kernel_norm(f, name, t):
    assert ratio(f, name, t) <= 1.0 + 1e-12


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_the_one_node_box_attains_the_kernel_bound(name, t):
    assert abs(ratio(box_indicator(GRID, 1), name, t) - 1.0) <= 1e-12


# (p, r) of the L_p -> L_r checks, at one time
PAIRS = ((1.0, math.inf), (1.0, 2.0), (1.5, 3.0), (2.0, 4.0), (1.2, 6.0))
T_LP = 4.0
# rounding, and the periodic images of the flow: wrap-around below erfc(6 / sqrt 2)
LP_SLACK = 1e-12 + math.erfc(6.0 / math.sqrt(2.0))


def maximizer_variance(p: float, r: float, t: float) -> float:
    """The variance s at the sup over s > 0 of |g_(s+t)|_r / |g_s|_p in d = 1.

    log |g_s|_q = -(1 - 1/q) log(2 pi s) / 2 + const(q), so the log of the ratio is
    -(1 - 1/r) log(s + t) / 2 + (1 - 1/p) log s / 2 + const, stationary only at
    s = (1 - 1/p) t / (1/p - 1/r); for p = 1 that is the limit s -> 0."""
    return (1.0 - 1.0 / p) * t / (1.0 / p - 1.0 / r)


def lp_constant(p: float, r: float, t: float) -> float:
    """C(t) = sup_s |g_(s+t)|_r / |g_s|_p, from the exact Gaussian moments; for p = 1
    the sup is the limit s -> 0, where |g_s|_1 = 1: C(t) = |g_t|_r."""
    s = maximizer_variance(p, r, t)
    if s == 0.0:
        return GaussianSpec(t, 1).lp(r)
    return GaussianSpec(s + t, 1).lp(r) / GaussianSpec(s, 1).lp(p)


def lp_ratio(f: GridFunction, p: float, r: float) -> float:
    """|T_t f|_r / |f|_p over its bound C(t), at t = T_LP."""
    return lp_norm(propagate(f, HEAT, T_LP), r) / (lp_norm(f, p) * lp_constant(p, r, T_LP))


@pytest.mark.parametrize("p, r", PAIRS)
def test_lp_constant_is_the_sup_over_gaussian_variances(p, r):
    s = np.geomspace(1e-6, 1e6, 1201)
    ratios = [GaussianSpec(x + T_LP, 1).lp(r) / GaussianSpec(x, 1).lp(p) for x in s]
    assert max(ratios) <= lp_constant(p, r, T_LP) * (1.0 + 1e-12)
    assert max(ratios) >= lp_constant(p, r, T_LP) * (1.0 - 1e-3)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(f=data(("gaussian", "box", "bumps", "noise")), pair=st.sampled_from(PAIRS))
def test_heat_flow_from_lp_to_lr_is_bounded_by_the_gaussian_constant(f, pair):
    assert lp_ratio(f, *pair) <= 1.0 + LP_SLACK


@pytest.mark.parametrize("p, r", PAIRS)
def test_the_extremal_datum_attains_the_lp_constant(p, r):
    # the one-node box for p = 1, else the Gaussian of the maximizing variance
    s = maximizer_variance(p, r, T_LP)
    f = box_indicator(GRID, 1) if s == 0.0 else gaussian_sample(GRID, GaussianSpec(s, 1))
    assert abs(lp_ratio(f, p, r) - 1.0) <= 1e-12
