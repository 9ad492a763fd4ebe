"""The L_1 -> G(nu) side of the heat estimate, on arbitrary data.

Each L_p norm of T_t f = g_t * f is at most |f|_1 |g_t|_p (Minkowski), g_t the heat
kernel, a Gaussian of variance t.  The GLS norm is a sup of weighted L_p norms, so
||T_t f||_{G(nu)} <= |f|_1 ||g_t||_{G(nu)} for every datum, with equality at a point
mass: on the grid, the one-node box.  Every time lies deep inside the heat window, where
wrap-around is far below rounding.
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
    gaussian_lp_exact,
    gaussian_sample,
    lp_norm,
    make_grid,
    propagate,
    space_norm,
)
from strichartz_gls.spaces import _gls_sup  # noqa: E402

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
        _KERNEL_NORMS[name, t] = _gls_sup(
            lambda q: np.array([gaussian_lp_exact(t, 1, x) for x in q]), WEIGHTS[name])
    return _KERNEL_NORMS[name, t]


def ratio(f: GridFunction, name: str, t: float) -> float:
    """||T_t f||_{G(nu)} over its bound |f|_1 ||g_t||_{G(nu)}."""
    return space_norm(propagate(f, HEAT, t), WEIGHTS[name]) / (lp_norm(f, 1) * kernel_norm(name, t))


@st.composite
def data(draw) -> GridFunction:
    """A Gaussian of variance 0.5 or 2, a box of 1, 8 or 64 nodes, or a sum of four
    Gaussian bumps of either sign, at drawn centres and widths."""
    family = draw(st.sampled_from(["gaussian", "box", "bumps"]))
    if family == "gaussian":
        return gaussian_sample(GRID, GaussianSpec(draw(st.sampled_from([0.5, 2.0])), 1))
    if family == "box":
        return box_indicator(GRID, draw(st.sampled_from([1, 8, 64])))
    x = GRID.axis_coords()
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
