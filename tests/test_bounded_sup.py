"""Property test of spaces._bounded_sup: the pruned supremum equals the full one."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from strichartz_gls.spaces import PsiSpec, _bounded_sup, _gls_sup, _weighted_sup  # noqa: E402

INF = math.inf


@st.composite
def moment_cases(draw):
    """Increasing exponents (fewer than 16 included), node moduli with zeros, and
    weights with 0 and inf entries."""
    n = draw(st.integers(1, 80))
    steps = draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n))
    p = 1.0 + np.cumsum(steps)
    k = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 4.0), min_size=k, max_size=k)))
    c = np.array(draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k)))
    w = np.array(draw(st.lists(st.floats(0.05, 20.0) | st.sampled_from([0.0, INF]),
                               min_size=n, max_size=n)))
    return p, a, c, w


@settings(deadline=None, max_examples=300, derandomize=True)
@given(moment_cases())
def test_bounded_sup_equals_full_sup(case):
    p, a, c, w = case
    asked = []

    def h_at(q):
        # (sum_j c_j a_j^q)^(1/q), one exponent at a time: p log h(p) is convex
        asked.extend(q.tolist())
        return np.array([float(np.sum(c * a ** x)) ** (1.0 / x) for x in q])

    got, h_end = _bounded_sup(h_at, p, w)
    assert len(set(asked)) == len(asked) and set(asked) <= set(p.tolist())
    full = h_at(p)
    assert (got, h_end) == (_weighted_sup(full, w), full[-1])


@pytest.mark.parametrize("s", [1.0, 2.5, INF])
@pytest.mark.parametrize("h", [0.0, 3.7e-300, 0.25, 1.9e300, INF])
def test_degenerate_sup_is_the_one_exponent_value(s, h):
    # a degenerate weight is 1 at s: one h evaluation, the same bits as the weighted sup
    asked = []
    psi = PsiSpec.degenerate(s)
    got = _gls_sup(lambda q: asked.append(q.tolist()) or np.array([h]), psi)
    assert asked == [[s]]
    assert got == _weighted_sup(np.array([h]), psi.samples[1])
    assert math.copysign(1.0, got) == 1.0
