import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from strichartz_gls import cli, functionals
from strichartz_gls import (
    HEAT,
    INF,
    GaussianSpec,
    PsiSpec,
    fit_rate,
    fractional,
    gaussian_lp_exact,
    gaussian_sample,
    gaussian_moment_law_check,
    lp_norm,
    make_grid,
    propagate,
    sp_witness,
    sr_witness,
)

GAP_TOL = 1e-6

SP_GRID = make_grid(1, 200.0, 8192)
SP_TIMES = [4.0, 16.0, 64.0, 256.0, 1024.0]
SR_GRID = make_grid(1, 4096.0, 65536)
SR_TIMES = np.geomspace(16.0, 256.0, 7)


def test_sp_witness_two_channels_agree():
    nu = PsiSpec.table({2.0: 1.0, 4.0: 1.0})
    rep = sp_witness(nu, SP_TIMES, SP_GRID)
    assert rep.max_gap < GAP_TOL


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
    assert rep.ratio < 3.0
    assert rep.min_value > rep.closed_form_floor()
    assert rep.min_value > 0.25


def test_sp_witness_heat_moments_match_exact_law():
    # spot-check the grid channel against the exact evolved-gaussian moments
    f = gaussian_sample(SP_GRID, GaussianSpec(1.0, 1))
    for t in (4.0, 64.0):
        u = propagate(f, HEAT, t)
        for p in (2.0, 3.0, 4.0):
            assert lp_norm(u, p) == pytest.approx(
                gaussian_lp_exact(1.0 + t, 1, p), rel=1e-8
            )


def test_sp_witness_fractional_order_two():
    nu = PsiSpec.table({2.0: 1.0, 4.0: 1.0})
    rep = sp_witness(nu, [4.0, 16.0, 64.0, 256.0], SP_GRID, kind=fractional(2.0))
    assert rep.max_gap < GAP_TOL
    assert rep.ratio < 3.0


def test_sp_witness_degenerate_target():
    rep = sp_witness(PsiSpec.degenerate(2.0), SP_TIMES, SP_GRID)
    assert rep.max_gap < GAP_TOL
    # Y = L_2: W = t^{1/2} |g_{1+t}|_2 / phi(L_2, t^{1/2}) = t^{1/4} |g_{1+t}|_2
    t = np.asarray(SP_TIMES)
    expected = t ** 0.25 * (4 * math.pi * (1 + t)) ** -0.25
    assert np.allclose(rep.closed_values, expected, rtol=1e-12)


def test_sp_witness_guards():
    nu = PsiSpec.table({2.0: 1.0, 4.0: 1.0})
    with pytest.raises(ValueError):
        sp_witness(nu, [4.0, 1e6], SP_GRID)  # outside the safe window
    with pytest.raises(ValueError):
        sp_witness(nu, [1.0, 4.0], SP_GRID)  # t <= 2
    with pytest.raises(ValueError):
        sp_witness(nu, SP_TIMES, SP_GRID, kind=fractional(1.5))
    with pytest.raises(ValueError):
        sp_witness(PsiSpec.zeta(1.0, 2.0, 1.0, 1.0), SP_TIMES, SP_GRID)


def test_sr_witness_two_channels_agree():
    rep = sr_witness(SR_TIMES, SR_GRID)
    assert rep.max_gap < GAP_TOL


def test_sr_witness_flat_positive_limit():
    rep = sr_witness(SR_TIMES, SR_GRID)
    # closed form t^{1/2} (2 pi)^{-1/2} (1+t^2)^{-1/4} tends to (2 pi)^{-1/2}
    assert abs(rep.fitted_slope()) < 1e-3
    assert rep.min_value > 0.9 * (2 * math.pi) ** -0.5
    assert rep.max_value < (2 * math.pi) ** -0.5 * (1 + 1e-9)
    assert rep.min_value > rep.closed_form_floor()


def test_sr_witness_guards():
    with pytest.raises(ValueError):
        sr_witness([1.0, 16.0], SR_GRID)
    with pytest.raises(ValueError):
        sr_witness(np.geomspace(16.0, 1e7, 5), SR_GRID)


def test_moment_law_check_rows():
    rows = gaussian_moment_law_check(1, [2.0, 4.0, INF], SR_TIMES, SR_GRID)
    assert len(rows) == 3
    for r, fitted, predicted in rows:
        inv_r = 0.0 if r == INF else 1.0 / r
        assert predicted == pytest.approx(-1.0 * (0.5 - inv_r))
        assert fitted == pytest.approx(predicted, abs=0.02)


def test_moment_law_check_guards():
    with pytest.raises(ValueError):
        gaussian_moment_law_check(1, [1.0], SR_TIMES, SR_GRID)
    with pytest.raises(ValueError):
        gaussian_moment_law_check(2, [2.0], SR_TIMES, SR_GRID)


# Gaussian witnesses in d = 2, 3.  Under the Schrodinger flow the unit
# Gaussian needs h <= 0.375: its spectrum exp(-xi^2/2) at the Nyquist
# frequency pi/h is then below 1e-15 (at h = 0.75 the gap is 3e-5); the heat
# flow damps those modes, so the parabolic witness tolerates h = 0.75.
@pytest.mark.parametrize("d, L, n, times", [(2, 60.0, 256, [4.0, 16.0, 64.0]),
                                            (3, 24.0, 64, [4.0, 12.0])], ids=["d2", "d3"])
def test_sp_witness_heat_in_higher_dimension(d, L, n, times):
    rep = sp_witness(PsiSpec.table({2.0: 1.0, 4.0: 1.0}), times, make_grid(d, L, n))
    assert rep.max_gap < GAP_TOL


@pytest.mark.parametrize("d, L, n, times", [(2, 48.0, 256, [3.0, 5.0, 7.0]),
                                            (3, 24.0, 128, [2.5, 3.5])], ids=["d2", "d3"])
def test_sr_witness_in_higher_dimension(d, L, n, times):
    rep = sr_witness(times, make_grid(d, L, n))
    assert rep.max_gap < GAP_TOL


def test_moment_law_d3_matches_closed_form_slopes():
    # over t in (2, 4) the slope is still far from -d(1/2 - 1/r), so the
    # fitted slope is compared with the fit of the exact norms at those times
    t = np.array([2.5, 2.9, 3.3, 3.8])
    rows = gaussian_moment_law_check(3, [4.0, INF], t, make_grid(3, 24.0, 128))
    for r, fitted, _ in rows:
        exact = fit_rate(t, [gaussian_lp_exact(1.0 + 1j * ti, 3, r) for ti in t]).slope
        assert abs(fitted - exact) < GAP_TOL * abs(exact)


def test_moment_law_holds_one_evolved_field_at_a_time():
    grid = make_grid(2, 48.0, 256)
    field_bytes = 16 * 256 ** 2

    def peak(t_grid):
        tracemalloc.start()
        try:
            gaussian_moment_law_check(2, [2.0, 4.0, INF], t_grid, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # eight more times must not hold eight more complex fields
    assert peak(np.geomspace(3.0, 7.0, 12)) < peak(np.geomspace(3.0, 7.0, 4)) + 0.5 * field_bytes
