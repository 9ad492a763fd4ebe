"""Acceptance suite: twelve go/no-go checks, one printed verdict line each.

Each check recomputes its quantities from scratch at desk scale (d=1) and
prints `criterion NN [name]: PASS/FAIL (detail)` directly to the terminal
before asserting, so the full scoreboard is visible in any run mode.

Known failure: criterion 06.  The Laplacian-composed fractional flow at
alpha=2 decays like t^-(d+2)/alpha (measured slope ~ -1.49, matching the
exact Gaussian calculation d/dt moments), not the targeted -(d+1)/alpha = -1.
The target appears to track a first-order rather than second-order
derivative; the check is kept as stated and fails honestly rather than
being weakened to fit.  See the verdict line in the test output.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from strichartz_gls import (
    HEAT,
    INF,
    SCHRODINGER,
    GaussianSpec,
    GridFunction,
    PsiSpec,
    box_indicator,
    fit_rate,
    fractional,
    fundamental_asymptotic,
    fundamental_gls,
    gaussian_sample,
    laplacian_propagate,
    lp_norm,
    make_grid,
    moment_profile,
    periodic_convolve,
    propagate,
    space_norm,
    sp_witness,
    sr_witness,
)
from strichartz_gls.cli import run as cli_run

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} [{name}]: {detail}"


def test_criterion_01_heat_gaussian_exactness(capsys):
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    u = propagate(f, HEAT, 3.0)
    exact = gaussian_sample(g, GaussianSpec(4.0, 1))
    err = float(np.max(np.abs(u.values - exact.values)))
    _verdict(capsys, 1, "heat gaussian exactness", err < 1e-8,
             f"max node error {err:.3e} < 1e-8")


def test_criterion_02_semigroup_and_unitarity(capsys):
    g = make_grid(1, 40.0, 1024)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    u1 = propagate(propagate(f, HEAT, 1.0), HEAT, 1.0)
    u2 = propagate(f, HEAT, 2.0)
    semi = lp_norm(u1 + (-1.0) * u2, INF) / lp_norm(u2, INF)

    gs = make_grid(1, 4096.0, 65536)
    fs = gaussian_sample(gs, GaussianSpec(1.0, 1))
    base = lp_norm(fs, 2.0)
    unit = max(abs(lp_norm(propagate(fs, SCHRODINGER, t), 2.0) / base - 1.0)
               for t in (1.0, 10.0, 100.0))
    back = propagate(propagate(fs, SCHRODINGER, 10.0), SCHRODINGER, -10.0)
    rev = lp_norm(back + (-1.0) * fs, INF) / lp_norm(fs, INF)

    ok = semi < 1e-10 and unit < 1e-10 and rev < 1e-10
    _verdict(capsys, 2, "semigroup & unitarity", ok,
             f"semigroup {semi:.2e}, unitarity {unit:.2e}, reversal {rev:.2e}, all < 1e-10")


def test_criterion_03_heat_lp_exponent(capsys):
    g = make_grid(1, 256.0, 8192)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    t = np.geomspace(16.0, 1024.0, 7)
    y = np.array([lp_norm(propagate(f, HEAT, float(ti)), 3.0) for ti in t])
    slope = fit_rate(t, y).slope
    target = 0.5 * (1.0 / 3.0 - 1.0)
    rel = abs(slope - target) / abs(target)
    _verdict(capsys, 3, "heat L1->L3 exponent", rel < 0.02,
             f"fitted {slope:.5f} vs {target:.5f}, rel err {rel:.3%} < 2%")


def test_criterion_04_schrodinger_moment_exponents(capsys):
    g = make_grid(1, 4096.0, 65536)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    t = np.geomspace(16.0, 256.0, 7)
    evolved = [propagate(f, SCHRODINGER, float(ti)) for ti in t]
    results = []
    for r, target in ((INF, -0.5), (4.0, -0.25)):
        slope = fit_rate(t, [lp_norm(u, r) for u in evolved]).slope
        results.append((r, slope, target, abs(slope - target) / abs(target)))
    ok = all(rel < 0.02 for *_, rel in results)
    detail = "; ".join(f"r={r}: {s:.5f} vs {tgt}" for r, s, tgt, _ in results)
    _verdict(capsys, 4, "dispersive moment exponents", ok, detail + ", both within 2%")


def test_criterion_05_fractional_decay_and_identity(capsys):
    g = make_grid(1, 4096.0, 65536)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    t = np.geomspace(16.0, 512.0, 7)
    y = [lp_norm(propagate(f, fractional(1.0), float(ti)), INF) for ti in t]
    slope = fit_rate(t, y).slope
    rel = abs(slope + 1.0)

    g2 = make_grid(1, 40.0, 1024)
    f2 = gaussian_sample(g2, GaussianSpec(1.0, 1))
    ua = propagate(f2, fractional(2.0), 1.5)
    ub = propagate(f2, HEAT, 3.0)
    ident = lp_norm(ua + (-1.0) * ub, INF) / lp_norm(ub, INF)

    ok = rel < 0.03 and ident < 1e-10
    _verdict(capsys, 5, "fractional sup-norm decay", ok,
             f"alpha=1 slope {slope:.5f} vs -1 (err {rel:.3%} < 3%), "
             f"order-2/heat identity {ident:.2e} < 1e-10")


def test_criterion_06_laplacian_composed_decay(capsys):
    # Stated target: slope -(d+1)/alpha = -1 at d=1, alpha=2.  The exact
    # Gaussian computation gives -(d+2)/alpha = -1.5 for this flow, and the
    # grid measurement lands there; the check is kept as stated and is
    # expected to fail.  See the module docstring.
    g = make_grid(1, 200.0, 8192)
    f = gaussian_sample(g, GaussianSpec(1.0, 1))
    t = np.geomspace(4.0, 256.0, 7)
    y = [lp_norm(laplacian_propagate(f, 2.0, float(ti)), INF) for ti in t]
    slope = fit_rate(t, y).slope
    rel = abs(slope + 1.0)
    _verdict(capsys, 6, "derivative-composed decay", rel < 0.03,
             f"fitted {slope:.5f} vs stated target -1 (err {rel:.3%}); "
             f"measured value matches the exact-Gaussian slope -1.5")


def test_criterion_07_parabolic_witness(capsys):
    grid = make_grid(1, 200.0, 8192)
    nu = PsiSpec.table({2.0: 1.0, 4.0: 1.0})
    rep = sp_witness(nu, [4.0, 16.0, 64.0, 256.0, 1024.0], grid)
    lo, ratio = rep.grid_values.min(), rep.grid_values.max() / rep.grid_values.min()
    gap = rep.rel_gaps.max()
    ok = lo > 0 and ratio < 3.0 and gap < 1e-6
    _verdict(capsys, 7, "parabolic witness", ok,
             f"min {lo:.4f} > 0, max/min {ratio:.4f} < 3, channel gap {gap:.2e} < 1e-6")


def test_criterion_08_dispersive_witness(capsys):
    grid = make_grid(1, 8192.0, 131072)
    t = np.geomspace(16.0, 1024.0, 7)
    rep = sr_witness(t, grid)
    slope = fit_rate(rep.t_grid, rep.grid_values).slope
    limit = rep.grid_values[-1]
    target = (2.0 * math.pi) ** -0.5
    ok = abs(slope) < 0.02 and abs(limit / target - 1.0) < 0.02
    _verdict(capsys, 8, "dispersive witness", ok,
             f"slope {slope:.5f} within 0.02 of 0, "
             f"limit {limit:.5f} within 2% of {target:.5f}")


def test_criterion_09_fundamental_asymptotics(capsys):
    psi = PsiSpec.zeta(1.0, 2.0, 1.0, 1.0)
    ratios = [
        fundamental_gls(psi, d) / fundamental_asymptotic(psi, d, "small")
        for d in (1e-6, 1e-8, 1e-10)
    ]
    drifts = [abs(r2 / r1 - 1.0) for r1, r2 in zip(ratios, ratios[1:])]
    ok = all(x < 0.10 for x in drifts)
    _verdict(capsys, 9, "fundamental asymptotics", ok,
             f"numeric/asymptotic drifts {[f'{x:.3%}' for x in drifts]} all < 10%")


def test_criterion_10_fit_rate_recovery(capsys):
    t = np.geomspace(5.0, 5000.0, 24)
    y = 3.0 * t ** 0.25 * np.log(t) ** 2
    fit = fit_rate(t, y, with_log=True)
    ds = abs(fit.slope - 0.25)
    dg = abs(fit.log_exponent - 2.0)
    ok = ds < 1e-6 and dg < 1e-6
    _verdict(capsys, 10, "rate-fit recovery", ok,
             f"slope err {ds:.2e}, log-exponent err {dg:.2e}, both < 1e-6")


def test_criterion_11_property_suites(capsys):
    rng = np.random.default_rng(20240817)
    g = make_grid(1, 16.0, 256)

    def rand_fn():
        v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        return GridFunction(g, v)

    # convolution inequality on random pairs
    conv_bad = 0
    for _ in range(100):
        f, h = rand_fn(), rand_fn()
        p = float(rng.uniform(1.0, 2.0))
        q = float(rng.uniform(1.0, 2.0))
        inv_r = 1.0 / p + 1.0 / q - 1.0
        r = INF if inv_r <= 1e-12 else 1.0 / inv_r
        if lp_norm(periodic_convolve(f, h), r) > lp_norm(f, p) * lp_norm(h, q) + 1e-9:
            conv_bad += 1

    # exponent-family norm axioms on random pairs
    psi = PsiSpec.zeta(1.0, 3.0, 1.0, 1.0)
    axiom_bad = 0
    for _ in range(100):
        f, h = rand_fn(), rand_fn()
        c = abs(rng.standard_normal()) + 0.1
        nf, nh = space_norm(f, psi), space_norm(h, psi)
        if abs(space_norm(c * f, psi) - c * nf) > 1e-9 * nf:
            axiom_bad += 1
        if space_norm(f + h, psi) > nf + nh + 1e-9:
            axiom_bad += 1

    # fundamental-function monotonicity on delta ladders
    mono_ok = True
    for spec in (psi, PsiSpec.zeta(1.0, INF, 1.0, -1.0), PsiSpec.degenerate(2.0)):
        vals = [fundamental_gls(spec, d) for d in np.geomspace(1e-8, 1e4, 25)]
        mono_ok &= all(b > a for a, b in zip(vals, vals[1:]))

    # crossover continuity
    cont = 0.0
    for zp in (PsiSpec.zeta(1.0, 3.0, 1.0, 1.0), PsiSpec.zeta(1.0, INF, 1.0, -1.0),
               PsiSpec.zeta(1.0, 5.0, 1.0, 2.0)):
        h0 = zp.crossover
        cont = max(cont, abs(1.0 / zp.psi(h0 - 1e-12) - 1.0 / zp.psi(h0 + 1e-12)))

    # moment-profile log-convexity
    pgrid = np.linspace(1.0, 12.0, 45)
    conv_viol = 0.0
    for f in (gaussian_sample(g, GaussianSpec(1.0, 1)), box_indicator(g, 16), rand_fn()):
        hv = moment_profile(f, pgrid).values
        for i in range(0, len(pgrid) - 2, 3):
            pa, pq, pr = pgrid[i], pgrid[i + 1], pgrid[i + 2]
            theta = (1.0 / pq - 1.0 / pr) / (1.0 / pa - 1.0 / pr)
            bound = hv[i] ** theta * hv[i + 2] ** (1.0 - theta)
            conv_viol = max(conv_viol, hv[i + 1] / bound - 1.0)

    ok = (conv_bad == 0 and axiom_bad == 0 and mono_ok
          and cont < 1e-10 and conv_viol < 1e-9)
    _verdict(capsys, 11, "property suites", ok,
             f"convolution violations {conv_bad}/100, norm-axiom violations "
             f"{axiom_bad}/100, monotone ladders {mono_ok}, crossover jump "
             f"{cont:.1e} < 1e-10, log-convexity excess {conv_viol:.1e} < 1e-9")


def test_criterion_12_determinism(capsys, tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs
    diffs = 0
    for cfg in configs:
        out1 = tmp_path / "a" / cfg.stem
        out2 = tmp_path / "b" / cfg.stem
        assert cli_run(str(cfg), str(out1)) == 0
        assert cli_run(str(cfg), str(out2)) == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        if names1 != names2:
            diffs += 1
            continue
        for name in names1:
            if (out1 / name).read_bytes() != (out2 / name).read_bytes():
                diffs += 1
    ok = diffs == 0
    _verdict(capsys, 12, "determinism", ok,
             f"{len(configs)} configs re-run byte-identical, {diffs} mismatches")
