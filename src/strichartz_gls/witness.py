"""Gaussian lower-bound experiments.

Each witness evaluates a two-space functional at the unit Gaussian through
two channels: the functional's own curve on the grid (w_sp_curve or
v_sr_curve), and a closed-form channel read off the GaussianSpec record:
its flow (evolve) and, through gaussian_gls_exact, its exact L_q norms
(lp).  The closed form is the ground truth; the grid run validates the
pipeline, and their per-time relative gap is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import check_domain, check_fit_times, fit_rate, v_sr_curve, w_sp_curve
from .grid_field import (
    INF,
    GaussianSpec,
    Grid,
    gaussian_sample,
    lp_norm,
)
from .propagators import (
    HEAT,
    SCHRODINGER,
    PropagatorKind,
    check_window,
    propagate,
)
from .spaces import PsiSpec, _gls_sup, check_covered, fundamental_gls


GAP_TOL = 1e-6

_L1, _LINF = PsiSpec.degenerate(1.0), PsiSpec.degenerate(INF)  # X and, for sr_witness, Y


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A witness's times, its grid and closed channels there, and their relative gaps."""

    t_grid: np.ndarray
    grid_values: np.ndarray
    closed_values: np.ndarray
    rel_gaps: np.ndarray


def gaussian_gls_exact(spec: GaussianSpec, psi: PsiSpec) -> float:
    """The G(psi) norm of the exact Gaussian spec: _gls_sup over spec.lp, taken one
    exponent at a time."""
    return _gls_sup(lambda q: np.array([spec.lp(x) for x in q.tolist()]), psi)


def _witness_times(t_grid, grid: Grid, kind: PropagatorKind) -> np.ndarray:
    """t_grid as an array, checked for the window, the rate fit and t > 2 before any flow."""
    t_grid = np.asarray(t_grid, dtype=float)
    check_window(t_grid, grid, kind)
    check_fit_times(t_grid)
    check_domain(float(t_grid.min()), "min t_grid")
    return t_grid


def sp_witness(nu: PsiSpec, t_grid, grid: Grid, kind: PropagatorKind = HEAT) -> WitnessReport:
    """Parabolic witness: the SP functional at f = g_1 with X = L_1, Y = G(nu).

    Grid channel: w_sp_curve; closed: gaussian_gls_exact / phi(nu, t^e) * phi(L_1, t^e).  kind
    may be heat or the fractional flow of order 2 (exactly, heat at doubled time).
    """
    t_grid = _witness_times(t_grid, grid, kind)
    if nu.variant != "degenerate" and not nu.a > 1:
        raise ValueError(f"nu: the witness requires a support above 1, got a = {nu.a:g}")
    check_covered(nu, "nu")
    d = grid.dim
    expo = kind.sp_exponent(d)
    spec = GaussianSpec(1.0, d)
    closed_vals = np.array([gaussian_gls_exact(spec.evolve(kind, t), nu)
                            / fundamental_gls(nu, t ** expo) * fundamental_gls(_L1, t ** expo)
                            for t in t_grid.tolist()])  # |g_1|_1 = 1
    curve = w_sp_curve(gaussian_sample(grid, spec), _L1, nu, t_grid, kind=kind)
    gaps = np.abs(curve.values - closed_vals) / closed_vals
    return WitnessReport(t_grid, curve.values, closed_vals, gaps)


def sr_witness(t_grid, grid: Grid) -> WitnessReport:
    """Dispersive witness: the SR functional at f = g_1 with X = L_1, Y = L_inf.

    The grid channel is v_sr_curve; the closed one, t^(d/2) |U_t g_1|_inf taken exactly,
    is t^(d/2) (2 pi)^(-d/2) (1 + t^2)^(-d/4), which tends to (2 pi)^(-d/2) > 0.
    """
    t_grid = _witness_times(t_grid, grid, SCHRODINGER)
    d = grid.dim
    spec = GaussianSpec(1.0, d)
    curve = v_sr_curve(gaussian_sample(grid, spec), _L1, _LINF, t_grid)
    closed_vals = np.array([t ** (d / 2.0) * gaussian_gls_exact(spec.evolve(SCHRODINGER, t), _LINF)
                            for t in t_grid.tolist()])
    gaps = np.abs(curve.values - closed_vals) / closed_vals
    return WitnessReport(t_grid, curve.values, closed_vals, gaps)


def gaussian_moment_law_check(r_list, t_grid, grid: Grid) -> list:
    """Fit the decay slope of |U_t g_1|_r for each r and compare with
    the predicted -d(1/2 - 1/r).

    Returns rows of (r, fitted_slope, predicted_slope).
    """
    t_grid = _witness_times(t_grid, grid, SCHRODINGER)
    d = grid.dim
    for i, r in enumerate(r_list):
        if not r > 1:  # inf > 1; a NaN fails
            raise ValueError(f"r_list.{i}: the moment law holds for r in (1, inf], got {r:g}")
    f = gaussian_sample(grid, GaussianSpec(1.0, d))
    vals = np.empty((len(r_list), t_grid.size))  # |U_t f|_r, one evolved field at a time
    for j, t in enumerate(t_grid):
        u = propagate(f, SCHRODINGER, float(t))
        vals[:, j] = [lp_norm(u, float(r)) for r in r_list]
        del u  # released before the next field is built
    rows = []
    for r, vals_r in zip(r_list, vals):
        fitted = fit_rate(t_grid, vals_r).slope
        rows.append((float(r), fitted, -d * (0.5 - 1.0 / r)))
    return rows
