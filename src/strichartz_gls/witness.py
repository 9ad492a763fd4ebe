"""Gaussian lower-bound experiments.

Each witness evaluates a two-space functional at the unit Gaussian through
two channels: the functional's own curve on the grid (w_sp_curve or
v_sr_curve), and a closed-form channel built from the exact Gaussian
variance evolution and the exact Gaussian L_p moments.  The closed form is
the ground truth; the grid run validates the pipeline, and their per-time
relative gap is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import check_domain, check_fit_times, fit_rate, v_sr_curve, w_sp_curve
from .grid_field import (
    INF,
    GaussianSpec,
    Grid,
    gaussian_lp_exact,
    gaussian_sample,
    lp_norm,
)
from .propagators import (
    HEAT,
    SCHRODINGER,
    PropagatorKind,
    check_window,
    propagate,
    propagate_gaussian_exact,
)
from .spaces import PsiSpec, _gls_sup, fundamental_gls

__all__ = ["WitnessReport", "sp_witness", "sr_witness", "gaussian_moment_law_check"]

GAP_TOL = 1e-6

_L1, _LINF = PsiSpec.degenerate(1.0), PsiSpec.degenerate(INF)  # X and, for sr_witness, Y


@dataclass(frozen=True)
class WitnessReport:
    t_grid: np.ndarray
    grid_values: np.ndarray
    closed_values: np.ndarray
    rel_gaps: np.ndarray

    @property
    def min_value(self) -> float:
        return float(self.grid_values.min())

    @property
    def max_value(self) -> float:
        return float(self.grid_values.max())

    @property
    def ratio(self) -> float:
        return self.max_value / self.min_value

    @property
    def max_gap(self) -> float:
        return float(self.rel_gaps.max())

    def fitted_slope(self) -> float:
        return fit_rate(self.t_grid, self.grid_values).slope

    def closed_form_floor(self) -> float:
        """Threshold for positivity checks, derived from the closed form."""
        return 0.5 * float(self.closed_values.min())


def _witness_times(t_grid, grid: Grid, kind: PropagatorKind) -> np.ndarray:
    """t_grid as an array, checked for the window, the rate fit and t > 2 before any flow."""
    t_grid = np.asarray(t_grid, dtype=float)
    check_window(t_grid, grid, kind)
    check_fit_times(t_grid)
    check_domain(float(t_grid.min()), "min t_grid")
    return t_grid


def sp_witness(nu: PsiSpec, t_grid, grid: Grid, kind: PropagatorKind = HEAT) -> WitnessReport:
    """Parabolic witness: the SP functional at f = g_1 with X = L_1, Y = G(nu).

    The grid channel is w_sp_curve.  kind may be the heat flow or the fractional
    flow with order 2 (whose exact channel is the heat evolution at doubled time).
    """
    t_grid = _witness_times(t_grid, grid, kind)
    if nu.variant != "degenerate" and not nu.a > 1:
        raise ValueError("the witness requires the Y support to start above 1")
    d = grid.dim
    expo = kind.sp_exponent(d)

    spec = GaussianSpec(1.0, d)
    closed_vals = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):  # first: the exact evolution refuses a fractional order != 2
        variance = propagate_gaussian_exact(spec, kind, float(t))
        phi_y = fundamental_gls(nu, float(t) ** expo)
        phi_x = float(t) ** expo  # fundamental function of L_1 is the identity
        exact = lambda q: np.array([gaussian_lp_exact(variance, d, float(x)) for x in q])
        closed_vals[i] = (_gls_sup(exact, nu) / phi_y) * phi_x  # |g_1|_1 = 1
    curve = w_sp_curve(gaussian_sample(grid, spec), _L1, nu, t_grid, kind=kind)
    gaps = np.abs(curve.values - closed_vals) / closed_vals
    return WitnessReport(t_grid, curve.values, closed_vals, gaps)


def sr_witness(t_grid, grid: Grid) -> WitnessReport:
    """Dispersive witness: the SR functional at f = g_1 with X = L_1, Y = L_inf.

    The grid channel is v_sr_curve.  Closed form: t^(d/2) (2 pi)^(-d/2)
    (1 + t^2)^(-d/4), which tends to the positive constant (2 pi)^(-d/2).
    """
    t_grid = _witness_times(t_grid, grid, SCHRODINGER)
    d = grid.dim
    curve = v_sr_curve(gaussian_sample(grid, GaussianSpec(1.0, d)), _L1, _LINF, t_grid)
    closed_vals = np.array([t ** (d / 2.0) * (2.0 * math.pi) ** (-d / 2.0)
                            * (1.0 + t ** 2) ** (-d / 4.0) for t in t_grid.tolist()])
    gaps = np.abs(curve.values - closed_vals) / closed_vals
    return WitnessReport(t_grid, curve.values, closed_vals, gaps)


def gaussian_moment_law_check(r_list, t_grid, grid: Grid) -> list:
    """Fit the decay slope of |U_t g_1|_r for each r and compare with
    the predicted -d(1/2 - 1/r).

    Returns rows of (r, fitted_slope, predicted_slope).
    """
    t_grid = _witness_times(t_grid, grid, SCHRODINGER)
    d = grid.dim
    if not all(r > 1 for r in r_list):  # inf > 1; a NaN fails
        raise ValueError("moment law holds for r in (1, inf]")
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
