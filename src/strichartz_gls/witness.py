"""Gaussian lower-bound experiments.

Each witness evaluates a two-space functional at the unit Gaussian through
two channels: the generic grid pipeline, and a closed-form channel built
from the exact Gaussian variance evolution and the exact Gaussian L_p
moments.  The closed form is the ground truth; the grid run validates the
pipeline, and their per-time relative gap is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functionals import fit_rate, space_norm
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


@dataclass(frozen=True)
class WitnessReport:
    t_grid: np.ndarray
    grid_values: np.ndarray
    closed_values: np.ndarray
    rel_gaps: np.ndarray
    label: str
    meta: dict = field(default_factory=dict)

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
    """t_grid as an array, checked against the safe window and t > 2."""
    t_grid = np.asarray(t_grid, dtype=float)
    check_window(t_grid, grid, kind)
    if np.any(t_grid <= 2):
        raise ValueError("t_grid: witness times must exceed 2")
    return t_grid


def sp_witness(nu: PsiSpec, t_grid, grid: Grid, kind: PropagatorKind = HEAT) -> WitnessReport:
    """Parabolic witness: the SP functional at f = g_1 with X = L_1, Y = G(nu).

    kind may be the heat flow or the fractional flow with order 2 (whose
    exact channel is the heat evolution at doubled time).
    """
    if nu.variant != "degenerate" and not nu.a > 1:
        raise ValueError("the witness requires the Y support to start above 1")
    if kind.kind == "fractional" and kind.alpha != 2:
        raise ValueError("fractional witness has a closed form only at order 2")
    if kind.kind == "schrodinger":
        raise ValueError("use sr_witness for the dispersive group")
    t_grid = _witness_times(t_grid, grid, kind)
    d = grid.dim
    expo = d / 2.0 if kind.kind == "heat" else d / kind.alpha

    spec = GaussianSpec(1.0, d)
    f = gaussian_sample(grid, spec)
    norm_x = lp_norm(f, 1.0)

    grid_vals = np.empty(t_grid.size)
    closed_vals = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        variance = propagate_gaussian_exact(spec, kind, float(t)).sigma2
        phi_y = fundamental_gls(nu, float(t) ** expo).value
        phi_x = float(t) ** expo  # fundamental function of L_1 is the identity
        grid_vals[i] = (space_norm(propagate(f, kind, float(t)), nu) / phi_y) * (phi_x / norm_x)
        exact = lambda q: np.array([gaussian_lp_exact(variance, d, float(x)) for x in q])
        closed_vals[i] = (_gls_sup(exact, nu) / phi_y) * phi_x  # |g_1|_1 = 1
    gaps = np.abs(grid_vals - closed_vals) / closed_vals
    return WitnessReport(
        t_grid,
        grid_vals,
        closed_vals,
        gaps,
        "SP-witness",
        {"Y": nu.msupp(), "d": d, "kind": kind.kind, "alpha": kind.alpha},
    )


def sr_witness(t_grid, grid: Grid) -> WitnessReport:
    """Dispersive witness: the SR functional at f = g_1 with X = L_1, Y = L_inf.

    Closed form: t^(d/2) (2 pi)^(-d/2) (1 + t^2)^(-d/4), which tends to the
    positive constant (2 pi)^(-d/2).
    """
    t_grid = _witness_times(t_grid, grid, SCHRODINGER)
    d = grid.dim
    f = gaussian_sample(grid, GaussianSpec(1.0, d))
    norm_x = lp_norm(f, 1.0)

    grid_vals = np.empty(t_grid.size)
    closed_vals = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        u = propagate(f, SCHRODINGER, float(t))
        sup_u = lp_norm(u, INF)
        phi_x = float(t) ** (-float(d))
        grid_vals[i] = float(t) ** (-d / 2.0) * sup_u / (norm_x * phi_x)
        closed_vals[i] = (
            float(t) ** (d / 2.0)
            * (2.0 * math.pi) ** (-d / 2.0)
            * (1.0 + float(t) ** 2) ** (-d / 4.0)
        )
    gaps = np.abs(grid_vals - closed_vals) / closed_vals
    return WitnessReport(t_grid, grid_vals, closed_vals, gaps, "SR-witness", {"d": d})


def gaussian_moment_law_check(d: int, r_list, t_grid, grid: Grid) -> list:
    """Fit the decay slope of |U_t g_1|_r for each r and compare with
    the predicted -d(1/2 - 1/r).

    Returns rows of (r, fitted_slope, predicted_slope).
    """
    t_grid = _witness_times(t_grid, grid, SCHRODINGER)
    if d != grid.dim:
        raise ValueError("dimension does not match grid")
    for r in r_list:
        if not (r > 1 or r == INF):
            raise ValueError("moment law holds for r in (1, inf]")
    f = gaussian_sample(grid, GaussianSpec(1.0, d))
    vals = np.empty((len(r_list), t_grid.size))  # |U_t f|_r, one evolved field at a time
    for j, u in enumerate(propagate(f, SCHRODINGER, float(t)) for t in t_grid):
        vals[:, j] = [lp_norm(u, float(r)) for r in r_list]
    rows = []
    for r, vals_r in zip(r_list, vals):
        fitted = fit_rate(t_grid, vals_r).slope
        inv_r = 0.0 if r == INF else 1.0 / r
        predicted = -d * (0.5 - inv_r)
        rows.append((float(r), fitted, predicted))
    return rows
