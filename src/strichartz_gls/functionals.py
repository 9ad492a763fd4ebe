"""Two-space decay functionals, mixed space-time norms, predicted decay
rates, and power-law-with-log-correction fitting.

The parabolic functional compares the evolved norm in Y against the
initial norm in X, each divided by the fundamental function of its space
at the diffusive scale t^(d/2).  The dispersive (group) functional uses
t^(-d/2) ||U_t f||_Y / (||f||_X phi(X, K t^-d)); a switch selects the
alternative phi(X, t^(d/2)) normalization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid_field import INF, GridFunction, moment_profile
from .propagators import HEAT, SCHRODINGER, PropagatorKind, propagate
from .spaces import PROFILE_MIN_OFFSET  # noqa: F401 (re-export)
from .spaces import PsiSpec, _check_covered, _gls_sup, fundamental_gls

__all__ = [
    "FunctionalCurve",
    "RateFit",
    "PredictedRate",
    "space_profile",
    "w_sp",
    "v_sr",
    "w_sp_curve",
    "v_sr_curve",
    "mixed_norm",
    "predicted_rate",
    "fit_rate",
]

MIN_CURVE_SAMPLES = 8  # mixed_norm's least number of time samples
MIN_FIT_SAMPLES = 4    # fit_rate's least number of samples
PREDICTED_SOURCES = ("parabolic-zeta", "schrodinger-zeta", "fractional", "fractional-laplacian",
                     "heat-lp", "schrodinger-lp")


def space_profile(f: GridFunction, psi: PsiSpec, provenance: str = "grid"):
    """Moment profile of f over the exponents psi samples."""
    return moment_profile(f, psi.samples[0], provenance)


def _profile_sup(f: GridFunction, psi: PsiSpec) -> float:
    """The norm of f weighted by psi, its moment profile taken only where it can set the sup."""
    return _gls_sup(lambda q: moment_profile(f, q).values, psi)


def space_norm(f: GridFunction, psi: PsiSpec) -> float:
    return _profile_sup(f, psi)


def _check_time(t: float):
    if not t > 2:
        raise ValueError(f"functionals are defined for t > 2, got t={t}")


def _admissible_x_norm(f: GridFunction, psiX: PsiSpec) -> float:
    """||f||_X, which must be finite and nonzero for a ratio functional."""
    norm_x = space_norm(f, psiX)
    if norm_x == INF:
        raise ValueError("f is not in X (infinite norm)")
    if norm_x == 0.0:
        raise ValueError("f has zero norm in X")
    return norm_x


def _warn_overlap(psiX: PsiSpec, psiY: PsiSpec):
    if max(psiX.a, psiX.b) > min(psiY.a, psiY.b):
        warnings.warn(
            "exponent supports overlap: msupp(X) is not below msupp(Y)",
            stacklevel=4,
        )


def _w_sp_at(f, psiX, psiY, K1, K2, kind):
    """W_SP as a function of (t, ||f||_X), once K1, K2 and kind are checked and (X, Y)
    warned about."""
    if not (0 < K1 < INF and 0 < K2 < INF):
        raise ValueError("constants K1, K2 must be positive and finite")
    if kind.kind == "schrodinger":
        raise ValueError("use v_sr for the dispersive group")
    _warn_overlap(psiX, psiY)
    expo = f.grid.dim / 2.0 if kind.kind == "heat" else f.grid.dim / kind.alpha

    def at(t: float, norm_x: float) -> float:
        norm_y = _profile_sup(propagate(f, kind, t), psiY)
        phi_y = fundamental_gls(psiY, K1 * t ** expo).value
        phi_x = fundamental_gls(psiX, K2 * t ** expo).value
        return (norm_y / phi_y) / (norm_x / phi_x)

    return at


def w_sp(
    f: GridFunction,
    psiX: PsiSpec,
    psiY: PsiSpec,
    t: float,
    K1: float = 1.0,
    K2: float = 1.0,
    kind: PropagatorKind = HEAT,
) -> float:
    """Parabolic two-space functional at time t for a single f.

    [||T_t f||_Y / phi(Y, K1 t^e)] / [||f||_X / phi(X, K2 t^e)] with
    e = d/2 for heat and d/alpha for the fractional flow.
    """
    _check_time(t)
    at = _w_sp_at(f, psiX, psiY, K1, K2, kind)
    return at(t, _admissible_x_norm(f, psiX))


def _v_sr_at(f, psiX, psiY, K, normalization):
    """V_SR as a function of (t, ||f||_X), once K and the normalization are checked and
    (X, Y) warned about."""
    if not 0 < K < INF:
        raise ValueError("constant K must be positive and finite")
    if normalization not in ("definition", "proof"):
        raise ValueError(f"unknown normalization {normalization!r}")
    _warn_overlap(psiX, psiY)
    if psiY.a < 2:
        warnings.warn("dispersive regime expects the Y support to start at >= 2", stacklevel=3)
    d = f.grid.dim

    def at(t: float, norm_x: float) -> float:
        norm_y = _profile_sup(propagate(f, SCHRODINGER, t), psiY)
        arg = K * t ** (-float(d)) if normalization == "definition" else t ** (d / 2.0)
        phi_x = fundamental_gls(psiX, arg).value
        return t ** (-d / 2.0) * norm_y / (norm_x * phi_x)

    return at


def v_sr(
    f: GridFunction,
    psiX: PsiSpec,
    psiY: PsiSpec,
    t: float,
    K: float = 1.0,
    normalization: str = "definition",
) -> float:
    """Dispersive two-space functional at time t for a single f.

    normalization="definition" divides by phi(X, K t^-d);
    normalization="proof" divides by phi(X, t^(d/2)) instead.
    """
    _check_time(t)
    at = _v_sr_at(f, psiX, psiY, K, normalization)
    return at(t, _admissible_x_norm(f, psiX))


@dataclass(frozen=True)
class FunctionalCurve:
    """Sampled functional (or norm-ratio) values over a time grid."""

    t_grid: np.ndarray
    values: np.ndarray
    exclusions: tuple = ()

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.size != v.size:
            raise ValueError("t_grid and values length mismatch")
        if (t[1:] <= t[:-1]).any():
            raise ValueError("t_grid must be strictly increasing")
        if not (t > 2).all():
            raise ValueError("all times must exceed 2")
        if not (np.isfinite(v) & (v > 0)).all():
            raise ValueError("curve values must be finite and positive")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)

    def fit(self, with_log: bool = False) -> "RateFit":
        return fit_rate(self.t_grid, self.values, with_log=with_log)


def _sweep(at, f, psiX, psiY, t_grid) -> FunctionalCurve:
    """at(t, ||f||_X) at each time, a ValueError excluding its time.  The weights and
    ||f||_X do not depend on t, so an uncovered weight or an f with no finite nonzero
    norm in X raises once, before the first time."""
    for psi in (psiX, psiY):
        _check_covered(psi)
    norm_x = _admissible_x_norm(f, psiX)
    ts, vals, excl = [], [], []
    for t in np.asarray(t_grid, dtype=float).tolist():
        try:
            _check_time(t)
            v = at(t, norm_x)
        except ValueError as e:
            excl.append((t, str(e)))
            continue
        if not (math.isfinite(v) and v > 0):
            excl.append((t, f"non-finite or nonpositive value {v}"))
            continue
        ts.append(t)
        vals.append(v)
    if not ts:
        raise ValueError("no admissible time samples in sweep")
    return FunctionalCurve(np.array(ts), np.array(vals), tuple(excl))


def w_sp_curve(f, psiX, psiY, t_grid, K1=1.0, K2=1.0, kind=HEAT) -> FunctionalCurve:
    return _sweep(_w_sp_at(f, psiX, psiY, K1, K2, kind), f, psiX, psiY, t_grid)


def v_sr_curve(f, psiX, psiY, t_grid, K=1.0, normalization="definition") -> FunctionalCurve:
    return _sweep(_v_sr_at(f, psiX, psiY, K, normalization), f, psiX, psiY, t_grid)


def mixed_norm(t_samples, y_samples, theta: PsiSpec) -> float:
    """Grand Lebesgue norm in time of a sampled curve t |-> ||u(t)||_Y on (0, T).

    Returns math.inf when the time integral diverges; divergence at t -> 0
    is detected from the local power-law exponent of the smallest samples.
    """
    t = np.asarray(t_samples, dtype=float)
    y = np.asarray(y_samples, dtype=float)
    if t.size < MIN_CURVE_SAMPLES:
        raise ValueError("curve must be sampled densely")
    if np.any(np.diff(t) <= 0) or np.any(t <= 0):
        raise ValueError("time samples must be positive and increasing")
    if np.any(y < 0):
        raise ValueError("curve values must be nonnegative")

    # local exponent near t -> 0 from the smallest samples
    k = min(8, t.size)
    pos = y[:k] > 0
    slope0 = 0.0
    if pos.sum() >= 4:
        lt, ly = np.log(t[:k][pos]), np.log(y[:k][pos])
        slope0 = float(np.polyfit(lt, ly, 1)[0])

    def h(q: float) -> float:
        if q == INF:
            return float(y.max())
        if slope0 * q <= -1.0 + 1e-9:
            return INF
        return float(np.trapezoid(y ** q, t)) ** (1.0 / q)

    return _gls_sup(lambda qs: np.array([h(qi) for qi in qs.tolist()]), theta)


@dataclass(frozen=True)
class PredictedRate:
    """Decay exponents t^power (log t)^log_power predicted for a configuration."""

    power: float
    log_power: float
    source: str


def predicted_rate(source: str, **params) -> PredictedRate:
    """Closed-form decay exponents.

    Sources:
      "parabolic-zeta"    heat flow between zeta-weight spaces
                          (d, a1, a2, alpha1, alpha2; requires a1 < a2)
      "schrodinger-zeta"  dispersive group between zeta-weight spaces
                          (d, b1, beta1; requires b1 <= 2)
      "fractional"        |S_alpha(t) f|_r vs |f|_p   (d, alpha, p, r)
      "fractional-laplacian"  the Laplacian-composed flow (d, alpha, p, r)
      "heat-lp"           |T_t f|_r vs |f|_p          (d, p, r; r > p)
      "schrodinger-lp"    |U_t f|_p vs |f|_p'         (d, p; p >= 2)
    """
    d = params["d"]
    if source == "parabolic-zeta":
        a1, a2 = params["a1"], params["a2"]
        b1, b2 = params.get("b1"), params.get("b2")
        if b1 is not None and b2 is not None:
            if not (1 <= a1 < b1 < a2 < b2):
                raise ValueError("need 1 <= a1 < b1 < a2 < b2")
        elif not 1 <= a1 < a2:
            raise ValueError("need 1 <= a1 < a2")
        power = -(d / 2.0) * (1.0 / a1 - 1.0 / a2)
        return PredictedRate(power, params.get("alpha2", 0.0) - params.get("alpha1", 0.0), source)
    if source == "schrodinger-zeta":
        b1 = params["b1"]
        if not 1 < b1 <= 2:
            raise ValueError("need 1 < b1 <= 2")
        b1c = b1 / (b1 - 1.0)
        power = d / 2.0 - d / b1c
        return PredictedRate(power, -params.get("beta1", 0.0), source)
    if source in ("fractional", "fractional-laplacian"):
        alpha, p, r = params["alpha"], params["p"], params["r"]
        if not 0 < alpha <= 2:
            raise ValueError("need alpha in (0, 2]")
        if not 1 <= p <= r:
            raise ValueError("need 1 <= p <= r")
        inv_r = 0.0 if r == INF else 1.0 / r
        inv_p = 0.0 if p == INF else 1.0 / p
        power = (d / alpha) * (inv_r - inv_p)
        if source == "fractional-laplacian":
            power -= 1.0 / alpha
        return PredictedRate(power, 0.0, source)
    if source == "heat-lp":
        p, r = params["p"], params["r"]
        if not (p >= 1 and r > p):
            raise ValueError("need r > p >= 1")
        inv_r = 0.0 if r == INF else 1.0 / r
        inv_p = 0.0 if p == INF else 1.0 / p
        return PredictedRate((d / 2.0) * (inv_r - inv_p), 0.0, source)
    if source == "schrodinger-lp":
        p = params["p"]
        if not p >= 2:
            raise ValueError("need p >= 2")
        inv_p = 0.0 if p == INF else 1.0 / p
        return PredictedRate(d * (inv_p - 0.5), 0.0, source)
    raise ValueError(f"unknown predicted-rate source {source!r}")


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of y(t) = C t^slope (log t)^log_exponent."""

    slope: float
    log_exponent: float
    intercept: float
    residual: float
    window: tuple
    n_samples: int


def fit_rate(t_grid, values, with_log: bool = False) -> RateFit:
    """Fit log y against {1, log t} or {1, log t, log log t}."""
    t = np.asarray(t_grid, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(f"rate fit needs at least {MIN_FIT_SAMPLES} samples")
    if np.any(y <= 0):
        raise ValueError("rate fit requires positive values")
    lt = np.log(t)
    ly = np.log(y)
    cols = [np.ones_like(lt), lt]
    if with_log:
        if np.any(lt <= 0):
            raise ValueError("log-corrected fit requires t > 1 throughout")
        cols.append(np.log(lt))
    A = np.vstack(cols).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ly) ** 2)))
    gamma = float(coef[2]) if with_log else 0.0
    return RateFit(
        slope=float(coef[1]),
        log_exponent=gamma,
        intercept=float(coef[0]),
        residual=resid,
        window=(float(t[0]), float(t[-1])),
        n_samples=int(t.size),
    )
