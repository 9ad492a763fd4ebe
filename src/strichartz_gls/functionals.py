"""Two-space decay functionals, mixed space-time norms, predicted decay
rates, and power-law-with-log-correction fitting.

The parabolic functional compares the evolved norm in Y against the
initial norm in X, each divided by the fundamental function of its space
at the diffusive scale t^(d/2).  The dispersive (group) functional uses
t^(-d/2) ||U_t f||_Y / (||f||_X phi(X, K t^-d)); a switch selects the
alternative phi(X, t^(d/2)) normalization.  Each functional is its curve
over a time grid (w_sp_curve, v_sr_curve); a single time is a one-time grid.
A sweep checks its inputs once, up front, and returns a plain FunctionalCurve; the
order of its times, as of mixed_norm's, is grid_field.check_increasing's rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid_field import INF, GridFunction, check_increasing, moment_profile
from .propagators import HEAT, SCHRODINGER, fractional, propagate
from .spaces import PROFILE_MIN_OFFSET  # noqa: F401 (re-export)
from .spaces import PsiSpec, _gls_sup, check_covered, fundamental_gls


MIN_CURVE_SAMPLES = 8  # mixed_norm's least number of time samples
MIN_FIT_SAMPLES = 4    # fit_rate's least number of samples
PREDICTED_SOURCES = ("parabolic-zeta", "schrodinger-zeta", "fractional", "fractional-laplacian",
                     "heat-lp", "schrodinger-lp")


def space_norm(f: GridFunction, psi: PsiSpec) -> float:
    """The norm of f weighted by psi, its moment profile taken only where it can set the sup."""
    return _gls_sup(lambda q: moment_profile(f, q).values, psi)


def x_norm(f: GridFunction, psiX: PsiSpec) -> float:
    """||f||_X, a ValueError unless finite and nonzero: the functionals divide by it."""
    if (norm_x := space_norm(f, psiX)) in (0.0, INF):
        raise ValueError(f"f is not admissible in X: its norm is {norm_x:g}")
    return norm_x


def check_domain(t: float, name: str = "t"):
    """Raise ValueError, naming the time ``name``, unless t > 2: the functionals' domain."""
    if not t > 2:
        raise ValueError(f"functionals are defined for t > 2, got {name}={t}")


def _warn_overlap(psiX: PsiSpec, psiY: PsiSpec):
    if max(psiX.a, psiX.b) > min(psiY.a, psiY.b):
        warnings.warn("exponent supports overlap: msupp(X) is not below msupp(Y)", stacklevel=3)


@dataclass(frozen=True, eq=False)
class FunctionalCurve:
    """A functional's finite positive values at the increasing times t > 2 it kept, and
    (t, reason) for each time it excluded: a plain record, built by _sweep alone."""

    t_grid: np.ndarray
    values: np.ndarray
    exclusions: tuple = ()


def _sweep(at, f, kind, psiX, psiY, t_grid) -> FunctionalCurve:
    """at(t, ||flow_t f||_Y, ||f||_X) at each time t > 2 of a strictly increasing grid, a
    ValueError excluding its time.  The weights, the grid and ||f||_X do not depend on t, so
    an uncovered weight (named X or Y), a grid that does not increase or an f with no
    finite nonzero norm in X raises once, before the first time."""
    check_covered(psiX, "X")
    check_covered(psiY, "Y")
    t_grid = check_increasing(t_grid, "t_grid")
    norm_x = x_norm(f, psiX)
    ts, vals, excl = [], [], []
    for t in t_grid.tolist():
        try:
            check_domain(t)
            v = at(t, space_norm(propagate(f, kind, t), psiY), norm_x)
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
    """Parabolic two-space functional of a single f over a time grid.

    [||T_t f||_Y / phi(Y, K1 t^e)] / [||f||_X / phi(X, K2 t^e)] with
    e = kind.sp_exponent(d): d/2 for heat and d/alpha for the fractional flow.
    """
    if not (0 < K1 < INF and 0 < K2 < INF):
        raise ValueError("constants K1, K2 must be positive and finite")
    expo = kind.sp_exponent(f.grid.dim)
    _warn_overlap(psiX, psiY)

    def at(t: float, norm_y: float, norm_x: float) -> float:
        phi_y = fundamental_gls(psiY, K1 * t ** expo)
        phi_x = fundamental_gls(psiX, K2 * t ** expo)
        return (norm_y / phi_y) / (norm_x / phi_x)

    return _sweep(at, f, kind, psiX, psiY, t_grid)


def v_sr_curve(f, psiX, psiY, t_grid, K=1.0, normalization="definition") -> FunctionalCurve:
    """Dispersive two-space functional of a single f over a time grid.

    normalization="definition" divides by phi(X, K t^-d);
    normalization="proof" divides by phi(X, t^(d/2)) instead.
    """
    if not 0 < K < INF:
        raise ValueError("constant K must be positive and finite")
    if normalization not in ("definition", "proof"):
        raise ValueError(f"unknown normalization {normalization!r}")
    _warn_overlap(psiX, psiY)
    if psiY.a < 2:
        warnings.warn("dispersive regime expects the Y support to start at >= 2", stacklevel=2)
    d = f.grid.dim

    def at(t: float, norm_y: float, norm_x: float) -> float:
        arg = K * t ** (-float(d)) if normalization == "definition" else t ** (d / 2.0)
        phi_x = fundamental_gls(psiX, arg)
        return t ** (-d / 2.0) * norm_y / (norm_x * phi_x)

    return _sweep(at, f, SCHRODINGER, psiX, psiY, t_grid)


def mixed_norm(t_samples, y_samples, theta: PsiSpec) -> float:
    """Grand Lebesgue norm in time of a sampled curve t |-> ||u(t)||_Y on (0, T).

    Returns math.inf when the time integral diverges; divergence at t -> 0
    is detected from the local power-law exponent of the smallest samples.
    The times must be finite, positive and increasing, the samples >= 0 (not NaN).
    """
    t, y = np.asarray(t_samples, dtype=float), np.asarray(y_samples, dtype=float)
    if t.size < MIN_CURVE_SAMPLES:
        raise ValueError("curve must be sampled densely")
    check_increasing(t, "t_samples")
    if not 0 < t[0] <= t[-1] < INF:
        raise ValueError(f"t_samples must be positive and finite, got {t[0]:g} to {t[-1]:g}")
    if not (y >= 0).all():  # a NaN fails it
        raise ValueError("curve values must be nonnegative")

    # local exponent near t -> 0 from the smallest samples
    k = min(8, t.size)
    pos = y[:k] > 0
    slope0 = 0.0
    if pos.sum() >= 4:
        lt, ly = np.log(t[:k][pos]), np.log(y[:k][pos])
        slope0 = float(np.polyfit(lt, ly, 1)[0])

    y_max = float(y.max())

    def h(q: float) -> float:
        if q == INF:
            return y_max
        if slope0 * q <= -1.0 + 1e-9:
            return INF
        with np.errstate(over="ignore"):  # an overflowing integrand diverges: inf
            v = float(np.trapezoid(y ** q, t)) ** (1.0 / q)
        if v == INF and y_max < INF:  # a finite y whose q-th power overflows: scale by y_max
            v = y_max * float(np.trapezoid((y / y_max) ** q, t)) ** (1.0 / q)
        return v

    return _gls_sup(lambda qs: np.array([h(qi) for qi in qs.tolist()]),
                    check_covered(theta, "theta"))


@dataclass(frozen=True)
class PredictedRate:
    """Decay exponents t^power (log t)^log_power predicted for a configuration."""

    power: float
    log_power: float


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
        return PredictedRate(power, params.get("alpha2", 0.0) - params.get("alpha1", 0.0))
    if source == "schrodinger-zeta":
        b1 = params["b1"]
        if not 1 < b1 <= 2:
            raise ValueError("need 1 < b1 <= 2")
        b1c = b1 / (b1 - 1.0)
        power = d / 2.0 - d / b1c
        return PredictedRate(power, -params.get("beta1", 0.0))
    if source in ("fractional", "fractional-laplacian"):
        alpha, p, r = params["alpha"], params["p"], params["r"]
        fractional(alpha)  # raises unless 0 < alpha <= 2
        if not 1 <= p <= r:
            raise ValueError("need 1 <= p <= r")
        power = (d / alpha) * (1.0 / r - 1.0 / p)
        if source == "fractional-laplacian":
            power -= 1.0 / alpha
        return PredictedRate(power, 0.0)
    if source == "heat-lp":
        p, r = params["p"], params["r"]
        if not (p >= 1 and r > p):
            raise ValueError("need r > p >= 1")
        return PredictedRate((d / 2.0) * (1.0 / r - 1.0 / p), 0.0)
    if source == "schrodinger-lp":
        p = params["p"]
        if not p >= 2:
            raise ValueError("need p >= 2")
        return PredictedRate(d * (1.0 / p - 0.5), 0.0)
    raise ValueError(f"unknown predicted-rate source {source!r}")


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of y(t) = C t^slope (log t)^log_exponent."""

    slope: float
    log_exponent: float
    intercept: float
    residual: float
    n_samples: int


def check_fit_times(t_grid, with_log: bool = False):
    """Raise ValueError unless fit_rate can take t_grid: it needs log t, and log log t with_log."""
    t, least = np.asarray(t_grid, dtype=float), float(with_log)
    if t.size < MIN_FIT_SAMPLES or not t.min(initial=INF) > least:
        raise ValueError(f"t_grid: the rate fit{' with_log' if with_log else ''} needs at least "
                         f"{MIN_FIT_SAMPLES} times, each above {least:g}; got {t.size}, the "
                         f"least {t.min(initial=INF):g}")
    if not t.max() < INF:
        raise ValueError(f"t_grid: the rate fit needs finite times, got {t.max():g}")


def fit_rate(t_grid, values, with_log: bool = False) -> RateFit:
    """Fit log y against {1, log t} or {1, log t, log log t}."""
    t = np.asarray(t_grid, dtype=float)
    y = np.asarray(values, dtype=float)
    check_fit_times(t, with_log)
    if not ((y > 0) & (y < INF)).all():  # a NaN fails it
        raise ValueError("rate fit requires positive finite values")
    lt = np.log(t)
    ly = np.log(y)
    cols = [np.ones_like(lt), lt]
    if with_log:
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
        n_samples=int(t.size),
    )
