"""Weight families for Grand Lebesgue norms, the norms themselves, and
fundamental functions.

A weight psi lives on an exponent interval (a, b), 1 <= a < b <= inf, is
positive and continuous there, and bounded away from zero.  The norm of a
moment profile h is sup_p h(p)/psi(p); the fundamental function at delta
is sup_p delta^(1/p)/psi(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .grid_field import INF, MomentProfile

__all__ = [
    "ZetaParams",
    "PsiSpec",
    "FundamentalValue",
    "zeta_crossover",
    "zeta_eval",
    "exponent_grid",
    "gls_norm",
    "fundamental_gls",
    "fundamental_asymptotic",
]

CROSSOVER_TOL = 1e-12
PROFILE_MIN_OFFSET = 1e-3  # least offset from a and b of the exponents a norm samples


def zeta_crossover(a: float, b: float, alpha: float, beta: float) -> float:
    """Root h of (h-a)^alpha = (b-h)^beta (finite b) or = h^beta (b = inf).

    Bisection to 1e-12 absolute tolerance.  The alpha = 0 branch has no
    interior root in general; the conventional values h = b-1 (finite b,
    if inside the interval) and h = a (b = inf, a = 1) are used instead.
    """
    if not (1 <= a < b):
        raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")
    if b == INF:
        if not (alpha >= 0 and beta < 0):
            raise ValueError("b = inf requires alpha >= 0 and beta < 0")
        if alpha == 0:
            if not math.isclose(a, 1.0):
                raise ValueError("alpha = 0 with b = inf requires a = 1")
            return a
        fun = lambda h: (h - a) ** alpha - h ** beta
        lo = a + CROSSOVER_TOL
        hi = a + 1.0
        while fun(hi) < 0:
            hi = a + 2.0 * (hi - a)
    else:
        if min(alpha, beta) < 0:
            raise ValueError("finite b requires min(alpha, beta) >= 0")
        if alpha == 0 and beta == 0:
            return 0.5 * (a + b)
        if alpha == 0:
            h = b - 1.0
            if not a < h < b:
                raise ValueError("no crossover for alpha = 0 on this interval")
            return h
        if beta == 0:
            h = a + 1.0
            if not a < h < b:
                raise ValueError("no crossover for beta = 0 on this interval")
            return h
        fun = lambda h: (h - a) ** alpha - (b - h) ** beta
        lo, hi = a + CROSSOVER_TOL, b - CROSSOVER_TOL
        if fun(lo) > 0 or fun(hi) < 0:
            raise ValueError("crossover equation has no root on (a, b)")
    while hi - lo > CROSSOVER_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats spaced wider than the tolerance
            break
        if fun(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ZetaParams:
    """Piecewise power weight: (p-a)^alpha below the crossover h, then
    (b-p)^beta (finite b) or p^beta (b = inf)."""

    a: float
    b: float
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(
            self, "_h", zeta_crossover(self.a, self.b, self.alpha, self.beta)
        )

    @property
    def crossover(self) -> float:
        return self._h


def _check_inside(p, a: float, b: float):
    """Raise unless p, a float or every point of an array, lies in (a, b)."""
    lo, hi = (p.min(), p.max()) if isinstance(p, np.ndarray) else (p, p)
    if not a < lo <= hi < b:
        raise ValueError(f"p = {hi if a < lo else lo} outside ({a}, {b})")


def zeta_eval(params: ZetaParams, p):
    """zeta at p, a float or an array of exponents (a float in gives a float out).

    Each point takes one power, of the base and exponent of its own side of
    the crossover, so no side is evaluated where it could overflow."""
    _check_inside(p, params.a, params.b)
    far = p if params.b == INF else params.b - p
    if not isinstance(p, np.ndarray):
        return (p - params.a) ** params.alpha if p < params.crossover else far ** params.beta
    below = p < params.crossover
    return np.where(below, p - params.a, far) ** np.where(below, params.alpha, params.beta)


@dataclass(frozen=True)
class PsiSpec:
    """A weight on (a, b) defining a Grand Lebesgue norm.

    Variants: "zeta" (psi = 1/zeta), "degenerate" (plain L_s, a = b = s),
    "table" (log-linearly interpolated samples).
    """

    a: float
    b: float
    variant: str
    zeta_params: Optional[ZetaParams] = None
    s: Optional[float] = None
    table_p: Optional[np.ndarray] = None
    table_v: Optional[np.ndarray] = None

    @classmethod
    def zeta(cls, a: float, b: float, alpha: float, beta: float) -> "PsiSpec":
        return cls(a=a, b=b, variant="zeta", zeta_params=ZetaParams(a, b, alpha, beta))

    @classmethod
    def degenerate(cls, s: float) -> "PsiSpec":
        if not (s >= 1 or s == INF):
            raise ValueError(f"degenerate exponent must be >= 1, got {s}")
        return cls(a=s, b=s, variant="degenerate", s=s)

    @classmethod
    def table(cls, points: dict) -> "PsiSpec":
        p = np.array(sorted(float(k) for k in points), dtype=float)
        v = np.array([float(points[k]) for k in sorted(points, key=float)], dtype=float)
        if p.size < 2:
            raise ValueError("table weight needs at least two points")
        if not np.all((v > 0) & np.isfinite(v)):
            raise ValueError("table weight values must be positive and finite")
        return cls(a=float(p[0]), b=float(p[-1]), variant="table", table_p=p, table_v=v)

    @classmethod
    def constant(cls, value: float, a: float, b: float) -> "PsiSpec":
        return cls.table({a: value, b: value})

    def __post_init__(self):
        if self.variant not in ("zeta", "degenerate", "table"):
            raise ValueError(f"unknown weight variant {self.variant!r}")
        if self.variant != "degenerate" and not (1 <= self.a < self.b):
            raise ValueError(f"need 1 <= a < b, got ({self.a}, {self.b})")
        if self.variant == "table":
            object.__setattr__(self, "_log_v", np.log(self.table_v))

    def psi(self, p):
        """The weight at p, a float or an array of exponents (a float in gives a
        float out); +inf is a legal value only for degenerate."""
        if self.variant == "zeta":
            z = zeta_eval(self.zeta_params, p)
            if not isinstance(z, np.ndarray):
                return INF if z == 0.0 else 1.0 / z
            with np.errstate(divide="ignore", over="ignore"):  # z is 0.0 or subnormal
                return 1.0 / z
        if self.variant == "degenerate":
            w = np.where(p == self.s, 1.0, INF)
        else:  # table: log-linear interpolation in p
            _check_inside(p, self.a, self.b)
            w = np.exp(np.interp(p, self.table_p, self._log_v))
        return w if isinstance(p, np.ndarray) else float(w)

    def msupp(self) -> tuple:
        return (self.a, self.b)

    @cached_property
    def samples(self) -> tuple:
        """(exponents, weights) that a norm weighted by psi takes its sup over, built at
        first use and kept read-only: ([s], [1.0]) for a degenerate weight."""
        p = (np.array([self.s]) if self.variant == "degenerate" else
             exponent_grid(self.a, self.b, per_decade=64, min_offset=PROFILE_MIN_OFFSET))
        w = self.psi(p)
        p.flags.writeable = w.flags.writeable = False
        return p, w


def exponent_grid(
    a: float,
    b: float,
    per_decade: int = 64,
    min_offset: float = 1e-6,
    p_cap: Optional[float] = None,
) -> np.ndarray:
    """Geometric exponent grid on (a, b), refined toward the endpoints.

    Spacing is geometric in (p - a) (and in (b - p) for finite b) with at
    least `per_decade` points per decade of offset.
    """
    if b == INF:
        cap = p_cap if p_cap is not None else max(100.0, 8.0 * a)
        span = cap - a
        n = max(64, int(per_decade * math.log10(span / min_offset)) + 1)
        pts = a + np.geomspace(min_offset, span, n)
    else:
        half = 0.5 * (b - a)
        n = max(32, int(per_decade * math.log10(half / min_offset)) + 1)
        off = np.geomspace(min_offset, half, n)
        pts = np.concatenate([a + off, b - off])
    # an offset finer than the float spacing near a or b rounds onto the endpoint
    pts = np.unique(pts)
    return pts[(pts > a) & (pts < b)]


def _check_coverage(p_inside: np.ndarray, a: float, b: float):
    """Raise unless at least 64 exponents reach within 5% of each finite end of (a, b)."""
    span = max(1.0, a) if b == INF else b - a
    if not (p_inside.size >= 64 and p_inside[0] - a <= 0.05 * span
            and (b == INF or b - p_inside[-1] <= 0.05 * span)):
        raise ValueError(f"profile grid does not cover ({a}, {b}) densely enough")


def gls_norm(profile: MomentProfile, psi: PsiSpec) -> float:
    """sup over sampled p of h(p)/psi(p); h(s) for the degenerate variant.

    Returns math.inf as a distinguished value when some ratio is infinite.
    """
    if psi.variant == "degenerate":
        return profile.value_at(psi.s)
    inside = (profile.p_grid > psi.a) & (profile.p_grid < psi.b)
    p_in = profile.p_grid[inside]
    _check_coverage(p_in, psi.a, psi.b)
    return _weighted_sup(profile.values[inside], psi.psi(p_in))


def _weighted_sup(h: np.ndarray, w: np.ndarray) -> float:
    """sup of h/w over arrays h >= 0 and w >= 0: a zero h is skipped whatever its
    weight, and so is an infinite weight; h > 0 over a zero weight, or an
    infinite h over a finite one, gives inf; with no entry left the sup is 0.0."""
    ratio = np.zeros(h.shape)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(h, w, out=ratio, where=(h > 0) & (w < INF))
    return float(ratio.max(initial=0.0))


def _gls_sup(h_at: Callable[[np.ndarray], np.ndarray], psi: PsiSpec) -> float:
    """sup_p h(p)/psi(p) over the exponents psi samples, h_at mapping an increasing
    subset of them to h; a non-degenerate psi must cover its interval."""
    if psi.variant != "degenerate":
        _check_coverage(psi.samples[0], psi.a, psi.b)
    return _bounded_sup(h_at, *psi.samples)


def _bounded_sup(h_at: Callable[[np.ndarray], np.ndarray], p: np.ndarray, w: np.ndarray) -> float:
    """_weighted_sup(h_at(p), w), calling h_at only on exponents that can still set the sup.

    h_at maps an increasing subset of p to its values; p * log h(p) must be convex
    (Lyapunov, for a moment profile), so between evaluated exponents log h lies below
    the chord of p * log h over p.  Round 1 evaluates every 16th exponent and the
    last; each later round every exponent whose bound on log(h/w) is not below log
    of the best ratio so far less 1e-9 (rounding), until none is or the sup is inf.
    """
    h, done = np.zeros(p.size), np.zeros(p.size, dtype=bool)
    pick = np.union1d(np.arange(0, p.size, 16), [p.size - 1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_w = np.log(w)
        while pick.size:
            h[pick] = h_at(p[pick])
            done[pick] = True
            best = _weighted_sup(h[done], w[done])
            if best == INF:
                break
            known, todo = np.flatnonzero(done), np.flatnonzero(~done)
            r = np.searchsorted(known, todo)  # the first and last exponents are known
            left, right = known[r - 1], known[r]
            g = p * np.log(h)
            t = (p[todo] - p[left]) / (p[right] - p[left])
            log_bound = ((1.0 - t) * g[left] + t * g[right]) / p[todo] - log_w[todo]
            # a NaN bound (h = 0 next to h = inf) is evaluated, not pruned
            pick = todo[~(log_bound < np.log(best) - 1e-9)]
    return best


@dataclass(frozen=True)
class FundamentalValue:
    """Fundamental-function value at delta, with its computation method."""

    delta: float
    value: float
    method: str

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")


def _golden_max(fun: Callable[[float], float], lo: float, hi: float,
                rel_tol: float = 1e-12, max_iter: int = 200) -> tuple:
    """Golden-section maximization on [lo, hi]; returns (x, fun(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(max_iter):
        if hi - lo <= rel_tol * max(1.0, abs(lo) + abs(hi)):
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fun(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fun(x1)
    x = 0.5 * (lo + hi)
    return x, fun(x)


def fundamental_gls(psi: PsiSpec, delta: float) -> FundamentalValue:
    """sup_p delta^(1/p)/psi(p) by dense sampling plus golden-section refinement."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if psi.variant == "degenerate":
        val = 1.0 if psi.s == INF else delta ** (1.0 / psi.s)
        return FundamentalValue(delta, val, "numeric-sup")

    logd = math.log(delta)
    log_obj = lambda p: logd / p - math.log(psi.psi(p))

    p_cap = None
    if psi.b == INF:
        p_cap = max(100.0, 8.0 * psi.a, 8.0 * (abs(logd) + 1.0))
    grid = exponent_grid(psi.a, psi.b, per_decade=64, min_offset=1e-12, p_cap=p_cap)
    # in logs, where delta^(1/p)/psi cannot overflow; an infinite weight gives -inf
    vals = logd / grid - np.log(psi.psi(grid))
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    _, best = _golden_max(log_obj, float(lo), float(hi))
    best = max(best, float(vals[i]))
    return FundamentalValue(delta, math.exp(best), "numeric-sup")


def fundamental_asymptotic(params: ZetaParams, delta: float, regime: str) -> FundamentalValue:
    """Closed-form fundamental-function asymptotics for zeta-weight spaces.

    Regimes: "small" (delta < e^-2) with either finite b or b = inf, and
    "large" (delta > e^2, b = inf only).
    """
    a, b, alpha, beta = params.a, params.b, params.alpha, params.beta
    if regime == "small":
        if not delta < math.exp(-2.0):
            raise ValueError("small regime requires delta < e^-2")
        if b != INF:
            if min(alpha, beta) < 0:
                raise ValueError("finite-b small-delta form requires alpha, beta >= 0")
            pre = 1.0 if beta == 0 else (beta * b * b / math.e) ** beta
            val = pre * delta ** (1.0 / b) * abs(math.log(delta)) ** (-beta)
            return FundamentalValue(delta, val, "asymptotic-small-finite-b")
        if not beta < 0:
            raise ValueError("b = inf small-delta form requires beta < 0")
        m = abs(beta)
        val = m ** m * abs(math.log(delta)) ** (-m)
        return FundamentalValue(delta, val, "asymptotic-small-infinite-b")
    if regime == "large":
        if not delta > math.exp(2.0):
            raise ValueError("large regime requires delta > e^2")
        if not (b == INF and beta < 0):
            raise ValueError("large-delta form requires b = inf and beta < 0")
        pre = 1.0 if alpha == 0 else (a * a * alpha / math.e) ** alpha
        val = pre * delta ** (1.0 / a) * math.log(delta) ** (-a)
        return FundamentalValue(delta, val, "asymptotic-large")
    raise ValueError(f"unknown regime {regime!r}")
