"""Weight families for Grand Lebesgue norms, the norms themselves, and
fundamental functions.

A weight psi lives on an exponent interval (a, b), 1 <= a < b <= inf, is
positive and continuous there, and bounded away from zero.  PsiSpec is the one
weight record, checked at construction; check_interval states the rule
1 <= a < b for weights and exponent grids alike.  The norm of a
moment profile h is sup_p h(p)/psi(p); the fundamental function at delta
is sup_p delta^(1/p)/psi(p).  PsiSpec.samples builds the exponents a norm
samples, once per weight, and checks there that they cover (a, b).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .grid_field import INF, check_increasing


CROSSOVER_TOL = 1e-12
PROFILE_MIN_OFFSET = 1e-3  # least offset from a and b of the exponents a norm samples
GOLDEN_REL_TOL = 1e-12  # _golden_max stops at this bracket width over max(1, |lo| + |hi|)
GOLDEN_MAX_ITER = 200
TAIL_STEPS = 58  # exponents from P to 8 P past a b = inf weight's samples: 64 per decade
ASYMPTOTIC_REGIMES = ("small", "large")  # of fundamental_asymptotic


def check_interval(a: float, b: float):
    """Raise ValueError unless 1 <= a < b: the exponent interval of a weight or a grid."""
    if not 1 <= a < b:
        raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")


def zeta_crossover(a: float, b: float, alpha: float, beta: float) -> float:
    """Root h of (h-a)^alpha = (b-h)^beta (finite b) or = h^beta (b = inf).

    Bisection to 1e-12 absolute tolerance.  The alpha = 0 branch has no
    interior root in general; the conventional values h = b-1 (finite b,
    if inside the interval) and h = a (b = inf, a = 1) are used instead.
    """
    check_interval(a, b)
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
        if hi == a:  # the root lies below a + 1, as (h - a)^alpha = h^beta < 1 there
            raise ValueError(f"crossover lies within one float spacing of a = {a:g}")
    else:
        if min(alpha, beta) < 0:
            raise ValueError("finite b requires min(alpha, beta) >= 0")
        if alpha == 0 and beta == 0:
            return 0.5 * (a + b)
        if alpha == 0 or beta == 0:
            h = b - 1.0 if alpha == 0 else a + 1.0
            if not a < h < b:
                raise ValueError(f"no crossover for {'alpha' if alpha == 0 else 'beta'} = 0 "
                                 "on this interval")
            return h

        def fun(h):  # its sign alone is read
            try:
                return (h - a) ** alpha - (b - h) ** beta
            except OverflowError:  # a steep side: compare the two in logs
                return alpha * math.log(h - a) - beta * math.log(b - h)
        lo, hi = a + CROSSOVER_TOL, b - CROSSOVER_TOL
        if fun(lo) > 0 or fun(hi) < 0:  # fun increases, so its root lies that near an end
            name, end = ("a", a) if fun(lo) > 0 else ("b", b)
            raise ValueError(f"crossover lies within {CROSSOVER_TOL:g} of {name} = {end:g}")
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
class PsiSpec:
    """A weight on (a, b) defining a Grand Lebesgue norm.

    Variants: "zeta" (psi = 1/zeta, zeta the piecewise power (p-a)^alpha below the
    crossover, then (b-p)^beta for finite b or p^beta for b = inf), "degenerate"
    (plain L_s, a = b = s), "table" (log-linearly interpolated samples).  Two weights
    are equal, and hash equal, when their parameters are: a table's are its (p, psi)
    points, a tuple of floats, however its keys were written.
    """

    a: float
    b: float
    variant: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    table_p: Optional[np.ndarray] = field(default=None, compare=False)
    table_v: Optional[np.ndarray] = field(default=None, compare=False)
    crossover: Optional[float] = field(default=None, init=False)  # of a zeta weight
    points: tuple = field(default=(), init=False)  # of a table weight

    @classmethod
    def zeta(cls, a: float, b: float, alpha: float, beta: float) -> "PsiSpec":
        return cls(a, b, "zeta", alpha=alpha, beta=beta)

    @classmethod
    def degenerate(cls, s: float) -> "PsiSpec":
        return cls(a=s, b=s, variant="degenerate")

    @classmethod
    def table(cls, points: dict) -> "PsiSpec":
        """Samples {p: psi(p)}; a key may be a number or its string, one key per exponent."""
        keys = sorted(points, key=float)
        p = np.array([float(k) for k in keys], dtype=float)
        v = np.array([float(points[k]) for k in keys], dtype=float)
        ends = (float(p[0]), float(p[-1])) if p.size else (math.nan, math.nan)
        return cls(*ends, "table", table_p=p, table_v=v)

    def __post_init__(self):
        if self.variant == "degenerate":
            if not self.a == self.b >= 1:
                raise ValueError(f"degenerate exponent must be >= 1, got a={self.a}, b={self.b}")
        elif self.variant == "zeta":
            if self.alpha is None or self.beta is None:
                raise ValueError("a zeta weight needs alpha and beta")
            object.__setattr__(self, "crossover",  # zeta_crossover checks 1 <= a < b
                               zeta_crossover(self.a, self.b, self.alpha, self.beta))
        elif self.variant == "table":
            p, v = (np.asarray(x, dtype=float) for x in (self.table_p, self.table_v))
            if p.size < 2 or v.shape != p.shape:
                raise ValueError("table weight needs at least two points")
            if not np.all(np.isfinite(p)):
                raise ValueError("table weight exponents must be finite")
            check_increasing(p, "table weight exponents")
            if not np.all((v > 0) & np.isfinite(v)):
                raise ValueError("table weight values must be positive and finite")
            if (self.a, self.b) != (p[0], p[-1]):
                raise ValueError("table weight exponents must run from a to b")
            check_interval(self.a, self.b)
            object.__setattr__(self, "_log_v", np.log(v))
            object.__setattr__(self, "points", tuple(zip(p.tolist(), v.tolist())))
        else:
            raise ValueError(f"unknown weight variant {self.variant!r}")

    def psi(self, p):
        """The weight at p, a float or an array of exponents (a float in gives a
        float out); +inf is a legal value only for degenerate.  Each point of a zeta
        weight takes one power, of the base and exponent of its own side of the
        crossover, so no side is evaluated where it could overflow."""
        if self.variant == "degenerate":
            w = np.where(p == self.a, 1.0, INF)
            return w if isinstance(p, np.ndarray) else float(w)
        lo, hi = (p.min(), p.max()) if isinstance(p, np.ndarray) else (p, p)
        if not self.a < lo <= hi < self.b:
            raise ValueError(f"p = {hi if self.a < lo else lo} outside ({self.a}, {self.b})")
        if not isinstance(p, np.ndarray):
            return self._psi_at(p)
        if self.variant == "table":
            return np.exp(np.interp(p, self.table_p, self._log_v))
        below = p < self.crossover
        far = p if self.b == INF else self.b - p
        with np.errstate(divide="ignore", over="ignore"):  # zeta is 0.0 or subnormal
            return 1.0 / np.where(below, p - self.a, far) ** np.where(below, self.alpha, self.beta)

    def _psi_at(self, p: float) -> float:
        """The zeta or table weight at one exponent p, unchecked: p must lie in (a, b).
        A table weight interpolates log-linearly in p."""
        if self.variant == "table":
            return float(np.exp(np.interp(p, self.table_p, self._log_v)))
        z = ((p - self.a) ** self.alpha if p < self.crossover
             else (p if self.b == INF else self.b - p) ** self.beta)
        return INF if z == 0.0 else 1.0 / z

    @cached_property
    def samples(self) -> tuple:
        """(exponents, weights) that a norm weighted by psi takes its sup over, built at
        first use and kept read-only: ([s], [1.0]) for a degenerate weight.  Raises
        CoverageError, at every use, unless 64 exponents or more reach within 5% of each
        finite end of (a, b)."""
        a, b = self.a, self.b
        p = (np.array([a]) if self.variant == "degenerate" else
             exponent_grid(a, b, per_decade=64, min_offset=PROFILE_MIN_OFFSET))
        w = self.psi(p)
        span = max(1.0, a) if b == INF else b - a
        if self.variant != "degenerate" and not (p.size >= 64 and p[0] - a <= 0.05 * span
                                                 and (b == INF or b - p[-1] <= 0.05 * span)):
            raise CoverageError(f"profile grid does not cover ({a}, {b}) densely enough")
        p.flags.writeable = w.flags.writeable = False
        return p, w

    def _fundamental_samples(self, p_cap: Optional[float]) -> tuple:
        """(exponents, log psi) that fundamental_gls samples up to p_cap (None for a finite
        b), kept read-only for the last cap asked for, so one grid at most stays alive."""
        cached = self.__dict__.get("_fundamental_cache")
        if cached is None or cached[0] != p_cap:
            p = exponent_grid(self.a, self.b, per_decade=64, min_offset=1e-12, p_cap=p_cap)
            log_w = np.log(self.psi(p))
            p.flags.writeable = log_w.flags.writeable = False
            cached = self.__dict__["_fundamental_cache"] = (p_cap, p, log_w)
        return cached[1:]


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
    check_interval(a, b)
    span = ((p_cap if p_cap is not None else max(100.0, 8.0 * a)) - a if b == INF
            else 0.5 * (b - a))
    if not span / min_offset < INF:
        raise ValueError(f"({a:g}, {b:g}) is too wide to grid: offsets reach {span:g}")
    n = max(64 if b == INF else 32, int(per_decade * math.log10(span / min_offset)) + 1)
    off = np.geomspace(min_offset, span, n)
    pts = a + off if b == INF else np.concatenate([a + off, b - off])
    # an offset finer than the float spacing near a or b rounds onto the endpoint or onto
    # the next offset: once sorted, each such repeat lies next to its equal
    pts.sort()
    keep = (pts > a) & (pts < b)
    keep[1:] &= pts[1:] != pts[:-1]
    return pts[keep]


class CoverageError(ValueError):
    """An exponent grid too sparse near an end of its weight's interval: a fault of the
    numerical domain of the weight, not of how a config states it."""


def check_covered(psi: PsiSpec, name: str) -> PsiSpec:
    """psi, its samples built; a CoverageError names the weight ``name``."""
    try:
        psi.samples
    except CoverageError as e:
        raise CoverageError(f"weight {name}: {e}") from None
    return psi


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
    subset of them, or [inf], to h.  A degenerate psi is 1 at its one exponent s, so its
    sup is h(s) >= 0, with nothing to prune.

    For b = inf the sup over p > P, the last exponent, is certified: log h(p) is convex
    in 1/p and psi increases past the crossover (below P), so h(p)/psi(p) <= max(h(P),
    h(inf)) / psi(P) there.  While that bound beats the sup so far, the exponents extend
    from P to 8 P, 64 per decade as in PsiSpec.samples, and P moves to 8 P."""
    if psi.variant == "degenerate":
        return float(h_at(psi.samples[0])[0])
    p, w = psi.samples
    best, h_end = _bounded_sup(h_at, p, w)
    if psi.b < INF or best == INF:
        return best
    h_inf = float(h_at(np.array([INF]))[0])
    while max(h_end, h_inf) / w[-1] > best:
        p = p[-1] * np.geomspace(1.0, 8.0, TAIL_STEPS + 1)[1:]
        w = psi.psi(p)
        tail, h_end = _bounded_sup(h_at, p, w)
        best = max(best, tail)
    return best


def _bounded_sup(h_at: Callable[[np.ndarray], np.ndarray], p: np.ndarray, w: np.ndarray) -> tuple:
    """(_weighted_sup(h_at(p), w), h at the last exponent), calling h_at only on exponents
    that can still set the sup.

    h_at maps an increasing subset of p to its values; p * log h(p) must be convex
    (Lyapunov, for a moment profile), so between evaluated exponents log h lies below
    the chord of p * log h over p.  Round 1 evaluates every 16th exponent and the
    last; each later round every exponent whose bound on log(h/w) is not below log
    of the best ratio so far less 1e-9 (rounding), until none is or the sup is inf.
    """
    h, done = np.zeros(p.size), np.zeros(p.size, dtype=bool)
    pick = np.append(np.arange(0, p.size - 1, 16), p.size - 1)
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
    return best, float(h[-1])


def _golden_max(fun: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section maximization on [lo, hi]; returns fun at the final bracket's midpoint."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(GOLDEN_MAX_ITER):
        if hi - lo <= GOLDEN_REL_TOL * max(1.0, abs(lo) + abs(hi)):
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fun(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fun(x1)
    return fun(0.5 * (lo + hi))


def fundamental_gls(psi: PsiSpec, delta: float) -> float:
    """sup_p delta^(1/p)/psi(p) by dense sampling plus golden-section refinement; a value
    outside the normal positive floats raises, naming delta."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if psi.variant == "degenerate":
        value = delta ** (1.0 / psi.a)
    else:
        logd = math.log(delta)
        # _golden_max's exponents lie between two of the grid's, so inside (a, b)
        log_obj = lambda p: logd / p - math.log(psi._psi_at(p))

        # b = inf: the cap lies past the argmax log(delta) / beta above the crossover
        p_cap = (max(100.0, 8.0 * psi.a, 8.0 * (abs(logd) + 1.0), 2.0 * logd / psi.beta)
                 if psi.b == INF else None)
        grid, log_psi = psi._fundamental_samples(p_cap)
        # in logs, where delta^(1/p)/psi cannot overflow; an infinite weight gives -inf
        vals = logd / grid - log_psi
        i = int(np.argmax(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, grid.size - 1)]
        try:
            value = math.exp(max(_golden_max(log_obj, float(lo), float(hi)), float(vals[i])))
        except OverflowError:
            raise OverflowError(f"evaluating the fundamental function overflows a float at "
                                f"delta = {delta:g}") from None
    if value < sys.float_info.min:  # 0.0 or subnormal
        raise FloatingPointError(f"evaluating the fundamental function underflows a float at "
                                 f"delta = {delta:g}")
    return value


def check_regime(regime: str, psi: PsiSpec):
    """Raise ValueError unless the weight psi admits the asymptotic regime."""
    if (regime not in ASYMPTOTIC_REGIMES or psi.variant != "zeta"
            or regime == "large" and psi.b < INF):
        raise ValueError(f"no {regime!r} asymptotic for this weight: the small-delta one needs "
                         "a zeta weight, the large-delta one a zeta weight with b = inf")


def fundamental_asymptotic(psi: PsiSpec, delta: float, regime: str) -> float:
    """Closed-form fundamental-function asymptotics for zeta-weight spaces, in a regime
    that check_regime admits for psi: "small" (0 < delta < e^-2) or "large" (delta > e^2)."""
    check_regime(regime, psi)
    small = regime == "small"
    if not (0 < delta < math.exp(-2.0) if small else delta > math.exp(2.0)):
        raise ValueError(f"the {regime}-delta asymptotic needs "
                         f"{'0 < delta < e^-2' if small else 'delta > e^2'}, got {delta:g}")
    a, b, alpha, beta = psi.a, psi.b, psi.alpha, psi.beta
    try:
        if small and b == INF:
            m = abs(beta)  # a zeta weight has beta < 0 for b = inf, alpha, beta >= 0 otherwise
            try:
                value = m ** m * abs(math.log(delta)) ** (-m)
            except OverflowError:  # m^m alone overflows for m above about 143
                value = math.exp(m * math.log(m) - m * math.log(abs(math.log(delta))))
        elif small:
            pre = 1.0 if beta == 0 else (beta * b * b / math.e) ** beta
            value = pre * delta ** (1.0 / b) * abs(math.log(delta)) ** (-beta)
        else:
            pre = 1.0 if alpha == 0 else (a * a * alpha / math.e) ** alpha
            value = pre * delta ** (1.0 / a) * math.log(delta) ** (-a)
    except OverflowError:
        value = INF
    if not 0 < value < INF:  # the asymptotic is positive: 0 is an underflow
        raise (OverflowError if value else FloatingPointError)(
            f"evaluating the {regime}-delta asymptotic {'over' if value else 'under'}flows a "
            f"float at delta = {delta:g}")
    return value
