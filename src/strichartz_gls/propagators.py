"""Fourier-multiplier propagators on the periodic grid.

A flow is one record of its (order, rate) and one symbol on the dual grid
(xi_k = pi*k/L), exp(-rate t ||xi||^order): heat is (2, 1/2), schrodinger
(2, i/2) and fractional(a) (a, 1), a in (0, 2]; laplacian_propagate applies
-||xi||^2 exp(-t ||xi||^a).  Every per-flow formula reads the record; only
the Schrodinger group's rules read the name: it alone runs backward, has no
SP functional and has the dispersive window.  The fractional rate is 1, so
S_2(t) is the heat flow at doubled time; tests assert this identity.

An order-2 multiplier is the product m_1(xi_1) ... m_1(xi_d) of one one-axis
symbol, and in d = 1 every multiplier is.  A field given by one-axis factors
(the Gaussian, the box indicator) propagates under it factor by factor, once
per distinct factor, into a factored field (see grid_field): no N^d array is
built unless a caller reads its values.  Every other case takes the N^d
multiplier and GridFunction.spectrum, the cached fftn of f.  Either way each
part of the result is one _apply_multiplier.  At t = 0 the result is a new
field on f's own parts, with nothing copied.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid_field import Grid, GridFunction, _map_shared, _tensor_product


_RATES = {"heat": 0.5, "schrodinger": 0.5j, "fractional": 1.0}  # order: 2, or the fractional alpha


@dataclass(frozen=True)
class PropagatorKind:
    """A flow by name, and its multiplier exp(-rate t ||xi||^order), set from the name."""
    kind: str
    alpha: Optional[float] = None
    order: float = field(init=False)
    rate: complex = field(init=False)

    def __post_init__(self):
        if self.kind not in _RATES:
            raise ValueError(f"unknown propagator kind {self.kind!r}")
        if self.kind != "fractional" and self.alpha is not None:
            raise ValueError("alpha is only meaningful for the fractional kind")
        if self.kind == "fractional" and (self.alpha is None or not 0 < self.alpha <= 2):
            raise ValueError(f"fractional order must lie in (0, 2], got {self.alpha}")
        object.__setattr__(self, "order", self.alpha or 2.0)
        object.__setattr__(self, "rate", _RATES[self.kind])

    def check_time(self, t: float, name: str = "t"):
        """Raise ValueError, naming the time ``name``, unless t is finite and, for a flow
        other than schrodinger, t >= 0."""
        if not math.isfinite(t):
            raise ValueError(f"{name} holds the non-finite time {t:g}")
        if t < 0 and self.kind != "schrodinger":
            raise ValueError(f"{name} holds the negative time {t:g}: only the "
                             f"schrodinger flow runs backward, not {self.kind}")

    def sp_exponent(self, d: int) -> float:
        """The exponent d/order of the SP functional's scale t^e in d dimensions; the
        schrodinger group has no SP functional."""
        if self.kind == "schrodinger":
            raise ValueError("the schrodinger group has no SP functional: use the SR one")
        return d / self.order


HEAT = PropagatorKind("heat")
SCHRODINGER = PropagatorKind("schrodinger")


def fractional(alpha: float) -> PropagatorKind:
    return PropagatorKind("fractional", alpha)


def _symbol(kind: PropagatorKind, t: float, xi2: np.ndarray) -> np.ndarray:
    """exp(-rate t ||xi||^order) at the squared frequencies xi2.  The rate multiplies last,
    so the schrodinger symbol at xi = 0 is 1 + 0j, not 1 - 0j."""
    return np.exp(-t * xi2 ** (kind.order / 2.0) * kind.rate)


def _axis_symbol(grid: Grid, kind: PropagatorKind, t: float) -> Optional[np.ndarray]:
    """The one-axis symbol, in FFT order, of a flow whose multiplier is its product over
    the axes (order 2, or d = 1); None for another.  It depends on xi_k^2 = xi_(N-k)^2
    alone, so it is taken over the N/2 + 1 nonnegative frequencies and mirrored."""
    if kind.order != 2 and grid.dim > 1:
        return None
    n = grid.points_per_axis
    half = _symbol(kind, t, grid._axis_frequencies()[:n // 2 + 1] ** 2)
    return np.concatenate((half, half[n // 2 - 1:0:-1]))


def _multiplier(grid: Grid, kind: PropagatorKind, t: float) -> np.ndarray:
    m = _axis_symbol(grid, kind, t)
    if m is None:
        return _symbol(kind, t, grid.frequency_squared())
    return _tensor_product((m,) * grid.dim)


def _apply_multiplier(mult: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """One part of a propagated field: ifftn(mult * spectrum), taken in place on the
    product.  mult must be built for this product alone: when both are complex, it
    receives the product.  The operand order is fixed: with fused multiply-add the
    complex product is not bitwise commutative."""
    prod = np.multiply(mult, spectrum, out=mult if mult.dtype == spectrum.dtype else None)
    return np.fft.ifftn(prod, out=prod)


def propagate(f: GridFunction, kind: PropagatorKind, t: float) -> GridFunction:
    """The flow of the given kind at time t, applied through its multiplier; a factored
    f under a product flow gives a factored field, each factor propagated alone; at
    t = 0, a new field on f's own read-only parts."""
    kind.check_time(t)
    if t == 0:
        return copy.copy(f)
    m = _axis_symbol(f.grid, kind, t) if f.factors is not None else None
    if m is not None:  # the product may overwrite m: in d >= 2 each factor takes a copy
        return GridFunction(f.grid, factors=_map_shared(
            lambda s: _apply_multiplier(m if f.grid.dim == 1 else m.copy(), s),
            f._factor_spectra))
    return GridFunction(f.grid, _apply_multiplier(_multiplier(f.grid, kind, t), f.spectrum))


def laplacian_propagate(f: GridFunction, alpha: float, t: float) -> GridFunction:
    """Multiplier -||xi||^2 exp(-t ||xi||^alpha); t must be strictly positive."""
    kind = fractional(alpha)
    kind.check_time(t)
    if not t > 0:
        raise ValueError("laplacian_propagate requires t > 0")
    mult = -f.grid.frequency_squared() * _multiplier(f.grid, kind, t)
    return GridFunction(f.grid, _apply_multiplier(mult, f.spectrum))


def safe_time_bound(grid: Grid, kind: PropagatorKind, sigma2_real: float = 1.0) -> float:
    """Largest t for which the evolved profile's width stays within w = L/6: for order 2
    the variance s2 + 2 rate t <= w^2, but for schrodinger the envelope std
    sqrt(s2 + t^2/s2) <= w; for other orders the self-similar width t^(1/order) <= w."""
    w = grid.half_extent / 6.0
    if kind.kind == "schrodinger":
        val = (w * w - sigma2_real) * sigma2_real
        return math.sqrt(val) if val > 0 else 0.0
    if kind.order == 2:
        return (w * w - sigma2_real) / (2 * kind.rate)
    return w ** kind.order


def check_window(t_grid, grid: Grid, kind: PropagatorKind, sigma2_real: float = 1.0,
                 name: str = "t_grid"):
    """Raise ValueError, naming the times ``name``, when the least time fails check_time (a
    NaN anywhere makes it NaN) or the largest |t| lies beyond safe_time_bound."""
    tmin, tmax = float(np.min(t_grid)), float(np.max(t_grid))
    kind.check_time(tmin, name)
    bound = safe_time_bound(grid, kind, sigma2_real)
    if not max(tmax, -tmin) <= bound:
        worst = f"|min t| = {-tmin:g}" if -tmin > tmax else f"max t = {tmax:g}"
        raise ValueError(f"{name} exceeds the wrap-around-safe window: {worst} > "
                         f"safe bound {bound:.6g} for this grid ({kind.kind})")
