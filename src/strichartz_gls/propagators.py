"""Fourier-multiplier propagators on the periodic grid.

Multipliers on the dual grid (xi_k = pi*k/L):
  heat            exp(-t ||xi||^2 / 2)
  schrodinger     exp(-i t ||xi||^2 / 2)
  fractional(a)   exp(-t ||xi||^a),  a in (0, 2]
  laplacian       -||xi||^2 exp(-t ||xi||^a)  (laplacian_propagate)

Note the fractional multiplier at a = 2 has no 1/2, so S_2(t) equals the
heat flow at doubled time; this identity is asserted in tests rather than
hidden by renormalizing.

The heat, Schrodinger and order-2 fractional multipliers are products
m_1(xi_1) ... m_1(xi_d) of one one-axis symbol (in d = 1 every multiplier
is).  A GridFunction given by one-axis factors (the Gaussian and the box
indicator are) propagates under such a flow factor by factor, once per
distinct factor, into a factored field whose norms are taken from its
factors (see grid_field): no N^d array is built unless a caller reads its
values.  Every other case (fractional orders other than 2 in d >= 2,
laplacian_propagate, sums of fields, convolutions) takes the N^d
multiplier and GridFunction.spectrum, the cached fftn of f.  Either way
each part of the result is one _apply_multiplier.  At t = 0 the result is
a new field on f's own parts, of either kind, with nothing copied.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid_field import GaussianSpec, Grid, GridFunction, _map_shared, _tensor_product

__all__ = [
    "PropagatorKind",
    "HEAT",
    "SCHRODINGER",
    "fractional",
    "propagate",
    "propagate_gaussian_exact",
    "laplacian_propagate",
    "safe_time_bound",
    "check_window",
]


@dataclass(frozen=True)
class PropagatorKind:
    kind: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("heat", "schrodinger", "fractional"):
            raise ValueError(f"unknown propagator kind {self.kind!r}")
        if self.kind == "fractional":
            if self.alpha is None or not 0 < self.alpha <= 2:
                raise ValueError(f"fractional order must lie in (0, 2], got {self.alpha}")
        elif self.alpha is not None:
            raise ValueError("alpha is only meaningful for the fractional kind")

    def check_time(self, t: float, name: str = "t"):
        """Raise ValueError, naming the time ``name``, if t < 0 and the flow is not schrodinger."""
        if t < 0 and self.kind != "schrodinger":
            raise ValueError(f"{name} holds the negative time {t:g}: only the "
                             f"schrodinger flow runs backward, not {self.kind}")

    def sp_exponent(self, d: int) -> float:
        """The exponent e of the SP functional's scale t^e in d dimensions: d/2 for heat,
        d/alpha for the fractional flow; the schrodinger group has no SP functional."""
        if self.kind == "schrodinger":
            raise ValueError("the schrodinger group has no SP functional: use the SR one")
        return d / 2.0 if self.kind == "heat" else d / self.alpha


HEAT = PropagatorKind("heat")
SCHRODINGER = PropagatorKind("schrodinger")


def fractional(alpha: float) -> PropagatorKind:
    return PropagatorKind("fractional", alpha)


def _axis_symbol(grid: Grid, kind: PropagatorKind, t: float) -> Optional[np.ndarray]:
    """The one-axis symbol, in FFT order, of a flow whose multiplier is its product over
    the axes (heat, Schrodinger, fractional of order 2 or in d = 1); None for another.
    It depends on xi_k^2 = xi_(N-k)^2 alone, so its exponential is taken over the
    N/2 + 1 nonnegative frequencies and mirrored."""
    if kind.kind == "fractional" and kind.alpha != 2 and grid.dim > 1:
        return None
    n = grid.points_per_axis
    xi2 = grid._axis_frequencies()[:n // 2 + 1] ** 2
    if kind.kind == "heat":
        half = np.exp(-t * xi2 / 2.0)
    elif kind.kind == "schrodinger":
        half = np.exp(-1j * t * xi2 / 2.0)
    else:
        half = np.exp(-t * xi2 ** (kind.alpha / 2.0))
    return np.concatenate((half, half[n // 2 - 1:0:-1]))


def _multiplier(grid: Grid, kind: PropagatorKind, t: float) -> np.ndarray:
    m = _axis_symbol(grid, kind, t)
    if m is None:
        # ||xi||^alpha = (||xi||^2)^(alpha/2); the zero mode gives exp(0) = 1
        return np.exp(-t * grid.frequency_squared() ** (kind.alpha / 2.0))
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


def propagate_gaussian_exact(spec: GaussianSpec, kind: PropagatorKind, t: float) -> complex:
    """The variance after time t: heat s2 -> s2 + t; schrodinger s2 -> s2 + i t;
    fractional order 2 s2 -> s2 + 2t (S_2(t) = T_2t)."""
    s2 = complex(spec.sigma2)
    if kind.kind == "schrodinger":
        return s2 + 1j * t
    if kind.kind == "fractional" and kind.alpha != 2:
        raise ValueError("exact Gaussian evolution covers heat, schrodinger and order 2 only")
    kind.check_time(t)
    rate = 1.0 if kind.kind == "heat" else 2.0
    return s2 + rate * t


def laplacian_propagate(f: GridFunction, alpha: float, t: float) -> GridFunction:
    """Multiplier -||xi||^2 exp(-t ||xi||^alpha); t must be strictly positive."""
    kind = fractional(alpha)
    if not t > 0:
        raise ValueError("laplacian_propagate requires t > 0")
    mult = -f.grid.frequency_squared() * _multiplier(f.grid, kind, t)
    return GridFunction(f.grid, _apply_multiplier(mult, f.spectrum))


def safe_time_bound(grid: Grid, kind: PropagatorKind, sigma2_real: float = 1.0) -> float:
    """Largest t for which the evolved profile stays inside the 6-width box.

    Heat: sqrt(s2 + t) <= L/6; schrodinger: envelope std sqrt(s2 + t^2/s2)
    <= L/6; fractional: self-similar width t^(1/alpha) <= L/6.
    """
    w = grid.half_extent / 6.0
    if kind.kind == "heat":
        return w * w - sigma2_real
    if kind.kind == "schrodinger":
        val = (w * w - sigma2_real) * sigma2_real
        return math.sqrt(val) if val > 0 else 0.0
    if kind.alpha == 2:
        # variance grows as s2 + 2t under this multiplier
        return (w * w - sigma2_real) / 2.0
    return w ** kind.alpha


def check_window(t_grid, grid: Grid, kind: PropagatorKind, sigma2_real: float = 1.0,
                 name: str = "t_grid"):
    """Raise ValueError, naming the times ``name``, when a time is negative for a flow
    other than schrodinger, or when the largest |t| lies beyond safe_time_bound."""
    tmin, tmax = float(np.min(t_grid)), float(np.max(t_grid))
    kind.check_time(tmin, name)
    bound = safe_time_bound(grid, kind, sigma2_real)
    if max(tmax, -tmin) > bound:
        worst = f"max t = {tmax:g}" if tmax >= -tmin else f"|min t| = {-tmin:g}"
        raise ValueError(f"{name} exceeds the wrap-around-safe window: {worst} > "
                         f"safe bound {bound:.6g} for this grid ({kind.kind})")
