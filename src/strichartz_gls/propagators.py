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
indicator are) propagates under such a flow factor by factor,
ifft(m_1 * fft(f_j)) once per distinct factor, into a factored field, with
the forward transforms cached on f: no N^d transform is taken, and the
norms of the result are taken from its factors (see grid_field), so no N^d
array is built unless a caller reads its values.  At t = 0 a factored f
gives a field on the same factors.  Every other case (fractional orders
other than 2 in d >= 2, laplacian_propagate, sums of fields, convolutions)
multiplies the N^d multiplier into GridFunction.spectrum, the cached fftn
of f (which builds its values), and takes one inverse fftn, in place on
the multiplier's buffer when both are complex.
"""

from __future__ import annotations

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


def _apply_multiplier(f: GridFunction, mult: np.ndarray) -> GridFunction:
    """Pointwise product with the cached spectrum of f, then the inverse transform.

    mult must be an array this module just built: a complex mult receives
    the product, and the inverse transform overwrites the product.  The
    operand order mult * f_hat is fixed: with fused multiply-add the
    complex product is not bitwise commutative.
    """
    out = mult if mult.dtype == f.spectrum.dtype else None
    prod = np.multiply(mult, f.spectrum, out=out)
    return GridFunction(f.grid, np.fft.ifftn(prod, out=prod))


def _apply_axis_symbol(m: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """One factor of a propagated field: the inverse transform of m * spectrum, taken in
    place on the product."""
    prod = np.multiply(m, spectrum)
    return np.fft.ifftn(prod, out=prod)


def propagate(f: GridFunction, kind: PropagatorKind, t: float) -> GridFunction:
    """The flow of the given kind at time t, applied through its multiplier; a factored
    f under a product flow gives a factored field, each factor propagated alone."""
    if t < 0 and kind.kind != "schrodinger":
        raise ValueError(f"negative time is only legal for schrodinger, got t={t}")
    if t == 0:
        return (GridFunction(f.grid, factors=f.factors) if f.factors is not None
                else GridFunction(f.grid, f.values.copy()))
    m = _axis_symbol(f.grid, kind, t) if f.factors is not None else None
    if m is not None:
        return GridFunction(f.grid, factors=_map_shared(
            lambda s: _apply_axis_symbol(m, s), f._factor_spectra))
    return _apply_multiplier(f, _multiplier(f.grid, kind, t))


def propagate_gaussian_exact(spec: GaussianSpec, kind: PropagatorKind, t: float) -> complex:
    """The variance after time t: heat s2 -> s2 + t; schrodinger s2 -> s2 + i t;
    fractional order 2 s2 -> s2 + 2t (S_2(t) = T_2t)."""
    s2 = complex(spec.sigma2)
    if kind.kind == "schrodinger":
        return s2 + 1j * t
    if kind.kind == "fractional" and kind.alpha != 2:
        raise ValueError("exact Gaussian evolution covers heat, schrodinger and order 2 only")
    if t < 0:
        raise ValueError(f"negative time is not legal for {kind.kind}")
    rate = 1.0 if kind.kind == "heat" else 2.0
    return s2 + rate * t


def laplacian_propagate(f: GridFunction, alpha: float, t: float) -> GridFunction:
    """Multiplier -||xi||^2 exp(-t ||xi||^alpha); t must be strictly positive."""
    kind = fractional(alpha)
    if not t > 0:
        raise ValueError("laplacian_propagate requires t > 0")
    return _apply_multiplier(f, -f.grid.frequency_squared() * _multiplier(f.grid, kind, t))


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


def check_window(t_grid, grid: Grid, kind: PropagatorKind, sigma2_real: float = 1.0):
    """Raise ValueError when the largest time lies beyond safe_time_bound."""
    bound = safe_time_bound(grid, kind, sigma2_real)
    tmax = float(np.max(t_grid))
    if tmax > bound:
        raise ValueError(
            f"t_grid exceeds the wrap-around-safe window: max t = "
            f"{tmax:g} > safe bound {bound:.6g} for this grid ({kind.kind})"
        )
