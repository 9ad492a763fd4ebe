"""Fourier-multiplier propagators on the periodic grid.

Multipliers on the dual grid (xi_k = pi*k/L):
  heat            exp(-t ||xi||^2 / 2)
  schrodinger     exp(-i t ||xi||^2 / 2)
  fractional(a)   exp(-t ||xi||^a),  a in (0, 2]
  laplacian       -||xi||^2 exp(-t ||xi||^a)  (laplacian_propagate)

Note the fractional multiplier at a = 2 has no 1/2, so S_2(t) equals the
heat flow at doubled time; this identity is asserted in tests rather than
hidden by renormalizing.

Each call costs one pointwise product and one inverse transform: the
forward transform of f is GridFunction.spectrum, taken once per initial
datum and cached on it.  The heat and Schrodinger multipliers are
separable, so they are built as the outer product of d one-axis factors
(d exponentials of length N, not one over all N^d nodes); the fractional
multiplier is not, and takes its exponential over the full grid.  The
product is written into the multiplier's buffer when both are complex,
and the inverse transform runs in place on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid_field import GaussianSpec, Grid, GridFunction

__all__ = [
    "PropagatorKind",
    "HEAT",
    "SCHRODINGER",
    "EvolvedGaussian",
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


def _outer_product(factor: np.ndarray, dim: int) -> np.ndarray:
    """factor[k_1] * ... * factor[k_dim] at every node of the grid."""
    out = factor
    for _ in range(dim - 1):
        out = np.multiply.outer(out, factor)
    return out


def _multiplier(grid: Grid, kind: PropagatorKind, t: float) -> np.ndarray:
    if kind.kind == "fractional":
        # ||xi||^alpha = (||xi||^2)^(alpha/2); the zero mode gives exp(0) = 1
        return np.exp(-t * grid.frequency_squared() ** (kind.alpha / 2.0))
    xi2 = grid._axis_frequencies() ** 2
    if kind.kind == "heat":
        return _outer_product(np.exp(-t * xi2 / 2.0), grid.dim)
    return _outer_product(np.exp(-1j * t * xi2 / 2.0), grid.dim)


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


def propagate(f: GridFunction, kind: PropagatorKind, t: float) -> GridFunction:
    """The flow of the given kind at time t, applied through its multiplier."""
    if t < 0 and kind.kind != "schrodinger":
        raise ValueError(f"negative time is only legal for schrodinger, got t={t}")
    if t == 0:
        return GridFunction(f.grid, f.values.copy())
    return _apply_multiplier(f, _multiplier(f.grid, kind, t))


@dataclass(frozen=True)
class EvolvedGaussian:
    """Exact Gaussian evolution: the variance parameter after time t."""

    initial_sigma2: complex
    t: float
    sigma2: complex
    dim: int

    def __post_init__(self):
        if not complex(self.sigma2).real > 0:
            raise ValueError("resulting variance must have positive real part")


def propagate_gaussian_exact(spec: GaussianSpec, kind: PropagatorKind, t: float) -> EvolvedGaussian:
    """Variance update: heat s2 -> s2 + t; schrodinger s2 -> s2 + i t;
    fractional order 2 s2 -> s2 + 2t (S_2(t) = T_2t)."""
    s2 = complex(spec.sigma2)
    if kind.kind == "schrodinger":
        return EvolvedGaussian(s2, t, s2 + 1j * t, spec.dim)
    if kind.kind == "fractional" and kind.alpha != 2:
        raise ValueError("exact Gaussian evolution covers heat, schrodinger and order 2 only")
    if t < 0:
        raise ValueError(f"negative time is not legal for {kind.kind}")
    rate = 1.0 if kind.kind == "heat" else 2.0
    return EvolvedGaussian(s2, t, s2 + rate * t, spec.dim)


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
