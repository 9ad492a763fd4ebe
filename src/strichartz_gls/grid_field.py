"""Uniform periodic grids on R^d, grid-sampled functions, and L_p quadrature.

The grid covers [-L, L)^d with periodic identification and N (a power of
two) points per axis.  All norms use the rectangle rule, which is exact
for node-aligned indicators and spectrally accurate for smooth functions
that decay inside the box.  A field given by one-axis factors f_j has its
norms and its finiteness taken from them, never from its N^d values:
|f|_p^p = h^d prod_j sum_k |f_j(k)|^p and |f|_inf = prod_j max |f_j|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

INF = math.inf

TAIL_MASS_TOL = 1e-10

# exp(x) is exactly 0.0 for every x below this
EXP_UNDERFLOW = -746.0
# elements of one block of exp(p * log a) terms; 2**18 ran no faster and raised peak RSS
BLOCK_ELEMENTS = 2 ** 14


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Isotropic uniform tensor grid on [-L, L)^d."""

    dim: int
    half_extent: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.half_extent > 0:
            raise ValueError(f"half_extent must be positive, got {self.half_extent}")
        n = self.points_per_axis
        if not (_is_power_of_two(n) and n >= 8):
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis: x_k = -L + k*h."""
        return -self.half_extent + self.spacing * np.arange(self.points_per_axis)

    def _axis_frequencies(self) -> np.ndarray:
        """Dual-grid frequencies along one axis, xi_k = pi*k/L in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def frequency_squared(self) -> np.ndarray:
        """||xi||^2 on the discrete dual grid, xi_k = pi*k/L in FFT order."""
        sq = self._axis_frequencies() ** 2
        out = sq
        for _ in range(self.dim - 1):
            out = np.add.outer(out, sq)
        return out


def make_grid(d: int, L: float, N: int) -> Grid:
    """Build a Grid; rejects unsupported d, nonpositive L, non-power-of-two N."""
    return Grid(dim=d, half_extent=float(L), points_per_axis=int(N))


def _read_only(a) -> np.ndarray:
    """a as a read-only complex array view."""
    v = np.asarray(a, dtype=complex).view()
    v.flags.writeable = False
    return v


def _map_shared(fn, arrays) -> tuple:
    """fn of each array, taken once per distinct array object: an array that several
    axes share gives one result, shared by the same axes."""
    done = {}
    for a in arrays:
        if id(a) not in done:
            done[id(a)] = fn(a)
    return tuple(done[id(a)] for a in arrays)


def _bounded_product(factors) -> bool:
    """Whether each partial product of the factors' maxima of |f_j|, taken in the order
    _tensor_product multiplies, is below half the largest float (false for a NaN or
    infinite entry): every entry of the outer product, complex rounding included, is
    then finite."""
    bound = 1.0
    for v in factors:
        bound *= float(np.abs(v).max())
        if not bound < np.finfo(float).max / 2:
            return False
    return True


def _sorted_neg_log(v: np.ndarray) -> tuple:
    """(m, -log(|v|/m) over the nonzero entries, sorted) with m = max |v|."""
    a = np.abs(v)
    m = float(a.max())
    nl = a[a > 0]
    nl /= m
    np.log(nl, out=nl)
    np.negative(nl, out=nl)
    nl.sort()
    nl.flags.writeable = False
    return m, nl


def _tensor_product(factors) -> np.ndarray:
    """factors[0][k_1] * ... * factors[d-1][k_d] at every node: the outer product."""
    out = factors[0]
    for v in factors[1:]:
        out = np.multiply.outer(out, v)
    return out


@dataclass(frozen=True)
class GridFunction:
    """Complex-valued samples of f: R^d -> C on a Grid.

    values is held as a read-only view, so the cached spectrum cannot go
    stale through it; an array passed in must not be written afterwards.

    A tensor product f(x) = f_1(x_1) ... f_d(x_d) may be given by its
    factors instead of its values: d arrays of N samples, one object
    serving every axis it is passed for.  values is then their outer
    product, and propagate transforms the factors, not values.  It is finite
    if _bounded_product(factors); if not, values is checked node by node.
    """

    grid: Grid
    values: Optional[np.ndarray] = None
    factors: Optional[tuple] = None

    def __post_init__(self):
        if self.factors is not None:
            if self.values is not None:
                raise ValueError("give values or factors, not both")
            factors = _map_shared(_read_only, self.factors)
            if len(factors) != self.grid.dim or any(
                    v.shape != (self.grid.points_per_axis,) for v in factors):
                raise ValueError(f"factors must be {self.grid.dim} arrays of "
                                 f"{self.grid.points_per_axis} samples")
            object.__setattr__(self, "factors", factors)
            object.__setattr__(self, "values", _tensor_product(factors))
        v = _read_only(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not (self.factors is not None and _bounded_product(self.factors)
                or np.all(np.isfinite(v))):
            raise ValueError("values contain non-finite entries")
        object.__setattr__(self, "values", v)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """fftn(values), taken at first use and kept read-only."""
        return _read_only(np.fft.fftn(self.values))

    @cached_property
    def _factor_spectra(self) -> tuple:
        """The transform of each factor, taken at first use, once per distinct factor,
        and kept read-only."""
        return _map_shared(lambda v: _read_only(np.fft.fftn(v)), self.factors)

    @cached_property
    def _sorted_neg_logs(self) -> tuple:
        """_sorted_neg_log of each factor, or of values, taken at first use and once per
        distinct array, so the profiles of one function take one log and one sort each."""
        return _map_shared(_sorted_neg_log, self.factors or (self.values,))

    def _check_same_grid(self, other: "GridFunction"):
        if self.grid != other.grid:
            raise ValueError("operands must share an identical Grid")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c) -> "GridFunction":
        return GridFunction(self.grid, self.values * complex(c))

    __rmul__ = __mul__


@dataclass(frozen=True)
class GaussianSpec:
    """The density-normalized Gaussian g(x) = (2 pi s2)^(-d/2) exp(-||x||^2/(2 s2)).

    s2 may be complex; the principal branch of the complex power is used.
    """

    sigma2: complex
    dim: int

    def __post_init__(self):
        if not complex(self.sigma2).real > 0:
            raise ValueError(f"Re(sigma2) must be positive, got {self.sigma2}")

    @property
    def envelope_variance(self) -> float:
        """Variance of the (real Gaussian) modulus envelope: |s2|^2 / Re(s2)."""
        s2 = complex(self.sigma2)
        return abs(s2) ** 2 / s2.real


def gaussian_sample(grid: Grid, spec: GaussianSpec) -> GridFunction:
    """Sample the Gaussian at grid nodes; rejects grids too small for its mass."""
    if spec.dim != grid.dim:
        raise ValueError("GaussianSpec dimension does not match grid")
    s2 = complex(spec.sigma2)
    L = grid.half_extent
    if L < 6.0 * math.sqrt(s2.real):
        raise ValueError(
            f"grid half-extent {L} < 6*sqrt(Re sigma2) = {6.0 * math.sqrt(s2.real):.6g}"
        )
    # Mass of the modulus envelope outside the box, per axis.
    v = spec.envelope_variance
    if v == 0.0:
        raise ValueError(f"sigma2 = {spec.sigma2} is too small: the envelope variance "
                         f"|sigma2|^2 / Re(sigma2) underflows to 0")
    tail = grid.dim * math.erfc(L / math.sqrt(2.0 * v))
    if tail > TAIL_MASS_TOL:
        raise ValueError(f"truncated Gaussian mass {tail:.3g} exceeds {TAIL_MASS_TOL}")
    amp = (2.0 * np.pi * s2) ** (-grid.dim / 2.0)
    # exp(-||x||^2/(2 s2)) is the product over the axes of one factor
    e = np.exp(-grid.axis_coords() ** 2 / (2.0 * s2))
    return GridFunction(grid, factors=(amp * e,) + (e,) * (grid.dim - 1))


def lp_norm(f: GridFunction, p: float) -> float:
    """Quadrature L_p norm; p = math.inf gives the node maximum of |f|."""
    return float(moment_profile(f, [p]).values[0])


def gaussian_lp_exact(sigma2: complex, d: int, q: float) -> float:
    """Exact L_q norm of the (possibly complex-variance) Gaussian.

    |g(x)| is itself a scaled real Gaussian with envelope variance
    v = |s2|^2/Re(s2) and amplitude factor (v/|s2|)^(d/2), so the real
    closed form applies to it.
    """
    s2 = complex(sigma2)
    if not s2.real > 0:
        raise ValueError(f"Re(sigma2) must be positive, got {sigma2}")
    v = abs(s2) ** 2 / s2.real
    amp = (v / abs(s2)) ** (d / 2.0)
    if q == INF:
        return amp * (2.0 * math.pi * v) ** (-d / 2.0)
    if not q >= 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    return amp * (2.0 * math.pi * v) ** (-d * (1.0 - 1.0 / q) / 2.0) * q ** (-d / (2.0 * q))


@dataclass(frozen=True)
class MomentProfile:
    """The moment function h(p) = |f|_p sampled on an increasing exponent grid."""

    p_grid: np.ndarray
    values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        p = np.asarray(self.p_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if p.size == 0:
            raise ValueError("empty exponent grid")
        if p.size != v.size:
            raise ValueError("p_grid and values length mismatch")
        if np.any(np.diff(p) <= 0):
            raise ValueError("p_grid must be strictly increasing")
        if not np.all(p >= 1):
            raise ValueError("all exponents must be >= 1")
        if np.any(v < 0):
            raise ValueError("moment values must be nonnegative")
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "values", v)


def _power_sums(nl: np.ndarray, p: np.ndarray, nodes: int) -> list:
    """sum(exp(-p_i * nl)) for each finite, increasing exponent p_i, with nl the sorted
    -log(|f|/m) of the nonzero nodes: each block of exponents exponentiates only the
    nodes whose term does not underflow to 0.0 at the block's smallest exponent."""
    # one buffer of one size per grid: blocks of varying size fragmented the heap
    buf = np.empty(max(BLOCK_ELEMENTS, nodes))
    sums = []
    i = 0
    while i < p.size:
        k = int(np.searchsorted(nl, -EXP_UNDERFLOW / p[i], side="right"))
        block = p[i:i + max(1, BLOCK_ELEMENTS // k)]
        terms = buf[:block.size * k].reshape(block.size, k)
        np.multiply.outer(-block, nl[:k], out=terms)
        np.exp(terms, out=terms)
        sums.extend(terms.sum(axis=1).tolist())
        i += block.size
    return sums


def _power_sum(v: np.ndarray, p: np.ndarray) -> tuple:
    """(m, [sum((|v|/m) ** p[0])]) with m = max |v|, over every entry of v; the list is
    empty when p is or when m = 0."""
    a = np.abs(v)
    m = float(a.max())
    if not (p.size and m):
        return m, []
    a /= m
    if p[0] != 1:  # x ** 1.0 is x, and costs as much as any other power
        a **= p[0]
    return m, [float(np.sum(a))]


def moment_profile(f: GridFunction, p_grid, provenance: str = "") -> MomentProfile:
    """Quadrature L_p norms |f|_p at each exponent of a strictly increasing grid.

    The max of |f| is factored out of every finite-p sum to avoid overflow.
    Max and sums are products over the parts of f, its factors or values
    alone; a one-part product is the part's own max and sums, bit for bit.
    """
    p = np.asarray(list(p_grid), dtype=float)
    if p.size == 0:
        raise ValueError("empty exponent grid")
    for pi in p:
        if not pi >= 1:
            raise ValueError(f"exponent must satisfy p >= 1, got {pi}")
    finite = p[p != INF]
    arrays = f.factors or (f.values,)
    if finite.size > 1:
        n = arrays[0].size
        parts = _map_shared(lambda ml: (ml[0], _power_sums(ml[1], finite, n) if ml[0] else []),
                            f._sorted_neg_logs)
    else:  # one power sum over every entry of each part
        parts = _map_shared(lambda v: _power_sum(v, finite), arrays)
    m = math.prod(mj for mj, _ in parts)
    # m = 0 when a part is 0 or every node underflows
    sums = [math.prod(s) for s in zip(*(sj for _, sj in parts))] if m else []
    out = np.zeros(p.size)
    out[finite.size:] = m
    vol = f.grid.cell_volume
    # finished one exponent at a time: the vectorised power moves the last digit
    for i, (pi, s) in enumerate(zip(finite.tolist(), sums)):
        out[i] = m * (s * vol) ** (1.0 / pi)
    return MomentProfile(p, out, provenance)


def box_indicator(grid: Grid, nodes_per_axis: int) -> GridFunction:
    """Node-aligned box indicator with measure (m*h)^d; quadrature-exact."""
    m = int(nodes_per_axis)
    if not 1 <= m <= grid.points_per_axis:
        raise ValueError("nodes_per_axis out of range")
    axis = np.zeros(grid.points_per_axis)
    start = (grid.points_per_axis - m) // 2
    axis[start:start + m] = 1.0
    return GridFunction(grid, factors=(axis,) * grid.dim)


def box_measure(grid: Grid, nodes_per_axis: int) -> float:
    return (nodes_per_axis * grid.spacing) ** grid.dim


def periodic_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Discrete periodic convolution approximating (f*g)(x) = int f(y) g(x-y) dy."""
    f._check_same_grid(g)
    vals = np.fft.ifftn(f.spectrum * g.spectrum) * f.grid.cell_volume
    return GridFunction(f.grid, vals)
