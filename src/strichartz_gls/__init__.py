"""Numerical verification toolkit for dispersive decay estimates in
Grand Lebesgue (exponent-family) spaces: quadrature L_p norms, spectral
propagators, two-space decay functionals, fundamental-function
asymptotics, and Gaussian lower-bound witnesses."""

from .grid_field import (
    INF,
    GaussianSpec,
    Grid,
    GridFunction,
    MomentProfile,
    box_indicator,
    gaussian_lp_exact,
    gaussian_sample,
    lp_norm,
    make_grid,
    moment_profile,
    periodic_convolve,
)
from .spaces import (
    PsiSpec,
    exponent_grid,
    fundamental_asymptotic,
    fundamental_gls,
    zeta_crossover,
    zeta_eval,
)
from .propagators import (
    HEAT,
    SCHRODINGER,
    PropagatorKind,
    check_window,
    fractional,
    laplacian_propagate,
    propagate,
    propagate_gaussian_exact,
    safe_time_bound,
)
from .functionals import (
    FunctionalCurve,
    PredictedRate,
    RateFit,
    fit_rate,
    mixed_norm,
    predicted_rate,
    space_norm,
    v_sr_curve,
    w_sp_curve,
)
from .witness import (
    WitnessReport,
    gaussian_moment_law_check,
    sp_witness,
    sr_witness,
)

__version__ = "0.1.0"
