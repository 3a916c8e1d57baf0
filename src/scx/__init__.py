"""Stabilized scalar curvature of model manifolds.

Computes 4 lambda_1(-Lap + Sc/4) with Dirichlet conditions on a catalog of
model geometries, cross-checked three ways: a tridiagonal eigensolve of the
radial reduction (inverse iteration on LAPACK LDL^T solves, certified by
inertia), Bessel-zero closed forms for flat balls, and a variational sup
over positive test functions.  Includes warped-metric curvature fields,
product additivity, space-form comparison inequalities, and the
finite-dimensional twisted Clifford curvature term.
"""

from .bessel import (
    BesselZero,
    bessel_j,
    closed_form,
    first_zero,
    flat_ball_sc,
    qw_enclosure,
)
from .clifford import (
    CliffordRep,
    CurvatureData,
    CurvatureEndomorphism,
    build_clifford,
    curvature_endomorphism,
    make_curvature,
    tensor_curvature,
)
from .comparison import (
    ComparisonCase,
    compare_sc_stab,
    hyperbolic_c,
    hyperbolic_sc,
    make_comparison_case,
    transplant_check,
)
from .errors import (
    InvalidKindError,
    InvalidParameterError,
    NumericalFailureError,
    SpecSyntaxError,
)
from .geometry import (
    Kind,
    ModelManifold,
    RadialProfile,
    make_box,
    make_hemisphere,
    make_hyperbolic_ball,
    make_interval,
    make_radial_custom,
    make_space_form_ball,
    make_spherical_cap,
    mean_curvature_of_ball,
    product,
    radius_from_mean_curvature,
)
from .spectral import (
    DEFAULT_GRID,
    DiscreteOperator,
    SpectralResult,
    discretize,
    eigen_product,
    exhaustion_limit,
    first_eigenpair,
    lambda1_beta,
    operator_grid,
    sc_stab,
)
from .variational import VariationalReport, inf_functional, maximize
from .warped import (
    WarpingFamily,
    geometric_mean_reduce,
    make_warping_family,
    psi_form,
    theta_form,
    warped_sc,
)

__version__ = "0.1.0"

__all__ = [
    "BesselZero", "bessel_j", "closed_form", "first_zero", "flat_ball_sc",
    "qw_enclosure",
    "CliffordRep", "CurvatureData", "CurvatureEndomorphism", "build_clifford",
    "curvature_endomorphism", "make_curvature", "tensor_curvature",
    "ComparisonCase", "compare_sc_stab", "hyperbolic_c", "hyperbolic_sc",
    "make_comparison_case", "transplant_check",
    "InvalidKindError", "InvalidParameterError", "NumericalFailureError",
    "SpecSyntaxError",
    "Kind", "ModelManifold", "RadialProfile", "make_box", "make_hemisphere",
    "make_hyperbolic_ball", "make_interval", "make_radial_custom",
    "make_space_form_ball", "make_spherical_cap", "mean_curvature_of_ball",
    "product", "radius_from_mean_curvature",
    "DEFAULT_GRID", "DiscreteOperator", "SpectralResult", "discretize",
    "eigen_product", "exhaustion_limit", "first_eigenpair", "lambda1_beta",
    "operator_grid", "sc_stab",
    "VariationalReport", "inf_functional", "maximize",
    "WarpingFamily", "geometric_mean_reduce", "make_warping_family",
    "psi_form", "theta_form", "warped_sc",
    "__version__",
]
