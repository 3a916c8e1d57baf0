"""Stabilized scalar curvature of model manifolds.

Computes 4 lambda_1(-Lap + Sc/4) with Dirichlet conditions on a catalog of
model geometries, cross-checked three ways: a tridiagonal eigensolve of the
radial reduction (inverse iteration on LAPACK LDL^T solves, certified by
inertia), Bessel-zero closed forms for flat balls, and a variational sup
over positive test functions.  Includes warped-metric curvature fields,
product additivity, space-form comparison inequalities, and the
finite-dimensional twisted Clifford curvature term.

Public names load their submodule on first access (PEP 562), so ``import
scx`` loads neither numpy nor scipy; each call pulls in only what it uses.
"""


import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, grouped by submodule
_EXPORTS = {
    name: module
    for module, names in {
        "_constants": ("DEFAULT_GRID",),
        "bessel": ("BesselZero", "bessel_j", "first_zero", "flat_ball_sc",
                   "qw_enclosure"),
        "closed_forms": ("closed_form",),
        "clifford": ("CliffordRep", "CurvatureData", "CurvatureEndomorphism",
                     "build_clifford", "curvature_endomorphism", "make_curvature",
                     "tensor_curvature"),
        "comparison": ("ComparisonCase", "compare_sc_stab", "hyperbolic_c",
                       "hyperbolic_sc", "make_comparison_case", "transplant_check"),
        "errors": ("InvalidKindError", "InvalidParameterError",
                   "NumericalFailureError", "SpecSyntaxError"),
        "geometry": ("Kind", "ModelManifold", "RadialProfile", "SpaceForm", "make_box",
                     "make_hemisphere", "make_hyperbolic_ball", "make_interval",
                     "make_radial_custom", "make_space_form_ball",
                     "make_spherical_cap", "mean_curvature_of_ball", "product",
                     "radius_from_mean_curvature"),
        "spectral": ("DiscreteOperator", "SpectralResult", "discretize",
                     "eigen_product", "exhaustion_limit", "first_eigenpair",
                     "lambda1_beta", "operator_grid", "sc_stab"),
        "variational": ("VariationalReport", "inf_functional", "maximize"),
        "warped": ("WarpingFamily", "geometric_mean_reduce", "make_warping_family",
                   "psi_form", "theta_form", "warped_sc"),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
