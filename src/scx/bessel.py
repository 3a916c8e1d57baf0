"""Bessel functions J_nu, their first positive zeros, and the closed forms.

The first Dirichlet eigenvalue of the Laplacian on the unit flat n-ball is
j_nu^2 for nu = n/2 - 1, so the stabilized curvature of the flat ball is
4 j_nu^2 / r^2.  j_nu has two independent routes.  ``closed_forms`` finds it
as a tridiagonal eigenvalue with ``math`` alone; the closed forms and the
hyperbolic c(r) window use that route, so they load no scipy.  This module
is the other route: first_zero bisects scipy's ``jv`` ufunc on the Qu-Wong
bracket to two adjacent floats, and ``verify bessel`` and the acceptance
tests check it.  Its enclosure is the bracket bisected; qw_enclosure is the
paper's formula for nu > 1/2.  flat_ball_sc reads ``closed_forms.closed_form``,
which holds every closed form.

``jv`` is bound as ``_tridiag`` binds LAPACK: the compiled module
``scipy.special._special_ufuncs`` is loaded from its file and registered
under its full name, without running ``scipy/special/__init__``, which
loads 66 scipy modules, ``scipy._lib`` among them, and 60 more of numpy's
(scipy 1.17.1).  ``scipy.special.jv`` is that same ufunc object, so every
value is the public function's, bit for bit; a later ``import
scipy.special`` reuses the module, and one imported first supplies it.
Only where the file or its ``jv`` is missing (scipy releases that keep
``jv`` in ``_ufuncs``) is ``jv`` taken from the public package.  ``jv`` is
bound, not re-derived, because first_zero's domain runs to nu = 1e15, where
a fixed quadrature of Schlaefli's integral cannot place the zero to the ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tridiag import _scipy_extension
from .closed_forms import closed_form, qu_wong_bounds
from .errors import InvalidParameterError, NumericalFailureError
from .geometry import make_space_form_ball

jv = getattr(_scipy_extension("special", "_special_ufuncs"), "jv", None)
if jv is None:  # an install layout without the file: the public package
    from scipy.special import jv

# Enclosure constant a = (9 pi / 8)^(2/3) (1 + eps) with eps at its stated
# bound 0.13 (8 / (2.847 pi))^2.  The base value (9 pi/8)^(2/3) ~ 2.32; the
# eps-widened value keeps the interval containing j_nu on the sampled range
# nu <= 12 (containment degrades for nu >~ 14, see README).
_EPS_BOUND = 0.13 * (8.0 / (2.847 * math.pi)) ** 2
_A_CONST = (9.0 * math.pi / 8.0) ** (2.0 / 3.0) * (1.0 + _EPS_BOUND)

# first_zero widens its bracket by this many ulps at each end
_WIDEN_ULPS = 4


@dataclass(frozen=True)
class BesselZero:
    nu: float
    j: float
    enclosure: tuple[float, float]  # the bracket bisected: lo < j < hi


def bessel_j(nu: float, x) -> float | np.ndarray:
    """J_nu(x) for finite x >= 0 and finite nu >= -1/2."""
    if not -0.5 <= nu < math.inf:
        raise InvalidParameterError(f"order must be finite and >= -1/2, got nu={nu}")
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0) & (arr < math.inf)):  # false on nan
        raise InvalidParameterError("argument must be finite and nonnegative")
    out = jv(nu, arr)
    if arr.ndim == 0:
        return float(out)
    return out


def qw_enclosure(nu: float) -> tuple[float, float]:
    """Two-sided bounds for j_nu, valid for nu > 1/2.

    lower = nu + a nu^(1/3)/2^(1/3),
    upper = lower + (3/20) 2^(2/3) a^2 / nu^(1/2).
    """
    if not 0.5 < nu < math.inf:
        raise InvalidParameterError(f"enclosure requires a finite nu > 1/2, got {nu}")
    lower = nu + _A_CONST * nu ** (1.0 / 3.0) / 2.0 ** (1.0 / 3.0)
    upper = lower + 0.15 * 2.0 ** (2.0 / 3.0) * _A_CONST**2 / math.sqrt(nu)
    return (lower, upper)


def zero_bracket(nu: float) -> tuple[float, float]:
    """An interval that holds j_nu and no other zero of J_nu, for nu >= -1/2.

    nu <= 0: [1.5, 2.5], since pi/2 = j_{-1/2} <= j_nu <= j_0 < 2.41 and the
    second zero lies above 3 pi/2.  nu > 0: the Qu-Wong bounds lo < j_nu < hi
    (closed_forms.qu_wong_bounds), with hi cut to lo + pi, which lies below
    the second zero: for nu >= 1/2 zeros are at least pi apart, and for
    nu < 1/2, lo + pi < 5.2 < j_{0,2} <= j_{nu,2}.  The cut moves hi only
    below nu = 1/2, where j_nu <= pi < lo + pi.
    """
    if nu <= 0:
        return 1.5, 2.5
    lo, hi = qu_wong_bounds(nu)
    return lo, min(hi, lo + math.pi)


def first_zero(nu: float) -> BesselZero:
    """First positive zero of J_nu: bisection of zero_bracket to adjacent floats.

    The bracket is first widened by _WIDEN_ULPS at each end, since from
    nu ~ 1e11 on it is only a few ulps wide and its rounded ends can lie on
    the wrong side of the zero of ``jv``.  The float of the final
    pair with the smaller |J_nu| is returned, with the widened bracket as
    its enclosure.
    """
    if not -0.5 <= nu < math.inf:
        raise InvalidParameterError(f"order must be finite and >= -1/2, got nu={nu}")
    lo, hi = zero_bracket(nu)
    lo -= _WIDEN_ULPS * math.ulp(lo)
    hi += _WIDEN_ULPS * math.ulp(hi)
    enclosure = (lo, hi)
    f_lo, f_hi = float(jv(nu, lo)), float(jv(nu, hi))
    if not f_lo > 0 > f_hi:
        raise NumericalFailureError(
            f"no sign change of J_{nu} across its zero bracket",
            nu=nu, bracket=(lo, hi), values=(f_lo, f_hi),
        )
    # halving a float bracket ends at two adjacent floats
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = float(jv(nu, mid))
        if f_mid > 0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    z = hi if abs(f_hi) < abs(f_lo) else lo
    return BesselZero(nu=float(nu), j=z, enclosure=enclosure)


def flat_ball_sc(n: int, r: float) -> float:
    """Stabilized curvature 4 j_{n/2-1}^2 / r^2 of the flat n-ball of radius r."""
    return 4.0 * closed_form(make_space_form_ball(n, 0.0, r))
