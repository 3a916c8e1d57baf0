"""Bessel functions J_nu, their first positive zeros, and the closed forms.

The first Dirichlet eigenvalue of the Laplacian on the unit flat n-ball is
j_nu^2 for nu = n/2 - 1, so the stabilized curvature of the flat ball is
4 j_nu^2 / r^2.  j_nu has two independent routes.  ``closed_forms`` finds it
as a tridiagonal eigenvalue with ``math`` alone; the closed forms and the
hyperbolic c(r) window use that route, so they load no scipy.  This module
is the other route, and it loads ``scipy.special``: first_zero brackets the
zero of ``special.jv`` by a sign scan and polishes it with Newton steps, and
``verify bessel`` and the acceptance tests check it.  The enclosure formula
gives a priori two-sided bounds for nu > 1/2.  flat_ball_sc reads
``closed_forms.closed_form``, which holds every closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .closed_forms import closed_form
from .errors import InvalidParameterError, NumericalFailureError
from .geometry import make_space_form_ball

# Enclosure constant a = (9 pi / 8)^(2/3) (1 + eps) with eps at its stated
# bound 0.13 (8 / (2.847 pi))^2.  The base value (9 pi/8)^(2/3) ~ 2.32; the
# eps-widened value keeps the interval containing j_nu on the sampled range
# nu <= 12 (containment degrades for nu >~ 14, see README).
_EPS_BOUND = 0.13 * (8.0 / (2.847 * math.pi)) ** 2
_A_CONST = (9.0 * math.pi / 8.0) ** (2.0 / 3.0) * (1.0 + _EPS_BOUND)

_SCAN_STEP = 0.1
_SCAN_MAX = 200.0


@dataclass(frozen=True)
class BesselZero:
    nu: float
    j: float
    enclosure: tuple[float, float] | None = None


def bessel_j(nu: float, x) -> float | np.ndarray:
    """J_nu(x) for x >= 0 and nu >= -1/2."""
    if nu < -0.5:
        raise InvalidParameterError(f"order must be >= -1/2, got nu={nu}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise InvalidParameterError("argument must be nonnegative")
    out = special.jv(nu, arr)
    if arr.ndim == 0:
        return float(out)
    return out


def bessel_j_prime(nu: float, x: float) -> float:
    """d/dx J_nu(x) via J_{nu-1} - (nu/x) J_nu."""
    if x == 0:
        raise InvalidParameterError("derivative recurrence needs x > 0")
    return float(special.jv(nu - 1.0, x)) - (nu / x) * float(special.jv(nu, x))


def qw_enclosure(nu: float) -> tuple[float, float]:
    """Two-sided bounds for j_nu, valid for nu > 1/2.

    lower = nu + a nu^(1/3)/2^(1/3),
    upper = lower + (3/20) 2^(2/3) a^2 / nu^(1/2).
    """
    if nu <= 0.5:
        raise InvalidParameterError(f"enclosure requires nu > 1/2, got {nu}")
    lower = nu + _A_CONST * nu ** (1.0 / 3.0) / 2.0 ** (1.0 / 3.0)
    upper = lower + 0.15 * 2.0 ** (2.0 / 3.0) * _A_CONST**2 / math.sqrt(nu)
    return (lower, upper)


def _scan_limit(nu: float) -> float:
    """Where the sign scan gives up: max(200, nu + 4 nu^(1/3) + 10).

    This lies above the upper bound j_nu < nu + 1.8557571 nu^(1/3) +
    1.033150 nu^(-1/3) (Qu & Wong, Trans. AMS 351, 1999) for every order;
    below nu ~ 160 it is 200.
    """
    return max(_SCAN_MAX, nu + 4.0 * max(nu, 0.0) ** (1.0 / 3.0) + 10.0)


def first_zero(nu: float) -> BesselZero:
    """First positive zero of J_nu: sign-scan bracket, bisection, Newton polish."""
    if nu < -0.5:
        raise InvalidParameterError(f"order must be >= -1/2, got nu={nu}")
    lo = max(nu, 0.5)
    f_lo = float(special.jv(nu, lo))
    if f_lo <= 0:
        raise NumericalFailureError(
            f"scan start J_{nu}({lo}) = {f_lo} is not positive", nu=nu
        )
    scan_max = _scan_limit(nu)
    hi = lo
    f_hi = f_lo
    while f_hi > 0:
        lo, f_lo = hi, f_hi
        hi += _SCAN_STEP
        if hi > scan_max:
            raise NumericalFailureError(
                f"no sign change of J_{nu} found below {scan_max:g}", nu=nu
            )
        f_hi = float(special.jv(nu, hi))
    # bisect to a tight bracket, then Newton
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        f_mid = float(special.jv(nu, mid))
        if f_mid > 0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    z = 0.5 * (lo + hi)
    for _ in range(8):
        f = float(special.jv(nu, z))
        df = bessel_j_prime(nu, z)
        step = f / df
        z_new = z - step
        if not lo - 1e-9 <= z_new <= hi + 1e-9:
            z_new = 0.5 * (lo + hi)
        if abs(z_new - z) <= 1e-15 * z:
            z = z_new
            break
        z = z_new
    residual = abs(float(special.jv(nu, z)))
    if residual > 1e-10:
        raise NumericalFailureError(
            f"zero refinement stalled for nu={nu}", residual=residual, estimate=z
        )
    enclosure = qw_enclosure(nu) if nu > 0.5 else None
    return BesselZero(nu=float(nu), j=float(z), enclosure=enclosure)


def flat_ball_sc(n: int, r: float) -> float:
    """Stabilized curvature 4 j_{n/2-1}^2 / r^2 of the flat n-ball of radius r."""
    return 4.0 * closed_form(make_space_form_ball(n, 0.0, r))
