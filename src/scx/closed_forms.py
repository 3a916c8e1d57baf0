"""The package's one table of exact first eigenvalues.

closed_form is the independent route that checks the eigensolve.  It imports
no scipy module, and no numpy beyond what ``geometry`` loads: the Bessel
zeros j_nu of its flat-ball branch (and of ``comparison.hyperbolic_c_window``)
come from first_bessel_zero, which uses only ``math``.  ``bessel.first_zero``
finds the same zeros on the independent route of scipy's ``jv`` ufunc, which
``verify bessel`` checks.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError, NumericalFailureError
from .geometry import Kind, ModelManifold, SpaceForm

# the truncations at size and 2 size must agree to this relative difference
_TRUNCATION_AGREEMENT = 1e-13
# a bisection halves its bracket at most this often: from the Gershgorin
# bracket to one ulp takes about 55 halvings, from the agreement bracket 11
_MAX_HALVINGS = 128
# a zero pivot of the Sturm count is replaced by minus this
_TINY = 1e-300
# -a_1, where a_1 is the first zero of the Airy function Ai
_AIRY_ZERO = 2.338107410459767
# from this order on, the Qu-Wong bounds on j_nu are within 2^-50 of each other
_ENCLOSED_ORDER = 2e11


def qu_wong_bounds(nu: float) -> tuple[float, float]:
    """The Qu-Wong bounds nu + a nu^(1/3) < j_nu < nu + a nu^(1/3) + b nu^(-1/3)
    for nu > 0, a = -a_1 2^(-1/3), b = (3/20) a_1^2 2^(1/3) (Trans. AMS 351,
    1999); the upper one is the three-term asymptotic expansion."""
    cbrt = nu ** (1.0 / 3.0)
    lower = nu + _AIRY_ZERO * cbrt / 2.0 ** (1.0 / 3.0)
    return lower, lower + 0.15 * _AIRY_ZERO**2 * 2.0 ** (1.0 / 3.0) / cbrt


def _count_below(b2: list[float], x: float) -> int:
    """How many eigenvalues of the zero-diagonal symmetric tridiagonal matrix
    with squared off-diagonal ``b2`` lie below x > 0 (Sturm count of the LDL^T
    pivots of T - x I)."""
    mx = -x
    d = mx
    count = 1
    for s in b2:
        d = mx - s / d
        if d <= 0.0:
            count += 1
            if d == 0.0:  # a zero pivot counts as negative, as in LAPACK's dstebz
                d = -_TINY
    return count


def _largest_eigenvalue(b2: list[float], lo: float, hi: float) -> tuple[float, float]:
    """The largest eigenvalue, bracketed by lo and hi, bisected to one ulp.

    Returns the final bracket (lo, hi).
    """
    size = len(b2) + 1
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        if _count_below(b2, mid) == size:
            hi = mid
        else:
            lo = mid
    raise NumericalFailureError("Sturm bisection did not converge", lo=lo, hi=hi)


def first_bessel_zero(nu: float) -> float:
    """First positive zero j_nu of J_nu, for nu >= -1/2, from ``math`` alone.

    1/j_nu is the largest eigenvalue of the symmetric tridiagonal matrix with
    zero diagonal and off-diagonal 1/(2 sqrt((nu+k)(nu+k+1))), k = 1, 2, ...
    (Ikebe, Kikuchi & Fujishiro, J. Comput. Appl. Math. 38, 1991).  Its
    eigenvector J_{nu+k}(j_nu) decays super-exponentially once nu + k
    passes j_nu ~ nu + 1.86 nu^(1/3), so the matrix is truncated at
    size = int(12 nu^(1/3)) + 30.  Sturm-count bisection finds the eigenvalue
    at size to one ulp; the one at 2 size must lie within 1e-13 relative of
    it, or NumericalFailureError is raised, and is bisected to one ulp in
    turn.  j_nu is the inverse of the midpoint of that last bracket.

    From nu = 2e11 on, the Qu-Wong bounds (qu_wong_bounds) are within 2^-50
    relative of each other, and the upper one is returned.
    """
    if not -0.5 <= nu < math.inf:
        raise InvalidParameterError(f"order must be finite and >= -1/2, got nu={nu}")
    if nu >= _ENCLOSED_ORDER:
        return qu_wong_bounds(nu)[1]
    size = int(12.0 * max(nu, 0.0) ** (1.0 / 3.0)) + 30
    b2 = [0.25 / ((nu + k) * (nu + k + 1)) for k in range(1, 2 * size)]
    # Gershgorin: no eigenvalue exceeds the largest row sum b_1 + b_2
    lam = _largest_eigenvalue(b2[:size - 1], 0.0, math.sqrt(b2[0]) + math.sqrt(b2[1]))[1]
    lo, hi = lam * (1.0 - _TRUNCATION_AGREEMENT), lam * (1.0 + _TRUNCATION_AGREEMENT)
    if not _count_below(b2, lo) < 2 * size == _count_below(b2, hi):
        raise NumericalFailureError(
            "Bessel zero truncations disagree", nu=nu, size=size, eigenvalue=lam)
    # the midpoint of the final bracket: its upper end biases j_nu low
    lo, hi = _largest_eigenvalue(b2, lo, hi)
    return 2.0 / (lo + hi)


def closed_form(man: ModelManifold, beta: float = 0.25) -> float:
    """lambda_1(-Lap + beta Sc) where it is known exactly; sc is 4x this at 1/4.

    Intervals of length L: pi^2/L^2, and 1-D caps of angle a, intervals of
    length 2a (sigma = 0).  Flat n-balls: j_nu^2/r^2, nu = n/2 - 1.
    Hemispheres: n + beta n(n-1).  3-D balls, caps and hyperbolic balls of
    curvature kappa: pi^2/r^2 - kappa + 6 beta kappa (u = v/sn turns
    -Lap u = lambda u into -v'' = (lambda + kappa) v).  Products and boxes:
    the sum over factors.  Anything else raises InvalidParameterError.
    """
    if not math.isfinite(beta):
        raise InvalidParameterError(f"beta must be finite, got {beta}")
    if man.is_product_like:
        return sum(closed_form(f, beta) for f in man.factors)
    if man.kind == Kind.INTERVAL:
        a, b = man.params
        return math.pi**2 / (b - a) ** 2
    prof = man.profile
    if isinstance(prof, SpaceForm):
        n, kappa, r = man.dim, prof.kappa, prof.r_max
        if n == 1:
            return math.pi**2 / (2 * r) ** 2
        if kappa == 0:
            return first_bessel_zero(n / 2.0 - 1.0) ** 2 / r**2
        if kappa == 1 and r == math.pi / 2:
            return n + beta * n * (n - 1)
        if n == 3:
            return math.pi**2 / r**2 - kappa + 6 * beta * kappa
    raise InvalidParameterError(
        f"no closed form for {man.describe()}; use the eigensolve method"
    )
