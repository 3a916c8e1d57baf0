"""The package's one table of exact first eigenvalues.

closed_form is the independent route that checks the eigensolve.  It imports
no scipy module: only the flat-ball branch needs Bessel zeros, and it loads
``bessel`` when it is called.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError
from .geometry import Kind, ModelManifold


def closed_form(man: ModelManifold, beta: float = 0.25) -> float:
    """lambda_1(-Lap + beta Sc) where it is known exactly; sc is 4x this at 1/4.

    Intervals of length L: pi^2/L^2.  Flat n-balls: j_nu^2/r^2.  Hemispheres:
    n + beta n(n-1).  3-D balls, caps and hyperbolic balls of curvature
    kappa: pi^2/r^2 - kappa + 6 beta kappa (u = v/sn turns -Lap u = lambda u
    into -v'' = (lambda + kappa) v).  Products and boxes: the sum over factors.
    Anything else raises InvalidParameterError.
    """
    if man.is_product_like:
        return sum(closed_form(f, beta) for f in man.factors)
    if man.kind == Kind.INTERVAL:
        a, b = man.params
        return math.pi**2 / (b - a) ** 2
    prof = man.profile
    if prof is not None and prof.kappa is not None:
        n, kappa, r = man.dim, prof.kappa, prof.r_max
        if kappa == 0:
            from .bessel import first_zero

            return first_zero(n / 2.0 - 1.0).j ** 2 / r**2
        if kappa == 1 and r == math.pi / 2:
            return n + beta * n * (n - 1)
        if n == 3:
            return math.pi**2 / r**2 - kappa + 6 * beta * kappa
    raise InvalidParameterError(
        f"no closed form for {man.describe()}; use the eigensolve method"
    )
