"""Coarse two-dimensional Dirichlet eigensolve, used only for verification.

Cross-checks product additivity against a direct five-point-stencil solve on
a rectangle; deliberately independent of the one-dimensional spectral path.
Not part of the public computation API.

The five-point matrix is banded, so the solve is inverse iteration on a band
Cholesky factor: LAPACK's ``dpbtrf`` and ``dpbtrs`` from the ``_flapack``
that ``_tridiag`` binds, so neither ``scipy.sparse`` nor the ``scipy.linalg``
package is loaded.  The unknowns run along the shorter side first, so the
band is as narrow as the grid allows, and it is kept in lower storage: on the
1 x 2 rectangle at h = 1/64 (8001 unknowns, band 63) ``dpbtrf`` took 8.4 ms
there against 21 ms in upper storage, with 2 threads.  The factor is made in
one band buffer, refilled from the stencil for each shift; a second copy of
the matrix would be the largest allocation of a ``verify all`` pass.

The iteration starts from v = 1, never from the separable sine, which is the
product route's eigenvector and would make the additivity check circular.  A
shift is accepted only where ``dpbtrf`` factors A - s, which proves s below
lambda_1; the inverse of A - s is then entrywise positive, so the iteration
can only converge to the first eigenvector.  With (A - sigma) w = v and
||v|| = 1, the normalized w has Rayleigh quotient sigma + c/||w|| and
residual r = sqrt(1 - c^2)/||w||, c = v.w/||w||, and the next shift is that
quotient less r.  A factorization costs about _FACTOR_COST solves, so it is
made only when the steps it should save outweigh that.  Once r falls to
_RTOL of the quotient, the Rayleigh quotient is returned as a Dirichlet form,
sums of squared differences in which no O(||A||) products cancel; past
MAX_STEPS steps the solve raises NumericalFailureError.
"""

from __future__ import annotations

import math

import numpy as np

from ._tridiag import _lapack, ddot, dnrm2
from .errors import InvalidParameterError, NumericalFailureError

dpbtrf, dpbtrs = _lapack.dpbtrf, _lapack.dpbtrs

MAX_STEPS = 50
# a band factorization takes about as long as this many of its solves
_FACTOR_COST = 8
# the solve stops once the residual falls to this share of the quotient
_RTOL = 1e-8


def _grid(a: float, b: float, target_h: float):
    """(p, q, hs, hl): p nodes along the shorter side, spaced hs, on each of q
    lines spaced hl, with nx and ny interior nodes along x and y."""
    nx = max(int(round(a / target_h)) - 1, 8)
    ny = max(int(round(b / target_h)) - 1, 8)
    hx, hy = a / (nx + 1), b / (ny + 1)
    return (ny, nx, hy, hx) if ny <= nx else (nx, ny, hx, hy)


def _fill(ab, p: int, hs: float, hl: float, shift: float = 0.0) -> None:
    """Write A - shift into ``ab`` in lower band storage: ``ab[d, k] =
    A[k + d, k]``, and zero where k + d lies past the matrix.

    A is five-point -Lap on the interior nodes of (0,a) x (0,b), Dirichlet,
    with the nodes of _grid; with nx and ny interior nodes along x and y,
    unknown (i, j) (i along x, j along y) has index i * ny + j where
    ny <= nx, and j * nx + i otherwise, so the band is min(nx, ny) wide.
    """
    n = ab.shape[1]
    ab.fill(0.0)
    ab[0] = 2.0 / hs**2 + 2.0 / hl**2 - shift
    ab[1, :-1] = -1.0 / hs**2
    ab[1, p - 1::p] = 0.0  # the last node of a line has no next one on it
    ab[p, :n - p] = -1.0 / hl**2


def _rayleigh_quotient(v, p: int, hs: float, hl: float) -> float:
    """v.Av / v.v as the Dirichlet form: the squared differences of v along
    each side, with zeros past the boundary, so no O(||A||) products cancel."""
    lines = v.reshape(-1, p)
    quad = 0.0
    for axis, h in ((1, hs), (0, hl)):
        dv = np.diff(lines, axis=axis, prepend=0.0, append=0.0).ravel()
        quad += ddot(dv, dv) / h**2
    return quad / ddot(v, v)


def rectangle_lambda1(a: float, b: float, target_h: float = 1.0 / 64) -> float:
    """First Dirichlet eigenvalue of -Lap on (0,a) x (0,b), five-point stencil."""
    if not (0 < a < math.inf and 0 < b < math.inf and 0 < target_h < math.inf):
        raise InvalidParameterError(
            "rectangle sides and target_h must be finite and positive, "
            f"got a={a}, b={b}, target_h={target_h}")
    p, q, hs, hl = _grid(a, b, target_h)
    n = p * q
    # one band buffer, so the factor at sigma is lost when a shift is refused
    factor = np.empty((p + 1, n), order="F")

    def factors(shift):
        """True when A - shift has a band Cholesky factor, left in factor."""
        _fill(factor, p, hs, hl, shift)
        return dpbtrf(factor, lower=1, overwrite_ab=1)[1] == 0

    if not factors(0.0):
        raise NumericalFailureError("five-point matrix is not positive definite",
                                    rectangle=(a, b), target_h=target_h)
    sigma = 0.0  # the last shift proven to lie below lambda_1
    v = np.full(n, 1.0 / math.sqrt(n))
    r_prev = None
    for steps in range(1, MAX_STEPS + 1):
        w = dpbtrs(factor, v, lower=1)[0]
        nw = dnrm2(w)
        c = ddot(v, w) / nw
        np.divide(w, nw, out=v)
        est = sigma + c / nw
        r = math.sqrt(max((1.0 - c) * (1.0 + c), 0.0)) / nw
        tol = _RTOL * est
        if r <= tol:
            return _rayleigh_quotient(v, p, hs, hl)
        shift = est - r
        if r_prev is not None and shift > sigma:
            # r falls by rho a step at sigma (a stall reads as slow); at the
            # shift, by rho_new, with lambda_2 - sigma read as (est - sigma) / rho
            rho = min(r / r_prev, 0.999)
            rho_new = r / ((est - sigma) * (1.0 / rho - 1.0) + r)
            left = math.log(r / tol)
            if _FACTOR_COST + left / -math.log(rho_new) < left / -math.log(rho):
                if factors(shift):
                    sigma = shift
                else:  # factors again, as it did before
                    factors(sigma)
        r_prev = r
    raise NumericalFailureError("inverse iteration failed to converge",
                                rectangle=(a, b), steps=steps, residual=r, estimate=est)
