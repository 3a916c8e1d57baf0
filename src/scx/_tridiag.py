"""Smallest eigenpair of a symmetric tridiagonal matrix.

Deterministic inverse iteration on LAPACK: ``dptsv`` LDL^T solves from
shifts proven to lie below lambda_1, then a certificate that the returned
value mu is the smallest eigenvalue to within a slack: no eigenvalue below
mu - slack, at least one at or below mu + slack.  No randomness anywhere.

The spectrum depends only on the squared off-diagonal, so the solver works
on the Stieltjes form T' with off-diagonal -|e| and restores the signs of
the eigenvector at the end.  T' - s has an LDL^T factorization with positive
pivots exactly when s lies below every eigenvalue (the Sturm count that
``dstebz`` takes is the number of non-positive pivots of the same
recurrence), so a shift is accepted only when ``dptsv`` factors T' - s.  Its
inverse is then entrywise non-negative with 1/(lambda_1 - s) as its largest
eigenvalue, so the iteration from any strictly positive vector can only
converge to the first eigenvector.  A shift that ``dptsv`` refuses falls
back to the last accepted one.

A step is one ``dptsv``, one ``dnrm2``, one ``ddot`` and one divide.  With
(T' - sigma) w = v and ||v|| = 1, the normalized w has Rayleigh quotient
sigma + c/||w|| and residual r = sqrt(1 - c^2)/||w||, c = v.w/||w||; the
next shift is that quotient less r.  Some eigenvalue lies within r of the
quotient, and once v is close to the first eigenvector that one is
lambda_1, so convergence is quadratic.

The stop.  Once r reaches the slack, mu is taken as the Rayleigh quotient in
row-sum form, sum (row sum) v_i^2 - sum e_i (v_{i+1} - v_i)^2, in which no
O(||T||) products cancel, so mu is good far below eps ||T||, and the true
residual res = ||T'v - mu v|| is formed.  Some eigenvalue lies within res
of mu, so res plus the rounding blur at most the slack proves the upper
side.  The lower side is proven by the last accepted shift when it lies at
or above mu - slack (pivots only grow as the shift falls), and otherwise by
one ``dpttrf`` inertia test at mu - slack.  When both hold the solve stops;
otherwise it steps on.  Where r stalls above the slack, the iteration stops
once the quotient no longer falls, and the certificate takes an inertia test
for each side that the residual and the shift do not prove, widening the
slack once or twice before it fails with the counts of ``_count``.

One hint shapes a cold solve: ``start``, a positive vector close to |v|.
Its Collatz-Wielandt value min_i (T'v)_i / v_i lies below lambda_1 for every
positive v, and close under it where v is shaped like the eigenvector, so it
less the blur is the first shift, where Gershgorin's bound can lie 1e4-1e7
below on n = 2 and 3 radial operators.  ``below``, a value believed to lie
under lambda_1, replaces that first shift (spectral passes the coarse
eigenvalue of its pair).  A start that is not strictly positive is replaced by
v = 1 and Gershgorin's shift, and a first shift that ``dptsv`` refuses falls
back to Gershgorin's, so the hints change the number of solves, never the
certificate.

The iteration runs in buffers allocated once per solve: ``dptsv`` factors
and solves in place on scratch copies of T' - s and v, never on the
caller's arrays.

The four routines ``dptsv``, ``dpttrf``, ``ddot`` and ``dnrm2`` are bound
from scipy's compiled modules ``scipy.linalg._flapack`` and ``_fblas``,
loaded from their files without running ``scipy/linalg/__init__``.  That
package imports ``scipy._lib._array_api`` and through it numpy's f2py,
random, ma and testing: about 300 ms of a cold eigensolve call on a shared
2-core VM, against about 5 ms for the two files.  Each module is registered
in ``sys.modules`` under its full name, so a later ``import scipy.linalg``
reuses it and ``scipy.linalg.lapack.dptsv`` is the same function object; if
scipy.linalg is imported first, its modules are used.  Only where the files cannot be
found are the routines taken from the public ``scipy.linalg.lapack`` and
``blas``.  ``_count`` runs only when the certificate fails and imports
``scipy.linalg`` itself.

The loader, ``_scipy_extension(package, name)``, serves the rest of the
package too: ``bessel`` binds ``jv`` from ``scipy.special._special_ufuncs``
the same way, and ``_oracle2d`` takes the band Cholesky routines ``dpbtrf``
and ``dpbtrs`` from the ``_flapack`` bound here, so ``scx verify`` loads
neither the ``scipy.special`` package nor ``scipy.sparse``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import NumericalFailureError


def _scipy_extension(package: str, name: str):
    """The compiled module ``scipy.<package>.<name>``, loaded from its file
    and registered under its full name, or None if the file is not found."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")  # imports nothing
    if scipy is None or not scipy.submodule_search_locations:
        return None
    dirs = [os.path.join(d, package) for d in scipy.submodule_search_locations]
    found = importlib.machinery.PathFinder.find_spec(name, dirs)
    if found is None or found.origin is None:
        return None
    spec = importlib.util.spec_from_file_location(full, found.origin)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(full, None)
        raise
    return module


_lapack = _scipy_extension("linalg", "_flapack")
if _lapack is None:  # an install layout without the file: the public modules
    from scipy.linalg import lapack as _lapack
_blas = _scipy_extension("linalg", "_fblas")
if _blas is None:
    from scipy.linalg import blas as _blas
dptsv, dpttrf = _lapack.dptsv, _lapack.dpttrf
ddot, dnrm2 = _blas.ddot, _blas.dnrm2

MAX_STEPS = 50
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def tridiag_apply(diag, off, v, out=None):
    """T v, written into ``out`` when given."""
    out = np.multiply(diag, v, out=out)
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _count(diag, off, lo, hi):
    """Number of eigenvalues in (lo, hi], from dstebz Sturm counts."""
    from scipy.linalg import eigvalsh_tridiagonal  # only a failed certificate

    return eigvalsh_tridiagonal(diag, off, select="v", select_range=(lo, hi),
                                check_finite=False).size


def _below_spectrum(diag, off, x, d=None, e=None):
    """True when x lies below every eigenvalue: T - x has positive pivots.

    ``dpttrf`` factors in place in ``d`` and ``e``, scratch arrays shaped
    like ``diag`` and ``off``, allocated here when not given.
    """
    if d is None:
        d, e = np.empty_like(diag), np.empty_like(off)
    np.subtract(diag, x, out=d)
    np.copyto(e, off)
    return dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2] == 0


def collatz_wielandt(diag, offs, x, out=None) -> float:
    """min_i (T'x)_i / x_i, for T' with the non-positive off-diagonal
    ``offs``: below lambda_1 for every positive x, and close under it where
    x is shaped like the first eigenvector.  -inf or nan where x underflows;
    ``out`` is scratch shaped like ``diag``."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tx = tridiag_apply(diag, offs, x, out=out)
        return float(np.divide(tx, x, out=tx).min())


def smallest_eigenpair(diag, off, start=None, below=None):
    """Return (lambda_1, v) with v the positive-normalized eigenvector.

    ``start`` approximates |v| and ``below`` is a value under lambda_1; both
    are hints that change where the iteration starts, never what it certifies.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    m = diag.size
    # T' = T where no off-diagonal entry is positive (nan compares false and
    # is refused below), as on spectral's operators
    signed = off.size > 0 and off.max() > 0
    offs = -np.abs(off) if signed else off
    # max |diag| + 2 max |off|: the maxima propagate nan and inf, so the scale
    # is finite whenever every entry is (unless the sum itself overflows)
    scale = float(np.abs(diag).max() - 2 * offs.min(initial=0.0))
    if not math.isfinite(scale):
        for name, arr in (("diag", diag), ("off", off)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise NumericalFailureError(
                    f"operator has non-finite {name} entries",
                    m=m, index=int(bad[0]), value=float(arr[bad[0]]),
                )
    if m == 1:
        return float(diag[0]), np.ones(1)
    # Pivots and Sturm counts are only reliable to O(eps * ||T||) in absolute
    # terms; the floor keeps the zero matrix's first shift below its spectrum.
    blur = max(8 * _EPS * scale, _TINY)

    rowsum = diag.copy()
    rowsum[1:] += offs
    rowsum[:-1] += offs
    gershgorin = float(rowsum.min()) - blur  # below every eigenvalue
    # scratch, in one block: LAPACK factors T' - s in d_s and e_s and
    # overwrites w with its solution; vv and dv hold the Rayleigh quotient's
    # squares
    scratch = np.empty(5 * m - 2)
    d_s, w, vv = scratch[:m], scratch[m:2 * m], scratch[2 * m:3 * m]
    e_s, dv = scratch[3 * m:4 * m - 1], scratch[4 * m - 1:]
    if start is not None and start.min() > 0 and (norm := dnrm2(start)) < np.inf:
        v = start / norm
    else:
        v = np.full(m, 1.0 / math.sqrt(m))
        start = None
    v_next, v_prev = v[1:], v[:-1]  # views: v is updated in place

    def solve(s):
        np.subtract(diag, s, out=d_s)
        np.copyto(e_s, offs)
        np.copyto(w, v)
        return dptsv(d_s, e_s, w, overwrite_d=1, overwrite_e=1, overwrite_b=1)[3]

    def rayleigh_quotient():
        # sum (row sum) v_i^2 - sum e_i (v_{i+1} - v_i)^2: no O(||T||)
        # products cancel, so mu is good far below eps * ||T||
        np.subtract(v_next, v_prev, out=dv)
        return (ddot(rowsum, np.multiply(v, v, out=vv))
                - ddot(offs, np.multiply(dv, dv, out=dv))) / ddot(v, v)

    def residual(mu):
        tv = tridiag_apply(diag, offs, v, out=w)
        tv -= np.multiply(v, mu, out=vv)
        return dnrm2(tv)  # overflow-safe, unlike a sum of squares

    shift = gershgorin
    if below is not None:
        shift = max(shift, float(below) - blur)
    elif start is not None:
        cw = collatz_wielandt(diag, offs, v, out=w) - blur
        if cw > shift:  # false on nan, where v underflows
            shift = cw
    # In exact arithmetic the Rayleigh quotient decreases at every step; the
    # estimate below stalls or wobbles by rounding once v has converged as
    # far as it can.  The floor keeps the test relative for tiny ||T||.
    tol, floor = 4 * _EPS, min(scale, 1.0)
    sigma = None  # the last shift proven to lie below lambda_1
    est = prev = np.inf
    proven = converged = False
    for steps in range(1, MAX_STEPS + 1):
        info = solve(shift)
        if info != 0:  # shift passed lambda_1: back off to the last proven one
            back = gershgorin if sigma is None else sigma
            if back < shift:
                shift = back
                info = solve(shift)
        if info != 0:
            break
        sigma = shift
        # (T' - sigma) w = v with ||v|| = 1: w_hat = w / ||w|| has Rayleigh
        # quotient sigma + c / ||w|| and residual sqrt(1 - c^2) / ||w||,
        # c = v . w_hat; divided by ||w|| twice, as 1/||w||^2 may overflow
        nw = dnrm2(w)
        c = ddot(v, w) / nw
        np.divide(w, nw, out=v)
        est = sigma + c / nw
        r = math.sqrt(max((1.0 - c) * (1.0 + c), 0.0)) / nw
        if r <= max(4 * blur, 1e-12 * max(abs(est), 1.0)):
            # the estimate says the certificate holds: stop if v proves it
            mu = rayleigh_quotient()
            res = residual(mu)
            slack = max(4 * blur, 1e-12 * max(abs(mu), 1.0))
            if res + blur <= slack and (
                    sigma >= mu - slack
                    or _below_spectrum(diag, offs, mu - slack, d_s, e_s)):
                proven = True
                break
        if est >= prev - tol * max(abs(est), floor):
            converged = True
            break
        prev = est
        shift = max(sigma, est - r)

    if not proven:
        if not converged:
            raise NumericalFailureError(
                "inverse iteration failed to converge",
                m=m, steps=steps, estimate=est,
            )
        mu = rayleigh_quotient()
        res = residual(mu)
        if not res <= 1e-8 * scale:
            raise NumericalFailureError(
                "inverse iteration failed to converge",
                residual=res, estimate=mu, scale=scale,
            )
        # The certificate where the stop rule did not prove it: any x <= sigma
        # is proven below the spectrum, and some eigenvalue lies within
        # res + blur of mu; an inertia test at mu -/+ slack decides a side
        # that neither proves.
        slack = max(4 * blur, 1e-12 * max(abs(mu), 1.0))
        for _ in range(3):
            if ((sigma >= mu - slack or _below_spectrum(diag, offs, mu - slack, d_s, e_s))
                    and (res + blur <= slack
                         or not _below_spectrum(diag, offs, mu + slack, d_s, e_s))):
                break
            slack *= 8  # pivot blur at the boundary; widen once or twice
        else:
            slack /= 8
            below = _count(diag, off, -np.inf, mu - slack)
            above = below + _count(diag, off, mu - slack, mu + slack)
            raise NumericalFailureError(
                "eigenvalue certificate failed",
                estimate=mu, counts=(below, above), slack=slack,
            )

    # v >= 0 here: with positive pivots, dptsv maps a positive vector to a
    # non-negative one, so only restored signs can make the largest entry negative
    if signed:
        v = v * np.cumprod(np.concatenate(([1.0], np.where(off > 0, -1.0, 1.0))))
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
    return mu, v
