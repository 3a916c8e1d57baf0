"""Smallest eigenpair of a symmetric tridiagonal matrix.

Deterministic inverse iteration on LAPACK: ``dptsv`` LDL^T solves from
shifts proven to lie below lambda_1, one Rayleigh quotient and a residual
check, then a certificate from two ``dpttrf`` inertia tests that the
returned value is the smallest eigenvalue.  No randomness anywhere.

The spectrum depends only on the squared off-diagonal, so the solver works
on the Stieltjes form T' with off-diagonal -|e| and restores the signs of
the eigenvector at the end.  T' - s has an LDL^T factorization with positive
pivots exactly when s lies below every eigenvalue (the Sturm count that
``dstebz`` takes is the number of non-positive pivots of the same
recurrence), so a shift is accepted only when ``dptsv`` factors T' - s.  Its
inverse is then entrywise non-negative with 1/(lambda_1 - s) as its largest
eigenvalue, so the iteration from v = 1 can only converge to the first
eigenvector.  After each solve the shift moves up to mu - r, with mu the
Rayleigh quotient and r its residual: some eigenvalue lies within r of mu,
and once v is close to the first eigenvector that one is lambda_1, so
convergence is quadratic.  A shift that ``dptsv`` refuses falls back to the
last accepted one.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import dptsv, dpttrf

from .errors import NumericalFailureError

MAX_STEPS = 50


def tridiag_apply(diag, off, v):
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _count(diag, off, lo, hi):
    """Number of eigenvalues in (lo, hi], from dstebz Sturm counts."""
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=(lo, hi),
                                check_finite=False).size


def _below_spectrum(diag, off, x):
    """True when x lies below every eigenvalue: T - x has positive pivots."""
    return dpttrf(diag - x, off)[2] == 0


def smallest_eigenpair(diag, off):
    """Return (lambda_1, v) with v the positive-normalized eigenvector."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    m = diag.size
    for name, arr in (("diag", diag), ("off", off)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NumericalFailureError(
                f"operator has non-finite {name} entries",
                m=m, index=int(bad[0]), value=float(arr[bad[0]]),
            )
    if m == 1:
        return float(diag[0]), np.ones(1)
    scale = float(np.max(np.abs(diag)) + 2 * np.max(np.abs(off)))
    # Pivots and Sturm counts are only reliable to O(eps * ||T||) in absolute
    # terms; the floor keeps the zero matrix's first shift below its spectrum.
    blur = max(8 * np.finfo(float).eps * scale, np.finfo(float).tiny)

    offs = -np.abs(off)
    pad = np.concatenate(([0.0], offs, [0.0]))
    rowsum = diag + pad[:-1] + pad[1:]
    shift = float(rowsum.min()) - blur  # Gershgorin: below every eigenvalue
    sigma = None  # the last shift proven to lie below lambda_1
    v = np.ones(m) / np.sqrt(m)
    # In exact arithmetic mu decreases at every step, so stop once it no longer
    # does: rounding makes it stall or wobble by an ulp or two.  The floor keeps
    # the test relative for tiny ||T||.
    tol, floor = 4 * np.finfo(float).eps, min(scale, 1.0)
    mu = prev = np.inf
    converged = False
    for steps in range(1, MAX_STEPS + 1):
        *_, w, info = dptsv(diag - shift, offs, v)
        if info != 0 and sigma is not None:  # shift passed lambda_1: back off
            shift = sigma
            *_, w, info = dptsv(diag - shift, offs, v)
        if info != 0:
            break
        sigma = shift
        nw = dnrm2(w)
        # (T' - sigma) w = v gives T' w_hat - mu w_hat = v/nw + (sigma - mu) w_hat.
        dot = float(v @ w) / nw
        v = w / nw
        # Rayleigh quotient as sum (row sum) v_i^2 - sum e_i (v_{i+1} - v_i)^2:
        # no O(||T||) products cancel, so mu is good far below eps * ||T||.
        mu = float((rowsum @ (v * v) - offs @ np.diff(v) ** 2) / (v @ v))
        if mu >= prev - tol * max(abs(mu), floor):
            converged = True
            break
        prev = mu
        a, gap = 1.0 / nw, mu - sigma
        r = np.sqrt(max(a * a - 2.0 * gap * dot * a + gap * gap, 0.0))
        shift = max(sigma, mu - r)
    if not converged:
        raise NumericalFailureError(
            "inverse iteration failed to converge",
            m=m, steps=steps, estimate=mu,
        )
    tv = tridiag_apply(diag, offs, v)
    res = float(np.linalg.norm(tv - mu * v))
    if not res <= 1e-8 * scale:
        raise NumericalFailureError(
            "inverse iteration failed to converge",
            residual=res, estimate=mu, scale=scale,
        )

    # Certificate: no eigenvalue below mu - slack, at least one below mu + slack.
    slack = max(4 * blur, 1e-12 * max(abs(mu), 1.0))
    for _ in range(3):
        if (_below_spectrum(diag, offs, mu - slack)
                and not _below_spectrum(diag, offs, mu + slack)):
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

    flip = off > 0
    if flip.any():
        v = v * np.cumprod(np.concatenate(([1.0], np.where(flip, -1.0, 1.0))))
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return mu, v
