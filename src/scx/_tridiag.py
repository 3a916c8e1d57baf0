"""Smallest eigenpair of a symmetric tridiagonal matrix.

Deterministic pipeline on LAPACK: ``dstebz`` bisection for the smallest
eigenvalue, ``dstein`` inverse iteration for its eigenvector, one
Rayleigh-quotient step and a residual check, then a ``dstebz`` Sturm-count
certificate that the returned value is the smallest eigenvalue.  No
randomness anywhere.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import NumericalFailureError


def tridiag_apply(diag, off, v):
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _count(diag, off, lo, hi):
    """Number of eigenvalues in (lo, hi], from dstebz Sturm counts."""
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=(lo, hi),
                                check_finite=False).size


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
    # Sturm counts are only reliable to O(eps * ||T||) in absolute terms.
    blur = 8 * np.finfo(float).eps * scale

    try:
        _, vs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                 check_finite=False)
    except np.linalg.LinAlgError as exc:  # dstebz or dstein reported failure
        raise NumericalFailureError(
            "inverse iteration failed to converge", m=m, lapack=str(exc),
        ) from exc
    v = vs[:, 0]
    # Rayleigh quotient as sum (row sum) v_i^2 - sum e_i (v_{i+1} - v_i)^2:
    # no O(||T||) products cancel, so mu is good far below eps * ||T||.
    pad = np.concatenate(([0.0], off, [0.0]))
    mu = float((np.sum((diag + pad[:-1] + pad[1:]) * v * v)
                - np.sum(off * np.diff(v) ** 2)) / (v @ v))
    tv = tridiag_apply(diag, off, v)
    res = float(np.linalg.norm(tv - mu * v))
    if not res <= 1e-8 * scale:
        raise NumericalFailureError(
            "inverse iteration failed to converge",
            residual=res, estimate=mu, scale=scale,
        )

    # Certificate: no eigenvalue below mu - slack, at least one below mu + slack.
    slack = max(4 * blur, 1e-12 * max(abs(mu), 1.0))
    for _ in range(3):
        below = _count(diag, off, -np.inf, mu - slack)
        above = below + _count(diag, off, mu - slack, mu + slack)
        if below == 0 and above >= 1:
            break
        slack *= 8  # count blur at the boundary; widen once or twice
    else:
        raise NumericalFailureError(
            "eigenvalue certificate failed",
            estimate=mu, counts=(below, above), slack=slack,
        )

    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return mu, v
