"""Coarse two-dimensional Dirichlet eigensolve, used only for verification.

Cross-checks product additivity against a direct five-point-stencil solve on
a rectangle; deliberately independent of the one-dimensional spectral path.
Not part of the public computation API.

The shift-invert solve factors the matrix once, with SuperLU in the
minimum-degree order of A^T + A, and hands ``eigsh`` that factorization's
solve.  Left to itself, ``eigsh`` factors in COLAMD order, a column order for
unsymmetric matrices: on the 1 x 2 rectangle at h = 1/64 (8001 unknowns) its
L + U holds 454k nonzeros against 285k here.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import diags, kronsum
from scipy.sparse.linalg import LinearOperator, eigsh, splu


def five_point_laplacian(a: float, b: float, target_h: float = 1.0 / 64):
    """Five-point -Lap on the interior nodes of (0,a) x (0,b), Dirichlet; CSR.

    Unknown (i, j) (i along x, j along y) has index i * ny + j.
    """
    nx = max(int(round(a / target_h)) - 1, 8)
    ny = max(int(round(b / target_h)) - 1, 8)

    def second_difference(count, h):
        return diags([-1.0 / h**2, 2.0 / h**2, -1.0 / h**2], [-1, 0, 1],
                     shape=(count, count))

    return kronsum(second_difference(ny, b / (ny + 1)),
                   second_difference(nx, a / (nx + 1)), format="csr")


def rectangle_lambda1(a: float, b: float, target_h: float = 1.0 / 64) -> float:
    """First Dirichlet eigenvalue of -Lap on (0,a) x (0,b), five-point stencil."""
    A = five_point_laplacian(a, b, target_h)
    lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    inverse = LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype)
    lam = eigsh(A, k=1, sigma=0.0, which="LM", v0=np.ones(A.shape[0]),
                OPinv=inverse, return_eigenvectors=False)
    return float(lam[0])
