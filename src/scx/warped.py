"""Pointwise scalar curvature of multiply warped torus extensions.

For warping functions phi_1..phi_N > 0 on a base manifold with curvature
sigma, the warped metric g + sum phi_i^2 dt_i^2 has scalar curvature

    sigma - 2 sum_i Lap(phi_i)/phi_i - 2 sum_{i<j} <grad log phi_i, grad log phi_j>.

Discretization.  Each warping function is reduced to the pair

    g = D1(phi)/phi            (log-gradient)
    L = Q - g^2                (log-laplacian), Q = (D2(phi) + drift*D1(phi))/phi,

computed by straight second-order quotients, which stay well conditioned even
for functions vanishing at a Dirichlet boundary (differentiating log(phi)
directly would lose O(h^2/d^4) accuracy at distance d from the zero).  The
curvature field is then the quadratic form

    sigma - 2 sum L_i - sum g_i^2 - (sum g_i)^2,

algebraically identical to the formula above.  The geometric-mean reduction
acts on the (log, g, L) representation by exact averaging -- the discrete
chain rule for (prod phi_i)^(1/N) -- so that the replace-by-geometric-mean
monotonicity is a literal Cauchy-Schwarz inequality on stored numbers:

    field(reduced) - field(original) = sum g_i^2 - (sum g_i)^2 / N >= 0

node by node, with equality exactly where all log-gradients coincide.
Rebuilding the reduced family from its samples agrees with the carried data
to O(h^2).

Derivative stencils are central in the interior and one-sided second-order at
the first and last interior node.  Outputs are restricted to nodes at
distance >= 2h from Dirichlet boundaries, where quotients against vanishing
eigenfunctions stay accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .geometry import ModelManifold
from .spectral import Grid, operator_grid

MIN_WARP_GRID = 64


def _d1(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return out


def _d2(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h**2
    return out


def _sample(grid: Grid, f) -> np.ndarray:
    if callable(f):
        f = f(grid.nodes)
    arr = np.asarray(f, dtype=float)
    if arr.shape != grid.nodes.shape:
        raise InvalidParameterError(
            f"sampled function has shape {arr.shape}, grid has {grid.nodes.shape}"
        )
    return arr


def _require_positive(grid: Grid, phi: np.ndarray, what: str) -> None:
    if np.any(phi <= 0):
        bad = int(np.argmin(phi))
        raise InvalidParameterError(
            f"{what} must be strictly positive; value at node "
            f"{grid.nodes[bad]:g} is {phi[bad]:g}"
        )


def laplacian_quotient(grid: Grid, phi: np.ndarray) -> np.ndarray:
    """Lap(phi)/phi on all interior nodes by straight quotients."""
    _require_positive(grid, phi, "quotient argument")
    dphi = _d1(phi, grid.h)
    return (_d2(phi, grid.h) + grid.drift * dphi) / phi


@dataclass(frozen=True)
class WarpingFamily:
    """Warping functions with their carried log-derivative data."""

    base: ModelManifold
    grid: Grid
    phis: tuple[np.ndarray, ...]
    logs: tuple[np.ndarray, ...]
    grads: tuple[np.ndarray, ...]   # g_i = D1(phi_i)/phi_i
    laps: tuple[np.ndarray, ...]    # L_i = Lap(phi_i)/phi_i - g_i^2

    @property
    def N(self) -> int:
        return len(self.phis)


def _warp_grid(base: ModelManifold, m: int) -> Grid:
    """operator_grid(base, m), refusing grids below MIN_WARP_GRID."""
    if m < MIN_WARP_GRID:
        raise InvalidParameterError(f"warped-metric grid must be >= {MIN_WARP_GRID}")
    return operator_grid(base, m)


def make_warping_family(base: ModelManifold, phis, m: int = 1024) -> WarpingFamily:
    grid = _warp_grid(base, m)
    sampled = tuple(_sample(grid, phi) for phi in phis)
    if not sampled:
        raise InvalidParameterError("need at least one warping function")
    logs, grads, laps = [], [], []
    for k, phi in enumerate(sampled):
        _require_positive(grid, phi, f"warping function {k}")
        dphi = _d1(phi, grid.h)
        g = dphi / phi
        q = (_d2(phi, grid.h) + grid.drift * dphi) / phi
        logs.append(np.log(phi))
        grads.append(g)
        laps.append(q - g * g)
    return WarpingFamily(base=base, grid=grid, phis=sampled,
                         logs=tuple(logs), grads=tuple(grads), laps=tuple(laps))


def warped_sc(w: WarpingFamily) -> np.ndarray:
    """Scalar curvature of the warped extension, on the evaluation nodes."""
    grid = w.grid
    lap_sum = np.sum(w.laps, axis=0)
    grad_sum = np.sum(w.grads, axis=0)
    grad_sq = np.sum([g * g for g in w.grads], axis=0)
    total = grid.sigma - 2.0 * lap_sum - grad_sq - grad_sum * grad_sum
    return total[grid.eval_slice]


def geometric_mean_reduce(w: WarpingFamily) -> WarpingFamily:
    """Replace every phi_i by the geometric mean (prod phi_i)^(1/N).

    The reduced family's samples are the exact nodewise geometric means; its
    log-derivative data is the average of the parents' data (the discrete
    chain rule), which is what makes the monotonicity exact.
    """
    if w.N < 2:
        raise InvalidParameterError("geometric-mean reduction needs N >= 2")
    mean_log = np.mean(w.logs, axis=0)
    mean_grad = np.mean(w.grads, axis=0)
    mean_lap = np.mean(w.laps, axis=0)
    gm = np.exp(mean_log)
    return WarpingFamily(
        base=w.base, grid=w.grid,
        phis=(gm,) * w.N, logs=(mean_log,) * w.N,
        grads=(mean_grad,) * w.N, laps=(mean_lap,) * w.N,
    )


def theta_form(base: ModelManifold, theta, m: int = 1024) -> np.ndarray:
    """sigma - 4 Lap(theta)/theta on the evaluation nodes (the N->infinity form)."""
    grid = _warp_grid(base, m)
    phi = _sample(grid, theta)
    vals = grid.sigma - 4.0 * laplacian_quotient(grid, phi)
    return vals[grid.eval_slice]


def psi_form(base: ModelManifold, Psi, N, m: int = 1024) -> np.ndarray:
    """sigma - 2 Lap(Psi) - ((N+1)/N) |grad Psi|^2 on the evaluation nodes.

    N = math.inf gives the limiting coefficient 1.
    """
    grid = _warp_grid(base, m)
    if N != math.inf and (not isinstance(N, int) or N < 1):
        raise InvalidParameterError(f"N must be a positive integer or inf, got {N}")
    coeff = 1.0 if N == math.inf else (N + 1.0) / N
    u = _sample(grid, Psi)
    du = _d1(u, grid.h)
    lap = _d2(u, grid.h) + grid.drift * du
    vals = grid.sigma - 2.0 * lap - coeff * du * du
    return vals[grid.eval_slice]
