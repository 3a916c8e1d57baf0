"""Dirichlet eigensolves of -Laplace + beta*Sc on intervals and radial manifolds.

The generalized problem -(A u')' + beta sigma A u = lambda A u is discretized
by a conservative finite-volume scheme and symmetrized by the diagonal scaling
sqrt(A(d_i) h), giving a symmetric tridiagonal Stieltjes matrix (negative
off-diagonal), so the first eigenvector is simple and one-signed.

Grids: intervals use interior nodes a+h..b-h with Dirichlet closures at both
ends; ball-type profiles use the staggered grid d_i = (i-1/2)h, which avoids
the coordinate singularity at the center (the center face carries zero flux,
A(0) = 0) and puts a second-order Dirichlet closure at the outer face.

Volume densities are handled in log space so that steep warps (sinh^(n-1) on
large hyperbolic balls) never overflow: matrix entries only ever involve
ratios of neighboring densities.

Products and boxes are solved only by lambda1_beta, which adds its factors'
results (spectral additivity); sc_stab and eigen_product call it.  The
stabilized curvature is 4 lambda_1 at beta = 1/4 (SpectralResult.sc_stab).
Results carry a two-grid convergence certificate and a Richardson
extrapolation (4 lam(2m) - lam(m))/3.

Solves are cached by (manifold key, beta, m) in one LRU cache holding at most
_CACHE_BYTES of eigenfunction samples; least recently used entries are
evicted first, and cached eigenfunctions are read-only arrays.  The coarse
grid of a two-grid solve contributes only its eigenvalue, so its entry holds
no eigenfunction; a later request for that grid's eigenfunction solves it
once more (deterministically, so to the same eigenvalue) and replaces the
entry.

Only what a result reads is computed: discretize never evaluates the drift
A'/A, which Grid.drift computes from the profile on first read (the warped
curvature fields are its only readers).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._tridiag import smallest_eigenpair
from .errors import InvalidKindError, InvalidParameterError, NumericalFailureError
from .geometry import Kind, ModelManifold, RadialProfile, product

DEFAULT_GRID = 4000
DEFAULT_TOL = 1e-3
MIN_GRID = 16

# Least recently used first; _cache_nbytes counts the eigenfunction samples.
_CACHE_BYTES = 4 << 20
_cache: OrderedDict = OrderedDict()
_cache_nbytes = 0


@dataclass(frozen=True)
class Grid:
    """Interior sample nodes plus the coefficient data tied to them."""

    nodes: np.ndarray
    h: float
    sigma: np.ndarray   # scalar curvature samples
    profile: RadialProfile | None = None  # None on intervals

    @property
    def size(self) -> int:
        return self.nodes.size

    @cached_property
    def drift(self) -> np.ndarray:
        """A'/A at the nodes, computed on first read; zero on intervals."""
        if self.profile is None:
            return np.zeros(self.size)
        return np.asarray(self.profile.drift(self.nodes), dtype=float)

    @property
    def eval_slice(self) -> slice:
        """Nodes at distance >= 2h from every Dirichlet boundary.

        Quotients like Lap(theta)/theta degenerate where Dirichlet
        eigenfunctions vanish, so pointwise curvature expressions are only
        evaluated on this sub-range.
        """
        if self.profile is None:  # intervals: Dirichlet at both ends
            return slice(1, self.size - 1)
        return slice(0, self.size - 2)

    @property
    def eval_nodes(self) -> np.ndarray:
        return self.nodes[self.eval_slice]


@dataclass(frozen=True)
class DiscreteOperator:
    grid: Grid
    diag: np.ndarray
    offdiag: np.ndarray
    beta: float
    log_mass: np.ndarray  # log(A(d_i) h), the volume weight per node

    def unweight(self, v: np.ndarray) -> np.ndarray:
        """Map a symmetrized eigenvector back to function samples u = v/sqrt(m)."""
        w = -0.5 * self.log_mass
        logs = np.log(np.abs(v) + 1e-300) + w
        u = np.sign(v) * np.exp(logs - logs.max())
        return u / np.max(np.abs(u))


@dataclass(frozen=True)
class SpectralResult:
    lambda1: float
    eigenfunction: np.ndarray | None
    grid_size: int
    beta: float
    richardson_estimate: float | None = None
    certificate: float | None = None

    @property
    def sc_stab(self) -> float | None:
        """The stabilized curvature 4 lambda_1 at beta = 1/4; None otherwise."""
        return 4.0 * self.lambda1 if self.beta == 0.25 else None


def operator_grid(man: ModelManifold, m: int) -> Grid:
    """The interior grid on which all sampled-function operations live."""
    if man.is_product_like:
        raise InvalidKindError(
            "product manifolds have no single grid; use eigen_product"
        )
    if m < MIN_GRID:
        raise InvalidParameterError(f"grid size must be >= {MIN_GRID}, got {m}")
    if man.kind == Kind.INTERVAL:
        a, b = man.params
        h = (b - a) / (m + 1)
        nodes = a + h * np.arange(1, m + 1)
        return Grid(nodes=nodes, h=h, sigma=np.zeros(m))
    if not man.is_radial:
        raise InvalidKindError(f"unsupported kind {man.kind}")
    prof = man.profile
    h = prof.r_max / m
    nodes = (np.arange(m) + 0.5) * h
    return Grid(
        nodes=nodes, h=h,
        sigma=np.asarray(prof.scalar_curv(nodes), dtype=float), profile=prof,
    )


# 4-point Gauss-Legendre rule on [-1, 1]
_GL_X = np.array([-0.8611363115940526, -0.33998104358485626,
                  0.33998104358485626, 0.8611363115940526])
_GL_W = np.array([0.34785484513745385, 0.6521451548625461,
                  0.6521451548625461, 0.34785484513745385])


def _cell_log_masses(prof, m: int, h: float) -> np.ndarray:
    """log of the exact volume mass per cell, int A over [ih, (i+1)h].

    Midpoint masses are O(1) off in the first cell, where A ~ d^(n-1) is far
    from linear; that inconsistency leaves a kink in the eigenvector at the
    coordinate center.  Quadrature in log space keeps steep densities (large
    hyperbolic balls) overflow-free.

    The Gauss points lie in a (4, m) array, so each reduction is three
    vector passes over contiguous rows; the sum still runs
    ((w0 + w1) + w2) + w3 per cell.
    """
    centers = (np.arange(m) + 0.5) * h
    pts = centers[None, :] + (0.5 * h * _GL_X)[:, None]
    logs = np.asarray(prof.log_density(pts), dtype=float) \
        + np.log(0.5 * h * _GL_W)[:, None]
    peak = logs.max(axis=0)
    return peak + np.log(np.sum(np.exp(logs - peak), axis=0))


def discretize(man: ModelManifold, beta: float, m: int) -> DiscreteOperator:
    """Symmetric tridiagonal discretization of -Lap + beta*sigma."""
    grid = operator_grid(man, m)
    h = grid.h
    if man.kind == Kind.INTERVAL:
        diag = np.full(m, 2.0 / h**2) + beta * grid.sigma
        off = np.full(m - 1, -1.0 / h**2)
        log_mass = np.full(m, math.log(h))
        return DiscreteOperator(grid, diag, off, float(beta), log_mass)
    prof = man.profile
    faces = h * np.arange(1, m + 1)          # face m sits on the outer boundary
    lF = np.asarray(prof.log_density(faces), dtype=float)
    lM = _cell_log_masses(prof, m, h)
    diag = np.empty(m)
    diag[0] = np.exp(lF[0] - lM[0]) / h
    diag[1:] = (np.exp(lF[:-1] - lM[1:]) + np.exp(lF[1:] - lM[1:])) / h
    diag[-1] += np.exp(lF[-1] - lM[-1]) / h  # Dirichlet face at h/2: flux 2A(R)/h
    diag += beta * grid.sigma
    off = -np.exp(lF[:-1] - 0.5 * (lM[:-1] + lM[1:])) / h
    return DiscreteOperator(grid, diag, off, float(beta), lM)


def first_eigenpair(op: DiscreteOperator) -> SpectralResult:
    """Smallest eigenvalue and its one-signed eigenvector."""
    lam, v = smallest_eigenpair(op.diag, op.offdiag)
    u = op.unweight(v)
    return SpectralResult(lambda1=lam, eigenfunction=u, grid_size=op.grid.size,
                          beta=op.beta)


def _nbytes(u: np.ndarray | None) -> int:
    return 0 if u is None else u.nbytes


def _lambda1_cached(man: ModelManifold, beta: float, m: int, vector: bool = True):
    """(lambda_1, eigenfunction) at grid m; the eigenfunction is None unless
    ``vector`` asked for it, and is then read-only."""
    global _cache_nbytes
    key = (man.key(), beta, m)
    hit = _cache.get(key)
    if hit is not None and (hit[1] is not None or not vector):
        _cache.move_to_end(key)
        return hit
    op = discretize(man, beta, m)
    if vector:
        res = first_eigenpair(op)
        lam, u = res.lambda1, res.eigenfunction
        u.flags.writeable = False
    else:
        lam, u = smallest_eigenpair(op.diag, op.offdiag)[0], None
    _cache.pop(key, None)  # an eigenvalue-only entry holds no bytes
    hit = _cache[key] = (lam, u)
    _cache_nbytes += _nbytes(u)
    while _cache_nbytes > _CACHE_BYTES:
        _, (_, old) = _cache.popitem(last=False)
        _cache_nbytes -= _nbytes(old)
    return hit


def lambda1_beta(
    man: ModelManifold,
    beta: float,
    m: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> SpectralResult:
    """First Dirichlet eigenvalue of -Lap + beta*sigma with a two-grid certificate.

    Products and boxes are solved factor by factor and the results added.
    """
    if man.is_product_like:
        return _add_factors([lambda1_beta(f, beta, m, tol) for f in man.factors])
    lam_c, _ = _lambda1_cached(man, beta, m, vector=False)
    lam_f, u = _lambda1_cached(man, beta, 2 * m)
    cert = abs(lam_c - lam_f) / max(abs(lam_f), 1e-300)
    if cert >= 10 * tol:
        raise NumericalFailureError(
            "grid-doubling certificate failed",
            coarse=lam_c, fine=lam_f, certificate=cert, tol=tol,
        )
    richardson = (4.0 * lam_f - lam_c) / 3.0
    return SpectralResult(
        lambda1=lam_f, eigenfunction=u, grid_size=2 * m, beta=float(beta),
        richardson_estimate=richardson, certificate=cert,
    )


def sc_stab(
    man: ModelManifold,
    m: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> SpectralResult:
    """Stabilized scalar curvature 4 lambda_1(-Lap + Sc/4); additive over products."""
    return lambda1_beta(man, 0.25, m, tol)


def eigen_product(factors, m: int = DEFAULT_GRID, tol: float = DEFAULT_TOL) -> SpectralResult:
    """sc_stab of the Riemannian product of the manifolds ``factors``."""
    return sc_stab(product(factors), m, tol)


def _add_factors(results: list[SpectralResult]) -> SpectralResult:
    """Spectral additivity: one result for a product from its factors' results."""
    return SpectralResult(
        lambda1=sum(r.lambda1 for r in results), eigenfunction=None,
        grid_size=max(r.grid_size for r in results), beta=results[0].beta,
        richardson_estimate=sum(r.richardson_estimate for r in results),
        certificate=max(r.certificate for r in results),
    )


def exhaustion_limit(
    man: ModelManifold,
    radii,
    m: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> list[SpectralResult]:
    """Stabilized curvature along an exhausting family of concentric sub-balls."""
    if not man.is_radial:
        raise InvalidKindError("exhaustion_limit requires a radial manifold")
    radii = [float(r) for r in radii]
    if not radii:
        raise InvalidParameterError("need at least one radius")
    for r_prev, r_next in zip(radii, radii[1:]):
        if r_next < r_prev:
            raise InvalidParameterError(
                f"radii must be non-decreasing; got {r_prev} then {r_next}"
            )
    if radii[-1] > man.profile.r_max * (1 + 1e-12):
        raise InvalidParameterError(
            f"radius {radii[-1]} exceeds the manifold radius {man.profile.r_max}"
        )
    return [sc_stab(man.with_radius(r), m, tol) for r in radii]
