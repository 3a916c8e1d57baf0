"""Dirichlet eigensolves of -Laplace + beta*Sc on intervals and radial manifolds.

Each operator is a symmetric tridiagonal Stieltjes matrix (negative
off-diagonal), so the first eigenvector is simple and one-signed.  The input
decides the scheme; there is no option.

Liouville normal form: balls, caps and hyperbolic balls of dimension n >= 2.
With v = sn^((n-1)/2) u the radial problem is -v'' + Q v = lambda v,

    Q = beta sigma + (n-1)(n-3)/4 (sn'/sn)^2 - (n-1)/2 kappa,

sn'/sn being the drift over n - 1 (cot, 1/d or coth: finite at every node,
so no density is evaluated and nothing overflows on large hyperbolic balls).
It is discretized by 3-point differences at the staggered nodes
d_i = (i-1/2)h: diagonal 2/h^2 + Q(d_i), off-diagonal -1/h^2, and 1/h^2 more
in the first and last rows, from the ghost values -v (v odd about d = 0; the
Dirichlet face at d = r).  At n = 3, Q is constant and the discrete
eigenvector is sin(pi (i-1/2)/m).  At n = 2, where v ~ d^(1/2) and
Q ~ -1/(4 d^2), the centre rows are fitted so that they map d^(1/2) to zero
(_normal_operator).  The node weight is A(d_i) h, so v = sqrt(weight) u,
computed only where it is read (unweight).  Next to the centre the rows are
not consistent node by node (v ~ d^((n-1)/2)), so unweighted samples there
are poor for n >= 4, and at n = 2 too rough for pointwise quotients;
finite_volume_operator serves readers of function samples and pointwise
quotients.  At n = 4 (v ~ d^(3/2)) the Richardson estimate gains less than
elsewhere.

Finite volumes: intervals and custom profiles, and every radial manifold in
finite_volume_operator.  The generalized problem
-(A u')' + beta sigma A u = lambda A u is discretized conservatively and
symmetrized by sqrt(mass), with cell masses in log space, so steep warps
never overflow: entries only involve ratios of neighboring densities.  Each
mass is a 4-point Gauss-Legendre rule per cell (_cell_log_masses).
Intervals use interior nodes a+h..b-h with Dirichlet closures at both ends;
radial profiles the staggered grid, whose centre face carries zero flux
(A(0) = 0) and whose Dirichlet closure at the outer face is second order.

Products and boxes are solved only by lambda1_beta, which adds its factors'
results (spectral additivity) and their absolute bounds; sc_stab and
eigen_product call it.  The stabilized curvature is 4 lambda_1 at
beta = 1/4 (SpectralResult.sc_stab).  Results carry a two-grid convergence
certificate and a Richardson extrapolation (4 lam(2m) - lam(m))/3; where
4 lam(2m) overflows, it is formed as lam(2m) + (lam(2m) - lam(m))/3, and a
value or product sum that still overflows raises NumericalFailureError.
m is where a ladder starts: while a pair (m, 2m) fails its certificate (10
tol or more), lambda1_beta solves (2m, 4m), up to MAX_GRID_FACTOR m, and
there raises with every rung's certificate; factors climb on their own.

lambda1_beta solves for eigenvalues only; it caches each rung's pair
(lambda_1 at m, lambda_1 at 2m) by (manifold key, beta, m) in one LRU cache
of at most _CACHE_ENTRIES pairs.  On a miss _solve_pair discretizes m and
2m and solves m cold.  A normal form solves 2m from the coarse eigenvector,
prolonged linearly (weights 3/4 and 1/4), and from a first shift at the
coarse value, so that it takes one or two inverse-iteration steps; finite
volumes (intervals, custom profiles, 1-D caps) solve 2m cold.
first_eigenpair solves its operator once, cold; it lies within the solver's
slack of a pair's fine value.  A cold solve starts from _cold_hints: the
exact discrete eigenvector on intervals and n = 3 normal forms (a sine at
n > 3, and sqrt(t) times a quarter sine at n = 2), and on finite-volume
radial operators the node weights times 1 - t^2.  An eigenfunction comes
from first_eigenpair(discretize(man, beta, m)), or, with samples accurate
next to the centre, from first_eigenpair(finite_volume_operator(...)).

Only what a result reads is computed: finite volumes never evaluate the
drift A'/A, which Grid.drift computes from the profile on first read (the
warped curvature fields read it, and the normal form where Q is not
constant: n > 3, and curved n = 2 space forms).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._constants import DEFAULT_GRID, DEFAULT_TOL, MIN_GRID
from ._tridiag import smallest_eigenpair
from .errors import InvalidKindError, InvalidParameterError, NumericalFailureError
from .geometry import Kind, ModelManifold, RadialProfile, SpaceForm, _integer, product

_TINY = float(np.finfo(float).tiny)

# lambda1_beta doubles its grid up to this multiple of the start grid
MAX_GRID_FACTOR = 16

# (lambda_1 at m, lambda_1 at 2m) by (manifold key, beta, m), least recently
# used first
_CACHE_ENTRIES = 2048
_cache: OrderedDict = OrderedDict()


@dataclass(frozen=True)
class Grid:
    """Interior sample nodes plus the coefficient data tied to them."""

    nodes: np.ndarray
    h: float
    sigma: np.ndarray   # scalar curvature samples
    profile: SpaceForm | RadialProfile | None = None  # None on intervals

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


@dataclass(frozen=True)
class DiscreteOperator:
    grid: Grid
    diag: np.ndarray
    offdiag: np.ndarray
    beta: float
    cell_log_mass: np.ndarray | None = None  # finite volumes: log of each cell mass

    @cached_property
    def log_mass(self) -> np.ndarray:
        """log of the volume weight per node: the cell mass on finite volumes,
        log(A(d_i) h) in normal form, there computed on first read."""
        if self.cell_log_mass is not None:
            return self.cell_log_mass
        grid = self.grid
        return np.asarray(grid.profile.log_density(grid.nodes), dtype=float) + math.log(grid.h)

    @property
    def normal_form(self) -> bool:
        """True for the Liouville normal form, which has no cell masses."""
        return self.cell_log_mass is None

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
    if type(m) is not int or m < MIN_GRID:  # one test on the common path
        m = _integer(m, "grid size", MIN_GRID)
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
    """log of the volume mass per cell, int A over [ih, (i+1)h], by a 4-point
    Gauss-Legendre rule: custom profiles, and space forms in
    finite_volume_operator.

    The rule is exact where A is a polynomial of degree <= 7 (flat balls up
    to n = 8), and elsewhere off by O((k h)^8) relative on cells of width
    k h in the warp's natural scale.  Midpoint masses are O(1) off in the
    first cell, where A ~ d^(n-1) is far from linear; that inconsistency
    leaves a kink in the eigenvector at the coordinate center.  Quadrature
    in log space keeps steep densities (large hyperbolic balls)
    overflow-free.

    The Gauss points lie in a (4, m) array, so each reduction is three
    vector passes over contiguous rows; the sum still runs
    ((w0 + w1) + w2) + w3 per cell.  The log-sum-exp runs in place.
    """
    centers = (np.arange(m) + 0.5) * h
    pts = centers[None, :] + (0.5 * h * _GL_X)[:, None]
    logs = np.array(prof.log_density(pts), dtype=float)
    logs += np.log(0.5 * h * _GL_W)[:, None]
    peak = logs.max(axis=0)
    logs -= peak
    total = np.exp(logs, out=logs).sum(axis=0)
    total = np.log(total, out=total)
    total += peak
    return total


def discretize(man: ModelManifold, beta: float, m: int) -> DiscreteOperator:
    """Symmetric tridiagonal discretization of -Lap + beta*sigma: Liouville
    normal form on space forms of dimension 2 and up, finite volumes on
    everything else."""
    grid = operator_grid(man, m)
    if isinstance(grid.profile, SpaceForm) and grid.profile.dim >= 2:
        return _normal_operator(grid, beta)
    return _finite_volumes(grid, beta)


def finite_volume_operator(man: ModelManifold, beta: float, m: int) -> DiscreteOperator:
    """The finite-volume discretization of -Lap + beta*sigma on any interval
    or radial manifold.

    Its rows are consistent node by node: with v = sqrt(mass) u, (T v)_i / v_i
    is the discrete (-Lap u)/u + beta sigma at every node, and unweight
    recovers u to O(h^2) everywhere.  The normal form's rows are not, next
    to the centre: there v ~ d^((n-1)/2), and u = v / sn^((n-1)/2) divides
    by it.  Readers of function samples and pointwise quotients use this.
    """
    return _finite_volumes(operator_grid(man, m), beta)


def _finite_volumes(grid: Grid, beta: float) -> DiscreteOperator:
    h, m = grid.h, grid.size
    if grid.profile is None:
        diag = np.full(m, 2.0 / h**2) + beta * grid.sigma
        off = np.full(m - 1, -1.0 / h**2)
        log_mass = np.full(m, math.log(h))
        return DiscreteOperator(grid, diag, off, float(beta), log_mass)
    # log A at the outer cell faces (i+1)h, the last on the boundary
    lF = np.asarray(grid.profile.log_density(h * np.arange(1, m + 1)), dtype=float)
    lM = _cell_log_masses(grid.profile, m, h)
    diag = np.empty(m)
    # the ratios overflow on very high-dimensional balls, and an overflowing
    # ratio plus an overflowing -beta*sigma is nan; the solver refuses a
    # non-finite entry with a NumericalFailureError
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(np.subtract(lF, lM, out=diag), out=diag)  # through each outer face
        boundary = diag[-1] / h
        diag[1:] += np.exp(lF[:-1] - lM[1:])  # through each inner face
        diag /= h
        diag[-1] += boundary  # Dirichlet face at h/2: flux 2A(R)/h
        diag += beta * grid.sigma
        off = np.add(lM[:-1], lM[1:])
        off *= -0.5
        off += lF[:-1]
        np.exp(off, out=off)
        off /= -h
    return DiscreteOperator(grid, diag, off, float(beta), lM)


def _normal_operator(grid: Grid, beta: float) -> DiscreteOperator:
    """-v'' + Q v on v = sn^((n-1)/2) u by 3-point differences at the nodes.

    Q = beta sigma + (n-1)(n-3)/4 (sn'/sn)^2 - (n-1)/2 kappa, with sn'/sn
    the profile's drift over n - 1 (cot, 1/d or coth: finite at every node).
    The ghost values are -v at both ends: v is odd about d = 0, and the
    Dirichlet face lies at d = r, half a cell beyond the last node.

    At n = 2, Q ~ -1/(4 d^2) and the indicial exponent 1/2 is double, so the
    ghost row cannot tell d^(1/2) from d^(1/2) log d.  The centre rows are
    fitted to d^(1/2) instead (Pryce 1993, on singular endpoints): at node
    d = j h, j = i - 1/2, the singular part -1/(4 d^2) becomes its discrete
    value on d^(1/2), (sqrt(j+1) - 2 sqrt(j) + sqrt(j-1)) / (sqrt(j) h^2),
    and the first row is (sqrt(3) v_1 - v_2)/h^2, so the rows map d^(1/2) to
    zero at every node.  The smooth rest, -kappa/2 - ((sn'/sn)^2 - 1/d^2)/4,
    is zero on flat disks; elsewhere its rounding, O(eps/d^2), lies below
    the matrix's own, eps/h^2.
    """
    prof, h = grid.profile, grid.h
    n = prof.dim
    inv_h2 = 1.0 / h**2
    # Q overflows on very high-dimensional balls or at huge |beta|; the
    # solver refuses a non-finite entry with a NumericalFailureError
    with np.errstate(over="ignore", invalid="ignore"):
        diag = beta * grid.sigma
        if n == 2:
            # sqrt(j+1) - 2 sqrt(j) + sqrt(j-1) without cancellation
            j = np.arange(1.5, grid.size)
            s0, s1, sm = np.sqrt(j), np.sqrt(j + 1), np.sqrt(j - 1)
            centre = np.empty(grid.size)
            centre[0] = math.sqrt(3.0)
            centre[1:] = 2.0 - 2.0 / (s0 * (s1 + sm) * (s1 + s0) * (s0 + sm))
            diag += centre * inv_h2 - 0.5 * prof.kappa
            if prof.kappa:
                cot, d = grid.drift, grid.nodes
                diag -= 0.25 * (cot * cot - 1.0 / (d * d))
        else:
            diag += 2.0 * inv_h2 - 0.5 * (n - 1) * prof.kappa
            if n > 3:  # at n = 3 Q is constant
                cot = grid.drift / (n - 1)
                diag += 0.25 * (n - 1) * (n - 3) * (cot * cot)
            diag[0] += inv_h2
    diag[-1] += inv_h2
    off = np.full(grid.size - 1, -inv_h2)
    return DiscreteOperator(grid, diag, off, float(beta))


def _cold_hints(op: DiscreteOperator) -> dict:
    """Hints for a cold solve of op: a positive start vector shaped like its
    first eigenvector, whose Collatz-Wielandt value is the first shift.

    Intervals: sin(pi i / (m + 1)), the exact discrete eigenvector.  Normal
    forms: at n = 2 sqrt(t) sin(pi (1 - t)/2), shaped like d^(1/2) at the
    centre, with t = (i - 1/2)/m and 1 - t formed exactly; otherwise
    sin(pi (i - 1/2) / m), exact at n = 3, and a sine-shaped start for
    n > 3.  Finite-volume radial operators: x (1 - t^2) with
    x = sqrt(mass / max mass), the symmetrized samples of a function that
    vanishes at t = 1, and t the node over r.  Where that vector underflows,
    or the masses are not finite, there are no hints: ones and Gershgorin's
    shift.
    """
    m, prof = op.grid.size, op.grid.profile
    if op.normal_form and prof.dim == 2:
        k = np.arange(m) + 0.5
        return {"start": np.sqrt(k / m) * np.sin((0.5 * math.pi) * ((m - k) / m))}
    if prof is None or op.normal_form:
        return {"start": _sine_start(m, prof is None)}
    with np.errstate(under="ignore"):
        x = np.exp(0.5 * (op.log_mass - op.log_mass.max()))
        t = op.grid.nodes / (m * op.grid.h)
        x *= 1.0 - t * t
    if not x.min() >= _TINY:  # also on nan
        return {}
    return {"start": x}


def _sine_start(m: int, interval: bool) -> np.ndarray:
    """The discrete eigenvector of -v'' with Dirichlet ends: sin(pi i/(m+1))
    on interval nodes, sin(pi (i - 1/2)/m) on staggered ones.  Half of it,
    mirrored: sin near pi would lose the relative accuracy of the small
    entries, and with it a first shift within the slack."""
    if interval:
        half = np.sin((math.pi / (m + 1)) * np.arange(1, (m + 1) // 2 + 1))
    else:
        half = np.sin((math.pi / m) * (np.arange((m + 1) // 2) + 0.5))
    return np.concatenate((half, half[:m // 2][::-1]))


def first_eigenpair(op: DiscreteOperator) -> SpectralResult:
    """Smallest eigenvalue and its one-signed eigenvector, as function samples
    at the nodes, from one cold solve of op.

    On a normal-form operator (space forms with n >= 4) the samples next to
    the centre are poor, 14 % off at n = 4 and more in higher dimension,
    because unweighting divides v ~ d^((n-1)/2) by the weight; the
    eigenvalue is not affected.  At n = 2 they are good to O(h^2), but not
    smooth enough next to the centre for second differences: the warped
    quotient of the hemisphere is 9.5 % off at the first node.  For samples
    good to O(h^2) at every node, and smooth there, pass
    finite_volume_operator(man, beta, m) in place of discretize.
    """
    lam, v = smallest_eigenpair(op.diag, op.offdiag, **_cold_hints(op))
    return SpectralResult(lambda1=lam, eigenfunction=op.unweight(v),
                          grid_size=op.grid.size, beta=op.beta)


def _solve_pair(man: ModelManifold, beta: float, m: int):
    """(lambda_1 at m, lambda_1 at 2m).

    Both grids are discretized and the coarse one solved cold.  A normal
    form solves the fine grid from the coarse eigenvector, prolonged
    linearly, and from a first shift at the coarse value; the solver falls
    back if that shift lies above lambda_1.  Finite volumes solve it cold.
    """
    coarse, fine = discretize(man, beta, m), discretize(man, beta, 2 * m)
    lam_c, v_c = smallest_eigenpair(coarse.diag, coarse.offdiag, **_cold_hints(coarse))
    if not fine.normal_form:
        return lam_c, smallest_eigenpair(fine.diag, fine.offdiag, **_cold_hints(fine))[0]
    # linear, with the ghost -v at both ends: the fine nodes lie a quarter
    # of a coarse cell either side of each coarse node
    start = np.repeat(0.75 * v_c, 2)
    quarter = 0.25 * v_c
    start[2::2] += quarter[:-1]
    start[1:-1:2] += quarter[1:]
    start[0] -= quarter[0]
    start[-1] -= quarter[-1]
    return lam_c, smallest_eigenpair(fine.diag, fine.offdiag, start=start, below=lam_c)[0]


def lambda1_beta(
    man: ModelManifold,
    beta: float,
    m: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> SpectralResult:
    """First Dirichlet eigenvalue of -Lap + beta*sigma with a two-grid certificate.

    m starts the grid ladder (module docstring).  Products and boxes are
    solved factor by factor, each on its own ladder, and the results added.
    """
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be finite and positive, got {tol}")
    if not math.isfinite(beta):
        raise InvalidParameterError(f"beta must be finite, got {beta}")
    # checked here, for every kind: 1e3 becomes 1000 before the cache key
    # and grid_size
    if type(m) is not int or m < MIN_GRID:  # one test on the common path
        m = _integer(m, "grid size", MIN_GRID)
    if man.is_product_like:
        res = _add_factors([lambda1_beta(f, beta, m, tol) for f in man.factors])
        if not (math.isfinite(res.lambda1) and math.isfinite(res.richardson_estimate)):
            raise NumericalFailureError(
                "product eigenvalue overflows",
                lambda1=res.lambda1, richardson=res.richardson_estimate,
            )
        return res
    failed = ()  # (m, certificate) of each pair that failed, from the start
    while True:
        key = (man.key(), beta, m)
        pair = _cache.get(key)
        if pair is None:
            pair = _cache[key] = _solve_pair(man, beta, m)
            if len(_cache) > _CACHE_ENTRIES:
                _cache.popitem(last=False)
        else:
            _cache.move_to_end(key)
        lam_c, lam_f = pair
        cert = abs(lam_c - lam_f) / max(abs(lam_f), 1e-300)
        if not cert >= 10 * tol:
            break
        failed += ((m, cert),)
        if m == MAX_GRID_FACTOR * failed[0][0]:
            raise NumericalFailureError(
                "grid-doubling certificate failed", m=m, coarse=lam_c, fine=lam_f,
                certificate=cert, tol=tol, rungs=dict(failed),
            )
        m *= 2
    richardson = (4.0 * lam_f - lam_c) / 3.0
    if not math.isfinite(richardson):  # 4 lam_f overflows above ~4.5e307
        richardson = lam_f + (lam_f - lam_c) / 3.0
        if not math.isfinite(richardson):
            raise NumericalFailureError(
                "Richardson estimate overflows", m=m, coarse=lam_c, fine=lam_f)
    return SpectralResult(
        lambda1=lam_f, eigenfunction=None, grid_size=2 * m, beta=float(beta),
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
    """Spectral additivity: one result for a product from its factors' results.

    The factors' absolute bounds add, so the certificate of the sum is
    sum(cert_i |lambda_i|) / |sum lambda_i|, which stays honest where the
    factors' eigenvalues nearly cancel.
    """
    lam = sum(r.lambda1 for r in results)
    bound = sum(r.certificate * abs(r.lambda1) for r in results)
    return SpectralResult(
        lambda1=lam, eigenfunction=None,
        grid_size=max(r.grid_size for r in results), beta=results[0].beta,
        richardson_estimate=sum(r.richardson_estimate for r in results),
        certificate=bound / max(abs(lam), 1e-300),
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
