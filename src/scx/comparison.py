"""Curvature comparison against space-form balls, and hyperbolic diagnostics.

A radial manifold X with radial Ricci bound -sn''/sn >= kappa, scalar
curvature >= n(n-1) kappa, and boundary mean curvature >= mu dominates the
model ball B^n_{kappa,mu}: its stabilized curvature is at least the model's.
The proof transplants the model's first eigenfunction, written as a function
of the distance to the boundary, onto X, where the mean-curvature Riccati
comparison makes the pointwise eigenvalue quotient only larger.

Hyperbolic balls B^n_{-1}(r) satisfy sc = 4 lambda_1(-Lap) - n(n-1); the
diagnostic c(r) = 4 lambda_1 / (n-1)^2 - 1/r^2 is reported against the
published window [1/6, 1] (see README: for small and moderate r the measured
values exceed that window by a wide, reproducible margin; in dimension 3 the
closed form lambda_1 = 1 + pi^2/r^2 pins c(r) = 1 + (pi^2 - 1)/r^2).

The window that does hold: v = sinh^((n-1)/2)(rho) u turns the radial
Dirichlet problem into -v'' + [(n-1)^2/4 + (n-1)(n-3)/(4 sinh^2 rho)] v =
lambda v on (0, r), and rho <= sinh rho puts the extra potential between 0
and the flat ball's (n-1)(n-3)/(4 rho^2).  Hence lambda_1 - (n-1)^2/4 lies
between pi^2/r^2 and j_nu^2/r^2 with nu = n/2 - 1 (the order flips for
n = 2; the bounds meet at n = 3), so c(r) and sc = 4 (lambda_1 - (n-1)^2/4)
- (n-1) have closed-form two-sided bounds, and sc changes sign at a radius in
[2 min(pi, j_nu), 2 max(pi, j_nu)] / sqrt(n-1).  j_nu comes from
``closed_forms.first_bessel_zero``, which uses only ``math``, so a hyperbolic
eigensolve loads no ``scipy.special`` for this window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._tridiag import tridiag_apply
from .closed_forms import first_bessel_zero
from .errors import InvalidKindError, InvalidParameterError, NumericalFailureError
from .geometry import (
    ModelManifold,
    _integer,
    make_hyperbolic_ball,
    make_space_form_ball,
    radius_from_mean_curvature,
)
from .spectral import (
    DEFAULT_GRID,
    finite_volume_operator,
    lambda1_beta,
    operator_grid,
    sc_stab,
)

_ADMISSIBILITY_TOL = 1e-9
# the published window claimed for hyperbolic_c at r >= 1 (see README)
PUBLISHED_C_WINDOW = (1.0 / 6.0, 1.0)
# model_eigenfunction: degrees of the collocated Chebyshev series, tried in
# turn, and the largest of its last four coefficients accepted, relative to
# the largest one
_CHEB_DEGREES = (64, 128, 256)
_CHEB_TAIL_TOL = 1e-11


@dataclass(frozen=True)
class ComparisonCase:
    manifold: ModelManifold        # the radial manifold under test
    kappa: float
    mu: float
    model: ModelManifold           # the space-form ball B^n_{kappa,mu}

    @property
    def n(self) -> int:
        return self.manifold.dim


def make_comparison_case(
    man: ModelManifold, kappa: float, mu: float, m_check: int = 512
) -> ComparisonCase:
    """Validate the comparison hypotheses on a check grid and attach the model."""
    if not man.is_radial:
        raise InvalidKindError("comparison requires a radial manifold")
    prof = man.profile
    n = man.dim
    grid = operator_grid(man, m_check)

    ric = prof.radial_ricci(grid.nodes)
    bad = ric < kappa - _ADMISSIBILITY_TOL * max(1.0, abs(kappa))
    if np.any(bad):
        node = grid.nodes[np.argmax(bad)]
        raise InvalidParameterError(
            f"radial Ricci bound violated at node d={node:g}: "
            f"-sn''/sn = {ric[np.argmax(bad)]:g} < kappa = {kappa:g}"
        )
    floor = n * (n - 1) * kappa
    bad = grid.sigma < floor - _ADMISSIBILITY_TOL * max(1.0, abs(floor))
    if np.any(bad):
        node = grid.nodes[np.argmax(bad)]
        raise InvalidParameterError(
            f"scalar curvature below the space-form floor {floor:g} "
            f"at node d={node:g}"
        )
    bdry_mu = prof.mean_curvature(prof.r_max)
    if bdry_mu < mu - _ADMISSIBILITY_TOL * max(1.0, abs(mu)):
        raise InvalidParameterError(
            f"boundary mean curvature {bdry_mu:g} below the required mu = {mu:g}"
        )

    r_model = radius_from_mean_curvature(n, kappa, mu)
    if prof.r_max > r_model * (1 + 1e-9):
        raise InvalidParameterError(
            f"manifold radius {prof.r_max:g} exceeds the model radius {r_model:g}; "
            "the boundary-distance transplant is not defined"
        )
    model = make_space_form_ball(n, kappa, r_model)
    return ComparisonCase(manifold=man, kappa=float(kappa), mu=float(mu), model=model)


def compare_sc_stab(case: ComparisonCase, m: int = DEFAULT_GRID) -> tuple[float, float]:
    """(sc of X, sc of the model); checks the comparison inequality.

    The inequality is a theorem for admissible cases, so a violation beyond
    the two solves' certificates means the numerics failed: it raises
    NumericalFailureError with sc_x, sc_model and tol in its details.
    """
    res_x = sc_stab(case.manifold, m)
    res_m = sc_stab(case.model, m)
    tol = 2.0 * max(res_x.certificate, res_m.certificate) * abs(res_m.sc_stab) + 1e-9
    if res_x.sc_stab < res_m.sc_stab - tol:
        raise NumericalFailureError(
            f"comparison inequality violated: sc(X) = {res_x.sc_stab:.9g} < "
            f"sc(model) = {res_m.sc_stab:.9g} - tol {tol:.2g}",
            sc_x=res_x.sc_stab, sc_model=res_m.sc_stab, tol=tol,
        )
    return (res_x.sc_stab, res_m.sc_stab)


@functools.cache
def _cheb_table(deg: int) -> tuple[np.ndarray, ...]:
    """(x, T, T', T'') of one degree, built on first use and kept: the
    Lobatto points x other than x = -1 and the values there of T_k, T_k'
    and T_k'' (k = 0..deg), each read-only; they do not depend on the model."""
    from numpy.polynomial import chebyshev as cheb

    x = np.cos(np.pi * np.arange(1, deg + 1) / deg)
    eye = np.eye(deg + 1)
    table = (x, cheb.chebvander(x, deg),
             *(cheb.chebval(x, cheb.chebder(eye, k)).T for k in (1, 2)))
    for arr in table:
        arr.setflags(write=False)
    return table


def model_eigenfunction(model: ModelManifold, lam: float):
    """First Laplace eigenfunction of a space-form ball as a smooth callable.

    Chebyshev collocation of sn phi'' + (n-1) sn' phi' + lam sn phi = 0 on
    [0, r] at the Lobatto points other than rho = r, plus the row phi(0) = 1;
    at rho = 0 the equation itself reads phi'(0) = 0.  A series whose
    trailing coefficients have not decayed is collocated again at a higher
    degree; at the highest one it raises NumericalFailureError instead (caps
    reaching closer to the antipode than the eigensolver does; see README).
    """
    from numpy.polynomial import chebyshev as cheb

    prof = model.profile
    n, r = model.dim, prof.r_max
    for deg in _CHEB_DEGREES:
        x, vander, t1, t2 = _cheb_table(deg)
        rho = 0.5 * r * (1.0 + x)
        sn, snp = prof.warp(rho)[:, None], prof.warp_prime(rho)[:, None]
        d1, d2 = (2.0 / r) * t1, (2.0 / r) ** 2 * t2
        ode = sn * d2 + (n - 1) * snp * d1 + lam * sn * vander
        # rows scaled to max-norm 1: their raw sizes span orders of magnitude,
        # which costs digits where phi is small, next to rho = r
        rows = np.vstack([ode / np.max(np.abs(ode), axis=1, keepdims=True),
                          (-1.0) ** np.arange(deg + 1)])
        rhs = np.zeros(deg + 1)
        rhs[-1] = 1.0
        coef = np.linalg.solve(rows, rhs)
        tail = float(np.max(np.abs(coef[-4:])) / np.max(np.abs(coef)))
        if tail <= _CHEB_TAIL_TOL:
            break
    else:
        raise NumericalFailureError(
            f"model eigenfunction not resolved at Chebyshev degree {deg}",
            n=n, r=r, lam=lam, tail=tail)

    def phi(rho):
        return cheb.chebval(2.0 * np.clip(rho, 0.0, r) / r - 1.0, coef)

    return phi


def transplant_check(case: ComparisonCase, m: int = 1024) -> bool:
    """Discrete pointwise pattern of the comparison proof.

    Transplants the model's first eigenfunction by boundary distance onto X
    and checks (-Lap_X u)/u >= lambda_1(model) at every evaluation node, plus
    the same bound for the global Rayleigh quotient.
    """
    model_res = lambda1_beta(case.model, 0.0, m)
    lam = model_res.richardson_estimate
    phi = model_eigenfunction(case.model, lam)

    # finite volumes: their quotient is consistent at every node, also next
    # to the centre, where the normal form's is not
    op = finite_volume_operator(case.manifold, 0.0, m)
    r_x = case.manifold.profile.r_max
    r_m = case.model.profile.r_max
    rho_model = r_m - (r_x - op.grid.nodes)  # equal boundary distance
    u = phi(rho_model)
    if np.any(u <= 0):
        raise InvalidParameterError("transplanted eigenfunction not positive on X")

    # symmetrized samples v = sqrt(mass) u: (T v)_i / v_i is the discrete
    # (-Lap_X u)/u at node i, and v.Tv / v.v the Rayleigh quotient of u
    v = u * np.exp(0.5 * (op.log_mass - op.log_mass.max()))
    tv = tridiag_apply(op.diag, op.offdiag, v)
    tol = 2e-3 * abs(lam) + 1e-8
    pointwise_ok = bool(np.all((tv / v)[op.grid.eval_slice] >= lam - tol))
    rq_ok = float(v @ tv / (v @ v)) >= lam - tol
    return pointwise_ok and rq_ok


def hyperbolic_c_from_lambda(n: int, r: float, lam: float) -> float:
    """c(r) = 4 lam / (n-1)^2 - 1/r^2 for lam = lambda_1(-Lap on B^n_{-1}(r))."""
    return 4.0 * lam / (n - 1) ** 2 - 1.0 / r**2


def hyperbolic_c_window(n: int, r: float) -> tuple[float, float]:
    """The proven bounds on c(r) of hyperbolic_c, from closed forms alone;
    (n, r) is refused where make_hyperbolic_ball refuses it."""
    prof = make_hyperbolic_ball(n, r).profile
    n, r = prof.dim, prof.r_max
    lo, hi = sorted((math.pi**2, first_bessel_zero(n / 2.0 - 1.0) ** 2))
    k = 4.0 / (n - 1) ** 2
    return (1.0 + (k * lo - 1.0) / r**2, 1.0 + (k * hi - 1.0) / r**2)


def hyperbolic_c(n: int, r: float, m: int = DEFAULT_GRID) -> float:
    """c(r) = 4 lambda_1(-Lap on B^n_{-1}(r)) / (n-1)^2 - 1/r^2.

    Since lambda_1 - (n-1)^2/4 lies between pi^2/r^2 and j_nu^2/r^2 with
    nu = n/2 - 1 (module docstring), the exact value lies in
    [1 + (4 min(pi^2, j_nu^2)/(n-1)^2 - 1)/r^2,
     1 + (4 max(pi^2, j_nu^2)/(n-1)^2 - 1)/r^2] (hyperbolic_c_window);
    at n = 3 both ends equal 1 + (pi^2 - 1)/r^2.
    """
    lam = lambda1_beta(make_hyperbolic_ball(n, r), 0.0, m).lambda1
    return hyperbolic_c_from_lambda(n, r, lam)


def hyperbolic_sc(n: int, r: float, m: int = DEFAULT_GRID) -> float:
    """Stabilized curvature of the hyperbolic r-ball, 4 lambda_1 - n(n-1)."""
    return sc_stab(make_hyperbolic_ball(n, r), m).sc_stab


def positivity_threshold_radius(n: int) -> float:
    """Published rough radius sqrt(6(n-1)/(5n+1)) below which sc > 0."""
    n = _integer(n, "dimension", 2)
    return math.sqrt(6.0 * (n - 1) / (5.0 * n + 1))


def admissible_catalog(kappa: float, count: int, seed: int, dims=(2, 3, 4)):
    """Seeded family of admissible comparison cases for the given kappa.

    Draws space-form balls of curvature kappa' >= kappa and a required mean
    curvature mu at or below the actual boundary value, rejecting draws for
    which the model ball does not exist.
    """
    count = _integer(count, "count", 0)
    seed = _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    cases = []
    guard = 0
    while len(cases) < count:
        guard += 1
        if guard > 100 * count:
            raise InvalidParameterError(
                f"could not build {count} admissible cases for kappa={kappa}"
            )
        n = int(rng.choice(dims))
        kp = kappa + rng.uniform(0.0, 1.5)
        if kp > 0:
            r_x = rng.uniform(0.15, 0.85) * math.pi / math.sqrt(kp)
        else:
            r_x = rng.uniform(0.2, 2.5)
        man = make_space_form_ball(n, kp, r_x)
        mu_x = man.profile.mean_curvature(r_x)
        mu = mu_x - rng.uniform(0.0, 0.5) * abs(mu_x)
        if kappa == 0 and mu <= 1e-6:
            continue
        if kappa < 0 and mu <= (n - 1) * math.sqrt(-kappa) * (1 + 1e-6):
            continue
        try:
            cases.append(make_comparison_case(man, kappa, mu))
        except InvalidParameterError:
            continue
    return cases
