"""Catalog of model manifolds and their one-dimensional radial reductions.

Every supported geometry is either an interval, a product of supported
factors, or a rotationally symmetric manifold described by a radial profile:
a warping function sn(d) on [0, r_max] giving the geodesic-sphere radius
factor, the induced volume density A(d) = sn(d)^(n-1), and the scalar
curvature sigma(d).  The unit-sphere area constant is omitted from A; it
cancels in every Rayleigh quotient downstream.

Space forms of curvature kappa use

    sn(d) = sin(sqrt(kappa) d)/sqrt(kappa)    kappa > 0
    sn(d) = d                                 kappa = 0
    sn(d) = sinh(sqrt(-kappa) d)/sqrt(-kappa) kappa < 0

with sigma == n(n-1) kappa.  Mean curvature of a geodesic sphere uses the
sum-of-principal-curvatures convention, mu = (n-1) sn'(r)/sn(r), so the
boundary of the unit Euclidean ball has mean curvature n-1.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InvalidParameterError

MAX_RADIUS = 1e3

_custom_counter = itertools.count()


class Kind(str, enum.Enum):
    INTERVAL = "interval"
    BOX = "box"
    SPACE_FORM_BALL = "ball"
    SPHERICAL_CAP = "cap"
    HYPERBOLIC_BALL = "hypball"
    RADIAL_CUSTOM = "custom"
    PRODUCT = "product"


@dataclass(frozen=True)
class RadialProfile:
    """One-dimensional reduction of a rotationally symmetric manifold."""

    dim: int
    kappa: float | None  # None for custom (non-space-form) profiles
    warp: Callable = field(compare=False)
    warp_prime: Callable = field(compare=False)
    scalar_curv: Callable = field(compare=False)
    r_max: float = 1.0

    def log_density(self, d):
        return (self.dim - 1) * np.log(self.warp(d))

    def drift(self, d):
        """A'(d)/A(d), the first-order coefficient of the radial Laplacian."""
        return (self.dim - 1) * self.warp_prime(d) / self.warp(d)

    def mean_curvature(self, r: float) -> float:
        """Sum of principal curvatures of the geodesic sphere of radius r."""
        return float((self.dim - 1) * self.warp_prime(r) / self.warp(r))

    def validate(self) -> None:
        if self.dim < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {self.dim}")
        if not 0 < self.r_max <= MAX_RADIUS:
            raise InvalidParameterError(
                f"r_max must lie in (0, {MAX_RADIUS:g}], got {self.r_max}"
            )
        eps = 1e-7 * self.r_max
        w0 = float(self.warp(eps))
        if not 0.999 <= w0 / eps <= 1.001:
            raise InvalidParameterError(
                "ball-type profile requires sn(0)=0 and sn'(0)=1; "
                f"got sn({eps:g})={w0:g}"
            )
        d = np.linspace(self.r_max / 64, self.r_max * (1 - 1e-9), 64)
        w = np.asarray(self.warp(d), dtype=float)
        if not np.all(w > 0):
            bad = d[np.argmin(w)]
            raise InvalidParameterError(f"warp function not positive at d={bad:g}")


@dataclass(frozen=True)
class ModelManifold:
    """Symbolic description of a supported geometry."""

    kind: Kind
    dim: int
    params: tuple
    profile: RadialProfile | None = field(default=None, compare=False, repr=False)
    factors: tuple["ModelManifold", ...] = ()

    @property
    def is_radial(self) -> bool:
        return self.profile is not None

    @property
    def is_product_like(self) -> bool:
        return self.kind in (Kind.PRODUCT, Kind.BOX)

    def key(self) -> tuple:
        """Structural identity used for equality, hashing and result caching."""
        return (self.kind.value, self.dim, self.params,
                tuple(f.key() for f in self.factors))

    def __hash__(self):
        return hash(self.key())

    def with_radius(self, r: float) -> "ModelManifold":
        """Concentric sub-ball of a radial manifold (same warp, smaller r_max)."""
        if not self.is_radial:
            raise InvalidParameterError("with_radius requires a radial manifold")
        if not 0 < r <= self.profile.r_max * (1 + 1e-12):
            raise InvalidParameterError(
                f"sub-radius {r} outside (0, {self.profile.r_max}]"
            )
        if self.kind == Kind.SPACE_FORM_BALL:
            return make_space_form_ball(self.dim, self.params[1], r)
        if self.kind == Kind.SPHERICAL_CAP:
            return make_spherical_cap(self.dim, r)
        if self.kind == Kind.HYPERBOLIC_BALL:
            return make_hyperbolic_ball(self.dim, r)
        prof = replace(self.profile, r_max=float(r))
        return ModelManifold(Kind.RADIAL_CUSTOM, self.dim,
                             (self.dim, float(r)) + self.params[2:], prof)

    def describe(self) -> str:
        if self.kind == Kind.INTERVAL:
            a, b = self.params
            return f"interval [{a:g}, {b:g}]"
        if self.kind == Kind.SPACE_FORM_BALL:
            n, kappa, r = self.params
            return f"ball (n={n}, kappa={kappa:g}, r={r:g})"
        if self.kind == Kind.SPHERICAL_CAP:
            n, angle = self.params
            return f"spherical cap (n={n}, angle={angle:g})"
        if self.kind == Kind.HYPERBOLIC_BALL:
            n, r = self.params
            return f"hyperbolic ball (n={n}, r={r:g})"
        if self.kind == Kind.RADIAL_CUSTOM:
            return f"custom radial (n={self.dim}, r_max={self.params[1]:g})"
        inner = " x ".join(f.describe() for f in self.factors)
        return f"product ({inner})"


def _dimension(n) -> int:
    """n as an int: integers and integer-valued floats only, never truncated."""
    if isinstance(n, numbers.Integral) or (
            isinstance(n, numbers.Real) and float(n).is_integer()):
        return int(n)
    raise InvalidParameterError(f"dimension must be an integer, got {n!r}")


def _space_form_warp(kappa: float):
    if kappa > 0:
        rk = math.sqrt(kappa)
        return (lambda d: np.sin(rk * np.asarray(d, float)) / rk,
                lambda d: np.cos(rk * np.asarray(d, float)))
    if kappa < 0:
        rk = math.sqrt(-kappa)
        return (lambda d: np.sinh(rk * np.asarray(d, float)) / rk,
                lambda d: np.cosh(rk * np.asarray(d, float)))
    return (lambda d: np.asarray(d, float),
            lambda d: np.ones_like(np.asarray(d, float)))


def space_form_profile(n: int, kappa: float, r: float) -> RadialProfile:
    warp, warp_prime = _space_form_warp(kappa)
    sigma = float(n * (n - 1) * kappa)
    prof = RadialProfile(
        dim=n, kappa=float(kappa), warp=warp, warp_prime=warp_prime,
        scalar_curv=lambda d, _s=sigma: np.full_like(np.asarray(d, float), _s),
        r_max=float(r),
    )
    prof.validate()
    return prof


def make_interval(a: float, b: float) -> ModelManifold:
    """Flat 1-manifold [a, b] with Dirichlet endpoints and sigma == 0."""
    a, b = float(a), float(b)
    if not a < b:
        raise InvalidParameterError(f"interval endpoints need a < b, got [{a}, {b}]")
    if b - a > MAX_RADIUS:
        raise InvalidParameterError(f"interval length {b - a:g} exceeds {MAX_RADIUS:g}")
    return ModelManifold(Kind.INTERVAL, 1, (a, b))


def make_space_form_ball(n: int, kappa: float, r: float) -> ModelManifold:
    """Geodesic r-ball in the complete simply connected space of curvature kappa."""
    n = _dimension(n)
    if n < 2:
        raise InvalidParameterError(f"ball dimension must be >= 2, got {n}")
    if r <= 0:
        raise InvalidParameterError(f"ball radius must be positive, got {r}")
    if kappa > 0 and r >= math.pi / math.sqrt(kappa):
        raise InvalidParameterError(
            f"radius {r:g} out of range for kappa={kappa:g}: "
            f"need r < pi/sqrt(kappa) = {math.pi / math.sqrt(kappa):g}"
        )
    prof = space_form_profile(n, kappa, r)
    return ModelManifold(Kind.SPACE_FORM_BALL, n, (n, float(kappa), float(r)), prof)


def make_spherical_cap(n: int, angle: float = math.pi / 2) -> ModelManifold:
    """Cap of opening angle `angle` in the unit n-sphere; pi/2 is the hemisphere."""
    n = _dimension(n)
    if not 0 < angle < math.pi:
        raise InvalidParameterError(f"cap angle must lie in (0, pi), got {angle}")
    prof = space_form_profile(n, 1.0, angle)
    return ModelManifold(Kind.SPHERICAL_CAP, n, (n, float(angle)), prof)


def make_hemisphere(n: int) -> ModelManifold:
    return make_spherical_cap(n, math.pi / 2)


def make_hyperbolic_ball(n: int, r: float) -> ModelManifold:
    """Geodesic r-ball in hyperbolic n-space of curvature -1."""
    n = _dimension(n)
    if n < 2:
        raise InvalidParameterError(f"ball dimension must be >= 2, got {n}")
    if r <= 0:
        raise InvalidParameterError(f"ball radius must be positive, got {r}")
    prof = space_form_profile(n, -1.0, r)
    return ModelManifold(Kind.HYPERBOLIC_BALL, n, (n, float(r)), prof)


def make_radial_custom(
    n: int,
    warp: Callable,
    r_max: float,
    warp_prime: Callable | None = None,
    scalar_curv: Callable | None = None,
) -> ModelManifold:
    """Rotationally symmetric manifold dr^2 + sn(r)^2 g_{S^{n-1}}.

    When ``scalar_curv`` is omitted it is derived from the warp function:

        sigma(r) = -2(n-1) sn''/sn + (n-1)(n-2) (1 - sn'^2)/sn^2.

    ``warp_prime`` defaults to a central finite difference of ``warp``.
    """
    n = _dimension(n)
    if n < 2:
        raise InvalidParameterError(f"dimension must be >= 2, got {n}")
    if warp_prime is None:
        def warp_prime(d, _w=warp, _r=float(r_max)):
            step = 1e-6 * _r
            return (_w(np.asarray(d) + step) - _w(np.asarray(d) - step)) / (2 * step)
    if scalar_curv is None:
        def scalar_curv(d, _w=warp, _wp=warp_prime, _r=float(r_max)):
            d = np.asarray(d, float)
            sn = _w(d)
            snp = _wp(d)
            snpp = _second_difference(_w, d, sn, 1e-5 * _r)
            return (-2 * (n - 1) * snpp / sn
                    + (n - 1) * (n - 2) * (1 - snp**2) / sn**2)
    prof = RadialProfile(dim=n, kappa=None, warp=warp, warp_prime=warp_prime,
                         scalar_curv=scalar_curv, r_max=float(r_max))
    prof.validate()
    token = next(_custom_counter)
    return ModelManifold(Kind.RADIAL_CUSTOM, n, (n, float(r_max), token), prof)


def _second_difference(f: Callable, d, fd, step: float):
    """Central (f(d + step) - 2 f(d) + f(d - step)) / step^2, given fd = f(d)."""
    return (f(d + step) - 2 * fd + f(d - step)) / step**2


def make_box(sides) -> ModelManifold:
    """Rectangular solid given by side lengths; canonically a product of intervals."""
    sides = tuple(float(s) for s in sides)
    if len(sides) < 1:
        raise InvalidParameterError("box needs at least one side length")
    if any(s <= 0 for s in sides):
        raise InvalidParameterError(f"box sides must be positive, got {sides}")
    if len(sides) == 1:
        return make_interval(0.0, sides[0])
    factors = tuple(make_interval(0.0, s) for s in sides)
    return ModelManifold(Kind.BOX, len(sides), sides, factors=factors)


def product(factors) -> ModelManifold:
    """Riemannian product; downstream spectral computations use additivity."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise InvalidParameterError(
            f"product needs at least 2 factors, got {len(factors)}"
        )
    if not all(isinstance(f, ModelManifold) for f in factors):
        raise InvalidParameterError("product factors must be ModelManifold values")
    dim = sum(f.dim for f in factors)
    return ModelManifold(Kind.PRODUCT, dim, (), factors=factors)


def mean_curvature_of_ball(n: int, kappa: float, r: float) -> float:
    """Boundary mean curvature (n-1) sn'(r)/sn(r) of the space-form r-ball."""
    warp, warp_prime = _space_form_warp(kappa)
    sn = float(warp(r))
    if sn <= 0:
        raise InvalidParameterError(f"no geodesic sphere of radius {r} for kappa={kappa}")
    return (n - 1) * float(warp_prime(r)) / sn


def radius_from_mean_curvature(n: int, kappa: float, mu: float) -> float:
    """Radius of the space-form ball whose boundary mean curvature equals mu.

    Solves mu = (n-1) sn'(r)/sn(r) in closed form per curvature sign.
    """
    if n < 2:
        raise InvalidParameterError(f"dimension must be >= 2, got {n}")
    t = mu / (n - 1)
    if kappa == 0:
        if mu <= 0:
            raise InvalidParameterError(
                f"flat balls have positive boundary mean curvature; got mu={mu}"
            )
        r = 1.0 / t
    elif kappa > 0:
        rk = math.sqrt(kappa)
        # (n-1) sqrt(k) cot(sqrt(k) r) = mu has a unique root in (0, pi/sqrt(k))
        r = math.atan2(rk, t) / rk
    else:
        rk = math.sqrt(-kappa)
        if t <= rk:
            raise InvalidParameterError(
                f"kappa={kappa:g} requires mu > (n-1)*sqrt(-kappa) = {(n - 1) * rk:g}; "
                f"got mu={mu}"
            )
        r = math.atanh(rk / t) / rk
    if not 0 < r <= MAX_RADIUS:
        raise InvalidParameterError(
            f"no admissible radius for (n={n}, kappa={kappa}, mu={mu}); solved r={r:g}"
        )
    return r
