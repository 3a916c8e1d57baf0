"""Catalog of model manifolds and their one-dimensional radial reductions.

Every supported geometry is either an interval, a product of supported
factors, or a rotationally symmetric manifold described by a radial profile:
a warping function sn(d) on [0, r_max] giving the geodesic-sphere radius
factor, the induced volume density A(d) = sn(d)^(n-1), and the scalar
curvature sigma(d).  The unit-sphere area constant is omitted from A; it
cancels in every Rayleigh quotient downstream.

Balls, caps and hyperbolic balls are geodesic balls in space forms: their
SpaceForm profile computes from (n, kappa, r) alone, with

    sn(d) = sin(sqrt(kappa) d)/sqrt(kappa)    kappa > 0
    sn(d) = d                                 kappa = 0
    sn(d) = sinh(sqrt(-kappa) d)/sqrt(-kappa) kappa < 0

and sigma == n(n-1) kappa.  A RadialProfile holds a custom warp given by
callables.  Mean curvature of a geodesic sphere uses the
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
# Smallest accepted radius or interval length; 1/r^2 and the 1/h^2 of the
# operators stay far from overflow.
MIN_SIZE = 1e-50

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
class SpaceForm:
    """Profile of the geodesic r_max-ball in the simply connected space of
    curvature kappa, computed from (dim, kappa, r_max) alone."""

    dim: int
    kappa: float
    r_max: float

    def warp(self, d):
        if self.kappa == 0:
            return np.asarray(d, float)
        rk = math.sqrt(abs(self.kappa))
        return (np.sin if self.kappa > 0 else np.sinh)(rk * np.asarray(d, float)) / rk

    def warp_prime(self, d):
        if self.kappa == 0:
            return np.ones_like(np.asarray(d, float))
        rk = math.sqrt(abs(self.kappa))
        return (np.cos if self.kappa > 0 else np.cosh)(rk * np.asarray(d, float))

    def scalar_curv(self, d):
        sigma = float(self.dim * (self.dim - 1) * self.kappa)
        return np.full_like(np.asarray(d, float), sigma)

    def log_density(self, d):
        if self.kappa >= 0:
            return (self.dim - 1) * np.log(self.warp(d))
        # log(sinh(x)/rk) = x + log(1 - e^(-2x)) - log(2 rk), finite for x > 0
        rk = math.sqrt(-self.kappa)
        x = rk * np.asarray(d, float)
        return (self.dim - 1) * (x + np.log(-np.expm1(-2 * x)) - math.log(2 * rk))

    def drift(self, d):
        """A'(d)/A(d) = (dim-1) sn'/sn, the first-order coefficient of the
        radial Laplacian; for kappa < 0 (dim-1) rk coth(rk d), which stays
        finite where sinh overflows."""
        if self.kappa >= 0:
            return (self.dim - 1) * self.warp_prime(d) / self.warp(d)
        rk = math.sqrt(-self.kappa)
        return (self.dim - 1) * rk / np.tanh(rk * np.asarray(d, float))

    def radial_ricci(self, d):
        """-sn''/sn, the radial sectional curvature: kappa everywhere."""
        return np.full_like(np.asarray(d, float), self.kappa)

    def mean_curvature(self, r: float) -> float:
        """Sum of principal curvatures of the geodesic sphere of radius r."""
        return float(self.drift(r))


@dataclass(frozen=True)
class RadialProfile:
    """Custom warp sn given by callables: the one-dimensional reduction of a
    rotationally symmetric manifold that is not a space form."""

    dim: int
    warp: Callable = field(compare=False)
    warp_prime: Callable = field(compare=False)
    scalar_curv: Callable = field(compare=False)
    r_max: float = 1.0

    def log_density(self, d):
        return (self.dim - 1) * np.log(self.warp(d))

    def drift(self, d):
        """A'(d)/A(d), the first-order coefficient of the radial Laplacian."""
        return (self.dim - 1) * self.warp_prime(d) / self.warp(d)

    def radial_ricci(self, d):
        """-sn''/sn by a central second difference."""
        sn = self.warp(d)
        return -_second_difference(self.warp, d, sn, 1e-5 * self.r_max) / sn

    def mean_curvature(self, r: float) -> float:
        """Sum of principal curvatures of the geodesic sphere of radius r."""
        return float(self.drift(r))

    def validate(self) -> None:
        if not MIN_SIZE <= self.r_max <= MAX_RADIUS:
            raise InvalidParameterError(
                f"r_max must lie in [{MIN_SIZE:g}, {MAX_RADIUS:g}], got {self.r_max}"
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
    profile: SpaceForm | RadialProfile | None = field(default=None, compare=False, repr=False)
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
        if isinstance(self.profile, SpaceForm):  # r is the last of its params
            prof = _space_form(self.dim, self.profile.kappa, r, min_dim=1)
            return replace(self, params=self.params[:-1] + (prof.r_max,), profile=prof)
        prof = replace(self.profile, r_max=float(r))
        prof.validate()
        return replace(self, params=(self.dim, prof.r_max) + self.params[2:], profile=prof)

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


def _integer(x, what: str, least: int) -> int:
    """x as an int of at least ``least``: integers and integer-valued floats
    only, never truncated; ``what`` names x in the refusals."""
    if not (isinstance(x, numbers.Integral) or (
            isinstance(x, numbers.Real) and float(x).is_integer())):
        raise InvalidParameterError(f"{what} must be an integer, got {x!r}")
    if x < least:
        raise InvalidParameterError(f"{what} must be >= {least}, got {int(x)}")
    return int(x)


def _space_form(n, kappa: float, r: float, min_dim: int = 2) -> SpaceForm:
    """The profile of the geodesic r-ball in the simply connected n-space of
    curvature kappa; refused unless that ball exists and r lies in
    [MIN_SIZE, MAX_RADIUS]."""
    n = _integer(n, "dimension", min_dim)
    if not math.isfinite(kappa):
        raise InvalidParameterError(f"curvature must be finite, got {kappa}")
    # a kappa < 0 ball is the hyperbolic ball of radius sqrt(-kappa) r, rescaled
    if kappa < 0 and math.sqrt(-kappa) * r > MAX_RADIUS:
        raise InvalidParameterError(
            f"radius {r:g} out of range for kappa={kappa:g}: "
            f"need sqrt(-kappa) r = {math.sqrt(-kappa) * r:g} <= {MAX_RADIUS:g}"
        )
    if kappa > 0 and r >= math.pi / math.sqrt(kappa):
        raise InvalidParameterError(
            f"radius {r:g} out of range for kappa={kappa:g}: "
            f"need r < pi/sqrt(kappa) = {math.pi / math.sqrt(kappa):g}"
        )
    if not MIN_SIZE <= r <= MAX_RADIUS:
        raise InvalidParameterError(
            f"radius must lie in [{MIN_SIZE:g}, {MAX_RADIUS:g}], got {r}"
        )
    return SpaceForm(n, float(kappa), float(r))


def make_interval(a: float, b: float) -> ModelManifold:
    """Flat 1-manifold [a, b] with Dirichlet endpoints and sigma == 0."""
    a, b = float(a), float(b)
    if not a < b:
        raise InvalidParameterError(f"interval endpoints need a < b, got [{a}, {b}]")
    if b - a > MAX_RADIUS:
        raise InvalidParameterError(f"interval length {b - a:g} exceeds {MAX_RADIUS:g}")
    if b - a < MIN_SIZE:
        raise InvalidParameterError(f"interval length {b - a:g} is below {MIN_SIZE:g}")
    return ModelManifold(Kind.INTERVAL, 1, (a, b))


def make_space_form_ball(n: int, kappa: float, r: float) -> ModelManifold:
    """Geodesic r-ball in the complete simply connected space of curvature kappa."""
    prof = _space_form(n, kappa, r)
    return ModelManifold(Kind.SPACE_FORM_BALL, prof.dim,
                         (prof.dim, prof.kappa, prof.r_max), prof)


def make_spherical_cap(n: int, angle: float = math.pi / 2) -> ModelManifold:
    """Cap of opening angle `angle` in the unit n-sphere; pi/2 is the hemisphere."""
    prof = _space_form(n, 1.0, angle, min_dim=1)
    return ModelManifold(Kind.SPHERICAL_CAP, prof.dim, (prof.dim, prof.r_max), prof)


def make_hemisphere(n: int) -> ModelManifold:
    return make_spherical_cap(n, math.pi / 2)


def make_hyperbolic_ball(n: int, r: float) -> ModelManifold:
    """Geodesic r-ball in hyperbolic n-space of curvature -1."""
    prof = _space_form(n, -1.0, r)
    return ModelManifold(Kind.HYPERBOLIC_BALL, prof.dim, (prof.dim, prof.r_max), prof)


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
    n = _integer(n, "dimension", 2)
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
    prof = RadialProfile(dim=n, warp=warp, warp_prime=warp_prime,
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
    return make_space_form_ball(n, kappa, r).profile.mean_curvature(r)


def radius_from_mean_curvature(n: int, kappa: float, mu: float) -> float:
    """Radius of the space-form ball whose boundary mean curvature equals mu.

    Solves mu = (n-1) sn'(r)/sn(r) in closed form per curvature sign, and
    refuses what make_space_form_ball refuses, so that mean_curvature_of_ball
    accepts every radius it returns.
    """
    n = _integer(n, "dimension", 2)
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
    return _space_form(n, kappa, r).r_max
