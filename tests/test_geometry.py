import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scx.errors import InvalidParameterError
from scx.geometry import (
    MIN_SIZE,
    Kind,
    make_box,
    make_hemisphere,
    make_hyperbolic_ball,
    make_interval,
    make_radial_custom,
    make_space_form_ball,
    make_spherical_cap,
    mean_curvature_of_ball,
    product,
    radius_from_mean_curvature,
)


class TestInterval:
    def test_unit_interval(self):
        man = make_interval(0, 1)
        assert man.kind == Kind.INTERVAL
        assert man.dim == 1
        assert man.params == (0.0, 1.0)

    def test_translation_gives_same_length(self):
        assert make_interval(-0.5, 0.5).params[1] - make_interval(-0.5, 0.5).params[0] \
            == make_interval(0, 1).params[1] - make_interval(0, 1).params[0]

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (0, -3)])
    def test_bad_endpoints(self, a, b):
        with pytest.raises(InvalidParameterError):
            make_interval(a, b)


class TestSizeFloor:
    @pytest.mark.parametrize("make", [
        lambda s: make_interval(0, s),
        lambda s: make_box([s, 1.0]),
        lambda s: make_space_form_ball(2, 0, s),
        lambda s: make_space_form_ball(5, -2, s),
        lambda s: make_spherical_cap(4, s),
        lambda s: make_hyperbolic_ball(3, s),
        lambda s: make_radial_custom(3, np.sin, s, warp_prime=np.cos),
        lambda s: make_hyperbolic_ball(3, 1.0).with_radius(s),
        lambda s: make_radial_custom(3, np.sin, 1.0).with_radius(s),
    ], ids=["interval", "box", "flat-ball", "curved-ball", "cap", "hypball",
            "custom", "sub-ball", "custom-sub-ball"])
    def test_below_floor_rejected_floor_accepted(self, make):
        for tiny in (1e-200, 1e-100, MIN_SIZE / 2):
            with pytest.raises(InvalidParameterError):
                make(tiny)
        make(MIN_SIZE)


class TestSpaceFormBall:
    def test_flat_ball_profile(self):
        man = make_space_form_ball(3, 0, 1)
        d = np.linspace(0.01, 0.99, 17)
        assert np.allclose(man.profile.warp(d), d)
        assert np.allclose(man.profile.scalar_curv(d), 0.0)

    def test_hemisphere_profile(self):
        man = make_space_form_ball(2, 1, math.pi / 2)
        d = np.linspace(0.01, math.pi / 2 - 0.01, 9)
        assert np.allclose(man.profile.warp(d), np.sin(d))
        # sigma is constant n(n-1)kappa at every node
        assert np.allclose(man.profile.scalar_curv(d), 2.0)

    def test_hyperbolic_profile(self):
        man = make_hyperbolic_ball(3, 2)
        d = np.linspace(0.01, 1.99, 9)
        assert np.allclose(man.profile.warp(d), np.sinh(d))
        assert np.allclose(man.profile.scalar_curv(d), -6.0)

    @pytest.mark.parametrize("n,kappa", [(2, -1.0), (4, -1.0), (3, -4.0)])
    def test_negative_curvature_log_warp_matches_sinh(self, n, kappa):
        # rk r reaches 600, where sinh is still finite
        rk = math.sqrt(-kappa)
        prof = make_space_form_ball(n, kappa, 600.0 / rk).profile
        d = np.linspace(1e-3, 600.0 / rk, 101)
        sinh = np.sinh(rk * d)
        assert np.allclose(prof.log_density(d), (n - 1) * np.log(sinh / rk),
                           rtol=1e-13, atol=1e-13)
        assert np.allclose(prof.drift(d), (n - 1) * rk * np.cosh(rk * d) / sinh,
                           rtol=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_hyperbolic_profile_finite_at_max_radius(self, n):
        prof = make_hyperbolic_ball(n, 1000.0).profile
        # log(sinh(1000)) = 1000 - log 2 to double precision
        assert prof.log_density(1000.0) == pytest.approx((n - 1) * (1000 - math.log(2)),
                                                         rel=1e-15)
        assert prof.mean_curvature(1000.0) == n - 1
        assert np.all(np.isfinite(prof.drift(np.linspace(0.5, 1000.0, 64))))

    def test_positive_curvature_radius_cap(self):
        with pytest.raises(InvalidParameterError):
            make_space_form_ball(2, 1, math.pi)
        with pytest.raises(InvalidParameterError):
            make_space_form_ball(2, 4, math.pi / 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa,r", [(-1e11, 1.0), (-1e12, 1.0), (-1e20, 1.0),
                                         (-1e300, 1.0), (-4.0, 1000.0), (-1.0, 1000.5)])
    def test_negative_curvature_radius_cap(self, kappa, r):
        # a kappa < 0 ball is a rescaled hyperbolic ball of radius sqrt(-kappa) r
        with pytest.raises(InvalidParameterError, match=r"sqrt\(-kappa\) r"):
            make_space_form_ball(3, kappa, r)

    @pytest.mark.parametrize("kappa,r", [(-1e6, 1.0), (-4.0, 500.0), (-1.0, 1000.0)])
    def test_negative_curvature_radius_cap_accepted(self, kappa, r):
        assert make_space_form_ball(3, kappa, r).profile.r_max == r

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_curvature_must_be_finite(self, kappa):
        with pytest.raises(InvalidParameterError):
            make_space_form_ball(3, kappa, 1.0)

    def test_dimension_and_radius_validation(self):
        with pytest.raises(InvalidParameterError):
            make_space_form_ball(1, 0, 1)
        with pytest.raises(InvalidParameterError):
            make_space_form_ball(3, 0, -1)
        with pytest.raises(InvalidParameterError):
            make_space_form_ball(3, 0, 2e3)

    @pytest.mark.parametrize("make", [
        lambda n: make_space_form_ball(n, 0, 1),
        lambda n: make_spherical_cap(n, 1.0),
        lambda n: make_hyperbolic_ball(n, 1),
        lambda n: make_radial_custom(n, np.sin, 1.0, warp_prime=np.cos),
    ])
    def test_dimension_must_be_integer(self, make):
        for bad in (2.5, 3.000001, float("nan"), "3"):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                make(bad)
        for good in (3, 3.0, np.int64(3), np.float64(3.0)):
            man = make(good)
            assert man.dim == 3 and type(man.dim) is int
            assert type(man.params[0]) is int

    def test_with_radius_shrinks(self):
        man = make_hyperbolic_ball(3, 4)
        sub = man.with_radius(2)
        assert sub.profile.r_max == 2
        assert sub.kind == Kind.HYPERBOLIC_BALL

    def test_cap_requires_angle_in_range(self):
        with pytest.raises(InvalidParameterError):
            make_spherical_cap(2, 3.5)

    @pytest.mark.parametrize("make", [
        lambda: make_spherical_cap(0),
        lambda: make_hemisphere(0),
        lambda: make_spherical_cap(-2, 1.0),
    ], ids=["cap-0", "hemisphere-0", "cap-minus-2"])
    def test_cap_dimension_floor(self, make):
        with pytest.raises(InvalidParameterError, match="dimension must be >= 1"):
            make()

    def test_one_dimensional_caps_accepted(self):
        for man in (make_spherical_cap(1, 1.0), make_hemisphere(1)):
            assert man.dim == 1 and man.kind == Kind.SPHERICAL_CAP


class TestCustomProfile:
    def test_derived_scalar_curvature_matches_space_form(self):
        # sn = sin recovers sigma = n(n-1) for kappa = 1
        man = make_radial_custom(3, np.sin, 1.2, warp_prime=np.cos)
        d = np.linspace(0.05, 1.1, 7)
        assert np.allclose(man.profile.scalar_curv(d), 6.0, atol=1e-5)

    def test_smooth_center_required(self):
        with pytest.raises(InvalidParameterError):
            make_radial_custom(3, lambda d: 2 * np.asarray(d), 1.0)

    def test_positivity_required(self):
        with pytest.raises(InvalidParameterError):
            make_radial_custom(3, lambda d: np.sin(4 * np.asarray(d)), 2.0)


class TestMeanCurvature:
    def test_unit_euclidean_ball_boundary(self):
        # sum-of-principal-curvatures convention
        for n in range(2, 7):
            assert mean_curvature_of_ball(n, 0.0, 1.0) == pytest.approx(n - 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_flat_inverse(self, n):
        assert radius_from_mean_curvature(n, 0.0, n - 1.0) == pytest.approx(1.0)

    def test_hemisphere_minimal_boundary(self):
        for n in (2, 4):
            assert radius_from_mean_curvature(n, 1.0, 0.0) == pytest.approx(math.pi / 2)

    def test_hyperbolic_example(self):
        # oracle: invert 2 coth(r) = 4 by bisection
        lo, hi = 1e-6, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 2.0 / math.tanh(mid) > 4.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert radius_from_mean_curvature(3, -1.0, 4.0) == pytest.approx(oracle, abs=1e-9)
        assert oracle == pytest.approx(0.5493, abs=1e-4)

    @pytest.mark.parametrize("n,kappa,r", [
        (2, 1.0, 7.0),       # the unit sphere has no geodesic sphere of radius 7
        (3, 1.0, math.pi),   # the antipode
        (3, 0.0, math.nan),
        (3, math.nan, 1.0),
        (3, -1.0, 1e4),      # beyond MAX_RADIUS
    ])
    def test_refuses_what_the_constructors_refuse(self, n, kappa, r):
        with pytest.raises(InvalidParameterError):
            mean_curvature_of_ball(n, kappa, r)

    def test_inadmissible(self):
        with pytest.raises(InvalidParameterError):
            radius_from_mean_curvature(3, 0.0, -1.0)
        with pytest.raises(InvalidParameterError):
            radius_from_mean_curvature(3, -1.0, 1.5)  # needs mu > n-1

    @pytest.mark.parametrize("n,kappa,mu", [
        (2.5, 0.0, 1.0),    # not a dimension; r = 1.5 would be solved
        (3, 0.0, 1e60),     # r = 2e-60 lies below MIN_SIZE
    ])
    def test_refuses_what_mean_curvature_refuses(self, n, kappa, mu):
        with pytest.raises(InvalidParameterError):
            radius_from_mean_curvature(n, kappa, mu)

    def test_round_trip_over_the_shared_domain(self):
        # every radius radius_from_mean_curvature returns is one that
        # mean_curvature_of_ball accepts, and it maps back to mu
        rng = np.random.default_rng(23)
        accepted = 0
        for _ in range(4000):
            n = int(rng.integers(2, 9)) * rng.choice([1, 1.0])
            kappa = float(rng.choice([0.0, 1.0, -1.0]) * 10.0 ** rng.uniform(-12, 12))
            mu = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-60, 62))
            try:
                r = radius_from_mean_curvature(n, kappa, mu)
            except InvalidParameterError:
                continue
            accepted += 1
            back = mean_curvature_of_ball(n, kappa, r)
            # rounding r moves mu by r |dmu/dr| eps, dmu/dr = -(n-1) kappa - mu^2/(n-1)
            slope = (n - 1) * abs(kappa) + mu * mu / (n - 1)
            assert abs(back - mu) <= 16 * np.finfo(float).eps * (abs(mu) + r * slope), \
                (n, kappa, mu, r)
        assert 1000 < accepted < 4000

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("r", [800.0, 1000.0])
    def test_hyperbolic_large_radius_finite(self, n, r):
        # sinh(r) overflows here; (n-1) coth(r) rounds to n-1 beyond r ~ 19
        mu = mean_curvature_of_ball(n, -1.0, r)
        assert mu == n - 1
        assert mu == make_hyperbolic_ball(n, r).profile.mean_curvature(r)
        # n-1 is the mean curvature of a horosphere, which bounds no ball
        with pytest.raises(InvalidParameterError, match="requires mu >"):
            radius_from_mean_curvature(n, -1.0, mu)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("r", [0.5, 1.0, 5.0, 10.0, 15.0])
    def test_hyperbolic_round_trip_to_its_conditioning(self, n, r):
        # r = atanh(1/coth r) amplifies a relative error of coth r by sinh(2r)/(2r)
        back = radius_from_mean_curvature(n, -1.0, mean_curvature_of_ball(n, -1.0, r))
        cond = math.sinh(2 * r) / (2 * r)
        assert abs(back - r) <= 4 * np.finfo(float).eps * cond * r

    def test_round_trip_seeded(self, rng):
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            kappa = float(rng.choice([-1.0, 0.0, 1.0]))
            r = rng.uniform(0.1, 0.95) * (math.pi if kappa > 0 else 3.0)
            mu = mean_curvature_of_ball(n, kappa, r)
            try:
                back = radius_from_mean_curvature(n, kappa, mu)
            except InvalidParameterError:
                continue
            worst = max(worst, abs(back - r) / r)
        assert worst < 1e-10

    @given(
        n=st.integers(min_value=2, max_value=6),
        kappa=st.sampled_from([-1.0, 0.0, 1.0]),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_round_trip_property(self, n, kappa, frac):
        r = frac * (math.pi if kappa > 0 else 3.0)
        mu = mean_curvature_of_ball(n, kappa, r)
        if kappa < 0 and mu <= (n - 1):
            return
        if kappa == 0 and mu <= 0:
            return
        assert radius_from_mean_curvature(n, kappa, mu) == pytest.approx(r, rel=1e-10)


class TestProduct:
    def test_dimensions_add(self):
        man = product([make_interval(0, 1), make_space_form_ball(2, 0, 1)])
        assert man.dim == 3
        assert man.kind == Kind.PRODUCT

    def test_box_is_product_of_intervals(self):
        box = make_box([1, 2, 3])
        assert box.dim == 3
        assert [f.kind for f in box.factors] == [Kind.INTERVAL] * 3
        assert [f.params for f in box.factors] == [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]

    def test_rejects_short_lists(self):
        with pytest.raises(InvalidParameterError):
            product([make_interval(0, 1)])
        with pytest.raises(InvalidParameterError):
            product([])

    def test_equality_is_structural(self):
        a = product([make_interval(0, 1), make_interval(0, 2)])
        b = product([make_interval(0, 1), make_interval(0, 2)])
        assert a == b
        assert hash(a) == hash(b)
