import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scx.errors import InvalidParameterError
from scx.geometry import (
    Kind,
    make_box,
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

    def test_positive_curvature_radius_cap(self):
        with pytest.raises(InvalidParameterError):
            make_space_form_ball(2, 1, math.pi)
        with pytest.raises(InvalidParameterError):
            make_space_form_ball(2, 4, math.pi / 2)

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

    def test_inadmissible(self):
        with pytest.raises(InvalidParameterError):
            radius_from_mean_curvature(3, 0.0, -1.0)
        with pytest.raises(InvalidParameterError):
            radius_from_mean_curvature(3, -1.0, 1.5)  # needs mu > n-1

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
