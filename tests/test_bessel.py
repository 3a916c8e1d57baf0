import math

import numpy as np
import pytest

from scx.bessel import (
    _scan_limit,
    bessel_j,
    closed_form,
    first_zero,
    flat_ball_sc,
    qw_enclosure,
)
from scx.errors import InvalidParameterError
from scx.geometry import (
    make_box,
    make_hyperbolic_ball,
    make_interval,
    make_radial_custom,
    make_space_form_ball,
    make_spherical_cap,
    product,
)


def series_j(nu: float, x: float, terms: int = 160) -> float:
    """Independent oracle: extended-precision power series for J_nu(x).

    Accurate to well below 1e-12 absolute for the (nu, x) ranges exercised
    here (x <= ~18, nu <= 12), where the largest term stays small enough for
    80-bit accumulation.
    """
    nul = np.longdouble(nu)
    xl = np.longdouble(x)
    half = xl / 2
    term = half**nul / np.longdouble(math.gamma(nu + 1.0))
    total = term
    q = half * half
    for k in range(1, terms):
        term = -term * q / (np.longdouble(k) * (nul + k))
        total += term
    return float(total)


def series_zero(nu: float) -> float:
    """Bracketed bisection on the series oracle; independent of first_zero."""
    lo = max(nu, 1e-3)
    hi = lo
    flo = series_j(nu, lo)
    assert flo > 0
    while series_j(nu, hi) > 0:
        lo = hi
        hi += 0.05
        assert hi < 25
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if series_j(nu, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBesselJ:
    def test_value_at_origin(self):
        assert bessel_j(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert bessel_j(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin(x)
        for x in (0.5, 1.0, math.pi, 7.3):
            expect = math.sqrt(2 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(expect, abs=1e-13)
        assert abs(bessel_j(0.5, math.pi)) < 1e-13

    def test_against_series_oracle(self):
        for nu in (0.0, 0.5, 1.0, 3.7, 12.0):
            for x in (0.3, 1.0, 5.0, 11.0, 17.0):
                assert bessel_j(nu, x) == pytest.approx(series_j(nu, x), abs=1e-12)

    def test_vector_evaluation(self):
        xs = np.array([0.1, 1.0, 2.0])
        vals = bessel_j(0.0, xs)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(series_j(0.0, 0.1), abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(InvalidParameterError):
            bessel_j(-0.75, 1.0)
        with pytest.raises(InvalidParameterError):
            bessel_j(0.0, -1.0)


class TestFirstZero:
    def test_half_integer_values_exact(self):
        assert first_zero(-0.5).j == pytest.approx(math.pi / 2, abs=1e-9)
        assert first_zero(0.5).j == pytest.approx(math.pi, abs=1e-9)

    def test_j0_against_bisection_oracle(self):
        oracle = series_zero(0.0)
        z = first_zero(0.0)
        assert z.j == pytest.approx(oracle, abs=1e-9)
        assert z.j == pytest.approx(2.404826, abs=1e-6)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.5, 4.0, 7.0])
    def test_zero_matches_oracle(self, nu):
        assert first_zero(nu).j == pytest.approx(series_zero(nu), abs=1e-9)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 3.0])
    def test_residual_and_no_earlier_zero(self, nu):
        z = first_zero(nu)
        assert abs(bessel_j(nu, z.j)) < 1e-10
        xs = np.linspace(max(z.j / 50, 1e-3), z.j * 0.995, 60)
        assert all(series_j(nu, float(x)) > 0 for x in xs)

    def test_strictly_increasing_in_nu(self):
        nus = np.arange(-0.5, 12.01, 0.25)
        zeros = [first_zero(float(v)).j for v in nus]
        assert np.all(np.diff(zeros) > 0)

    def test_high_order_matches_scipy(self):
        from scipy.special import jn_zeros

        ref = float(jn_zeros(299, 1)[0])
        assert ref == pytest.approx(311.5637146, abs=1e-7)
        assert first_zero(299).j == pytest.approx(ref, rel=1e-12)

    def test_high_half_order_has_no_earlier_sign_change(self):
        nu = 299.5
        z = first_zero(nu)
        xs = np.linspace(nu, z.j, 4001)[:-1]
        assert np.all(bessel_j(nu, xs) > 0)
        assert abs(bessel_j(nu, z.j)) < 1e-10
        assert bessel_j(nu, z.j + 0.05) < 0

    @pytest.mark.parametrize("nu", [1.0, 10.0, 160.0, 299.0, 1e4, 1e6])
    def test_scan_limit_above_qu_wong_bound(self, nu):
        upper = nu + 1.8557571 * nu ** (1 / 3) + 1.033150 * nu ** (-1 / 3)
        assert _scan_limit(nu) > upper

    def test_scan_limit_never_below_old_limit(self):
        # never below 200, so no order resolvable within 200 is refused
        nus = np.arange(-0.5, 400.0, 0.25)
        limits = np.array([_scan_limit(float(v)) for v in nus])
        assert np.all(limits >= 200.0)
        assert np.all(limits[nus < 160] == 200.0)

    def test_enclosure_attached_above_half(self):
        assert first_zero(0.25).enclosure is None
        z = first_zero(2.0)
        lo, hi = z.enclosure
        assert lo < z.j < hi


class TestEnclosure:
    @pytest.mark.parametrize("nu", [0.6, 1.0, 2.0, 3.0, 5.0, 10.0, 12.0])
    def test_contains_first_zero(self, nu):
        lo, hi = qw_enclosure(nu)
        j = first_zero(nu).j
        assert lo < j < hi

    def test_interval_orientation(self):
        lo, hi = qw_enclosure(1.0)
        assert hi > lo > 1.0

    def test_requires_nu_above_half(self):
        with pytest.raises(InvalidParameterError):
            qw_enclosure(0.5)


class TestFlatBallSc:
    def test_three_ball_is_four_pi_squared(self):
        assert flat_ball_sc(3, 1.0) == pytest.approx(4 * math.pi**2, abs=1e-9)

    def test_two_ball_matches_oracle(self):
        # reference table prints 23.116..., apparently squaring a truncated
        # j_0 = 2.404; the oracle value is 4 j_0^2 = 23.1327...
        val = flat_ball_sc(2, 1.0)
        assert val == pytest.approx(4 * series_zero(0.0) ** 2, rel=1e-9)
        assert val == pytest.approx(23.13274, abs=1e-4)

    def test_eight_ball(self):
        assert flat_ball_sc(8, 1.0) == pytest.approx(4 * series_zero(3.0) ** 2, rel=1e-9)

    def test_scaling_exact(self):
        base = flat_ball_sc(5, 1.0)
        for r in (0.5, 2.0, 7.0):
            assert flat_ball_sc(5, r) == base / r**2

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            flat_ball_sc(1, 1.0)
        with pytest.raises(InvalidParameterError):
            flat_ball_sc(3, 0.0)


# (label, manifold, beta, expected lambda_1): each expected value written out
# here, from the eigenvalue problem, not from scx.closed_form's own table
_CLOSED_FORMS = (
    [("interval", make_interval(-0.5, 2.0), 0.25, math.pi**2 / 2.5**2),
     ("box", make_box([1.0, 2.0, 3.0]), 0.25, math.pi**2 * (1 + 1 / 4 + 1 / 9)),
     ("product", product([make_interval(0, 1), make_spherical_cap(2, math.pi / 2)]),
      0.25, math.pi**2 + 2.5),
     ("3-ball kappa=+0.5", make_space_form_ball(3, 0.5, 2.0), 0.25,
      math.pi**2 / 4 + 0.25),
     ("3-ball kappa=-2", make_space_form_ball(3, -2.0, 7.0), 0.25,
      math.pi**2 / 49 - 1.0),
     ("3-cap angle 2.5", make_spherical_cap(3, 2.5), 0.25, math.pi**2 / 6.25 + 0.5),
     ("hyperbolic 3-ball beta=0", make_hyperbolic_ball(3, 2.0), 0.0,
      1 + math.pi**2 / 4)]
    + [(f"flat {n}-ball", make_space_form_ball(n, 0.0, 1.5), 0.25,
        series_zero(n / 2 - 1) ** 2 / 2.25) for n in range(2, 9)]
)


class TestClosedForm:
    @pytest.mark.parametrize("label,man,beta,expected", _CLOSED_FORMS,
                             ids=[c[0] for c in _CLOSED_FORMS])
    def test_table_matches_literal_formula(self, label, man, beta, expected):
        assert closed_form(man, beta) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_hemisphere_sc_is_exactly_n_n_plus_3(self, n):
        assert 4 * closed_form(make_spherical_cap(n, math.pi / 2)) == n * (n + 3)

    @pytest.mark.parametrize("man", [
        make_spherical_cap(2, 0.9),
        make_hyperbolic_ball(4, 1.0),
        make_space_form_ball(4, 1.0, 1.0),
        make_radial_custom(3, lambda d: d, 1.0),
        product([make_interval(0, 1), make_hyperbolic_ball(2, 1.0)]),
    ], ids=["2-cap", "hyperbolic 4-ball", "curved 4-ball", "custom", "product"])
    def test_no_closed_form_raises(self, man):
        with pytest.raises(InvalidParameterError, match="no closed form"):
            closed_form(man)
