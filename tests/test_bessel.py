import math
import subprocess
import sys

import numpy as np
import pytest

from scx import bessel
from scx.bessel import (
    bessel_j,
    first_zero,
    flat_ball_sc,
    qw_enclosure,
    zero_bracket,
)
from scx import closed_forms
from scx.closed_forms import closed_form, first_bessel_zero
from scx.errors import InvalidParameterError, NumericalFailureError
from scx.geometry import (
    make_box,
    make_hyperbolic_ball,
    make_interval,
    make_radial_custom,
    make_space_form_ball,
    make_spherical_cap,
    product,
)
from scx.spectral import lambda1_beta


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
        if mid == lo or mid == hi:  # adjacent floats: the bracket is final
            break
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

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_refused(self, nu):
        with pytest.raises(InvalidParameterError, match="order must be finite and >= -1/2"):
            bessel_j(nu, 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, [1.0, math.nan], [0.5, math.inf]])
    def test_non_finite_argument_refused(self, x):
        with pytest.raises(InvalidParameterError, match="argument must be finite and nonnegative"):
            bessel_j(0.0, x)

    def test_jv_is_the_compiled_ufunc(self):
        assert bessel.jv is sys.modules["scipy.special._special_ufuncs"].jv

    def test_missing_file_falls_back_to_the_public_jv(self):
        # hide the compiled file from the direct load, as an unknown install
        # layout would; the public scipy.special import still finds it
        code = (
            "import importlib.machinery\n"
            "find = importlib.machinery.PathFinder.find_spec\n"
            "def hide(name, path=None, target=None):\n"
            "    return None if name == '_special_ufuncs' else find(name, path, target)\n"
            "importlib.machinery.PathFinder.find_spec = hide\n"
            "import sys\n"
            "from scx import bessel\n"
            "assert 'scipy.special' in sys.modules  # the fallback ran\n"
            "import scipy.special\n"
            "assert bessel.jv is scipy.special.jv\n"
            "print(bessel.first_zero(2.5).j.hex())\n")
        out = subprocess.run([sys.executable, "-W", "error", "-c", code],
                             capture_output=True, text=True, check=True).stdout.split()
        assert out == [first_zero(2.5).j.hex()]


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

    @pytest.mark.parametrize("nu", [-0.5, -0.25, 0.0, 1e-3, 0.02, 0.25, 0.5, 1.0, 10.0,
                                    160.0, 299.0, 1e4, 1e6])
    def test_bracket_holds_the_first_zero_only(self, nu):
        lo, hi = zero_bracket(nu)
        assert lo < first_bessel_zero(nu) < hi
        # one sign change across the bracket, so bisection finds j_nu
        xs = np.linspace(lo, hi, 4001)
        signs = np.sign(bessel_j(nu, xs))
        assert signs[0] == 1 and signs[-1] == -1
        assert np.count_nonzero(np.diff(signs)) == 1

    def test_bracket_contains_the_zero_at_every_order(self):
        for nu in np.arange(-0.5, 400.0, 0.25):
            lo, hi = zero_bracket(float(nu))
            assert lo < first_bessel_zero(float(nu)) < hi, nu

    @pytest.mark.parametrize("nu", [1e10, 1e12, 1e14, 1e15])
    def test_orders_where_the_bracket_is_ulps_wide(self, nu):
        # the rounded bounds can lie past the zero of special.jv; the widened
        # bracket still holds it
        j = first_zero(nu).j
        lo, hi = zero_bracket(nu)
        assert lo - 8 * math.ulp(lo) <= j <= hi + 8 * math.ulp(hi)
        assert bessel_j(nu, j - 8 * math.ulp(j)) > 0 > bessel_j(nu, j + 8 * math.ulp(j))

    @pytest.mark.parametrize("nu", [1e16, 1e20, 1e300])
    def test_huge_orders_fail_instead_of_hanging(self, nu):
        # special.jv has no sign change near j_nu here
        with pytest.raises(NumericalFailureError, match="no sign change"):
            first_zero(nu)

    @pytest.mark.parametrize("nu", [-0.75, math.nan, math.inf])
    def test_domain(self, nu):
        with pytest.raises(InvalidParameterError, match="order"):
            first_zero(nu)

    def test_enclosure_holds_the_zero_at_every_order(self):
        # the enclosure is the bracket bisected; the paper's formula
        # (qw_enclosure) misses j_nu from nu ~ 14 on, e.g. at nu = 20
        for nu in [*np.arange(-0.5, 300.0, 0.25), 1e3, 1e8, 1e12, 1e15]:
            z = first_zero(float(nu))
            lo, hi = z.enclosure
            assert lo < z.j < hi, nu


class TestEnclosure:
    @pytest.mark.parametrize("nu", [0.6, 1.0, 2.0, 3.0, 5.0, 10.0, 12.0])
    def test_contains_first_zero(self, nu):
        lo, hi = qw_enclosure(nu)
        j = first_zero(nu).j
        assert lo < j < hi

    def test_interval_orientation(self):
        lo, hi = qw_enclosure(1.0)
        assert hi > lo > 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nu", [0.5, math.nan, math.inf, -math.inf])
    def test_requires_nu_above_half(self, nu):
        # nan fails no nu <= 1/2 test, and returned (nan, nan)
        with pytest.raises(InvalidParameterError, match="finite nu > 1/2"):
            qw_enclosure(nu)


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
     ("1-cap angle 2, beta=3", make_spherical_cap(1, 2.0), 3.0, math.pi**2 / 16),
     ("hyperbolic 3-ball beta=0", make_hyperbolic_ball(3, 2.0), 0.0,
      1 + math.pi**2 / 4)]
    + [(f"flat {n}-ball", make_space_form_ball(n, 0.0, 1.5), 0.25,
        series_zero(n / 2 - 1) ** 2 / 2.25) for n in range(2, 9)]
)


# nu = -1/2 .. 300 in steps of 1/4; it holds nu = n/2 - 1 for n = 2..600
_ORDERS = [-0.5 + 0.25 * i for i in range(1203)]


class TestFirstBesselZero:
    """closed_forms.first_bessel_zero (a tridiagonal eigenvalue, math only)
    against the scipy route bessel.first_zero and the series oracle."""

    def test_matches_scipy_route(self):
        for nu in _ORDERS:
            ref = first_zero(nu).j
            assert abs(first_bessel_zero(nu) - ref) <= 1e-15 * ref, nu

    def test_matches_series_oracle(self):
        # the oracle is accurate up to nu = 12 (series_j)
        for nu in _ORDERS[:51]:
            oracle = series_zero(nu)
            assert abs(first_bessel_zero(nu) - oracle) <= 1e-15 * oracle, nu

    def test_midpoint_is_unbiased(self):
        # j_nu is the inverse of the final bracket's midpoint; its upper end
        # put the mean signed difference from the scipy route at -0.60 ulp
        # over nu = -1/2..59.5, the midpoint at -0.05 ulp
        diffs = [(first_bessel_zero(nu) - ref) / math.ulp(ref)
                 for nu in _ORDERS[:241] for ref in [first_zero(nu).j]]
        assert _ORDERS[240] == 59.5
        assert abs(sum(diffs) / len(diffs)) <= 0.25

    def test_half_orders_exact(self):
        assert first_bessel_zero(-0.5) == pytest.approx(math.pi / 2, rel=1e-15)
        assert first_bessel_zero(0.5) == pytest.approx(math.pi, rel=1e-15)

    @pytest.mark.parametrize("nu", [1e3, 1e6, 1.9e11, 2e11])
    def test_high_orders_match_scipy_route(self, nu):
        # from nu = 2e11 on the value is the Qu-Wong upper bound
        assert first_bessel_zero(nu) == pytest.approx(first_zero(nu).j, rel=1e-15)

    @pytest.mark.parametrize("nu", [-0.6, -1.0, math.nan, math.inf])
    def test_domain(self, nu):
        with pytest.raises(InvalidParameterError, match="order"):
            first_bessel_zero(nu)

    def test_truncations_that_disagree_raise(self, monkeypatch):
        # with no agreement allowed, the 2 size eigenvalue cannot be bracketed
        monkeypatch.setattr(closed_forms, "_TRUNCATION_AGREEMENT", 0.0)
        with pytest.raises(NumericalFailureError, match="truncations disagree"):
            first_bessel_zero(1.0)

    def test_bisection_that_stalls_raises(self, monkeypatch):
        monkeypatch.setattr(closed_forms, "_MAX_HALVINGS", 20)
        with pytest.raises(NumericalFailureError, match="did not converge"):
            first_bessel_zero(1.0)

    def test_zero_pivot_counts_as_negative(self):
        # b2 = [1/4]: the 2x2 matrix has eigenvalues -1/2 and 1/2; at x = 1/2
        # the second pivot is -1/2 - (1/4)/(-1/2) = 0
        assert closed_forms._count_below([0.25], 0.5) == 2
        assert closed_forms._count_below([0.25], 0.25) == 1


class TestClosedForm:
    @pytest.mark.parametrize("label,man,beta,expected", _CLOSED_FORMS,
                             ids=[c[0] for c in _CLOSED_FORMS])
    def test_table_matches_literal_formula(self, label, man, beta, expected):
        assert closed_form(man, beta) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_hemisphere_sc_is_exactly_n_n_plus_3(self, n):
        assert 4 * closed_form(make_spherical_cap(n, math.pi / 2)) == n * (n + 3)

    @pytest.mark.parametrize("angle", [0.5, 2.0, 3.0])
    def test_one_dimensional_cap_is_an_interval_of_twice_its_angle(self, angle):
        # sigma = 0, so every beta gives pi^2/(4 a^2); the default-grid
        # eigensolve lies 3.2e-9 relative from it, within its certificate
        man = make_spherical_cap(1, angle)
        exact = closed_form(man)
        assert exact == closed_form(make_interval(-angle, angle)) == closed_form(man, -2.0)
        assert exact == pytest.approx(math.pi**2 / (4 * angle**2), rel=1e-15)
        res = lambda1_beta(man, 0.25)
        assert abs(res.lambda1 - exact) <= res.certificate * exact

    def test_one_dimensional_hemisphere_is_one(self):
        assert closed_form(make_spherical_cap(1, math.pi / 2)) == 1.0

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("man", [
        make_interval(0, 1), make_spherical_cap(3, math.pi / 2), make_hyperbolic_ball(3, 2.0),
        make_box([1.0, 2.0]),
    ], ids=["interval", "hemisphere", "hyperbolic 3-ball", "box"])
    def test_non_finite_beta_refused(self, man, beta):
        # as lambda1_beta refuses it
        with pytest.raises(InvalidParameterError, match="beta must be finite"):
            closed_form(man, beta)
