import itertools
import math

import numpy as np
import pytest
from scipy.special import gamma, jv

from scx.bessel import first_zero
from scx.comparison import (
    admissible_catalog,
    compare_sc_stab,
    hyperbolic_c,
    hyperbolic_sc,
    make_comparison_case,
    model_eigenfunction,
    positivity_threshold_radius,
    transplant_check,
)
from scx import comparison, verify
from scx.errors import InvalidKindError, InvalidParameterError, NumericalFailureError
from scx.geometry import (
    make_box,
    make_hyperbolic_ball,
    make_interval,
    make_radial_custom,
    make_space_form_ball,
    make_spherical_cap,
)
from scx.spectral import SpectralResult, discretize, lambda1_beta, sc_stab


class TestCaseConstruction:
    def test_flat_unit_ball_model(self):
        case = make_comparison_case(make_space_form_ball(3, 0, 1), 0.0, 2.0)
        assert case.model.params == (3, 0.0, 1.0)

    def test_requires_radial_kind(self):
        with pytest.raises(InvalidKindError):
            make_comparison_case(make_box([1, 2]), 0.0, 1.0)

    def test_ricci_violation_rejected_with_node(self):
        # sn = d (1 + 0.3 d^2) has -sn''/sn < 0: fails the kappa = 0 bound
        man = make_radial_custom(
            3, lambda d: np.asarray(d) * (1 + 0.3 * np.asarray(d) ** 2), 0.8,
            warp_prime=lambda d: 1 + 0.9 * np.asarray(d) ** 2)
        with pytest.raises(InvalidParameterError, match="node"):
            make_comparison_case(man, 0.0, 2.0)

    def test_mean_curvature_shortfall_rejected(self):
        # unit flat ball boundary has mean curvature n-1 = 2 < 3
        with pytest.raises(InvalidParameterError, match="mean curvature"):
            make_comparison_case(make_space_form_ball(3, 0, 1), 0.0, 3.0)

    def test_oversized_manifold_rejected(self):
        # model B_{0, 2} for n=3 has radius 1 < 1.5... but the mean curvature
        # precondition already fails; use mu below the boundary value instead
        with pytest.raises(InvalidParameterError):
            make_comparison_case(make_space_form_ball(3, 0, 1.5), 0.0, 2.0)


class TestCompareScStab:
    def test_model_against_itself(self):
        case = make_comparison_case(make_space_form_ball(3, 0, 1), 0.0, 2.0)
        a, b = compare_sc_stab(case, 800)
        assert a == b  # same manifold key, same cached eigensolve

    def test_smaller_euclidean_ball_dominates(self):
        case = make_comparison_case(make_space_form_ball(3, 0, 0.5), 0.0, 2.0)
        a, b = compare_sc_stab(case, 800)
        assert a == pytest.approx(4 * b, rel=1e-5)  # scaling-law oracle
        assert b == pytest.approx(4 * math.pi**2, rel=1e-4)

    def test_cap_inside_hemisphere_model(self):
        case = make_comparison_case(make_spherical_cap(2, 1.2), 1.0, 0.0)
        a, b = compare_sc_stab(case, 800)
        assert b == pytest.approx(10.0, rel=1e-4)
        assert a >= 10.0

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_admissible_catalog(self, kappa):
        for case in admissible_catalog(kappa, 20, seed=5):
            a, b = compare_sc_stab(case, 500)
            assert a >= b - 1e-6


@pytest.fixture
def violating_sc_stab(monkeypatch):
    """sc_stab that answers 1 for every manifold X and 2 for every model."""
    calls = itertools.count()

    def fake(man, m=None, tol=None):
        sc = 1.0 if next(calls) % 2 == 0 else 2.0
        return SpectralResult(lambda1=sc / 4, eigenfunction=None, grid_size=2 * m,
                              beta=0.25, certificate=1e-6)

    monkeypatch.setattr(comparison, "sc_stab", fake)


class TestViolation:
    def test_violation_is_numerical_failure(self, violating_sc_stab):
        case = make_comparison_case(make_space_form_ball(3, 0, 0.5), 0.0, 2.0)
        with pytest.raises(NumericalFailureError, match="comparison inequality") as exc:
            compare_sc_stab(case, 64)
        d = exc.value.details
        assert (d["sc_x"], d["sc_model"]) == (1.0, 2.0)
        assert d["tol"] == pytest.approx(2 * 1e-6 * 2.0 + 1e-9)

    def test_verify_records_violation_as_failed_check(self, violating_sc_stab):
        results = verify.run_suite("comparison", seed=0)
        ineq = [r for r in results if r.name.startswith("sc(X) >= sc(model)")]
        assert len(ineq) == 3
        assert not any(r.passed for r in ineq)
        assert all("violate the inequality" in r.detail for r in ineq)


    def test_verify_propagates_failed_solve(self, monkeypatch):
        def failing(man, m=None, tol=None):
            raise NumericalFailureError("grid-doubling certificate failed", tol=tol)

        monkeypatch.setattr(comparison, "sc_stab", failing)
        with pytest.raises(NumericalFailureError, match="grid-doubling"):
            verify.run_suite("comparison", seed=0)


class TestTransplant:
    def test_model_onto_itself(self):
        case = make_comparison_case(make_space_form_ball(3, 0, 1), 0.0, 2.0)
        assert transplant_check(case, 800)

    def test_euclidean_shrunken_ball(self):
        case = make_comparison_case(make_space_form_ball(3, 0, 0.7), 0.0, 2.0)
        assert transplant_check(case, 800)

    def test_cap_vs_hemisphere(self):
        case = make_comparison_case(make_spherical_cap(2, 1.1), 1.0, 0.0)
        assert transplant_check(case, 800)

    def test_custom_profile(self):
        man = make_radial_custom(
            3, lambda d: np.asarray(d) * (1 - 0.05 * np.asarray(d) ** 2), 0.9,
            warp_prime=lambda d: 1 - 0.15 * np.asarray(d) ** 2)
        case = make_comparison_case(man, 0.0, 2.0)
        assert transplant_check(case, 800)

    def test_model_eigenfunction_solves_ode(self):
        # flat 3-ball: eigenfunction is sin(pi rho)/rho up to scale
        model = make_space_form_ball(3, 0, 1)
        lam = lambda1_beta(model, 0.0, 800).richardson_estimate
        phi = model_eigenfunction(model, lam)
        rho = np.linspace(0.05, 0.95, 19)
        expect = np.sin(math.pi * rho) / (math.pi * rho)
        assert np.allclose(phi(rho), expect, atol=1e-10)


def _closed_form_phi(n, kappa, lam, rho):
    """The solution with phi(0) = 1 of the radial equation, where one is known."""
    if n == 3:  # (sn phi)'' = -(lam + kappa) sn phi
        k = math.sqrt(lam + kappa)
        return np.sin(k * rho) / (k * make_space_form_ball(3, kappa, 1.0).profile.warp(rho))
    assert kappa == 0
    nu, k = n / 2 - 1, math.sqrt(lam)
    return gamma(nu + 1) * (2 / (k * rho)) ** nu * jv(nu, k * rho)


class TestModelEigenfunction:
    # catalogs holding n = 3 models of every sign of kappa (up to r = 2.87 at
    # kappa = 1) and flat models of n = 2 and 4; (0.0, 13) holds the flat
    # 4-ball of radius 220.3, on whose nodes the phi(r) = 0 end is steepest
    @pytest.mark.parametrize("kappa,seed", [(1.0, 6), (1.0, 7), (0.0, 10), (0.0, 13),
                                            (-1.0, 3), (-1.0, 13)])
    def test_closed_forms_on_transplant_nodes(self, kappa, seed):
        m = 600
        checked = 0
        for case in admissible_catalog(kappa, 6, seed=seed):
            if case.n != 3 and kappa != 0:
                continue
            model = case.model
            lam = lambda1_beta(model, 0.0, m).richardson_estimate
            nodes = discretize(case.manifold, 0.0, m).grid.nodes
            rho = model.profile.r_max - (case.manifold.profile.r_max - nodes)
            expect = _closed_form_phi(case.n, kappa, lam, rho)
            got = model_eigenfunction(model, lam)(rho)
            assert np.max(np.abs(got / expect - 1)) <= 1e-10, (case.n, model.profile.r_max)
            checked += 1
        assert checked >= 2

    def test_large_flat_model(self):
        model = admissible_catalog(0.0, 6, seed=13)[1].model
        assert model.profile.r_max == pytest.approx(220.316, abs=1e-3)
        assert model.dim == 4

    def test_cap_near_antipode_resolved_at_higher_degree(self):
        # sn(r) = 0.04 puts the singular point of the equation next to the
        # interval; degree 64 leaves a tail above 1e-11, a larger one does not
        r = 3.1
        lam = math.pi**2 / r**2 - 1
        rho = np.linspace(1e-3, r - 1e-3, 401)
        got = model_eigenfunction(make_space_form_ball(3, 1.0, r), lam)(rho)
        assert np.max(np.abs(got / _closed_form_phi(3, 1.0, lam, rho) - 1)) <= 1e-10

    def test_unresolved_series_raises(self):
        # sn(r) = 0.0016: not resolved even at the largest degree
        r = 3.14
        model = make_space_form_ball(3, 1.0, r)
        with pytest.raises(NumericalFailureError, match="not resolved") as exc:
            model_eigenfunction(model, math.pi**2 / r**2 - 1)
        assert exc.value.details["tail"] > 1e-11

    def test_transplant_check_on_cap_model_near_antipode(self):
        # model radius 3.021, beyond what a degree-64 series resolves
        case = make_comparison_case(make_space_form_ball(3, 1.0, 2.9), 1.0, -16.5)
        assert case.model.profile.r_max == pytest.approx(3.021, abs=1e-3)
        assert transplant_check(case, 600) is True

    def test_argument_clipped_to_ball(self):
        model = make_space_form_ball(3, 0, 1)
        phi = model_eigenfunction(model, math.pi**2)
        assert phi(-0.5) == phi(0.0) == pytest.approx(1.0, abs=1e-14)
        assert phi(2.0) == phi(1.0)


class TestHyperbolic:
    def test_c_matches_definition(self):
        lam = lambda1_beta(make_hyperbolic_ball(3, 2.0), 0.0, 800).lambda1
        assert hyperbolic_c(3, 2.0, 800) == pytest.approx(4 * lam / 4 - 0.25, rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0, 5.0])
    def test_c_closed_form_n3(self, r):
        # lambda_1 = 1 + pi^2/r^2 exactly in dimension 3
        expect = 1 + (math.pi**2 - 1) / r**2
        assert hyperbolic_c(3, r, 1500) == pytest.approx(expect, rel=1e-5)

    def test_c_limit_large_radius(self):
        c20 = hyperbolic_c(3, 20.0, 2500)
        c40 = hyperbolic_c(3, 40.0, 2500)
        assert c20 > 0.9
        assert abs(c40 - 1) < abs(c20 - 1)

    def test_sc_monotone_decreasing_in_r(self):
        vals = [hyperbolic_sc(3, r, 1000) for r in (0.5, 1, 2, 3, 5, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_radius_leading_order(self):
        for n in (2, 3):
            jsq = first_zero(n / 2 - 1).j ** 2
            sc = hyperbolic_sc(n, 0.02, 800)
            assert sc * 0.02**2 / 4 == pytest.approx(jsq, rel=0.02)

    def test_positive_below_threshold(self):
        for n in (2, 3, 4):
            r = 0.99 * positivity_threshold_radius(n)
            assert hyperbolic_sc(n, r, 800) > 0

    def test_limit_value_at_infinity(self):
        # sc -> -(n-1): at r=8 and n=3 the closed form gives -2 + 4 pi^2/64
        assert hyperbolic_sc(3, 8.0, 1500) == pytest.approx(
            -2 + 4 * math.pi**2 / 64, rel=1e-4)


class TestRoundTrip:
    def test_interval_not_comparable(self):
        with pytest.raises(InvalidKindError):
            make_comparison_case(make_interval(0, 1), 0.0, 1.0)
