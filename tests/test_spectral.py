import math

import numpy as np
import pytest

from scx import warped
from scx._oracle2d import five_point_laplacian, rectangle_lambda1
from scx.bessel import closed_form, first_zero
from scx.errors import (
    InvalidKindError,
    InvalidParameterError,
    NumericalFailureError,
)
from scx.geometry import (
    RadialProfile,
    make_box,
    make_hyperbolic_ball,
    make_interval,
    make_radial_custom,
    make_space_form_ball,
    make_spherical_cap,
    product,
)
from scx.spectral import (
    _GL_W,
    _GL_X,
    _cell_log_masses,
    discretize,
    eigen_product,
    exhaustion_limit,
    first_eigenpair,
    lambda1_beta,
    operator_grid,
    sc_stab,
)
from scx.verify import nested_pairs


class TestDiscretize:
    def test_interval_matrix_is_free_laplacian(self):
        op = discretize(make_interval(0, 1), 0.25, 100)
        h = 1.0 / 101
        assert np.allclose(op.diag, 2 / h**2)
        assert np.allclose(op.offdiag, -1 / h**2)

    def test_offdiagonal_negative_everywhere(self):
        for man in (make_interval(0, 2), make_space_form_ball(3, 0, 1),
                    make_spherical_cap(4, math.pi / 2), make_hyperbolic_ball(2, 1.5)):
            op = discretize(man, 0.25, 64)
            assert np.all(op.offdiag < 0)

    def test_constant_potential_is_exact_matrix_shift(self):
        hemi = make_spherical_cap(2, math.pi / 2)
        op0 = discretize(hemi, 0.0, 128)
        op1 = discretize(hemi, 0.25, 128)
        assert np.array_equal(op1.diag, op0.diag + 0.25 * 2.0)
        assert np.array_equal(op1.offdiag, op0.offdiag)

    def test_product_kind_rejected(self):
        with pytest.raises(InvalidKindError):
            discretize(make_box([1, 2]), 0.25, 64)

    def test_minimum_grid(self):
        with pytest.raises(InvalidParameterError):
            discretize(make_interval(0, 1), 0.25, 8)


def _cell_log_masses_reference(prof, m, h):
    """The (m, 4) Gauss-point layout, kept as the reference for the (4, m) one."""
    centers = (np.arange(m) + 0.5) * h
    pts = centers[:, None] + 0.5 * h * _GL_X[None, :]
    logs = np.asarray(prof.log_density(pts), dtype=float) \
        + np.log(0.5 * h * _GL_W)[None, :]
    peak = logs.max(axis=1)
    return peak + np.log(np.sum(np.exp(logs - peak[:, None]), axis=1))


_MASS_CASES = {
    "flat 8-ball": lambda: make_space_form_ball(8, 0.0, 1.0),
    "hyperbolic 5-ball r=3": lambda: make_hyperbolic_ball(5, 3.0),
    "hyperbolic 3-ball r=600": lambda: make_hyperbolic_ball(3, 600.0),
    "4-cap angle 2": lambda: make_spherical_cap(4, 2.0),
    "custom": lambda: make_radial_custom(
        3, lambda d: np.sin(d) * np.exp(0.3 * d * d), 1.2),
}


class TestCellLogMasses:
    @pytest.mark.parametrize("m", [500, 1000, 2000, 4000])
    @pytest.mark.parametrize("case", sorted(_MASS_CASES))
    def test_bitwise_equal_to_reference_layout(self, case, m):
        prof = _MASS_CASES[case]().profile
        h = prof.r_max / m
        got = _cell_log_masses(prof, m, h)
        assert got.shape == (m,)
        assert np.array_equal(got, _cell_log_masses_reference(prof, m, h))

    @pytest.mark.parametrize("n", [2, 20])
    def test_first_cell(self, n):
        prof = make_space_form_ball(n, 0.0, 1.0).profile
        m = 1000
        h = prof.r_max / m
        first = _cell_log_masses(prof, m, h)[0]
        assert first == _cell_log_masses_reference(prof, m, h)[0]
        # int_0^h d^(n-1) = h^n / n; the 4-point rule is exact to degree 7
        exact = n * math.log(h) - math.log(n)
        assert first == pytest.approx(exact, rel=1e-14 if n == 2 else 1e-3)


class TestDriftOnDemand:
    @pytest.fixture
    def drift_calls(self, monkeypatch):
        calls = []
        inner = RadialProfile.drift

        def spy(self, d):
            calls.append(np.size(d))
            return inner(self, d)

        monkeypatch.setattr(RadialProfile, "drift", spy)
        return calls

    def test_solve_path_never_evaluates_drift(self, drift_calls):
        for man in (make_space_form_ball(3, 0.0, 1.0), make_hyperbolic_ball(4, 2.0),
                    make_spherical_cap(2, 1.0)):
            discretize(man, 0.25, 128)
            lambda1_beta(man, 0.25, 96)
        assert drift_calls == []

    def test_warped_fields_read_eager_values(self, drift_calls):
        man = make_hyperbolic_ball(3, 2.0)
        prof = man.profile
        grid = operator_grid(man, 256)
        assert drift_calls == []
        eager = (2 * prof.warp_prime(grid.nodes) / prof.warp(grid.nodes)).astype(float)
        assert np.array_equal(grid.drift, eager)
        assert drift_calls == [256]
        grid.drift  # cached on the grid
        assert drift_calls == [256]

        def theta(d):
            return np.cos(0.5 * d)

        got = warped.theta_form(man, theta, 256)
        assert drift_calls == [256, 256]
        phi = theta(grid.nodes)
        lap = (warped._d2(phi, grid.h) + eager * warped._d1(phi, grid.h)) / phi
        assert np.array_equal(got, (grid.sigma - 4.0 * lap)[grid.eval_slice])

    def test_interval_drift_is_zero(self, drift_calls):
        grid = operator_grid(make_interval(0.0, 2.0), 64)
        assert np.array_equal(grid.drift, np.zeros(64))
        assert drift_calls == []


class TestFirstEigenpair:
    def test_interval_discrete_closed_form(self):
        # the free tridiagonal has eigenvalue (4/h^2) sin^2(pi h / 2) exactly
        m = 300
        op = discretize(make_interval(0, 1), 0.0, m)
        res = first_eigenpair(op)
        h = 1.0 / (m + 1)
        exact = (4 / h**2) * math.sin(math.pi * h / 2) ** 2
        assert res.lambda1 == pytest.approx(exact, rel=1e-12)

    def test_interval_converges_to_pi_squared(self):
        op = discretize(make_interval(0, 1), 0.25, 2000)
        res = first_eigenpair(op)
        assert res.lambda1 == pytest.approx(math.pi**2, abs=1e-3)

    def test_eigenfunction_positive_and_sine_shaped(self):
        m = 500
        op = discretize(make_interval(0, 1), 0.25, m)
        res = first_eigenpair(op)
        u = res.eigenfunction
        assert np.all(u > 0)
        shape = np.sin(math.pi * op.grid.nodes)
        assert np.max(np.abs(u - shape / shape.max())) < 1e-6

    def test_perron_positivity_radial(self):
        for man in (make_space_form_ball(2, 0, 1), make_spherical_cap(3, math.pi / 2),
                    make_hyperbolic_ball(3, 2.0)):
            res = first_eigenpair(discretize(man, 0.25, 400))
            assert np.all(res.eigenfunction > 0)

    def test_flat_disk_bessel_eigenvalue(self):
        res = first_eigenpair(discretize(make_space_form_ball(2, 0, 1), 0.0, 2000))
        assert res.lambda1 == pytest.approx(first_zero(0.0).j ** 2, rel=1e-6)

    def test_three_ball_pi_squared(self):
        res = first_eigenpair(discretize(make_space_form_ball(3, 0, 1), 0.25, 2000))
        assert res.lambda1 == pytest.approx(math.pi**2, rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_hemisphere_laplace_eigenvalue_is_n(self, n):
        res = first_eigenpair(discretize(make_spherical_cap(n, math.pi / 2), 0.0, 1500))
        assert res.lambda1 == pytest.approx(n, rel=1e-5)

    @pytest.mark.parametrize("r", [1.0, 2.5])
    def test_hyperbolic_three_ball_closed_form(self, r):
        res = first_eigenpair(discretize(make_hyperbolic_ball(3, r), 0.0, 2000))
        assert res.lambda1 == pytest.approx(1 + math.pi**2 / r**2, rel=1e-6)


class TestShiftAndScaling:
    def test_constant_shift_machine_precision(self):
        hemi = make_spherical_cap(2, math.pi / 2)
        for beta in (0.25, 0.5, 1.0):
            shifted = lambda1_beta(hemi, beta, 500).lambda1
            base = lambda1_beta(hemi, 0.0, 500).lambda1
            assert abs(shifted - (base + 2.0 * beta)) <= 1e-11 * abs(shifted)

    def test_lower_bound_beta_inf_sigma(self):
        # lambda_1(-Lap + beta sigma) > beta * inf sigma, strictly (Dirichlet)
        for man, sigma in ((make_spherical_cap(2, math.pi / 2), 2.0),
                           (make_hyperbolic_ball(3, 1.0), -6.0),
                           (make_interval(0, 1), 0.0)):
            lam = lambda1_beta(man, 0.25, 400).lambda1
            assert lam > 0.25 * sigma

    def test_flat_scaling_law(self):
        t = 1.7
        for make in (lambda r: make_interval(0, r),
                     lambda r: make_space_form_ball(2, 0, r)):
            lam1 = sc_stab(make(1.0), 600).sc_stab
            lamt = sc_stab(make(t), 600).sc_stab
            assert lamt == pytest.approx(lam1 / t**2, rel=1e-3)

    def test_beta_zero_is_pure_laplacian(self):
        man = make_hyperbolic_ball(3, 1.0)
        assert lambda1_beta(man, 0.0, 400).lambda1 == pytest.approx(
            1 + math.pi**2, rel=1e-5)

    def test_hemisphere_beta_half(self):
        # lambda_1(-Lap) = 2 on S^2_+, so the beta=1/2 value is 2 + 1 = 3
        got = lambda1_beta(make_spherical_cap(2, math.pi / 2), 0.5, 800).lambda1
        assert got == pytest.approx(3.0, rel=1e-5)

    def test_sigma_constant_on_operator_grid(self):
        for man, expect in ((make_space_form_ball(3, -1.0, 1.5), -6.0),
                            (make_spherical_cap(4, 1.0), 12.0),
                            (make_space_form_ball(5, 0.0, 1.0), 0.0)):
            op = discretize(man, 0.25, 128)
            assert np.all(op.grid.sigma == expect)


class TestScStab:
    def test_unit_interval(self):
        assert sc_stab(make_interval(0, 1), 800).sc_stab == pytest.approx(
            4 * math.pi**2, rel=1e-4)

    def test_length_two_interval(self):
        assert sc_stab(make_interval(0, 2), 800).sc_stab == pytest.approx(
            math.pi**2, rel=1e-4)

    @pytest.mark.parametrize("n,value", [(2, 10.0), (3, 18.0), (4, 28.0), (8, 88.0)])
    def test_hemisphere_table(self, n, value):
        got = sc_stab(make_spherical_cap(n, math.pi / 2), 1000).sc_stab
        assert got == pytest.approx(value, rel=1e-4)

    def test_eight_ball_closed_form(self):
        got = sc_stab(make_space_form_ball(8, 0, 1), 1000).sc_stab
        assert got == pytest.approx(4 * first_zero(3.0).j ** 2, rel=5e-3)

    def test_richardson_improves(self):
        res = sc_stab(make_interval(0, 1), 400)
        plain_err = abs(res.lambda1 - math.pi**2)
        rich_err = abs(res.richardson_estimate - math.pi**2)
        assert rich_err < plain_err / 50

    def test_certificate_reported(self):
        res = sc_stab(make_space_form_ball(2, 0, 1), 400)
        assert res.certificate is not None
        assert res.certificate < 1e-2

    def test_non_finite_operator_raises(self):
        # sinh overflow at r = 800 leaves NaN entries in the operator
        with pytest.raises(NumericalFailureError, match="non-finite"):
            sc_stab(make_hyperbolic_ball(3, 800), 500)

    def test_certificate_failure_raises(self):
        with pytest.raises(NumericalFailureError):
            sc_stab(make_interval(0, 1), 64, tol=1e-12)


class TestEigenProduct:
    def test_three_unit_intervals(self):
        got = sc_stab(make_box([1.0, 1.0, 1.0]), 600).sc_stab
        assert got == pytest.approx(12 * math.pi**2, rel=1e-4)

    def test_rectangle_closed_form(self):
        got = eigen_product([make_interval(0, 1), make_interval(0, 2)], 600)
        assert got.sc_stab == pytest.approx(5 * math.pi**2, rel=1e-4)

    def test_rectangle_against_2d_oracle(self):
        # direct five-point-stencil Dirichlet eigensolve, used only here
        oracle = 4 * rectangle_lambda1(1.0, 2.0)
        got = eigen_product([make_interval(0, 1), make_interval(0, 2)], 600)
        assert got.sc_stab == pytest.approx(oracle, rel=5e-3)

    @pytest.mark.parametrize("a,b,target_h", [(1.0, 2.0, 1 / 64), (0.3, 1.7, 1 / 64),
                                              (0.05, 0.05, 1 / 64)])
    def test_oracle_matrix_equals_stencil_loop(self, a, b, target_h):
        # the five-point stencil written out node by node, unknown i * ny + j
        nx = max(int(round(a / target_h)) - 1, 8)
        ny = max(int(round(b / target_h)) - 1, 8)
        hx, hy = a / (nx + 1), b / (ny + 1)
        want = {}
        for i in range(nx):
            for j in range(ny):
                k = i * ny + j
                want[k, k] = 2.0 / hx**2 + 2.0 / hy**2
                if i > 0:
                    want[k, k - ny] = -1.0 / hx**2
                if i < nx - 1:
                    want[k, k + ny] = -1.0 / hx**2
                if j > 0:
                    want[k, k - 1] = -1.0 / hy**2
                if j < ny - 1:
                    want[k, k + 1] = -1.0 / hy**2
        got = five_point_laplacian(a, b, target_h).tocoo()
        assert got.shape == (nx * ny, nx * ny)
        assert dict(zip(zip(got.row.tolist(), got.col.tolist()), got.data.tolist())) == want

    def test_box_equals_product_of_intervals(self):
        box = sc_stab(make_box([1.0, 2.0, 3.0]), 400).sc_stab
        prod = sc_stab(product([make_interval(0, 1), make_interval(0, 2),
                                make_interval(0, 3)]), 400).sc_stab
        assert box == prod

    def test_same_factor_doubles(self):
        x = make_spherical_cap(2, math.pi / 2)
        assert eigen_product([x, x], 400).sc_stab == 2 * sc_stab(x, 400).sc_stab

    def test_cylinder_with_hemisphere(self):
        got = sc_stab(product([make_interval(0, 1), make_spherical_cap(2, math.pi / 2)]),
                      800).sc_stab
        assert got == pytest.approx(4 * math.pi**2 + 10.0, rel=1e-4)

    def test_spectral_results_rejected(self):
        # eigen_product takes manifolds only; product() refuses solved results
        a = lambda1_beta(make_interval(0, 1), 0.25, 100)
        b = lambda1_beta(make_interval(0, 1), 0.5, 100)
        with pytest.raises(InvalidParameterError, match="ModelManifold"):
            eigen_product([a, b])

    def test_needs_two_factors(self):
        with pytest.raises(InvalidParameterError):
            eigen_product([make_interval(0, 1)])


class TestThreeDimensionalClosedForms:
    @pytest.mark.parametrize("man", [
        make_space_form_ball(3, 0.5, 2.0),
        make_space_form_ball(3, -2.0, 7.0),
        make_spherical_cap(3, 2.5),
        make_hyperbolic_ball(3, 1.0),
        make_hyperbolic_ball(3, 10.0),
    ], ids=["kappa=+0.5", "kappa=-2", "cap 2.5", "hyperbolic r=1", "hyperbolic r=10"])
    def test_richardson_matches_closed_form(self, man):
        # pi^2/r^2 - kappa + 6 beta kappa is exact in dimension 3
        res = sc_stab(man, 2000)
        exact = 4 * closed_form(man)
        assert abs(4 * res.richardson_estimate - exact) <= 1e-9 * abs(exact)


class TestExhaustion:
    def test_hyperbolic_decreasing_to_limit(self):
        man = make_hyperbolic_ball(3, 8.0)
        vals = [r.sc_stab for r in exhaustion_limit(man, [1, 2, 4, 8], 1200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # closed form: -2 + 4 pi^2 / r^2, heading toward -(n-1) = -2
        for r, v in zip([1, 2, 4, 8], vals):
            assert v == pytest.approx(-2 + 4 * math.pi**2 / r**2, rel=1e-4)

    def test_euclidean_scaling_pair(self):
        man = make_space_form_ball(2, 0, 2.0)
        vals = [r.sc_stab for r in exhaustion_limit(man, [1, 2], 800)]
        assert vals[0] == pytest.approx(4 * vals[1], rel=1e-6)

    def test_repeated_radius_constant(self):
        man = make_space_form_ball(3, 0, 1.0)
        vals = [r.sc_stab for r in exhaustion_limit(man, [0.5, 0.5, 0.5], 200)]
        assert vals[0] == vals[1] == vals[2]

    def test_decreasing_radii_rejected(self):
        man = make_space_form_ball(3, 0, 1.0)
        with pytest.raises(InvalidParameterError):
            exhaustion_limit(man, [0.8, 0.5], 200)

    def test_radius_beyond_domain_rejected(self):
        man = make_space_form_ball(3, 0, 1.0)
        with pytest.raises(InvalidParameterError):
            exhaustion_limit(man, [0.5, 1.5], 200)


class TestMonotonicity:
    def test_nested_pairs_never_violate(self):
        for inner, outer in nested_pairs(7, 50):
            ri = sc_stab(inner, 500)
            ro = sc_stab(outer, 500)
            tol = 2 * (ri.certificate + ro.certificate) * max(
                abs(ri.sc_stab), abs(ro.sc_stab)) + 1e-8
            assert ri.sc_stab >= ro.sc_stab - tol
