import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from scx import spectral, warped
from scx import _oracle2d
from scx._oracle2d import rectangle_lambda1
from scx.bessel import bessel_j, first_zero
from scx.closed_forms import closed_form
from scx.comparison import hyperbolic_c_from_lambda, hyperbolic_c_window
from scx.errors import (
    InvalidKindError,
    InvalidParameterError,
    NumericalFailureError,
)
from scx.geometry import (
    Kind,
    RadialProfile,
    SpaceForm,
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
    finite_volume_operator,
    first_eigenpair,
    lambda1_beta,
    operator_grid,
    sc_stab,
)
from scx._tridiag import smallest_eigenpair
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


# custom profiles are discretized by finite volumes, space forms by the
# normal form; _cell_log_masses reads any profile
_MASS_CASES = {
    "flat disk": lambda: make_space_form_ball(2, 0.0, 1.0),
    "hyperbolic 2-ball r=600": lambda: make_hyperbolic_ball(2, 600.0),
    "2-cap angle 2": lambda: make_spherical_cap(2, 2.0),
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


class TestPairOperators:
    @pytest.mark.parametrize("m", [37, 500, 2000])
    @pytest.mark.parametrize("case", sorted(set(_MASS_CASES) - {"custom"}))
    def test_discretize_at_m_then_at_2m(self, monkeypatch, case, m):
        # a cold pair solves discretize's own operators, bit for bit: the
        # coarse grid at m, then the fine grid at 2m
        man = _MASS_CASES[case]()
        calls = []

        def recording(diag, off, **hints):
            calls.append((diag.copy(), off.copy()))
            return smallest_eigenpair(diag, off, **hints)

        monkeypatch.setattr(spectral, "smallest_eigenpair", recording)
        monkeypatch.setattr(spectral, "_cache", OrderedDict())
        lambda1_beta(man, 0.25, m, tol=1.0)
        want = [discretize(man, 0.25, m), discretize(man, 0.25, 2 * m)]
        assert len(calls) == 2
        for (diag, off), op in zip(calls, want):
            assert op.normal_form
            assert np.array_equal(diag, op.diag)
            assert np.array_equal(off, op.offdiag)


def _exact_cell_log_masses(kappa: float, h: float, m: int) -> np.ndarray:
    """log int sn over [d - h/2, d + h/2] = log(2 sn(d) sn(h/2)), the n = 2
    cell masses in closed form."""
    d = (np.arange(m) + 0.5) * h
    if kappa == 0:
        return np.log(d * h)
    k = math.sqrt(abs(kappa))
    sn = np.sin if kappa > 0 else np.sinh
    return np.log(2.0 * sn(k * d) / k) + math.log(sn(0.5 * k * h) / k)


_N2_SPACE_FORMS = [
    make_space_form_ball(2, 0.0, 1.0), make_space_form_ball(2, 0.0, 7.0),
    make_space_form_ball(2, 2.5, 0.9), make_spherical_cap(2, 2.0),
    make_spherical_cap(2, 3.0), make_hyperbolic_ball(2, 30.0),
    make_hyperbolic_ball(2, 600.0), make_space_form_ball(2, -4.0, 3.0),
]


class TestN2GaussCellMasses:
    """finite_volume_operator on n = 2 space forms: 4-point Gauss masses,
    against the closed form 2 sn(d) sn(h/2)."""

    @pytest.mark.parametrize("man", _N2_SPACE_FORMS, ids=lambda man: man.describe())
    def test_the_gauss_rule_agrees_where_cells_are_small(self, man):
        # where k h <= 0.1 the 4-point rule is exact to rounding; the logs
        # agree to 1e-13, relative to |log M| where that exceeds 1
        prof = man.profile
        m = max(500, math.ceil(10 * math.sqrt(abs(prof.kappa)) * prof.r_max))
        op = finite_volume_operator(man, 0.25, m)
        exact = _exact_cell_log_masses(prof.kappa, op.grid.h, m)
        assert np.all(np.abs(op.log_mass - exact) <= 1e-13 * np.maximum(1.0, np.abs(exact)))

    def test_finite_volume_operator_takes_the_gauss_rule(self):
        man = make_hyperbolic_ball(2, 30.0)
        op = finite_volume_operator(man, 0.25, 300)
        assert not op.normal_form
        assert np.array_equal(op.log_mass, _cell_log_masses(man.profile, 300, op.grid.h))


def _finite_volume_pair(man, beta, m):
    """(lambda_1 at m, lambda_1 at 2m) of finite_volume_operator's scheme,
    4-point Gauss cell masses, each grid discretized and solved cold."""
    return [smallest_eigenpair(op.diag, op.offdiag)[0]
            for op in (finite_volume_operator(man, beta, k) for k in (m, 2 * m))]


class TestN2Catalog:
    """The fitted normal form's lambda_1 and Richardson value lie within the
    certificate of the Gauss-rule finite-volume pair."""

    @pytest.mark.parametrize("m", [125, 1000])
    @pytest.mark.parametrize("man", [
        make_space_form_ball(2, 0.0, 0.1), make_space_form_ball(2, 0.0, 1.0),
        make_space_form_ball(2, 0.0, 7.0), make_spherical_cap(2, 0.5),
        make_spherical_cap(2, 1.5), make_spherical_cap(2, 2.5),
        make_spherical_cap(2, 3.0), make_hyperbolic_ball(2, 1.0),
        make_hyperbolic_ball(2, 30.0), make_hyperbolic_ball(2, 200.0),
        make_hyperbolic_ball(2, 600.0),
    ], ids=lambda man: man.describe())
    def test_within_the_gauss_rule_certificate(self, man, m, monkeypatch):
        monkeypatch.setattr(spectral, "_cache", OrderedDict())
        lam_c, lam_f = _finite_volume_pair(man, 0.25, m)
        bound = abs(lam_c - lam_f)
        res = lambda1_beta(man, 0.25, m, tol=1.0)  # reads the value and its bound
        assert abs(res.lambda1 - lam_f) <= bound
        assert abs(res.richardson_estimate - (4 * lam_f - lam_c) / 3) <= bound


class TestDriftOnDemand:
    @pytest.fixture
    def drift_calls(self, monkeypatch):
        calls = []
        for cls in (SpaceForm, RadialProfile):
            def spy(self, d, _inner=cls.drift):
                calls.append(np.size(d))
                return _inner(self, d)

            monkeypatch.setattr(cls, "drift", spy)
        return calls

    def test_solve_path_never_evaluates_drift(self, drift_calls):
        # finite volumes: custom profiles
        man = make_radial_custom(3, np.sin, 1.2, warp_prime=np.cos)
        discretize(man, 0.25, 128)
        lambda1_beta(man, 0.25, 96)
        assert drift_calls == []

    def test_normal_form_reads_the_grid_drift_once(self, drift_calls, monkeypatch):
        # Q takes sn'/sn from the grid's cached drift, and only where it is
        # not constant: n > 3, and curved n = 2 space forms, whose smooth
        # rest -((sn'/sn)^2 - 1/d^2)/4 is zero on flat disks
        monkeypatch.setattr(spectral, "_cache", OrderedDict())
        for man in (make_space_form_ball(3, 0.0, 1.0), make_space_form_ball(2, 0.0, 1.0)):
            discretize(man, 0.25, 128)
        lambda1_beta(make_hyperbolic_ball(3, 2.0), 0.25, 96)
        lambda1_beta(make_space_form_ball(2, 0.0, 3.0), 0.25, 96)
        assert drift_calls == []
        op = discretize(make_hyperbolic_ball(4, 2.0), 0.25, 128)
        assert drift_calls == [128]
        assert np.array_equal(op.grid.drift, 3.0 / np.tanh(op.grid.nodes))
        assert drift_calls == [128]
        lambda1_beta(make_hyperbolic_ball(4, 2.0), 0.25, 96)
        assert drift_calls == [128, 96, 192]  # the coarse grid, then the fine one
        lambda1_beta(make_spherical_cap(2, 1.0), 0.25, 96)
        assert drift_calls == [128, 96, 192, 96, 192]

    def test_warped_fields_read_eager_values(self, drift_calls):
        man = make_hyperbolic_ball(3, 2.0)
        prof = man.profile
        grid = operator_grid(man, 256)
        assert drift_calls == []
        eager = 2 * 1.0 / np.tanh(1.0 * grid.nodes)  # (n - 1) coth(d)
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

        custom = operator_grid(make_radial_custom(3, np.sin, 1.2, warp_prime=np.cos), 64)
        assert np.array_equal(custom.drift, 2 * np.cos(custom.nodes) / np.sin(custom.nodes))
        assert drift_calls == [256, 256, 64]

    def test_interval_drift_is_zero(self, drift_calls):
        grid = operator_grid(make_interval(0.0, 2.0), 64)
        assert np.array_equal(grid.drift, np.zeros(64))
        assert drift_calls == []


class TestFirstEigenpair:
    @pytest.mark.parametrize("build", [
        lambda: discretize(make_interval(0.0, 1.5), 0.25, 400),
        lambda: finite_volume_operator(make_spherical_cap(2, math.pi / 2), 0.5, 1024),
        lambda: discretize(make_space_form_ball(4, 0.0, 1.0), 0.25, 2000),
    ], ids=["interval", "finite-volume-hemisphere", "normal-form-ball"])
    def test_one_cold_solve(self, monkeypatch, build):
        op = build()
        calls = []

        def recording(diag, off, **hints):
            calls.append(sorted(hints))
            return smallest_eigenpair(diag, off, **hints)

        monkeypatch.setattr(spectral, "smallest_eigenpair", recording)
        res = first_eigenpair(op)
        assert calls == [sorted(spectral._cold_hints(op))]
        lam, v = smallest_eigenpair(op.diag, op.offdiag, **spectral._cold_hints(op))
        assert res.lambda1 == lam
        assert np.array_equal(res.eigenfunction, op.unweight(v))
        assert res.grid_size == op.grid.size and res.beta == op.beta

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


# sc_stab at the default grid, its Richardson value and certificate, as
# float.hex, pinned when finite-volume pairs stopped solving coarse first;
# printed by
#   PYTHONPATH=src python -c "import sys; from scx import sc_stab; from scx.cli import
#   parse_spec; r = sc_stab(parse_spec(sys.argv[1]).manifold); print(r.sc_stab.hex(),
#   r.richardson_estimate.hex(), r.certificate.hex())" SPEC
_PINNED_SC_STAB = [
    ("interval:0,1", "0x1.3bd3cc57d0b03p+5", "0x1.3bd3cc9bde8f3p+3", "0x1.4af9d234ef0f2p-25"),
    ("box:1,2,3", "0x1.ade047e94dd36p+5", "0x1.ade04845eeed9p+3", "0x1.4af9d22e0d609p-25"),
    ("ball:n=2,r=1", "0x1.721fb7acad62cp+4", "0x1.721fb804669c3p+2", "0x1.6c0c9ece50921p-25"),
    ("ball:n=4,r=1", "0x1.d5d2b33272171p+5", "0x1.d5d2b40818818p+3", "0x1.5d3ea9ff681cap-24"),
    ("hypball:n=3,r=40", "-0x1.f9aef6cb0b460p+0", "-0x1.f9aef6c9aea20p-2",
     "0x1.08bf2c86de2eep-31"),
    ("cap:n=5,angle=2", "0x1.bfb728cab0d6cp+4", "0x1.bfb7292105f93p+2", "0x1.282f797b44102p-25"),
    ("product:(ball:n=2,r=1)x(hypball:n=3,r=2)", "0x1.f0099dd8938d2p+4", "0x1.f0099e5258cb1p+2",
     "0x1.79112e140c7edp-25"),
]


class TestPinnedScStab:
    """Any change to the pair path shows here: the values bit for bit."""

    @pytest.mark.parametrize("spec, sc, richardson, certificate", _PINNED_SC_STAB,
                             ids=[row[0] for row in _PINNED_SC_STAB])
    def test_bit_for_bit(self, monkeypatch, spec, sc, richardson, certificate):
        from scx.cli import parse_spec

        monkeypatch.setattr(spectral, "_cache", OrderedDict())
        res = sc_stab(parse_spec(spec).manifold)
        assert res.grid_size == 8000
        assert (res.sc_stab.hex(), res.richardson_estimate.hex(), res.certificate.hex()) \
            == (sc, richardson, certificate)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", [800.0, 1000.0])
    def test_large_hyperbolic_operator_is_finite(self, n, r):
        # the exact log warp keeps sinh^(n-1) from overflowing above r ~ 710
        op = discretize(make_hyperbolic_ball(n, r), 0.25, 500)
        assert np.all(np.isfinite(op.diag)) and np.all(np.isfinite(op.offdiag))
        assert np.all(np.isfinite(op.grid.drift))

    def test_certificate_failure_raises(self):
        with pytest.raises(NumericalFailureError):
            sc_stab(make_interval(0, 1), 64, tol=1e-12)


class TestSolveParameters:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a nan tol never fails the certificate; tol <= 0 always does
        for man in (make_interval(0, 1), make_box([1, 2])):
            with pytest.raises(InvalidParameterError, match="tol"):
                lambda1_beta(man, 0.25, 64, tol=tol)

    @pytest.mark.parametrize("m", [3, 8, 15])
    def test_grid_below_minimum_refused_for_every_kind(self, m):
        # lambda1_beta checks m itself, before any kind's solve
        kinds = [make_interval(0, 1), make_space_form_ball(3, 0.0, 1.0),
                 make_space_form_ball(2, 1.0, 1.0), make_spherical_cap(3, 2.0),
                 make_hyperbolic_ball(3, 2.0), make_radial_custom(3, np.sin, 1.0),
                 make_box([1, 2]), product([make_interval(0, 1), make_hyperbolic_ball(2, 1.0)])]
        assert {man.kind for man in kinds} == set(Kind)
        for man in kinds:
            for solve in (lambda: lambda1_beta(man, 0.0, m), lambda: sc_stab(man, m)):
                with pytest.raises(InvalidParameterError, match=f"grid size must be >= 16, got {m}$"):
                    solve()

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_beta_must_be_finite(self, beta):
        for man in (make_interval(0, 1), make_hyperbolic_ball(3, 2)):
            with pytest.raises(InvalidParameterError, match="beta"):
                lambda1_beta(man, beta, 64)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [1e300, -1e300])
    def test_huge_finite_beta_computes(self, beta):
        # sigma = -6 on the hyperbolic 3-ball: lambda_1 = 1 + pi^2/4 - 6 beta
        res = lambda1_beta(make_hyperbolic_ball(3, 2), beta, 200)
        assert res.lambda1 == pytest.approx(-6 * beta, rel=1e-15)
        assert res.certificate < 1e-14

    @pytest.mark.filterwarnings("error")
    def test_overflowing_beta_is_a_numerical_failure(self):
        with pytest.raises(NumericalFailureError, match="non-finite diag"):
            lambda1_beta(make_hyperbolic_ball(3, 2), 1e308, 64)

    @pytest.mark.parametrize("man,beta", [
        (make_interval(0, 1), 0.25), (make_hyperbolic_ball(3, 2), 1e300),
        (make_spherical_cap(4, 2.0), -3.0),
    ])
    def test_finite_richardson_keeps_its_formula(self, man, beta):
        res = lambda1_beta(man, beta, 64)
        lam_c, lam_f = spectral._cache[(man.key(), beta, 64)]
        assert res.richardson_estimate == (4.0 * lam_f - lam_c) / 3.0

    @pytest.mark.filterwarnings("error")
    def test_richardson_finite_where_four_lambda_overflows(self):
        # lambda_1 = -1.74e308 is finite, 4 lambda_1 is not
        man = make_hyperbolic_ball(3, 2)
        res = lambda1_beta(man, 2.9e307, 64)
        lam_c, lam_f = spectral._cache[(man.key(), 2.9e307, 64)]
        assert math.isinf(4.0 * lam_f)
        assert res.richardson_estimate == lam_f + (lam_f - lam_c) / 3.0
        assert math.isfinite(res.richardson_estimate)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [2.9e307, 1.6e307])
    def test_overflowing_product_is_a_numerical_failure(self, beta):
        hyp = make_hyperbolic_ball(3, 2)
        with pytest.raises(NumericalFailureError, match="product eigenvalue overflows"):
            lambda1_beta(product([hyp, hyp]), beta, 64)

    @pytest.mark.parametrize("man, beta", [
        (make_radial_custom(1_000_000, lambda d: d, 1.0, warp_prime=np.ones_like,
                            scalar_curv=np.zeros_like), 0.25),
        (make_radial_custom(10**8, np.sinh, 1.0, warp_prime=np.cosh), 0.25),
        (make_hyperbolic_ball(10**8, 1.0), 1e300),  # inf + (-inf) on the diagonal
    ], ids=["flat", "hyperbolic", "hyperbolic-huge-beta"])
    def test_overflowing_operator_entries_fail_without_warnings(self, man, beta):
        # finite volumes: the face/mass ratios of the custom warps d and
        # sinh(d) overflow; normal form: beta sigma overflows; the solver's
        # check reports it, and no RuntimeWarning escapes on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="non-finite diag"):
                lambda1_beta(man, beta, 400)

    @pytest.mark.filterwarnings("error")
    def test_normal_form_keeps_huge_dimensions_finite(self):
        # Q ~ n^2 / (4 d^2) stays finite where the finite-volume ratios of
        # the same ball overflow; the value lies within its certificate
        man = make_space_form_ball(1_000_000, 0.0, 1.0)
        res = lambda1_beta(man, 0.25, 400)
        assert abs(res.lambda1 - closed_form(man)) <= res.certificate * abs(res.lambda1)

    def test_negative_curvature_ball_at_the_radius_cap(self):
        # the kappa < 0 ball is the hyperbolic ball of radius sqrt(-kappa) r,
        # rescaled: lambda_1 scales by -kappa
        ball = lambda1_beta(make_space_form_ball(3, -1e6, 1.0), 0.25, 4000)
        hyp = lambda1_beta(make_hyperbolic_ball(3, 1000.0), 0.25, 4000)
        assert ball.lambda1 == pytest.approx(1e6 * hyp.lambda1, rel=1e-12)

    @pytest.mark.parametrize("m", [1000.5, 64.25, math.inf, math.nan, "64"])
    def test_grid_size_must_be_an_integer(self, m):
        # taken as is, 1000.5 would build 1001 nodes with h = 1/1000.5, and
        # so a Dirichlet face at r = 1.0005
        man = make_space_form_ball(3, 0.0, 1.0)
        for solve in (lambda: discretize(man, 0.25, m), lambda: sc_stab(man, m),
                      lambda: operator_grid(make_interval(0, 1), m),
                      lambda: sc_stab(make_box([1, 2]), m)):
            with pytest.raises(InvalidParameterError, match="grid size must be an integer"):
                solve()

    @pytest.mark.parametrize("m", [1e3, 1000.0, np.int64(1000), np.float64(1000)])
    def test_integer_valued_grid_sizes_taken(self, m):
        man = make_space_form_ball(3, 0.0, 1.0)
        res = sc_stab(man, m)
        assert type(res.grid_size) is int and res.grid_size == 2000
        assert res == sc_stab(man, 1000)
        assert discretize(man, 0.25, m).grid.size == 1000


class TestGridLadder:
    """lambda1_beta takes m as the start of a ladder of grid pairs."""

    @pytest.fixture
    def grids(self, monkeypatch):
        """(kind, m) of each discretize call, in order, from an empty cache."""
        seen = []
        real = spectral.discretize

        def recording(man, beta, m):
            seen.append((man.kind, m))
            return real(man, beta, m)

        monkeypatch.setattr(spectral, "discretize", recording)
        monkeypatch.setattr(spectral, "_cache", OrderedDict())
        return seen

    def test_interval_climbs_to_the_pair_that_passes(self, grids):
        # the certificate fails at the pairs from 64, 128 and 256
        res = sc_stab(make_interval(0, 1), 64, tol=1e-6)
        assert res.grid_size == 512
        assert res.certificate < 1e-5
        # every rung discretizes both of its grids, the coarse one first
        assert [m for _, m in grids] == [64, 128, 128, 256, 256, 512]

    @pytest.mark.parametrize("man,expect", [
        (make_space_form_ball(3, 0.0, 1.0),
         (9.869596283667779, 9.869604401078679, 2.4673990708207805e-06)),
        (make_hyperbolic_ball(2, 3.0),
         (0.4539616193842487, 0.45396218917816783, 3.7654763844836097e-06)),
        (make_spherical_cap(4, 2.0),
         (4.762809511986019, 4.762814808269021, 3.3360244553271205e-06)),
    ])
    def test_pass_at_the_start_grid_is_one_pair(self, grids, man, expect):
        # a pass at the start grid solves the one pair (500, 1000); its
        # values, bit for bit, as the single-pair solve gave them
        res = sc_stab(man, 500)
        assert grids == [(man.kind, 500), (man.kind, 1000)]
        assert (res.lambda1, res.richardson_estimate, res.certificate) == expect
        assert res.grid_size == 1000

    def test_factor_passing_at_the_start_is_not_solved_again(self, grids):
        # relative to lambda_1 ~ 1, the n = 3 hyperbolic 100-ball passes at
        # 64, while the interval climbs to the pair from 1024
        hyp, interval = make_hyperbolic_ball(3, 100.0), make_interval(0, 1)
        res = lambda1_beta(product([hyp, interval]), 0.0, 64, tol=1e-7)
        assert [m for kind, m in grids if kind == Kind.HYPERBOLIC_BALL] == [64, 128]
        assert res.grid_size == 2048
        parts = [lambda1_beta(f, 0.0, 64, tol=1e-7) for f in (hyp, interval)]
        assert [p.grid_size for p in parts] == [128, 2048]
        assert res.lambda1 == parts[0].lambda1 + parts[1].lambda1
        assert len(grids) == 2 + 10  # the cache served the second pass

    def test_failure_lists_every_rung(self, grids):
        assert spectral.MAX_GRID_FACTOR == 16
        with pytest.raises(NumericalFailureError,
                           match="^grid-doubling certificate failed$") as info:
            lambda1_beta(make_interval(0, 1), 0.25, 64, tol=1e-12)
        details = info.value.details
        assert list(details["rungs"]) == [64, 128, 256, 512, 1024]
        assert details["m"] == 1024 and details["tol"] == 1e-12
        assert details["certificate"] == details["rungs"][1024]
        assert all(c >= 1e-11 for c in details["rungs"].values())
        # every rung discretizes both of its grids, the coarse one first
        assert [m for _, m in grids] == [64, 128, 128, 256, 256, 512, 512, 1024, 1024, 2048]


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
        # lower band storage, ab[d, k] = A[k + d, k], with the unknowns run
        # along the shorter side first: band index k is node i * ny + j
        p, q, hs, hl = _oracle2d._grid(a, b, target_h)
        ab = np.empty((p + 1, p * q), order="F")
        _oracle2d._fill(ab, p, hs, hl)
        n, p = nx * ny, min(nx, ny)
        assert ab.shape == (p + 1, n)
        k = np.arange(n)
        node = k if ny <= nx else (k % nx) * ny + k // nx
        got = {}
        for d in range(p + 1):
            assert not ab[d, n - d:].any()  # past the matrix
            for col in np.flatnonzero(ab[d, :n - d]).tolist():
                row = col + d
                got[node[row], node[col]] = got[node[col], node[row]] = ab[d, col]
        assert got == want

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

    @pytest.mark.parametrize("gap", [1e-2, 1e-4])
    def test_cancelling_product_within_its_certificate(self, gap):
        # lambda_1 of the hyperbolic 3-ball at r = 10 is -0.40130...; an
        # interval tuned against it leaves a sum near gap: the factors'
        # absolute bounds add, where the largest relative one understates it
        hyp = make_hyperbolic_ball(3, 10.0)
        length = math.pi / math.sqrt(-closed_form(hyp) + gap)
        man = product([hyp, make_interval(0.0, length)])
        exact = closed_form(man)
        assert exact == pytest.approx(gap, rel=1e-9)
        res = lambda1_beta(man, 0.25, 500)
        assert abs(res.lambda1 - exact) <= res.certificate * abs(res.lambda1)
        parts = [lambda1_beta(f, 0.25, 500) for f in man.factors]
        bound = sum(p.certificate * abs(p.lambda1) for p in parts)
        assert res.certificate * abs(res.lambda1) == pytest.approx(bound, rel=1e-12)
        assert res.certificate > max(p.certificate for p in parts)

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


# closed forms at every grid: flat n-balls, hemispheres, a curved 3-ball and
# a large hyperbolic 3-ball
_CLOSED_FORM_CATALOG = [make_space_form_ball(n, 0.0, 1.0) for n in (4, 5, 6, 12, 40)] + [
    make_spherical_cap(4, math.pi / 2), make_spherical_cap(30, math.pi / 2),
    make_space_form_ball(3, -1.0, 1.0), make_hyperbolic_ball(3, 300.0)]


class TestNormalForm:
    """Space forms of dimension n >= 2: -v'' + Q v on v = sn^((n-1)/2) u."""

    @pytest.mark.parametrize("man", _CLOSED_FORM_CATALOG, ids=lambda man: man.describe())
    def test_error_within_certificate_at_every_grid(self, man):
        exact = closed_form(man)
        for m in (16, 32, 64, 125, 250, 500, 1000, 2000):
            res = lambda1_beta(man, 0.25, m, tol=1.0)  # reads the value and its bound
            assert abs(res.lambda1 - exact) <= res.certificate * abs(res.lambda1), m

    @pytest.mark.parametrize("n, radii", [
        pytest.param(2, (600.0, 800.0, 993.659), id="2"),
        *(pytest.param(n, (100.0, 300.0, 516.7, 1000.0), id=str(n)) for n in (3, 4, 5, 6)),
    ])
    def test_large_hyperbolic_balls_inside_the_proven_window(self, n, radii):
        for r in radii:
            lo, hi = hyperbolic_c_window(n, r)
            for m in (500, 4000):
                res = lambda1_beta(make_hyperbolic_ball(n, r), 0.0, m)
                c = hyperbolic_c_from_lambda(n, r, res.lambda1)
                slack = 4.0 * res.certificate * abs(res.lambda1) / (n - 1) ** 2
                assert lo - slack <= c <= hi + slack, (r, m, c, lo, hi)

    @pytest.mark.parametrize("m", [16, 37, 500])
    @pytest.mark.parametrize("r", [0.3, 1.0, 7.0])
    def test_fitted_rows_map_the_square_root_to_zero(self, r, m):
        # on flat disks Q is -1/(4 d^2) alone; with the ghost -v taken out of
        # the last row and d^(1/2) continued one node, each row's residual is
        # rounding against the size of its terms
        op = discretize(make_space_form_ball(2, 0.0, r), 0.25, m)
        h = op.grid.h
        v = np.sqrt(h * (np.arange(m + 1) + 0.5))
        diag = op.diag.copy()
        diag[-1] -= 1.0 / h**2
        off = np.append(op.offdiag, -1.0 / h**2)
        res = diag * v[:-1] + off * v[1:]
        res[1:] += op.offdiag * v[:-2]
        size = diag * v[:-1] - off * v[1:]
        size[1:] -= op.offdiag * v[:-2]
        assert np.all(np.abs(res) <= 8 * np.finfo(float).eps * size)

    @pytest.mark.parametrize("beta", [0.0, 0.25, -3.0])
    @pytest.mark.parametrize("man", [
        make_space_form_ball(3, 0.0, 1.0), make_spherical_cap(3, 2.5),
        make_hyperbolic_ball(3, 300.0), make_space_form_ball(4, 0.0, 3.0),
        make_spherical_cap(4, 3.0), make_hyperbolic_ball(5, 516.7),
        make_space_form_ball(12, -2.0, 1.5), make_spherical_cap(30, 1.0),
    ], ids=lambda man: man.describe())
    def test_rows_unfitted_from_three_dimensions_up(self, man, beta):
        # 2/h^2 + Q, with Q = beta sigma + (n-1)(n-3)/4 (sn'/sn)^2 - (n-1)/2 kappa,
        # and 1/h^2 more in the first and last rows: bit for bit
        m = 301
        grid = operator_grid(man, m)
        n, inv_h2 = man.dim, 1.0 / grid.h**2
        diag = beta * grid.sigma
        diag += 2.0 * inv_h2 - 0.5 * (n - 1) * man.profile.kappa
        if n > 3:
            cot = grid.drift / (n - 1)
            diag += 0.25 * (n - 1) * (n - 3) * (cot * cot)
        diag[[0, -1]] += inv_h2
        op = discretize(man, beta, m)
        assert np.array_equal(op.diag, diag)
        assert np.array_equal(op.offdiag, np.full(m - 1, -inv_h2))

    @pytest.mark.parametrize("m", [250, 301])
    def test_lambda1_is_the_coarse_first_pair(self, m, monkeypatch, reference_pair):
        # the pair solves discretize at m cold, then 2m warm from it; a cold
        # single solve of the fine operator lies within the solver's slack
        monkeypatch.setattr(spectral, "_cache", OrderedDict())
        rng = np.random.default_rng(m)
        for n in range(3, 9):
            for man in (make_hyperbolic_ball(n, 10.0 ** rng.uniform(-1.0, 3.0)),
                        make_spherical_cap(n, rng.uniform(0.1, 3.0)),
                        make_space_form_ball(n, 0.0, rng.uniform(0.1, 5.0))):
                got = lambda1_beta(man, 0.25, m, tol=1.0).lambda1
                assert got == reference_pair(man, 0.25, m)[1], man
                op = discretize(man, 0.25, 2 * m)
                scale = np.max(np.abs(op.diag)) + 2 * np.max(np.abs(op.offdiag))
                slack = max(32 * np.finfo(float).eps * scale, 1e-12 * max(abs(got), 1.0))
                assert abs(first_eigenpair(op).lambda1 - got) <= 2 * slack, man

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_function_samples(self, n):
        # log_mass is log(A(d_i) h), so unweight reads the same function as
        # finite volumes away from the centre; next to it, where v ~ d^k,
        # k = (n-1)/2, only finite volumes sample u to O(h^2)
        man = make_space_form_ball(n, 0.0, 1.0)
        nu = n / 2 - 1
        j = first_zero(nu).j
        ops = {"normal": discretize(man, 0.0, 1000),
               "fv": finite_volume_operator(man, 0.0, 1000)}
        d = ops["fv"].grid.nodes
        exact = bessel_j(nu, j * d) / d**nu
        exact /= exact.max()
        u = {k: first_eigenpair(op).eigenfunction for k, op in ops.items()}
        assert np.max(np.abs(u["fv"] - exact)) < 1e-5
        # unweight scales by the largest sample, which lies next to the centre
        far = d > 0.1
        shape = u["normal"][far] * (exact[far] @ exact[far]) / (u["normal"][far] @ exact[far])
        assert np.max(np.abs(shape - exact[far])) < 1e-5
        assert np.array_equal(ops["normal"].log_mass,
                              (n - 1) * np.log(d) + math.log(ops["normal"].grid.h))
