import math

import numpy as np
import pytest

from scx.errors import InvalidParameterError
from scx.geometry import (
    make_interval,
    make_radial_custom,
    make_space_form_ball,
    make_spherical_cap,
)
from scx.spectral import discretize, finite_volume_operator, first_eigenpair, operator_grid
from scx.warped import (
    geometric_mean_reduce,
    make_warping_family,
    psi_form,
    theta_form,
    warped_sc,
)


def bumpy_ball():
    """Radial 3-manifold with genuinely non-constant scalar curvature."""
    return make_radial_custom(
        3,
        lambda d: np.asarray(d) * (1 - 0.05 * np.asarray(d) ** 2),
        0.9,
        warp_prime=lambda d: 1 - 0.15 * np.asarray(d) ** 2,
    )


def random_family(nodes, N, rng):
    t = (nodes - nodes[0]) / (nodes[-1] - nodes[0])
    out = []
    for _ in range(N):
        u = sum(rng.normal() / j**2 * np.sin(j * math.pi * t + rng.uniform(0, 2 * math.pi))
                for j in range(1, 5))
        out.append(np.exp(0.5 * u + 0.3 * rng.normal() * t))
    return out


class TestWarpedSc:
    def test_constant_warps_reproduce_sigma(self):
        man = make_spherical_cap(2, math.pi / 2)
        grid = operator_grid(man, 128)
        fam = make_warping_family(man, [np.full(128, 2.5), np.full(128, 0.3)], 128)
        vals = warped_sc(fam)
        assert np.allclose(vals, grid.sigma[grid.eval_slice], atol=1e-12)

    @pytest.mark.parametrize("man,label", [
        (make_interval(0, 1), "interval"),
        (make_spherical_cap(2, math.pi / 2), "hemisphere"),
        (make_space_form_ball(3, 0, 1), "flat ball"),
    ])
    def test_eigenfunction_warp_is_constant_2lam(self, man, label):
        m = 1024
        # the hemisphere's samples from finite volumes: the n = 2 normal
        # form's put the warped quotient 9.5 % off at the first node
        operator = finite_volume_operator if label == "hemisphere" else discretize
        res = first_eigenpair(operator(man, 0.5, m))
        fam = make_warping_family(man, [res.eigenfunction], m)
        vals = warped_sc(fam)
        target = 2 * res.lambda1
        assert (vals.max() - vals.min()) / abs(target) < 0.01
        assert np.mean(vals) == pytest.approx(target, rel=0.01)

    def test_eigenfunction_warp_nonconstant_sigma(self):
        man = bumpy_ball()
        m = 1024
        res = first_eigenpair(discretize(man, 0.5, m))
        fam = make_warping_family(man, [res.eigenfunction], m)
        vals = warped_sc(fam)
        target = 2 * res.lambda1
        assert (vals.max() - vals.min()) / abs(target) < 0.01
        assert np.mean(vals) == pytest.approx(target, rel=0.01)

    def test_equal_pair_against_symbolic_expansion(self, rng):
        # phi = exp(0.3 sin 2x): sigma - 4 Lap(phi)/phi - 2 (log phi)'^2
        man = make_interval(0, 1)
        m = 2048
        grid = operator_grid(man, m)
        x = grid.nodes
        phi = np.exp(0.3 * np.sin(2 * x))
        fam = make_warping_family(man, [phi, phi], m)
        vals = warped_sc(fam)
        up = 0.6 * np.cos(2 * x)                   # (log phi)'
        upp = -1.2 * np.sin(2 * x)                 # (log phi)''
        expected = (-4 * (upp + up**2) - 2 * up**2)[grid.eval_slice]
        nodes = rng.choice(len(vals), size=5, replace=False)
        assert np.allclose(vals[nodes], expected[nodes], atol=1e-5)

    def test_rejects_nonpositive_warp(self):
        man = make_interval(0, 1)
        grid = operator_grid(man, 128)
        with pytest.raises(InvalidParameterError):
            make_warping_family(man, [np.sin(4 * math.pi * grid.nodes)], 128)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_warp(self, bad):
        phi = np.ones(128)
        phi[40] = bad
        with pytest.raises(InvalidParameterError, match="finite and strictly positive"):
            make_warping_family(make_interval(0, 1), [np.ones(128), phi], 128)

    def test_minimum_grid(self):
        with pytest.raises(InvalidParameterError):
            make_warping_family(make_interval(0, 1), [np.ones(32)], 32)

    def test_output_restricted_to_evaluation_nodes(self):
        man = make_interval(0, 1)
        fam = make_warping_family(man, [np.ones(128)], 128)
        assert warped_sc(fam).size == 126
        ball = make_space_form_ball(2, 0, 1)
        fam = make_warping_family(ball, [np.ones(128)], 128)
        assert warped_sc(fam).size == 126


class TestGeometricMean:
    def test_equal_functions_fixed_point(self):
        man = make_interval(0, 1)
        grid = operator_grid(man, 256)
        phi = np.exp(grid.nodes)
        fam = make_warping_family(man, [phi, phi], 256)
        red = geometric_mean_reduce(fam)
        assert np.allclose(red.phis[0], phi, rtol=1e-14)
        diff = warped_sc(red) - warped_sc(fam)
        assert np.max(np.abs(diff)) == 0.0

    def test_exponential_pair_reduces_to_one(self):
        man = make_interval(0, 1)
        grid = operator_grid(man, 256)
        x = grid.nodes
        fam = make_warping_family(man, [np.exp(x), np.exp(-x)], 256)
        red = geometric_mean_reduce(fam)
        assert np.allclose(red.phis[0], 1.0, atol=1e-14)
        diff = warped_sc(red) - warped_sc(fam)
        # gradients differ everywhere, so the gain is strictly positive
        assert np.all(diff > 0)

    def test_hundred_random_families_nodewise(self, rng):
        man = make_interval(0, 1)
        nodes = operator_grid(man, 512).nodes
        worst = math.inf
        strict = 0
        for _ in range(100):
            N = int(rng.integers(2, 6))
            fam = make_warping_family(man, random_family(nodes, N, rng), 512)
            diff = warped_sc(geometric_mean_reduce(fam)) - warped_sc(fam)
            worst = min(worst, float(diff.min()))
            strict += bool(diff.max() > 1e-6)
        assert worst >= -1e-9
        assert strict == 100  # generic families gain somewhere

    def test_needs_two_functions(self):
        man = make_interval(0, 1)
        fam = make_warping_family(man, [np.ones(128)], 128)
        with pytest.raises(InvalidParameterError):
            geometric_mean_reduce(fam)


class TestThetaForm:
    def test_constant_theta_gives_sigma(self):
        man = make_spherical_cap(3, math.pi / 2)
        grid = operator_grid(man, 256)
        vals = theta_form(man, np.ones(256), 256)
        assert np.allclose(vals, grid.sigma[grid.eval_slice], atol=1e-12)

    def test_eigenfunction_gives_constant_4lam(self):
        man = make_spherical_cap(2, math.pi / 2)
        m = 1024
        res = first_eigenpair(finite_volume_operator(man, 0.25, m))
        vals = theta_form(man, res.eigenfunction, m)
        assert np.allclose(vals, 4 * res.lambda1, rtol=1e-4)

    def test_rejects_nonpositive(self):
        man = make_interval(0, 1)
        with pytest.raises(InvalidParameterError):
            theta_form(man, np.zeros(128), 128)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # nan passes phi <= 0, and inf turns the quotient into inf - inf
        theta = np.ones(128)
        theta[[0, 70]] = 1.0, bad
        with pytest.raises(InvalidParameterError, match=r"value at node [^ ]+ is -?(nan|inf)$"):
            theta_form(make_space_form_ball(3, 0.0, 1.0), theta, 128)


class TestPsiForm:
    def test_zero_field_gives_sigma(self):
        man = make_spherical_cap(2, math.pi / 2)
        grid = operator_grid(man, 128)
        vals = psi_form(man, np.zeros(128), 3, 128)
        assert np.allclose(vals, grid.sigma[grid.eval_slice])

    def test_monotone_in_N(self):
        man = make_interval(0, 1)
        grid = operator_grid(man, 256)
        Psi = 0.4 * np.sin(3 * grid.nodes) + 0.1 * grid.nodes**2
        prev = None
        for N in (1, 2, 5, 50):
            vals = psi_form(man, Psi, N, 256)
            if prev is not None:
                assert np.all(vals >= prev - 1e-12)
            prev = vals

    def test_matches_theta_form_in_the_limit(self):
        man = make_interval(0, 1)
        grid = operator_grid(man, 512)
        Psi = 0.3 * np.sin(3 * grid.nodes) + 0.2 * grid.nodes**2
        lhs = theta_form(man, np.exp(Psi / 2), 512)
        rhs = psi_form(man, Psi, math.inf, 512)
        assert np.max(np.abs(lhs - rhs)) < 1e-3

    def test_matches_warped_sc_for_equal_family(self):
        man = make_interval(0, 1)
        m = 1024
        grid = operator_grid(man, m)
        phi = np.exp(0.25 * np.sin(2 * grid.nodes) + 0.1 * grid.nodes)
        N = 3
        fam = make_warping_family(man, [phi] * N, m)
        lhs = warped_sc(fam)
        rhs = psi_form(man, N * np.log(phi), N, m)
        assert np.max(np.abs(lhs - rhs)) < 1e-4

    def test_invalid_N(self):
        man = make_interval(0, 1)
        with pytest.raises(InvalidParameterError):
            psi_form(man, np.zeros(128), 0, 128)
