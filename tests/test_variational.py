import math

import numpy as np
import pytest

from scx.errors import InvalidParameterError
from scx.geometry import (
    make_hyperbolic_ball,
    make_interval,
    make_radial_custom,
    make_space_form_ball,
    make_spherical_cap,
)
from scx.spectral import (
    discretize,
    finite_volume_operator,
    first_eigenpair,
    lambda1_beta,
    operator_grid,
)
from scx.variational import inf_functional, maximize, trial_functions

CATALOG = [
    make_interval(0, 1),
    make_interval(0, 2),
    make_space_form_ball(2, 0, 1),
    make_space_form_ball(3, 0, 1),
    make_spherical_cap(2, math.pi / 2),
    make_spherical_cap(3, math.pi / 2),
    make_hyperbolic_ball(3, 1.0),
]


def bumpy_ball():
    return make_radial_custom(
        3,
        lambda d: np.asarray(d) * (1 - 0.05 * np.asarray(d) ** 2),
        0.9,
        warp_prime=lambda d: 1 - 0.15 * np.asarray(d) ** 2,
    )


class TestInfFunctional:
    def test_constant_theta_on_interval_gives_zero(self):
        assert inf_functional(make_interval(0, 1), np.ones(256), 256) == 0.0

    def test_eigenfunction_attains_four_lambda(self):
        man = make_space_form_ball(2, 0, 1)
        m = 1024
        res = first_eigenpair(discretize(man, 0.25, m))
        val = inf_functional(man, res.eigenfunction, m)
        assert val == pytest.approx(4 * res.lambda1, rel=0.01)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_theta_refused(self, bad):
        theta = np.ones(256)
        theta[100] = bad
        with pytest.raises(InvalidParameterError, match="finite and strictly positive"):
            inf_functional(make_interval(0, 1), theta, 256)

    def test_perturbed_eigenfunction_majorized(self, rng):
        man = make_interval(0, 1)
        m = 1024
        res = first_eigenpair(discretize(man, 0.25, m))
        grid = operator_grid(man, m)
        for _ in range(10):
            eta = rng.normal() * np.sin(math.pi * grid.nodes) \
                + rng.normal() * np.sin(2 * math.pi * grid.nodes)
            theta = res.eigenfunction * np.exp(0.08 * eta)
            val = inf_functional(man, theta, m)
            assert val <= 4 * res.lambda1 * (1 + 0.01)


class TestMaximize:
    def test_interval_reaches_four_pi_squared(self):
        rep = maximize(make_interval(0, 1), trials=40, seed=3, m=1024)
        assert rep.best_value == pytest.approx(4 * math.pi**2, rel=0.01)

    def test_hemisphere_reaches_ten(self):
        rep = maximize(make_spherical_cap(2, math.pi / 2), trials=40, seed=3, m=1024)
        assert rep.best_value == pytest.approx(10.0, rel=0.01)

    def test_single_trial_is_constant_function(self):
        # theta == 1 gives inf sigma
        rep = maximize(make_spherical_cap(2, math.pi / 2), trials=1, seed=0, m=256)
        assert rep.best_value == pytest.approx(2.0, abs=1e-9)
        assert rep.trials == 1

    def test_gap_and_report_fields(self):
        rep = maximize(make_interval(0, 1), trials=25, seed=5, m=512)
        assert rep.gap == rep.eigen_value - rep.best_value
        assert rep.gap >= -0.01 * abs(rep.eigen_value)
        assert rep.trials == 25

    def test_trials_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            maximize(make_interval(0, 1), trials=0)

    def test_seed_must_not_be_negative(self):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
            maximize(make_interval(0, 1), trials=5, seed=-1, m=256)

    @pytest.mark.parametrize("what,kwargs", [
        ("trials", {"trials": 2.5}), ("seed", {"seed": 1.5}),
        ("seed", {"seed": float("nan")}), ("trials", {"trials": float("inf")}),
    ])
    def test_non_integer_counts_refused(self, what, kwargs):
        with pytest.raises(InvalidParameterError, match=f"{what} must be an integer"):
            maximize(make_interval(0, 1), m=256, **kwargs)

    def test_integer_valued_floats_are_ints(self):
        man = make_interval(0, 1)
        got = maximize(man, trials=5.0, seed=3.0, m=256)
        assert got == maximize(man, trials=5, seed=3, m=256)
        assert type(got.trials) is int and got.trials == 5


class TestMajorization:
    @pytest.mark.parametrize("man", CATALOG, ids=lambda m: m.describe())
    def test_two_hundred_seeded_trials(self, man):
        rep = maximize(man, trials=200, seed=11, m=1024)
        bound = 0.01 * abs(rep.eigen_value)
        assert rep.best_value <= rep.eigen_value + bound
        assert abs(rep.best_value - rep.eigen_value) <= bound  # attainment

    def test_strictness_on_nonconstant_curvature(self):
        man = bumpy_ball()
        grid = operator_grid(man, 512)
        sigma = grid.sigma
        assert sigma.max() - sigma.min() > 1e-3  # genuinely non-constant
        rep = maximize(man, trials=50, seed=2, m=1024)
        assert rep.best_value > sigma.min() + 1.0

    def test_beta_shift_consistency(self):
        # the eigen_value reported equals 4 lambda_1 at beta = 1/4
        man = make_spherical_cap(2, math.pi / 2)
        rep = maximize(man, trials=5, seed=0, m=512)
        lam = lambda1_beta(man, 0.25, 1024).lambda1
        assert rep.eigen_value == pytest.approx(4 * lam, rel=1e-6)


class TestOneTrialGrid:
    """maximize evaluates every trial on one grid; its values are bitwise
    those of inf_functional called trial by trial."""

    @pytest.mark.parametrize("man", CATALOG + [bumpy_ball()])
    def test_bitwise_the_per_trial_path(self, man):
        m, trials, seed = 256, 40, 3
        # the trial family's eigenfunction comes from finite volumes
        op = finite_volume_operator(man, 0.25, m)
        eig = np.clip(first_eigenpair(op).eigenfunction, 1e-12, None)
        best, best_label = -np.inf, ""
        for label, cand in trial_functions(man, eig, op.grid, trials, seed):
            val = inf_functional(man, cand, m)
            if val > best:
                best, best_label = val, label
        rep = maximize(man, trials=trials, seed=seed, m=m)
        assert rep.best_value.hex() == best.hex()
        assert rep.best_label == best_label

    def test_warp_grid_floor_still_applies(self):
        with pytest.raises(InvalidParameterError, match="warped-metric grid"):
            maximize(make_interval(0, 1), trials=3, m=32)
