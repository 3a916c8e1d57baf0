"""The inverse-iteration tridiagonal eigensolve and the solve cache."""

import importlib.machinery
import importlib.util
import math
import subprocess
import sys
from collections import OrderedDict

import numpy as np
import pytest

from scipy.linalg import eigvalsh_tridiagonal

from scx import _tridiag, spectral
from scx._tridiag import _below_spectrum, _count, collatz_wielandt, smallest_eigenpair
from scx.errors import NumericalFailureError
from scx.geometry import (
    Kind,
    make_hyperbolic_ball,
    make_interval,
    make_radial_custom,
    make_space_form_ball,
    make_spherical_cap,
    product,
)


def _interval_matrix(m):
    h = 1.0 / (m + 1)
    return np.full(m, 2.0 / h**2), np.full(m - 1, -1.0 / h**2), h


def _stieltjes(rng, m):
    """Random diagonally dominant tridiagonal with negative off-diagonal."""
    off = -rng.uniform(0.1, 2.0, m - 1) * 10.0 ** rng.uniform(-2, 2)
    pad = np.concatenate(([0.0], -off, [0.0]))
    diag = pad[:-1] + pad[1:] + rng.uniform(0.0, 3.0, m) * 10.0 ** rng.uniform(-2, 2)
    return diag, off


def _weighted(rng, m, decades=300.0):
    """A symmetrized Stieltjes operator whose node weights w span ``decades``
    decades below 1, with its log weights.

    As in spectral's operators: fluxes k_i = c_i sqrt(w_i w_(i+1)) between
    nodes, Dirichlet fluxes at both ends and a potential q >= 0, so that
    (T' sqrt(w))_i / sqrt(w_i) is q_i away from the ends.
    """
    steps = np.cumsum(rng.uniform(0.0, 1.0, m))
    log_w = -decades * math.log(10) * (steps - steps[0]) / (steps[-1] - steps[0])
    if rng.integers(2):
        log_w = log_w[::-1].copy()
    c = rng.uniform(0.5, 2.0, m + 1)
    ratio = np.exp(0.5 * np.diff(log_w))  # sqrt(w_(i+1) / w_i)
    diag = rng.uniform(0.0, 3.0, m) + c[:-1] + c[1:]
    diag[1:] += c[1:-1] * (1.0 / ratio - 1.0)
    diag[:-1] += c[1:-1] * (ratio - 1.0)
    return diag, -c[1:-1], log_w


def _mixed(rng, m):
    """Random tridiagonal with off-diagonal entries of both signs."""
    off = rng.uniform(0.1, 2.0, m - 1) * rng.choice([-1.0, 1.0], m - 1)
    return rng.uniform(-3.0, 3.0, m), off


def _radial_operator(diag, off, log_mass):
    """A DiscreteOperator with the given matrix and log masses on the grid of
    a flat disk of radius 1, which finite volumes discretize."""
    grid = spectral.operator_grid(make_space_form_ball(2, 0.0, 1.0), diag.size)
    return spectral.DiscreteOperator(grid, diag, off, 0.25, log_mass)


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _bumpy_warp(d):
    return np.sin(d) * (1.0 + 0.1 * np.sin(d) ** 2)


def _scale(diag, off):
    return float(np.max(np.abs(diag)) + 2 * np.max(np.abs(off)))


def _warm_fine_call(monkeypatch, man, m, beta=0.25):
    """(diag, off, hints) of the warm solve in a cold lambda1_beta(man, beta, m)
    on a normal form, the only pair that solves its fine grid warm: the fine
    operator, from the prolonged coarse eigenvector."""
    fine = spectral.discretize(man, beta, 2 * m)
    assert fine.normal_form
    calls = []

    def recording(diag, off, **hints):
        calls.append((diag, off, hints))
        return smallest_eigenpair(diag, off, **hints)

    with monkeypatch.context() as mp:
        mp.setattr(spectral, "smallest_eigenpair", recording)
        mp.setattr(spectral, "_cache", OrderedDict())
        spectral.lambda1_beta(man, beta, m)
    assert [c[0].size for c in calls] == [m, 2 * m]  # the coarse grid first
    coarse = spectral.discretize(man, beta, m)
    assert [sorted(c[2]) for c in calls] == [sorted(spectral._cold_hints(coarse)),
                                             ["below", "start"]]
    return calls[1]


def _lapack_calls(monkeypatch, *args, **hints):
    """smallest_eigenpair(*args, **hints) and the (dptsv, dpttrf) calls it made."""
    counts = [0, 0]
    inner_sv, inner_trf = _tridiag.dptsv, _tridiag.dpttrf

    def sv(*a, **kw):
        counts[0] += 1
        return inner_sv(*a, **kw)

    def trf(*a, **kw):
        counts[1] += 1
        return inner_trf(*a, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(_tridiag, "dptsv", sv)
        mp.setattr(_tridiag, "dpttrf", trf)
        out = smallest_eigenpair(*args, **hints)
    return out, tuple(counts)


def _dptsv_calls(monkeypatch, *args, **hints):
    """smallest_eigenpair(*args, **hints) and the info of each dptsv call it made."""
    infos = []
    inner = _tridiag.dptsv

    def recording(*a, **kw):
        out = inner(*a, **kw)
        infos.append(out[-1])
        return out

    with monkeypatch.context() as mp:
        mp.setattr(_tridiag, "dptsv", recording)
        out = smallest_eigenpair(*args, **hints)
    return out, infos


def _slack(lam, diag, off):
    """The certificate's first slack: each certified value lies this close to lambda_1."""
    return max(32 * np.finfo(float).eps * _scale(diag, off), 1e-12 * max(abs(lam), 1.0))


class TestSmallestEigenpair:
    @pytest.mark.parametrize("m", [1000, 4000, 8000, 32000])
    def test_exact_discrete_interval_eigenvalue(self, m):
        diag, off, h = _interval_matrix(m)
        exact = 4.0 / h**2 * math.sin(math.pi / (2 * (m + 1))) ** 2
        lam, v = smallest_eigenpair(diag, off)
        assert abs(lam - exact) <= 1e-12 * exact
        assert np.all(v > 0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_stieltjes_against_dense(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 301))
        diag, off = _stieltjes(rng, m)
        w, vecs = np.linalg.eigh(_dense(diag, off))
        scale = float(np.max(np.abs(diag)) + 2 * np.max(np.abs(off)))
        lam, v = smallest_eigenpair(diag, off)
        assert abs(lam - w[0]) <= 1e-12 * scale
        ref = vecs[:, 0] * np.sign(vecs[:, 0] @ v)
        assert np.max(np.abs(v - ref)) <= 1e-8
        assert v[np.argmax(np.abs(v))] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_certificate_counts_match_dense(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(3, 301))
        diag, off = _stieltjes(rng, m)
        w = np.linalg.eigvalsh(_dense(diag, off))
        mids = 0.5 * (w[:-1] + w[1:])  # shifts well away from every eigenvalue
        for lo, hi in [(-np.inf, mids[0]), (-np.inf, w[0] - 1.0),
                       (mids[0], mids[min(4, m - 2)]), (mids[1], w[-1] + 1.0)]:
            assert _count(diag, off, lo, hi) == np.count_nonzero((w > lo) & (w <= hi))

    def test_one_by_one(self):
        lam, v = smallest_eigenpair(np.array([3.5]), np.array([]))
        assert lam == 3.5
        assert v.tolist() == [1.0]

    def test_two_by_two(self):
        a, b, c = 2.0, -0.75, 5.0
        lam, v = smallest_eigenpair(np.array([a, c]), np.array([b]))
        exact = 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)
        assert lam == pytest.approx(exact, rel=1e-15)
        assert np.all(v > 0)
        assert (a - exact) * v[0] + b * v[1] == pytest.approx(0.0, abs=1e-14)

    def test_repeat_calls_bitwise_equal(self, rng):
        diag, off = _stieltjes(rng, 257)
        lam1, v1 = smallest_eigenpair(diag, off)
        lam2, v2 = smallest_eigenpair(diag.copy(), off.copy())
        assert lam1 == lam2
        assert v1.tobytes() == v2.tobytes()

    @pytest.mark.parametrize("where", ["diag", "off"])
    def test_non_finite_entries_rejected(self, where):
        for bad in (np.nan, np.inf, -np.inf):
            diag, off, _ = _interval_matrix(50)
            (diag if where == "diag" else off)[7] = bad
            with pytest.raises(NumericalFailureError, match=f"non-finite {where}") as exc:
                smallest_eigenpair(diag, off)
            assert exc.value.details["m"] == 50
            assert exc.value.details["index"] == 7

    def test_lapack_failure_becomes_numerical_failure(self, monkeypatch):
        def refusing(d, e, b, *args, **kwargs):
            return d, e, b, 1  # a non-positive pivot at every shift

        monkeypatch.setattr(_tridiag, "dptsv", refusing)
        diag, off, _ = _interval_matrix(50)
        with pytest.raises(NumericalFailureError, match="inverse iteration") as exc:
            smallest_eigenpair(diag, off)
        assert exc.value.details["m"] == 50

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_sign_off_diagonal_against_dense(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = int(rng.integers(2, 121))
        diag, off = _mixed(rng, m)
        w, vecs = np.linalg.eigh(_dense(diag, off))
        lam, v = smallest_eigenpair(diag, off)
        assert abs(lam - w[0]) <= 1e-12 * _scale(diag, off)
        ref = vecs[:, 0] * np.sign(vecs[:, 0] @ v)
        assert np.max(np.abs(v - ref)) <= 1e-8
        assert v[np.argmax(np.abs(v))] > 0

    def test_zero_matrix(self):
        lam, v = smallest_eigenpair(np.zeros(2), np.zeros(1))
        assert lam == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        assert v[np.argmax(np.abs(v))] > 0

    def test_diagonal_matrix(self):
        lam, v = smallest_eigenpair(np.array([3.0, 1.0, 2.0, 5.0]), np.zeros(3))
        assert lam == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(v - [0.0, 1.0, 0.0, 0.0])) <= 1e-12

    @pytest.mark.parametrize("b", [0.0, -0.5, 0.5])
    def test_equal_diagonal_entries(self, b):
        m, a = 7, 2.0
        lam, v = smallest_eigenpair(np.full(m, a), np.full(m - 1, b))
        exact = a - 2 * abs(b) * math.cos(math.pi / (m + 1))
        assert lam == pytest.approx(exact, abs=1e-14)
        resid = _dense(np.full(m, a), np.full(m - 1, b)) @ v - lam * v
        assert np.linalg.norm(resid) <= 1e-12

    @pytest.mark.parametrize("n", [2, 5])
    def test_tiny_gap_against_bisection(self, n):
        op = spectral.discretize(make_hyperbolic_ball(n, 700.0), 0.25, 4000)
        w = eigvalsh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 1))
        assert w[1] - w[0] < 1e-4  # gap far below the spread of the spectrum
        lam, v = smallest_eigenpair(op.diag, op.offdiag)
        scale = _scale(op.diag, op.offdiag)
        slack = max(32 * np.finfo(float).eps * scale, 1e-12 * max(abs(w[0]), 1.0))
        assert abs(lam - w[0]) <= slack
        assert np.all(v > 0)

    def test_rayleigh_quotient_wobble_stops(self):
        # Large row sums make the converged Rayleigh quotient alternate between
        # two values 1.4e-14 apart, above 4 eps |mu|; the iteration must stop.
        man = make_space_form_ball(2, 1.0, 0.7248483029482324)
        op = spectral.discretize(man, 0.0, 1200)
        ref = eigvalsh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 0))
        lam, v = smallest_eigenpair(op.diag, op.offdiag)
        assert abs(lam - ref[0]) <= 1e-12 * _scale(op.diag, op.offdiag)
        assert np.all(v > 0)

    @pytest.mark.parametrize("case", ["interval", "stieltjes", "mixed", "warm"])
    def test_accepted_shifts_below_lambda1(self, case, monkeypatch):
        rng = np.random.default_rng(7)
        hints = {}
        if case == "interval":
            diag, off, _ = _interval_matrix(300)
        elif case == "warm":
            diag, off, hints = _warm_fine_call(monkeypatch, make_hyperbolic_ball(4, 3.0), 125)
        else:
            diag, off = (_stieltjes if case == "stieltjes" else _mixed)(rng, 250)
        lam1 = np.linalg.eigvalsh(_dense(diag, off))[0]
        accepted, calls = [], []
        inner = _tridiag.dptsv

        def spy(d, e, b, *args, **kwargs):
            shift = float(np.max(diag - d))  # before dptsv factors d in place
            out = inner(d, e, b, *args, **kwargs)
            calls.append(out[-1])
            if out[-1] == 0:
                accepted.append(shift)
            return out

        monkeypatch.setattr(_tridiag, "dptsv", spy)
        lam, _ = smallest_eigenpair(diag, off, **hints)
        blur = 8 * np.finfo(float).eps * _scale(diag, off)
        assert accepted and max(accepted) <= lam1 + blur
        assert len(accepted) <= _tridiag.MAX_STEPS
        assert len(calls) <= 2 * _tridiag.MAX_STEPS
        assert abs(lam - lam1) <= 1e-12 * _scale(diag, off)

    def test_step_limit_raises(self, monkeypatch):
        monkeypatch.setattr(_tridiag, "MAX_STEPS", 1)
        diag, off, _ = _interval_matrix(40)
        with pytest.raises(NumericalFailureError, match="inverse iteration") as exc:
            smallest_eigenpair(diag, off)
        assert exc.value.details["m"] == 40
        assert exc.value.details["steps"] == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_inertia_agrees_with_sturm_count(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(2, 201))
        diag, off = (_stieltjes if seed % 2 else _mixed)(rng, m)
        w = np.linalg.eigvalsh(_dense(diag, off))
        lo, hi = w[0] - 1.0, w[-1] + 1.0
        xs = rng.uniform(lo, hi, 40)
        near = np.min(np.abs(xs[:, None] - w[None, :]), axis=1)
        xs = xs[near > 1e-6 * _scale(diag, off)]  # away from every eigenvalue
        for x in np.concatenate((xs, [lo, w[0] - 1e-3, w[0] + 1e-3, hi])):
            assert _below_spectrum(diag, off, x) == (_count(diag, off, -np.inf, x) == 0)


class TestColdStart:
    @pytest.mark.parametrize("seed", range(8))
    def test_first_shift_below_lambda1(self, monkeypatch, seed):
        # the Collatz-Wielandt value of sqrt(w / max w), spanning 1e-150..1,
        # as the first shift of the iteration from ones
        rng = np.random.default_rng(400 + seed)
        diag, off, log_mass = _weighted(rng, int(rng.integers(50, 401)))
        assert np.exp(log_mass.min()) == pytest.approx(1e-300, rel=1e-9)
        below = collatz_wielandt(diag, off, np.exp(0.5 * (log_mass - log_mass.max())))
        lam1 = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
        shifts, infos = [], []
        inner = _tridiag.dptsv

        def spy(d, e, b, *args, **kwargs):
            shifts.append(float(np.max(diag - d)))  # before dptsv factors d in place
            out = inner(d, e, b, *args, **kwargs)
            infos.append(out[-1])
            return out

        monkeypatch.setattr(_tridiag, "dptsv", spy)
        lam, v = smallest_eigenpair(diag, off, below=below)
        rowsum = diag + np.concatenate(([0.0], off)) + np.concatenate((off, [0.0]))
        assert infos[0] == 0 and shifts[0] <= lam1
        assert shifts[0] > rowsum.min()  # above the Gershgorin start
        assert abs(lam - lam1) <= 1e-12 * _scale(diag, off)
        assert np.all(v > 0)

    @pytest.mark.parametrize("decades", [630.0, 870.0, "nan"])
    def test_unusable_weights_give_the_gershgorin_iteration(self, decades):
        rng = np.random.default_rng(13)
        if decades == "nan":
            diag, off, log_mass = _weighted(rng, 200)
            log_mass[5] = np.nan
        else:
            # sqrt(w) is subnormal at 630 decades below 1 and zero at 870
            diag, off, log_mass = _weighted(rng, 200, decades)
        op = _radial_operator(diag, off, log_mass)
        hints = spectral._cold_hints(op)
        assert hints == {}
        lam, v = smallest_eigenpair(diag, off)
        lam_w, v_w = smallest_eigenpair(diag, off, **hints)
        assert lam_w == lam
        assert v_w.tobytes() == v.tobytes()

    def test_equal_weights_give_the_polynomial_start(self):
        # x = 1: the start is 1 - t^2 at the nodes, t = d / r
        diag, off, _ = _weighted(np.random.default_rng(13), 200)
        op = _radial_operator(diag, off, np.full(200, -3.0))
        t = op.grid.nodes / op.grid.profile.r_max
        hints = spectral._cold_hints(op)
        assert list(hints) == ["start"]
        assert np.allclose(hints["start"], 1.0 - t * t, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("man", [
        make_spherical_cap(2, 1.5),
        make_hyperbolic_ball(3, 2.0),
        make_hyperbolic_ball(2, 2.0),
        make_radial_custom(3, _bumpy_warp, 1.0),
    ], ids=["cap-n2", "hypball-n3", "hypball-n2", "custom-n3"])
    def test_cold_solve_takes_few_solves(self, monkeypatch, man):
        op = spectral.discretize(man, 0.25, 2000)
        _, infos = _dptsv_calls(monkeypatch, op.diag, op.offdiag, **spectral._cold_hints(op))
        assert len(infos) <= 4  # from the Gershgorin start: 8

    @pytest.mark.parametrize("m", [16, 17, 500, 2001])
    def test_interval_start_is_the_eigenvector(self, monkeypatch, m):
        # one solve at the Collatz-Wielandt shift, which proves the lower
        # side; from ones and Gershgorin's shift it takes four and a dpttrf
        op = spectral.discretize(make_interval(-1.0, 2.0), 0.25, m)
        hints = spectral._cold_hints(op)
        assert np.allclose(hints["start"], np.sin(math.pi / (m + 1) * np.arange(1, m + 1)),
                           rtol=0, atol=1e-15)
        (lam, _), calls = _lapack_calls(monkeypatch, op.diag, op.offdiag, **hints)
        assert calls == (1, 0)
        h = op.grid.h
        assert abs(lam - 4.0 / h**2 * math.sin(math.pi / (2 * (m + 1))) ** 2) \
            <= _slack(lam, op.diag, op.offdiag)

    @pytest.mark.parametrize("man, beta, m", [
        (make_space_form_ball(3, 0.0, 1.0), 0.25, 500),
        (make_hyperbolic_ball(3, 300.0), 0.25, 2000),
        (make_spherical_cap(3, 2.5), 0.0, 37),
        (make_space_form_ball(3, -2.0, 7.0), 1.0, 1000),
    ], ids=["flat", "hypball-300", "cap-odd", "curved"])
    def test_three_dimensional_normal_form_start_is_the_eigenvector(
            self, monkeypatch, man, beta, m):
        # Q = beta sigma - kappa is constant and sin(pi (i - 1/2)/m) is the
        # exact discrete eigenvector, the cold start
        op = spectral.discretize(man, beta, m)
        kappa = man.profile.kappa
        exact = 4.0 / op.grid.h**2 * math.sin(math.pi / (2 * m)) ** 2 + 6 * beta * kappa - kappa
        (lam, _), calls = _lapack_calls(monkeypatch, op.diag, op.offdiag,
                                        **spectral._cold_hints(op))
        assert calls == (1, 0)
        assert abs(lam - exact) <= _slack(exact, op.diag, op.offdiag)

    @pytest.mark.parametrize("man", [
        make_space_form_ball(2, 0.0, 1.0), make_spherical_cap(2, 3.0),
        make_hyperbolic_ball(2, 60.0), make_hyperbolic_ball(2, 200.0),
    ], ids=["flat", "cap-3", "hypball-60", "hypball-200"])
    def test_two_dimensional_normal_form_start_has_the_square_root(self, monkeypatch, man):
        # sqrt(t) sin(pi (1 - t)/2), t = (i - 1/2)/m: shaped like d^(1/2) at
        # the centre, as the fitted rows' eigenvector; from the staggered
        # sine a cold solve takes 5 to 6 dptsv here
        m = 1000
        op = spectral.discretize(man, 0.25, m)
        t = (np.arange(m) + 0.5) / m
        hints = spectral._cold_hints(op)
        assert list(hints) == ["start"]
        assert np.allclose(hints["start"], np.sqrt(t) * np.cos(0.5 * math.pi * t),
                           rtol=1e-12, atol=0)
        lam1 = eigvalsh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 0))[0]
        (lam, _), infos = _dptsv_calls(monkeypatch, op.diag, op.offdiag, **hints)
        assert abs(lam - lam1) <= _slack(lam1, op.diag, op.offdiag)
        assert len(infos) <= 4

    def test_pair_is_the_reference_pair_on_catalog(self, fresh_cache, reference_pair):
        rng = np.random.default_rng(19)
        for n in range(2, 9):
            k = float(rng.uniform(0.2, 3.0))
            catalog = [
                make_space_form_ball(n, 0.0, rng.uniform(0.1, 5.0)),
                make_space_form_ball(n, k, rng.uniform(0.1, 0.95) * math.pi / math.sqrt(k)),
                make_space_form_ball(n, -k, rng.uniform(0.1, 5.0)),
                make_spherical_cap(n, rng.uniform(0.1, 3.0)),
                make_hyperbolic_ball(n, 10.0 ** rng.uniform(-1.0, 1.2)),
                make_radial_custom(n, _bumpy_warp, rng.uniform(0.5, 1.5)),
            ]
            for man in catalog:
                m, beta = int(rng.integers(64, 257)), float(rng.choice([0.0, 0.25]))
                # tol=1: this test reads the values, not the certificate
                got = spectral.lambda1_beta(man, beta, m, tol=1.0)
                lam_c, lam_f = reference_pair(man, beta, m)
                assert got.lambda1 == lam_f, (man, m, beta)
                assert got.richardson_estimate == (4.0 * lam_f - lam_c) / 3.0, (man, m, beta)
                # first_eigenpair solves the fine operator once, cold
                op = spectral.discretize(man, beta, 2 * m)
                lam = spectral.first_eigenpair(op).lambda1
                assert abs(lam - lam_f) <= 2 * _slack(lam_f, op.diag, op.offdiag), (man, m, beta)


class TestResidualCertificate:
    """The certificate's upper side, proven from the final residual."""

    @staticmethod
    def _solve(monkeypatch, diag, off, **hints):
        """(lambda, accepted): accepted when no inertia test above lambda ran,
        so the residual proved that an eigenvalue lies at or below it + slack."""
        tested = []
        inner = _tridiag._below_spectrum

        def spy(d, o, x, *args):
            tested.append(x)
            return inner(d, o, x, *args)

        with monkeypatch.context() as mp:
            mp.setattr(_tridiag, "_below_spectrum", spy)
            lam, _ = smallest_eigenpair(diag, off, **hints)
        return lam, not any(x > lam for x in tested)

    @staticmethod
    def _factors_above(lam, diag, off):
        """True when dpttrf factors T' - (lambda + slack): no eigenvalue below."""
        return _below_spectrum(diag, -np.abs(off), lam + _slack(lam, diag, off))

    def test_never_accepts_where_dpttrf_factors_stieltjes(self, monkeypatch):
        accepted = 0
        for seed in range(60):
            rng = np.random.default_rng(900 + seed)
            m = int(rng.integers(2, 2001))
            diag, off = _weighted(rng, m, 30.0)[:2] if seed % 2 else _stieltjes(rng, m)
            lam, ok = self._solve(monkeypatch, diag, off)
            if ok:
                assert not self._factors_above(lam, diag, off), seed
                accepted += 1
        assert accepted >= 50

    def test_never_accepts_where_dpttrf_factors_radial(self, monkeypatch):
        rng = np.random.default_rng(23)
        accepted = total = 0
        for n in range(2, 9):
            k = float(rng.uniform(0.2, 3.0))
            for man in (make_space_form_ball(n, 0.0, rng.uniform(0.1, 5.0)),
                        make_space_form_ball(n, k, rng.uniform(0.1, 0.95) * math.pi / math.sqrt(k)),
                        make_spherical_cap(n, rng.uniform(0.1, 3.0)),
                        make_hyperbolic_ball(n, 10.0 ** rng.uniform(-1.0, 2.0)),
                        make_radial_custom(n, _bumpy_warp, rng.uniform(0.5, 1.5))):
                for m in (16, int(rng.integers(64, 4001))):
                    op = spectral.discretize(man, float(rng.choice([0.0, 0.25])), m)
                    lam, ok = self._solve(monkeypatch, op.diag, op.offdiag,
                                          **spectral._cold_hints(op))
                    total += 1
                    if ok:
                        assert not self._factors_above(lam, op.diag, op.offdiag), (man, m)
                        accepted += 1
        assert accepted >= 0.8 * total

    @pytest.mark.parametrize("blurs,accepted", [(2.0, True), (0.5, False)])
    def test_inertia_test_where_residual_exceeds_slack_less_blur(
            self, monkeypatch, blurs, accepted):
        # the final residual, raised to (slack - blurs * blur) by one entry of
        # T'v: the residual proves the upper side only while res + blur <= slack
        diag, off, _ = _interval_matrix(500)
        lam0, v0 = smallest_eigenpair(diag, off)
        blur = 8 * np.finfo(float).eps * _scale(diag, off)
        raise_by = _slack(lam0, diag, off) - blurs * blur
        inner = _tridiag.tridiag_apply

        def raised(*args, **kwargs):  # no start: only the residual calls it
            out = inner(*args, **kwargs)
            out[0] += raise_by
            return out

        monkeypatch.setattr(_tridiag, "tridiag_apply", raised)
        lam, ok = self._solve(monkeypatch, diag, off)
        assert ok is accepted
        assert lam == lam0  # the value never depends on which proof ran

    def test_cold_radial_solve_takes_at_most_one_dpttrf(self, monkeypatch):
        calls = []
        inner = _tridiag.dpttrf

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(_tridiag, "dpttrf", counting)
        # finite volumes (n = 2) and normal form (n = 3)
        for n in (2, 3):
            calls.clear()
            op = spectral.discretize(make_hyperbolic_ball(n, 2.0), 0.25, 2000)
            _, accepted = self._solve(monkeypatch, op.diag, op.offdiag,
                                      **spectral._cold_hints(op))
            # the residual proves the upper side, where an inertia test at
            # lambda + slack did before; the last shift usually proves the
            # lower one
            assert accepted, n
            assert len(calls) <= 1, n


class TestWarmStart:
    # dptsv calls of the warm fine solve at 2m = 500, as measured; a solve of
    # the same operator from ones and Gershgorin's shift takes 8 on the disk
    # and the hyperbolic 2-ball, 4 and 5 at n = 3 and 4 (all in normal form)
    @pytest.mark.parametrize("man, warm", [
        (make_space_form_ball(2, 0.0, 1.0), 2),
        (make_hyperbolic_ball(2, 3.0), 2),
        (make_space_form_ball(3, 0.0, 1.0), 1),
        (make_hyperbolic_ball(4, 3.0), 1),
    ], ids=["flat-ball", "hypball", "normal-form-flat-ball", "normal-form-hypball"])
    def test_warm_fine_solve_takes_fewer_solves(self, monkeypatch, man, warm):
        diag, off, hints = _warm_fine_call(monkeypatch, man, 250)
        (lam_w, _), infos_w = _dptsv_calls(monkeypatch, diag, off, **hints)
        (lam_c, _), infos_c = _dptsv_calls(monkeypatch, diag, off)
        assert len(infos_w) <= warm < len(infos_c)
        assert abs(lam_w - lam_c) <= 2 * _slack(lam_c, diag, off)

    @pytest.mark.parametrize("case", ["interval", "stieltjes", "hypball"])
    @pytest.mark.parametrize("above", [1e-3, 1.0])
    def test_below_hint_above_lambda1_falls_back(self, monkeypatch, case, above):
        if case == "interval":
            diag, off, _ = _interval_matrix(300)
        elif case == "stieltjes":
            diag, off = _stieltjes(np.random.default_rng(11), 250)
        else:
            diag, off, _ = _warm_fine_call(monkeypatch, make_hyperbolic_ball(4, 3.0), 125)
        lam1 = np.linalg.eigvalsh(_dense(diag, off))[0]
        below = lam1 + above * abs(lam1)
        assert not _below_spectrum(diag, -np.abs(off), below)  # dptsv must refuse it
        (lam_h, v_h), infos = _dptsv_calls(monkeypatch, diag, off, below=below)
        assert infos[0] > 0 and infos[1] == 0  # refused, then the Gershgorin shift
        lam, v = smallest_eigenpair(diag, off)
        assert abs(lam_h - lam) <= 2 * _slack(lam, diag, off)
        assert np.all(v_h > 0)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
    def test_start_not_strictly_positive_falls_back_to_ones(self, bad):
        diag, off = _stieltjes(np.random.default_rng(12), 200)
        lam, v = smallest_eigenpair(diag, off)
        start = v.copy()
        start[17] = bad
        lam_s, v_s = smallest_eigenpair(diag, off, start=start)
        assert lam_s == lam  # the cold iteration, bit for bit
        assert v_s.tobytes() == v.tobytes()

    @pytest.mark.parametrize("man", [
        make_interval(0.0, 1.5),
        make_space_form_ball(4, 0.0, 1.3),
        make_hyperbolic_ball(3, 40.0),
        make_spherical_cap(5, 2.0),
        make_radial_custom(3, _bumpy_warp, 1.0),
    ], ids=["interval", "flat-ball", "hypball", "cap", "custom"])
    def test_richardson_is_the_reference_pair(self, fresh_cache, reference_pair, man):
        m = 300
        res = spectral.lambda1_beta(man, 0.25, m)
        lam_c, lam_f = reference_pair(man, 0.25, m)
        assert res.lambda1 == lam_f
        assert res.richardson_estimate == (4.0 * lam_f - lam_c) / 3.0
        # the cold single solve of the fine operator lies within the slack
        fine = spectral.discretize(man, 0.25, 2 * m)
        cold = spectral.first_eigenpair(fine).lambda1
        assert abs(cold - lam_f) <= 2 * _slack(lam_f, fine.diag, fine.offdiag)


def _radial_catalog(rng, n):
    """Six seeded radial manifolds of dimension n, one of each shape."""
    k = float(rng.uniform(0.2, 3.0))
    return [
        make_space_form_ball(n, 0.0, rng.uniform(0.1, 5.0)),
        make_space_form_ball(n, k, rng.uniform(0.1, 0.95) * math.pi / math.sqrt(k)),
        make_space_form_ball(n, -k, rng.uniform(0.1, 5.0)),
        make_spherical_cap(n, rng.uniform(0.1, 3.0)),
        make_hyperbolic_ball(n, 10.0 ** rng.uniform(-1.0, 1.2)),
        make_radial_custom(n, _bumpy_warp, rng.uniform(0.5, 1.5)),
    ]


class TestTwoLevelSolve:
    """A radial pair: the merged operator cold, then the fine one from the
    prolonged coarse eigenvector."""

    def test_warm_fine_solve_takes_at_most_two_dptsv_one_dpttrf(self, monkeypatch):
        # coarse grids over the benchmark sweep's range; on coarse grids
        # below about 200 a third dptsv occurs (2 of 840 seeded cases)
        rng = np.random.default_rng(31)
        for n in range(2, 9):
            for man in _radial_catalog(rng, n):
                m, beta = int(rng.integers(250, 2001)), float(rng.choice([0.0, 0.25]))
                if man.kind == Kind.RADIAL_CUSTOM:  # finite volumes: no warm solve
                    continue
                diag, off, hints = _warm_fine_call(monkeypatch, man, m, beta)
                (lam, _), (sv, trf) = _lapack_calls(monkeypatch, diag, off, **hints)
                assert sv <= 2 and trf <= 1, (man, m, beta, sv, trf)

    # dptsv + dpttrf rows of the pair (500, 1000) as measured when the pair
    # solved its fine grid cold and the coarse one from it
    @pytest.mark.parametrize("n, r, parent", [
        (2, 100.0, 10000), (2, 300.0, 10000), (2, 900.0, 11500),
        (3, 100.0, 10000), (3, 300.0, 10500), (3, 900.0, 10500),
        (4, 100.0, 7500), (4, 300.0, 7500), (4, 900.0, 7000),
        (5, 100.0, 7500), (5, 300.0, 7500), (5, 900.0, 7000),
    ])
    def test_large_hyperbolic_pair_does_no_more_work(self, monkeypatch, n, r, parent):
        work = [0]
        inner_sv, inner_trf = _tridiag.dptsv, _tridiag.dpttrf

        def sv(d, *a, **kw):
            work[0] += d.size
            return inner_sv(d, *a, **kw)

        def trf(d, *a, **kw):
            work[0] += d.size
            return inner_trf(d, *a, **kw)

        monkeypatch.setattr(_tridiag, "dptsv", sv)
        monkeypatch.setattr(_tridiag, "dpttrf", trf)
        spectral._solve_pair(make_hyperbolic_ball(n, r), 0.25, 500)
        assert work[0] <= parent

    @pytest.mark.parametrize("m", [17, 63, 125, 301])
    def test_odd_coarse_grids_solve_the_reference_pair(self, fresh_cache, reference_pair, m):
        # the fine grid 2m has an odd coarse grid m; discretize(m) itself is
        # odd, and first_eigenpair solves it cold
        rng = np.random.default_rng(m)
        for man in _radial_catalog(rng, int(rng.integers(2, 9))):
            got = spectral.lambda1_beta(man, 0.25, m, tol=1.0)
            lam_c, lam_f = reference_pair(man, 0.25, m)
            assert got.lambda1 == lam_f, (man, m)
            assert got.richardson_estimate == (4.0 * lam_f - lam_c) / 3.0, (man, m)
            op = spectral.discretize(man, 0.25, m)
            cold = smallest_eigenpair(op.diag, op.offdiag, **spectral._cold_hints(op))
            assert spectral.first_eigenpair(op).lambda1 == cold[0], (man, m)

    def test_pair_keeps_the_coarse_cold_value(self, fresh_cache):
        # the coarse value is the cold solve of the normal form at m
        m = 200
        for n in (2, 3):
            man = make_hyperbolic_ball(n, 5.0)
            pair = spectral._solve_pair(man, 0.25, m)
            coarse = spectral.discretize(man, 0.25, m)
            cold = smallest_eigenpair(coarse.diag, coarse.offdiag,
                                      **spectral._cold_hints(coarse))
            assert pair[0] == cold[0], n


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty solve cache, restored after the test."""
    monkeypatch.setattr(spectral, "_cache", OrderedDict())


@pytest.fixture
def discretized(monkeypatch):
    """Grid sizes passed to spectral.discretize, in call order."""
    calls = []
    inner = spectral.discretize

    def counting(man, beta, m):
        calls.append(m)
        return inner(man, beta, m)

    monkeypatch.setattr(spectral, "discretize", counting)
    return calls


_FIRST_EIGENPAIR_CASES = [
    make_interval(0.0, 1.5),
    make_space_form_ball(2, 0.0, 1.0),
    make_space_form_ball(3, -2.0, 0.8),
    make_hyperbolic_ball(4, 3.0),
    make_spherical_cap(3, 1.2),
    make_radial_custom(3, _bumpy_warp, 1.0),
]
_FIRST_EIGENPAIR_IDS = ["interval", "flat-ball", "curved-ball", "hypball", "cap", "custom"]


class TestSolveCache:
    def test_entries_never_exceed_bound(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(spectral, "_CACHE_ENTRIES", 5)
        specs = [make_interval(0.0, 1.0 + 0.125 * k) for k in range(6)]
        for man in specs:
            spectral.lambda1_beta(man, 0.25, 32)
            assert len(spectral._cache) <= 5
        assert len(spectral._cache) == 5
        last = specs[-1].key()
        assert list(spectral._cache)[-1] == (last, 0.25, 32)
        for pair in spectral._cache.values():  # (lambda_1 at m, lambda_1 at 2m)
            assert len(pair) == 2 and all(isinstance(lam, float) for lam in pair)

    def test_least_recently_used_evicted_first(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(spectral, "_CACHE_ENTRIES", 3)
        a, b, c, d = (make_interval(0.0, 1.0 + k) for k in range(4))
        for man in (a, b, c, a, d):  # a is used again before d pushes one out
            spectral.lambda1_beta(man, 0.25, 64)
        held = [key[0] for key in spectral._cache]
        assert held == [c.key(), a.key(), d.key()]

    def test_repeated_key_skips_discretize(self, fresh_cache, discretized):
        man = make_space_form_ball(3, 0.0, 1.25)
        first = spectral.lambda1_beta(man, 0.25, 64)
        assert discretized == [64, 128]  # both grids of the pair
        again = spectral.lambda1_beta(man, 0.25, 64)
        assert discretized == [64, 128]
        assert again.lambda1 == first.lambda1

    @pytest.mark.parametrize("man, m", [
        (make_space_form_ball(3, 0.0, 1.0), 32),
        (make_space_form_ball(3, 0.0, 1.0), 64),
        (make_space_form_ball(2, -2.0, 3.0), 32),
        (make_spherical_cap(3, 1.2), 64),
    ], ids=["ball-32", "ball-64", "curved-ball-32", "cap-64"])
    def test_pair_independent_of_earlier_solves(self, fresh_cache, discretized, monkeypatch,
                                                reference_pair, man, m):
        # the pair (2m, 4m) solves grid 2m cold; the pair (m, 2m) must not reuse it
        spectral.lambda1_beta(man, 0.25, 2 * m)
        later = spectral.lambda1_beta(man, 0.25, m)
        assert discretized == [2 * m, 4 * m, m, 2 * m]
        monkeypatch.setattr(spectral, "_cache", OrderedDict())
        fresh = spectral.lambda1_beta(man, 0.25, m)
        assert (later.lambda1, later.richardson_estimate, later.certificate) \
            == (fresh.lambda1, fresh.richardson_estimate, fresh.certificate)
        lam_c, lam_f = reference_pair(man, 0.25, m)
        assert (later.lambda1, later.richardson_estimate) == (lam_f, (4.0 * lam_f - lam_c) / 3.0)

    def test_lambda1_beta_never_unweights(self, fresh_cache, monkeypatch):
        calls = []
        inner = spectral.DiscreteOperator.unweight

        def spy(self, v):
            calls.append(self.grid.size)
            return inner(self, v)

        monkeypatch.setattr(spectral.DiscreteOperator, "unweight", spy)
        ball = make_space_form_ball(3, 0.0, 1.25)
        prod = spectral.lambda1_beta(product([make_interval(0.0, 2.0), ball]), 0.25, 64)
        leaf = spectral.lambda1_beta(make_hyperbolic_ball(3, 2.0), 0.25, 64)
        assert prod.eigenfunction is None and leaf.eigenfunction is None
        assert calls == []
        pair = spectral.first_eigenpair(spectral.discretize(ball, 0.25, 128))
        assert pair.eigenfunction.size == 128
        assert calls == [128]

    @pytest.mark.parametrize("man", _FIRST_EIGENPAIR_CASES, ids=_FIRST_EIGENPAIR_IDS)
    @pytest.mark.parametrize("beta", [0.0, 0.25])
    def test_pair_is_the_reference_pair(self, fresh_cache, reference_pair, man, beta):
        m = 96
        got = spectral.lambda1_beta(man, beta, m)
        lam_c, lam_f = reference_pair(man, beta, m)
        assert got.lambda1 == lam_f
        assert got.richardson_estimate == (4.0 * lam_f - lam_c) / 3.0

    @pytest.mark.parametrize("man", _FIRST_EIGENPAIR_CASES, ids=_FIRST_EIGENPAIR_IDS)
    @pytest.mark.parametrize("beta", [0.0, 0.25])
    def test_first_eigenpair_within_the_slack_of_the_pair(self, fresh_cache, man, beta):
        # one cold solve of the fine operator, bit for bit; the pair's fine
        # value, solved warm in normal form, lies within the solver's slack
        m = 96
        got = spectral.lambda1_beta(man, beta, m).lambda1
        op = spectral.discretize(man, beta, 2 * m)
        lam = spectral.first_eigenpair(op).lambda1
        assert lam == smallest_eigenpair(op.diag, op.offdiag, **spectral._cold_hints(op))[0]
        assert abs(lam - got) <= 2 * _slack(got, op.diag, op.offdiag)


# hides the two compiled files from the direct load, as an unknown install
# layout would; the public scipy.linalg imports still find them by full name
_HIDE_FILES = """
import importlib.machinery
find = importlib.machinery.PathFinder.find_spec
def hide(name, path=None, target=None):
    return None if name in ("_flapack", "_fblas") else find(name, path, target)
importlib.machinery.PathFinder.find_spec = hide
"""


class TestRoutineBinding:
    def test_routines_come_from_the_compiled_modules(self):
        assert _tridiag.dptsv is sys.modules["scipy.linalg._flapack"].dptsv
        assert _tridiag.dpttrf is sys.modules["scipy.linalg._flapack"].dpttrf
        assert _tridiag.ddot is sys.modules["scipy.linalg._fblas"].ddot
        assert _tridiag.dnrm2 is sys.modules["scipy.linalg._fblas"].dnrm2

    def test_missing_file_is_none(self):
        assert _tridiag._scipy_extension("linalg", "_scx_no_such_module") is None
        assert "scipy.linalg._scx_no_such_module" not in sys.modules

    def test_load_error_leaves_nothing_registered(self, tmp_path, monkeypatch):
        (tmp_path / "linalg").mkdir()
        (tmp_path / "linalg" / "_scx_broken.py").write_text("raise ImportError('boom')\n")
        fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        fake.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
        with pytest.raises(ImportError, match="boom"):
            _tridiag._scipy_extension("linalg", "_scx_broken")
        assert "scipy.linalg._scx_broken" not in sys.modules

    def test_missing_files_fall_back_to_public_modules(self):
        diag, off = _stieltjes(np.random.default_rng(7), 40)
        code = _HIDE_FILES + (
            "import sys\n"
            "import numpy as np\n"
            "from scx import _tridiag\n"
            "assert 'scipy.linalg' in sys.modules  # the fallback ran\n"
            "from scipy.linalg import blas, lapack\n"
            "assert _tridiag.dptsv is lapack.dptsv and _tridiag.dpttrf is lapack.dpttrf\n"
            "assert _tridiag.ddot is blas.ddot and _tridiag.dnrm2 is blas.dnrm2\n"
            f"diag, off = np.array({diag.tolist()!r}), np.array({off.tolist()!r})\n"
            "lam = _tridiag.smallest_eigenpair(diag, off)[0]\n"
            "print(lam.hex(), _tridiag._count(diag, off, -np.inf, lam + 1e-9))\n")
        out = subprocess.run([sys.executable, "-W", "error", "-c", code],
                             capture_output=True, text=True, check=True).stdout.split()
        lam = smallest_eigenpair(diag, off)[0]
        assert out == [lam.hex(), "1"]
