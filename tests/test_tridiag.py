"""The inverse-iteration tridiagonal eigensolve and the bounded solve cache."""

import math
from collections import OrderedDict

import numpy as np
import pytest

from scipy.linalg import eigvalsh_tridiagonal

from scx import _tridiag, spectral
from scx._tridiag import _below_spectrum, _count, smallest_eigenpair
from scx.errors import NumericalFailureError
from scx.geometry import make_hyperbolic_ball, make_interval, make_space_form_ball


def _interval_matrix(m):
    h = 1.0 / (m + 1)
    return np.full(m, 2.0 / h**2), np.full(m - 1, -1.0 / h**2), h


def _stieltjes(rng, m):
    """Random diagonally dominant tridiagonal with negative off-diagonal."""
    off = -rng.uniform(0.1, 2.0, m - 1) * 10.0 ** rng.uniform(-2, 2)
    pad = np.concatenate(([0.0], -off, [0.0]))
    diag = pad[:-1] + pad[1:] + rng.uniform(0.0, 3.0, m) * 10.0 ** rng.uniform(-2, 2)
    return diag, off


def _mixed(rng, m):
    """Random tridiagonal with off-diagonal entries of both signs."""
    off = rng.uniform(0.1, 2.0, m - 1) * rng.choice([-1.0, 1.0], m - 1)
    return rng.uniform(-3.0, 3.0, m), off


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _scale(diag, off):
    return float(np.max(np.abs(diag)) + 2 * np.max(np.abs(off)))


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
        diag, off, _ = _interval_matrix(50)
        (diag if where == "diag" else off)[7] = np.nan
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

    @pytest.mark.parametrize("case", ["interval", "stieltjes", "mixed"])
    def test_accepted_shifts_below_lambda1(self, case, monkeypatch):
        rng = np.random.default_rng(7)
        if case == "interval":
            diag, off, _ = _interval_matrix(300)
        else:
            diag, off = (_stieltjes if case == "stieltjes" else _mixed)(rng, 250)
        lam1 = np.linalg.eigvalsh(_dense(diag, off))[0]
        accepted, calls = [], []
        inner = _tridiag.dptsv

        def spy(d, e, b, *args, **kwargs):
            out = inner(d, e, b, *args, **kwargs)
            calls.append(out[-1])
            if out[-1] == 0:
                accepted.append(float(np.max(diag - d)))
            return out

        monkeypatch.setattr(_tridiag, "dptsv", spy)
        lam, _ = smallest_eigenpair(diag, off)
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


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty solve cache, restored after the test."""
    monkeypatch.setattr(spectral, "_cache", OrderedDict())
    monkeypatch.setattr(spectral, "_cache_nbytes", 0)


def _held():
    return sum(u.nbytes for _, u in spectral._cache.values())


class TestSolveCache:
    def test_bytes_held_never_exceed_budget(self, fresh_cache):
        budget = spectral._CACHE_BYTES
        m = 16000  # one (m, 2m) solve pair holds 8 * 3m = 384 KB
        specs = [make_interval(0.0, 1.0 + 0.125 * k) for k in range(14)]
        assert 24 * m * len(specs) > budget
        for man in specs:
            spectral.lambda1_beta(man, 0.25, m)
            assert _held() == spectral._cache_nbytes <= budget
        assert len(spectral._cache) < 2 * len(specs)
        assert (specs[-1].key(), 0.25, 2 * m) in spectral._cache

    def test_least_recently_used_evicted_first(self, fresh_cache, monkeypatch):
        m = 64
        monkeypatch.setattr(spectral, "_CACHE_BYTES", 3 * 8 * m)  # three solves
        a, b, c, d = (make_interval(0.0, 1.0 + k) for k in range(4))
        for man in (a, b, c, a, d):  # a is used again before d pushes one out
            spectral._lambda1_cached(man, 0.25, m)
        held = [key[0] for key in spectral._cache]
        assert held == [c.key(), a.key(), d.key()]

    def test_repeated_key_skips_discretize(self, fresh_cache, monkeypatch):
        calls = []
        inner = spectral.discretize

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(spectral, "discretize", counting)
        man = make_space_form_ball(3, 0.0, 1.25)
        first = spectral.lambda1_beta(man, 0.25, 64)
        assert len(calls) == 2
        again = spectral.lambda1_beta(man, 0.25, 64)
        assert len(calls) == 2
        assert again.lambda1 == first.lambda1

    def test_cached_eigenfunction_read_only(self, fresh_cache):
        res = spectral.lambda1_beta(make_interval(0.0, 1.5), 0.25, 64)
        with pytest.raises(ValueError):
            res.eigenfunction[0] = 1.0
