"""The 2-D five-point oracle used by the additivity suite."""

import math

import numpy as np
import pytest
from scipy.sparse import diags, kronsum
from scipy.sparse.linalg import eigsh

from scx import _oracle2d
from scx._oracle2d import rectangle_lambda1
from scx.errors import InvalidParameterError, NumericalFailureError

_RECTANGLES = [(1.0, 2.0, 1.0 / 64), (1.0, 1.0, 1.0 / 32), (0.5, 3.0, 1.0 / 40),
               (2.0, 0.3, 1.0 / 48)]


def _band(a, b, target_h=1.0 / 64):
    """The five-point band that rectangle_lambda1 factors, at shift 0."""
    p, q, hs, hl = _oracle2d._grid(a, b, target_h)
    ab = np.empty((p + 1, p * q), order="F")
    _oracle2d._fill(ab, p, hs, hl)
    return ab


def _eigsh_reference(a, b, target_h=1.0 / 64):
    """The oracle through scipy.sparse: the five-point matrix in CSR (node
    (i, j) at index i * ny + j) and eigsh's own shift-invert factorization."""
    nx = max(int(round(a / target_h)) - 1, 8)
    ny = max(int(round(b / target_h)) - 1, 8)

    def second_difference(count, h):
        return diags([-1.0 / h**2, 2.0 / h**2, -1.0 / h**2], [-1, 0, 1],
                     shape=(count, count))

    A = kronsum(second_difference(ny, b / (ny + 1)),
                second_difference(nx, a / (nx + 1)), format="csr")
    lam = eigsh(A, k=1, sigma=0.0, which="LM", v0=np.ones(A.shape[0]),
                return_eigenvectors=False)
    return float(lam[0])


@pytest.mark.parametrize("a,b,target_h", _RECTANGLES)
def test_agrees_with_eigsh_route(a, b, target_h):
    got = rectangle_lambda1(a, b, target_h)
    assert got == pytest.approx(_eigsh_reference(a, b, target_h), rel=1e-12, abs=0)


def test_value_on_the_additivity_rectangle():
    # the five-point value lies just under the exact pi^2 (1 + 1/4)
    got = rectangle_lambda1(1.0, 2.0)
    assert got == pytest.approx(12.3349000079227, rel=1e-13)
    assert got < np.pi**2 * 1.25


@pytest.mark.parametrize("a,b,target_h", _RECTANGLES)
def test_accepted_shifts_lie_below_the_value(a, b, target_h, monkeypatch):
    # each dpbtrf call records its shift, read off the first diagonal entry
    diag = _band(a, b, target_h)[0, 0]
    calls = []
    real = _oracle2d.dpbtrf

    def dpbtrf(ab, **kwargs):
        shift = diag - ab[0, 0]
        out = real(ab, **kwargs)
        calls.append((shift, out[1]))
        return out

    monkeypatch.setattr(_oracle2d, "dpbtrf", dpbtrf)
    got = rectangle_lambda1(a, b, target_h)
    accepted = [shift for shift, info in calls if info == 0]
    assert accepted[0] == 0.0
    assert max(accepted) < got


def test_refused_shift_refactors_the_last_accepted_one(monkeypatch):
    # dpbtrf is made to refuse the first shift past 0: the single band buffer
    # is factored at 0 again and the iteration goes on from there
    want = rectangle_lambda1(1.0, 2.0)
    diag = _band(1.0, 2.0)[0, 0]
    shifts = []
    real = _oracle2d.dpbtrf

    def dpbtrf(ab, **kwargs):
        shifts.append(diag - ab[0, 0])
        out = real(ab, **kwargs)
        return (out[0], 1) if len(shifts) == 2 else out

    monkeypatch.setattr(_oracle2d, "dpbtrf", dpbtrf)
    got = rectangle_lambda1(1.0, 2.0)
    assert shifts[0] == 0.0 < shifts[1] and shifts[2] == 0.0
    assert got == pytest.approx(want, rel=1e-13)


def test_start_is_all_ones(monkeypatch):
    # never the separable sine, the product route's eigenvector
    rhs = []
    real = _oracle2d.dpbtrs

    def dpbtrs(ab, b, **kwargs):
        rhs.append(np.array(b))
        return real(ab, b, **kwargs)

    monkeypatch.setattr(_oracle2d, "dpbtrs", dpbtrs)
    rectangle_lambda1(1.0, 2.0)
    start = rhs[0]
    assert start.shape == (63 * 127,) and start[0] > 0
    assert np.all(start == start[0])
    assert not np.all(rhs[1] == rhs[1][0])


def test_capped_iteration_raises(monkeypatch):
    monkeypatch.setattr(_oracle2d, "MAX_STEPS", 3)
    with pytest.raises(NumericalFailureError, match="failed to converge") as exc:
        rectangle_lambda1(1.0, 2.0)
    assert exc.value.details["steps"] == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a,b,target_h", [
    (math.nan, 1.0, 1 / 64), (-1.0, 1.0, 1 / 64), (1.0, 0.0, 1 / 64), (1.0, math.inf, 1 / 64),
    (1.0, 1.0, 0.0), (1.0, 1.0, math.nan),
])
def test_sides_and_spacing_must_be_finite_and_positive(a, b, target_h):
    with pytest.raises(InvalidParameterError, match="must be finite and positive"):
        rectangle_lambda1(a, b, target_h)
