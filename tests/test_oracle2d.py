"""The 2-D five-point oracle used by the additivity suite."""

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from scx._oracle2d import five_point_laplacian, rectangle_lambda1


def _eigsh_reference(a, b, target_h=1.0 / 64):
    """The oracle through eigsh's own shift-invert factorization."""
    A = five_point_laplacian(a, b, target_h)
    lam = eigsh(A, k=1, sigma=0.0, which="LM", v0=np.ones(A.shape[0]),
                return_eigenvectors=False)
    return float(lam[0])


@pytest.mark.parametrize("a,b,target_h", [(1.0, 2.0, 1.0 / 64), (1.0, 1.0, 1.0 / 32),
                                          (0.5, 3.0, 1.0 / 40), (2.0, 0.3, 1.0 / 48)])
def test_agrees_with_eigsh_route(a, b, target_h):
    got = rectangle_lambda1(a, b, target_h)
    assert got == pytest.approx(_eigsh_reference(a, b, target_h), rel=1e-12, abs=0)


def test_value_on_the_additivity_rectangle():
    # the five-point value lies just under the exact pi^2 (1 + 1/4)
    got = rectangle_lambda1(1.0, 2.0)
    assert got == pytest.approx(12.3349000079227, rel=1e-13)
    assert got < np.pi**2 * 1.25
