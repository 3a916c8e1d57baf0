import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240508)


def _reference_pair(man, beta, m):
    """(lambda_1 at m, lambda_1 at 2m) as a two-grid pair is solved, written
    out step by step: discretize m and 2m, and solve m cold; a normal form
    solves 2m from the coarse eigenvector, prolonged linearly with the ghost
    -v at both ends, and below the coarse value; finite volumes solve 2m
    cold."""
    from scx import spectral
    from scx._tridiag import smallest_eigenpair

    def cold(op):
        return smallest_eigenpair(op.diag, op.offdiag, **spectral._cold_hints(op))

    coarse, fine = spectral.discretize(man, beta, m), spectral.discretize(man, beta, 2 * m)
    lam_c, v_c = cold(coarse)
    if not fine.normal_form:
        return lam_c, cold(fine)[0]
    ghosted = np.concatenate(([-v_c[0]], v_c, [-v_c[-1]]))
    start = np.empty(2 * m)
    start[0::2] = 0.75 * v_c + 0.25 * ghosted[:-2]
    start[1::2] = 0.75 * v_c + 0.25 * ghosted[2:]
    return lam_c, smallest_eigenpair(fine.diag, fine.offdiag, start=start, below=lam_c)[0]


@pytest.fixture
def reference_pair():
    """The two-grid pair, solved step by step outside spectral._solve_pair."""
    return _reference_pair
