"""Sup-over-test-functions characterization of the stabilized curvature.

Every smooth strictly positive theta gives the lower bound
inf_x [sigma(x) - 4 Lap(theta)/theta] <= 4 lambda_1(-Lap + sigma/4), with
equality attained by the first Dirichlet eigenfunction.  This module
evaluates that inf-functional over a deterministic seeded family of trial
functions and reports the best value against the eigensolve; it verifies the
majorization, it does not run an optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ModelManifold, _integer
from .spectral import DEFAULT_GRID, finite_volume_operator, first_eigenpair, lambda1_beta
from .warped import theta_form, theta_form_on, warp_grid


@dataclass(frozen=True)
class VariationalReport:
    best_value: float
    eigen_value: float
    trials: int
    gap: float
    best_label: str


def inf_functional(base: ModelManifold, theta, m: int = 1024) -> float:
    """Minimum over evaluation nodes of sigma - 4 Lap(theta)/theta."""
    return float(np.min(theta_form(base, theta, m)))


def trial_functions(base: ModelManifold, eigenfunction, grid, trials: int, seed: int):
    """Deterministic trial family: the eigenfunction, its multiplicative
    perturbations exp(eps*eta) with smooth random bumps eta, positive spline
    bumps, plain exponentials, and the constant function."""
    rng = np.random.default_rng(seed)
    t = (grid.nodes - grid.nodes[0]) / (grid.nodes[-1] - grid.nodes[0])
    yield "constant", np.ones(grid.size)
    if trials == 1:
        return
    yield "eigenfunction", eigenfunction
    produced = 2
    kinds = ("perturbed", "spline", "exponential")
    while produced < trials:
        kind = kinds[produced % 3]
        if kind == "perturbed":
            eta = np.zeros(grid.size)
            for j in range(1, 5):
                eta += rng.normal() / j**2 * np.sin(j * np.pi * t + rng.uniform(0, 2 * np.pi))
            eps = rng.uniform(0.02, 0.15)
            cand = eigenfunction * np.exp(eps * eta)
        elif kind == "spline":
            c = rng.uniform(0.2, 0.8)
            w = rng.uniform(0.1, 0.4)
            s = np.clip(1 - np.abs((t - c) / w), 0, None)
            cand = 1.0 + rng.uniform(0.5, 3.0) * s**3 * (4 - 3 * s)
        else:
            cand = np.exp(rng.uniform(-2.0, 2.0) * (t - 0.5))
        yield kind, cand
        produced += 1


def maximize(
    base: ModelManifold,
    trials: int = 200,
    seed: int = 0,
    m: int = 1024,
) -> VariationalReport:
    """Best inf-functional value over the seeded trial family vs 4 lambda_1."""
    trials = _integer(trials, "trials", 1)
    seed = _integer(seed, "seed", 0)
    eigen_value = 4.0 * lambda1_beta(base, 0.25, max(m, DEFAULT_GRID // 4)).lambda1
    # Eigenfunction for the trial family is solved on the trial grid itself,
    # by finite volumes, whose samples are accurate next to the centre too.
    op = finite_volume_operator(base, 0.25, m)
    eig = np.clip(first_eigenpair(op).eigenfunction, 1e-12, None)
    # every trial is evaluated on one grid, so its drift is computed once
    grid = warp_grid(base, m)

    best = -np.inf
    best_label = ""
    count = 0
    for label, cand in trial_functions(base, eig, grid, trials, seed):
        val = float(np.min(theta_form_on(grid, cand)))
        count += 1
        if val > best:
            best, best_label = val, label
    return VariationalReport(
        best_value=float(best),
        eigen_value=float(eigen_value),
        trials=count,
        gap=float(eigen_value - best),
        best_label=best_label,
    )
