"""Layer sweep: each scx layer timed on its own, with an accuracy column.

Runs in a fresh interpreter (``child.py layers``), so the module-level solve
cache starts empty.  Timings are medians of repeats; accuracies are against
exact values:

* solver: the exact discrete eigenvalue of the interval operator,
  (4/h^2) sin^2(pi / (2(m+1))) with h = 1/(m+1).  The 1 - cos form loses
  eight digits at m = 32000, so the sin^2 form is used.
* sc_stab: the closed forms of the interval, flat ball, hemisphere and
  hyperbolic 3-ball (see specgen).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import numpy as np

import specgen

GRIDS = (1000, 4000, 8000, 32000)


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _median_s_over(fn, items) -> float:
    """Median time of fn(item) over distinct items, so caches stay cold."""
    times = []
    for it in items:
        t0 = time.perf_counter()
        fn(it)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def spectral_metrics() -> dict:
    import scx

    out = {}
    interval = scx.make_interval(0.0, 1.0)
    for m in GRIDS:
        out[f"spectral.discretize.m{m}_ms"] = 1e3 * _median_s(
            lambda: scx.discretize(interval, 0.0, m), 5)
        op = scx.discretize(interval, 0.0, m)
        lam = []
        out[f"spectral.first_eigenpair.m{m}_ms"] = 1e3 * _median_s(
            lambda: lam.append(scx.first_eigenpair(op).lambda1), 3 if m <= 8000 else 1)
        h = 1.0 / (m + 1)
        exact = 4.0 / h**2 * math.sin(math.pi / (2 * (m + 1))) ** 2
        out[f"spectral.first_eigenpair.m{m}_abs_err"] = max(abs(x - exact) for x in lam)
    return out


def sc_stab_accuracy() -> dict:
    """Relative error of sc_stab against four closed forms at each grid."""
    import scx

    out = {}
    cases = {
        "interval": (scx.make_interval(0.0, 1.0), 4 * math.pi**2),
        "flat_ball": (scx.make_space_form_ball(3, 0.0, 1.0),
                      4 * specgen.bessel_first_zero(0.5) ** 2),
        "hemisphere": (scx.make_hemisphere(3), 18.0),
        "hypball3": (scx.make_hyperbolic_ball(3, 2.0), math.pi**2 - 2.0),
    }
    for label, (man, exact) in cases.items():
        for m in GRIDS:
            sc = scx.sc_stab(man, m).sc_stab
            out[f"spectral.sc_stab.{label}.m{m}_rel_err"] = abs(sc - exact) / abs(exact)
    return out


def other_metrics(seed: int) -> dict:
    import scx
    from scx import clifford, comparison, variational, warped
    from scx._oracle2d import rectangle_lambda1
    from scx.cli import compute_report, parse_spec

    out = {}
    rng = np.random.default_rng(seed)

    ctors = [
        lambda: scx.make_interval(0.0, 1.0),
        lambda: scx.make_space_form_ball(3, 0.0, 1.0),
        lambda: scx.make_space_form_ball(4, -1.0, 2.0),
        lambda: scx.make_spherical_cap(3, 1.0),
        lambda: scx.make_hyperbolic_ball(3, 2.0),
        lambda: scx.make_box([1.0, 2.0, 3.0]),
    ]
    per_call = []
    for make in ctors:
        per_call.append(_median_s(lambda: [make() for _ in range(50)], 5) / 50)
    out["geometry.construct_us"] = 1e6 * statistics.median(per_call)

    nus = [float(v) for v in np.arange(-0.5, 12.01, 0.5)]
    out["bessel.first_zero_us"] = 1e6 * _median_s_over(scx.first_zero, nus)

    base = scx.make_interval(0.0, 1.0)
    t = scx.operator_grid(base, 1024).nodes
    theta = np.exp(0.15 * np.sin(3 * t) + 0.1 * t**2)
    out["warped.theta_form.m1024_ms"] = 1e3 * _median_s(
        lambda: warped.theta_form(base, theta, 1024), 5)
    hemi2 = scx.make_hemisphere(2)
    eig = scx.first_eigenpair(scx.discretize(hemi2, 0.5, 1024)).eigenfunction
    fam = []
    out["warped.make_warping_family_ms"] = 1e3 * _median_s(
        lambda: fam.append(warped.make_warping_family(hemi2, [eig], 1024)), 5)
    out["warped.warped_sc_ms"] = 1e3 * _median_s(lambda: warped.warped_sc(fam[0]), 5)

    disk = scx.make_space_form_ball(2, 0.0, 1.0)
    variational.maximize(disk, trials=1, seed=seed, m=1000)  # fills the solve cache
    out["variational.maximize_ms"] = 1e3 * _median_s(
        lambda: variational.maximize(disk, trials=200, seed=seed, m=1000), 3)

    cases = comparison.admissible_catalog(-1.0, 3, seed=seed)
    out["comparison.compare_sc_stab_ms"] = 1e3 * _median_s_over(
        lambda c: comparison.compare_sc_stab(c, 600), cases)
    out["comparison.transplant_check_ms"] = 1e3 * _median_s_over(
        lambda c: comparison.transplant_check(c, 600), cases)
    out["comparison.hyperbolic_c_ms"] = 1e3 * _median_s_over(
        lambda r: comparison.hyperbolic_c(3, r, 1500), (1.25, 1.75, 2.25))

    out["clifford.build_clifford.m4_ms"] = 1e3 * _median_s(
        lambda: clifford.build_clifford(4), 5)
    out["clifford.build_clifford.m8_ms"] = 1e3 * _median_s(
        lambda: clifford.build_clifford(8), 5)
    rep = clifford.build_clifford(4)
    data = clifford.random_curvature(4, 3, rng)
    out["clifford.curvature_endomorphism_ms"] = 1e3 * _median_s(
        lambda: clifford.curvature_endomorphism(rep, data), 10)

    out["oracle2d.rectangle_lambda1_ms"] = 1e3 * _median_s(
        lambda: rectangle_lambda1(1.0, 2.0), 3)

    specs = [op["spec"] for ops in specgen.sweep_rounds(seed, 4) for op in ops]
    out["cli.parse_spec_us"] = 1e6 * _median_s_over(parse_spec, specs)
    cf_specs = ["interval:0,1", "box:1,2,3", "ball:n=3,r=1", "hemisphere:n=4"]
    out["cli.compute_report.closed_form_ms"] = 1e3 * _median_s_over(
        lambda s: compute_report(parse_spec(s), "closed_form", seed), cf_specs)
    eig_specs = ["ball:n=2,r=1.25", "hemisphere:n=5", "hypball:n=3,r=1.5"]
    out["cli.compute_report.eigensolve_ms"] = 1e3 * _median_s_over(
        lambda s: compute_report(parse_spec(s), "eigensolve", seed), eig_specs)
    out["cli.compute_report.variational_ms"] = 1e3 * _median_s_over(
        lambda s: compute_report(parse_spec(s), "variational", seed), ["hemisphere:n=6"])
    return out


def write(path: str, seed: int, accuracy_path: str) -> None:
    """All layer metrics to ``path``.

    The sc_stab errors (64000-point solves, most of the sweep's time) are a
    pure function of the sources, so they are kept in ``accuracy_path``,
    named by the sources' hash, and reused while it exists.
    """
    metrics = spectral_metrics()
    if os.path.exists(accuracy_path):
        with open(accuracy_path, encoding="utf-8") as fh:
            metrics.update(json.load(fh))
    else:
        accuracy = sc_stab_accuracy()
        with open(accuracy_path, "w", encoding="utf-8") as fh:
            json.dump(accuracy, fh)
        metrics.update(accuracy)
    metrics.update(other_metrics(seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
