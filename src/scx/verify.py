"""Named verification suites driven by the command line.

Each suite re-checks the package's mathematical properties at a reduced grid
scale and reports one pass/fail line per property with its measured margin.
Two hyperbolic-ball checks reproduce published claims that are incompatible
with the defining formulas (see README); they are reported honestly and fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bessel, clifford, comparison, variational, warped
from ._constants import MIN_GRID, SUITES
from ._oracle2d import rectangle_lambda1
from .closed_forms import closed_form
from .errors import InvalidParameterError, NumericalFailureError
from .geometry import (
    _integer,
    make_box,
    make_hyperbolic_ball,
    make_interval,
    make_space_form_ball,
    make_spherical_cap,
    mean_curvature_of_ball,
    product,
    radius_from_mean_curvature,
)
from .spectral import (
    eigen_product,
    exhaustion_limit,
    finite_volume_operator,
    first_eigenpair,
    lambda1_beta,
    operator_grid,
    sc_stab,
)

@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    margin: float
    detail: str


def _check(suite, name, passed, margin, detail=""):
    return CheckResult(suite=suite, name=name, passed=bool(passed),
                       margin=float(margin), detail=detail)


# ----------------------------- bessel -----------------------------

def bessel_suite(seed: int = 0, grid: int | None = None):
    out = []
    m = grid or 1000
    err = abs(bessel.first_zero(0.5).j - math.pi)
    out.append(_check("bessel", "j_{1/2} equals pi", err <= 1e-9, 1e-9 - err,
                      f"error {err:.2e}"))
    err = abs(bessel.first_zero(-0.5).j - math.pi / 2)
    out.append(_check("bessel", "j_{-1/2} equals pi/2", err <= 1e-9, 1e-9 - err,
                      f"error {err:.2e}"))
    err = abs(bessel.first_zero(0.0).j - 2.404825557695773)
    out.append(_check("bessel", "j_0 value", err <= 1e-8, 1e-8 - err,
                      f"error {err:.2e}"))

    worst = math.inf
    for nu in (0.6, 1.0, 2.0, 3.0, 5.0, 10.0, 12.0):
        j = bessel.first_zero(nu).j
        lo, hi = bessel.qw_enclosure(nu)
        worst = min(worst, j - lo, hi - j)
    out.append(_check("bessel", "enclosure contains j_nu (nu in 0.6..12)",
                      worst > 0, worst, f"min margin {worst:.4f}"))

    nus = np.arange(-0.5, 12.01, 0.25)
    zeros = [bessel.first_zero(float(v)).j for v in nus]
    mono = float(np.min(np.diff(zeros)))
    out.append(_check("bessel", "j_nu strictly increasing", mono > 0, mono))

    sc1 = bessel.flat_ball_sc(3, 1.0)
    dev = abs(bessel.flat_ball_sc(3, 2.0) - sc1 / 4.0)
    out.append(_check("bessel", "flat ball scaling exact", dev <= 1e-12 * sc1,
                      1e-12 * sc1 - dev, f"deviation {dev:.2e}"))

    worst = -math.inf
    for n in range(2, 9):
        closed = bessel.flat_ball_sc(n, 1.0)
        solved = sc_stab(make_space_form_ball(n, 0.0, 1.0), m).sc_stab
        rel = abs(solved - closed) / closed
        worst = max(worst, rel)
    out.append(_check("bessel", "closed form vs eigensolve (n=2..8)",
                      worst < 5e-3, 5e-3 - worst, f"worst rel dev {worst:.2e}"))
    return out


# ----------------------------- monotonicity -----------------------------

def nested_pairs(seed: int, count: int):
    """Seeded nested pairs (inner, outer) across the catalog kinds."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        kind = rng.integers(0, 4)
        if kind == 0:
            a, b = sorted(rng.uniform(-2, 2, size=2))
            if b - a < 0.1:
                continue
            a2 = rng.uniform(a, b - 0.05 * (b - a))
            b2 = rng.uniform(a2 + 0.05 * (b - a), b)
            pairs.append((make_interval(a2, b2), make_interval(a, b)))
        elif kind == 1:
            n = int(rng.integers(2, 5))
            r = rng.uniform(0.5, 2.0)
            pairs.append((make_space_form_ball(n, 0.0, rng.uniform(0.2, 1.0) * r),
                          make_space_form_ball(n, 0.0, r)))
        elif kind == 2:
            n = int(rng.integers(2, 4))
            r = rng.uniform(0.5, 2.5)
            pairs.append((make_hyperbolic_ball(n, rng.uniform(0.3, 1.0) * r),
                          make_hyperbolic_ball(n, r)))
        else:
            n = int(rng.integers(2, 4))
            ang = rng.uniform(0.4, 2.6)
            pairs.append((make_spherical_cap(n, rng.uniform(0.3, 1.0) * ang),
                          make_spherical_cap(n, ang)))
    return pairs


def monotonicity_suite(seed: int = 0, grid: int | None = None):
    out = []
    m = grid or 600
    worst = math.inf
    for inner, outer in nested_pairs(seed, 50):
        ri = sc_stab(inner, m)
        ro = sc_stab(outer, m)
        tol = 2 * (ri.certificate + ro.certificate) * max(abs(ri.sc_stab), abs(ro.sc_stab)) + 1e-8
        worst = min(worst, ri.sc_stab - ro.sc_stab + tol)
    out.append(_check("monotonicity", "nested pairs sc(inner) >= sc(outer) (50 seeded)",
                      worst >= 0, worst, f"min margin {worst:.3e}"))

    seq = [r.sc_stab for r in
           exhaustion_limit(make_hyperbolic_ball(3, 8.0), [1, 2, 4, 8], m=1500)]
    diffs = np.diff(seq)
    out.append(_check("monotonicity", "exhaustion sequence non-increasing",
                      float(np.max(diffs)) < 0, -float(np.max(diffs)),
                      f"sequence {[round(v, 4) for v in seq]}"))

    const = [r.sc_stab for r in
             exhaustion_limit(make_hyperbolic_ball(3, 8.0), [2, 2, 2], m=800)]
    spread = max(const) - min(const)
    out.append(_check("monotonicity", "repeated radius gives constant sequence",
                      spread == 0.0, -spread))

    t = 1.7
    l1 = sc_stab(make_interval(0, 1), m).sc_stab
    lt = sc_stab(make_interval(0, t), m).sc_stab
    rel = abs(lt - l1 / t**2) / (l1 / t**2)
    out.append(_check("monotonicity", "flat scaling law (interval)", rel < 1e-3,
                      1e-3 - rel, f"rel dev {rel:.2e}"))
    b1 = sc_stab(make_space_form_ball(2, 0.0, 1.0), m).sc_stab
    bt = sc_stab(make_space_form_ball(2, 0.0, t), m).sc_stab
    rel = abs(bt - b1 / t**2) / (b1 / t**2)
    out.append(_check("monotonicity", "flat scaling law (ball)", rel < 1e-3,
                      1e-3 - rel, f"rel dev {rel:.2e}"))
    return out


# ----------------------------- additivity -----------------------------

def additivity_suite(seed: int = 0, grid: int | None = None):
    out = []
    m = grid or 800
    box_man = make_box([1.0, 2.0, 3.0])
    box = sc_stab(box_man, m).sc_stab
    exact = 4 * closed_form(box_man)
    rel = abs(box - exact) / exact
    out.append(_check("additivity", "box 1x2x3 equals sum of interval values",
                      rel < 1e-3, 1e-3 - rel, f"rel dev {rel:.2e}"))

    prod = eigen_product([make_interval(0, 1), make_interval(0, 2)], m)
    oracle = 4.0 * (rectangle_lambda1(1.0, 2.0) + 0.0)
    rel = abs(prod.sc_stab - oracle) / oracle
    out.append(_check("additivity", "2-D five-point oracle matches product (1x2)",
                      rel < 5e-3, 5e-3 - rel, f"rel dev {rel:.2e}"))

    x = make_space_form_ball(2, 0.0, 1.0)
    two = eigen_product([x, x], m).sc_stab
    single = sc_stab(x, m).sc_stab
    dev = abs(two - 2 * single)
    out.append(_check("additivity", "X x X equals twice X", dev <= 1e-12 * abs(two),
                      1e-12 * abs(two) - dev, f"deviation {dev:.2e}"))

    shifted = sc_stab(make_interval(-0.5, 0.5), m).sc_stab
    unit = sc_stab(make_interval(0.0, 1.0), m).sc_stab
    dev = abs(shifted - unit)
    out.append(_check("additivity", "translation invariance of intervals",
                      dev <= 1e-9 * unit, 1e-9 * unit - dev, f"deviation {dev:.2e}"))

    hemi, interval = make_spherical_cap(2, math.pi / 2), make_interval(0, 1)
    ra = lambda1_beta(hemi, 0.5, m)
    rb = lambda1_beta(interval, 0.5, m)
    combined = lambda1_beta(product([hemi, interval]), 0.5, m)
    dev = abs(combined.lambda1 - (ra.lambda1 + rb.lambda1))
    out.append(_check("additivity", "spectrum additivity at beta=1/2",
                      dev == 0.0, -dev))
    return out


# ----------------------------- majorization -----------------------------

def majorization_suite(seed: int = 0, grid: int | None = None):
    out = []
    m = grid or 800
    catalog = [
        ("interval [0,1]", make_interval(0, 1)),
        ("flat disk B^2", make_space_form_ball(2, 0.0, 1.0)),
        ("hemisphere S^2_+", make_spherical_cap(2, math.pi / 2)),
    ]
    for label, man in catalog:
        rep = variational.maximize(man, trials=60, seed=seed, m=m)
        bound = 0.01 * abs(rep.eigen_value)
        out.append(_check(
            "majorization", f"trials majorized by 4*lambda1 ({label})",
            rep.gap >= -bound, rep.gap + bound,
            f"gap {rep.gap:.3e}, best from {rep.best_label}",
        ))
        attain = abs(rep.best_value - rep.eigen_value)
        out.append(_check(
            "majorization", f"eigenfunction attains 4*lambda1 ({label})",
            attain <= bound, bound - attain, f"|best-eig| {attain:.3e}",
        ))
    return out


# ----------------------------- warped -----------------------------

def random_positive_family(nodes: np.ndarray, N: int, rng) -> list[np.ndarray]:
    span = nodes[-1] - nodes[0]
    t = (nodes - nodes[0]) / span
    phis = []
    for _ in range(N):
        u = sum(rng.normal() / j**2 * np.sin(j * math.pi * t + rng.uniform(0, 2 * math.pi))
                for j in range(1, 5))
        phis.append(np.exp(0.5 * u + 0.3 * rng.normal() * t))
    return phis


def warped_suite(seed: int = 0, grid: int | None = None):
    out = []
    m = grid or 1024
    rng = np.random.default_rng(seed)

    for label, man in (("hemisphere S^2_+", make_spherical_cap(2, math.pi / 2)),
                       ("interval [0,1]", make_interval(0, 1))):
        res = first_eigenpair(finite_volume_operator(man, 0.5, m))
        fam = warped.make_warping_family(man, [res.eigenfunction], m)
        vals = warped.warped_sc(fam)
        target = 2 * res.lambda1
        spread = (vals.max() - vals.min()) / abs(target)
        dev = abs(np.mean(vals) - target) / abs(target)
        out.append(_check("warped", f"N=1 eigenfunction warp constant ({label})",
                          spread < 0.01 and dev < 0.01, 0.01 - max(spread, dev),
                          f"spread {spread:.2e}, mean dev {dev:.2e}"))

    worst = math.inf
    base = make_interval(0, 1)
    nodes = operator_grid(base, 512).nodes
    for _ in range(30):
        N = int(rng.integers(2, 5))
        fam = warped.make_warping_family(base, random_positive_family(nodes, N, rng), 512)
        diff = warped.warped_sc(warped.geometric_mean_reduce(fam)) - warped.warped_sc(fam)
        worst = min(worst, float(diff.min()))
    out.append(_check("warped", "geometric-mean inequality node-wise (30 families)",
                      worst >= -1e-9, worst + 1e-9, f"min difference {worst:.3e}"))

    t = nodes
    Psi = 0.3 * np.sin(3 * t) + 0.2 * t**2
    lhs = warped.theta_form(base, np.exp(Psi / 2), 512)
    rhs = warped.psi_form(base, Psi, math.inf, 512)
    err = float(np.max(np.abs(lhs - rhs)))
    out.append(_check("warped", "theta form equals limiting psi form",
                      err < 1e-3, 1e-3 - err, f"max err {err:.2e}"))

    prev = None
    ok = True
    for N in (1, 2, 5, 100):
        vals = warped.psi_form(base, Psi, N, 512)
        if prev is not None and np.any(vals < prev - 1e-12):
            ok = False
        prev = vals
    out.append(_check("warped", "psi form non-decreasing in N", ok, 0.0))
    return out


# ----------------------------- comparison -----------------------------

def comparison_suite(seed: int = 0, grid: int | None = None):
    out = []
    m = grid or 600
    for kappa in (-1.0, 0.0, 1.0):
        cases = comparison.admissible_catalog(kappa, 6, seed=seed + int(3 * (kappa + 1)))
        worst, violated = math.inf, 0
        for case in cases:
            try:
                sx, sm = comparison.compare_sc_stab(case, m)
            except NumericalFailureError as exc:
                if "sc_x" not in exc.details:  # a failed solve, not a violation
                    raise
                sx, sm = exc.details["sc_x"], exc.details["sc_model"]
                violated += 1
            worst = min(worst, sx - sm)
        detail = f"min margin {worst:.3e}"
        if violated:
            detail += f"; {violated} case(s) violate the inequality"
        out.append(_check("comparison", f"sc(X) >= sc(model) (kappa={kappa:g})",
                          worst >= -1e-6 and not violated, worst + 1e-6, detail))
        ok = all(comparison.transplant_check(case, m) for case in cases[:2])
        out.append(_check("comparison", f"transplant pattern holds (kappa={kappa:g})",
                          ok, 0.0))

    rng = np.random.default_rng(seed + 17)
    worst = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 6))
        kappa = float(rng.choice([-1.0, 0.0, 1.0]))
        if kappa > 0:
            r = rng.uniform(0.1, 0.95) * math.pi
        else:
            r = rng.uniform(0.1, 3.0)
        mu = mean_curvature_of_ball(n, kappa, r)
        try:
            r_back = radius_from_mean_curvature(n, kappa, mu)
        except InvalidParameterError:
            continue
        worst = max(worst, abs(r_back - r) / r)
    out.append(_check("comparison", "mean-curvature radius round-trip",
                      worst <= 1e-10, 1e-10 - worst, f"worst rel err {worst:.2e}"))
    return out


# ----------------------------- hyperbolic -----------------------------

def hyperbolic_suite(seed: int = 0, grid: int | None = None):
    out = []
    m = grid or 1500
    worst = -math.inf
    for r in (1.0, 2.0, 5.0):
        ball = make_hyperbolic_ball(3, r)
        exact = closed_form(ball, beta=0)
        rel = abs(lambda1_beta(ball, 0.0, m).lambda1 - exact) / exact
        worst = max(worst, rel)
    out.append(_check("hyperbolic", "n=3 closed form 1 + pi^2/r^2",
                      worst < 1e-5, 1e-5 - worst, f"worst rel dev {worst:.2e}"))

    scs = [comparison.hyperbolic_sc(3, r, m) for r in (0.5, 1, 2, 3, 5, 8)]
    dec = float(np.max(np.diff(scs)))
    out.append(_check("hyperbolic", "sc decreasing in r (n=3)", dec < 0, -dec,
                      f"values {[round(v, 3) for v in scs]}"))

    c20 = comparison.hyperbolic_c(3, 20.0, max(m, 2500))
    out.append(_check("hyperbolic", "c(20) > 0.9 (n=3)", c20 > 0.9, c20 - 0.9,
                      f"c(20) = {c20:.4f}"))

    worst = -math.inf
    for n in (2, 3):
        nu = n / 2 - 1
        jsq = bessel.first_zero(nu).j ** 2
        sc = comparison.hyperbolic_sc(n, 0.02, 800)
        rel = abs(sc * 0.02**2 / 4 - jsq) / jsq
        worst = max(worst, rel)
    out.append(_check("hyperbolic", "r->0 leading order 4 j_nu^2 / r^2",
                      worst < 0.02, 0.02 - worst, f"worst rel dev {worst:.2e}"))

    worst = math.inf
    for n in (2, 3, 4):
        r = 0.99 * comparison.positivity_threshold_radius(n)
        worst = min(worst, comparison.hyperbolic_sc(n, r, 800))
    out.append(_check("hyperbolic", "sc > 0 below the positivity threshold",
                      worst > 0, worst, f"min sc {worst:.3f}"))

    # Published window checks; measured values exceed the window (see README).
    lo, hi = comparison.PUBLISHED_C_WINDOW
    lo_w, hi_w = lo - 0.02, hi + 0.02
    worst = -math.inf
    vals = {}
    for n in (2, 3, 4):
        for r in (1.0, 1.5, 2.0, 3.0):
            c = comparison.hyperbolic_c(n, r, m)
            vals[(n, r)] = round(c, 3)
            worst = max(worst, lo_w - c, c - hi_w)
    out.append(_check("hyperbolic", "published window 1/6 <= c(r) <= 1 (r in 1..3)",
                      worst <= 0, -worst, f"measured c values {vals}"))

    worst = -math.inf
    scs = {}
    for n in (2, 3, 4):
        sc = comparison.hyperbolic_sc(n, 3.0, m)
        scs[n] = round(sc, 3)
        worst = max(worst, sc)
    out.append(_check("hyperbolic", "published sign sc < 0 at r=3",
                      worst < 0, -worst, f"measured sc {scs}"))
    return out


# ----------------------------- clifford -----------------------------

def clifford_suite(seed: int = 0, grid: int | None = None):
    out = []
    # each representation is built once and read by every check below
    reps = {mdim: clifford.build_clifford(mdim) for mdim in range(1, 9)}
    worst = -math.inf
    for mdim, rep in reps.items():
        eye = np.eye(rep.spinor_dim)
        for i in range(mdim):
            for j in range(mdim):
                anti = rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i]
                target = -2 * eye if i == j else 0 * eye
                worst = max(worst, float(np.max(np.abs(anti - target))))
    out.append(_check("clifford", "anticommutation relations (m=1..8)",
                      worst <= 1e-13, 1e-13 - worst, f"max defect {worst:.2e}"))

    rep = reps[2]
    c = 0.83
    data = clifford.make_curvature(2, 1, {(0, 1): np.array([[1j * c]])})
    lam = clifford.curvature_endomorphism(rep, data).lambda_min
    dev = abs(lam + abs(c))
    out.append(_check("clifford", "m=2 line bundle closed form", dev <= 1e-10,
                      1e-10 - dev, f"deviation {dev:.2e}"))

    rng = np.random.default_rng(seed)
    worst = math.inf
    max_gap = -math.inf
    for _ in range(50):
        mdim = int(rng.choice([2, 3, 4]))
        rep = reps[mdim]
        d1 = clifford.random_curvature(mdim, int(rng.integers(1, 5)), rng)
        d2 = clifford.random_curvature(mdim, int(rng.integers(1, 5)), rng)
        l1 = clifford.curvature_endomorphism(rep, d1).lambda_min
        l2 = clifford.curvature_endomorphism(rep, d2).lambda_min
        l12 = clifford.curvature_endomorphism(rep, clifford.tensor_curvature(d1, d2)).lambda_min
        worst = min(worst, l12 - (l1 + l2))
        max_gap = max(max_gap, l12 - (l1 + l2))
    out.append(_check("clifford", "tensor additivity lower bound (50 seeded)",
                      worst >= -1e-9, worst + 1e-9,
                      f"min margin {worst:.2e}, observed max gap {max_gap:.3f}"))

    mdim, f1, f2 = 3, 2, 3
    rep = reps[mdim]
    d1 = clifford.random_curvature(mdim, f1, rng)
    spec_full = np.sort(clifford.partial_spectrum(rep, d1, f2, "first"))
    spec_k1 = np.linalg.eigvalsh(clifford.curvature_endomorphism(rep, d1).matrix)
    dev = float(np.max(np.abs(spec_full - np.sort(np.repeat(spec_k1, f2)))))
    out.append(_check("clifford", "partial operator spectrum has multiplicity dim V2",
                      dev <= 1e-9, 1e-9 - dev, f"max dev {dev:.2e}"))

    d2 = clifford.random_curvature(mdim, 2, rng)
    K = clifford.curvature_endomorphism(rep, d2)
    q, _ = np.linalg.qr(rng.normal(size=(rep.spinor_dim, rep.spinor_dim))
                        + 1j * rng.normal(size=(rep.spinor_dim, rep.spinor_dim)))
    rot = clifford.CliffordRep(
        m=mdim, spinor_dim=rep.spinor_dim,
        gammas=tuple(q @ g @ q.conj().T for g in rep.gammas),
    )
    K2 = clifford.curvature_endomorphism(rot, d2)
    dev = float(np.max(np.abs(np.linalg.eigvalsh(K.matrix) - np.linalg.eigvalsh(K2.matrix))))
    out.append(_check("clifford", "spectrum invariant under unitary change of frame",
                      dev <= 1e-9, 1e-9 - dev, f"max dev {dev:.2e}"))
    return out


_SUITE_FUNCS = {
    "bessel": bessel_suite,
    "monotonicity": monotonicity_suite,
    "additivity": additivity_suite,
    "majorization": majorization_suite,
    "warped": warped_suite,
    "comparison": comparison_suite,
    "hyperbolic": hyperbolic_suite,
    "clifford": clifford_suite,
}


# the suites that pass their grid to a warped-metric grid
_WARPED_SUITES = ("majorization", "warped")


def run_suite(name: str, seed: int = 0, grid: int | None = None) -> list[CheckResult]:
    """The checks of suite ``name`` ("all": every suite in turn).

    ``grid`` replaces each suite's default grids; a grid below MIN_GRID and
    a ``seed`` that is not an integer >= 0 are refused here, for every
    suite, before any runs,
    and so is a grid below warped.MIN_WARP_GRID where a selected suite
    reads it as a warped-metric grid.
    """
    if name != "all" and name not in _SUITE_FUNCS:
        raise InvalidParameterError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
        )
    if grid is not None and grid < MIN_GRID:
        raise InvalidParameterError(f"grid size must be >= {MIN_GRID}, got {grid}")
    if (grid is not None and grid < warped.MIN_WARP_GRID
            and (name == "all" or name in _WARPED_SUITES)):
        raise InvalidParameterError(
            f"warped-metric grid must be >= {warped.MIN_WARP_GRID}, got {grid}")
    seed = _integer(seed, "seed", 0)
    if name == "all":
        # one suite's numerical failure becomes its failed check, so the
        # other suites still report their verdicts
        results = []
        for suite, func in _SUITE_FUNCS.items():
            try:
                results.extend(func(seed=seed, grid=grid))
            except NumericalFailureError as exc:
                results.append(_check(suite, "suite aborted", False, 0.0,
                                      f"{exc}; details: {exc.details}"))
        return results
    return _SUITE_FUNCS[name](seed=seed, grid=grid)
