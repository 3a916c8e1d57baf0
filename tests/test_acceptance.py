"""Acceptance criteria, one test per criterion (split into labeled parts).

Each test prints a single pass/fail line (visible with `pytest -s` and in
failure reports).

The hyperbolic-ball parts 5a and 5d hold the solver to a window proven from
closed forms already in the package.  On B^n_{-1}(r) the substitution
v = sinh^((n-1)/2)(rho) u turns the radial Dirichlet problem into
-v'' + [(n-1)^2/4 + (n-1)(n-3)/(4 sinh^2 rho)] v = lambda v on (0, r); since
rho <= sinh rho the extra potential lies between 0 and the flat ball's
(n-1)(n-3)/(4 rho^2), so lambda_1 - (n-1)^2/4 lies between pi^2/r^2 and
j_nu^2/r^2, nu = n/2 - 1 (the order flips for n = 2; the bounds meet at
n = 3, where lambda_1 = 1 + pi^2/r^2).  The slack is the solver's own
two-grid certificate.  The published claims this window refutes,
1/6 <= c(r) <= 1 and sc < 0 at r = 3, stay recorded by the two failing
"published" checks of `scx verify hyperbolic` and by
scripts/hyperbolic_window.py (see README, "Known discrepancies").
"""

import math

import numpy as np
import pytest

from scx import clifford
from scx._oracle2d import rectangle_lambda1
from scx.bessel import first_zero, flat_ball_sc, qw_enclosure
from scx.comparison import (
    admissible_catalog,
    compare_sc_stab,
    hyperbolic_c,
    hyperbolic_sc,
    positivity_threshold_radius,
)
from scx.geometry import (
    make_box,
    make_hyperbolic_ball,
    make_interval,
    make_space_form_ball,
    make_spherical_cap,
    mean_curvature_of_ball,
    radius_from_mean_curvature,
)
from scx.spectral import (
    discretize,
    eigen_product,
    exhaustion_limit,
    finite_volume_operator,
    first_eigenpair,
    lambda1_beta,
    sc_stab,
)
from scx.variational import maximize
from scx.verify import nested_pairs, random_positive_family
from scx.warped import geometric_mean_reduce, make_warping_family, warped_sc
from scx.spectral import operator_grid

from test_bessel import series_zero


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"criterion {cid}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {cid}: {detail}"


# 1. rectangular solids -----------------------------------------------------

def test_criterion_01_rectangular_solids():
    exact = 4 * math.pi**2 * (1 + 0.25 + 1 / 9)
    got = sc_stab(make_box([1.0, 2.0, 3.0]), 2000).sc_stab
    rel = abs(got - exact) / exact
    report("1a", rel < 1e-3, f"box 1x2x3: {got:.6f} vs {exact:.6f}, rel {rel:.2e}")

    oracle = 4 * rectangle_lambda1(1.0, 2.0)
    prod = eigen_product([make_interval(0, 1), make_interval(0, 2)], 2000).sc_stab
    rel = abs(prod - oracle) / oracle
    report("1b", rel < 5e-3, f"2-D oracle {oracle:.5f} vs product {prod:.5f}, rel {rel:.2e}")


# 2. hemisphere table --------------------------------------------------------

@pytest.mark.parametrize("n,value", [(2, 10.0), (3, 18.0), (4, 28.0), (8, 88.0)])
def test_criterion_02_hemispheres(n, value):
    got = sc_stab(make_spherical_cap(n, math.pi / 2), 2000).sc_stab
    rel = abs(got - value) / value
    report("2", rel < 0.01, f"S^{n}_+: {got:.5f} vs n(n+3) = {value}, rel {rel:.2e}")


# 3. flat balls --------------------------------------------------------------

def test_criterion_03a_flat_balls_eigensolve():
    worst = 0.0
    values = {}
    for n in range(2, 9):
        closed = flat_ball_sc(n, 1.0)
        solved = sc_stab(make_space_form_ball(n, 0.0, 1.0), 2000).sc_stab
        rel = abs(solved - closed) / closed
        worst = max(worst, rel)
        values[n] = round(solved, 4)
    report("3a", worst < 5e-3, f"eigensolve vs 4 j^2 for n=2..8, worst rel {worst:.2e}; {values}")


def test_criterion_03b_half_integer_zeros():
    e1 = abs(first_zero(0.5).j - math.pi)
    e2 = abs(first_zero(-0.5).j - math.pi / 2)
    report("3b", e1 <= 1e-9 and e2 <= 1e-9,
           f"|j_1/2 - pi| = {e1:.1e}, |j_-1/2 - pi/2| = {e2:.1e}")


def test_criterion_03c_j0_against_oracle():
    oracle = series_zero(0.0)
    got = first_zero(0.0).j
    ok = abs(got - oracle) < 1e-9 and abs(got - 2.404826) < 1e-6
    # reference prints 23.116 for the disk and 52.727 for the 4-ball; both
    # disagree with 4 j_nu^2 and are reported as deviations, not asserted
    dev2 = abs(flat_ball_sc(2, 1.0) - 23.116)
    dev4 = abs(flat_ball_sc(4, 1.0) - 52.727)
    report("3c", ok,
           f"j_0 = {got:.9f} (oracle {oracle:.9f}); reference deviations: "
           f"B^2 {dev2:.4f}, B^4 {dev4:.4f} (documented suspected misprints)")


# 4. enclosure ---------------------------------------------------------------

def test_criterion_04_enclosure():
    worst = math.inf
    for nu in (0.6, 1.0, 2.0, 3.0, 5.0, 10.0, 12.0):
        j = first_zero(nu).j
        lo, hi = qw_enclosure(nu)
        worst = min(worst, j - lo, hi - j)
    report("4", worst > 0, f"containment margin {worst:.4f} over nu in 0.6..12")


# 5. hyperbolic balls --------------------------------------------------------

HYP_GRID = 1500


def hyperbolic_gap_bounds(n: int) -> list[float]:
    """[lo, hi] with lo/r^2 <= lambda_1 - (n-1)^2/4 <= hi/r^2 on B^n_{-1}(r)."""
    return sorted((math.pi**2, first_zero(n / 2 - 1).j ** 2))


def hyperbolic_slack(n: int, r: float) -> float:
    """Absolute uncertainty of 4 lambda_1 from the two-grid certificate."""
    res = lambda1_beta(make_hyperbolic_ball(n, r), 0.0, HYP_GRID)
    return 4 * res.lambda1 * res.certificate


def test_criterion_05a_c_window_published():
    # with gap = lambda_1 - (n-1)^2/4, c(r) = 1 + 4 gap/(n-1)^2 - 1/r^2
    vals = {}
    worst = -math.inf
    lowest = math.inf
    for n in (2, 3, 4):
        k = (n - 1) ** 2
        lo, hi = hyperbolic_gap_bounds(n)
        for r in (1.0, 1.5, 2.0, 3.0, 8.0):
            c_lo, c_hi = 1 + (4 * lo / k - 1) / r**2, 1 + (4 * hi / k - 1) / r**2
            slack = hyperbolic_slack(n, r) / k
            c = hyperbolic_c(n, r, HYP_GRID)
            vals[(n, r)] = round(c, 3)
            worst = max(worst, c_lo - slack - c, c - c_hi - slack)
            lowest = min(lowest, c_lo)
    report("5a", worst <= 0,
           f"measured c(r) {vals} vs the proven window, worst excess "
           f"{worst:.1e}; the published window [1/6, 1] is refuted: every "
           f"proven lower bound is >= {lowest:.4f} > 1")


def test_criterion_05b_c20():
    c = hyperbolic_c(3, 20.0, 3000)
    report("5b", c > 0.9, f"c(20) = {c:.4f} for n=3")


def test_criterion_05c_positive_below_threshold():
    worst = math.inf
    for n in (2, 3, 4):
        r = 0.99 * positivity_threshold_radius(n)
        worst = min(worst, hyperbolic_sc(n, r, 1000))
    report("5c", worst > 0, f"min sc at 0.99*threshold = {worst:.3f}")


def test_criterion_05d_negative_at_r3_published():
    # sc = 4 lambda_1 - n(n-1) = 4 gap - (n-1): the lower bound is positive
    # at r = 3 and the upper bound negative at r = 8
    vals = {}
    worst = -math.inf
    signs_ok = True
    crossings = {}
    for n in (2, 3, 4):
        lo, hi = hyperbolic_gap_bounds(n)
        crossings[n] = tuple(round(2 * math.sqrt(b / (n - 1)), 3) for b in (lo, hi))
        for r, sign in ((3.0, 1), (8.0, -1)):
            sc_lo, sc_hi = 4 * lo / r**2 - (n - 1), 4 * hi / r**2 - (n - 1)
            slack = hyperbolic_slack(n, r)
            sc = hyperbolic_sc(n, r, HYP_GRID)
            vals[(n, r)] = round(sc, 3)
            worst = max(worst, sc_lo - slack - sc, sc - sc_hi - slack)
            signs_ok = signs_ok and sign * sc > 0
    report("5d", worst <= 0 and signs_ok,
           f"proven sign sc > 0 at r=3, sc < 0 at r=8 vs measured {vals}, "
           f"worst excess {worst:.1e}; crossing radii in {crossings}; the "
           f"published sign sc < 0 at r=3 is refuted (n=3 closed form gives "
           f"-2 + 4 pi^2/9 = {-2 + 4 * math.pi**2 / 9:.3f})")


# 6. quarter proposition -----------------------------------------------------

VARIATIONAL_CATALOG = [
    make_interval(0, 1),
    make_interval(0, 2),
    make_space_form_ball(2, 0, 1),
    make_space_form_ball(3, 0, 1),
    make_spherical_cap(2, math.pi / 2),
    make_spherical_cap(3, math.pi / 2),
    make_hyperbolic_ball(3, 1.0),
]


@pytest.mark.parametrize("man", VARIATIONAL_CATALOG, ids=lambda m: m.describe())
def test_criterion_06_majorization(man):
    rep = maximize(man, trials=200, seed=11, m=1024)
    bound = 0.01 * abs(rep.eigen_value)
    ok = rep.best_value <= rep.eigen_value + bound \
        and abs(rep.best_value - rep.eigen_value) <= bound
    report("6", ok,
           f"{man.describe()}: best {rep.best_value:.5f} vs 4*lam {rep.eigen_value:.5f} "
           f"over {rep.trials} trials (gap {rep.gap:.2e})")


# 7. warped formula ----------------------------------------------------------

def test_criterion_07a_eigenfunction_warp():
    worst_spread = 0.0
    worst_dev = 0.0
    # the hemisphere's samples from finite volumes: the n = 2 normal form's
    # put the warped quotient 9.5 % off at the first node
    for man, operator in ((make_interval(0, 1), discretize),
                          (make_spherical_cap(2, math.pi / 2), finite_volume_operator),
                          (make_space_form_ball(3, 0, 1), discretize)):
        res = first_eigenpair(operator(man, 0.5, 2048))
        fam = make_warping_family(man, [res.eigenfunction], 2048)
        vals = warped_sc(fam)
        target = 2 * res.lambda1
        worst_spread = max(worst_spread, (vals.max() - vals.min()) / abs(target))
        worst_dev = max(worst_dev, abs(float(np.mean(vals)) - target) / abs(target))
    report("7a", worst_spread < 0.01 and worst_dev < 0.01,
           f"N=1 warp: worst spread {worst_spread:.2e}, worst mean dev {worst_dev:.2e}")


def test_criterion_07b_geometric_mean():
    rng = np.random.default_rng(23)
    base = make_interval(0, 1)
    nodes = operator_grid(base, 512).nodes
    worst = math.inf
    for _ in range(100):
        N = int(rng.integers(2, 6))
        fam = make_warping_family(base, random_positive_family(nodes, N, rng), 512)
        diff = warped_sc(geometric_mean_reduce(fam)) - warped_sc(fam)
        worst = min(worst, float(diff.min()))
    report("7b", worst >= -1e-9,
           f"geometric-mean inequality over 100 families: min difference {worst:.2e}")


# 8. monotonicity ------------------------------------------------------------

def test_criterion_08_monotonicity():
    worst = math.inf
    for inner, outer in nested_pairs(29, 50):
        ri = sc_stab(inner, 600)
        ro = sc_stab(outer, 600)
        tol = 2 * (ri.certificate + ro.certificate) * max(
            abs(ri.sc_stab), abs(ro.sc_stab)) + 1e-8
        worst = min(worst, ri.sc_stab - ro.sc_stab + tol)
    seq = [r.sc_stab for r in
           exhaustion_limit(make_hyperbolic_ball(3, 8.0), [1, 2, 4, 8], 1200)]
    non_increasing = all(a >= b for a, b in zip(seq, seq[1:]))
    report("8", worst >= 0 and non_increasing,
           f"50 nested pairs min margin {worst:.2e}; exhaustion {[round(v, 3) for v in seq]}")


# 9. Ricci comparison --------------------------------------------------------

@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
def test_criterion_09a_comparison(kappa):
    worst = math.inf
    for case in admissible_catalog(kappa, 20, seed=31):
        a, b = compare_sc_stab(case, 600)
        worst = min(worst, a - b)
    report("9a", worst >= -1e-6,
           f"kappa={kappa:g}: 20 admissible profiles, min margin {worst:.3e}")


def test_criterion_09b_radius_round_trip():
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        kappa = float(rng.choice([-1.0, 0.0, 1.0]))
        r = rng.uniform(0.1, 0.95) * (math.pi if kappa > 0 else 3.0)
        mu = mean_curvature_of_ball(n, kappa, r)
        if kappa < 0 and mu <= (n - 1):
            continue
        worst = max(worst, abs(radius_from_mean_curvature(n, kappa, mu) - r) / r)
    report("9b", worst <= 1e-10, f"round-trip worst rel err {worst:.2e}")


# 10. Clifford additivity ----------------------------------------------------

def test_criterion_10a_additivity():
    rng = np.random.default_rng(42)
    worst = math.inf
    for _ in range(50):
        m = int(rng.choice([2, 3, 4]))
        rep = clifford.build_clifford(m)
        d1 = clifford.random_curvature(m, int(rng.integers(1, 5)), rng)
        d2 = clifford.random_curvature(m, int(rng.integers(1, 5)), rng)
        l1 = clifford.curvature_endomorphism(rep, d1).lambda_min
        l2 = clifford.curvature_endomorphism(rep, d2).lambda_min
        l12 = clifford.curvature_endomorphism(
            rep, clifford.tensor_curvature(d1, d2)).lambda_min
        worst = min(worst, l12 - (l1 + l2))
    report("10a", worst >= -1e-9, f"50 seeded instances, min margin {worst:.2e}")


def test_criterion_10b_line_bundle_closed_form():
    rep = clifford.build_clifford(2)
    worst = 0.0
    for c in (0.3, -1.7, 0.0015):
        data = clifford.make_curvature(2, 1, {(0, 1): np.array([[1j * c]])})
        lam = clifford.curvature_endomorphism(rep, data).lambda_min
        worst = max(worst, abs(lam + abs(c)))
    report("10b", worst <= 1e-10, f"m=2 line bundle closed form, worst dev {worst:.2e}")


def test_criterion_10c_partial_spectra():
    rng = np.random.default_rng(7)
    m, f1, f2 = 3, 2, 3
    rep = clifford.build_clifford(m)
    d1 = clifford.random_curvature(m, f1, rng)
    spec = np.linalg.eigvalsh(clifford.curvature_endomorphism(rep, d1).matrix)
    part = np.sort(clifford.partial_spectrum(rep, d1, f2, "first"))
    dev = float(np.max(np.abs(part - np.sort(np.repeat(spec, f2)))))
    report("10c", dev <= 1e-9, f"partial spectra multiplicity dev {dev:.2e}")


# 11. shift and scaling ------------------------------------------------------

def test_criterion_11_shift_and_scaling():
    hemi = make_spherical_cap(2, math.pi / 2)
    worst_shift = 0.0
    for beta in (0.25, 0.5, 1.0):
        shifted = lambda1_beta(hemi, beta, 600).lambda1
        base = lambda1_beta(hemi, 0.0, 600).lambda1
        worst_shift = max(worst_shift, abs(shifted - (base + 2 * beta)) / abs(shifted))
    hyp = make_hyperbolic_ball(3, 1.0)
    s1 = lambda1_beta(hyp, 0.25, 600).lambda1
    s0 = lambda1_beta(hyp, 0.0, 600).lambda1
    worst_shift = max(worst_shift, abs(s1 - (s0 - 6 / 4)) / abs(s1))

    t = 1.7
    worst_scale = 0.0
    for make in (lambda r: make_interval(0, r), lambda r: make_space_form_ball(2, 0, r)):
        l1 = sc_stab(make(1.0), 600).sc_stab
        lt = sc_stab(make(t), 600).sc_stab
        worst_scale = max(worst_scale, abs(lt - l1 / t**2) / (l1 / t**2))
    report("11", worst_shift <= 1e-11 and worst_scale < 1e-3,
           f"shift rel err {worst_shift:.2e} (machine precision), "
           f"scaling rel err {worst_scale:.2e}")
