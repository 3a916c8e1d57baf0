"""Seeded manifold specs for the benchmark workloads, with their closed forms.

Everything here is a pure function of the seed: the same seed yields the same
spec strings in the same order.  The program under test only ever sees these
strings (parsed by ``scx.cli.parse_spec`` or passed to the ``scx`` CLI).

Closed forms are the benchmark's own, written from the defining formulas and
independent of ``scx``:

    interval [a, b]          4 pi^2 / (b - a)^2
    flat n-ball, radius r    4 j_{n/2-1}^2 / r^2
    hemisphere S^n_+         n (n + 3)
    3-dim space-form ball    4 pi^2 / r^2 + 2 kappa   (caps: kappa = 1,
                                                       hypball: kappa = -1)
    product / box            sum over factors
"""

from __future__ import annotations

import math
import random

# Grid sizes of the solve sweep: log-uniform over [500, 2000], stratified per
# block; sc_stab(man, m) solves at m and at 2m, so the fine grids reach
# DEFAULT_GRID = 4000.  Discrete tiers would make the median jump between
# tiers from seed to seed, and grids this small fit four blocks in a run.
GRID_RANGE = (500, 2000)
SOLVES_PER_ROUND = 3
SINGLE_KINDS = ("interval", "ball", "curved_ball", "cap", "hemisphere", "hypball")
SWEEP_KINDS = ("interval", "box", "ball", "curved_ball", "cap", "hemisphere",
               "hypball", "product")
# kinds the CLI's closed_form method accepts (products of the last three too)
CLOSED_FORM_KINDS = ("interval", "box", "ball", "hemisphere", "product")
# The accepted radius range of hyperbolic balls is (0, MAX_RADIUS = 1e3];
# radii are log-uniform over [1e-2, 1e3], so the known overflow of
# sinh(r) for r > ~710 is drawn at its natural rate and counted as a failure.
HYP_R = (1e-2, 1e3)
# Rounds per block of the sweep's Latin square: each (kind, slot) pair once.
BLOCK_ROUNDS = len(SWEEP_KINDS)


def _round(x: float) -> float:
    return float(f"{x:.6g}")


def bessel_first_zero(nu: float) -> float:
    """First positive zero of J_nu, nu >= -1/2, by a sign scan and brentq."""
    from scipy.optimize import brentq
    from scipy.special import jv

    lo = 0.5 if nu < 0.5 else nu
    step = 0.05
    while jv(nu, lo + step) > 0:
        lo += step
    return float(brentq(lambda x: jv(nu, x), lo, lo + step, xtol=1e-15, rtol=1e-15))


class SpecGen:
    """Draws distinct specs; each returns (spec string, closed form or None).

    Every parameter comes from a named stream and is drawn by stratified
    (Latin hypercube) sampling: a stream drawn ``S`` times per block of the
    schedule splits its range into ``S`` equal strata and visits each once per
    block, in a seeded order, at a seeded point inside the stratum.  Each
    parameter keeps its distribution over the whole range, while every block
    covers that range evenly, so runs with different seeds do the same mix of
    work.  Streams not in ``strata`` use a single stratum (plain sampling).
    """

    def __init__(self, seed: int, strata: dict | None = None):
        self.rng = random.Random(seed)
        self.strata = strata or {}
        self.draws: dict[str, int] = {}
        self._queues: dict[str, list[int]] = {}
        self._hemi_dims = list(range(2, 65))
        self.rng.shuffle(self._hemi_dims)

    def _u(self, stream: str) -> float:
        self.draws[stream] = self.draws.get(stream, 0) + 1
        size = self.strata.get(stream, 1)
        queue = self._queues.get(stream)
        if not queue:
            queue = self._queues[stream] = list(range(size))
            self.rng.shuffle(queue)
        return (queue.pop() + self.rng.random()) / size

    def _uniform(self, stream: str, lo: float, hi: float) -> float:
        return _round(lo + (hi - lo) * self._u(stream))

    def _logu(self, stream: str, lo: float, hi: float) -> float:
        return _round(lo * (hi / lo) ** self._u(stream))

    def grid_size(self, slot: int) -> int:
        """Log-uniform over GRID_RANGE; slot j draws from the j-th third of
        the range, so every kind gets a low, a middle and a high grid."""
        lo, hi = GRID_RANGE
        u = (slot + self._u(f"grid.slot{slot}")) / SOLVES_PER_ROUND
        return round(lo * (hi / lo) ** u)

    def _int(self, stream: str, lo: int, hi: int) -> int:
        return lo + min(int(self._u(stream) * (hi - lo + 1)), hi - lo)

    def single(self, kind: str) -> tuple[str, float | None]:
        if kind == "interval":
            a = self._uniform("interval.a", -5.0, 5.0)
            b = _round(a + self._logu("interval.length", 0.05, 50.0))
            return f"interval:{a!r},{b!r}", 4 * math.pi**2 / (b - a) ** 2
        if kind == "ball":
            n = self._int("ball.n", 2, 8)
            r = self._logu("ball.r", 0.1, 10.0)
            return (f"ball:n={n},r={r!r}",
                    4 * bessel_first_zero(n / 2 - 1) ** 2 / r**2)
        if kind == "curved_ball":
            n = self._int("curved.n", 2, 5)
            sign = 1.0 if self._u("curved.sign") < 0.5 else -1.0
            kappa = sign * self._logu("curved.abs_kappa", 0.1, 4.0)
            frac = self._uniform("curved.r_fraction", 0.05, 0.95)
            r_neg = self._logu("curved.r", 0.05, 5.0)
            r = _round(frac * math.pi / math.sqrt(kappa)) if kappa > 0 else r_neg
            cf = 4 * math.pi**2 / r**2 + 2 * kappa if n == 3 else None
            return f"ball:n={n},r={r!r},kappa={kappa!r}", cf
        if kind == "hemisphere" and self._hemi_dims:
            n = self._hemi_dims.pop()
            return f"hemisphere:n={n}", float(n * (n + 3))
        if kind in ("cap", "hemisphere"):
            # hemisphere dimensions are drawn without replacement; once they
            # run out, a cap keeps every spec distinct
            n = self._int("cap.n", 2, 5)
            angle = self._uniform("cap.angle", 0.2, 3.0)
            cf = 4 * math.pi**2 / angle**2 + 2.0 if n == 3 else None
            return f"cap:n={n},angle={angle!r}", cf
        if kind == "hypball":
            n = self._int("hypball.n", 2, 5)
            r = self._logu("hypball.r", *HYP_R)
            cf = 4 * math.pi**2 / r**2 - 2.0 if n == 3 else None
            return f"hypball:n={n},r={r!r}", cf
        raise ValueError(f"unknown kind {kind!r}")

    def spec(self, kind: str, slot: int = 0,
             factor_kinds=SINGLE_KINDS) -> tuple[str, float | None]:
        """A spec of ``kind``; for boxes and products the slot fixes the
        number of factors (2 or 3) and the factor kinds."""
        fan = factor_count(kind, slot)
        if kind == "box":
            sides = [self._logu("box.side", 0.1, 10.0) for _ in range(fan)]
            cf = sum(4 * math.pi**2 / s**2 for s in sides)
            return "box:" + ",".join(repr(s) for s in sides), cf
        if kind == "product":
            parts = [self.single(factor_kinds[(2 * slot + f) % len(factor_kinds)])
                     for f in range(fan)]
            cfs = [cf for _, cf in parts]
            cf = None if None in cfs else sum(cfs)
            return "product:" + "x".join(f"({s})" for s, _ in parts), cf
        return self.single(kind)


def factor_count(kind: str, slot: int) -> int:
    return 2 + slot % 2 if kind in ("box", "product") else 1


def _stratified(seed: int, build, rounds: int, block: int) -> list:
    """Run ``build(gen, i)`` for each round, with strata sized by one block."""
    dry = SpecGen(seed)
    for i in range(block):
        build(dry, i)
    gen = SpecGen(seed, strata=dry.draws)
    return [build(gen, i) for i in range(rounds)]


def sweep_rounds(seed: int, rounds: int) -> list[list[dict]]:
    """Rounds of three solves in a seeded order.

    Kinds follow a fixed Latin square: slot j of round i gets kind
    SWEEP_KINDS[(i + j) % 8], so every block of eight rounds holds each
    (kind, slot) pair exactly once; the slot fixes the factor count of boxes
    and products.  The seed draws every parameter and grid size (stratified
    per block) and the order within a round, so each block does the same mix
    of work whatever the seed.
    """
    def build(gen, i):
        ops = []
        for j in range(SOLVES_PER_ROUND):
            kind = SWEEP_KINDS[(i + j) % len(SWEEP_KINDS)]
            spec, cf = gen.spec(kind, slot=j)
            # boxes and products solve every factor at m: the grid is split
            # among the factors so that every spec costs about the same
            ops.append({"spec": spec, "m": gen.grid_size(j) // factor_count(kind, j),
                        "closed_form": cf})
        gen.rng.shuffle(ops)
        return ops

    return _stratified(seed, build, rounds, BLOCK_ROUNDS)


def cli_rounds(seed: int, rounds: int) -> list[list[dict]]:
    """Fresh-process CLI invocations: one table and one variational call first,
    then rounds of four closed-form calls and one default-grid eigensolve.

    Closed-form calls are the majority so that the median invocation is the
    import-dominated one; the eigensolve specs come from the whole sweep
    catalog, hyperbolic radii included.
    """
    def build(gen, i):
        ops = []
        for j in range(4):
            spec, cf = gen.spec(CLOSED_FORM_KINDS[(4 * i + j) % 5], slot=j,
                                factor_kinds=("interval", "ball", "hemisphere"))
            fmt = ["--csv"] if j % 2 else ["--json"]
            ops.append({"args": ["compute", spec, "--method", "closed_form"] + fmt,
                        "method": "closed_form", "closed_form": cf})
        spec, cf = gen.spec(SWEEP_KINDS[i % len(SWEEP_KINDS)], slot=i)
        fmt = ["--csv"] if i % 2 else ["--json"]
        ops.append({"args": ["compute", spec] + fmt, "method": "eigensolve",
                    "closed_form": cf})
        return ops

    var_spec, var_cf = SpecGen(seed + 7_919).spec("hemisphere")
    first = [
        {"args": ["table", "--csv"], "method": "table", "closed_form": None},
        {"args": ["compute", var_spec, "--method", "variational", "--seed", str(seed)],
         "method": "variational", "closed_form": var_cf},
    ]
    return [first] + _stratified(seed, build, rounds, BLOCK_ROUNDS)
