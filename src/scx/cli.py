"""Command-line front end: parse manifold specs, compute, tabulate, verify.

Spec grammar (whitespace-insensitive):

    interval:a,b
    box:s1,s2,...
    ball:n=2,r=1[,kappa=0]
    hemisphere:n=2
    cap:n=2,angle=1.0
    hypball:n=3,r=2
    product:(SPEC)x(SPEC)[x(SPEC)...]

Exit codes: 0 success, 2 parse/parameter error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

from . import comparison, variational
from .bessel import closed_form
from .errors import (
    InvalidParameterError,
    NumericalFailureError,
    SpecSyntaxError,
)
from .geometry import (
    Kind,
    ModelManifold,
    make_box,
    make_hyperbolic_ball,
    make_interval,
    make_space_form_ball,
    make_spherical_cap,
    product,
)
from .spectral import DEFAULT_GRID, DEFAULT_TOL, lambda1_beta, sc_stab
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

# Published table values for the flat-ball vs hemisphere comparison; the
# n=2 and n=4 ball entries disagree with 4 j_nu^2 (suspected truncation of
# j_0 and a misprinted j_1); deviations are reported, not matched.
REFERENCE_BALL = {2: 23.116, 3: 36.0, 4: 52.727, 8: 162.827}
REFERENCE_BALL_NOTE = {2: "reference truncates j_0", 3: "reference is a lower bound",
                       4: "reference misprints j_1", 8: ""}
REFERENCE_HEMISPHERE = {2: 10.0, 3: 18.0, 4: 28.0, 8: 88.0}


@dataclass(frozen=True)
class ManifoldSpec:
    source: str
    manifold: ModelManifold
    grid: int
    beta: float
    tol: float


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise SpecSyntaxError(f"expected {ch!r}, found {found!r}", self.pos)
        self.pos += 1

    def ident(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise SpecSyntaxError("expected a name", start)
        return self.text[start:self.pos]

    def number(self) -> float:
        self._skip_ws()
        start = self.pos
        allowed = set("0123456789+-.eE")
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            # stop a sign that begins a new token rather than an exponent
            if self.text[self.pos] in "+-" and self.pos > start \
                    and self.text[self.pos - 1] not in "eE":
                break
            self.pos += 1
        token = self.text[start:self.pos]
        try:
            return float(token)
        except ValueError:
            raise SpecSyntaxError(f"expected a number, found {token!r}", start) from None

    def at_end(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text)


def _parse_numbers(sc: _Scanner) -> list[float]:
    vals = [sc.number()]
    while sc.peek() == ",":
        sc.expect(",")
        vals.append(sc.number())
    return vals


def _parse_kv(sc: _Scanner, allowed: dict[str, bool]) -> dict[str, float]:
    """key=value pairs; `allowed` maps key -> required."""
    got: dict[str, float] = {}
    while True:
        pos = sc.pos
        key = sc.ident()
        if key not in allowed:
            raise SpecSyntaxError(
                f"unknown key {key!r}; expected one of {sorted(allowed)}", pos)
        sc.expect("=")
        got[key] = sc.number()
        if sc.peek() != ",":
            break
        sc.expect(",")
    missing = [k for k, req in allowed.items() if req and k not in got]
    if missing:
        raise SpecSyntaxError(f"missing required key(s) {missing}", sc.pos)
    return got


def _parse_manifold(sc: _Scanner) -> ModelManifold:
    pos = sc.pos
    kind = sc.ident()
    sc.expect(":")
    if kind == "interval":
        vals = _parse_numbers(sc)
        if len(vals) != 2:
            raise SpecSyntaxError(f"interval takes 2 endpoints, got {len(vals)}", pos)
        return make_interval(*vals)
    if kind == "box":
        return make_box(_parse_numbers(sc))
    if kind == "ball":
        kv = _parse_kv(sc, {"n": True, "r": True, "kappa": False})
        return make_space_form_ball(kv["n"], kv.get("kappa", 0.0), kv["r"])
    if kind == "hemisphere":
        kv = _parse_kv(sc, {"n": True})
        return make_spherical_cap(kv["n"], math.pi / 2)
    if kind == "cap":
        kv = _parse_kv(sc, {"n": True, "angle": True})
        return make_spherical_cap(kv["n"], kv["angle"])
    if kind == "hypball":
        kv = _parse_kv(sc, {"n": True, "r": True})
        return make_hyperbolic_ball(kv["n"], kv["r"])
    if kind == "product":
        factors = []
        while True:
            sc.expect("(")
            factors.append(_parse_manifold(sc))
            sc.expect(")")
            if sc.peek().lower() != "x":
                if len(factors) < 2:
                    raise SpecSyntaxError(
                        "product needs at least two 'x'-separated factors", sc.pos)
                break
            sc.pos += 1
        return product(factors)
    raise SpecSyntaxError(f"unknown manifold kind {kind!r}", pos)


def parse_spec(
    text: str,
    grid: int = DEFAULT_GRID,
    beta: float = 0.25,
    tol: float = DEFAULT_TOL,
) -> ManifoldSpec:
    sc = _Scanner(text)
    man = _parse_manifold(sc)
    if not sc.at_end():
        raise SpecSyntaxError("trailing characters after manifold spec", sc.pos)
    return ManifoldSpec(source=text, manifold=man, grid=grid, beta=beta, tol=tol)


def render(man: ModelManifold) -> str:
    """Canonical spec string; parse(render(m)) reproduces m exactly."""
    if man.kind == Kind.INTERVAL:
        a, b = man.params
        return f"interval:{a!r},{b!r}"
    if man.kind == Kind.BOX:
        return "box:" + ",".join(repr(s) for s in man.params)
    if man.kind == Kind.SPACE_FORM_BALL:
        n, kappa, r = man.params
        extra = f",kappa={kappa!r}" if kappa != 0 else ""
        return f"ball:n={n},r={r!r}{extra}"
    if man.kind == Kind.SPHERICAL_CAP:
        n, angle = man.params
        if angle == math.pi / 2:
            return f"hemisphere:n={n}"
        return f"cap:n={n},angle={angle!r}"
    if man.kind == Kind.HYPERBOLIC_BALL:
        n, r = man.params
        return f"hypball:n={n},r={r!r}"
    if man.kind == Kind.PRODUCT:
        return "product:" + "x".join(f"({render(f)})" for f in man.factors)
    raise InvalidParameterError(f"manifold kind {man.kind} has no spec rendering")


def _fmt(x: float | None) -> str | None:
    return None if x is None else f"{x:.6g}"


def compute_report(ms: ManifoldSpec, method: str, seed: int) -> dict:
    man = ms.manifold
    report = {
        "manifold": render(man),
        "kind": man.kind.value,
        "dim": man.dim,
        "method": method,
        "beta": ms.beta,
    }
    if method != "eigensolve" and ms.beta != 0.25:
        raise InvalidParameterError(
            f"method {method!r} computes sc at beta = 0.25 only, got beta = {ms.beta:g}"
        )
    if method == "eigensolve":
        res = lambda1_beta(man, ms.beta, ms.grid, ms.tol)
        report.update({
            "grid": res.grid_size,
            "lambda1": res.lambda1,
            "sc_stab": res.sc_stab,
            "richardson": res.richardson_estimate,
            "certificate": res.certificate,
            "sc_stab_display": _fmt(res.sc_stab),
        })
        if man.kind == Kind.HYPERBOLIC_BALL:
            n, r = man.params
            lam0 = res.lambda1 + res.beta * n * (n - 1)  # beta * sigma = -beta n(n-1)
            c = comparison.hyperbolic_c_from_lambda(n, r, lam0)
            report["c_r"] = c
            report["c_r_proven_window"] = list(comparison.hyperbolic_c_window(n, r))
            report["c_r_reference_window"] = [1.0 / 6.0, 1.0]
            report["within_reference_window"] = bool(1 / 6 <= c <= 1)
    elif method == "closed_form":
        lam = closed_form(man)
        sc = 4.0 * lam
        report.update({
            "sc_stab": sc,
            "lambda1": lam,
            "grid": None,
            "sc_stab_display": _fmt(sc),
        })
    elif method == "variational":
        rep = variational.maximize(man, trials=200, seed=seed, m=max(ms.grid // 4, 512))
        report.update({
            "sc_stab": rep.best_value,
            "eigen_value": rep.eigen_value,
            "gap": rep.gap,
            "trials": rep.trials,
            "seed": seed,
            "sc_stab_display": _fmt(rep.best_value),
        })
    else:
        raise InvalidParameterError(f"unknown method {method!r}")
    return report


def table_rows(grid: int = DEFAULT_GRID) -> list[dict]:
    rows = []
    for n in (2, 3, 4, 8):
        ball, hemi = make_space_form_ball(n, 0.0, 1.0), make_spherical_cap(n, math.pi / 2)
        ball_closed = 4.0 * closed_form(ball)
        ball_solved = sc_stab(ball, grid).sc_stab
        hemi_closed = 4.0 * closed_form(hemi)
        hemi_solved = sc_stab(hemi, grid).sc_stab
        ref = REFERENCE_BALL[n]
        deviation = abs(ball_closed - ref)
        rows.append({
            "n": n,
            "ball_closed_form": ball_closed,
            "ball_eigensolve": ball_solved,
            "hemisphere_closed_form": hemi_closed,
            "hemisphere_eigensolve": hemi_solved,
            "reference_ball": ref,
            "reference_hemisphere": REFERENCE_HEMISPHERE[n],
            "ball_deviation": deviation,
            "note": REFERENCE_BALL_NOTE[n],
        })
    return rows


def _emit_csv(rows: list[dict], stream) -> None:
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()),
                            lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def _default_grid() -> int:
    env = os.environ.get("SCX_GRID")
    if env is None:
        return DEFAULT_GRID
    try:
        return int(env)
    except ValueError:
        raise InvalidParameterError(f"SCX_GRID must be an integer, got {env!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scx",
        description="Stabilized scalar curvature of model manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute sc for manifold specs")
    p_compute.add_argument("specs", nargs="*", help="manifold specs")
    p_compute.add_argument("--file", help="file with one spec per line (# comments)")
    p_compute.add_argument("--method", default="eigensolve",
                           choices=("eigensolve", "closed_form", "variational"))
    p_compute.add_argument("--grid", type=int, default=None)
    p_compute.add_argument("--beta", type=float, default=0.25)
    p_compute.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_compute.add_argument("--seed", type=int, default=0)
    fmt = p_compute.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--csv", dest="as_csv", action="store_true")

    p_table = sub.add_parser("table", help="ball vs hemisphere comparison table")
    p_table.add_argument("--grid", type=int, default=None)
    tfmt = p_table.add_mutually_exclusive_group()
    tfmt.add_argument("--csv", dest="as_csv", action="store_true", default=True)
    tfmt.add_argument("--json", dest="as_json", action="store_true")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--grid", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    return parser


def _cmd_compute(args) -> int:
    grid = args.grid if args.grid is not None else _default_grid()
    specs = list(args.specs)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    specs.append(line)
    if not specs:
        print("no manifold specs given", file=sys.stderr)
        return EXIT_PARSE
    reports = []
    for text in specs:
        ms = parse_spec(text, grid=grid, beta=args.beta, tol=args.tol)
        reports.append(compute_report(ms, args.method, args.seed))
    if getattr(args, "as_csv", False):
        cols = ["manifold", "method", "dim", "sc_stab", "lambda1", "grid", "beta"]
        rows = [{c: r.get(c) for c in cols} for r in reports]
        _emit_csv(rows, sys.stdout)
    else:
        print(json.dumps(reports, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_table(args) -> int:
    grid = args.grid if args.grid is not None else _default_grid()
    rows = table_rows(grid)
    if getattr(args, "as_json", False):
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        _emit_csv(rows, sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed, grid=args.grid)
    if args.json:
        payload = [
            {"suite": r.suite, "check": r.name, "passed": r.passed,
             "margin": r.margin, "detail": r.detail}
            for r in results
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            detail = f" ({r.detail})" if r.detail else ""
            print(f"[{status}] {r.suite}/{r.name}: margin {r.margin:+.3e}{detail}")
        failed = sum(not r.passed for r in results)
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_verify(args)
    except (SpecSyntaxError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}; details: {exc.details}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
