#!/usr/bin/env python3
"""Time two revisions of scx against each other in one process.

    python3 scripts/ab_inprocess.py HEAD~1 HEAD --workload solve-sweep --seconds 30
    python3 scripts/ab_inprocess.py HEAD . --workload verify

Each of REV_A and REV_B is a git revision, unpacked with ``git archive``
into a temporary directory, or a directory that holds ``src/scx`` (``.`` is
the working tree).  Both copies are imported side by side, as the packages
``scx_ab_a`` and ``scx_ab_b``; scx binds LAPACK and BLAS from scipy's
modules by their full names, so both call the same routines.

The operations come from ``perfbench/specgen.py`` at ``--seed``:

* ``solve-sweep``: ``sc_stab(man, m)`` on the distinct specs of
  ``specgen.sweep_rounds``, each package with its own cold solve cache;
* ``verify``: ``verify.run_suite(suite, seed)``, suite by suite and seed by
  seed from ``--seed`` on.

Every operation runs on both sides back to back, A first on even operations
and B first on odd ones, until ``--seconds`` of operation time have passed.
The script prints the median of the per-operation time ratios B/A with a
bootstrap 95 % interval (2000 resamples of the operations, seeded), and as
its last line the same numbers as one JSON object.

It exits 1 if an operation that passed at REV_A fails at REV_B, or if a
value moves by more than REV_A's reported bound: on ``solve-sweep``, sc and
the Richardson estimate by more than the relative certificate times |sc|;
on ``verify``, a check that passed at A and fails at B.  The timing is
reported, never gated.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import specgen  # noqa: E402

BOOTSTRAP = 2000


def checkout(rev: str, tmp: str, label: str) -> str:
    """A directory holding ``src/scx`` at ``rev``."""
    if os.path.isdir(os.path.join(rev, "src", "scx")):
        return os.path.abspath(rev)
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    dest = os.path.join(tmp, label)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def load(root: str, name: str):
    """The package ``src/scx`` under ``root``, imported as ``name``, with
    the submodules the workloads use."""
    pkg_dir = os.path.join(root, "src", "scx")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "verify"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def sweep_ops(seed: int):
    """(label, prepare, call) per solve: ``call(pkg, prepare(pkg))`` is the
    timed operation, and returns its values or raises."""
    def solve(pkg, man, m):
        res = pkg.sc_stab(man, m)
        return {"sc": res.sc_stab, "richardson": res.richardson_estimate,
                "certificate": res.certificate}

    while True:
        for rnd in specgen.sweep_rounds(seed, 1000):
            for op in rnd:
                yield (f'{op["spec"]} m={op["m"]}',
                       lambda pkg, spec=op["spec"]: pkg.cli.parse_spec(spec).manifold,
                       lambda pkg, man, m=op["m"]: solve(pkg, man, m))
        seed += 1  # past the prepared rounds: the next seed's specs


def verify_ops(seed: int, suites: list[str]):
    def check(pkg, suite, s):
        return {"checks": [(r.name, r.passed) for r in pkg.verify.run_suite(suite, seed=s)]}

    while True:
        for suite in suites:
            yield (f"verify {suite} seed={seed}", lambda pkg: None,
                   lambda pkg, _, suite=suite, s=seed: check(pkg, suite, s))
        seed += 1


def timed(pkg, prepare, call):
    """(seconds, values, error) of one operation on one side."""
    t0 = 0.0
    try:
        arg = prepare(pkg)
        t0 = time.perf_counter()
        out, err = call(pkg, arg), None
    except Exception as exc:  # recorded, compared, never raised
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


def regression(workload: str, a, b) -> str | None:
    """Why the B side of one operation is worse than its A side, or None."""
    (_, out_a, err_a), (_, out_b, err_b) = a, b
    if err_a is not None:
        return None
    if err_b is not None:
        return f"passed at A, fails at B: {err_b}"
    if workload == "verify":
        if [name for name, _ in out_a["checks"]] != [name for name, _ in out_b["checks"]]:
            return "the checks differ"
        lost = [name for (name, ok_a), (_, ok_b) in zip(out_a["checks"], out_b["checks"])
                if ok_a and not ok_b]
        return f"checks passed at A fail at B: {lost}" if lost else None
    bound = out_a["certificate"] * abs(out_a["sc"])
    for key in ("sc", "richardson"):
        if not abs(out_b[key] - out_a[key]) <= bound:
            return f"{key} moved from {out_a[key]!r} to {out_b[key]!r}, bound {bound:.3g}"
    return None


def bootstrap_median(ratios: list[float], seed: int = 0) -> tuple[float, float]:
    """A 95 % percentile-bootstrap interval for the median of ``ratios``."""
    rng = random.Random(seed)
    n = len(ratios)
    meds = sorted(median(rng.choices(ratios, k=n)) for _ in range(BOOTSTRAP))
    return meds[int(0.025 * BOOTSTRAP)], meds[int(0.975 * BOOTSTRAP) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", choices=("solve-sweep", "verify"), required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="operation time to spend, both sides together")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        pkgs = [load(checkout(rev, tmp, side), f"scx_ab_{side}")
                for rev, side in ((args.rev_a, "a"), (args.rev_b, "b"))]
        for pkg in pkgs:  # lazy imports and set-up, not timed
            pkg.sc_stab(pkg.make_interval(0.0, 0.3183), 64)
        if args.workload == "solve-sweep":
            ops = sweep_ops(args.seed)
        else:
            ops = verify_ops(args.seed, [s for s in pkgs[0]._constants.SUITES if s != "all"])
        times_a, times_b, ratios, bad = [], [], [], []
        spent, count = 0.0, 0
        while spent < args.seconds or count < 2:
            label, prepare, call = next(ops)
            order = (0, 1) if count % 2 == 0 else (1, 0)
            got = [None, None]
            for side in order:
                got[side] = timed(pkgs[side], prepare, call)
            count += 1
            spent += got[0][0] + got[1][0]
            why = regression(args.workload, *got)
            if why:
                bad.append(f"{label}: {why}")
            if got[0][1] is not None and got[1][1] is not None:
                times_a.append(got[0][0])
                times_b.append(got[1][0])
                ratios.append(got[1][0] / got[0][0])
    if not ratios:
        sys.exit("no operation passed on both sides")
    lo, hi = bootstrap_median(ratios)
    summary = {
        "workload": args.workload, "rev_a": args.rev_a, "rev_b": args.rev_b,
        "seed": args.seed, "ops": count, "timed_ops": len(ratios),
        "median_ratio": median(ratios), "ci95": [lo, hi],
        "p50_ms_a": 1e3 * median(times_a), "p50_ms_b": 1e3 * median(times_b),
        "regressions": len(bad),
    }
    for line in bad:
        print("REGRESSION", line)
    print(f"{args.workload}: {len(ratios)} operations timed of {count}; "
          f"p50 {summary['p50_ms_a']:.3f} ms (A) vs {summary['p50_ms_b']:.3f} ms (B); "
          f"median per-op ratio B/A {summary['median_ratio']:.3f} "
          f"(bootstrap 95 % interval {lo:.3f}-{hi:.3f}); "
          f"{len(bad)} regression(s)")
    print(json.dumps(summary))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
