#!/usr/bin/env python3
"""Record end-to-end benchmark medians in BENCH_<pr>.json at the repo root.

    python3 scripts/bench_record.py --pr 8 --base HEAD~1 --seeds 71 72 73

Runs ``python3 perfbench/run.py --workload all --seconds 15 --trace 0`` and
the tier-1 test suite once per seed in the working tree ("change") and in a
``git archive`` export of the ``--base`` revision ("parent"); the two sides
alternate, and which runs first alternates from seed to seed, so that drift
in the machine's speed reaches both alike.  The run length is fixed so that every BENCH file is
comparable with the others.  For each side the file holds the commit, the
``src/scx`` line count, every run's end-to-end metrics and their
per-workload medians and quartiles, the raw (unscaled) wall-time figures
of each ``cli-cold`` run with their medians, and the wall time and exit code
of each tier-1 run with the median time; it also counts, per metric, the
seeds on which the change read better than the parent (``better`` from
BENCHMARK.json).  After the pairs, each side makes one ``--trace 1`` run at
the first seed, and the file keeps its per-layer metrics (``trace``), so
that it shows in which layer a workload's time moved.  Last,
``scripts/ab_inprocess.py`` times the two sides in one process on the
``solve-sweep`` operations of the first seed, and the file keeps its summary
(``ab_inprocess``): the median per-operation time ratio, change over parent,
with its bootstrap interval.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 15.0
AB_SECONDS = 30.0
# raw wall-time figures copied from each cli-cold run's results details
CLI_RAW = ("cli_closed_form_ms_p50", "cli_eigensolve_ms_p50", "cli_variational_ms",
           "table_s", "raw_op_ms_p50", "raw_op_ms_tail")
# the tier-1 suite as ROADMAP.md states it; no cache directory is written
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def git(*args: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, **kw)


def src_lines(checkout: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(checkout, "src", "scx")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_bench(checkout: str, seed: int, trace: int = 0) -> dict:
    """{workload: {metric: value}} from one ``run.py --workload all`` run:
    the end-to-end metrics, or with ``trace`` the per-layer ones."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    out: dict = {}
    for key, entry in metrics.items():
        workload, name = key.split(".", 1)
        out.setdefault(workload, {})[name] = entry["value"]
    return out


def cli_raw(checkout: str, seed: int) -> dict:
    """The CLI_RAW figures of the cli-cold run that run_bench just made."""
    path = os.path.join(checkout, "perfbench", "results",
                        f"cli-cold-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        details = json.load(fh)["details"]
    return {name: details[name] for name in CLI_RAW}


def run_tier1(checkout: str) -> dict:
    """Wall time and exit code of one tier-1 run in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - start, "exit_code": proc.returncode,
            "summary": (proc.stdout.strip().splitlines() or [""])[-1]}


def run_ab(commit: str, seed: int) -> dict:
    """The summary of one in-process A/B of ``commit`` against the working
    tree; it holds the exit code, non-zero when a pass turned into a fail or
    a value left its certificate."""
    cmd = [sys.executable, os.path.join(ROOT, "scripts", "ab_inprocess.py"), commit, ".",
           "--workload", "solve-sweep", "--seconds", str(AB_SECONDS), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {**json.loads(lines[-1]), "exit_code": proc.returncode}


def summary(runs: list[dict], stat) -> dict:
    return {wl: {name: stat([run[wl][name] for run in runs]) for name in metrics}
            for wl, metrics in runs[0].items()}


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return [q1, q3]


def wins(parent: list[dict], change: list[dict]) -> dict:
    """Per workload and metric, the seeds on which the change read better."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        lower = {m["name"]: m["better"] == "lower"
                 for m in json.load(fh)["end_to_end"]}
    return {wl: {name: sum((c[wl][name] < p[wl][name]) if lower[name]
                           else (c[wl][name] > p[wl][name])
                           for p, c in zip(parent, change))
                 for name in metrics}
            for wl, metrics in change[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--base", required=True,
                        help="git revision to measure as the parent")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        commit = git("rev-parse", args.base, text=True).stdout.strip()
        with tarfile.open(fileobj=io.BytesIO(git("archive", commit).stdout)) as tar:
            tar.extractall(tmp)
        sides = {"parent": {"checkout": tmp, "commit": commit, "dirty": False},
                 "change": {"checkout": ROOT,
                            "commit": git("rev-parse", "HEAD", text=True).stdout.strip(),
                            "dirty": bool(git("status", "--porcelain", "--untracked-files=no",
                                              text=True).stdout.strip())}}
        for side in sides.values():
            side["src_scx_lines"] = src_lines(side["checkout"])
            side["runs"], side["cli_cold_raw"], side["tier1"] = [], [], []
        for i, seed in enumerate(args.seeds):
            for name in list(sides)[::1 if i % 2 == 0 else -1]:
                print(f"seed {seed}: {name}", file=sys.stderr, flush=True)
                sides[name]["runs"].append(
                    run_bench(sides[name]["checkout"], seed))
                sides[name]["cli_cold_raw"].append(
                    cli_raw(sides[name]["checkout"], seed))
                sides[name]["tier1"].append(run_tier1(sides[name]["checkout"]))
        for name, side in sides.items():
            print(f"seed {args.seeds[0]}: {name}, traced", file=sys.stderr, flush=True)
            side["trace"] = run_bench(side["checkout"], args.seeds[0], trace=1)
        print(f"seed {args.seeds[0]}: in-process A/B", file=sys.stderr, flush=True)
        ab = run_ab(commit, args.seeds[0])
    for side in sides.values():
        del side["checkout"]
        side["medians"] = summary(side["runs"], median)
        side["quartiles"] = summary(side["runs"], quartiles)
        side["cli_cold_raw_medians"] = {
            name: median(run[name] for run in side["cli_cold_raw"]) for name in CLI_RAW}
        side["tier1_wall_s_median"] = median(run["wall_s"] for run in side["tier1"])
    sides["change_wins"] = wins(sides["parent"]["runs"], sides["change"]["runs"])

    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"command": "python3 perfbench/run.py --workload all --trace 0",
                   "trace_command": "python3 perfbench/run.py --workload all --trace 1",
                   "seeds": args.seeds, "trace_seed": args.seeds[0],
                   "seconds": SECONDS, **sides, "ab_inprocess": ab},
                  fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
