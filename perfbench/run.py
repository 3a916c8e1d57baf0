"""scx benchmark: three seeded workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it uses the sources in ``src/`` and
writes only under ``perfbench/results/``.  Workloads (closed loops, one
caller, one process at a time):

* ``solve-sweep``: in-process ``scx.sc_stab(man, m)`` on distinct seeded
  specs of every kind, grids of 500 to 2000 (specgen.py); the solve cache is
  never reused, and the eigensolve is nearly all of the time.
* ``verify-all``: ``scx.verify.run_suite("all", seed)``, one pass per fresh
  process; many small grids with repeated specs, so cache reuse matters and
  the non-spectral layers show.
* ``cli-cold``: fresh ``scx`` processes: one ``table``, one variational
  ``compute``, then rounds of four closed-form calls and one default-grid
  eigensolve; import time dominates the median call.

Times are scaled to a reference CPU speed (speed.py), and each run holds
the whole number of blocks, passes or rounds closest to ``--seconds`` at
that speed.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the workload with spans around every public scx function and adds the layer
sweep, the per-suite verify times and ``-X importtime``, and prints the
per-layer metrics.  The last line of standard output is the JSON result; a
results file with provenance and details goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import specgen  # noqa: E402
import speed  # noqa: E402
from summary import closest_count_reached, tail  # noqa: E402

WORKLOADS = ("solve-sweep", "verify-all", "cli-cold")
DOCUMENTED_EXIT = (0, 2, 3, 4)
SETUP_REPEATS = 3
DEADLINE_S = 170.0
# sc_stab reports certificate = |lam(m) - lam(2m)| / |lam(2m)|; an error above
# certificate * |sc| is "uncertified", one above ten times that is wrong,
# matching the library's own 10 * tol failure threshold.
CHECK_FACTOR = 10.0
ABS_FLOOR = 1e-9
CLI_TOL = 1e-3  # the CLI's default --tol; CSV output carries no certificate



class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Bench:
    def __init__(self, root: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = os.path.join(root, "perfbench", "results")
        os.makedirs(self.out_dir, exist_ok=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.threads = str(min(2, len(os.sched_getaffinity(0))))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = self.threads

    # ------------------------------------------------------------ processes

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion; wall time, exit code, stdout, peak RSS."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        out_path, err_path = self.path("child.out"), self.path("child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if proc.returncode == -9 and time.monotonic() >= self.deadline:
            raise BenchError(f"child exceeded the time budget: {argv[:4]}")
        return {"code": proc.returncode, "wall_s": wall, "stdout": stdout,
                "stderr": stderr, "rss_mb": usage.ru_maxrss / 1024.0}

    def child(self, *args: str) -> dict:
        """A child.py batch that must succeed."""
        res = self.spawn([sys.executable, os.path.join(HERE, "child.py"), *args])
        if res["code"] != 0:
            raise BenchError(f"child {args[0]} exited {res['code']}:\n"
                             + res["stderr"][-2000:])
        return res

    @staticmethod
    def load(path: str):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    # ------------------------------------------------------------ set-up

    def setup_s(self) -> float:
        """Median cold ``import scx`` over fresh interpreters; the median also
        drops the first import of a fresh checkout, which writes bytecode."""
        return median(float(self.child("import")["stdout"]) for _ in range(SETUP_REPEATS))

    def import_metrics(self) -> dict:
        """Import time per package from ``-X importtime``, median of 3."""
        wanted = {"scx": "import.scx_ms", "scipy.special": "import.scipy_special_ms",
                  "scipy.integrate": "import.scipy_integrate_ms",
                  "scipy.linalg": "import.scipy_linalg_ms"}
        runs = {key: [] for key in wanted.values()}
        for _ in range(3):
            res = self.spawn([sys.executable, "-X", "importtime", "-c", "import scx"])
            if res["code"] != 0:
                raise BenchError("import scx failed:\n" + res["stderr"][-2000:])
            entries = parse_importtime(res["stderr"])
            for pkg, key in wanted.items():
                runs[key].append(package_ms(entries, pkg))
        return {key: median(vals) for key, vals in runs.items()}

    # ------------------------------------------------------------ workloads

    def solve_sweep(self) -> dict:
        rounds = specgen.sweep_rounds(self.seed, 1000)
        # the child stops only between whole blocks of the Latin square, so
        # every run does the same mix of kinds and grid sizes
        step = specgen.BLOCK_ROUNDS
        blocks = [sum(rounds[b:b + step], []) for b in range(0, len(rounds), step)]
        ops_path = self.path("sweep-ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump([[{"spec": o["spec"], "m": o["m"]} for o in blk] for blk in blocks], fh)
        out_path = self.path("sweep-out.json")
        span_args = ["--spans", self.path("spans-solve-sweep.json")] if self.trace else []
        res = self.child("sweep", ops_path, out_path, str(self.seconds), *span_args)
        ops = self.load(out_path)["ops"]
        expected = [o for r in rounds for o in r][:len(ops)]
        for op, exp in zip(ops, expected):
            check_solve(op, exp["closed_form"])
        ok = [o for o in ops if o["ok"]]
        with_cf = [o for o in ops if "rel_err" in o]
        details = {
            "solves": len(ops),
            "failed_frac": 1 - len(ok) / len(ops),
            "max_rel_err": max((o["rel_err"] for o in with_cf), default=math.nan),
            "uncertified_frac": (sum(o["uncertified"] for o in with_cf) / len(with_cf)
                                 if with_cf else math.nan),
            "closed_form_solves": len(with_cf),
            "failures": [o for o in ops if not o["ok"]][:20],
        }
        result = self.summarize(ops, ops, res["rss_mb"], details)
        if self.trace:
            replay = self.path("sweep-replay.json")
            with open(replay, "w", encoding="utf-8") as fh:
                json.dump([[{"spec": o["spec"], "m": o["m"]} for o in rounds[0]]], fh)
            self.child("sweep", replay, self.path("replay-out.json"), "0")
            untraced = sum(o.get("ms", 0.0) for o in self.load(self.path("replay-out.json"))["ops"])
            traced = sum(o.get("ms", 0.0) for o in ops[:len(rounds[0])])
            result["trace"] = self.trace_metrics(
                [self.path("spans-solve-sweep.json")], traced - untraced)
        return result

    def verify_all(self) -> dict:
        expected = expected_checks()
        ops, rss = [], 0.0
        while True:
            out_path = self.path("verify-out.json")
            span_args = ["--spans", self.path("spans-verify-all.json")] if self.trace else []
            res = self.child("verify", out_path, str(self.seed), *span_args)
            run = self.load(out_path)
            checks = [tuple(row) for row in run["checks"]]
            failed = [f"{s}/{n}" for s, n, passed in checks if not passed]
            ok = checks == expected
            ops.append({"ok": ok, "correct": ok, "ms": 1e3 * run["wall_s"],
                        "scaled_ms": 1e3 * run["scaled_s"],
                        "checks": len(checks), "checks_failed": len(failed),
                        "failed_checks": failed})
            rss = max(rss, res["rss_mb"])
            if self.trace or closest_count_reached(
                    [o["scaled_ms"] / 1e3 for o in ops], self.seconds):
                break
        details = {"verify_s": median(o["ms"] for o in ops) / 1e3, "passes": ops}
        result = self.summarize(ops, ops, rss, details)
        if self.trace:
            per_suite = self.per_suite_verify()
            result["per_suite"] = per_suite
            result["trace"] = self.trace_metrics(
                [self.path("spans-verify-all.json")],
                ops[0]["ms"] - 1e3 * sum(per_suite.values()))
        return result

    def per_suite_verify(self) -> dict:
        """Each suite timed in one fresh process, in run_suite("all") order.

        Run in sequence, the suites do exactly the work of one verify-all pass.
        """
        suites = list(dict.fromkeys(suite for suite, _, _ in expected_checks()))
        out_path = self.path("verify-suites.json")
        self.child("verify", out_path, str(self.seed), "--suites", ",".join(suites))
        return self.load(out_path)["per_suite_s"]

    def cli_cold(self) -> dict:
        rounds = specgen.cli_rounds(self.seed, 200)
        ops, rss, traced_files = [], 0.0, []
        first_s, round_s = 0.0, []
        for i, rnd in enumerate(rounds):
            scaled_s = 0.0
            for j, spec in enumerate(rnd):
                span_args = []
                if self.trace:
                    traced_files.append(self.path(f"spans-cli-{i}-{j}.json"))
                    span_args = ["--spans", traced_files[-1]]
                op = self.cli_call(spec, span_args)
                rss = max(rss, op.pop("rss_mb"))
                ops.append(op)
                scaled_s += op["scaled_ms"] / 1e3
            if i == 0:
                first_s = scaled_s
                continue
            round_s.append(scaled_s)
            # two compute rounds at least: n >= 12 keeps op_ms_tail on one
            # side of the tail rule's n <= 10 fallback
            if i >= 2 and closest_count_reached(round_s, self.seconds - first_s):
                break
        ok = [o for o in ops if o["ok"]]

        def p50(method):
            vals = [o["ms"] for o in ok if o["method"] == method]
            return median(vals) if vals else math.nan

        details = {
            "invocations": len(ops),
            "cli_closed_form_ms_p50": p50("closed_form"),
            "cli_eigensolve_ms_p50": p50("eigensolve"),
            "cli_variational_ms": p50("variational"),
            "table_s": p50("table") / 1e3,
            "failed_frac": 1 - len(ok) / len(ops),
            "failures": [o for o in ops if not o["ok"]][:20],
        }
        # throughput over the repeated rounds only, whose mix is the same in
        # every run; the one-off table and variational calls are in details
        result = self.summarize(ops, ops[len(rounds[0]):], rss, details)
        if self.trace:
            replay = rounds[1]
            untraced = sum(self.cli_call(spec, [])["ms"] for spec in replay)
            traced = sum(o["ms"] for o in ops[len(rounds[0]):len(rounds[0]) + len(replay)])
            result["trace"] = self.trace_metrics(traced_files, traced - untraced)
        return result

    def cli_call(self, spec: dict, span_args: list[str]) -> dict:
        """One fresh ``scx`` process, checked; wall time and scaled time."""
        window_path = self.path("cli-speed.json")
        if os.path.exists(window_path):
            os.remove(window_path)
        res = self.spawn([sys.executable, os.path.join(HERE, "child.py"), "cli",
                          window_path, *span_args, "--", *spec["args"]])
        window = {"sampler_s": 0.0, "ref_s": speed.REF_S}
        if os.path.exists(window_path):
            window = self.load(window_path)
        own, scaled = speed.own_and_scaled(res["wall_s"], window)
        op = {"args": spec["args"], "method": spec["method"], "code": res["code"],
              "ms": 1e3 * own, "scaled_ms": 1e3 * scaled, "rss_mb": res["rss_mb"]}
        check_cli(op, res["stdout"], spec)
        return op

    # ------------------------------------------------------------ reporting

    def summarize(self, ops, rate_ops, rss_mb, details) -> dict:
        """End-to-end metrics from the operations' times at reference speed
        (speed.py); the same figures from raw wall times go to ``details``.

        ``rate_ops`` are the ops that ops_per_s counts, completed ones per
        second of their own time.
        """
        ok_ops = [o for o in ops if o["ok"]]
        ok = len(ok_ops)
        metrics = {"ok_frac": ok / len(ops), "peak_rss_mb": rss_mb}
        for key, prefix in (("scaled_ms", ""), ("ms", "raw_")):
            t = tail([o[key] for o in ok_ops] or [math.nan])
            busy_s = sum(o.get(key, 0.0) for o in rate_ops) / 1e3
            figures = {
                "op_ms_p50": median([o[key] for o in ok_ops] or [math.nan]),
                "op_ms_tail": t["value"],
                "ops_per_s": (sum(o["ok"] for o in rate_ops) / busy_s
                              if busy_s > 0 else math.nan),
            }
            if prefix:
                details.update({prefix + k: v for k, v in figures.items()})
            else:
                metrics.update(figures)
                details["tail"] = t
        return {"metrics": metrics, "details": details, "attempted": len(ops),
                "failed": len(ops) - ok, "correct": all(o["correct"] for o in ops)}

    def trace_metrics(self, files: list[str], overhead_ms: float) -> dict:
        """Per-workload numbers from the spans of the traced run."""
        all_spans, warns = [], 0
        for path in files:
            data = self.load(path)
            all_spans.append(data["spans"])
            warns += data["runtime_warnings"]
        calls, self_s = {}, {}
        requested = computed = 0
        for sp in all_spans:
            s = spans.summarize(sp)
            for k, v in s["calls"].items():
                calls[k] = calls.get(k, 0) + v
            for k, v in s["self_s"].items():
                self_s[k] = self_s.get(k, 0.0) + v
            requested += s["solves_requested"]
            computed += s["solves_computed"]
        layer_self = {}
        for name, secs in self_s.items():
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + 1e3 * secs
        return {
            "spectral.lambda1_beta.calls": calls.get("spectral.lambda1_beta", 0),
            "spectral.discretize.calls": calls.get("spectral.discretize", 0),
            "spectral.solve_reuse_ratio": (requested - computed) / requested
            if requested else 0.0,
            "spectral.self_ms": layer_self.get("spectral", 0.0),
            "spectral.lambda1_beta.self_ms":
                1e3 * self_s.get("spectral.lambda1_beta", 0.0),
            "geometry.overflow_warnings": warns,
            "trace.spans": sum(len(sp) for sp in all_spans),
            "trace.overhead_ms": overhead_ms,
            "layer_self_ms": layer_self,
        }

    def run(self, workload: str) -> dict:
        t0 = time.perf_counter()
        setup = None if self.trace else self.setup_s()  # before any workload
        result = {"solve-sweep": self.solve_sweep, "verify-all": self.verify_all,
                  "cli-cold": self.cli_cold}[workload]()
        if self.trace:
            per_layer = self.import_metrics()
            out = self.path("layers.json")
            digest, _ = source_digest(self.root)
            self.child("layers", out, str(self.seed),
                       self.path(f"sc-stab-accuracy-{digest[:16]}.json"))
            per_layer.update(self.load(out))
            if "per_suite" not in result:
                result["per_suite"] = self.per_suite_verify()
            for suite, secs in result["per_suite"].items():
                per_layer[f"verify.{suite}_s"] = secs
            per_layer.update({k: v for k, v in result["trace"].items()
                              if k != "layer_self_ms"})
            result["metrics"] = per_layer
        else:
            result["metrics"]["setup_s"] = setup
        result["run_s"] = time.perf_counter() - t0
        return result


def expected_checks() -> list[tuple]:
    """(suite, check, passed) of run_suite("all") at the seed commit, in order."""
    with open(os.path.join(HERE, "expected_verify.json"), encoding="utf-8") as fh:
        return [tuple(row) for row in json.load(fh)]


def parse_importtime(stderr: str) -> list[tuple[str, int, float]]:
    """(module, nesting depth, cumulative us) per ``-X importtime`` line."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        name = raw.lstrip()
        entries.append((name, (len(raw) - len(name)) // 2, float(parts[1])))
    return entries


def package_ms(entries, pkg: str) -> float:
    """Time spent importing ``pkg`` and its submodules, wherever they load.

    Lines are printed after their children, so a line's parent is the next
    line with a smaller depth; the cumulative times of the outermost lines of
    the package are summed.
    """
    def member(name):
        return name == pkg or name.startswith(pkg + ".")

    total = 0.0
    for i, (name, depth, cum) in enumerate(entries):
        if not member(name):
            continue
        parent = next((e for e in entries[i + 1:] if e[1] < depth), None)
        if parent is None or not member(parent[0]):
            total += cum
    return total / 1e3


def check_solve(op: dict, closed_form) -> None:
    """Output check of one sc_stab result, in place."""
    op["correct"] = True
    if "error" in op:
        op["ok"] = False
        return
    sc, cert = op["sc"], op["certificate"]
    good = (sc is not None and cert is not None and math.isfinite(sc)
            and math.isfinite(cert))
    if good and closed_form is not None:
        err = abs(sc - closed_form)
        bound = cert * abs(sc)
        op["rel_err"] = err / max(abs(closed_form), 1e-300)
        op["uncertified"] = err > bound
        good = err <= CHECK_FACTOR * bound + ABS_FLOOR * max(abs(closed_form), 1.0)
    op["ok"] = op["correct"] = bool(good)


def _close(value, expected, rel) -> bool:
    return (value is not None and math.isfinite(value)
            and abs(value - expected) <= rel * abs(expected) + ABS_FLOOR)


def check_cli(op: dict, stdout: str, spec: dict) -> None:
    """Exit code, output format and values of one CLI invocation, in place."""
    op["correct"] = True
    code = op["code"]
    if code not in DOCUMENTED_EXIT:
        op["ok"], op["error"] = False, f"undocumented exit code {code}"
        return
    if code != 0:
        op["ok"], op["error"] = False, f"exit code {code}"
        return
    cf = spec["closed_form"]
    try:
        if spec["method"] == "table":
            rows = parse_csv(stdout)
            good = [int(r["n"]) for r in rows] == [2, 3, 4, 8]
            for r in rows:
                n = int(r["n"])
                ball = 4 * specgen.bessel_first_zero(n / 2 - 1) ** 2
                good = good and _close(float(r["ball_closed_form"]), ball, 1e-12)
                good = good and float(r["hemisphere_closed_form"]) == n * (n + 3)
                good = good and _close(float(r["ball_eigensolve"]), ball, CLI_TOL)
                good = good and _close(float(r["hemisphere_eigensolve"]),
                                       n * (n + 3), CLI_TOL)
        elif "--csv" in spec["args"]:
            (row,) = parse_csv(stdout)
            sc = float(row["sc_stab"])
            good = _close(4 * float(row["lambda1"]), sc, 1e-12)
            if cf is not None:
                rel = 1e-12 if spec["method"] == "closed_form" else 10 * CLI_TOL
                good = good and _close(sc, cf, rel)
            good = good and math.isfinite(sc)
        else:
            (rep,) = json.loads(stdout)
            if spec["method"] == "variational":
                eig = rep["eigen_value"]
                good = (rep["trials"] == 200
                        and rep["gap"] >= -0.01 * abs(eig)
                        and (cf is None or _close(eig, cf, 10 * CLI_TOL)))
            elif spec["method"] == "closed_form":
                good = _close(rep["sc_stab"], cf, 1e-12)
            else:
                sc, cert = rep["sc_stab"], rep["certificate"]
                good = math.isfinite(sc) and 0 <= cert < 10 * CLI_TOL
                if cf is not None:
                    good = good and (abs(sc - cf) <= CHECK_FACTOR * cert * abs(sc)
                                     + ABS_FLOOR * max(abs(cf), 1.0))
    except (ValueError, KeyError, TypeError) as exc:
        good = False
        op["error"] = f"unparsable output: {exc}"
    op["ok"] = op["correct"] = bool(good)


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------- provenance

def source_digest(root: str) -> tuple[str, int]:
    """sha256 and line count of the ``src/scx`` sources."""
    src = os.path.join(root, "src", "scx")
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return digest.hexdigest(), lines


def provenance(root: str, bench: Bench) -> dict:
    digest, lines = source_digest(root)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "blas_threads": bench.threads,
        "git_commit": commit, "src_sha256": digest,
        "src_scx_lines": lines, "seed": bench.seed, "seconds": bench.seconds,
    }


def metric_units(root: str, trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def print_report(workload: str, res: dict, units: dict) -> None:
    verdict = "PASS" if res["correct"] else "FAIL"
    print(f"== {workload}  (output check: {verdict}, attempted {res['attempted']}, "
          f"failed {res['failed']})")
    for name, value in res["metrics"].items():
        print(f"  {name:<45} {value:>14.6g} {units[name]}")
    if "tail" in res["details"]:
        t = res["details"]["tail"]
        print(f"  (tail = p{t['percentile']:.1f} of {t['n']} samples, "
              f"{t['beyond']} beyond)")
    for key, value in res["details"].items():
        if isinstance(value, (int, float)):
            print(f"  {key:<45} {value:>14.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "scx", "__init__.py")):
        print("error: run from the root of an scx checkout (src/scx not found)",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        print("error: BENCHMARK.json not found in the current directory", file=sys.stderr)
        return 2
    units = metric_units(root, bool(args.trace))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for wl in workloads:
            bench = Bench(root, args.seed, args.seconds, bool(args.trace))
            res = bench.run(wl)
            if set(res["metrics"]) != set(units):
                raise BenchError("metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(res['metrics']) ^ set(units))}")
            res["workload"] = wl
            res["provenance"] = provenance(root, bench)
            results[wl] = res
            name = f"{wl}-seed{args.seed}-trace{args.trace}.json"
            with open(bench.path(name), "w", encoding="utf-8") as fh:
                json.dump(res, fh, indent=1, default=str)
            print_report(wl, res, units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{wl}.{k}" if prefix else k): {"value": v, "unit": units[k]}
                    for wl, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
