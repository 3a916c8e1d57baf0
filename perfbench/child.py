"""One benchmark operation batch, run in a fresh interpreter.

    python3 perfbench/child.py import
    python3 perfbench/child.py sweep   OPS_JSON OUT_JSON SECONDS [--spans FILE]
    python3 perfbench/child.py verify  OUT_JSON SEED [--suites a,b,...] [--spans FILE]
    python3 perfbench/child.py layers  OUT_JSON SEED ACCURACY_JSON
    python3 perfbench/child.py cli     OUT_JSON [--spans FILE] -- <scx arguments>

``run.py`` starts these with ``PYTHONPATH`` pointing at the checkout's
``src``.  ``cli`` runs ``scx.cli.main`` as the ``scx`` command does.  With
``--spans`` the public ``scx`` functions are wrapped by ``spans.install``,
every RuntimeWarning is counted, and the spans are written to the given file
when the batch ends; without it, the reference-speed sampler of ``speed.py``
runs and each timing gets a scaled twin.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from summary import closest_count_reached  # noqa: E402


@contextlib.contextmanager
def instrument(path: str | None):
    """Wrap scx and record RuntimeWarnings when ``path`` is given; otherwise
    sample the reference speed.  Yields the sampler or None."""
    if path is None:
        import speed

        with speed.Sampler() as sampler:
            yield sampler
        return
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            yield None
        finally:
            runtime = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "runtime_warnings": runtime}, fh)


def _split_spans(argv: list[str]) -> tuple[list[str], str | None]:
    if "--spans" in argv:
        i = argv.index("--spans")
        return argv[:i] + argv[i + 2:], argv[i + 1]
    return argv, None


def cmd_import() -> None:
    t0 = time.perf_counter()
    import scx  # noqa: F401

    print(time.perf_counter() - t0)


def cmd_sweep(ops_path: str, out_path: str, seconds: float, spans_path) -> None:
    """Run the whole number of batches of sc_stab solves closest to ``seconds``.

    The count is decided on the reference-speed clock (speed.py), so the
    machine's speed drift does not change how many batches a run holds.
    """
    import scx
    from scx.cli import parse_spec

    with open(ops_path, encoding="utf-8") as fh:
        batches = json.load(fh)
    scx.sc_stab(scx.make_interval(0.0, 0.3183), 64)  # lazy set-up, not timed
    results, windows = [], []
    with instrument(spans_path) as sampler:
        start = time.perf_counter()
        batch_s = []
        for ops in batches:
            for op in ops:
                rec = {"spec": op["spec"], "m": op["m"]}
                try:
                    man = parse_spec(op["spec"]).manifold
                    t0 = time.perf_counter()
                    try:
                        res = scx.sc_stab(man, op["m"])
                    finally:
                        windows.append((rec, t0, time.perf_counter()))
                    rec.update(sc=res.sc_stab, certificate=res.certificate,
                               richardson=res.richardson_estimate)
                except Exception as exc:  # recorded and counted as failed
                    rec["error"] = f"{type(exc).__name__}: {exc}"[:300]
                results.append(rec)
            now = time.perf_counter()
            clock = now - start if sampler is None else sampler.times(start, now)[1]
            batch_s.append(clock - sum(batch_s))
            if closest_count_reached(batch_s, seconds):
                break
        wall = time.perf_counter() - start
    for rec, t0, t1 in windows:
        own, scaled = (t1 - t0,) * 2 if sampler is None else sampler.times(t0, t1)
        rec["ms"], rec["scaled_ms"] = 1e3 * own, 1e3 * scaled
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": results, "wall_s": wall}, fh)


def cmd_verify(out_path: str, seed: int, suites: list[str] | None, spans_path) -> None:
    """One pass of run_suite("all"), or the named suites one by one."""
    from scx.verify import run_suite

    per_suite = {}
    with instrument(spans_path) as sampler:
        start = time.perf_counter()
        if suites is None:
            results = run_suite("all", seed=seed)
        else:
            results = []
            for name in suites:
                t0 = time.perf_counter()
                results.extend(run_suite(name, seed=seed))
                per_suite[name] = time.perf_counter() - t0
        end = time.perf_counter()
    checks = [[r.suite, r.name, r.passed] for r in results]
    own, scaled = (end - start,) * 2 if sampler is None else sampler.times(start, end)
    out = {"checks": checks, "wall_s": own, "scaled_s": scaled,
           "per_suite_s": per_suite}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def cmd_cli(out_path: str, spans_path, args: list[str]) -> int:
    """The scx command; writes the sampler's share and speed of the process."""
    start = time.perf_counter()
    with instrument(spans_path) as sampler:
        try:
            from scx.cli import main

            return main(args)
        finally:
            if sampler is not None:
                with open(out_path, "w", encoding="utf-8") as fh:
                    json.dump(sampler.window(start, time.perf_counter()), fh)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "import":
        cmd_import()
    elif mode == "sweep":
        rest, spans_path = _split_spans(rest)
        cmd_sweep(rest[0], rest[1], float(rest[2]), spans_path)
    elif mode == "verify":
        rest, spans_path = _split_spans(rest)
        suites = None
        if "--suites" in rest:
            suites = rest[rest.index("--suites") + 1].split(",")
        cmd_verify(rest[0], int(rest[1]), suites, spans_path)
    elif mode == "layers":
        import layers

        layers.write(rest[0], int(rest[1]), rest[2])
    elif mode == "cli":
        sep = rest.index("--")
        head, spans_path = _split_spans(rest[:sep])
        return cmd_cli(head[0], spans_path, rest[sep + 1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
