"""The benchmark's own arithmetic: the tail rule and the run length."""

from __future__ import annotations


def tail(samples) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With n >= 11 samples that is the (n-10)-th smallest value (nearest rank),
    at percentile 100 (n-10)/n; with fewer, no percentile has ten samples
    beyond it and the maximum is reported.  The percentile, the count beyond
    it and n are returned with the value.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "n": n}
    return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n,
            "beyond": 10, "n": n}


def closest_count_reached(done_s, seconds: float) -> bool:
    """True once the units done (times ``done_s``) are the whole number of
    units, at their mean time, closest to ``seconds``; at least one."""
    clock = sum(done_s)
    return clock + clock / len(done_s) / 2 >= seconds
