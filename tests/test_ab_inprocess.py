"""scripts/ab_inprocess.py: two copies of scx timed side by side."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "ab_inprocess.py")


@pytest.fixture(scope="module")
def ab():
    """The script as a module; sys.path, which it extends, is restored."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload, seconds", [("solve-sweep", "0.2"), ("verify", "0.05")])
def test_working_tree_against_itself(workload, seconds):
    proc = subprocess.run(
        [sys.executable, SCRIPT, ROOT, ROOT, "--workload", workload, "--seconds", seconds],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["workload"] == workload
    assert summary["regressions"] == 0
    assert summary["ops"] >= summary["timed_ops"] >= 2
    lo, hi = summary["ci95"]
    assert 0 < lo <= summary["median_ratio"] <= hi


def test_pass_that_fails_is_a_regression(ab):
    ok = (1e-3, {"sc": 4.0, "richardson": 4.0, "certificate": 1e-6}, None)
    failed = (1e-3, None, "NumericalFailureError: grid-doubling certificate failed")
    assert ab.regression("solve-sweep", ok, failed).startswith("passed at A")
    assert ab.regression("solve-sweep", failed, ok) is None
    assert ab.regression("solve-sweep", failed, failed) is None


def test_value_beyond_the_certificate_is_a_regression(ab):
    a = (1e-3, {"sc": 4.0, "richardson": 4.0, "certificate": 1e-6}, None)
    within = (1e-3, {"sc": 4.0 + 3e-6, "richardson": 4.0 - 3e-6, "certificate": 1e-6}, None)
    beyond = (1e-3, {"sc": 4.0, "richardson": 4.0 + 5e-6, "certificate": 1e-6}, None)
    assert ab.regression("solve-sweep", a, within) is None
    assert "richardson moved" in ab.regression("solve-sweep", a, beyond)


def test_verify_check_that_fails_is_a_regression(ab):
    a = (1.0, {"checks": [("x", True), ("y", False)]}, None)
    b = (1.0, {"checks": [("x", False), ("y", True)]}, None)
    assert "['x']" in ab.regression("verify", a, b)
    assert ab.regression("verify", b, a) == "checks passed at A fail at B: ['y']"
    assert ab.regression("verify", a, a) is None


def test_bootstrap_interval_holds_the_median(ab):
    ratios = [0.8 + 0.001 * k for k in range(101)]
    lo, hi = ab.bootstrap_median(ratios)
    assert lo < 0.85 < hi
    assert ab.bootstrap_median(ratios) == (lo, hi)  # seeded
