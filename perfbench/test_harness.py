"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

from __future__ import annotations

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import specgen  # noqa: E402
import speed  # noqa: E402
from summary import closest_count_reached, tail  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    for n in (11, 20, 57, 100, 1000):
        xs = list(range(n, 0, -1))
        t = tail(xs)
        assert sum(x > t["value"] for x in xs) == 10 == t["beyond"]
        assert t["percentile"] == pytest.approx(100.0 * (n - 10) / n)
        assert t["n"] == n
    assert tail(range(100))["value"] == 89


def test_tail_without_ten_samples_is_the_maximum():
    assert tail([3.0]) == {"value": 3.0, "percentile": 100.0, "beyond": 0, "n": 1}
    assert tail([5, 1, 9, 2, 7, 4, 3, 8, 6, 10])["value"] == 10
    with pytest.raises(ValueError):
        tail([])


def test_run_length_is_the_closest_whole_number_of_units():
    def units(each, seconds):
        done = []
        while True:
            done.append(each)
            if closest_count_reached(done, seconds):
                return len(done)

    assert units(7.0, 15) == 2     # 14 s is closer to 15 than 21 s
    assert units(9.0, 15) == 2     # 18 s beats 9 s
    assert units(11.0, 15) == 1
    assert units(40.0, 15) == 1    # at least one
    assert units(1.4, 15) == 11


def test_speed_scaling_removes_sampler_time_and_rescales():
    sampler = speed.Sampler()
    sampler.samples = [(0.5, 0.02), (1.5, 0.02), (3.0, 0.04)]
    window = sampler.window(1.0, 2.0)
    assert window == {"sampler_s": 0.02, "ref_s": 0.02}
    own, scaled = sampler.times(1.0, 2.0)
    assert own == pytest.approx(0.98)
    assert scaled == pytest.approx(0.98 * speed.REF_S / 0.02)
    # a window with no sample inside takes its neighbours' mean speed
    assert sampler.window(2.0, 2.5) == {"sampler_s": 0, "ref_s": pytest.approx(0.03)}
    speed.reference_loop()


def test_self_time_subtracts_nested_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    sp = [["root", 0.0, 10.0, -1, False], ["a", 1.0, 4.0, 0, False],
          ["b", 2.0, 3.0, 1, False], ["c", 5.0, 9.0, 0, False]]
    assert spans.self_times(sp) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_and_clips_children():
    sp = [["root", 0.0, 10.0, -1, False], ["a", 2.0, 6.0, 0, False],
          ["b", 4.0, 8.0, 0, False], ["c", 9.0, 12.0, 0, False]]
    assert spans.self_times(sp)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_and_survives_exceptions():
    tr = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return inner(x) + inner(x)

    inner = tr.wrap("inner", inner)
    outer = tr.wrap("outer", outer)
    assert outer(2) == 4
    with pytest.raises(ValueError):
        outer(-1)
    names = [s[0] for s in tr.spans]
    assert names == ["outer", "inner", "inner", "outer", "inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0, -1, 3]
    assert [s[4] for s in tr.spans] == [False, False, False, True, True]
    assert all(s[2] is not None and s[2] >= s[1] for s in tr.spans)


def test_reuse_ratio_from_span_tree():
    # product lambda1_beta with two leaf factors; one factor's solves are both
    # served by the cache, the other computes two solves; a third leaf raised
    # in its first solve and asks for nothing
    sp = [["spectral.lambda1_beta", 0, 10, -1, False],
          ["spectral.lambda1_beta", 1, 5, 0, False],
          ["spectral.discretize", 1, 2, 1, False],
          ["spectral.discretize", 3, 4, 1, False],
          ["spectral.lambda1_beta", 6, 7, 0, False],
          ["spectral.lambda1_beta", 11, 13, -1, True],
          ["spectral.discretize", 11, 12, 5, False]]
    s = spans.summarize(sp)
    assert s["solves_requested"] == 4
    assert s["solves_computed"] == 2
    assert s["reuse_ratio"] == 0.5
    assert s["calls"]["spectral.lambda1_beta"] == 4


def test_spec_generator_is_deterministic_and_distinct():
    a = specgen.sweep_rounds(7, 40)
    assert a == specgen.sweep_rounds(7, 40)
    assert a != specgen.sweep_rounds(8, 40)
    assert specgen.cli_rounds(7, 10) == specgen.cli_rounds(7, 10)
    ops = [op for rnd in a for op in rnd]
    assert len({op["spec"] for op in ops}) == len(ops)
    assert all(len(rnd) == specgen.SOLVES_PER_ROUND for rnd in a)


def test_sweep_blocks_are_balanced_and_stratified():
    rounds = specgen.sweep_rounds(3, 3 * specgen.BLOCK_ROUNDS)
    lo, hi = specgen.GRID_RANGE
    for b in range(3):
        block = [op for rnd in rounds[8 * b:8 * b + 8] for op in rnd]
        kinds = [op["spec"].split(":")[0] for op in block]
        # every (kind, slot) pair once: three of each kind; hemisphere/cap
        # and ball/curved ball share a spec keyword
        for kind in ("interval", "box", "hypball", "product"):
            assert kinds.count(kind) == 3
        # before the split among factors, one grid size in each of the 24
        # equal log-strata of the range
        grids = [op["m"] * (op["spec"].count("(") or op["spec"].count(",") + 1
                            if op["spec"].startswith(("box", "product")) else 1)
                 for op in block]
        strata = sorted(int(24 * math.log(m / lo) / math.log(hi / lo) + 1e-9)
                        for m in grids)
        assert strata == list(range(24))


def test_closed_forms():
    assert specgen.bessel_first_zero(0.5) == pytest.approx(math.pi, rel=1e-14)
    assert specgen.bessel_first_zero(-0.5) == pytest.approx(math.pi / 2, rel=1e-14)
    assert specgen.bessel_first_zero(0.0) == pytest.approx(2.404825557695773, rel=1e-14)
    gen = specgen.SpecGen(0)
    spec, cf = gen.spec("box")
    sides = [float(s) for s in spec.split(":")[1].split(",")]
    assert cf == pytest.approx(sum(4 * math.pi**2 / s**2 for s in sides))


def test_solve_check_flags_wrong_values():
    good = {"sc": 39.4784, "certificate": 1e-4}
    run.check_solve(good, 4 * math.pi**2)
    assert good["ok"] and good["correct"] and not good["uncertified"]
    wrong = {"sc": 40.0, "certificate": 1e-6}
    run.check_solve(wrong, 4 * math.pi**2)
    assert not wrong["ok"] and not wrong["correct"] and wrong["uncertified"]
    raised = {"error": "ValueError: array must not contain infs or NaNs"}
    run.check_solve(raised, None)
    assert not raised["ok"] and raised["correct"]


def test_cli_check_exit_codes():
    spec = {"method": "closed_form", "args": ["compute", "interval:0,1"],
            "closed_form": 4 * math.pi**2}
    op = {"code": 1}
    run.check_cli(op, "", spec)
    assert not op["ok"] and "undocumented" in op["error"]
    op = {"code": 0}
    run.check_cli(op, '[{"sc_stab": %r}]' % (4 * math.pi**2), spec)
    assert op["ok"]
    op = {"code": 0}
    run.check_cli(op, "not json", spec)
    assert not op["ok"] and not op["correct"]


def test_importtime_package_time_sums_outermost_lines():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |     scipy.linalg._a\n"
            "import time:        50 |        150 |   scipy.linalg\n"
            "import time:        10 |        160 | scipy.sparse\n"
            "import time:        30 |         30 |   scipy.linalg.extra\n"
            "import time:        20 |       5000 | scx\n")
    entries = run.parse_importtime(text)
    assert entries[0] == ("scipy.linalg._a", 2, 100.0)
    assert run.package_ms(entries, "scipy.linalg") == pytest.approx(0.180)
    assert run.package_ms(entries, "scx") == pytest.approx(5.0)
    assert run.package_ms(entries, "scipy.special") == 0.0
