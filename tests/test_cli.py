import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scx import comparison, verify
from scx.cli import MAX_NESTING, main, parse_spec, render, table_rows
from scx.errors import InvalidParameterError, NumericalFailureError, SpecSyntaxError
from scx.geometry import (
    MAX_RADIUS,
    MIN_SIZE,
    make_box,
    make_hemisphere,
    make_hyperbolic_ball,
    make_interval,
    make_space_form_ball,
    make_spherical_cap,
    product,
)
from scx.spectral import MAX_GRID_FACTOR


class TestParse:
    def test_interval(self):
        ms = parse_spec("interval:0,1")
        assert ms.manifold == make_interval(0, 1)

    def test_box(self):
        ms = parse_spec("box:1,2,3")
        assert ms.manifold == make_box([1, 2, 3])

    def test_ball_and_optional_kappa(self):
        assert parse_spec("ball:n=2,r=1").manifold == make_space_form_ball(2, 0, 1)
        assert parse_spec("ball:n=2,r=1,kappa=-1").manifold == \
            make_space_form_ball(2, -1, 1)

    def test_hemisphere_and_cap(self):
        assert parse_spec("hemisphere:n=3").manifold == \
            make_spherical_cap(3, math.pi / 2)
        assert parse_spec("cap:n=2,angle=0.7").manifold == make_spherical_cap(2, 0.7)

    def test_hypball(self):
        assert parse_spec("hypball:n=3,r=2").manifold == make_hyperbolic_ball(3, 2)

    def test_product(self):
        ms = parse_spec("product:(ball:n=2,r=1)x(hemisphere:n=2)")
        expect = product([make_space_form_ball(2, 0, 1),
                          make_spherical_cap(2, math.pi / 2)])
        assert ms.manifold == expect

    def test_whitespace_insensitive(self):
        ms = parse_spec("  ball : n = 2 , r = 1.5  ")
        assert ms.manifold == make_space_form_ball(2, 0, 1.5)

    def test_nested_product(self):
        ms = parse_spec("product:(product:(interval:0,1)x(interval:0,2))x(interval:0,3)")
        assert ms.manifold.dim == 3

    def test_nesting_up_to_the_limit(self):
        spec = "interval:0,1"
        for _ in range(MAX_NESTING):
            spec = f"product:({spec})x(interval:0,1)"
        assert parse_spec(spec).manifold.dim == MAX_NESTING + 1
        with pytest.raises(SpecSyntaxError, match=f"more than {MAX_NESTING} levels"):
            parse_spec(f"product:({spec})x(interval:0,1)")

    def test_deep_nesting_exit_code(self, capsys):
        # without the cap, 350 levels exhaust the recursion limit of the parser
        spec = "product:(" * 350 + "interval:0,1" + ")x(interval:0,1)" * 350
        assert main(["compute", spec, "--method", "closed_form"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: products nest more than") and err.count("\n") == 1

    def test_syntax_error_offset(self):
        text = "product:(interval:0,1)y(interval:0,1)"
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec(text)
        assert err.value.offset == text.index("y")

    def test_unknown_kind_offset(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec("blob:1,2")
        assert err.value.offset == 0

    def test_unknown_key(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("ball:n=2,radius=1")

    def test_missing_key(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("ball:n=2")

    def test_semantic_error_message(self):
        from scx.errors import InvalidParameterError
        with pytest.raises(InvalidParameterError, match="out of range"):
            parse_spec("ball:n=2,r=4,kappa=1")

    @pytest.mark.parametrize("text", ["ball:n=2.5,r=1", "hemisphere:n=3.5",
                                      "cap:n=2.2,angle=1", "hypball:n=4.9,r=1"])
    def test_non_integer_dimension_rejected(self, text):
        from scx.errors import InvalidParameterError
        with pytest.raises(InvalidParameterError, match="dimension must be an integer"):
            parse_spec(text)

    def test_integer_valued_dimension_accepted(self):
        man = parse_spec("ball:n=3.0,r=1").manifold
        assert man == parse_spec("ball:n=3,r=1").manifold
        assert type(man.dim) is int
        assert render(man) == "ball:n=3,r=1.0"


def manifold_strategy():
    intervals = st.tuples(
        st.floats(min_value=-3, max_value=2.8, allow_nan=False),
        st.floats(min_value=0.2, max_value=3, allow_nan=False),
    ).map(lambda ab: make_interval(ab[0], ab[0] + ab[1]))
    balls = st.tuples(
        st.integers(min_value=2, max_value=6),
        st.sampled_from([0.0, -1.0, 1.0]),
        st.floats(min_value=0.2, max_value=2.0, allow_nan=False),
    ).map(lambda t: make_space_form_ball(t[0], t[1], min(t[2], 2.9 / max(1, t[1] + 1))))
    caps = st.tuples(
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
    ).map(lambda t: make_spherical_cap(*t))
    hyp = st.tuples(
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
    ).map(lambda t: make_hyperbolic_ball(*t))
    leaves = st.one_of(intervals, balls, caps, hyp)
    return st.recursive(
        leaves,
        lambda children: st.lists(children, min_size=2, max_size=3).map(product),
        max_leaves=4,
    )


def _accepted(make, *args):
    """make(*args), or None where the constructor refuses the parameters."""
    try:
        return make(*args)
    except InvalidParameterError:
        return None


def domain_strategy():
    """Every kind over its whole accepted domain, sizes at both ends included."""
    sizes = st.one_of(st.sampled_from([MIN_SIZE, MAX_RADIUS]),
                      st.floats(min_value=MIN_SIZE, max_value=MAX_RADIUS))
    dims = st.integers(min_value=2, max_value=64)
    fractions = st.floats(min_value=1e-6, max_value=1.0, exclude_max=True)
    intervals = st.builds(lambda a, length: _accepted(make_interval, a, a + length),
                          st.floats(min_value=-1e3, max_value=1e3), sizes)
    boxes = st.lists(sizes, min_size=1, max_size=4).map(lambda s: _accepted(make_box, s))
    flat = st.builds(lambda n, r: _accepted(make_space_form_ball, n, 0.0, r), dims, sizes)
    negative = st.builds(lambda n, k, r: _accepted(make_space_form_ball, n, -k, r),
                         dims, st.floats(min_value=1e-6, max_value=4.0), sizes)
    positive = st.builds(
        lambda n, k, f: _accepted(make_space_form_ball, n, k, f * math.pi / math.sqrt(k)),
        dims, st.floats(min_value=1e-6, max_value=1e4), fractions)
    caps = st.builds(lambda n, f: _accepted(make_spherical_cap, n, f * math.pi),
                     dims, fractions)
    hemispheres = dims.map(make_hemisphere)
    hyp = st.builds(lambda n, r: _accepted(make_hyperbolic_ball, n, r), dims, sizes)
    leaves = st.one_of(intervals, boxes, flat, negative, positive, caps, hemispheres,
                       hyp).filter(lambda m: m is not None)
    return st.recursive(
        leaves,
        lambda children: st.lists(children, min_size=2, max_size=3).map(product),
        max_leaves=5,
    )


class TestRender:
    @given(manifold_strategy())
    def test_round_trip(self, man):
        assert parse_spec(render(man)).manifold == man

    @given(domain_strategy())
    def test_round_trip_whole_domain(self, man):
        assert parse_spec(render(man)).manifold == man

    def test_hemisphere_round_trip(self):
        man = make_spherical_cap(4, math.pi / 2)
        assert render(man) == "hemisphere:n=4"
        assert parse_spec(render(man)).manifold == man

    def test_box_round_trip(self):
        man = make_box([1, 2.5])
        assert parse_spec(render(man)).manifold == man


class TestComputeCommand:
    def test_json_report_schema(self, capsys):
        code = main(["compute", "interval:0,1", "--grid", "400"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        rep = reports[0]
        assert rep["method"] == "eigensolve"
        assert rep["sc_stab"] == pytest.approx(4 * math.pi**2, rel=1e-3)
        for key in ("manifold", "kind", "dim", "grid", "lambda1",
                    "richardson", "certificate", "sc_stab_display"):
            assert key in rep

    def test_deterministic_output(self, capsys):
        main(["compute", "ball:n=2,r=1", "--grid", "400"])
        first = capsys.readouterr().out
        main(["compute", "ball:n=2,r=1", "--grid", "400"])
        second = capsys.readouterr().out
        assert first == second

    def test_closed_form_method(self, capsys):
        code = main(["compute", "box:1,2,3", "--method", "closed_form"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["sc_stab"] == pytest.approx(
            4 * math.pi**2 * (1 + 0.25 + 1 / 9), rel=1e-12)

    def test_closed_form_high_dimensional_ball(self, capsys):
        # j_299 = 311.56... lies above 200
        assert main(["compute", "ball:n=600,r=1", "--method", "closed_form"]) == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["sc_stab"] == pytest.approx(4 * 311.5637146339061**2, rel=1e-12)

    @pytest.mark.parametrize("n", [2 * 10**6, 2 * 10**16])
    def test_closed_form_huge_dimensional_ball(self, n, capsys):
        # the scipy route's 0.1-step scan cannot advance past nu ~ 1e16 and
        # never returned; j_nu lies within the Qu-Wong bounds
        # nu + 1.8557571 nu^(1/3) + (0 or 1.033150 nu^(-1/3))
        assert main(["compute", f"ball:n={n},r=1", "--method", "closed_form"]) == 0
        nu = n / 2 - 1
        j = nu + 1.8557571 * nu ** (1 / 3) + 1.033150 * nu ** (-1 / 3)
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["lambda1"] == pytest.approx(j**2, rel=1e-10)

    def test_closed_form_hemisphere(self, capsys):
        main(["compute", "hemisphere:n=4", "--method", "closed_form"])
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["sc_stab"] == 28.0

    def test_closed_form_hyperbolic_three_ball(self, capsys):
        assert main(["compute", "hypball:n=3,r=2", "--method", "closed_form"]) == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["sc_stab"] == pytest.approx(math.pi**2 - 2, rel=1e-14)

    def test_closed_form_unavailable(self, capsys):
        code = main(["compute", "cap:n=2,angle=0.9", "--method", "closed_form"])
        assert code == 2

    def test_variational_method(self, capsys):
        code = main(["compute", "interval:0,1", "--method", "variational",
                     "--grid", "2048", "--seed", "4"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["sc_stab"] == pytest.approx(4 * math.pi**2, rel=0.01)
        assert rep["seed"] == 4

    def test_hyperbolic_diagnostic_fields(self, capsys):
        main(["compute", "hypball:n=3,r=2", "--grid", "400"])
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["c_r"] == pytest.approx(1 + (math.pi**2 - 1) / 4, rel=1e-4)
        assert rep["within_reference_window"] is False

    def test_hyperbolic_proven_window(self, capsys):
        main(["compute", "hypball:n=3,r=2", "hypball:n=5,r=2", "--grid", "400"])
        three, five = json.loads(capsys.readouterr().out)
        lo, hi = three["c_r_proven_window"]
        exact = 1 + (math.pi**2 - 1) / 4  # the window collapses at n = 3
        assert lo == pytest.approx(exact, rel=1e-14)
        assert hi == pytest.approx(exact, rel=1e-14)
        lo, hi = five["c_r_proven_window"]
        cert = 4 * five["certificate"] * abs(five["lambda1"]) / (5 - 1) ** 2
        assert lo < hi and lo - cert <= five["c_r"] <= hi + cert
        assert five["c_r_reference_window"] == [1 / 6, 1.0]

    def test_hyperbolic_c_matches_library(self, capsys):
        main(["compute", "hypball:n=4,r=1.5", "--grid", "400", "--beta", "0"])
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["c_r"] == comparison.hyperbolic_c(4, 1.5, 400)

    def test_csv_output(self, capsys):
        code = main(["compute", "interval:0,1", "--grid", "400", "--csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("manifold,method,dim,sc_stab")
        assert "\r\n" in out

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "specs.txt"
        path.write_text("# a comment\ninterval:0,1\n\nball:n=2,r=1  # trailing\n")
        code = main(["compute", "--file", str(path), "--grid", "400"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["kind"] for r in reports] == ["interval", "ball"]

    def test_parse_error_exit_code(self, capsys):
        assert main(["compute", "interval:0"]) == 2

    def test_numerical_failure_exit_code(self, capsys):
        # an unreachable certificate tolerance forces a numerical failure
        assert main(["compute", "interval:0,1", "--grid", "64",
                     "--tol", "1e-12"]) == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", ["800", "1000"])
    def test_large_hyperbolic_balls_compute(self, n, r, capsys):
        # sinh overflows above r ~ 710; the exact log warp and the grid
        # ladder leave every accepted radius computable at the default grid
        assert main(["compute", f"hypball:n={n},r={r}"]) == 0
        captured = capsys.readouterr()
        rep = json.loads(captured.out)[0]
        assert captured.err == ""
        assert math.isfinite(rep["sc_stab"]) and math.isfinite(rep["c_r"])

    def test_certificate_failure_prints_one_line(self, capsys):
        assert main(["compute", "interval:0,1", "--tol", "1e-12"]) == 3
        captured = capsys.readouterr()
        lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: grid-doubling certificate failed")
        assert "'m': 64000" in lines[0]  # the top of the ladder, 16 x 4000
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [
        ["interval:0,1e-200"],
        ["interval:0,1e-200", "--method", "closed_form"],
        ["ball:n=2,r=1e-200", "--method", "closed_form"],
        ["hypball:n=3,r=1e-200", "--method", "closed_form"],
        ["box:1e-200,1", "--method", "closed_form"],
        ["interval:0,1e-100"],
        ["ball:n=3,r=1e-100"],
    ])
    def test_size_below_floor_exit_code(self, args, capsys):
        assert main(["compute", *args]) == 2
        captured = capsys.readouterr()
        lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [
        "interval:0,1e-50", "ball:n=3,r=1e-50", "hypball:n=3,r=1e-50",
        "ball:n=5,r=1e-50,kappa=-2", "cap:n=4,angle=1e-50",
        "product:(box:1e-50,1)x(ball:n=2,r=1e-50)",
    ])
    def test_size_floor_computes(self, spec, capsys):
        assert main(["compute", spec, "--grid", "16"]) == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert math.isfinite(rep["sc_stab"]) and rep["sc_stab"] > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [
        ["hypball:n=3,r=2", "--tol=nan"],
        ["hypball:n=3,r=2", "--tol=inf"],
        ["interval:0,1", "--tol=0"],
        ["interval:0,1", "--tol=-1e-3"],
        ["interval:0,1", "--beta=inf"],
        ["interval:0,1", "--beta=nan"],
        ["product:(interval:0,1)x(ball:n=3,r=1)", "--beta=-inf"],
        ["ball:n=3,r=1,kappa=-1e11"],
        ["ball:n=3,r=1,kappa=-1e12"],
        ["ball:n=3,r=1,kappa=-1e20"],
        ["ball:n=4,r=1000,kappa=-4"],
        ["--file", "no-such-file.txt"],
        ["--file", "."],
    ])
    def test_invalid_input_exit_code(self, args, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["compute", *args, "--grid", "64"]) == 2
        captured = capsys.readouterr()
        lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("spec", ["hemisphere:n=0", "cap:n=-2,angle=1"])
    def test_cap_dimension_floor_exit_code(self, spec, capsys):
        assert main(["compute", spec]) == 2
        assert "dimension must be >= 1" in capsys.readouterr().err

    def test_one_dimensional_cap_computes(self, capsys):
        assert main(["compute", "cap:n=1,angle=1", "--grid", "64"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["dim"] == 1

    def test_file_not_utf8_exit_code(self, tmp_path, capsys):
        path = tmp_path / "specs.bin"
        path.write_bytes(b"\xff\xfeinterval:0,1\n")
        assert main(["compute", "--file", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read --file")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", ["hypball:n=3,r=2", "hypball:n=3,r=900",
                                      "ball:n=3,r=1", "interval:0,1"])
    @pytest.mark.parametrize("beta", ["1e300", "-1e300"])
    def test_huge_beta_computes(self, spec, beta, capsys):
        assert main(["compute", spec, f"--beta={beta}", "--grid", "400"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert math.isfinite(json.loads(captured.out)[0]["lambda1"])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_beta_exits_numerical(self, capsys):
        assert main(["compute", "hypball:n=3,r=2", "--beta=1e308", "--grid", "64"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: operator has non-finite diag")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", ["1e300", "-1e300", "2.9e307", "1"])
    def test_c_r_solved_at_beta_zero(self, beta, capsys):
        # lambda1 + beta n(n-1) cancels at large |beta| (it gave c_r = -1.19e285
        # at beta = 1e300); away from the default beta, c_r is the beta = 0 value
        main(["compute", "hypball:n=3,r=2", "--beta=0", "--grid", "400"])
        want = json.loads(capsys.readouterr().out)[0]["c_r"]
        assert main(["compute", "hypball:n=3,r=2", f"--beta={beta}", "--grid", "400"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["c_r"] == want

    def test_c_r_at_default_beta_from_the_same_solve(self, capsys):
        assert main(["compute", "hypball:n=4,r=3", "--grid", "400"]) == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["c_r"] == comparison.hyperbolic_c_from_lambda(4, 3.0, rep["lambda1"] + 3.0)

    @pytest.mark.filterwarnings("error")
    def test_richardson_near_overflow_is_json(self, capsys):
        # 4 lam_f overflows though lam_f = -1.74e308 is finite: the call printed
        # the non-JSON token -Infinity
        assert main(["compute", "hypball:n=3,r=2", "--beta=2.9e307", "--grid", "64"]) == 0

        def refuse(token):
            raise ValueError(token)

        rep = json.loads(capsys.readouterr().out, parse_constant=refuse)[0]
        assert rep["richardson"] == pytest.approx(rep["lambda1"], rel=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", ["2.9e307", "1.6e307"])
    def test_overflowing_product_exits_numerical(self, beta, capsys):
        spec = "product:(hypball:n=3,r=2)x(hypball:n=3,r=2)"
        assert main(["compute", spec, f"--beta={beta}", "--grid", "64"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: product eigenvalue overflows")

    @pytest.mark.parametrize("args", [
        ["--method", "closed_form", "--tol=nan", "--grid", "5"],
        ["--method", "closed_form", "--tol=nan"],
        ["--method", "closed_form", "--tol=0"],
        ["--method", "closed_form", "--grid", "15"],
        ["--method", "variational", "--tol=nan"],
        ["--method", "variational", "--tol=inf"],
        ["--method", "variational", "--grid", "5"],
    ])
    def test_every_method_validates_tol_and_grid(self, args, capsys):
        # closed_form reads neither flag and variational no --tol, but each
        # refuses what an eigensolve refuses
        assert main(["compute", "interval:0,1", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(("error: tol must be", "error: grid size must be"))

    def test_env_grid_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SCX_GRID", "400")
        main(["compute", "interval:0,1"])
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["grid"] == 800  # fine grid of the (m, 2m) pair

    def test_no_specs_is_error(self, capsys):
        assert main(["compute"]) == 2

    def test_non_integer_dimension_exit_code(self, capsys):
        assert main(["compute", "ball:n=2.5,r=1"]) == 2
        assert "dimension must be an integer" in capsys.readouterr().err

    def test_beta_takes_effect(self, capsys):
        # hemisphere n=2: lambda_1(-Lap) = 2 and Sc = 2, so lambda_1 = 2 + 2 beta
        assert main(["compute", "hemisphere:n=2", "--grid", "400", "--beta", "0.5"]) == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["beta"] == 0.5
        assert rep["lambda1"] == pytest.approx(3.0, rel=1e-4)
        assert rep["sc_stab"] is None and rep["sc_stab_display"] is None
        main(["compute", "hemisphere:n=2", "--grid", "400"])
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["beta"] == 0.25
        assert rep["sc_stab"] == pytest.approx(10.0, rel=1e-4)

    def test_beta_csv_reports_null_sc(self, capsys):
        assert main(["compute", "hemisphere:n=2", "--grid", "400", "--beta", "0",
                     "--csv"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["beta"] == "0.0"
        assert row["sc_stab"] == ""
        assert float(row["lambda1"]) == pytest.approx(2.0, rel=1e-4)

    def test_beta_hyperbolic_c_unchanged(self, capsys):
        main(["compute", "hypball:n=3,r=2", "--grid", "400", "--beta", "0"])
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["lambda1"] == pytest.approx(1 + math.pi**2 / 4, rel=1e-4)
        assert rep["c_r"] == pytest.approx(1 + (math.pi**2 - 1) / 4, rel=1e-4)

    @pytest.mark.parametrize("method", ["closed_form", "variational"])
    def test_beta_rejected_by_other_methods(self, method, capsys):
        assert main(["compute", "interval:0,1", "--method", method,
                     "--beta", "0.5"]) == 2
        assert "beta" in capsys.readouterr().err

    def test_variational_negative_seed_exits_2(self, capsys):
        assert main(["compute", "interval:0,1", "--method", "variational",
                     "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err


class TestGridLadder:
    @pytest.fixture
    def grids(self, monkeypatch):
        """Grid sizes passed to spectral.discretize, in call order."""
        from scx import spectral

        seen = []
        real = spectral.discretize

        def recording(man, beta, m):
            seen.append(m)
            return real(man, beta, m)

        monkeypatch.setattr(spectral, "discretize", recording)
        monkeypatch.setattr(spectral, "_cache", type(spectral._cache)())
        return seen

    def test_doubles_up_to_the_cap(self, grids, capsys):
        assert main(["compute", "interval:0,1", "--grid", "64", "--tol", "1e-12"]) == 3
        # each rung solves its pair (m, 2m) afresh, so grid 2m is solved
        # again; a rung discretizes its coarse grid first
        assert grids == [64, 128, 128, 256, 256, 512, 512, 1024, 1024, 2048]
        assert MAX_GRID_FACTOR == 16
        # a radial pair discretizes both of its grids too
        grids.clear()
        assert main(["compute", "ball:n=3,r=1", "--grid", "64", "--tol", "1e-12"]) == 3
        assert grids == [64, 128, 128, 256, 256, 512, 512, 1024, 1024, 2048]

    def test_other_failure_exits_at_once(self, grids, capsys, monkeypatch):
        from scx import spectral

        def failing(diag, off, **hints):
            raise NumericalFailureError("inverse iteration failed to converge", m=diag.size)

        monkeypatch.setattr(spectral, "smallest_eigenpair", failing)
        assert main(["compute", "ball:n=4,r=3", "--grid", "64"]) == 3
        assert grids == [64, 128]  # the grids of the pair, no doubling to 256
        assert "inverse iteration failed" in capsys.readouterr().err

    def test_reports_the_fine_grid_used(self, capsys):
        # the interval fails its certificate on the rungs 64 and 128 and
        # passes at 256
        assert main(["compute", "interval:0,1", "--grid", "64", "--tol", "1e-6", "--csv"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["grid"] == "512"

    def test_start_grid_output_unchanged(self, capsys):
        # output of the version before the ladder: the same bytes apart from
        # the values, pinned within 1e-12 relative; they were re-pinned when
        # n >= 3 space forms moved to Liouville normal form, by 0.37 (ball)
        # and 0.04 (product) of their certificate times |sc| at that time
        assert main(["compute", "ball:n=4,r=3", "product:(interval:0,1)x(hemisphere:n=3)",
                     "--grid", "400", "--csv"]) == 0
        old = (
            "manifold,method,dim,sc_stab,lambda1,grid,beta\r\n"
            '"ball:n=4,r=3.0",eigensolve,4,6.525304628315423,1.6313261570788558,800,0.25\r\n'
            '"product:(interval:0.0,1.0)x(hemisphere:n=3)",eigensolve,4,'
            "57.47834643541389,14.369586608853472,800,0.25\r\n")
        new = capsys.readouterr().out
        assert new.splitlines()[0] == old.splitlines()[0]
        got, want = (list(csv.DictReader(io.StringIO(out))) for out in (new, old))
        assert len(got) == len(want) == 2
        for row, ref in zip(got, want):
            for key in ("sc_stab", "lambda1"):
                assert abs(float(row[key]) - float(ref[key])) <= 1e-12 * abs(float(ref[key]))
                row[key] = ref[key]
            assert row == ref
        assert new.count("\r\n") == 3

    @pytest.mark.parametrize("r", [1.0, 30.0, 300.0, 800.0, 1000.0])
    def test_hyperbolic_three_balls_match_closed_form(self, r, capsys):
        assert main(["compute", f"hypball:n=3,r={r!r}"]) == 0
        rep = json.loads(capsys.readouterr().out)[0]
        exact = math.pi**2 / r**2 - 0.5  # pi^2/r^2 - kappa + 6 beta kappa
        assert abs(rep["lambda1"] - exact) <= 10 * rep["certificate"] * abs(rep["lambda1"])


class TestTableCommand:
    def test_csv_shape_and_flags(self, capsys):
        code = main(["table", "--grid", "400"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert lines[0].startswith("n,ball_closed_form")
        assert "truncates" in lines[1]   # n=2 reference value flagged
        assert "misprints" in lines[3]   # n=4 reference value flagged

    def test_rows_match_hemisphere_closed_form(self):
        rows = table_rows(400)
        for row in rows:
            n = row["n"]
            assert row["hemisphere_closed_form"] == n * (n + 3)
            assert row["hemisphere_eigensolve"] == pytest.approx(n * (n + 3), rel=1e-3)
            assert row["ball_eigensolve"] == pytest.approx(
                row["ball_closed_form"], rel=5e-3)

    def test_json_table(self, capsys):
        code = main(["table", "--grid", "400", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == [2, 3, 4, 8]


class TestVerifyCommand:
    def test_bessel_suite_passes(self, capsys):
        assert main(["verify", "bessel", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_clifford_suite_json(self, capsys):
        assert main(["verify", "clifford", "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(item["passed"] for item in payload)

    def test_hyperbolic_suite_documents_failures(self, capsys):
        # the two published-window checks fail by design; exit code 4
        assert main(["verify", "hyperbolic", "--seed", "0"]) == 4
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 2
        assert "published window" in out
        assert "published sign" in out

    @pytest.mark.parametrize("suite", ["all", "clifford", "bessel", "warped"])
    @pytest.mark.parametrize("grid", ["0", "-1", "5"])
    def test_grid_below_minimum_exits_2(self, capsys, suite, grid):
        # every suite, also one that reads no grid, and before any suite runs
        assert main(["verify", suite, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"grid size must be >= 16, got {grid}" in captured.err

    @pytest.mark.parametrize("suite", ["all", "monotonicity", "additivity", "bessel"])
    def test_negative_seed_exits_2(self, capsys, monkeypatch, suite):
        # refused for every suite, also one that reads no seed, before any
        # suite runs
        def unreachable(seed=0, grid=None):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "_SUITE_FUNCS",
                            {name: unreachable for name in verify._SUITE_FUNCS})
        assert main(["verify", suite, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize("suite", ["all", "monotonicity", "bessel"])
    @pytest.mark.parametrize("seed", [1.5, math.nan, math.inf, "1"])
    def test_non_integer_seed_refused_before_any_suite(self, monkeypatch, suite, seed):
        def unreachable(seed=0, grid=None):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "_SUITE_FUNCS",
                            {name: unreachable for name in verify._SUITE_FUNCS})
        with pytest.raises(InvalidParameterError, match="seed must be an integer"):
            verify.run_suite(suite, seed=seed)

    def test_integer_valued_seed_reaches_the_suite_as_an_int(self, monkeypatch):
        seeds = []
        monkeypatch.setitem(verify._SUITE_FUNCS, "bessel",
                            lambda seed=0, grid=None: seeds.append(seed) or [])
        verify.run_suite("bessel", seed=3.0)
        assert seeds == [3] and type(seeds[0]) is int

    @pytest.mark.parametrize("suite", ["all", "majorization", "warped"])
    @pytest.mark.parametrize("grid", ["16", "32", "63"])
    def test_grid_below_the_warped_minimum_exits_2(self, capsys, monkeypatch, suite, grid):
        # majorization and warped read the grid as a warped-metric grid: the
        # grid is refused before any suite runs
        def unreachable(seed=0, grid=None):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "_SUITE_FUNCS",
                            {name: unreachable for name in verify._SUITE_FUNCS})
        assert main(["verify", suite, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"warped-metric grid must be >= 64, got {grid}" in captured.err

    @pytest.mark.parametrize("suite", ["bessel", "monotonicity", "clifford"])
    def test_grid_below_the_warped_minimum_runs_other_suites(self, monkeypatch, suite):
        ran = []
        monkeypatch.setitem(verify._SUITE_FUNCS, suite,
                            lambda seed=0, grid=None: ran.append(grid) or [])
        assert main(["verify", suite, "--grid", "32"]) == 0
        assert ran == [32]

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_failing_suite_does_not_abort_all(self, capsys, monkeypatch):
        def triples(payload):
            return [(p["suite"], p["check"], p["passed"]) for p in payload
                    if p["suite"] != "comparison"]

        assert main(["verify", "all", "--seed", "0", "--json"]) == 4
        before = triples(json.loads(capsys.readouterr().out))

        def broken(seed=0, grid=None):
            raise NumericalFailureError("inverse iteration failed to converge",
                                        m=1200, steps=50)

        monkeypatch.setitem(verify._SUITE_FUNCS, "comparison", broken)
        assert main(["verify", "all", "--seed", "0", "--json"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert triples(payload) == before
        aborted = [p for p in payload if p["suite"] == "comparison"]
        assert len(aborted) == 1
        assert aborted[0]["check"] == "suite aborted"
        assert aborted[0]["passed"] is False
        assert math.isfinite(aborted[0]["margin"])
        assert "inverse iteration failed to converge" in aborted[0]["detail"]
        assert "'steps': 50" in aborted[0]["detail"]


def test_cli_import_defers_scipy_integrate():
    code = "import sys, scx.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_verify_all_loads_no_integrator():
    # a whole verify pass, not only the import, stays clear of
    # scipy.integrate and the scipy.optimize it pulls in
    code = ("import sys; from scx.verify import run_suite; run_suite('all', seed=0); "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
