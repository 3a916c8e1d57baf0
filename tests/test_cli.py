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
from scx.cli import main, parse_spec, render, table_rows
from scx.errors import NumericalFailureError, SpecSyntaxError
from scx.geometry import (
    make_box,
    make_hyperbolic_ball,
    make_interval,
    make_space_form_ball,
    make_spherical_cap,
    product,
)


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


class TestRender:
    @given(manifold_strategy())
    def test_round_trip(self, man):
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

    def test_non_finite_operator_exit_code(self, capsys):
        # sinh overflows at r = 800; the solver refuses the operator cleanly
        assert main(["compute", "hypball:n=3,r=800"]) == 3
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: operator has non-finite")

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
