"""Which modules each entry point loads, read from sys.modules in a fresh
interpreter: ``import scx`` loads no numpy or scipy, no closed form loads
scipy, an eigensolve, ``table`` and ``--method variational`` load only the
compiled ``scipy.linalg._flapack`` and ``_fblas`` (not the ``scipy.linalg``
package, nor any ``scipy._lib`` module), ``verify`` adds only the compiled
``scipy.special._special_ufuncs`` (not the ``scipy.special`` package, nor
any ``scipy.sparse`` module), and no timed pass imports a module of its own.
"""

import json
import subprocess
import sys

import pytest

import scx

# prints the scx modules and the scipy subpackages loaded so far
_REPORT = """
import json, sys
print(json.dumps({
    "scx": sorted(m for m in sys.modules if m.startswith("scx.")),
    "scipy": sorted({m.split(".")[1] for m in sys.modules
                     if m.startswith("scipy.") and not m.split(".")[1].startswith("_")}
                    - {"version"}),
    "numpy": "numpy" in sys.modules,
    "heavy": sorted(m for m in sys.modules
                    if m in ("scipy.linalg", "scipy.special")
                    or m.startswith(("scipy._lib", "scipy.sparse"))),
}))
"""


def _loaded(code: str) -> dict:
    out = subprocess.run([sys.executable, "-W", "error", "-c", code + _REPORT],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _after_cli(*args: str) -> dict:
    code = ("import contextlib, io\n"
            "from scx.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({list(args)!r})\n"
            "assert code in (0, 4), code\n")
    return _loaded(code)


def test_import_scx_loads_no_numpy_or_scipy():
    got = _loaded("import scx\n")
    assert got["scx"] == [] and got["scipy"] == [] and got["numpy"] is False


@pytest.mark.parametrize("spec", [
    "interval:0,1", "box:1,2,3", "hemisphere:n=4", "ball:n=3,r=1,kappa=-2",
    "cap:n=3,angle=1", "hypball:n=3,r=2", "product:(interval:0,1)x(hemisphere:n=2)",
])
def test_closed_form_loads_no_scipy(spec):
    got = _after_cli("compute", spec, "--method", "closed_form")
    assert got["scipy"] == []
    assert "scx.spectral" not in got["scx"] and "scx.bessel" not in got["scx"]


@pytest.mark.parametrize("spec", [
    "ball:n=2,r=1", "ball:n=4,r=1", "product:(interval:0,1)x(ball:n=3,r=2)",
])
def test_flat_ball_closed_form_loads_no_scipy(spec):
    # j_nu comes from closed_forms.first_bessel_zero, which uses only math
    got = _after_cli("compute", spec, "--method", "closed_form", "--csv")
    assert got["scipy"] == []
    assert "scx.spectral" not in got["scx"] and "scx.bessel" not in got["scx"]


@pytest.mark.parametrize("spec", ["interval:0,1", "ball:n=4,r=3", "cap:n=2,angle=1",
                                  "product:(interval:0,1)x(ball:n=3,r=2)"])
def test_eigensolve_loads_scipy_linalg_only(spec):
    got = _after_cli("compute", spec, "--grid", "400")
    assert got["scipy"] == ["linalg"] and got["heavy"] == []
    for name in ("scx.bessel", "scx.verify", "scx.variational", "scx.warped",
                 "scx.clifford", "scx.comparison"):
        assert name not in got["scx"]


def test_hyperbolic_eigensolve_loads_scipy_linalg_only():
    # its c(r) window takes j_nu from the math-only route
    got = _after_cli("compute", "hypball:n=4,r=3", "--grid", "400")
    assert got["scipy"] == ["linalg"] and got["heavy"] == []
    assert "scx.bessel" not in got["scx"]


def test_table_loads_scipy_linalg_only():
    got = _after_cli("table", "--grid", "400")
    assert got["scipy"] == ["linalg"] and got["heavy"] == []
    assert "scx.bessel" not in got["scx"]


def test_variational_loads_scipy_linalg_only():
    got = _after_cli("compute", "hemisphere:n=3", "--method", "variational", "--seed", "4")
    assert got["scipy"] == ["linalg"] and got["heavy"] == []
    assert "scx.variational" in got["scx"]


def test_later_scipy_linalg_import_reuses_the_bound_routines():
    got = _loaded("from scx import _tridiag\n"
                  "import scipy.linalg\n"
                  "from scipy.linalg import blas, lapack\n"
                  "assert lapack.dptsv is _tridiag.dptsv, 'dptsv'\n"
                  "assert lapack.dpttrf is _tridiag.dpttrf, 'dpttrf'\n"
                  "assert blas.ddot is _tridiag.ddot, 'ddot'\n"
                  "assert blas.dnrm2 is _tridiag.dnrm2, 'dnrm2'\n")
    assert "scipy.linalg" in got["heavy"]


def test_scipy_linalg_imported_first_supplies_the_routines():
    _loaded("import scipy.linalg\n"
            "from scipy.linalg import blas, lapack\n"
            "from scx import _tridiag\n"
            "assert lapack.dptsv is _tridiag.dptsv and lapack.dpttrf is _tridiag.dpttrf\n"
            "assert blas.ddot is _tridiag.ddot and blas.dnrm2 is _tridiag.dnrm2\n")


def test_scipy_special_imported_later_reuses_the_bound_jv():
    got = _loaded("from scx import bessel\n"
                  "import scipy.special\n"
                  "assert scipy.special.jv is bessel.jv, 'jv'\n")
    assert "scipy.special" in got["heavy"]


def test_scipy_special_imported_first_supplies_jv():
    _loaded("import scipy.special\n"
            "from scx import bessel\n"
            "assert scipy.special.jv is bessel.jv\n")


def test_verify_loads_what_the_suites_import():
    # jv from scipy.special._special_ufuncs and the band Cholesky from
    # scipy.linalg._flapack, each loaded from its file: no scipy.special or
    # scipy.linalg package, and no scipy.sparse module
    via_cli = _after_cli("verify", "bessel")
    direct = _loaded("from scx.verify import run_suite\n")
    assert via_cli["scipy"] == direct["scipy"] == ["linalg", "special"]
    assert via_cli["heavy"] == direct["heavy"] == []
    assert set(direct["scx"]) <= set(via_cli["scx"])


def test_verify_all_pass_imports_nothing():
    # the timed pass of the verify-all benchmark must not be the first code
    # to import a module
    got = _loaded("import sys\n"
                  "from scx.verify import run_suite\n"
                  "before = set(sys.modules)\n"
                  "run_suite('all', seed=0)\n"
                  "new = sorted(m for m in set(sys.modules) - before\n"
                  "             if m.startswith(('scx.', 'scipy.')))\n"
                  "assert new == [], new\n")
    assert "scx.verify" in got["scx"] and got["heavy"] == []


def test_sweep_solves_import_nothing_after_warm_up():
    # the solve-sweep child's untimed warm-up, then one sc_stab of each kind
    specs = ["interval:-1,2", "box:1,2", "ball:n=4,r=2", "ball:n=3,r=1,kappa=-2",
             "cap:n=4,angle=2", "hemisphere:n=5", "hypball:n=4,r=50",
             "product:(hypball:n=2,r=3)x(ball:n=2,r=1)"]
    got = _loaded("import sys\n"
                  "import scx\n"
                  "from scx.cli import parse_spec\n"
                  "scx.sc_stab(scx.make_interval(0.0, 0.3183), 64)\n"
                  "before = set(sys.modules)\n"
                  f"for spec in {specs!r}:\n"
                  "    scx.sc_stab(parse_spec(spec).manifold, 500)\n"
                  "new = sorted(set(sys.modules) - before)\n"
                  "assert new == [], new\n")
    assert got["scipy"] == ["linalg"]


def test_importtime_of_closed_form_call_has_no_scipy_line():
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "scx.cli", "compute", "interval:0,1",
         "--method", "closed_form"], capture_output=True, text=True, check=True)
    assert "scipy" not in res.stderr
    assert "scx.geometry" in res.stderr


class TestPublicApi:
    def test_every_name_resolves_to_its_definition(self):
        import importlib

        for name in scx.__all__:
            value = getattr(scx, name)
            if name != "__version__":
                module = importlib.import_module(f"scx.{scx._EXPORTS[name]}")
                assert value is getattr(module, name)
        assert set(scx.__all__) <= set(dir(scx))

    def test_star_import(self):
        namespace = {}
        exec("from scx import *", namespace)
        assert set(scx.__all__) <= set(namespace)
        assert callable(namespace["closed_form"])

    def test_submodule_import(self):
        from scx import verify

        assert callable(verify.run_suite)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            scx.nope  # noqa: B018
