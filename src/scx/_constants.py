"""Constants shared by the library and the command-line parser.

This module imports nothing, so the CLI builds its parser without loading
the LAPACK layer or the verification suites.
"""

DEFAULT_GRID = 4000
DEFAULT_TOL = 1e-3
# the smallest grid an eigensolve accepts; the CLI refuses a smaller --grid
# for every method
MIN_GRID = 16

SUITES = ("monotonicity", "additivity", "majorization", "warped",
          "comparison", "hyperbolic", "bessel", "clifford", "all")
