"""The pinned CLI runs behind the golden-file tests.

A fresh run is compared with its golden structurally: exit code, columns,
key order, input echo, grid, flags and verdicts exactly; float digits only
to the method's rounding bound (see ``golden_compare``), since they differ
between numpy/BLAS builds.

Regenerate only after an intentional output change, and only the files it
changes, never to absorb a platform's float drift:
    python tests/regenerate_goldens.py NAME ...
"""

import pathlib

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_RUNS = [
    # (golden file, argv, expected exit code)
    ("integrate_sqrt.csv",
     ["integrate", "--g", "sqrt(t-1)", "--m", "t^2/2", "--a", "1", "--t", "1:3:5"],
     0),
    ("integrate_sqrt_verify.json",
     ["integrate", "--g", "sqrt(t-1)", "--m", "t^2/2", "--a", "1", "--t", "1:3:5",
      "--verify", "--format", "json"],
     0),
    ("derive_power35.csv",
     ["derive", "--f", "pow(t-1,3.5)", "--m", "t^2/2", "--a", "1", "--t", "1.1:3:10"],
     0),
    ("derive_power35.json",
     ["derive", "--f", "pow(t-1,3.5)", "--m", "t^2/2", "--a", "1", "--t", "1.1:3:10",
      "--format", "json"],
     0),
    ("derive_sqrt_no_derivative.json",
     ["derive", "--f", "sqrt(t-1)", "--m", "t^2/2", "--a", "1", "--t", "1.1:3:10",
      "--format", "json"],
     5),
    ("identify_power55.csv",
     ["identify", "--f", "pow(t-2,5.5)", "--g", "sqrt(t-2)", "--a", "2",
      "--t", "2.1:5:10"],
     0),
    ("identify_power55.json",
     ["identify", "--f", "pow(t-2,5.5)", "--g", "sqrt(t-2)", "--a", "2",
      "--t", "2.1:5:10", "--format", "json"],
     0),
    ("verify_sqrt.csv",
     ["verify", "--g", "sqrt(t-1)", "--m", "t^2/2", "--a", "1", "--t", "1:3:5"],
     0),
    ("verify_sqrt.json",
     ["verify", "--g", "sqrt(t-1)", "--m", "t^2/2", "--a", "1", "--t", "1:3:5",
      "--format", "json"],
     0),
]
