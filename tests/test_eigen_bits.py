"""Bit-for-bit pins of the eigen solve: lambda_A, its residual and xi on
a grid of levels, and the critical level, against
tests/data/eigen_bits.json.

The full-scan reference in test_eigen.py reads the same root tolerance
as the solver, so it would follow a wrong change to it; these pins do
not.  Each level's entry holds the ``float.hex`` of lambda, of the
residual and of xi's magnitude, plus xi's kind.  Regenerate the file
(only when a value is meant to move) with

    PYTHONPATH=src python tests/test_eigen_bits.py
"""

import json
import pathlib

import numpy as np

from shiryaev_qsd.eigen import A_MAX, A_MIN, critical_A, principal_lambda

DATA = pathlib.Path(__file__).parent / "data" / "eigen_bits.json"

# the levels of test_eigen.py's full-scan comparison, then a log grid
LEVELS = ((A_MIN, 0.05, 2.0, 10.240465, 20.0, 500.0, A_MAX)
          + tuple(float(A) for A in np.geomspace(A_MIN, A_MAX, 13)))


def eigen_bits():
    bits = {}
    for A in LEVELS:
        sol = principal_lambda(A)
        bits[f"A={A!r}"] = {"lambda": sol.lam.hex(),
                            "residual": sol.residual.hex(),
                            "xi_kind": sol.xi.kind,
                            "xi": sol.xi.magnitude.hex()}
    bits["critical_A"] = critical_A().hex()
    return bits


def test_eigen_solutions_are_bitwise_pinned():
    expected = json.loads(DATA.read_text())
    got = eigen_bits()
    assert got.keys() == expected.keys()
    assert {k: v for k, v in got.items() if v != expected[k]} == {}


if __name__ == "__main__":
    DATA.write_text(json.dumps(eigen_bits(), indent=1) + "\n")
