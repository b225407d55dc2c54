"""Bit-for-bit pin of the Monte Carlo oracle's analytic cdf table,
``simulate._cdf_interpolator(p)[1]``, at A = 2 (imaginary order) and
A = 20 (real order), against tests/data/cdf_bits.json.

Each table has CDF_GRID + 1 nodes; near x = 0 the Whittaker argument
2/x runs up to about 700, the far end of W's asymptotic regime.  Each
entry holds the sha256 of the table's float64 bytes and the
``float.hex`` of a few sampled nodes, so that a moved table shows where
it moved.  Regenerate the file (only when a value is meant to move) with

    PYTHONPATH=src python tests/test_cdf_bits.py
"""

import hashlib
import json
import pathlib

from shiryaev_qsd import make_params, principal_lambda
from shiryaev_qsd.simulate import CDF_GRID, _cdf_interpolator

DATA = pathlib.Path(__file__).parent / "data" / "cdf_bits.json"

LEVELS = (2.0, 20.0)
# node indices whose values are written out in full
SAMPLED = (3, 4, 5, 7, 10, 30, 100, 300, 1000, 1999)


def cdf_bits():
    bits = {}
    for A in LEVELS:
        cdf = _cdf_interpolator(make_params(principal_lambda(A)))[1]
        assert cdf.dtype == "float64" and cdf.size == CDF_GRID + 1
        bits[f"A={A!r}"] = {
            "sha256": hashlib.sha256(cdf.tobytes()).hexdigest(),
            "nodes": {str(i): float(cdf[i]).hex() for i in SAMPLED},
        }
    return bits


def test_cdf_table_is_bitwise_pinned():
    expected = json.loads(DATA.read_text())
    got = cdf_bits()
    assert got.keys() == expected.keys()
    assert {k: v for k, v in got.items() if v != expected[k]} == {}


if __name__ == "__main__":
    DATA.write_text(json.dumps(cdf_bits(), indent=1) + "\n")
