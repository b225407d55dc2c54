"""Bit-for-bit pins of the summed series: the Laplace moment series,
both Kampe de Feriet routes and the float moment recurrence, on a grid
of levels and s, against tests/data/series_bits.json.

Each entry is a value's ``float.hex``, or the class and message of the
refusal.  Regenerate the file (only when a value is meant to move) with

    PYTHONPATH=src python tests/test_series_bits.py
"""

import json
import pathlib

from shiryaev_qsd import laplace, make_params, principal_lambda
from shiryaev_qsd.errors import QsdError
from shiryaev_qsd.moments import moments_recurrence

DATA = pathlib.Path(__file__).parent / "data" / "series_bits.json"

LEVELS = (0.05, 0.7, 1.0, 3.3, 5.0, 10.240465, 20.0, 200.0)
S_VALUES = (0.0, 1e-6, 0.05, 0.1, 1.0, 5.0, 12.0)
ROUTES = ("moments", "kdf1", "kdf2")
N_MAX = 60
# about 4 s on its own, a third of the grid's time
SKIPPED = {(20.0, 12.0)}


def _outcome(fn, *args):
    try:
        return fn(*args).value.hex()
    except QsdError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def series_bits():
    bits = {}
    for A in LEVELS:
        p = make_params(principal_lambda(A))
        bits[f"recurrence A={A!r}"] = [
            v.hex() for v in moments_recurrence(p, N_MAX).values]
        for s in S_VALUES:
            if (A, s) in SKIPPED:
                continue
            for route in ROUTES:
                bits[f"{route} A={A!r} s={s!r}"] = _outcome(
                    laplace.ROUTES[route], p, s)
    return bits


def test_series_values_and_refusals_are_bitwise_pinned():
    expected = json.loads(DATA.read_text())
    got = series_bits()
    assert got.keys() == expected.keys()
    assert {k: v for k, v in got.items() if v != expected[k]} == {}


if __name__ == "__main__":
    DATA.write_text(json.dumps(series_bits(), indent=1) + "\n")
