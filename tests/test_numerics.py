"""Root-finding and quadrature wrappers: contracts and basic accuracy."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from shiryaev_qsd.errors import InvalidBracketError, NonConvergenceError
from shiryaev_qsd.numerics import QuadResult, find_root, integrate


def square_minus_two(x):
    return x * x - 2.0


class TestBracket:
    def test_reversed_endpoints_rejected(self):
        with pytest.raises(InvalidBracketError):
            find_root(square_minus_two, 2.0, 1.0, tol=1e-12)

    def test_no_sign_change_rejected(self):
        with pytest.raises(InvalidBracketError):
            find_root(square_minus_two, 1.5, 2.0, tol=1e-12)
        with pytest.raises(InvalidBracketError):
            find_root(lambda x: x - 1.0, 1.0, 2.0, tol=1e-12)
        with pytest.raises(InvalidBracketError):
            find_root(lambda x: math.nan, 1.0, 2.0, tol=1e-12)

    def test_endpoints_are_evaluated_first(self):
        calls = []

        def f(x):
            calls.append(x)
            return square_minus_two(x)

        find_root(f, 1.0, 2.0, tol=1e-12)
        assert calls[:2] == [1.0, 2.0]


class TestFindRoot:
    def test_sqrt_two(self):
        assert find_root(square_minus_two, 1.0, 2.0, tol=1e-12) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)

    def test_odd_function_root_at_zero(self):
        f = lambda x: x * math.exp(x)
        assert abs(find_root(f, -1.0, 1.0, tol=1e-12)) < 1e-12

    def test_result_stays_inside_bracket(self):
        f = lambda x: math.tanh(50.0 * (x - 0.3))
        r = find_root(f, 0.0, 1.0, tol=1e-14)
        assert 0.0 <= r <= 1.0
        assert r == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("f, match", [
        (lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan, "NaN"),
        (lambda x: (x - 0.3) ** 5, "100 steps"),  # too flat at this tol
    ], ids=["nan-inside", "step-limit"])
    def test_refusals_are_qsd_errors(self, f, match):
        with pytest.raises(NonConvergenceError, match=match):
            find_root(f, 0.0, 1.0, tol=1e-15)


def brentq_outcome(f, lo, hi, tol):
    """scipy's root as float.hex, or 'refused'."""
    try:
        return brentq(f, lo, hi, xtol=tol, rtol=8 * math.ulp(1.0)).hex()
    except (RuntimeError, ValueError):
        return "refused"


def find_root_outcome(f, lo, hi, tol):
    try:
        return find_root(f, lo, hi, tol).hex()
    except NonConvergenceError:
        return "refused"


# smooth functions with their one sign change at x = c on (c - 3, c + 3)
SMOOTH = {
    "linear": lambda x, c: x - c,
    "quadratic": lambda x, c: (x - c) * (x - c + 4.0),
    "cubic": lambda x, c: (x - c) ** 3 + 0.01 * (x - c),
    "exp": lambda x, c: math.exp(x) - math.exp(c),
    "tanh": lambda x, c: math.tanh(20.0 * (x - c)),
    "atan": lambda x, c: math.atan(x - c) ** 3,
}


class TestBrentIsScipys:
    """find_root is scipy's brentq(xtol=tol, rtol=8 ulp) bit for bit,
    refusals included."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(SMOOTH)), st.floats(-2.0, 2.0),
           st.floats(-6.0, math.log10(3.0)), st.floats(-6.0, math.log10(3.0)),
           st.floats(-15.0, -3.0), st.integers(-150, 150))
    def test_same_root_as_brentq(self, kind, c, log_left, log_right, log_tol, scale):
        lo, hi, tol = c - 10.0 ** log_left, c + 10.0 ** log_right, 10.0 ** log_tol
        f = lambda x: 10.0 ** scale * SMOOTH[kind](x, c)
        assume(lo < hi and f(lo) * f(hi) < 0)
        assert find_root_outcome(f, lo, hi, tol) == brentq_outcome(f, lo, hi, tol)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x - 0.5, 0.0, 1.0),
        (lambda x: 1e-120 * (x * x - 2.0), 0.0, 2.0),
    ], ids=["a-step-lands-on-the-root", "extrapolation-denominator-underflows"])
    def test_fixed_inputs(self, f, lo, hi):
        # the first bisection makes 0.5 a bracket end and an exact root;
        # at the 1e-120 scale dblk*dpre*(fblk - fpre) underflows to 0 in
        # 8 steps, which must bisect as in C, not raise
        assert find_root_outcome(f, lo, hi, 1e-12) == brentq_outcome(f, lo, hi, 1e-12)


class TestIntegrate:
    def test_polynomial_on_unit_interval(self):
        res = integrate(lambda x: x, 0.0, 1.0, tol=1e-11)
        assert isinstance(res, QuadResult)
        assert res.value == pytest.approx(0.5, abs=1e-13)
        assert res.evaluations > 0

    def test_exponential_tail_to_infinity(self):
        res = integrate(lambda t: math.exp(-t), 0.0, np.inf, tol=1e-11)
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_budget_exhaustion_raises(self):
        # oscillatory integrand with ~16,000 half-periods: more than the
        # subinterval budget can resolve
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: math.sin(1e4 * x), 0.0, 10.0, tol=1e-11)
