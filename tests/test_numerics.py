"""Root-finding and quadrature wrappers: contracts and basic accuracy."""

import math

import numpy as np
import pytest

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
