"""Root-finding and quadrature wrappers: contracts and basic accuracy."""

import math

import numpy as np
import pytest

from shiryaev_qsd.errors import InvalidBracketError, NonConvergenceError
from shiryaev_qsd.numerics import Bracket, QuadResult, bracket_from, find_root, integrate


class TestBracket:
    def test_valid_bracket_holds_its_data(self):
        b = Bracket(1.0, 2.0, -1.0, 2.0)
        assert (b.lo, b.hi, b.f_lo, b.f_hi) == (1.0, 2.0, -1.0, 2.0)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(InvalidBracketError):
            Bracket(2.0, 1.0, -1.0, 1.0)

    def test_no_sign_change_rejected(self):
        with pytest.raises(InvalidBracketError):
            Bracket(1.0, 2.0, 1.0, 3.0)
        with pytest.raises(InvalidBracketError):
            Bracket(1.0, 2.0, 0.0, 3.0)

    def test_bracket_from_evaluates_endpoints(self):
        b = bracket_from(lambda x: x * x - 2.0, 1.0, 2.0)
        assert b.f_lo == -1.0 and b.f_hi == 2.0


class TestFindRoot:
    def test_sqrt_two(self):
        b = bracket_from(lambda x: x * x - 2.0, 1.0, 2.0)
        assert find_root(lambda x: x * x - 2.0, b) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)

    def test_odd_function_root_at_zero(self):
        f = lambda x: x * math.exp(x)
        b = bracket_from(f, -1.0, 1.0)
        assert abs(find_root(f, b)) < 1e-12

    def test_result_stays_inside_bracket(self):
        f = lambda x: math.tanh(50.0 * (x - 0.3))
        b = bracket_from(f, 0.0, 1.0)
        r = find_root(f, b, tol=1e-14)
        assert 0.0 <= r <= 1.0
        assert r == pytest.approx(0.3, abs=1e-12)


class TestIntegrate:
    def test_polynomial_on_unit_interval(self):
        res = integrate(lambda x: x, 0.0, 1.0)
        assert isinstance(res, QuadResult)
        assert res.value == pytest.approx(0.5, abs=1e-13)
        assert res.evaluations > 0

    def test_exponential_tail_to_infinity(self):
        res = integrate(lambda t: math.exp(-t), 0.0, np.inf)
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_budget_exhaustion_raises(self):
        # oscillatory integrand with ~16,000 half-periods: more than the
        # subinterval budget can resolve
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: math.sin(1e4 * x), 0.0, 10.0)
