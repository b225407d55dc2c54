"""Principal decay rate: branch handling, analytic bounds, and the
critical level where the rate crosses 1/8."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiryaev_qsd import eigen, numerics
from shiryaev_qsd.eigen import (
    A_MAX,
    A_MIN,
    critical_A,
    eigen_objective,
    lambda_bounds,
    principal_lambda,
    xi_of_lambda,
)
from shiryaev_qsd.errors import BracketFailure, DomainError

CRITICAL_LEVEL = 10.240465  # level at which the rate equals 1/8


def scan_grid(A):
    lo, hi = lambda_bounds(A)
    n = eigen.SCAN_POINTS
    return [lo + k * (hi - lo) / n for k in range(n + 1)]


def full_scan_lambda(A):
    """Reference solver: every grid point of the bounds scan is evaluated
    and the residual is judged against the largest |W| over the whole
    grid.  Returns (lam, residual, xi)."""
    def f(lam):
        return eigen_objective(lam, A)

    grid = scan_grid(A)
    lo = grid[0]
    vals = [f(x) for x in grid]
    for b_lo, b_hi, f_lo, f_hi in zip(grid, grid[1:], vals, vals[1:]):
        if f_lo == 0.0 or f_lo * f_hi < 0:
            break
    else:
        raise AssertionError(f"no sign change in the bounds at A={A}")
    guard = [f(lo / 4.0 + k * (lo - lo / 4.0) / 8.0) for k in range(9)]
    assert all(g0 * g1 >= 0 for g0, g1 in zip(guard, guard[1:]))
    if f_lo == 0.0:
        lam = b_lo
    else:
        lam = numerics.find_root(f, b_lo, b_hi,
                                 tol=eigen.ROOT_TOL * max(abs(b_hi), 1e-3))
    residual = abs(f(lam))
    assert residual <= eigen.RESIDUAL_REL * max(abs(v) for v in vals)
    return lam, residual, xi_of_lambda(lam)


def assert_bitwise_equal_to_full_scan(A):
    sol = principal_lambda(A)
    lam, residual, xi = full_scan_lambda(A)
    assert sol.lam.hex() == lam.hex()
    assert sol.residual.hex() == residual.hex()
    assert sol.xi.kind == xi.kind
    assert sol.xi.magnitude.hex() == xi.magnitude.hex()


def counting(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return fn(*args, **kwargs)
    return wrapped


class TestXiOfLambda:
    def test_real_branch_below_one_eighth(self):
        xi = xi_of_lambda(0.1)
        assert xi.kind == "real"
        assert xi.magnitude == pytest.approx(math.sqrt(0.2), rel=1e-14)

    def test_borderline_is_real_zero(self):
        xi = xi_of_lambda(0.125)
        assert xi.kind == "real" and xi.magnitude == 0.0

    def test_imaginary_branch_above_one_eighth(self):
        xi = xi_of_lambda(1.0)
        assert xi.kind == "imaginary"
        assert xi.magnitude == pytest.approx(math.sqrt(7.0), rel=1e-14)

    def test_small_rate_limit(self):
        assert xi_of_lambda(1e-12).magnitude == pytest.approx(1.0, abs=1e-11)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(DomainError):
            xi_of_lambda(0.0)
        with pytest.raises(DomainError):
            xi_of_lambda(-0.5)


class TestLambdaBounds:
    def test_closed_forms(self):
        lo, hi = lambda_bounds(1.0)
        assert lo == pytest.approx(1.5, rel=1e-14)
        assert hi == pytest.approx(1.0 + (1.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)
        lo4, hi4 = lambda_bounds(4.0)
        assert lo4 == pytest.approx(0.3, rel=1e-14)
        assert hi4 == pytest.approx(0.25 + (1.0 + math.sqrt(17.0)) / 32.0, rel=1e-14)

    def test_lower_below_upper_everywhere(self):
        for A in np.geomspace(0.05, 2000.0, 40):
            lo, hi = lambda_bounds(A)
            assert lo < hi

    def test_nonpositive_level_rejected(self):
        with pytest.raises(DomainError):
            lambda_bounds(0.0)

    def test_nonfinite_level_rejected_by_name(self):
        for A in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="A must be"):
                lambda_bounds(A)
        with pytest.raises(DomainError, match="A must be finite, got inf"):
            principal_lambda(math.inf)

    @pytest.mark.parametrize("A", [0.0049, 1.01e4])
    def test_level_outside_supported_range_rejected(self, A):
        with pytest.raises(DomainError, match="A must lie in"):
            lambda_bounds(A)
        with pytest.raises(DomainError, match="A must lie in"):
            principal_lambda(A)


class TestPrincipalLambda:
    def test_critical_level_gives_one_eighth(self):
        sol = principal_lambda(CRITICAL_LEVEL)
        assert sol.lam == pytest.approx(0.125, abs=1e-5)

    def test_level_two_between_two_thirds_and_one(self):
        lam = principal_lambda(2.0).lam
        assert 2.0 / 3.0 < lam < 1.0

    def test_within_bounds_and_decreasing(self):
        grid = [0.05, 0.2, 1.0, 2.0, 8.0, CRITICAL_LEVEL, 30.0, 200.0, 1000.0]
        rates = []
        for A in grid:
            sol = principal_lambda(A)
            lo, hi = lambda_bounds(A)
            assert lo < sol.lam < hi
            rates.append(sol.lam)
        assert all(a > b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("A", [A_MIN, A_MAX])
    def test_range_ends_lie_strictly_inside_the_bounds(self, A):
        lo, hi = lambda_bounds(A)
        assert lo < principal_lambda(A).lam < hi

    def test_no_sign_change_in_the_bounds_is_a_bracket_failure(self, monkeypatch):
        principal_lambda.cache_clear()
        monkeypatch.setattr(eigen, "eigen_objective", lambda lam, A: 1.0 + lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketFailure, match="no sign change"):
                principal_lambda(2.0)

    def test_solution_residual_is_tiny(self):
        for A in (0.5, 2.0, 50.0):
            sol = principal_lambda(A)
            assert sol.residual <= 1e-9 * max(1.0, abs(eigen_objective(
                lambda_bounds(A)[0], A)))

    def test_branch_tag_flips_at_critical_level(self):
        assert principal_lambda(5.0).xi.kind == "imaginary"
        assert principal_lambda(20.0).xi.kind == "real"

    def test_repeated_calls_are_identical(self):
        a = principal_lambda(3.7)
        b = principal_lambda(3.7)
        assert a is b  # cached
        assert a.lam == b.lam

    @pytest.mark.parametrize("A", [A_MIN, 0.05, 2.0, CRITICAL_LEVEL, 20.0, 500.0, A_MAX])
    def test_bitwise_equal_to_the_full_scan(self, A):
        assert_bitwise_equal_to_full_scan(A)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.floats(math.log(A_MIN), math.log(A_MAX)).map(
        lambda t: min(max(math.exp(t), A_MIN), A_MAX)))
    def test_bitwise_equal_to_the_full_scan_over_the_range(self, A):
        assert_bitwise_equal_to_full_scan(A)

    @pytest.mark.parametrize("A", [2.0, 500.0])
    def test_scan_stops_at_the_bracket_and_evaluates_each_lambda_once(
            self, A, monkeypatch, whitw_calls):
        calls = []
        principal_lambda.cache_clear()
        monkeypatch.setattr(eigen, "eigen_objective", counting(eigen_objective, calls))
        sol = principal_lambda(A)
        lams = [lam for lam, _ in calls]
        # one W computation per distinct lambda, however often it is asked for
        assert len(whitw_calls) == len(set(whitw_calls)) == len(set(lams))
        grid = scan_grid(A)
        b_hi = min(x for x in grid if x > sol.lam)
        assert max(lams) == b_hi
        assert b_hi < grid[-1]



class TestCriticalA:
    def test_value(self):
        assert critical_A() == pytest.approx(CRITICAL_LEVEL, abs=1e-5)

    def test_rate_at_critical_level_is_one_eighth(self):
        assert principal_lambda(critical_A()).lam == pytest.approx(0.125, abs=1e-6)

    def test_each_level_is_evaluated_once(self, whitw_calls):
        assert critical_A() == 10.240465439105003
        levels = [z for _, _, z in whitw_calls]
        assert levels
        assert len(levels) == len(set(levels))

    def test_xi_nearly_vanishes_there(self):
        assert abs(principal_lambda(critical_A()).xi.magnitude) <= 1e-2
