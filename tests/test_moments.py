"""Moment series: agreement of the recurrence, terminating 2F2 form,
power-series form, and direct quadrature."""

import math

import pytest

from shiryaev_qsd import make_params, moments, principal_lambda
from shiryaev_qsd.distribution import qsd_pdf
from shiryaev_qsd.errors import DomainError
from shiryaev_qsd.moments import (
    MomentSeries,
    max_rel_spread,
    moment_2f2,
    moment_powerseries,
    moment_series,
    moments_quadrature,
    moments_recurrence,
)
from shiryaev_qsd.numerics import integrate


def mean(p):
    """First moment A - 1/lambda_A."""
    return p.eigen.A - 1.0 / p.eigen.lam


def variance(p):
    """Var[Z] = (lambda - (A lambda - 1)^2) / (lambda^2 (1 + lambda))."""
    lam, A = p.eigen.lam, p.eigen.A
    return (lam - (A * lam - 1.0) ** 2) / (lam * lam * (1.0 + lam))


class TestRecurrence:
    def test_zeroth_moment_is_one(self, params_for):
        assert moments_recurrence(params_for(5.0), 0).values == (1.0,)

    def test_first_moment_closed_form(self, params_for):
        for A in (1.0, 5.0, 20.0):
            p = params_for(A)
            want = A - 1.0 / p.eigen.lam
            got = moments_recurrence(p, 1).values[1]
            assert abs(got - want) <= 1e-12 * A

    def test_second_moment_satisfies_defining_relation(self, params_for):
        p = params_for(3.0)
        lam, A = p.eigen.lam, p.eigen.A
        m = moments_recurrence(p, 2).values
        lhs = (1.0 + lam) * m[2] + 2.0 * m[1]
        assert lhs == pytest.approx(lam * A * A, rel=1e-12)


class Test2F2Form:
    def test_first_moment(self, params_for):
        for A in (1.0, 5.0, 20.0):
            p = params_for(A)
            assert abs(moment_2f2(p, 1) - mean(p)) <= 1e-12 * A

    def test_matches_recurrence_to_high_order(self, params_for):
        p = params_for(5.0)
        rec = moments_recurrence(p, 10).values
        for n in range(11):
            assert moment_2f2(p, n) == pytest.approx(rec[n], rel=1e-10)

    def test_rejects_negative_order(self, params_for):
        with pytest.raises(DomainError):
            moment_2f2(params_for(5.0), -1)


class TestPowerSeriesForm:
    def test_first_moment(self, params_for):
        for A in (1.0, 5.0, 20.0):
            p = params_for(A)
            assert abs(moment_powerseries(p, 1) - mean(p)) <= 1e-12 * A

    def test_real_arithmetic_on_both_branches(self, params_for):
        # one level on each side of the branch point of the index
        for A in (5.0, 20.0):
            p = params_for(A)
            rec = moments_recurrence(p, 6).values
            for n in range(7):
                got = moment_powerseries(p, n)
                assert isinstance(got, float)
                assert got == pytest.approx(rec[n], rel=1e-10)


class TestQuadratureRoute:
    def test_matches_recurrence(self, params_for):
        p = params_for(3.0)
        quad_vals = moments_quadrature(p, 5).values
        rec = moments_recurrence(p, 5).values
        for n in range(6):
            assert quad_vals[n] == pytest.approx(rec[n], rel=1e-8)

    @pytest.mark.parametrize("A", [5.0, 20.0])  # imaginary, real xi
    def test_bitwise_equal_to_direct_integrals(self, params_for, A):
        p = params_for(A)
        want = [integrate(lambda x: x**n * qsd_pdf(p, x), 0.0, A, tol=1e-9).value
                for n in range(11)]
        got = moments_quadrature(p, 10).values
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_each_node_evaluated_once_per_call(self, whitw_calls):
        # fresh params: params_for's cached ones may already hold the nodes
        p = make_params(principal_lambda(3.0))
        whitw_calls.clear()
        moments_quadrature(p, 10)
        nodes = list(whitw_calls)
        assert nodes and len(set(nodes)) == len(nodes)
        # the values live on p: a second call computes no W
        moments_quadrature(p, 10)
        assert whitw_calls == nodes
        # and a fresh QsdParams pays again
        fresh = make_params(principal_lambda(3.0))
        whitw_calls.clear()
        moments_quadrature(fresh, 10)
        assert whitw_calls == nodes


class TestDispatcher:
    def test_all_methods_agree(self, params_for):
        p = params_for(5.0)
        series = [moment_series(p, 8, m).values
                  for m in ("recurrence", "2f2", "powerseries")]
        for n in range(9):
            assert max_rel_spread([s[n] for s in series]) <= 1e-9

    def test_unknown_method_rejected(self, params_for):
        with pytest.raises(ValueError):
            moment_series(params_for(5.0), 3, "oracle")

    def test_negative_order_rejected_by_every_route(self, params_for):
        for m in moments.METHODS:
            with pytest.raises(DomainError):
                moment_series(params_for(5.0), -1, m)

    def test_negative_order_rejected_without_the_dispatcher(self, params_for):
        p = params_for(5.0)
        for route in (moments_recurrence, moments_quadrature,
                      moments.ROUTES["2f2"], moments.ROUTES["powerseries"],
                      moment_2f2, moment_powerseries):
            with pytest.raises(DomainError):
                route(p, -1)

    def test_series_records_its_method(self, params_for):
        s = moment_series(params_for(5.0), 2, "2f2")
        assert isinstance(s, MomentSeries)
        assert s.method == "2f2" and s.n_max == 2 and len(s.values) == 3


class TestVariance:
    def test_consistent_with_moments(self, params_for):
        for A in (1.0, 5.0, 20.0):
            p = params_for(A)
            m = moments_recurrence(p, 2).values
            assert variance(p) == pytest.approx(m[2] - m[1] ** 2, rel=1e-9)

    def test_positive_across_levels(self, params_for):
        for A in (0.5, 2.0, 10.240465, 100.0):
            assert variance(params_for(A)) > 0.0

    def test_second_moment_bounded_by_level_times_mean(self, params_for):
        # x <= A on the support, so M_2 <= A M_1
        for A in (1.0, 5.0, 50.0):
            p = params_for(A)
            m = moments_recurrence(p, 2).values
            assert m[1] ** 2 <= m[2] <= A * m[1]


class TestMaxRelSpread:
    def test_zero_for_identical_values(self):
        assert max_rel_spread([2.0, 2.0, 2.0]) == 0.0
        assert max_rel_spread([0.0, 0.0]) == 0.0

    def test_simple_case(self):
        assert max_rel_spread([1.0, 2.0]) == pytest.approx(0.5)
