"""Quasi-stationary pdf/cdf and the stationary limit law."""

import math

import numpy as np
import pytest

from shiryaev_qsd.distribution import (
    QsdParams,
    make_params,
    qsd_cdf,
    qsd_pdf,
    stationary_cdf,
    stationary_pdf,
)
from shiryaev_qsd.eigen import EigenSolution, principal_lambda, xi_of_lambda
from shiryaev_qsd.errors import DomainError, EvaluationDomainError
from shiryaev_qsd.numerics import integrate


class TestMakeParams:
    def test_normalizer_positive_and_finite(self, params_for):
        for A in (0.5, 2.0, 10.240465, 50.0):
            p = params_for(A)
            assert p.normalizer > 0 and math.isfinite(p.normalizer)

    def test_normalizer_approaches_one_for_large_levels(self, params_for):
        # N -> int_0^inf of the stationary density's Whittaker kernel = 1
        gaps = [abs(params_for(A).normalizer - 1.0) for A in (20.0, 50.0, 200.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1  # O(1/A) convergence, constant ~10

    def test_deterministic(self, params_for):
        sol = principal_lambda(3.0)
        assert make_params(sol) == make_params(sol)

    def test_rejects_degenerate_solution(self):
        # fabricated solutions below A_MIN whose normalizer underflows to zero
        for A, lam in ((1e-4, 2.0), (0.003, 5.6e4), (0.002, 1.3e5)):
            bogus = EigenSolution(A=A, lam=lam, xi=xi_of_lambda(lam), residual=0.0)
            with pytest.raises(DomainError, match=f"normalizer at A={A} "):
                make_params(bogus)


class TestQsdPdf:
    def test_vanishes_at_absorption_level_exactly(self, params_for):
        for A in (1.0, 5.0, 20.0):
            p = params_for(A)
            assert qsd_pdf(p, A) == 0.0
            assert qsd_pdf(p, A + 1.0) == 0.0

    def test_vanishes_at_and_below_origin(self, params_for):
        p = params_for(5.0)
        assert qsd_pdf(p, 0.0) == 0.0
        assert qsd_pdf(p, -1.0) == 0.0
        assert qsd_pdf(p, 1e-4) == 0.0  # underflow region, exact zero

    def test_positive_in_the_interior(self, params_for):
        p = params_for(5.0)
        for x in np.linspace(0.2, 4.8, 24):
            assert qsd_pdf(p, x) > 0.0

    def test_integrates_to_one(self, params_for):
        for A in (1.0, 5.0, 20.0):
            p = params_for(A)
            res = integrate(lambda x: qsd_pdf(p, x), 0.0, A, tol=1e-11)
            assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_nan_point_is_refused(self, params_for):
        with pytest.raises(EvaluationDomainError):
            qsd_pdf(params_for(5.0), math.nan)


class TestQsdCdf:
    def test_boundary_values(self, params_for):
        p = params_for(5.0)
        assert qsd_cdf(p, 5.0) == 1.0
        assert qsd_cdf(p, 7.0) == 1.0
        assert qsd_cdf(p, 0.0) == 0.0
        assert qsd_cdf(p, -2.0) == 0.0

    def test_nan_point_is_refused(self, params_for):
        with pytest.raises(EvaluationDomainError):
            qsd_cdf(params_for(5.0), math.nan)

    def test_monotone_nondecreasing(self, params_for):
        p = params_for(5.0)
        xs = np.linspace(0.0, 5.0, 200)
        vals = [qsd_cdf(p, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_derivative_matches_pdf(self, params_for):
        for A in (1.0, 5.0, 20.0):
            p = params_for(A)
            for frac in (0.15, 0.4, 0.7, 0.95):
                x = frac * A
                h = 1e-5 * A
                fd = (qsd_cdf(p, x + h) - qsd_cdf(p, x - h)) / (2.0 * h)
                assert abs(fd - qsd_pdf(p, x)) <= 1e-6 * max(1.0, qsd_pdf(p, x))


class TestStationaryLaw:
    def test_cdf_closed_form_point(self):
        assert stationary_cdf(2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert stationary_cdf(0.0) == 0.0
        assert stationary_cdf(-1.0) == 0.0

    def test_pdf_integrates_to_one(self):
        res = integrate(stationary_pdf, 0.0, np.inf, tol=1e-11)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_pdf_is_cdf_derivative(self):
        for x in (0.5, 1.0, 3.0, 10.0):
            h = 1e-6 * x
            fd = (stationary_cdf(x + h) - stationary_cdf(x - h)) / (2.0 * h)
            assert fd == pytest.approx(stationary_pdf(x), rel=1e-7)

    def test_absorbed_law_dominates_stationary_law(self, params_for):
        # Q_A(x) >= H(x): absorption at A pushes mass toward the origin
        for A in (20.0, 50.0):
            p = params_for(A)
            for x in np.linspace(0.5, A - 0.5, 40):
                assert qsd_cdf(p, x) >= stationary_cdf(x) - 1e-12
