"""Laplace transform of the quasi-stationary law: route agreement,
small-s behavior, the governing ODE, and the stationary limit."""

import math
from collections import Counter

import pytest

from shiryaev_qsd import laplace, make_params, moments, numerics, principal_lambda, specfun
from shiryaev_qsd.errors import DomainError, NonConvergenceError
from shiryaev_qsd.laplace import (
    METHODS,
    evaluate,
    laplace_bessel,
    laplace_kdf1,
    laplace_kdf2,
    laplace_moment_series,
    laplace_quadrature,
    ode_residual,
    stationary_laplace,
)
from shiryaev_qsd.moments import moments_recurrence
from shiryaev_qsd.numerics import integrate
from shiryaev_qsd.distribution import stationary_pdf


class TestBasicProperties:
    def test_value_one_at_zero_for_every_route(self, params_for):
        p = params_for(5.0)
        for m in METHODS:
            assert evaluate(p, 0.0, m).value == pytest.approx(1.0, abs=1e-10)

    def test_strictly_decreasing_in_s(self, params_for):
        p = params_for(5.0)
        vals = [laplace_quadrature(p, s).value for s in (0.0, 0.3, 1.0, 3.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_slope_at_origin_is_minus_mean(self, params_for):
        p = params_for(5.0)
        m1 = moments_recurrence(p, 1).values[1]
        h = 1e-5
        fd = (laplace_moment_series(p, h).value - 1.0) / h
        assert fd == pytest.approx(-m1, rel=1e-4)

    def test_negative_s_rejected(self, params_for):
        p = params_for(5.0)
        for m in METHODS:
            for s in (-1.0, math.nan):
                with pytest.raises(DomainError):
                    evaluate(p, s, m)

    def test_kdf2_refuses_below_its_floor(self, params_for):
        p = params_for(5.0)
        assert laplace_kdf2(p, 0.0).value == 1.0
        with pytest.raises(DomainError):
            laplace_kdf2(p, 1e-9)
        assert math.isfinite(laplace_moment_series(p, 1e-9).value)

    @pytest.mark.parametrize("A", [1.0, 5.0, 20.0])
    def test_bessel_refuses_where_it_leaves_float_range(self, params_for, A):
        # from u = 2 sqrt(2s) ~ 710 on, I(u) overflows and K(u) underflows
        p = params_for(A)
        assert math.isfinite(laplace_bessel(p, 6e4).value)
        with pytest.raises(NonConvergenceError, match="s=64000.0"):
            laplace_bessel(p, 6.4e4)

    @pytest.mark.parametrize("A, s", [(20.0, 1e-60), (20.0, 1e-100), (1.0, 1e-60)])
    def test_bessel_refuses_where_its_terms_cancel(self, params_for, A, s):
        # at tiny s the terms cancel to rounding noise (values near -1e-20
        # where the transform is 1): a ratio of 3e9 and more, against at
        # most ~12 for the values the route returns
        with pytest.raises(NonConvergenceError, match=f"s={s}, A={A}:"):
            laplace_bessel(params_for(A), s)

    def test_unknown_method_rejected(self, params_for):
        with pytest.raises(ValueError):
            evaluate(params_for(5.0), 1.0, "fourier")


class TestRouteAgreement:
    def test_moment_series_vs_quadrature(self, params_for):
        p = params_for(5.0)
        for s in (0.1, 1.0, 5.0):
            ref = laplace_quadrature(p, s).value
            assert laplace_moment_series(p, s).value == pytest.approx(ref, rel=1e-7)

    def test_kdf_routes_vs_quadrature(self, params_for):
        p = params_for(5.0)
        ref = laplace_quadrature(p, 1.0).value
        v1 = laplace_kdf1(p, 1.0).value
        v2 = laplace_kdf2(p, 1.0).value
        assert v1 == pytest.approx(ref, rel=1e-7)
        assert v2 == pytest.approx(v1, rel=1e-9)

    def test_kdf2_small_level(self, params_for):
        p = params_for(1.0)
        ref = laplace_quadrature(p, 2.0).value
        assert laplace_kdf2(p, 2.0).value == pytest.approx(ref, rel=1e-7)

    def test_bessel_route_vs_quadrature(self, params_for):
        for A, s in ((5.0, 1.0), (1.0, 0.1), (20.0, 5.0)):
            p = params_for(A)
            ref = laplace_quadrature(p, s).value
            assert laplace_bessel(p, s).value == pytest.approx(ref, rel=1e-7)

    def test_bessel_route_on_real_index_branch(self, params_for):
        # level above the branch point: real Bessel order
        p = params_for(20.0)
        ref = laplace_quadrature(p, 0.5).value
        assert laplace_bessel(p, 0.5).value == pytest.approx(ref, rel=1e-7)

    def test_eval_objects_record_method_and_level(self, params_for):
        ev = laplace_bessel(params_for(5.0), 1.0)
        assert ev.method == "bessel" and ev.A == 5.0 and ev.s == 1.0


class TestSeriesRefusal:
    def test_series_routes_refuse_extreme_arguments(self, params_for):
        # sA = 1000 needs far more working digits than the cap allows;
        # the contract is an explicit refusal, never a garbage number
        p = params_for(200.0)
        with pytest.raises(NonConvergenceError):
            laplace_moment_series(p, 5.0)
        with pytest.raises(NonConvergenceError):
            laplace_kdf1(p, 5.0)
        with pytest.raises(NonConvergenceError):
            laplace_kdf2(p, 5.0)

    def test_uniform_routes_still_agree_there(self, params_for):
        p = params_for(200.0)
        ref = laplace_quadrature(p, 5.0).value
        assert laplace_bessel(p, 5.0).value == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("route, budget, what", [
        ("moments", 33, "moment series"),
        ("kdf1", 479, "double series"),
        ("kdf2", 537, "double series"),
    ])
    def test_the_smallest_term_budget_that_answers(self, params_for, monkeypatch,
                                                   route, budget, what):
        # every inner sum of a double series draws on one budget
        p = params_for(5.0)
        want = laplace.ROUTES[route](p, 1.0).value
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", budget)
        assert laplace.ROUTES[route](p, 1.0).value.hex() == want.hex()
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", budget - 1)
        with pytest.raises(NonConvergenceError,
                           match=f"^{what} exceeded {budget - 1} terms$"):
            laplace.ROUTES[route](p, 1.0)


class TestStationaryLimit:
    def test_value_one_at_zero(self):
        assert stationary_laplace(0.0) == 1.0

    def test_matches_quadrature_of_stationary_density(self):
        for s in (0.5, 2.0):
            ref = integrate(lambda x: math.exp(-s * x) * stationary_pdf(x),
                            0.0, 200.0, tol=1e-12).value
            assert stationary_laplace(s) == pytest.approx(ref, abs=1e-9)

    def test_monotone_decreasing(self):
        vals = [stationary_laplace(s) for s in (0.0, 0.1, 0.5, 2.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gap_to_absorbed_transform_shrinks_with_level(self, params_for):
        gaps = []
        for A in (20.0, 50.0, 200.0):
            p = params_for(A)
            gaps.append(abs(laplace_bessel(p, 1.0).value - stationary_laplace(1.0)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_gap_below_one_thousandth_at_level_five_hundred(self, params_for):
        # the gap decays like ~ln(A)/(4A) (the absorbed law is missing the
        # ~2/A stationary tail mass above the level), so at level 500 it
        # sits near 3e-3 and falls below 1e-3 only between A = 1,850 and
        # 1,900; asserted at the stated 1e-3 target regardless
        p = params_for(500.0)
        gap = abs(laplace_bessel(p, 1.0).value - stationary_laplace(1.0))
        assert gap <= 1e-3


class TestOdeResidual:
    def test_small_for_bessel_route(self, params_for):
        p = params_for(5.0)
        for s in (0.5, 1.0, 3.0):
            assert abs(ode_residual(p, s, method="bessel")) <= 1e-5

    def test_small_for_quadrature_route(self, params_for):
        p = params_for(5.0)
        assert abs(ode_residual(p, 1.0, method="quadrature")) <= 1e-5

    def test_detects_a_wrong_transform(self, params_for):
        # scaling L by 1.05 breaks the inhomogeneous equation by
        # 0.05 * lambda e^{-sA}, well above the residual noise floor
        p = params_for(2.0)
        s = 1.0
        h = 1e-4

        def L(x):
            return 1.05 * laplace_bessel(p, x).value

        def second(hh):
            return (L(s - hh) - 2.0 * L(s) + L(s + hh)) / (hh * hh)

        d2 = (4.0 * second(h / 2.0) - second(h)) / 3.0
        lam, A = p.eigen.lam, p.eigen.A
        resid = (s * s / 2.0) * d2 - (s - lam) * L(s) - lam * math.exp(-s * A)
        assert abs(resid) > 1e-4

    def test_nonpositive_and_underflowing_s_rejected(self, params_for, monkeypatch):
        # below s ~ 3e-154 the stencil's (h/2)^2 is not a normal float
        # (at 1e-170 it is 0): refused before any route is evaluated
        for method in ("bessel", "moments", "quadrature"):
            monkeypatch.setitem(laplace.ROUTES, method, None)
        for s in (0.0, 1e-170):
            for method in ("bessel", "moments", "quadrature"):
                with pytest.raises(DomainError, match=str(s)):
                    ode_residual(params_for(20.0), s, method=method)

    def test_five_route_calls_and_seven_call_value(self, params_for, monkeypatch):
        # the residual as first written, with L(s) evaluated three times
        p = params_for(5.0)
        s = 1.0
        h = 1e-4

        def L(x):
            return laplace_bessel(p, x).value

        def second(hh):
            return (L(s - hh) - 2.0 * L(s) + L(s + hh)) / (hh * hh)

        d2 = (4.0 * second(h / 2.0) - second(h)) / 3.0
        lam, A = p.eigen.lam, p.eigen.A
        want = (s * s / 2.0) * d2 - (s - lam) * L(s) - lam * math.exp(-s * A)

        calls = Counter()

        def counted(p_, x, method, *args):
            calls[x] += 1
            return evaluate(p_, x, method, *args)

        monkeypatch.setattr(laplace, "evaluate", counted)
        got = ode_residual(p, s, method="bessel")
        assert got.hex() == want.hex()
        assert sorted(calls) == [s - h, s - h / 2.0, s, s + h / 2.0, s + h]
        assert set(calls.values()) == {1}


def fresh_params(A):
    """Params with an empty memo store, whatever earlier tests computed."""
    return make_params(principal_lambda(A))


class TestLevelMemo:
    @pytest.mark.parametrize("A", [5.0, 20.0], ids=["imaginary-xi", "real-xi"])
    def test_weber_panel_from_one_is_integrated_once_per_kind(self, monkeypatch, A):
        # u = 2 sqrt(2s) < 1 below s = 1/8, where every s shares panel(1, inf)
        svals = (0.05, 0.1)
        want = [laplace_bessel(fresh_params(A), s).value.hex() for s in svals]
        plain, panels = numerics.integrate, []

        def counting(f, a, b, tol):
            panels.append((a, b))
            return plain(f, a, b, tol)

        monkeypatch.setattr(numerics, "integrate", counting)
        p = fresh_params(A)
        got = [laplace_bessel(p, s).value.hex() for s in svals]
        assert got == want
        assert panels.count((1.0, math.inf)) == 2  # one for I, one for K
        assert len(panels) == 2 * 3

    @pytest.mark.parametrize("A", [5.0, 20.0], ids=["imaginary-xi", "real-xi"])
    def test_route_table_sequence_reuses_the_level(self, monkeypatch, A):
        # the order of the benchmark's route-table: moment table, every
        # Laplace route at s, then the ODE residual, all on one params
        s = 1.0
        calls = [
            *(lambda p, m=m: moments.moment_series(p, 10, m).values
              for m in moments.METHODS),
            *(lambda p, m=m: [evaluate(p, s, m).value] for m in METHODS),
            lambda p: [ode_residual(p, s)],
        ]
        want = [[v.hex() for v in call(fresh_params(A))] for call in calls]
        bessel, runs = laplace.ROUTES["bessel"], []

        def counting(p_, s_):
            runs.append(s_)
            return bessel(p_, s_)

        monkeypatch.setitem(laplace.ROUTES, "bessel", counting)
        p = fresh_params(A)
        assert [[v.hex() for v in call(p)] for call in calls] == want
        # the residual takes the row's bessel value at s from p's memo
        assert len(runs) == 5
