"""Special-function layer: values against independent oracles, classical
identities, the error contracts, and the Gamma memo."""

import contextlib
import math
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath.libmp import NoConvergence
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ive, kv

from shiryaev_qsd.errors import (
    DenominatorPoleError,
    DivergenceError,
    DomainError,
    EvaluationDomainError,
    ImaginaryResidueError,
    NonConvergenceError,
)
from shiryaev_qsd import distribution, eigen, laplace, moments, simulate, specfun
from shiryaev_qsd.specfun import (
    OrderParam,
    as_real,
    bessel_i,
    bessel_k,
    hyp2f2,
    kampe_de_feriet,
    weber_incomplete,
    whittaker_w,
)


def negated(order):
    return OrderParam(order.kind, -order.magnitude)


class TestOrderParam:
    def test_real_kind_exposes_real_complex_value(self):
        b = OrderParam.real(0.4)
        assert b.value == 0.4 + 0j

    def test_imaginary_kind_exposes_imaginary_complex_value(self):
        b = OrderParam.imaginary(0.7)
        assert b.value == 0.7j

    def test_negated_and_halved_preserve_kind(self):
        b = OrderParam.imaginary(0.8)
        assert negated(b).value == -0.8j
        assert b.halved().value == 0.4j
        assert negated(b).kind == b.halved().kind == "imaginary"

    def test_rejects_unknown_kind_and_nonfinite_magnitude(self):
        with pytest.raises(ValueError):
            OrderParam("quaternion", 1.0)
        with pytest.raises(ValueError):
            OrderParam.real(math.inf)


class TestAsReal:
    def test_accepts_tiny_imaginary_noise(self):
        assert as_real(2.0 + 1e-12j) == 2.0

    def test_rejects_structural_imaginary_part(self):
        with pytest.raises(ImaginaryResidueError):
            as_real(1.0 + 1e-3j)


def _hyp2f2_oracle(a1, a2, b1, b2, z, terms=400):
    """Plain term-by-term summation at extended precision."""
    with mp.workdps(40):
        total = mp.mpc(0)
        for n in range(terms):
            total += (mp.rf(a1, n) * mp.rf(a2, n) * mp.mpc(z) ** n
                      / (mp.rf(b1, n) * mp.rf(b2, n) * mp.factorial(n)))
        return complex(total)


class TestHyp2F2:
    def test_zero_upper_parameter_collapses_to_one(self):
        for a2, b1, b2, z in ((0.7, 1.1, 0.9, 2.3), (-1.5, 0.3, 2.0, -4.0)):
            assert hyp2f2(0.0, a2, b1, b2, z) == 1.0 + 0j

    def test_two_term_truncation(self):
        a2, b1, b2, z = -1.0, 1.3, 0.8, 0.6
        val = hyp2f2(1.0, a2, b1, b2, z)
        assert val.real == pytest.approx(1.0 - z / (b1 * b2), rel=1e-14)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a1 = -float(rng.integers(0, 9))
            a2 = rng.uniform(-2, 2)
            b1, b2 = rng.uniform(0.2, 3.0, size=2)
            z = rng.uniform(-5.0, 5.0)
            got = hyp2f2(a1, a2, b1, b2, z)
            want = _hyp2f2_oracle(a1, a2, b1, b2, z)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    def test_terminating_case_is_polynomial_exact(self):
        # upper parameter -3: degree-3 polynomial, checked coefficientwise
        a2, b1, b2 = 0.9, 1.4, 0.7
        z = 2.0
        with mp.workdps(30):
            want = float(sum(
                mp.rf(-3, n) * mp.rf(a2, n) * z**n
                / (mp.rf(b1, n) * mp.rf(b2, n) * mp.factorial(n))
                for n in range(4)
            ))
        assert hyp2f2(-3.0, a2, b1, b2, z) == pytest.approx(want, rel=1e-14)

    def test_lower_parameter_pole_raises(self):
        with pytest.raises(DenominatorPoleError):
            hyp2f2(0.5, 0.5, -2.0, 1.0, 1.0)

    def test_non_terminating_parameters_refused(self):
        with pytest.raises(DomainError):
            hyp2f2(0.5, 0.7, 1.1, 0.9, 30.0)

    def test_contiguous_relation(self):
        # (b-a) z F[a+1,b+1;c+1,d+1] + c d (F[a,b+1;c,d] - F[a+1,b;c,d]) = 0;
        # a in {-1, ..., -10} makes every series terminate
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = (float(v) for v in rng.integers(-10, 0, size=2))
            c, d = rng.uniform(0.3, 3.0, size=2)
            z = rng.uniform(-4.0, 4.0)
            t1 = (b - a) * z * hyp2f2(a + 1, b + 1, c + 1, d + 1, z)
            t2 = c * d * (hyp2f2(a, b + 1, c, d, z) - hyp2f2(a + 1, b, c, d, z))
            scale = max(abs(t1), abs(t2), 1.0)
            assert abs(t1 + t2) <= 1e-10 * scale


def _whittaker_ode_rhs(z, y, a, b2):
    # y = (w, w'); Whittaker equation w'' = (1/4 - a/z + (b^2 - 1/4)/z^2) w
    w, dw = y
    return [dw, (0.25 - a / z + (b2 - 0.25) / (z * z)) * w]


class TestWhittakerW:
    def test_order_negation_is_bitwise_invariant(self):
        for order in (OrderParam.real(0.37), OrderParam.imaginary(1.26)):
            a, z = 1.0, 0.8
            assert whittaker_w(a, order, z) == whittaker_w(a, negated(order), z)

    def test_nonpositive_argument_raises(self):
        with pytest.raises(EvaluationDomainError):
            whittaker_w(0.5, OrderParam.real(0.3), 0.0)
        with pytest.raises(EvaluationDomainError):
            whittaker_w(0.5, OrderParam.real(0.3), math.nan)

    def test_matches_inward_ode_integration_from_asymptotics(self):
        from scipy.integrate import solve_ivp

        a, b, z1, z0 = 1.0, 0.25, 40.0, 3.0
        # large-z: W ~ e^{-z/2} z^a sum_k c_k z^{-k},
        # c_k = c_{k-1} (b^2 - (a-k+1/2)^2) / k
        def seed(z):
            s = ds = 0.0
            c = 1.0
            for k in range(10):
                s += c / z**k
                ds += -k * c / z ** (k + 1)
                c *= (b * b - (a - k - 0.5) ** 2) / (k + 1)
            pre = math.exp(-z / 2.0) * z**a
            dpre = pre * (-0.5 + a / z)
            return pre * s, dpre * s + pre * ds

        w1, dw1 = seed(z1)
        sol = solve_ivp(_whittaker_ode_rhs, (z1, z0), [w1, dw1],
                        args=(a, b * b), rtol=1e-12, atol=1e-30)
        assert sol.success
        got = whittaker_w(a, OrderParam.real(b), z0)
        assert got == pytest.approx(sol.y[0][-1], rel=1e-8)

    def test_wronskian_with_m(self):
        # M W' - W M' = -Gamma(1+2b) / Gamma(1/2+b-a); W from the package,
        # M, both derivatives and the Gammas from the extended-precision
        # oracle
        rng = np.random.default_rng(17)
        for _ in range(40):
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(0.05, 0.8)
            x = 0.5 + b - a
            if abs(x - round(x)) < 0.05 and round(x) <= 0:
                continue
            z = rng.uniform(0.3, 6.0)
            order = OrderParam.real(b)
            with mp.workdps(30):
                m = float(mp.whitm(a, b, z))
                dm = float(mp.diff(lambda t: mp.whitm(a, b, t), z))
                dw = float(mp.diff(lambda t: mp.whitw(a, b, t), z))
                want = float(-mp.gamma(1 + 2 * b) / mp.gamma(0.5 + b - a))
            wron = m * dw - whittaker_w(a, order, z) * dm
            assert abs(wron - want) <= 1e-10 * max(1.0, abs(want))


def _bessel_i_series(order_c, z, terms=60):
    """Defining power series with explicit Gamma factors."""
    with mp.workdps(40):
        total = mp.mpc(0)
        half = mp.mpf(z) / 2
        for k in range(terms):
            total += half ** (2 * k + order_c) / (
                mp.factorial(k) * mp.gamma(k + 1 + mp.mpc(order_c)))
        return complex(total)


class TestBessel:
    def test_imaginary_order_values_match_series_and_reflection_oracles(self):
        z, nu = 2.0, 0.5
        order = OrderParam.imaginary(nu)
        i_direct = _bessel_i_series(1j * nu, z)
        assert bessel_i(order, z) == pytest.approx(i_direct.real, rel=1e-12)
        # K from the reflection formula, all in complex arithmetic
        a = 1j * nu
        i_neg = _bessel_i_series(-a, z)
        k_reflect = math.pi * (i_neg - i_direct) / (2.0 * np.sin(math.pi * a))
        assert abs(k_reflect.imag) < 1e-12
        assert bessel_k(order, z) == pytest.approx(k_reflect.real, rel=1e-12)

    def test_real_order_reflection_formula(self):
        # K_a = pi (I_{-a} - I_a) / (2 sin pi a); the package keeps only
        # |a| (K is even in the order) so I_{-a} comes from the oracle
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = rng.uniform(0.05, 1.9)
            if abs(a - round(a)) < 1e-2:
                continue
            z = rng.uniform(0.2, 8.0)
            order = OrderParam.real(a)
            with mp.workdps(30):
                i_neg = float(mp.besseli(-a, z))
            want = (math.pi * (i_neg - bessel_i(order, z))
                    / (2.0 * math.sin(math.pi * a)))
            assert bessel_k(order, z) == pytest.approx(want, rel=1e-10)

    def test_wronskian(self):
        # z (K I' - I K') = 1; derivative via the extended-precision oracle
        for order in (OrderParam.real(0.3), OrderParam.imaginary(0.7)):
            nu = mp.mpc(order.value)
            for z in (0.1, 1.0, 10.0):
                with mp.workdps(30):
                    di = complex(mp.diff(lambda t: mp.besseli(nu, t), z)).real
                    dk = complex(mp.diff(lambda t: mp.besselk(nu, t), z)).real
                resid = z * (bessel_k(order, z) * di - bessel_i(order, z) * dk)
                assert resid == pytest.approx(1.0, rel=1e-10)

    def test_small_argument_power_law(self):
        b = 0.4
        order = OrderParam.real(b)
        for z in (1e-2, 1e-3, 1e-4):
            scaled = bessel_i(order, z) * math.gamma(b + 1) * (2.0 / z) ** b
            assert scaled == pytest.approx(1.0, abs=1e-4 + z)

    def test_order_negation_invariance(self):
        for order in (OrderParam.real(0.6), OrderParam.imaginary(1.1)):
            assert bessel_k(order, 1.7) == bessel_k(negated(order), 1.7)
            assert bessel_i(order, 1.7) == bessel_i(negated(order), 1.7)

    def test_nonpositive_argument_raises(self):
        with pytest.raises(EvaluationDomainError):
            bessel_i(OrderParam.real(0.5), 0.0)
        with pytest.raises(EvaluationDomainError):
            bessel_k(OrderParam.real(0.5), -1.0)
        with pytest.raises(EvaluationDomainError):
            bessel_k(OrderParam.imaginary(0.5), math.nan)


class TestMpmathFailures:
    """mpmath's refusals on validated arguments end as NonConvergenceError,
    with mpmath's exception kept as the cause."""

    @staticmethod
    def _raise(exc):
        def fail(*args, **kwargs):
            raise exc
        return fail

    def test_whittaker_value_error(self, monkeypatch):
        monkeypatch.setattr(specfun.MP, "whitw", self._raise(ValueError("hypercomb")))
        with pytest.raises(NonConvergenceError, match="Whittaker W") as info:
            whittaker_w(1.0, OrderParam.imaginary(0.7), 1.0)
        assert isinstance(info.value.__cause__, ValueError)

    def test_bessel_no_convergence(self, monkeypatch):
        monkeypatch.setattr(specfun.MP, "besselk",
                            self._raise(NoConvergence("besselk")))
        with pytest.raises(NonConvergenceError, match="Bessel K") as info:
            bessel_k(OrderParam.real(0.5), 2.0)
        assert isinstance(info.value.__cause__, NoConvergence)

    def test_imaginary_order_weber_integrand(self, monkeypatch):
        # the panel's first nodes, near x = 2, take the 0F1 pair through
        # hypercomb: the 2F0 of besselk is doomed there
        monkeypatch.setattr(specfun.MP, "hypercomb",
                            self._raise(ValueError("hypercomb")))
        with pytest.raises(NonConvergenceError, match="Weber K integrand") as info:
            weber_incomplete("K", 2.0, 2.0, OrderParam.imaginary(0.5))
        assert isinstance(info.value.__cause__, ValueError)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(
        lambda t: min(max(math.exp(t), lo), hi))


def _signed(magnitudes):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(lambda t: t[0] * t[1])


def _with_mpmaths_own(evaluate, names):
    """evaluate() at WORK_DPS through MP, then with mpmath's own
    functions ``names`` swapped in."""
    MP = specfun.MP
    own = {"hypsum": types.MethodType(specfun.MPMATH_HYPSUM, MP), **MP.unmemoised}
    with MP.workdps(specfun.WORK_DPS):
        ours = evaluate()
        with pytest.MonkeyPatch.context() as patch:
            for name in names:
                patch.setattr(MP, name, own[name])
            theirs = evaluate()
    return ours, theirs


SKIP = ("hypsum",)
CONJUGATE = ("gamma", "rgamma", "hyper")


@pytest.fixture
def sums_2f0(monkeypatch):
    """(1/|x|, raised) of every 2F0(a, b; x) sum mpmath's summation runs
    under MP's hypsum hook."""
    sums = []
    plain = specfun.MPMATH_HYPSUM

    def counting(ctx, p, q, flags, coeffs, x, *args, **kwargs):
        if (p, q) != (2, 0):
            return plain(ctx, p, q, flags, coeffs, x, *args, **kwargs)
        try:
            value = plain(ctx, p, q, flags, coeffs, x, *args, **kwargs)
        except NoConvergence:
            sums.append((1 / abs(complex(x)), True))
            raise
        sums.append((1 / abs(complex(x)), False))
        return value

    monkeypatch.setattr(specfun, "MPMATH_HYPSUM", counting)
    return sums


class TestAsymptoticSkip:
    """MP skips mpmath's asymptotic 2F0 attempt only where it must fail,
    and every value stays mpmath's bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(k=st.sampled_from([0, 1]),
           m=st.one_of(st.floats(0.0, 0.25, exclude_max=True).map(lambda m: (m, 0.0)),
                       _signed(_log_uniform(1e-3, 30.0)).map(lambda m: (0.0, m))),
           z=_log_uniform(1e-3, 700.0))
    def test_whittaker_w_is_bitwise_mpmaths(self, k, m, z):
        skipping, own = _with_mpmaths_own(
            lambda: specfun.MP._exact(specfun.MP.whitw(k, specfun.MP.mpc(*m), z)), SKIP)
        assert skipping == own

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(nu=st.one_of(st.floats(0.0, 1.0).map(lambda n: (n, 0.0)),
                        _signed(_log_uniform(1e-3, 60.0)).map(lambda n: (0.0, n))),
           x=_log_uniform(1e-2, 60.0))
    def test_bessel_k_is_bitwise_mpmaths(self, nu, x):
        skipping, own = _with_mpmaths_own(
            lambda: specfun.MP._exact(specfun.MP.besselk(specfun.MP.mpc(*nu), x)), SKIP)
        assert skipping == own

    def test_a_forced_doomed_2f0_raises_mpmaths_message(self):
        a, b, x = 0.5 + 2j, 0.5 - 2j, -0.5
        MP = specfun.MP

        def forced():
            assert specfun._doomed_2f0(a, b, x, MP.prec, MP.prec)
            with pytest.raises(NoConvergence) as info:
                MP.hyp2f0(a, b, x, force_series=True)
            return str(info.value)

        skipping, own = _with_mpmaths_own(forced, SKIP)
        assert skipping == own == specfun._HYPSUM_NO_CONVERGENCE
        # without force_series mpmath takes its fallback
        skipping, own = _with_mpmaths_own(lambda: MP._exact(MP.hyp2f0(a, b, x)), SKIP)
        assert skipping == own

    def test_a_cold_eigen_solve_sums_no_doomed_series(self, sums_2f0):
        for A in (0.05, 2.0, 20.0, 500.0):
            eigen.principal_lambda.__wrapped__(A)
        assert not any(raised for _, raised in sums_2f0)

    def test_a_cdf_table_sums_no_doomed_series(self, sums_2f0):
        p = distribution.make_params(eigen.principal_lambda.__wrapped__(20.0))
        simulate._cdf_interpolator(p)
        assert not any(raised for _, raised in sums_2f0)
        # W at the node x = 0.01 (z = 200) still takes mpmath's own
        # asymptotic series, so the rule is not "always skip"
        assert max(z for z, raised in sums_2f0 if not raised) >= 199.0


def _memo_key(name, x):
    x = specfun.MP.convert(x)
    arg = x._mpf_ if hasattr(x, "_mpf_") else x._mpc_
    return (name, arg, specfun.MP.prec)


@pytest.fixture
def gamma_calls(monkeypatch):
    """(function, argument, prec) of every Gamma and 1/Gamma value MP
    actually computes, memo hits left out."""
    calls = []
    for name in ("gamma", "rgamma"):
        plain = specfun.MP.unmemoised[name]

        def counting(x, _name=name, _plain=plain, **kwargs):
            calls.append(_memo_key(_name, x))
            return _plain(x, **kwargs)

        monkeypatch.setitem(specfun.MP.unmemoised, name, counting)
    return calls


class TestGammaMemo:
    ORDER = OrderParam.imaginary(0.9)

    def _route_values(self, A):
        p = distribution.make_params(eigen.principal_lambda(A))
        s = 1.0
        vals = [fn(p, s).value for fn in laplace.ROUTES.values()]
        vals.append(laplace.ode_residual(p, s))
        vals.extend(moments.moments_quadrature(p, 10).values)
        vals.extend(simulate._cdf_interpolator(p)[1])
        return [float(v).hex() for v in vals]

    @pytest.mark.parametrize("A", [5.0, 20.0], ids=["imaginary-xi", "real-xi"])
    def test_every_value_is_bitwise_the_unmemoised_one(self, monkeypatch, A):
        memoised = self._route_values(A)
        monkeypatch.setattr(specfun, "memo", contextlib.nullcontext)
        assert self._route_values(A) == memoised

    def test_one_moment_table_computes_each_gamma_once(self, gamma_calls):
        p = distribution.make_params(eigen.principal_lambda(5.0))
        gamma_calls.clear()
        moments.moments_quadrature(p, 10)
        assert gamma_calls
        assert len(set(gamma_calls)) == len(gamma_calls)

    def test_nothing_outlives_a_block(self, gamma_calls):
        with specfun.memo():
            whittaker_w(1.0, self.ORDER, 0.7)
        gamma_calls.clear()
        whittaker_w(1.0, self.ORDER, 0.7)
        first = len(gamma_calls)
        whittaker_w(1.0, self.ORDER, 0.7)
        assert first > 0
        assert len(gamma_calls) == 2 * first

    def test_a_nested_block_reuses_the_outer_memo(self, gamma_calls):
        with specfun.memo():
            whittaker_w(1.0, self.ORDER, 0.7)
            computed = len(gamma_calls)
            with specfun.memo():
                whittaker_w(1.0, self.ORDER, 0.8)
                whittaker_w(1.0, self.ORDER, 0.7)
            whittaker_w(1.0, self.ORDER, 0.7)
        assert computed > 0
        assert len(gamma_calls) == computed

    def test_errors_and_keyword_calls_pass_through(self, gamma_calls):
        with specfun.memo():
            for _ in range(2):
                with pytest.raises(ValueError):
                    specfun.MP.gamma(0)
            assert specfun.MP.gamma(2.5, prec=80) == specfun.MP.gamma(2.5, prec=80)
        assert len(gamma_calls) == 4

    def test_a_repeated_whittaker_w_computes_once(self, whitw_calls):
        with specfun.memo():
            first = whittaker_w(1.0, self.ORDER, 0.7)
            # the order's sign is immaterial, so the key is canonical
            again = whittaker_w(1.0, OrderParam.imaginary(-0.9), 0.7)
        assert again == first
        assert len(whitw_calls) == 1
        whittaker_w(1.0, self.ORDER, 0.7)
        assert len(whitw_calls) == 2

    def test_a_store_keeps_its_values_between_blocks(self, whitw_calls):
        store = {}
        with specfun.memo(store):
            first = whittaker_w(1.0, self.ORDER, 0.7)
        # a block without the store, even one around it, does not see them
        with specfun.memo():
            whittaker_w(1.0, self.ORDER, 0.7)
            with specfun.memo(store):
                assert whittaker_w(1.0, self.ORDER, 0.7) == first
            whittaker_w(1.0, self.ORDER, 0.7)
        assert len(whitw_calls) == 2

    def test_a_repeated_evaluate_computes_once(self, monkeypatch):
        # fresh params: params_for's cached ones may already hold the value
        p = distribution.make_params(eigen.principal_lambda(5.0))
        route, calls = laplace.ROUTES["kdf1"], []

        def counting(p_, s_):
            calls.append(s_)
            return route(p_, s_)

        monkeypatch.setitem(laplace.ROUTES, "kdf1", counting)
        first = laplace.evaluate(p, 0.5, "kdf1")
        assert laplace.evaluate(p, 0.5, "kdf1") is first
        assert calls == [0.5]
        fresh = distribution.make_params(eigen.principal_lambda(5.0))
        assert laplace.evaluate(fresh, 0.5, "kdf1") == first
        assert calls == [0.5, 0.5]

    def test_a_raising_whittaker_w_is_computed_again(self, monkeypatch):
        calls = []

        def refusing(*args):
            calls.append(args)
            raise NoConvergence("whitw")

        monkeypatch.setattr(specfun.MP, "whitw", refusing)
        with specfun.memo():
            for _ in range(2):
                with pytest.raises(NonConvergenceError):
                    whittaker_w(1.0, self.ORDER, 0.7)
        assert len(calls) == 2


@pytest.fixture
def hyper_calls(monkeypatch):
    """(a_s, b_s, z) of every hypergeometric value MP actually computes,
    memo hits left out."""
    calls = []
    plain = specfun.MP.unmemoised["hyper"]

    def counting(a_s, b_s, z, **kwargs):
        calls.append((a_s, b_s, z))
        return plain(a_s, b_s, z, **kwargs)

    monkeypatch.setitem(specfun.MP.unmemoised, "hyper", counting)
    return calls


# the imaginary-order float functions, at order i y and argument z
IMAGINARY_ORDER = {
    "whittaker_w k=0": lambda y, z: whittaker_w(0.0, OrderParam.imaginary(y), z),
    "whittaker_w k=1": lambda y, z: whittaker_w(1.0, OrderParam.imaginary(y), z),
    "bessel_k": lambda y, z: bessel_k(OrderParam.imaginary(y), z),
    "bessel_i": lambda y, z: bessel_i(OrderParam.imaginary(y), z),
    "Weber K integrand": lambda y, z: specfun._weber_integrand_imag("K", 5.0, y)[0](z),
    "Weber I integrand": lambda y, z: specfun._weber_integrand_imag("I", 5.0, y)[0](z),
}


class TestConjugatePairs:
    """MP takes Gamma, 1/Gamma and 1F1 at the upper member of each
    conjugate pair and conjugates it for the other; every float value
    stays the one mpmath's own functions give."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(fn=st.sampled_from(sorted(IMAGINARY_ORDER)),
           # near-critical orders are in: Gamma's last-bit asymmetry is
           # most frequent there
           y=_log_uniform(10 ** -3.5, 200.0),
           z=_log_uniform(10 ** -1.5, 160.0))
    def test_float_values_are_bitwise_mpmaths(self, fn, y, z):
        ours, own = _with_mpmaths_own(lambda: IMAGINARY_ORDER[fn](y, z), CONJUGATE)
        assert ours.hex() == own.hex()

    def test_a_whittaker_w_computes_each_pair_once(self, monkeypatch, gamma_calls,
                                                   hyper_calls):
        passes = []
        hypercomb = specfun.MP.hypercomb

        def counting(function, params, **kwargs):
            def h(*args):
                passes.append(args)
                return function(*args)
            return hypercomb(h, params, **kwargs)

        monkeypatch.setattr(specfun.MP, "hypercomb", counting)
        with specfun.memo():
            whittaker_w(1.0, OrderParam.imaginary(0.37), 0.7)
        complex_args = [arg for _, arg, _ in gamma_calls if len(arg) == 2]
        params = [complex(p) for a_s, b_s, _ in hyper_calls for p in a_s + b_s]
        assert passes
        assert all(im[0] == 0 for _, im in complex_args)
        assert all(p.imag >= 0 for p in params)
        # per pass one 1F1 and the two 1/Gamma values 1/Gamma(a), 1/Gamma(b)
        assert len(hyper_calls) == len(passes)
        assert len(complex_args) == 2 * len(passes)


def _besselk_2f0_converges(y, x):
    """Whether mpmath's own besselk(i y, x) at WORK_DPS sums its
    asymptotic 2F0 without raising (MP's hypsum hook off)."""
    MP, raised = specfun.MP, []

    def recording(p, q, *args, **kwargs):
        try:
            return specfun.MPMATH_HYPSUM(MP, p, q, *args, **kwargs)
        except NoConvergence:
            raised.append((p, q))
            raise

    with pytest.MonkeyPatch.context() as patch, MP.workdps(specfun.WORK_DPS):
        patch.setattr(MP, "hypsum", recording)
        MP.besselk(MP.mpc(0, y), x)
    # the 2F0 is besselk's first sum; every later one is its fallback's
    return (2, 0) not in raised


class TestImaginaryOrderK:
    """K of imaginary order takes mpmath's 0F1 pair where the asymptotic
    2F0 of besselk is doomed, and besselk elsewhere; every float value
    stays besselk's."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(fn=st.sampled_from(["bessel_k", "Weber K integrand"]),
           y=_log_uniform(10 ** -3.5, 215.0),
           x=st.floats(1.0, 160.0))
    def test_float_values_are_bitwise_besselks(self, fn, y, x):
        ours = IMAGINARY_ORDER[fn](y, x)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specfun, "_besselk_imaginary", specfun.MP.besselk)
            theirs = IMAGINARY_ORDER[fn](y, x)
        assert ours.hex() == theirs.hex()

    def test_the_k_panel_calls_besselk_only_where_its_2f0_converges(self, monkeypatch):
        # at A = 5 every node where the 2F0 converges is beyond float range
        # and skipped; at A = 0.7 a few are not
        xi = eigen.principal_lambda(0.7).xi
        nodes, calls = [], []
        integrand, besselk = specfun._weber_integrand_imag, specfun.MP.besselk

        def recording(kind, level, nu_mag):
            f, unscale = integrand(kind, level, nu_mag)
            return (lambda x: nodes.append(x) or f(x)), unscale

        def counting(n, x, **kwargs):
            calls.append(x)
            return besselk(n, x, **kwargs)

        monkeypatch.setattr(specfun, "_weber_integrand_imag", recording)
        monkeypatch.setattr(specfun.MP, "besselk", counting)
        weber_incomplete("K", 2.83, 0.7, xi)
        monkeypatch.undo()
        assert calls and len(calls) < len(nodes)
        assert all(_besselk_2f0_converges(xi.magnitude, x) for x in calls)

    def test_a_besselk_value_asks_the_doomed_2f0_question_once(self, monkeypatch):
        # once in _besselk_imaginary, then a memo hit in besselk's hypsum hook
        asked, direct = [], specfun._doomed_2f0_direct

        def counting(*args):
            asked.append(args)
            return direct(*args)

        monkeypatch.setattr(specfun, "_doomed_2f0_direct", counting)
        value = bessel_k(OrderParam.imaginary(0.5), 100.0)
        assert len(asked) == 1 and not direct(*asked[0])
        assert value == as_real(complex(mp.besselk(0.5j, 100.0)))


def _log_node_bound(kind, level, nu, x):
    """Log of the bound on an imaginary-order Weber integrand value:
    sqrt(pi/(2x)) e^-x on |K_{i nu}(x)|, e^x sqrt(sinh(pi nu)/(pi nu)) on
    |I_{i nu}(x)|, times e^{shift - level x^2/8}/x^2."""
    y = mp.pi * nu
    if kind == "K":
        log_bessel, shift = mp.log(mp.pi / (2 * x)) / 2 - x, y / 2
    else:
        log_bessel, shift = x + mp.log(mp.sinh(y) / y) / 2, -y / 2
    return float(log_bessel + shift - level * x * x / 8 - 2 * mp.log(x))


def _skip_from(kind, level, nu):
    """The x beyond which the bound is below the cut and the value's sign
    is +: K_{i nu}(x) > 0 for x > nu, Re I_{i nu}(x) > 0 for x >= 1 with
    e^{2x - 1/2} > sqrt(pi/2) sinh(pi nu)."""
    positive = nu if kind == "K" else max(
        1.0, float(0.5 + mp.log(mp.sqrt(mp.pi / 2) * mp.sinh(mp.pi * nu))) / 2)
    below = lambda x: _log_node_bound(kind, level, nu, x) - specfun.WEBER_NODE_CUT
    return positive if below(positive) < 0 else brentq(below, positive, 1e7)


CRITICAL_LEVEL = eigen.critical_A()


class TestWeberNodeSkip:
    """An imaginary-order Weber integrand node whose bound proves that it
    rounds to +0.0 is answered without mpmath, with mpmath's bits."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from("IK"), nu=_log_uniform(1e-3, 20.0),
           level=st.floats(eigen.A_MIN, CRITICAL_LEVEL), t=st.floats(1.0 + 1e-9, 1.2))
    def test_a_skipped_node_is_bitwise_the_full_evaluation(
            self, kind, nu, level, t, bessel_calls):
        x0 = _skip_from(kind, level, nu)
        f = specfun._weber_integrand_imag(kind, level, nu)[0]
        bessel_calls.clear()
        f(x0 / t)
        assert bessel_calls
        bessel_calls.clear()
        skipped = f(t * x0)
        assert bessel_calls == []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specfun, "WEBER_NODE_CUT", -math.inf)
            full = specfun._weber_integrand_imag(kind, level, nu)[0](t * x0)
        assert bessel_calls
        assert skipped.hex() == full.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("kind, level, nu", [
        ("K", 5.0, 1.1), ("I", 5.0, 1.1), ("K", 0.05, 40.0), ("I", 0.05, 40.0),
        ("K", 1.0, 1e-3), ("I", 1.0, 1e-3)])
    def test_the_bounds_hold_on_both_sides_of_the_cut(self, kind, level, nu):
        x0 = _skip_from(kind, level, nu)
        f, _ = specfun._weber_integrand_imag(kind, level, nu)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specfun, "WEBER_NODE_CUT", -math.inf)
            for x in (0.05 * x0, 0.3 * x0, 0.6 * x0, 0.9 * x0, 1.05 * x0, 1.5 * x0):
                value = f(x)
                assert abs(value) <= mp.exp(_log_node_bound(kind, level, nu, x))
                assert value != 0.0 or x > x0

    def test_the_node_that_made_the_bessel_route_refuse_is_zero(self, monkeypatch):
        # laplace --A 0.005 --s 10 --method bessel used to end here in a
        # NonConvergenceError from mpmath's 0F1 pair
        nu = eigen.principal_lambda(0.005).xi.magnitude

        def refuse(*args, **kwargs):
            raise AssertionError("no Bessel value is needed here")

        monkeypatch.setattr(specfun.MP, "besseli", refuse)
        monkeypatch.setattr(specfun, "_besselk_imaginary", refuse)
        assert specfun._weber_integrand_imag("K", 0.005, nu)[0](1880.0).hex() == "0x0.0p+0"


def _kampe_brute(a1, a2, b1, b2, u, v, n=200):
    with mp.workdps(40):
        total = mp.mpc(0)
        for i in range(n):
            ci = mp.rf(a1, i) * mp.rf(a2, i) * mp.mpf(u) ** i / mp.factorial(i)
            for j in range(n):
                total += ci * mp.mpf(v) ** j / (mp.rf(b1, i + j) * mp.rf(b2, i + j))
        return complex(total)


class TestKampeDeFeriet:
    def test_origin_value(self):
        assert kampe_de_feriet(0.3, 0.7, 1.1, 0.9, 0.0, 0.0) == 1.0

    def test_zero_first_argument_reduces_to_single_series(self):
        b1, b2, v = 0.8, 1.3, 0.4
        got = kampe_de_feriet(0.3, 0.7, b1, b2, 0.0, v)
        want = 0.0
        term = 1.0
        for j in range(60):
            want += term
            term *= v / ((b1 + j) * (b2 + j))
        assert got == pytest.approx(want, rel=1e-13)

    def test_generic_point_matches_brute_force_double_sum(self):
        got = kampe_de_feriet(-0.6, -0.4, 0.4, 0.6, -0.5, 0.3)
        want = _kampe_brute(-0.6, -0.4, 0.4, 0.6, -0.5, 0.3)
        assert got == pytest.approx(want.real, rel=1e-12)

    def test_large_negative_first_argument_survives_cancellation(self):
        # the terms peak ~ e^{|u|} above the result; this is the regime
        # that forces the extended working precision
        got = kampe_de_feriet(-0.6, -0.4, 0.4, 0.6, -40.0, 1.0)
        want = _kampe_brute(-0.6, -0.4, 0.4, 0.6, -40.0, 1.0, n=250)
        assert got == pytest.approx(want.real, rel=1e-10)

    def test_lower_parameter_pole_raises(self):
        with pytest.raises(DenominatorPoleError):
            kampe_de_feriet(0.5, 0.5, 0.0, 1.0, 0.1, 0.1)

    def test_extreme_argument_refused_not_garbage(self):
        with pytest.raises(NonConvergenceError):
            kampe_de_feriet(-0.6, -0.4, 0.4, 0.6, -1500.0, 10.0)

    def test_bessel_reduction_identity_in_its_validity_region(self):
        # for parameter pairs ((a+b+1)/2, (a-b+1)/2) over ((a+b+3)/2,
        # (a-b+3)/2) at arguments (x y^2/4, y^2/4) the double series
        # collapses to Bessel I/K cross terms, provided Re(1+a+-b) > 0
        a, b, x, y = 0.0, 0.25, -0.5, 1.5
        lhs = kampe_de_feriet((a + b + 1) / 2, (a - b + 1) / 2,
                              (a + b + 3) / 2, (a - b + 3) / 2,
                              x * y * y / 4.0, y * y / 4.0)
        from scipy.special import iv

        ik = quad(lambda t: math.exp(x * t * t / 4) * t**a * kv(b, t), 0, y,
                  epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        ii = quad(lambda t: math.exp(x * t * t / 4) * t**a * iv(b, t), 0, y,
                  epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        rhs = ((a + b + 1) * (a - b + 1) / y ** (a + 1)
               * (iv(b, y) * ik - kv(b, y) * ii))
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestWeberIncomplete:
    def test_gaussian_tail_dominates_for_large_lower_limit(self):
        vals = [weber_incomplete("I", u, 1.0, OrderParam.real(0.3))
                for u in (30.0, 32.0, 34.0)]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]
        assert vals[0] < 1e-20

    def test_divergent_lower_limit_raises(self):
        with pytest.raises(DivergenceError):
            weber_incomplete("I", 0.0, 2.0, OrderParam.real(0.3))
        with pytest.raises(DivergenceError):
            weber_incomplete("K", -1.0, 2.0, OrderParam.real(0.3))
        with pytest.raises(DivergenceError):
            weber_incomplete("K", math.nan, 2.0, OrderParam.imaginary(0.3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            weber_incomplete("J", 1.0, 2.0, OrderParam.real(0.3))

    def test_integration_by_parts_identity_i_kind(self):
        u, A, a = 1.0, 2.0, 0.3
        w = weber_incomplete("I", u, A, OrderParam.real(a))
        g = lambda x: math.exp(x - A * x * x / 8.0)
        r1 = quad(lambda x: g(x) * ive(a, x), u, np.inf)[0]
        r2 = quad(lambda x: g(x) * ive(a + 1, x) / x, u, np.inf)[0]
        rhs = (-g(u) * ive(a, u) / u + (A / 4.0) * r1 - r2) / (a - 1.0)
        assert w == pytest.approx(rhs, rel=1e-9)

    def test_integration_by_parts_identity_k_kind(self):
        u, A, a = 1.0, 2.0, 0.3
        w = weber_incomplete("K", u, A, OrderParam.real(a))
        g = lambda x: math.exp(-A * x * x / 8.0)
        r1 = quad(lambda x: g(x) * kv(a, x), u, np.inf)[0]
        r2 = quad(lambda x: g(x) * kv(a - 1.0, x) / x, u, np.inf)[0]
        rhs = (-g(u) * kv(a, u) / u + (A / 4.0) * r1 + r2) / (-1.0 - a)
        assert w == pytest.approx(rhs, rel=1e-9)

    def test_imaginary_order_matches_second_quadrature_scheme(self):
        u, A, nu = 1.0, 4.0, 0.6
        got = weber_incomplete("K", u, A, OrderParam.imaginary(nu))
        with mp.workdps(30):
            f = lambda x: ((mp.besselk(mp.mpc(0, nu), x)).real
                           * mp.exp(-A * x * x / 8) / (x * x))
            want = float(mp.quad(f, [u, 5, mp.inf]))
        assert got == pytest.approx(want, rel=1e-9)

    def test_imaginary_order_i_kind_against_tanh_sinh_scheme(self):
        u, A, nu = 0.5, 2.0, 1.2
        got = weber_incomplete("I", u, A, OrderParam.imaginary(nu))
        with mp.workdps(30):
            f = lambda x: ((mp.besseli(mp.mpc(0, nu), x)).real
                           * mp.exp(-A * x * x / 8) / (x * x))
            want = float(mp.quad(f, [u, 1, 5, mp.inf]))
        assert got == pytest.approx(want, rel=1e-9)
