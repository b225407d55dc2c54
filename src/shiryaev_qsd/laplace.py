"""Laplace transform of the quasi-stationary distribution by five
independent routes:

  * quadrature    -- int_0^A e^{-sx} q_A(x) dx (the reference oracle)
  * moment-series -- sum (-s)^n M_n / n!
  * kdf1 / kdf2   -- two bivariate double-hypergeometric closed forms
  * bessel        -- modified-Bessel / incomplete-Weber closed form,
                     valid uniformly in s and A

plus the stationary limit 2 sqrt(2s) K_1(2 sqrt(2s)) and a residual
check against the governing ODE

    (s^2/2) L''(s) - (s - lambda) L(s) = lambda e^{-sA}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import kv

from . import numerics, specfun
from .distribution import QsdParams, qsd_pdf
from .errors import DomainError, NonConvergenceError
from .moments import moment_recurrence
from .specfun import MP, bessel_i, bessel_k, kampe_de_feriet, weber_incomplete

# kdf2 refuses 0 < s below this: the cancellation in F - e^{-sA} costs
# about lambda eps / s relative
KDF2_S_FLOOR = 1e-8

# absolute and relative tolerance of the reference quadrature route
QUADRATURE_TOL = 1e-10


@dataclass(frozen=True)
class LaplaceEval:
    s: float
    A: float
    value: float
    method: str


def _check_s(s):
    if not s >= 0:
        raise DomainError(f"s must be >= 0, got {s}")
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")


def laplace_quadrature(p: QsdParams, s: float) -> LaplaceEval:
    """Direct integral of e^{-sx} against the closed-form pdf."""
    _check_s(s)
    A = p.eigen.A
    with specfun.memo():
        res = numerics.integrate(lambda x: math.exp(-s * x) * qsd_pdf(p, x), 0.0, A,
                                 tol=QUADRATURE_TOL)
    return LaplaceEval(s, A, res.value, "quadrature")


def laplace_moment_series(p: QsdParams, s: float) -> LaplaceEval:
    """Taylor expansion around s = 0, with the moments regenerated from
    the recurrence at a working precision sized to the alternating-sum
    cancellation (the partial terms peak near exp(sA))."""
    _check_s(s)
    lam, A = p.eigen.lam, p.eigen.A
    peak = s * A / math.log(10.0)
    dps = specfun.series_dps(peak, f"moment series at s={s}, A={A}")
    with MP.workdps(dps):
        s_m = MP.mpf(s)

        def terms():
            coeff = MP.mpf(1)  # (-s)^n / n!
            for n, moment in zip(specfun.term_budget("moment series"),
                                 moment_recurrence(MP.mpf(lam), MP.mpf(A))):
                yield coeff * moment
                coeff *= -s_m / (n + 1)

        total = specfun.sum_series(terms(), MP.mpf(specfun.SERIES_REL_TOL), 1,
                                   after=s * A)
        value = float(total)
    return LaplaceEval(s, A, value, "moments")


def laplace_kdf1(p: QsdParams, s: float) -> LaplaceEval:
    """Double series with numerator pair -1/2 -+ xi/2 and denominator
    pair 1/2 -+ xi/2, evaluated at (-sA, 2s)."""
    _check_s(s)
    A = p.eigen.A
    hx = p.eigen.xi.halved().value
    value = kampe_de_feriet(-0.5 - hx, -0.5 + hx, 0.5 - hx, 0.5 + hx,
                            -s * A, 2.0 * s)
    return LaplaceEval(s, A, value, "kdf1")


def laplace_kdf2(p: QsdParams, s: float) -> LaplaceEval:
    """(lambda/s) (F[...] - e^{-sA}) with the repeated-parameter double
    series; exactly 1 at s = 0, and refused for 0 < s < KDF2_S_FLOOR."""
    _check_s(s)
    lam, A = p.eigen.lam, p.eigen.A
    if s == 0.0:
        return LaplaceEval(s, A, 1.0, "kdf2")
    if s < KDF2_S_FLOOR:
        raise DomainError(f"kdf2 needs s = 0 or s >= {KDF2_S_FLOOR:g}, got {s}")
    hx = p.eigen.xi.halved().value
    f = kampe_de_feriet(-0.5 - hx, -0.5 + hx, -0.5 - hx, -0.5 + hx,
                        -s * A, 2.0 * s)
    value = lam / s * (f - math.exp(-s * A))
    return LaplaceEval(s, A, value, "kdf2")


def laplace_bessel(p: QsdParams, s: float) -> LaplaceEval:
    """Closed form through modified Bessel functions and incomplete
    Weber integrals; the only analytic route valid uniformly in s, A.
    Refused with NonConvergenceError where its value is not finite."""
    _check_s(s)
    lam, A = p.eigen.lam, p.eigen.A
    xi = p.eigen.xi
    if s == 0.0:
        return LaplaceEval(s, A, 1.0, "bessel")
    u = 2.0 * math.sqrt(2.0 * s)
    with specfun.memo():
        ki = bessel_k(xi, u)
        ii = bessel_i(xi, u)
        w_i = weber_incomplete("I", u, A, xi)
        w_k = weber_incomplete("K", u, A, xi)
    value = u * ki / p.normalizer + 8.0 * lam * (u * ki * w_i - u * ii * w_k)
    if not math.isfinite(value):
        # from s ~ 6.3e4 on, I(u) overflows and K(u) underflows
        raise NonConvergenceError(
            f"bessel route leaves float range at s={s}, A={A}: value {value}")
    return LaplaceEval(s, A, value, "bessel")


def stationary_laplace(s: float) -> float:
    """Transform 2 sqrt(2s) K_1(2 sqrt(2s)) of the stationary law; 1 at
    s = 0 by the small-argument limit of K_1."""
    _check_s(s)
    if s == 0.0:
        return 1.0
    u = 2.0 * math.sqrt(2.0 * s)
    return u * float(kv(1, u))


ROUTES = {
    "quadrature": laplace_quadrature,
    "moments": laplace_moment_series,
    "kdf1": laplace_kdf1,
    "kdf2": laplace_kdf2,
    "bessel": laplace_bessel,
}
METHODS = tuple(ROUTES)


def evaluate(p: QsdParams, s: float, method: str) -> LaplaceEval:
    """Evaluate the transform by the named route, once per (p, s, method)
    inside a specfun.memo() block."""
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    return specfun.memoised(ROUTES[method], lambda p, s: (method, p, s))(p, s)


def ode_residual(p: QsdParams, s: float, method: str = "bessel") -> float:
    """(s^2/2) L'' - (s - lambda) L - lambda e^{-sA} with L'' from
    central differences (one Richardson level) of the chosen route.

    The route is evaluated once at each of the five points s, s +- h/2
    and s +- h, with step h = min(1e-4 max(1, s), s) so that no point
    lies below 0; L(s) serves both second differences and the residual,
    and an enclosing memo block that already holds it supplies it.
    """
    if s <= 0:
        raise DomainError(f"ODE residual needs s > 0, got {s}")
    h = min(1e-4 * max(1.0, s), s)

    def L(x):
        return evaluate(p, x, method).value

    def second(hh):
        return (L(s - hh) - 2.0 * at_s + L(s + hh)) / (hh * hh)

    with specfun.memo():
        at_s = L(s)
        d2 = (4.0 * second(h / 2.0) - second(h)) / 3.0
    lam, A = p.eigen.lam, p.eigen.A
    return (s * s / 2.0) * d2 - (s - lam) * at_s - lam * math.exp(-s * A)
