"""Moment series of the quasi-stationary distribution by independent
routes: the defining recurrence, a terminating 2F2 closed form, an
explicit power-series form, and direct quadrature against the pdf.

With M_n the n-th moment, the recurrence is

    (n(n-1)/2 + lambda) M_n + n M_{n-1} = lambda A^n,    M_0 = 1,

and the closed forms below solve it exactly.  All three analytic routes
are even in xi by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import numerics, specfun
from .distribution import QsdParams, qsd_pdf
from .errors import DomainError, NonConvergenceError
from .specfun import as_real, hyp2f2

# absolute and relative tolerance of each quadrature-route moment
QUADRATURE_TOL = 1e-9


@dataclass(frozen=True)
class MomentSeries:
    params: QsdParams
    n_max: int
    values: tuple
    method: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.n_max < 0:
            raise DomainError(f"n_max must be >= 0, got {self.n_max}")


def _finite_series(p: QsdParams, n_max: int, method: str, values) -> MomentSeries:
    """The route's moments M_0..M_n_max; NonConvergenceError at the first
    that overflows float or is not finite."""
    vals = []
    try:
        for v in values:
            if not math.isfinite(v):
                raise OverflowError
            vals.append(v)
    except OverflowError as exc:
        raise NonConvergenceError(f"{method} moment M_{len(vals)} leaves float "
                                  f"range at A={p.eigen.A}") from exc
    return MomentSeries(p, n_max, tuple(vals), method)


def moment_recurrence(lam, A):
    """M_0, M_1, ... by forward iteration of the defining recurrence, in
    the arithmetic of lam and A (float, or mpf at the caller's digits)."""
    m = A**0
    yield m
    for n in itertools.count(1):
        m = (lam * A**n - n * m) / (n * (n - 1) / 2 + lam)
        yield m


def moments_recurrence(p: QsdParams, n_max: int) -> MomentSeries:
    """The first n_max + 1 moments of the recurrence, in float."""
    moments = zip(range(n_max + 1), moment_recurrence(p.eigen.lam, p.eigen.A))
    return _finite_series(p, n_max, "recurrence", (m for _, m in moments))


def moment_2f2(p: QsdParams, n: int) -> float:
    """Closed form 2 lambda A^n / (n(n-1) + 2 lambda) times a terminating
    2F2 polynomial of degree n in 2/A."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    lam, A = p.eigen.lam, p.eigen.A
    half_xi = p.eigen.xi.halved().value
    f = hyp2f2(1.0, -float(n), 1.5 + half_xi - n, 1.5 - half_xi - n, 2.0 / A)
    return as_real(f) * 2.0 * lam * A**n / (n * (n - 1) + 2.0 * lam)


def moment_powerseries(p: QsdParams, n: int) -> float:
    """Explicit special-function-free form.

    The xi-dependent Pochhammer factors always appear in sign-conjugate
    pairs, so each pair is multiplied out as ((j +- 1/2)^2 - xi^2/4)
    with xi^2/4 = (1 - 8 lambda)/4 real; the whole evaluation stays in
    real arithmetic for both xi branches.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    lam, A = p.eigen.lam, p.eigen.A
    t = (1.0 - 8.0 * lam) / 4.0  # (xi/2)^2, real on both branches

    total = 0.0
    term = 1.0  # prod_{j<k} ((j-1/2)^2 - t) * (-A/2)^k / k!
    for k in range(n + 1):
        total += term
        term *= ((k - 0.5) ** 2 - t) * (-A / 2.0) / (k + 1.0)

    denom = 1.0  # prod_{j<n} ((j+1/2)^2 - t)
    pref = 1.0  # (-2)^n n!
    for j in range(n):
        denom *= (j + 0.5) ** 2 - t
        pref *= -2.0 * (j + 1.0)
    return pref / denom * total


def moments_quadrature(p: QsdParams, n_max: int) -> MomentSeries:
    """Direct integrals int x^n q_A(x) dx as the independent check.

    The n_max + 1 adaptive integrals over [0, A] share most of their
    nodes; the call's memo block computes W once per distinct node.
    """
    A = p.eigen.A
    with specfun.memo():
        return _finite_series(p, n_max, "quadrature", (
            numerics.integrate(lambda x: x**n * qsd_pdf(p, x), 0.0, A,
                               tol=QUADRATURE_TOL).value
            for n in range(n_max + 1)))


def _termwise(moment, method):
    """Series route from a closed form for a single moment."""
    def route(p: QsdParams, n_max: int) -> MomentSeries:
        return _finite_series(p, n_max, method,
                              (moment(p, n) for n in range(n_max + 1)))
    return route


ROUTES = {
    "recurrence": moments_recurrence,
    "2f2": _termwise(moment_2f2, "2f2"),
    "powerseries": _termwise(moment_powerseries, "powerseries"),
    "quadrature": moments_quadrature,
}
METHODS = tuple(ROUTES)


def moment_series(p: QsdParams, n_max: int, method: str = "recurrence") -> MomentSeries:
    """Moment series by the named route."""
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    return ROUTES[method](p, n_max)


def max_rel_spread(values) -> float:
    """Max pairwise relative spread of a set of same-quantity estimates;
    NaN for fewer than two, which leave nothing to compare."""
    vals = list(values)
    if len(vals) < 2:
        return math.nan
    scale = max(abs(v) for v in vals)
    if scale == 0.0:
        return 0.0
    return (max(vals) - min(vals)) / scale
