"""Bracketed root finding and adaptive quadrature primitives.

Thin wrappers around scipy (Brent's method, QUADPACK) that check their
brackets, raise explicit error objects, and follow the error-reporting
conventions the rest of the package relies on.  Like every scipy import
in the package, theirs sits inside the function that calls it: scipy is
loaded at the first root solve, quadrature, real-order Weber integrand
or stationary transform, never by importing the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidBracketError, NonConvergenceError

QUAD_LIMIT = 200


@dataclass(frozen=True)
class QuadResult:
    value: float
    evaluations: int


def find_root(f, lo: float, hi: float, tol: float) -> float:
    """Root of f in [lo, hi].

    Raises InvalidBracketError unless lo < hi and f(lo) f(hi) < 0.
    Brent's method: inverse-quadratic/secant steps with a bisection
    fallback, so convergence is guaranteed and the result never leaves
    the bracket.  It evaluates f at both ends again, so a caller with an
    expensive f memoises it.
    """
    from scipy.optimize import brentq

    if not lo < hi:
        raise InvalidBracketError(f"lo={lo} must be < hi={hi}")
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo * f_hi < 0:
        raise InvalidBracketError(f"no sign change: f(lo)={f_lo}, f(hi)={f_hi}")
    return brentq(f, lo, hi, xtol=tol, rtol=8 * math.ulp(1.0))


def integrate(f, a, b, tol: float) -> QuadResult:
    """Adaptive quadrature of f over (a, b); b may be +inf.

    Globally adaptive Gauss-Kronrod subdivision with both absolute and
    relative tolerance tol and at most QUAD_LIMIT subintervals.  Raises
    NonConvergenceError when QUADPACK warns and its error estimate
    exceeds 100 tol max(1, |value|).
    """
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=tol, epsrel=tol, limit=QUAD_LIMIT, full_output=True)
    value, abserr, info = out[0], out[1], out[2]
    if len(out) > 3:  # a warning message was produced
        scale = max(abs(value), 1.0)
        if abserr > 100 * tol * scale:
            raise NonConvergenceError(
                f"quadrature on ({a}, {b}) did not converge: "
                f"value={value}, abs_err={abserr}: {out[3]}"
            )
    return QuadResult(value, int(info["neval"]))
