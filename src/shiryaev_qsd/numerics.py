"""Bracketed root finding and adaptive quadrature primitives.

Thin wrappers around scipy (Brent's method, QUADPACK) that add certified
brackets, explicit error objects, and the error-reporting conventions the
rest of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import InvalidBracketError, NonConvergenceError

DEFAULT_QUAD_TOL = 1e-11
QUAD_LIMIT = 200


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] on which f changes sign."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise InvalidBracketError(f"lo={self.lo} must be < hi={self.hi}")
        if not (self.f_lo * self.f_hi < 0):
            raise InvalidBracketError(
                f"no sign change: f(lo)={self.f_lo}, f(hi)={self.f_hi}"
            )


def bracket_from(f, lo, hi):
    """Evaluate f at the endpoints and build a Bracket (or raise)."""
    return Bracket(lo, hi, f(lo), f(hi))


@dataclass(frozen=True)
class QuadResult:
    value: float
    evaluations: int


def find_root(f, bracket: Bracket, tol: float = 1e-12) -> float:
    """Root of f inside the given bracket.

    Brent's method: inverse-quadratic/secant steps with a bisection
    fallback, so convergence is guaranteed and the result never leaves
    the initial bracket.
    """
    return brentq(f, bracket.lo, bracket.hi, xtol=tol, rtol=8 * math.ulp(1.0))


def integrate(f, a, b, tol: float = DEFAULT_QUAD_TOL) -> QuadResult:
    """Adaptive quadrature of f over (a, b); b may be +inf.

    Globally adaptive Gauss-Kronrod subdivision with both absolute and
    relative tolerance tol and at most QUAD_LIMIT subintervals.  Raises
    NonConvergenceError when QUADPACK warns and its error estimate
    exceeds 100 tol max(1, |value|).
    """
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
