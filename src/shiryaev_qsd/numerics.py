"""Bracketed root finding and adaptive quadrature primitives.

Brent's method runs here, in plain Python floats; quadrature wraps
scipy's QUADPACK.  Both check their inputs, raise explicit error
objects, and follow the error-reporting conventions the rest of the
package relies on.  Like every scipy import in the package, ``quad``'s
sits inside the function that calls it: scipy is loaded at the first
quadrature, real-order Weber integrand or stationary transform, never
by importing the package or solving for a root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidBracketError, NonConvergenceError

QUAD_LIMIT = 200
# Brent's method gives up after this many steps (as scipy's brentq)
MAX_ITER = 100


@dataclass(frozen=True)
class QuadResult:
    value: float
    evaluations: int


def find_root(f, lo: float, hi: float, tol: float) -> float:
    """Root of f in [lo, hi].

    Raises InvalidBracketError unless lo < hi and f(lo) f(hi) < 0, and
    NonConvergenceError when f gives NaN or MAX_ITER steps do not
    converge.  Brent's method: inverse-quadratic/secant steps with a
    bisection fallback, so convergence is guaranteed and the result never
    leaves the bracket.  A line-for-line port of scipy's brentq
    (Zeros/brentq.c) with xtol = tol and rtol = 8 ulp, so its roots are
    scipy's bit for bit; f is evaluated once at each end.
    """
    if not lo < hi:
        raise InvalidBracketError(f"lo={lo} must be < hi={hi}")
    f_lo, f_hi = float(f(lo)), float(f(hi))
    if not f_lo * f_hi < 0:
        raise InvalidBracketError(f"no sign change: f(lo)={f_lo}, f(hi)={f_hi}")
    rtol = 8 * math.ulp(1.0)
    # cur is the best estimate, blk the other end of the bracket and pre
    # the previous estimate; spre and scur are the last two steps
    xpre, xcur, fpre, fcur = lo, hi, f_lo, f_hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (tol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gives inf or NaN here, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise NonConvergenceError(f"Brent's method got f({xcur}) = NaN")
    raise NonConvergenceError(f"Brent's method did not converge in {MAX_ITER} "
                              f"steps on [{lo}, {hi}]: last estimate {xcur}")


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
