"""Special functions the closed forms need: the terminating 2F2 series,
Whittaker W, modified Bessel I/K (real and purely imaginary order), the
bivariate double hypergeometric series F^{0:2;1}_{2:0;0}, and incomplete
Weber integrals.

Whittaker and Bessel evaluations are delegated to mpmath (arbitrary
precision, complex indices, automatic handling of the logarithmic case
when the order parameter degenerates); everything is collapsed back to
float with an explicit imaginary-residue check.

Every mpmath call goes through the package-private context ``MP``, never
mpmath's global ``mp``.  A ``memo()`` block reuses Gamma, 1/Gamma and W
values: mpmath multiplies each series by Gamma factors that depend on
the order and the precision only, and the routes at one level evaluate
W at shared points.  The functions here are not thread-safe:
``MP.workdps`` sets the precision of the one shared context.  The memo
itself is per thread (a ``ContextVar``), and exists only while a block
is open.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from mpmath.ctx_mp import MPContext
from mpmath.libmp import NoConvergence
from scipy.special import ive, kve

from . import numerics
from .errors import (
    DenominatorPoleError,
    DivergenceError,
    DomainError,
    EvaluationDomainError,
    ImaginaryResidueError,
    NonConvergenceError,
)

# working precision for mpmath-backed evaluations (decimal digits)
WORK_DPS = 25

# |imag| beyond this (relative) scale is treated as a bug, not noise
HARD_IMAG_TOL = 1e-6

# truncation policy for the moment and double series (read at call time)
SERIES_REL_TOL = 1e-14
SERIES_MAX_TERMS = 100_000

# a series needing more working digits than this is refused, not summed
MAX_SERIES_DPS = 350

# absolute and relative tolerance of each incomplete Weber panel
WEBER_TOL = 1e-11


# the open memo() block's values, keyed by call; None outside any block
_MEMO = contextvars.ContextVar("memo", default=None)


def memoised(fn, key):
    """fn, with a repeated call answered from the open memo() block under
    ``key(*args)``.  A call with keyword arguments, a call outside any
    block and a call that raises go straight to fn; an exception is
    never stored."""
    def call(*args, **kwargs):
        memo = _MEMO.get()
        if memo is None or kwargs:
            return fn(*args, **kwargs)
        k = key(*args)
        value = memo.get(k)
        if value is None:
            value = memo[k] = fn(*args)
        return value
    return call


class _MemoContext(MPContext):
    """An mpmath context whose gamma and rgamma are memoised: Gamma is a
    deterministic function of its argument, the precision and the
    rounding, so a reused value is bitwise the one mpmath computes.
    ``unmemoised`` holds mpmath's own functions."""

    def __init__(self):
        super().__init__()
        self.unmemoised = {"gamma": self.gamma, "rgamma": self.rgamma}
        for name in self.unmemoised:
            setattr(self, name, memoised(
                lambda x, _name=name, **kwargs: self.unmemoised[_name](x, **kwargs),
                lambda x, _name=name: (_name, self._exact(x), *self._prec_rounding)))

    def _exact(self, x):
        x = self.convert(x)
        return x._mpf_ if hasattr(x, "_mpf_") else x._mpc_


MP = _MemoContext()


@contextmanager
def memo():
    """Reuse MP's Gamma, 1/Gamma and W values and laplace.evaluate's until
    the outermost block exits; a nested block shares them."""
    outer = _MEMO.get()
    token = _MEMO.set({} if outer is None else outer)
    try:
        yield
    finally:
        _MEMO.reset(token)


@dataclass(frozen=True)
class OrderParam:
    """A purely real or purely imaginary order/index parameter.

    The sign of ``magnitude`` is immaterial: every consumer in this
    package is even in the order and canonicalizes it to |magnitude|.
    """

    kind: str  # "real" | "imaginary"
    magnitude: float

    def __post_init__(self):
        if self.kind not in ("real", "imaginary"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not math.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite")

    @classmethod
    def real(cls, magnitude):
        return cls("real", float(magnitude))

    @classmethod
    def imaginary(cls, magnitude):
        return cls("imaginary", float(magnitude))

    @property
    def value(self) -> complex:
        if self.kind == "real":
            return complex(self.magnitude, 0.0)
        return complex(0.0, self.magnitude)

    def halved(self) -> "OrderParam":
        return OrderParam(self.kind, self.magnitude / 2.0)


def as_real(value) -> float:
    """Collapse a complex value that must be real down to float.

    Raises ImaginaryResidueError when the imaginary part exceeds
    HARD_IMAG_TOL * (1 + |value|); such a violation signals a bug rather
    than legitimate data.
    """
    value = complex(value)
    if abs(value.imag) > HARD_IMAG_TOL * (1.0 + abs(value.real)):
        raise ImaginaryResidueError(
            f"non-negligible imaginary residue {value.imag} in {value}"
        )
    return value.real


def _canonical_order(order: OrderParam) -> complex:
    """|real part| or i*|imag part|; all consumers are even in the order."""
    z = order.value
    return complex(abs(z.real), abs(z.imag))


@contextmanager
def _mpmath_evaluation(what: str, *args):
    """mpmath at WORK_DPS; its refusal to converge (a ValueError or
    NoConvergence on arguments already validated) becomes a
    NonConvergenceError naming ``what`` and ``args``.  The message is
    built only on failure: this wraps every quadrature node."""
    try:
        with MP.workdps(WORK_DPS):
            yield
    except (ValueError, NoConvergence) as exc:
        raise NonConvergenceError(
            f"{what} at {args} did not converge in mpmath: {exc}") from exc


def _is_nonpositive_integer(z) -> bool:
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def series_dps(peak: float, what: str) -> int:
    """Working digits for a sum whose terms peak ~10^peak above its value:
    WORK_DPS plus the digits cancellation eats, with 20% headroom.

    Raises NonConvergenceError beyond MAX_SERIES_DPS or at a non-finite
    peak; ``what`` names the sum and its arguments in that message.
    """
    if not math.isfinite(peak):
        raise NonConvergenceError(f"{what} needs unboundedly many digits; refusing")
    dps = WORK_DPS + int(1.2 * peak)
    if dps > MAX_SERIES_DPS:
        raise NonConvergenceError(f"{what} needs ~{dps} digits; refusing")
    return dps


def term_budget(what: str):
    """Term indices 0 .. SERIES_MAX_TERMS - 1; the draw after the last
    raises NonConvergenceError naming ``what``."""
    limit = SERIES_MAX_TERMS
    yield from range(limit)
    raise NonConvergenceError(f"{what} exceeded {limit} terms")


def sum_series(terms, tol, floor=0, after=-1):
    """Sum of ``terms`` in order, stopped at the third consecutive term
    past index ``after`` with |term| <= tol (|partial sum| + floor).
    Three in a row, because sign flips give isolated near-zero terms.
    ``terms`` never runs out; a term_budget bounds it."""
    total = small = 0
    for i, term in enumerate(terms):
        total += term
        negligible = i > after and abs(term) <= tol * (abs(total) + floor)
        small = small + 1 if negligible else 0
        if small == 3:
            return total


def _check_lower_parameters(*bs):
    for b in bs:
        if _is_nonpositive_integer(b):
            raise DenominatorPoleError(f"lower parameter pole at {b}")


def hyp2f2(a1, a2, b1, b2, z) -> complex:
    """Terminating generalized hypergeometric series with two upper and
    two lower parameters, sum_n (a1)_n (a2)_n / ((b1)_n (b2)_n) z^n / n!.

    An upper parameter must be a nonpositive integer -N, and the sum is
    the exact polynomial of degree N in z (the smallest such N when both
    are); otherwise the parameters are refused with DomainError.
    """
    _check_lower_parameters(b1, b2)
    degrees = [int(-complex(a).real) for a in (a1, a2) if _is_nonpositive_integer(a)]
    if not degrees:
        raise DomainError(
            f"2F2 needs a nonpositive integer upper parameter, got {a1}, {a2}")
    a1, a2, b1, b2, z = (complex(v) for v in (a1, a2, b1, b2, z))

    total = complex(0.0)
    term = complex(1.0)
    for n in range(min(degrees)):
        total += term
        term *= (a1 + n) * (a2 + n) * z / ((b1 + n) * (b2 + n) * (n + 1))
    return total + term


def whittaker_w(a: float, order: OrderParam, z: float) -> float:
    """Whittaker W function with real first index and a purely real or
    purely imaginary second index; real-valued for z > 0.  Even in the
    second index, which is canonicalized so that negating the order
    reproduces the value bitwise."""
    if z <= 0:
        raise EvaluationDomainError(f"Whittaker W needs z > 0, got z={z}")
    return _whitw(float(a), _canonical_order(order), z)


def _whitw_direct(a: float, b: complex, z: float) -> float:
    with _mpmath_evaluation("Whittaker W (a, order, z)", a, b, z):
        return as_real(complex(MP.whitw(a, MP.mpc(b), z)))


_whitw = memoised(_whitw_direct, lambda *args: ("whitw", *args))


def _bessel_complex(kind: str, order: OrderParam, z: float):
    if z <= 0:
        raise EvaluationDomainError(f"modified Bessel functions need z > 0, got {z}")
    fn = MP.besseli if kind == "i" else MP.besselk
    b = _canonical_order(order)
    with _mpmath_evaluation(f"Bessel {kind.upper()} (order, z)", b, z):
        return complex(fn(MP.mpc(b), z))


def bessel_i(order: OrderParam, z: float) -> float:
    """Modified Bessel function of the first kind.

    For purely imaginary order the real part is returned: it is the even
    real solution of the imaginary-order modified Bessel equation, and
    since K is real, every I/K cross combination used downstream is
    unchanged by dropping the (K-proportional) imaginary part.
    """
    return _bessel_complex("i", order, z).real


def bessel_k(order: OrderParam, z: float) -> float:
    """MacDonald function; real for real z > 0 and real or purely
    imaginary order, and even in the order (canonicalized)."""
    return as_real(_bessel_complex("k", order, z))


def kampe_de_feriet(a1, a2, b1, b2, u: float, v: float) -> float:
    """Double hypergeometric series
    sum_{i,j} (a1)_i (a2)_i (1)_j / ((b1)_{i+j} (b2)_{i+j}) u^i v^j / (i! j!).

    Absolutely convergent for all finite u, v, but the terms in u can
    peak near exp(|u|) before decaying, so the summation runs at an
    mpmath working precision sized to that cancellation.  Raises
    NonConvergenceError when the required precision or term budget is
    exceeded.
    """
    _check_lower_parameters(b1, b2)
    if not (math.isfinite(u) and math.isfinite(v)):
        raise EvaluationDomainError("u and v must be finite")

    # digits lost to cancellation ~ log10 of the largest term
    peak = (abs(u) + 2.0 * math.sqrt(abs(v))) / math.log(10.0)
    dps = series_dps(peak, f"double series at u={u}, v={v}")

    # rf goes through gammaprod: Gamma(b) is the same in every row
    with MP.workdps(dps), memo():
        a1m, a2m, b1m, b2m = (MP.mpmathify(complex(t)) for t in (a1, a2, b1, b2))
        um, vm = MP.mpf(u), MP.mpf(v)
        # rows near the peak exceed the final sum by ~exp(|u|), so any
        # truncation residue left inside a row survives the cancellation;
        # inner sums therefore run to working precision, not to rel_tol,
        # and with no floor: |inner| itself is super-exponentially small
        # at large i and a floor would declare every term negligible
        inner_tol = MP.mpf(10) ** (5 - dps)
        budget = term_budget("double series")  # shared by every inner sum

        def inner(i):
            # the sum over j at fixed i, Pochhammers advanced in place
            term = 1 / (MP.rf(b1m, i) * MP.rf(b2m, i))
            for j in itertools.count():
                next(budget)
                yield term
                term = term * vm / ((b1m + i + j) * (b2m + i + j))

        def rows():
            row_coef = MP.mpc(1)  # (a1)_i (a2)_i u^i / i!
            for i in itertools.count():
                yield row_coef * sum_series(inner(i), inner_tol)
                row_coef = row_coef * (a1m + i) * (a2m + i) * um / (i + 1)

        # partial sums track the current row through the cancellation
        # regime, so small rows are only trusted past the peak at i ~ |u|
        total = sum_series(rows(), MP.mpf(SERIES_REL_TOL), MP.mpf("1e-300"),
                           after=abs(u))
        return as_real(complex(total))


def _weber_integrand_real(kind: str, level: float, nu: float):
    # exponentially scaled Bessel avoids overflow before the Gaussian bites
    if kind == "I":
        return lambda x: ive(nu, x) * math.exp(x - level * x * x / 8.0) / (x * x)
    return lambda x: kve(nu, x) * math.exp(-x - level * x * x / 8.0) / (x * x)


def _weber_integrand_imag(kind: str, level: float, nu_mag: float):
    """Scaled integrand and unscale factor for the imaginary-order branch.

    K of order i*nu has envelope ~ e^{-pi nu/2} and Re I ~ e^{+pi nu/2},
    so the raw integrand can sit so far below the quadrature's absolute
    tolerance that it is never refined (the oscillatory mean is smaller
    still).  Scaling by e^{+-pi nu/2} makes the integrand O(1) and turns
    the absolute tolerance into an effectively relative one.
    """
    nu = MP.mpc(0.0, nu_mag)
    shift = math.pi * nu_mag / 2.0 if kind == "K" else -math.pi * nu_mag / 2.0
    fn = MP.besseli if kind == "I" else MP.besselk
    what = f"Weber {kind} integrand (order, level, x)"

    def f(x):
        # the Gaussian damping and the scale shift are applied before
        # leaving mpmath so no intermediate overflows float
        with _mpmath_evaluation(what, 1j * nu_mag, level, x):
            c = fn(nu, x) * MP.exp(shift - level * x * x / 8.0) / (x * x)
            c = complex(c)
        # K of imaginary order is real; for I the real part is the even
        # real solution used throughout
        return c.real

    return f, math.exp(-shift)


def weber_incomplete(kind: str, u: float, level: float, order: OrderParam) -> float:
    """Incomplete Weber integral int_u^inf exp(-level x^2/8) C(x) x^-2 dx
    with C the modified Bessel I or K function of the given order.

    Convergent for any u > 0 but divergent at u = 0, which is reported
    as DivergenceError.
    """
    if kind not in ("I", "K"):
        raise ValueError("kind must be 'I' or 'K'")
    if u <= 0:
        raise DivergenceError("incomplete Weber integrals diverge at u <= 0")
    z = order.value
    if z.imag != 0.0:
        f, unscale = _weber_integrand_imag(kind, level, abs(z.imag))
    else:
        f = _weber_integrand_real(kind, level, abs(z.real))
        unscale = 1.0

    def panel(a, b):
        return numerics.integrate(f, a, b, tol=WEBER_TOL).value

    if u < 1.0:
        # keep the near-origin growth of x^-2 C(x) in its own panel
        return unscale * (panel(u, 1.0) + panel(1.0, np.inf))
    return unscale * panel(u, np.inf)
