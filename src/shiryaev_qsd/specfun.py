"""Special functions the closed forms need: the terminating 2F2 series,
Whittaker W, modified Bessel I/K (real and purely imaginary order), the
bivariate double hypergeometric series F^{0:2;1}_{2:0;0}, and incomplete
Weber integrals.

Whittaker and Bessel evaluations are delegated to mpmath (arbitrary
precision, complex indices, automatic handling of the logarithmic case
when the order parameter degenerates); everything is collapsed back to
float with an explicit imaginary-residue check.

Every mpmath call goes through the package-private context ``MP``, never
mpmath's global ``mp``.  A ``memo()`` block reuses Gamma, 1/Gamma,
complex-parameter hypergeometric, W and Weber panel values: mpmath
multiplies each series by Gamma factors that depend on the order and the
precision only, at imaginary order W and K sum two conjugate terms, and
the routes at one level evaluate W at shared points.  A level's block is opened on its
``QsdParams.memo`` store, so its values live as long as the params do;
any other block lives until it exits.  The functions here are not
thread-safe: ``MP.workdps`` sets the precision of the one shared
context.  Which block is open is per thread (a ``ContextVar``).

``MP`` also skips mpmath's first, asymptotic 2F0 attempt in ``hyperu``
(under whitw) and ``_hyp2f0`` (under besselk and hyp1f1) when it must
fail: for W at arguments below about 70 (every eigen solve's 2/A is at
most 40) it sums ~100 terms only to raise NoConvergence.  One hook at
``hypsum`` raises that NoConvergence at once when the terms' log2 sizes
stay 8 bits above mpmath's stop threshold up to its term limit; mpmath's
own callers then run their own fallbacks.  The attempt could only have
raised, so the skip changes no bit.  K of imaginary order asks the same
question first, and where besselk's 2F0 is doomed takes mpmath's 0F1
pair instead of the 1F1 fallback (``_besselk_imaginary``).

An imaginary-order Weber integrand node whose float bound proves that
mpmath's value rounds to +0.0 returns 0.0 without calling mpmath.  The
bounds are |K_{i nu}(x)| <= sqrt(pi/(2x)) e^-x (DLMF 10.32.9) and
|I_{i nu}(x)| <= e^x sqrt(sinh(pi nu)/(pi nu)) (DLMF 10.25.2, 5.4.3),
times the Gaussian and the scale shift.  The cut is 2^-1100 (its log is
WEBER_NODE_CUT), 25 bits under the 2^-1075 point where a float rounds to
zero, so rounding mpmath's 86 bits to 53 and then to the subnormal grid
still gives zero (``_weber_integrand_imag``).

``MP`` computes Gamma, 1/Gamma and each hypergeometric series at real z
at the upper member of its conjugate pair and conjugates it for the
other (see ``_MemoContext``).  Real order is untouched; at imaginary
order mpmath's complex Gamma is not bitwise conjugation-symmetric, but
no float value was seen to move.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

from mpmath.ctx_mp import MPContext
from mpmath.libmp import NoConvergence, mpf_neg

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

# log of the bound below which an imaginary-order Weber integrand node is
# 0.0 without mpmath: 25 bits below 2^-1075, under which a float is zero
WEBER_NODE_CUT = -1100.0 * math.log(2.0)


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


# mpmath 1.3's own hypergeometric summation (ctx_mp.py), which MP's
# hypsum hook delegates to (looked up at call time)
MPMATH_HYPSUM = MPContext.hypsum

# the raise of mpmath 1.3's hypergeometric summator (libmp/libhyper.py)
_HYPSUM_NO_CONVERGENCE = ("Hypergeometric series converges too slowly. "
                          "Try increasing maxterms.")


def _doomed_2f0(a, b, x, prec, maxterms) -> bool:
    """True only if mpmath 1.3's summation of 2F0(a, b; x) at ``prec``
    bits must raise NoConvergence.  Its summator works at prec + 50
    bits, stops at the first term n >= 1 below 2^-(prec + 25), and
    raises after term maxterms + 1.  The log2 of the term ratios is
    summed in float, and "doomed" needs every term up to maxterms + 1
    at least 8 bits above the stop; a zero (terminating) or non-finite
    ratio leaves the last log non-finite and answers False.  The answer
    depends on a, b and x only through their complex floats, so the open
    memo() block keeps it under those, prec and maxterms."""
    return _doomed_2f0_floats(*(complex(MP.convert(v)) for v in (a, b, x)), prec, maxterms)


def _doomed_2f0_direct(a: complex, b: complex, x: complex, prec, maxterms) -> bool:
    import numpy as np

    j = np.arange(maxterms + 1.0)
    with np.errstate(all="ignore"):
        log_terms = np.cumsum(np.log2(np.abs(a + j) * np.abs(b + j) * (abs(x) / (j + 1))))
    return bool(np.isfinite(log_terms[-1]) and log_terms.min() >= 8 - (prec + 25))


# _doomed_2f0_direct is looked up at call time, so a test can count it
_doomed_2f0_floats = memoised(lambda *args: _doomed_2f0_direct(*args),
                              lambda *args: ("doomed_2f0", *args))


# the keywords under which a 2F0 sum is still predicted: the asymptotic
# attempts of hyperu and _hyp2f0 pass maxterms; a sum without maxterms or
# with any other keyword goes to mpmath unchanged
_PREDICTED_KWARGS = {"maxterms", "maxprec", "force_series"}


class _MemoContext(MPContext):
    """An mpmath context whose gamma, rgamma and complex-parameter hyper
    are memoised: each is a deterministic function of its arguments, the
    precision, the rounding and (hyper) the keywords, so a reused value
    is bitwise the one computed first.  ``unmemoised`` holds mpmath's
    own functions.

    Each is taken at the upper member of its conjugate pair, in and out
    of memo blocks: at x below the real axis Gamma and 1/Gamma are the
    exact conjugates of their values at conj(x), and a series at real z
    whose non-real parameters all lie below the axis is the conjugate of
    the series at the conjugate parameters.  At imaginary order W's
    hyperu and K's 2F0 fallback sum two mutually conjugate terms (DLMF
    13.2.42), so the second term's 1/Gamma and 1F1 are memo hits.  Real
    arguments, and parameter lists on both sides of the axis (K's outer
    2F0), go to mpmath unchanged.  mpmath's complex Gamma is not bitwise
    conjugation-symmetric: in 3,000 random W and K evaluations 191 of
    6,776 substituted Gamma values (2.8%) and none of 3,578 series
    differed from its own at working precision; no float value moved.

    hypsum raises NoConvergence at once for a 2F0 sum that _doomed_2f0
    says must raise; the sum leaves no state, and mpmath's hyperu and
    _hyp2f0 catch the raise and run their own fallbacks, so the skip
    changes no bit."""

    def __init__(self):
        super().__init__()
        self.unmemoised = {"gamma": self.gamma, "rgamma": self.rgamma, "hyper": self.hyper}
        for name in ("gamma", "rgamma"):
            setattr(self, name, self._upper_half(memoised(
                lambda x, _name=name, **kwargs: self.unmemoised[_name](x, **kwargs),
                lambda x, _name=name: (_name, self._exact(x), *self._prec_rounding))))
        self._memo_hyper = memoised(
            lambda a_s, b_s, z, kwargs: self.unmemoised["hyper"](a_s, b_s, z, **dict(kwargs)),
            # mpmath numbers compare and hash by exact value
            lambda a_s, b_s, z, kwargs: ("hyper", tuple(a_s), tuple(b_s), z, kwargs,
                                         *self._prec_rounding))
        self.hyper = self._upper_hyper

    def _exact(self, x):
        x = self.convert(x)
        return x._mpf_ if hasattr(x, "_mpf_") else x._mpc_

    def _conj(self, x):
        # exact, where mpmath's conj rounds to the working precision
        if not hasattr(x, "_mpc_"):
            return x
        re, im = x._mpc_
        return self.make_mpc((re, mpf_neg(im)))

    def _upper_half(self, fn):
        def call(x, **kwargs):
            x = self.convert(x)
            if type(x) is self.mpc and x._mpc_[1][0]:  # the sign of Im x
                return self._conj(fn(self._conj(x), **kwargs))
            return fn(x, **kwargs)
        return call

    def _upper_hyper(self, a_s, b_s, z, **kwargs):
        zm = self.convert(z)
        if hasattr(zm, "_mpf_") and any(type(x) in (self.mpc, complex) for x in (*a_s, *b_s)):
            am = [self._convert_param(a)[0] for a in a_s]
            bm = [self._convert_param(b)[0] for b in b_s]
            # _convert_param leaves an mpc only where Im != 0
            signs = {x._mpc_[1][0] for x in am + bm if hasattr(x, "_mpc_")}
            if len(signs) == 1:
                kw = tuple(sorted(kwargs.items()))
                if signs == {0}:
                    return self._memo_hyper(am, bm, zm, kw)
                c = self._conj
                return c(self._memo_hyper([c(a) for a in am], [c(b) for b in bm], zm, kw))
        return self.unmemoised["hyper"](a_s, b_s, z, **kwargs)

    def hypsum(self, p, q, flags, coeffs, z, accurate_small=True, **kwargs):
        if ((p, q) == (2, 0) and "maxterms" in kwargs and kwargs.keys() <= _PREDICTED_KWARGS
                and _doomed_2f0(*coeffs, z, self.prec, kwargs["maxterms"])):
            raise NoConvergence(_HYPSUM_NO_CONVERGENCE)
        return MPMATH_HYPSUM(self, p, q, flags, coeffs, z, accurate_small, **kwargs)


MP = _MemoContext()


@contextmanager
def memo(store=None):
    """Reuse MP's Gamma, 1/Gamma, complex-parameter hypergeometric and W
    values, Weber panels and laplace.evaluate's inside the block.  A
    block opened on a ``store`` dict keeps its values there; one opened
    without shares the open block's, or starts a fresh one that lives
    until it exits."""
    if store is None:
        store = _MEMO.get()
    token = _MEMO.set({} if store is None else store)
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
    if not z > 0:
        raise EvaluationDomainError(f"Whittaker W needs z > 0, got z={z}")
    return _whitw(float(a), _canonical_order(order), z)


def _whitw_direct(a: float, b: complex, z: float) -> float:
    with _mpmath_evaluation("Whittaker W (a, order, z)", a, b, z):
        return as_real(complex(MP.whitw(a, MP.mpc(b), z)))


_whitw = memoised(_whitw_direct, lambda *args: ("whitw", *args))


def _besselk_imaginary(nu, x: float):
    """K of imaginary order ``nu`` (an mpc) at x > 0, at MP's precision.

    At mag(x) >= 1 mpmath's besselk first sums the asymptotic
    2F0(nu + 1/2, 1/2 - nu; -1/(2x)) at MP's precision plus its wrapper's
    and hypercomb's 10 guard bits each and mag(x), to as many terms.
    Where that attempt is doomed, its fallback sums 1F1(nu + 1/2; 2nu + 1;
    2x), whose terms peak near the 2x-th.  There K is taken by mpmath's
    other representation, its mag(x) < 1 branch: the two conjugate terms
    (x/2)^-+nu Gamma(+-nu) 0F1(; 1 -+ nu; x^2/4)/2, whose series peaks
    near the (x/2)-th term, with hypercomb raising the precision through
    their cancellation.  Under MP's conjugate-pair rule that is one 0F1
    and one Gamma, which depends on the order only.  x^2/4 is rounded as
    besseli rounds it, so a level's I and K panels share the 0F1 at
    common nodes.  Both branches run in one memo() block, so besselk's
    hypsum hook finds the doomed-2F0 answer asked here."""
    M = MP.mag(x)
    prec = MP.prec + 20 + M

    def h(n):
        w = MP.fmul(x, 0.5, exact=True)
        r = MP.fmul(w, w, prec=MP.prec + M)
        return (([x, 2], [-n, n - 1], [n], [], [], [1 - n], r),
                ([x, 2], [n, -n - 1], [-n], [], [], [1 + n], r))

    with memo():
        if M < 1 or not _doomed_2f0(nu + 0.5, 0.5 - nu, -0.5 / x, prec, prec):
            return MP.besselk(nu, x)
        return MP.hypercomb(h, [nu])


def _bessel_complex(kind: str, order: OrderParam, z: float):
    if not z > 0:
        raise EvaluationDomainError(f"modified Bessel functions need z > 0, got {z}")
    b = _canonical_order(order)
    fn = MP.besseli if kind == "i" else _besselk_imaginary if b.imag else MP.besselk
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
    from scipy.special import ive, kve

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

    A node whose value provably rounds to +0.0 returns 0.0 without
    mpmath.  With y = pi nu:
    - |K_{i nu}(x)| <= K_0(x) <= sqrt(pi/(2x)) e^-x, from K_{i nu}(x) =
      int_0^inf e^{-x cosh t} cos(nu t) dt (DLMF 10.32.9) and
      cosh t - 1 >= t^2/2;
    - |I_{i nu}(x)| <= I_0(x) sqrt(sinh(y)/y) <= e^x sqrt(sinh(y)/y),
      since the series (DLMF 10.25.2) has |Gamma(k + 1 + i nu)| >=
      k! |Gamma(1 + i nu)| and |Gamma(1 + i nu)|^2 = y/sinh(y)
      (DLMF 5.4.3).
    Where the log of that bound times e^{shift - level x^2/8}/x^2 is
    below WEBER_NODE_CUT, mpmath's value (86 bits, rounded to 53, then
    to the subnormal grid) is a zero: the cut is 25 bits below 2^-1075.
    The zero's sign is +.  K_{i nu}(x) > 0 for x > nu: there
    x^2 C'' + x C' = (x^2 - nu^2) C makes every extremum a minimum of
    |C|, and K -> 0+.  Re I_{i nu}(x) > 0 for x >= 1 with
    e^{2x - 1/2} > sqrt(pi/2) sinh(y): DLMF 10.32.4 gives
    Re I >= I_0(x) - sinh(y) K_0(x)/pi, and I_0(x) >= e^{x - 1/2}/(pi sqrt x).
    """
    nu = MP.mpc(0.0, nu_mag)
    shift = math.pi * nu_mag / 2.0 if kind == "K" else -math.pi * nu_mag / 2.0
    fn = MP.besseli if kind == "I" else _besselk_imaginary
    what = f"Weber {kind} integrand (order, level, x)"
    # the log bound is a + b x - c ln x - level x^2/8, the value's sign
    # is + from x > positive_from
    y = math.pi * nu_mag
    log_sinh = y + math.log(-math.expm1(-2.0 * y) / 2.0)
    if kind == "K":
        a, b, c = 0.5 * math.log(math.pi / 2.0) + shift, -1.0, 2.5
        positive_from = nu_mag
    else:
        a, b, c = 0.5 * (log_sinh - math.log(y)) + shift, 1.0, 2.0
        positive_from = max(1.0, (0.5 + 0.5 * math.log(math.pi / 2.0) + log_sinh) / 2.0)

    def f(x):
        if (x > positive_from
                and a + b * x - c * math.log(x) - level * x * x / 8.0 < WEBER_NODE_CUT):
            return 0.0
        # the Gaussian damping and the scale shift are applied before
        # leaving mpmath so no intermediate overflows float
        with _mpmath_evaluation(what, 1j * nu_mag, level, x):
            value = complex(fn(nu, x) * MP.exp(shift - level * x * x / 8.0) / (x * x))
        # K of imaginary order is real; for I the real part is the even
        # real solution used throughout
        return value.real

    return f, math.exp(-shift)


def _weber_integrand(kind: str, level: float, order: OrderParam):
    """The panels' integrand and its unscale factor (1 for real order)."""
    z = order.value
    if z.imag != 0.0:
        return _weber_integrand_imag(kind, level, abs(z.imag))
    return _weber_integrand_real(kind, level, abs(z.real)), 1.0


def _weber_panel_direct(kind: str, level: float, order: OrderParam, a, b) -> float:
    f, _ = _weber_integrand(kind, level, order)
    return numerics.integrate(f, a, b, tol=WEBER_TOL).value


# every u < 1 at a level shares the panel (1, inf)
_weber_panel = memoised(_weber_panel_direct, lambda *args: ("weber", *args))


def weber_incomplete(kind: str, u: float, level: float, order: OrderParam) -> float:
    """Incomplete Weber integral int_u^inf exp(-level x^2/8) C(x) x^-2 dx
    with C the modified Bessel I or K function of the given order.

    Convergent for any u > 0 but divergent at u = 0, which is reported
    as DivergenceError.
    """
    if kind not in ("I", "K"):
        raise ValueError("kind must be 'I' or 'K'")
    if not u > 0:
        raise DivergenceError(f"incomplete Weber integrals need u > 0, got u={u}")
    _, unscale = _weber_integrand(kind, level, order)

    def panel(a, b):
        return _weber_panel(kind, level, order, a, b)

    if u < 1.0:
        # keep the near-origin growth of x^-2 C(x) in its own panel
        return unscale * (panel(u, 1.0) + panel(1.0, math.inf))
    return unscale * panel(u, math.inf)
