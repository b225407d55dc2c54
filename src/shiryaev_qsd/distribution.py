"""Quasi-stationary pdf/cdf on [0, A] and their stationary (A -> infinity)
counterparts.

    q_A(x) = e^{-1/x} (1/x) W_{1, xi/2}(2/x) / N,   N = e^{-1/A} W_{0, xi/2}(2/A)
    Q_A(x) = e^{-1/x} W_{0, xi/2}(2/x) / N          for x in [0, A)

with Q_A = 1 above A and 0 below 0.  The stationary limit is the
Frechet-type law H(x) = exp(-2/x) on x >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import specfun
from .eigen import EigenSolution
from .errors import DomainError
from .specfun import whittaker_w

# below x_min the argument 2/x of the Whittaker W would overflow its
# exponential range; e^{-1/x} provably crushes the value to 0 there
Z_MAX = 700.0
X_MIN = 2.0 / Z_MAX


@dataclass(frozen=True)
class QsdParams:
    """Precomputed evaluation context: the eigen solution plus the
    normalizing constant shared by pdf, cdf, moments and transform.

    ``memo`` is the level's specfun.memo() store: every W, Weber panel and
    laplace.evaluate value computed at this level is kept there, and so
    held in memory for as long as the params live."""

    eigen: EigenSolution
    normalizer: float
    memo: dict = field(init=False, compare=False, repr=False, default_factory=dict)


def make_params(eigen: EigenSolution) -> QsdParams:
    """Normalizing constant e^{-1/A} W_{0, xi/2}(2/A) for the solved pair."""
    A = eigen.A
    norm = math.exp(-1.0 / A) * whittaker_w(0.0, eigen.xi.halved(), 2.0 / A)
    if not (norm > 0 and math.isfinite(norm)):
        raise DomainError(f"normalizer at A={A} must be positive and finite, got {norm}")
    return QsdParams(eigen=eigen, normalizer=norm)


def qsd_pdf(p: QsdParams, x: float) -> float:
    """Quasi-stationary density at x; 0 outside [0, A] and exactly 0 at
    x = A (the eigenvalue equation makes the closed form vanish there)."""
    A = p.eigen.A
    if x <= X_MIN or x >= A:
        return 0.0
    with specfun.memo(p.memo):
        w = whittaker_w(1.0, p.eigen.xi.halved(), 2.0 / x)
    return math.exp(-1.0 / x) * (1.0 / x) * w / p.normalizer


def qsd_cdf(p: QsdParams, x: float) -> float:
    """Quasi-stationary distribution function; piecewise 0 / ratio / 1."""
    A = p.eigen.A
    if x >= A:
        return 1.0
    if x <= X_MIN:
        return 0.0
    with specfun.memo(p.memo):
        w = whittaker_w(0.0, p.eigen.xi.halved(), 2.0 / x)
    return math.exp(-1.0 / x) * w / p.normalizer


def stationary_pdf(x: float) -> float:
    """Density 2 x^-2 exp(-2/x) of the unabsorbed stationary law."""
    if x <= 0:
        return 0.0
    return 2.0 / (x * x) * math.exp(-2.0 / x)


def stationary_cdf(x: float) -> float:
    """Distribution function exp(-2/x) of the unabsorbed stationary law."""
    if x <= 0:
        return 0.0
    return math.exp(-2.0 / x)
