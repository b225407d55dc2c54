"""Principal eigenvalue of the absorbed Shiryaev diffusion.

For a given absorption level A > 0 the decay rate lambda_A is the
smallest positive root of W_{1, xi(lambda)/2}(2/A) = 0, where
xi(lambda) = sqrt(1 - 8 lambda) is purely real in [0, 1) for
lambda <= 1/8 and purely imaginary for lambda > 1/8.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import numerics, specfun
from .errors import BracketFailure, DomainError
from .specfun import OrderParam, whittaker_w

# relative root tolerance of every solve; the residual guard needs
# lambda about this close
ROOT_TOL = 1e-12

# supported absorption levels (see the README): below A_MIN the
# normalizer e^{-1/A} W_{0,xi/2}(2/A) underflows and W stops converging;
# above A_MAX the quadrature routes lose the pdf's mass
A_MIN = 0.005
A_MAX = 1e4

# points of the scan for the first sign change inside the bounds
SCAN_POINTS = 48

# residual scale guard: |W| at the root must be tiny relative to the
# largest |W| over the scanned grid points, from the lower bound up to
# the bracket's upper end (never more than over the whole grid)
RESIDUAL_REL = 1e-9


@dataclass(frozen=True)
class EigenSolution:
    """A solved (A, lambda_A) pair with its branch-tagged xi and residual."""

    A: float
    lam: float
    xi: OrderParam
    residual: float


def xi_of_lambda(lam: float) -> OrderParam:
    """Branch-tagged xi(lambda) = sqrt(1 - 8 lambda)."""
    if not lam > 0:
        raise DomainError(f"lambda must be > 0, got {lam}")
    d = 1.0 - 8.0 * lam
    if d >= 0:
        return OrderParam.real(math.sqrt(d))
    return OrderParam.imaginary(math.sqrt(-d))


def lambda_bounds(A: float) -> tuple[float, float]:
    """Strict lower/upper bounds for lambda_A from moment positivity.

    Also the gate on the supported range [A_MIN, A_MAX] of A.
    """
    if not A > 0:
        raise DomainError(f"A must be > 0, got {A}")
    if not math.isfinite(A):
        raise DomainError(f"A must be finite, got {A}")
    if not A_MIN <= A <= A_MAX:
        raise DomainError(f"A must lie in [{A_MIN:g}, {A_MAX:g}], got {A}")
    lo = 1.0 / A + 1.0 / (A + A * A)
    hi = 1.0 / A + (1.0 + math.sqrt(4.0 * A + 1.0)) / (2.0 * A * A)
    return lo, hi


def eigen_objective(lam: float, A: float) -> float:
    """W_{1, xi(lambda)/2}(2/A); continuous across lambda = 1/8."""
    return whittaker_w(1.0, xi_of_lambda(lam).halved(), 2.0 / A)


@functools.lru_cache(maxsize=512)
def principal_lambda(A: float) -> EigenSolution:
    """Smallest positive eigenvalue lambda_A for absorption level A.

    The moment-derived bounds are strict, so the principal root is the
    first sign change of the objective inside them; no sign change there
    is a BracketFailure.  [lo/4, lo] is scanned to rule out a spurious
    smaller root.
    """
    A = float(A)
    lo, hi = lambda_bounds(A)
    f = functools.partial(eigen_objective, A=A)
    # the block holds one W value per distinct lambda: the residual
    # re-evaluates the root and the scan scale the grid points; the Gamma
    # values are shared too
    with specfun.memo():
        # the bounds interval can contain higher eigenvalues too (their
        # spacing shrinks relative to the interval for small A), so walk up
        # from the lower bound to the FIRST sign change rather than trusting
        # the endpoints; grid points above it are never evaluated
        grid = [lo + k * (hi - lo) / SCAN_POINTS for k in range(SCAN_POINTS + 1)]
        for b_lo, b_hi in zip(grid, grid[1:]):
            f_lo, f_hi = f(b_lo), f(b_hi)
            if f_lo == 0.0 or f_lo * f_hi < 0:
                break
        else:
            raise BracketFailure(
                f"no sign change in the bounds ({lo}, {hi}) at A={A}; "
                "this indicates a special-function defect"
            )

        # cheap insurance against a smaller root below the analytic bound
        guard = [lo / 4.0 + k * (lo - lo / 4.0) / 8.0 for k in range(9)]
        gvals = [f(x) for x in guard]
        for g0, g1 in zip(gvals, gvals[1:]):
            if g0 * g1 < 0:
                raise BracketFailure(
                    f"spurious eigenvalue sign change below the lower bound at A={A}"
                )

        if f_lo == 0.0:
            lam = b_lo
        else:
            # relative to lambda's magnitude: the absolute lambda scale
            # spans five orders over the supported A range
            lam = numerics.find_root(f, b_lo, b_hi,
                                     tol=ROOT_TOL * max(abs(b_hi), 1e-3))
        residual = abs(f(lam))
        scan_scale = max(abs(f(x)) for x in grid if x <= b_hi)
        if residual > RESIDUAL_REL * scan_scale:
            raise BracketFailure(
                f"eigenvalue residual {residual} too large at A={A} "
                f"(scale {scan_scale})"
            )
        return EigenSolution(A=A, lam=lam, xi=xi_of_lambda(lam), residual=residual)


def critical_A() -> float:
    """Absorption level at which lambda_A = 1/8 (the xi = 0 borderline),
    i.e. the root of W_{1,0}(2/A) = 0, bracketed in [5, 20]."""
    # the block shares the Gamma values of W_{1,0}, which depend on the
    # order only, across the levels Brent's method tries
    with specfun.memo():
        return numerics.find_root(functools.partial(eigen_objective, 0.125),
                                  5.0, 20.0, tol=ROOT_TOL)
