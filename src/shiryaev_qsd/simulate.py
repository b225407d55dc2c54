"""Euler-Maruyama Monte Carlo oracle for the absorbed diffusion
dR = dt + R dB.

Paths start at r0, are absorbed the first step their value reaches A,
and are clamped at 0 against discretization undershoot (the exact
process is nonnegative).  Outputs: the survival curve, a decay-rate
estimate from the log-linear tail of the survival curve, and the
empirical conditional (on survival) distribution pooled over snapshots
past burn-in -- the conditional law is time-invariant there, and pooling
multiplies the effective sample size.

A single seeded generator drives the whole run, so identical
configurations reproduce bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .distribution import QsdParams, qsd_cdf
from .eigen import lambda_bounds
from .errors import AllAbsorbedError, ConfigError, MismatchedAError

if TYPE_CHECKING:
    import numpy as np

# conditional-density histogram bins on [0, A]
BINS = 64
# time between survival records, and between conditional-law snapshots
RECORD_DT = 0.1
SNAPSHOT_DT = 0.5
# gates of ComparisonReport.passed()
SUP_TOL = 0.02
LAMBDA_REL_TOL = 0.05
# intervals of the analytic cdf table on [0, A]
CDF_GRID = 2000
# the most Euler path-steps (paths x steps) a configuration may ask for:
# about 6 h at ~20 ns per path-step
MAX_PATH_STEPS = 1e12


def default_horizon(A: float) -> float:
    """Twenty expected decay times at the analytic lower bound."""
    return 20.0 / lambda_bounds(A)[0]


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run, refused or accepted at construction."""

    A: float
    r0: float = 0.0
    dt: float = 1e-4
    horizon: float | None = None  # None -> default_horizon(A), set at construction
    paths: int = 200_000
    seed: int = 0

    def __post_init__(self):
        lambda_bounds(self.A)  # the supported range of A
        if self.paths < 1:
            raise ConfigError(f"paths must be >= 1, got {self.paths}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if not (0.0 <= self.r0 < self.A):
            raise ConfigError(f"need 0 <= r0 < A, got r0={self.r0}, A={self.A}")
        if self.horizon is None:
            object.__setattr__(self, "horizon", default_horizon(self.A))
        elif not self.horizon > 0:
            raise ConfigError(f"horizon must be > 0, got {self.horizon}")
        # simulate() rounds the horizon and the snapshot and record
        # intervals to whole steps
        if not math.isfinite(max(self.horizon, SNAPSHOT_DT) / self.dt):
            raise ConfigError(f"too many steps of dt={self.dt} for "
                              f"horizon={self.horizon}")
        if self.n_steps < 1:
            raise ConfigError("horizon shorter than one time step")
        if self.paths * self.n_steps > MAX_PATH_STEPS:
            raise ConfigError(f"{self.paths} paths of {self.n_steps:.3g} steps exceed "
                              f"MAX_PATH_STEPS = {MAX_PATH_STEPS:g} path-steps")
        # simulate() records every record_every steps and at the last one; 3
        # are in the fit window iff the third latest, k, has k*dt in it (never k <= 0)
        last = self.n_steps // self.record_every * self.record_every
        steps = {self.n_steps} | {last - i * self.record_every for i in range(3)}
        held = sum(k * self.dt >= self.horizon / 2.0 for k in sorted(steps)[-3:])
        if held < 3:
            raise ConfigError(
                f"the fit window t >= horizon/2 holds {held} survival records, "
                "a tail fit needs at least 3; lengthen the horizon")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @cached_property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @cached_property
    def record_every(self) -> int:
        return max(1, int(round(RECORD_DT / self.dt)))


@dataclass(frozen=True)
class EmpiricalQsd:
    A: float
    bin_edges: np.ndarray
    conditional_density: np.ndarray
    survival: np.ndarray  # columns (t, fraction alive)
    lambda_hat: float
    lambda_hat_stderr: float
    snapshots: dict = field(repr=False)  # t -> positions of paths alive at t
    pooled_samples: np.ndarray = field(repr=False)


def simulate(config: SimConfig) -> EmpiricalQsd:
    """Run the Euler-Maruyama scheme and assemble the empirical QSD."""
    import numpy as np

    A, dt, horizon = config.A, config.dt, config.horizon
    n_steps, record_every = config.n_steps, config.record_every
    burn_in = horizon / 2.0
    snap_every = max(1, int(round(SNAPSHOT_DT / dt)))

    rng = np.random.default_rng(config.seed)
    sqdt = math.sqrt(dt)
    times, alive = [0.0], [config.paths]
    snapshots = {}
    try:
        # the path state and its normals buffer; each step draws into the
        # buffer and forms r += dt + r * (sqdt * z) in place, in that order
        r = np.full(config.paths, float(config.r0))
        normals = np.empty(config.paths)
        for k in range(1, n_steps + 1):
            z = normals[:r.size]
            rng.standard_normal(out=z)
            z *= sqdt
            z *= r
            z += dt
            r += z
            np.clip(r, 0.0, None, out=r)
            r = r[r < A]
            t = k * dt
            if k % record_every == 0 or k == n_steps:
                times.append(t)
                alive.append(r.size)
            if k % snap_every == 0 or k == n_steps:
                if t >= burn_in - 1e-9:
                    snapshots[round(t, 10)] = r.copy()
            if r.size == 0:
                raise AllAbsorbedError(
                    f"all {config.paths} paths absorbed by t={t:.3f} < horizon={horizon}"
                )
    except MemoryError as exc:
        raise ConfigError(f"{config.paths} paths do not fit in memory: {exc}") from exc

    times = np.asarray(times)
    alive = np.asarray(alive, dtype=float)
    survival = np.column_stack([times, alive / config.paths])

    # count-weighted least-squares slope of log(alive) vs t over the fit
    # window: var(log N) ~ 1/N for Poisson counts, so weights sqrt(N) make
    # the unscaled covariance directly interpretable
    tail = times >= burn_in
    t, n = times[tail], alive[tail]
    coef, cov = np.polyfit(t, np.log(n), 1, w=np.sqrt(n), cov="unscaled")

    pooled = np.concatenate([snapshots[t] for t in sorted(snapshots)])
    edges = np.linspace(0.0, A, BINS + 1)
    density, _ = np.histogram(pooled, bins=edges, density=True)

    return EmpiricalQsd(
        A=A,
        bin_edges=edges,
        conditional_density=density,
        survival=survival,
        lambda_hat=-coef[0],
        lambda_hat_stderr=math.sqrt(abs(cov[0, 0])),
        snapshots=snapshots,
        pooled_samples=pooled,
    )


@dataclass(frozen=True)
class ComparisonReport:
    sup_distance: float
    lambda_hat: float
    lambda_analytic: float
    lambda_rel_error: float

    def passed(self) -> bool:
        return (self.sup_distance <= SUP_TOL
                and self.lambda_rel_error <= LAMBDA_REL_TOL)


def _cdf_interpolator(p: QsdParams):
    """Analytic cdf tabulated on a grid; the cdf is smooth so linear
    interpolation is far below Monte Carlo resolution."""
    import numpy as np

    A = p.eigen.A
    xs = np.linspace(0.0, A, CDF_GRID + 1)
    cdf = np.array([qsd_cdf(p, x) for x in xs])
    return xs, cdf


def compare_to_analytic(emp: EmpiricalQsd, p: QsdParams) -> ComparisonReport:
    """Sup-distance of the empirical conditional cdf from the analytic
    one, and the decay-rate comparison."""
    import numpy as np

    if not math.isclose(emp.A, p.eigen.A, rel_tol=0.0, abs_tol=1e-12):
        raise MismatchedAError(f"empirical A={emp.A} vs analytic A={p.eigen.A}")

    xs, cdf = _cdf_interpolator(p)
    samples = np.sort(emp.pooled_samples)
    n = samples.size
    f = np.interp(samples, xs, cdf)
    i = np.arange(n)
    sup = float(np.max(np.maximum(np.abs(i / n - f), np.abs((i + 1) / n - f))))

    lam = p.eigen.lam
    rel = abs(emp.lambda_hat - lam) / lam
    return ComparisonReport(
        sup_distance=sup,
        lambda_hat=emp.lambda_hat,
        lambda_analytic=lam,
        lambda_rel_error=rel,
    )
