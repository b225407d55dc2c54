"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and asserts that every sub-check held.  Run with -s to see the lines on
success; pytest prints them automatically for failing tests.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from shiryaev_qsd import (
    compare_to_analytic,
    critical_A,
    lambda_bounds,
    make_params,
    principal_lambda,
    qsd_cdf,
    qsd_pdf,
    stationary_cdf,
    stationary_laplace,
)
from shiryaev_qsd.laplace import METHODS as LAPLACE_METHODS
from shiryaev_qsd.laplace import evaluate, laplace_bessel, ode_residual
from shiryaev_qsd.errors import NonConvergenceError
from shiryaev_qsd.moments import (
    max_rel_spread,
    moment_2f2,
    moment_powerseries,
    moments_quadrature,
    moments_recurrence,
)
from shiryaev_qsd.numerics import integrate
from shiryaev_qsd.simulate import SimConfig, simulate
from shiryaev_qsd.specfun import (
    OrderParam,
    bessel_i,
    bessel_k,
    hyp2f2,
    kampe_de_feriet,
    whittaker_w,
)


def _report(number, label, failures):
    status = "PASS" if not failures else f"FAIL ({'; '.join(failures)})"
    print(f"criterion {number} [{label}]: {status}")
    assert not failures, failures


def test_criterion_1_critical_constant():
    failures = []
    t0 = time.perf_counter()
    A = critical_A()
    elapsed = time.perf_counter() - t0
    if abs(A - 10.240465) > 1e-5:
        failures.append(f"critical level {A} off target")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(1, "critical constant", failures)


def test_criterion_2_eigenvalue_bounds():
    failures = []
    t0 = time.perf_counter()
    lams = []
    for A in np.geomspace(0.5, 200.0, 25):
        A = float(A)
        lam = principal_lambda(A).lam
        lo, hi = lambda_bounds(A)
        if not lo < lam < hi:
            failures.append(f"lambda {lam} outside bounds at A={A}")
        lams.append(lam)
    if not all(a > b for a, b in zip(lams, lams[1:])):
        failures.append("lambda not strictly decreasing in A")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    _report(2, "eigenvalue bounds", failures)


def test_criterion_3_first_moment_identity():
    failures = []
    for A in (1.0, 5.0, 20.0):
        p = make_params(principal_lambda(A))
        want = A - 1.0 / p.eigen.lam
        routes = {
            "recurrence": moments_recurrence(p, 1).values[1],
            "2f2": moment_2f2(p, 1),
            "powerseries": moment_powerseries(p, 1),
        }
        for name, got in routes.items():
            if abs(got - want) > 1e-10 * A:
                failures.append(f"{name} first moment off at A={A}")
        q = moments_quadrature(p, 1).values[1]
        if abs(q - want) > 1e-6 * abs(want):
            failures.append(f"quadrature first moment off at A={A}")
    _report(3, "first-moment identity", failures)


def test_criterion_4_moment_triple_agreement():
    failures = []
    levels = (1.0, 3.0, 5.0, 10.0, 30.0, 50.0)
    table = {}
    for A in levels:
        p = make_params(principal_lambda(A))
        rec = moments_recurrence(p, 10).values
        f22 = tuple(moment_2f2(p, n) for n in range(11))
        pwr = tuple(moment_powerseries(p, n) for n in range(11))
        quad_vals = moments_quadrature(p, 10).values
        table[A] = rec
        for n in range(11):
            if max_rel_spread([rec[n], f22[n], pwr[n]]) > 1e-9:
                failures.append(f"analytic spread at A={A}, n={n}")
            if abs(quad_vals[n] - rec[n]) > 1e-6 * abs(rec[n]):
                failures.append(f"quadrature off at A={A}, n={n}")
    # shape: each moment increases with the level
    for n in range(1, 11):
        col = [table[A][n] for A in levels]
        if not all(a < b for a, b in zip(col, col[1:])):
            failures.append(f"moment order {n} not increasing in A")
    # shape: decreasing in n at the unit level, increasing from level 3 up
    m1 = table[1.0]
    if not all(m1[n] > m1[n + 1] for n in range(1, 10)):
        failures.append("moments not decreasing in n at A=1")
    for A in levels[1:]:
        m = table[A]
        if not all(m[n] < m[n + 1] for n in range(1, 10)):
            failures.append(f"moments not increasing in n at A={A}")
    _report(4, "moment triple agreement", failures)


def test_criterion_5_distribution_validity():
    failures = []
    for A in (1.0, 5.0, 20.0):
        p = make_params(principal_lambda(A))
        mass = integrate(lambda x: qsd_pdf(p, x), 0.0, A, tol=1e-11).value
        if abs(mass - 1.0) > 1e-8:
            failures.append(f"pdf mass {mass} at A={A}")
        if qsd_pdf(p, A) != 0.0:
            failures.append(f"pdf nonzero at the absorption level A={A}")
        xs = np.linspace(0.0, A, 400)
        cdf = [qsd_cdf(p, float(x)) for x in xs]
        if not all(b >= a for a, b in zip(cdf, cdf[1:])):
            failures.append(f"cdf not monotone at A={A}")
        h = 1e-5 * A
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            x = frac * A
            fd = (qsd_cdf(p, x + h) - qsd_cdf(p, x - h)) / (2.0 * h)
            if abs(fd - qsd_pdf(p, x)) > 1e-6:
                failures.append(f"cdf derivative off at A={A}, x={x}")
    _report(5, "distribution validity", failures)


def test_criterion_6_laplace_four_way_agreement():
    failures = []
    for A in (1.0, 5.0, 20.0):
        p = make_params(principal_lambda(A))
        for s in (0.1, 1.0, 5.0):
            vals = {}
            for m in LAPLACE_METHODS:
                try:
                    vals[m] = evaluate(p, s, m).value
                except NonConvergenceError:
                    pass
            if len(vals) < 2:
                failures.append(f"fewer than 2 routes converged at A={A}, s={s}")
                continue
            if max_rel_spread(vals.values()) > 1e-6:
                failures.append(f"route spread at A={A}, s={s}: "
                                f"{max_rel_spread(vals.values()):.2e}")
            if abs(ode_residual(p, s, method="bessel")) > 1e-5:
                failures.append(f"ODE residual at A={A}, s={s}")
        if laplace_bessel(p, 0.0).value != 1.0:
            failures.append(f"transform not 1 at s=0, A={A}")
        # slope at the origin from a one-sided fourth-order stencil of
        # the uniformly valid route
        h = 5e-4
        L = [laplace_bessel(p, k * h).value for k in range(5)]
        slope = (-25 * L[0] + 48 * L[1] - 36 * L[2] + 16 * L[3] - 3 * L[4]) / (12 * h)
        want = 1.0 / p.eigen.lam - A
        if abs(slope - want) > 1e-6 * max(1.0, abs(want)):
            failures.append(f"origin slope off at A={A}: {slope} vs {want}")
    _report(6, "Laplace four-way agreement", failures)


def test_criterion_7_stationary_limit():
    failures = []
    target = stationary_laplace(1.0)  # 2 sqrt(2) K_1(2 sqrt(2))
    gaps = []
    for A in (20.0, 50.0, 200.0, 500.0):
        p = make_params(principal_lambda(A))
        gaps.append(abs(laplace_bessel(p, 1.0).value - target))
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        failures.append("transform gap not monotone decreasing in A")
    if gaps[-1] > 1e-3:
        failures.append(f"gap {gaps[-1]:.2e} > 1e-3 at A=500")
    for A in (20.0, 50.0):
        p = make_params(principal_lambda(A))
        for x in np.linspace(0.25, A - 0.25, 60):
            if qsd_cdf(p, float(x)) < stationary_cdf(float(x)) - 1e-12:
                failures.append(f"absorbed cdf below stationary at A={A}, x={x}")
                break
    _report(7, "stationary limit", failures)


def test_criterion_8_monte_carlo_end_to_end():
    failures = []
    t0 = time.perf_counter()
    p = make_params(principal_lambda(2.0))
    cfg = SimConfig(A=2.0, dt=1e-4, paths=200_000, seed=20260823, horizon=10.0)
    emp = simulate(cfg)
    report = compare_to_analytic(emp, p)
    if report.lambda_rel_error > 0.05:
        failures.append(f"decay rate off by {report.lambda_rel_error:.3f} > 5%")
    if report.sup_distance > 0.02:
        failures.append(f"cdf sup-distance {report.sup_distance:.4f} > 0.02")
    # log-linearity of the survival tail
    tail = emp.survival[emp.survival[:, 0] >= cfg.horizon / 2.0]
    tail = tail[tail[:, 1] > 0]
    t, y = tail[:, 0], np.log(tail[:, 1] * cfg.paths)
    coef = np.polyfit(t, y, 1)
    resid = y - np.polyval(coef, t)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((y - y.mean()) ** 2))
    if r2 < 0.99:
        failures.append(f"survival tail R^2 {r2:.4f} < 0.99")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10 min")
    _report(8, "Monte Carlo end-to-end", failures)


def test_criterion_9_special_function_identity_suite():
    failures = []
    rng = np.random.default_rng(20260823)

    # Bessel Wronskian z (K I' - I K') = 1
    bad = 0
    for _ in range(100):
        z = float(rng.uniform(0.2, 8.0))
        if rng.random() < 0.5:
            order = OrderParam.real(float(rng.uniform(0.05, 1.9)))
        else:
            order = OrderParam.imaginary(float(rng.uniform(0.05, 1.9)))
        nu = mp.mpc(order.value)
        with mp.workdps(30):
            di = complex(mp.diff(lambda t: mp.besseli(nu, t), z)).real
            dk = complex(mp.diff(lambda t: mp.besselk(nu, t), z)).real
        wron = z * (bessel_k(order, z) * di - bessel_i(order, z) * dk)
        if abs(wron - 1.0) > 1e-10:
            bad += 1
    if bad:
        failures.append(f"Bessel Wronskian failed {bad}/100")

    # Whittaker Wronskian M W' - W M' = -Gamma(1+2b)/Gamma(1/2+b-a)
    bad = 0
    n = 0
    while n < 100:
        a = float(rng.uniform(-1.5, 1.5))
        b = float(rng.uniform(0.05, 0.8))
        x = 0.5 + b - a
        if abs(x - round(x)) < 0.05 and round(x) <= 0:
            continue
        n += 1
        z = float(rng.uniform(0.3, 6.0))
        order = OrderParam.real(b)
        with mp.workdps(30):
            m = float(mp.whitm(a, b, z))
            dm = float(mp.diff(lambda t: mp.whitm(a, b, t), z))
            dw = float(mp.diff(lambda t: mp.whitw(a, b, t), z))
            want = float(-mp.gamma(1 + 2 * b) / mp.gamma(0.5 + b - a))
        wron = m * dw - whittaker_w(a, order, z) * dm
        if abs(wron - want) > 1e-10 * max(1.0, abs(want)):
            bad += 1
    if bad:
        failures.append(f"Whittaker Wronskian failed {bad}/100")

    # 2F2 contiguous relation; a in {-1, ..., -10} makes every series
    # terminate
    bad = 0
    for _ in range(100):
        a, b = (float(v) for v in rng.integers(-10, 0, size=2))
        c, d = (float(v) for v in rng.uniform(0.3, 3.0, size=2))
        z = float(rng.uniform(-4.0, 4.0))
        t1 = (b - a) * z * hyp2f2(a + 1, b + 1, c + 1, d + 1, z)
        t2 = c * d * (hyp2f2(a, b + 1, c, d, z) - hyp2f2(a + 1, b, c, d, z))
        if abs(t1 + t2) > 1e-10 * max(abs(t1), abs(t2), 1.0):
            bad += 1
    if bad:
        failures.append(f"2F2 contiguous relation failed {bad}/100")

    # K-order reflection K_a = pi (I_{-a} - I_a) / (2 sin pi a)
    bad = 0
    n_cases = 0
    while n_cases < 100:
        a = float(rng.uniform(0.05, 1.9))
        if abs(a - round(a)) < 1e-2:
            continue
        n_cases += 1
        z = float(rng.uniform(0.2, 8.0))
        with mp.workdps(30):
            i_neg = float(mp.besseli(-a, z))
        want = (math.pi * (i_neg - bessel_i(OrderParam.real(a), z))
                / (2.0 * math.sin(math.pi * a)))
        got = bessel_k(OrderParam.real(a), z)
        if abs(got - want) > 1e-10 * max(1.0, abs(want)):
            bad += 1
    if bad:
        failures.append(f"K-order reflection failed {bad}/100")

    # W is even in its second index, bitwise
    bad = 0
    for _ in range(100):
        a = float(rng.uniform(-1.0, 1.5))
        z = float(rng.uniform(0.2, 6.0))
        if rng.random() < 0.5:
            order = OrderParam.real(float(rng.uniform(0.0, 0.9)))
        else:
            order = OrderParam.imaginary(float(rng.uniform(0.0, 1.5)))
        negated = OrderParam(order.kind, -order.magnitude)
        if whittaker_w(a, order, z) != whittaker_w(a, negated, z):
            bad += 1
    if bad:
        failures.append(f"W index symmetry failed {bad}/100")

    # double-series reduction to Bessel cross terms (valid Re(1+a+-b)>0)
    a, b, x, y = 0.0, 0.25, -0.5, 1.5
    lhs = kampe_de_feriet((a + b + 1) / 2, (a - b + 1) / 2,
                          (a + b + 3) / 2, (a - b + 3) / 2,
                          x * y * y / 4.0, y * y / 4.0)
    with mp.workdps(30):
        ik = mp.quad(lambda t: mp.exp(x * t * t / 4) * t**a * mp.besselk(b, t),
                     [0, y])
        ii = mp.quad(lambda t: mp.exp(x * t * t / 4) * t**a * mp.besseli(b, t),
                     [0, y])
        rhs = float((a + b + 1) * (a - b + 1) / mp.mpf(y) ** (a + 1)
                    * (mp.besseli(b, y) * ik - mp.besselk(b, y) * ii))
    if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
        failures.append(f"double-series Bessel reduction off: {lhs} vs {rhs}")

    _report(9, "special-function identity suite", failures)
