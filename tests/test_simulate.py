"""Monte Carlo oracle: configuration contracts, determinism, martingale
sanity without absorption, and agreement with the analytic law.

The heavier cross-validation (full path count, tight tolerances) lives in
the acceptance suite; these tests use smaller ensembles to stay fast.
"""

import importlib
import math
import pkgutil
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiryaev_qsd
from shiryaev_qsd import eigen
from shiryaev_qsd.errors import (
    AllAbsorbedError,
    ConfigError,
    DomainError,
    MismatchedAError,
)
from shiryaev_qsd.simulate import (
    RECORD_DT,
    ComparisonReport,
    SimConfig,
    compare_to_analytic,
    default_horizon,
    simulate,
)


def _small(A=2.0, **kw):
    kw.setdefault("dt", 1e-3)
    kw.setdefault("paths", 20_000)
    kw.setdefault("horizon", 10.0)
    kw.setdefault("seed", 42)
    return SimConfig(A=A, **kw)


class TestSimConfig:
    def test_degenerate_configurations_rejected(self):
        with pytest.raises(DomainError, match=r"A must be > 0, got 0\.0"):
            SimConfig(A=0.0)
        with pytest.raises(ConfigError):
            SimConfig(A=2.0, paths=0)
        with pytest.raises(ConfigError):
            SimConfig(A=2.0, dt=0.0)
        with pytest.raises(ConfigError):
            SimConfig(A=2.0, r0=2.0)
        with pytest.raises(ConfigError):
            SimConfig(A=2.0, horizon=-1.0)
        with pytest.raises(ConfigError):
            SimConfig(A=2.0, seed=-1)
        with pytest.raises(ConfigError):
            SimConfig(A=2.0, horizon=math.inf)
        with pytest.raises(ConfigError, match="MAX_PATH_STEPS"):
            SimConfig(A=2.0, paths=10, horizon=1e-15, dt=1e-300)
        # a run that could not fit its decay rate is refused before it starts
        with pytest.raises(ConfigError, match="shorter than one time step"):
            SimConfig(A=2.0, dt=1e-3, horizon=4e-4, paths=100)
        with pytest.raises(ConfigError, match="holds 2 survival records"):
            SimConfig(A=2.0, dt=1e-3, horizon=0.2, paths=100)

    def test_default_horizon_scales_with_decay_time(self):
        assert default_horizon(2.0) == pytest.approx(20.0 / (0.5 + 1.0 / 6.0))
        assert SimConfig(A=2.0).horizon == default_horizon(2.0)
        assert SimConfig(A=2.0, horizon=7.0).horizon == 7.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(horizon=st.one_of(st.floats(1e-4, 5.0),
                             st.integers(1, 100).map(lambda m: m * RECORD_DT / 2)),
           dt=st.floats(math.log(1e-3), 0.0).map(math.exp))
    @example(horizon=0.35, dt=1e-3)
    @example(horizon=5e-4, dt=1e-3)
    @example(horizon=0.3, dt=0.1)
    def test_refused_exactly_when_the_run_is_unfit(self, horizon, dt):
        # replay simulate()'s step and record schedule: the tail fit needs
        # at least 3 survival records at t >= horizon/2
        n = round(horizon / dt)
        every = max(1, round(RECORD_DT / dt))
        held = sum(k * dt >= horizon / 2.0
                   for k in range(1, n + 1) if k % every == 0 or k == n)
        # one path never nears the barrier at the top of the range
        run = dict(A=eigen.A_MAX, dt=dt, horizon=horizon, paths=1)
        if n < 1 or held < 3:
            with pytest.raises(ConfigError):
                SimConfig(**run)
        else:
            t = simulate(SimConfig(**run)).survival[:, 0]
            assert np.sum(t >= horizon / 2.0) == held

    def test_infinite_level_needs_explicit_horizon(self):
        # the free process is outside the supported range, with or
        # without a horizon
        with pytest.raises(DomainError, match="A must be finite"):
            SimConfig(A=math.inf)
        with pytest.raises(DomainError, match="A must be finite"):
            SimConfig(A=math.inf, horizon=1.0)


class TestDeterminism:
    def test_identical_configs_reproduce_bitwise(self):
        cfg = _small(paths=5_000, horizon=4.0)
        a = simulate(cfg)
        b = simulate(cfg)
        assert a.lambda_hat == b.lambda_hat
        assert np.array_equal(a.survival, b.survival)
        assert np.array_equal(a.pooled_samples, b.pooled_samples)

    def test_different_seeds_differ(self):
        a = simulate(_small(paths=5_000, horizon=4.0, seed=1))
        b = simulate(_small(paths=5_000, horizon=4.0, seed=2))
        assert a.lambda_hat != b.lambda_hat


class TestUnabsorbedDynamics:
    def test_mean_grows_linearly_without_a_barrier(self):
        # E[R_t] = r0 + t exactly for the free process; at the top of the
        # supported range no path of this run comes near the barrier
        cfg = SimConfig(A=eigen.A_MAX, r0=1.0, dt=1e-3, horizon=2.0,
                        paths=50_000, seed=7)
        emp = simulate(cfg)
        final = emp.snapshots[max(emp.snapshots)]
        assert final.size == cfg.paths  # nothing is ever absorbed
        want = 1.0 + 2.0
        stderr = final.std() / math.sqrt(final.size)
        assert abs(final.mean() - want) <= 3.0 * stderr


class TestAbsorption:
    def test_long_horizon_exhausts_every_path(self):
        # at this level the survival half-life is ~1, so a horizon of 30
        # outlives the whole ensemble and the run reports that honestly
        with pytest.raises(AllAbsorbedError):
            simulate(SimConfig(A=2.0, dt=1e-3, horizon=30.0, paths=20_000, seed=0))

    def test_short_horizon_is_a_config_error_while_paths_live(self):
        # records at t = 0, 0.1, 0.2 leave two in the fit window t >= 0.1
        with pytest.raises(ConfigError, match="holds 2 survival records"):
            simulate(SimConfig(A=2.0, dt=1e-3, horizon=0.2, paths=100, seed=0))

    def test_unallocatable_path_state_is_a_config_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("stubbed allocation")

        monkeypatch.setattr(np, "full", refuse)
        with pytest.raises(ConfigError, match="20000 paths do not fit in memory"):
            simulate(_small())

    @pytest.mark.parametrize("stub", ["normals buffer", "draw"])
    def test_unallocatable_step_is_a_config_error(self, monkeypatch, stub):
        def refuse(*args, **kwargs):
            raise MemoryError("stubbed allocation")

        if stub == "normals buffer":
            monkeypatch.setattr(np, "empty", refuse)
        else:
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed: types.SimpleNamespace(standard_normal=refuse))
        with pytest.raises(ConfigError, match="20000 paths do not fit in memory"):
            simulate(_small())

    def test_survival_curve_is_monotone_and_normalized(self):
        emp = simulate(_small())
        frac = emp.survival[:, 1]
        assert frac[0] == 1.0
        assert all(b <= a for a, b in zip(frac, frac[1:]))
        assert 0.0 < frac[-1] < 1.0

    def test_decay_rate_near_analytic_value(self, params_for):
        emp = simulate(_small())
        lam = params_for(2.0).eigen.lam
        assert emp.lambda_hat == pytest.approx(lam, rel=0.10)
        assert emp.lambda_hat_stderr > 0.0

    def test_samples_live_strictly_inside_the_interval(self):
        emp = simulate(_small())
        assert emp.pooled_samples.min() >= 0.0
        assert emp.pooled_samples.max() < 2.0

    def test_time_step_refinement_stays_within_noise(self, params_for):
        lam = params_for(2.0).eigen.lam
        coarse = simulate(_small(dt=2e-3, paths=30_000))
        fine = simulate(_small(dt=5e-4, paths=30_000))
        width = 3.0 * (coarse.lambda_hat_stderr + fine.lambda_hat_stderr
                       + 0.02 * lam)
        assert abs(coarse.lambda_hat - fine.lambda_hat) <= width

    def test_conditional_law_is_stationary_across_snapshots(self, params_for):
        # past burn-in the normalized snapshot histograms should agree
        # with each other up to sampling noise
        emp = simulate(_small(paths=100_000, horizon=6.0))
        ts = sorted(emp.snapshots)
        early, late = emp.snapshots[ts[0]], emp.snapshots[ts[len(ts) // 2]]
        assert min(early.size, late.size) > 500
        q_early = np.quantile(early, [0.25, 0.5, 0.75])
        q_late = np.quantile(late, [0.25, 0.5, 0.75])
        assert np.allclose(q_early, q_late, atol=0.08)


class TestComparison:
    def test_report_fields_and_gate(self, params_for):
        p = params_for(2.0)
        emp = simulate(_small(paths=50_000))
        rep = compare_to_analytic(emp, p)
        assert isinstance(rep, ComparisonReport)
        assert rep.lambda_analytic == p.eigen.lam
        assert 0.0 <= rep.sup_distance <= 1.0
        # loose gate for the small ensemble; the tight one runs in the
        # acceptance suite
        assert rep.sup_distance <= 0.05
        assert rep.lambda_rel_error <= 0.15
        assert rep.passed() == (rep.sup_distance <= 0.02
                                and rep.lambda_rel_error <= 0.05)

    def test_mismatched_levels_rejected(self, params_for):
        emp = simulate(_small())
        with pytest.raises(MismatchedAError):
            compare_to_analytic(emp, params_for(5.0))


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(shiryaev_qsd.__path__)))
def test_package_attribute_is_the_submodule(name):
    # a package-level name `simulate` would shadow the submodule, and
    # `shiryaev_qsd.simulate.SimConfig` would then raise AttributeError
    module = importlib.import_module(f"shiryaev_qsd.{name}")
    assert getattr(shiryaev_qsd, name, module) is module
