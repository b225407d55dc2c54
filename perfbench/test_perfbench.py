"""Self-tests of the benchmark: its inputs, its branch coverage, its span
tree, and its agreement with BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import signal
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from shiryaev_qsd import eigen  # noqa: E402

import bench  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, branch, cycles, run_op  # noqa: E402


def take(workload, seed, n=3, stream=0):
    return list(islice(cycles(workload, seed, stream), n))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert take(workload, 7) == take(workload, 7)
    assert take(workload, 7) != take(workload, 8)
    assert take(workload, 7) != take(workload, 7, stream=1)


@pytest.mark.parametrize("workload", ["level-sweep", "route-table"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_cycle_covers_both_branches(workload, seed):
    for cycle in take(workload, seed):
        assert {branch(op.A) for op in cycle} == {"real", "imag"}
    # the branch names the spans use match the solved xi on both sides
    cycle = take(workload, seed, n=1)[0]
    for b in ("real", "imag"):
        A = next(op.A for op in cycle if branch(op.A) == b)
        kind = eigen.principal_lambda(A).xi.kind
        assert {"real": "real", "imaginary": "imag"}[kind] == b


def test_level_sweep_levels_are_new():
    levels = [op.A for cycle in take("level-sweep", 3, n=20) for op in cycle]
    assert len(set(levels)) == len(levels)


@pytest.mark.parametrize("workload,n_ops", [("level-sweep", 16), ("route-table", 2)])
def test_layer_spans_nest_under_an_operation_span(workload, n_ops):
    tr = Tracer()
    ctx = {}
    ops = take(workload, 5, n=1)[0][:n_ops]
    outcomes = [run_op(tr, op, ctx) for op in ops]
    assert all(o.ok for o in outcomes)
    by_id = {s.id: s for s in tr.spans}
    roots = [s for s in tr.spans if s.parent is None]
    assert [s.name for s in roots] == [f"op.{o.op.kind}" for o in outcomes]
    for s in tr.spans:
        if s.parent is None:
            continue
        parent = by_id[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
        assert by_id[s.op].parent is None and by_id[s.op].name.startswith("op.")
        assert s.name.split(".")[0] in {"eigen", "distribution", "moments",
                                         "laplace", "simulate", "specfun"}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {k: unit for k, (unit, _) in bench.PER_LAYER.items()})
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 43))
    pct, value = bench.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 76
    assert bench.tail(values[:20]) is None


def test_a_crashing_operation_makes_the_run_incorrect(monkeypatch):
    def crash(tr, op, ctx, errors):
        raise RuntimeError("boom")

    monkeypatch.setitem(workloads._RUN, "level", crash)
    ops = take("level-sweep", 5, n=1)[0][:2]
    outcomes = [run_op(NullTracer(), op, {}) for op in ops]
    assert not any(o.ok for o in outcomes)
    assert not bench.correct(outcomes)
    assert bench.answers("level-sweep", outcomes) == 0


def test_overhead_pairs_run_the_same_operation_both_ways():
    tr = Tracer()
    outcomes, overhead = bench.paired_loop(tr, "level-sweep", 5, seconds=0.0)
    assert len(outcomes) == 2 and outcomes[0].op == outcomes[1].op
    assert all(o.ok for o in outcomes)
    assert [s.name for s in tr.spans if s.parent is None] == ["op.level"]
    assert overhead > -1.0


def test_reference_samples_are_taken_inside_operations():
    with bench.SpeedSampler() as speed:
        outcomes = bench.closed_loop("level-sweep", 5, 0.0, speed)
    assert len(outcomes) == 16 and bench.correct(outcomes)
    assert len(speed.samples) >= 3 and speed.spent > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
