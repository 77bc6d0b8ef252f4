"""Tests of the benchmark itself: proxies, metric names and seeding.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import ringpatrol as rp  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Thing:
    n = 7

    def __init__(self):
        self.calls = []

    @property
    def doubled(self):
        return 2 * self.n

    def step(self, x):
        self.calls.append(x)
        return x + 1

    def joint_step(self, xs):
        return [x + 1 for x in xs]

    def decide(self, r):
        return self.step(r)


def test_proxy_forwards_attributes_and_times_every_method():
    tracer = tracing.Tracer()
    thing = Thing()
    proxy = tracing.TimedProxy(thing, tracer, "agents.thing")
    assert proxy.n == 7
    assert proxy.doubled == 14
    assert getattr(proxy, "visibility", "global") == "global"
    assert not hasattr(proxy, "missing_edge")
    with pytest.raises(AttributeError):
        proxy.nothing_here
    assert proxy.step(1) == 2
    assert proxy.joint_step([1, 2]) == [2, 3]  # a method added later is timed too
    assert thing.calls == [1]
    names = [tracer.name_of(i) for i in range(len(tracer))]
    assert names == ["agents.thing.step", "agents.thing.joint_step"]
    assert all(tracer.end[i] >= tracer.start[i] for i in range(len(tracer)))


def test_driver_proxy_times_only_driver_methods_and_nests_spans():
    tracer = tracing.Tracer()
    inner = tracing.TimedProxy(Thing(), tracer, "agents.thing")
    outer = Thing()
    outer.step = inner.step  # the driver dry-runs the algorithm it was bound to
    proxy = tracing.TimedProxy(outer, tracer, "adversaries.thing", tracing.DRIVER_METHODS)
    assert proxy.decide(3) == 4
    assert proxy.step(5) == 6  # not a driver method: only the inner span
    names = [tracer.name_of(i) for i in range(len(tracer))]
    assert names == ["adversaries.thing.decide", "agents.thing.step", "agents.thing.step"]
    assert list(tracer.parent) == [-1, 0, -1]


def test_traced_run_matches_untraced_run():
    sched = rp.make_random_schedule(12, 240, 3)
    plain, traced = tracing.Api(rp), tracing.TracedApi(rp)
    outputs = []
    for api in (plain, traced):
        algo = api.algo(rp.PlaceAndSwipe(sched), "place-and-swipe")
        trace, report = api.run_idle(algo, api.driver(sched, "ring.schedule"),
                                     rp.uniform_positions(12, 3), 168)
        outputs.append((trace.records, report.per_node_max_gap))
    assert outputs[0] == outputs[1]
    m = tracing.per_layer_metrics(traced, workloads.SOLVE_INSTANCES)
    assert m["engine.rounds"] == 168
    assert m["agents.calls.place-and-swipe.step"] == 3 * 168
    assert 0 < m["engine.self_s"] < m["engine.run_s"]


def test_metric_names_match_benchmark_json():
    empty = tracing.TracedApi(rp)
    layers = tracing.per_layer_metrics(empty, workloads.SOLVE_INSTANCES)
    fake = run.Pass(
        wall_s=0.6, attempted=3, failed=0, digest="", rounds=10, engine_s=0.5,
        op_s=[0.1, 0.2, 0.3], op_scale=[0.5, 0.5, 0.5], largest_at=[2],
        setup_s=0.01, setup_scale=0.5, last_ref=0.01,
    )
    fake.layers = layers
    e2e = run.end_to_end([fake, fake])
    assert e2e["wall_s"][0] == pytest.approx(0.3)
    assert e2e["rounds_per_s"][0] == pytest.approx(10 / 0.5 / 0.5)
    assert e2e["largest_op_s"][0] == 0.15
    assert run.end_to_end([fake], scaled=False)["largest_op_s"][0] == 0.3
    per_layer = run.per_layer([fake], [fake])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(e2e)
    assert [m["name"] for m in SPEC["per_layer"]] == list(per_layer)
    for section, produced in (("end_to_end", e2e), ("per_layer", per_layer)):
        for m in SPEC[section]:
            assert m["unit"] == produced[m["name"]][1], m["name"]
            # rates are better higher; times, sizes and counts of work lower
            want = "higher" if m["unit"] == "1/s" else "lower"
            assert m["better"] == want, m["name"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.LARGEST_OP) == set(workloads.WORKLOADS)


def _outputs(ops, api, names):
    return {op.name: op.check(op.execute(api)) for op in ops if op.name in names}


def test_seed_changes_inputs_but_no_frozen_solver_value():
    api = tracing.Api(rp)
    batch = [workloads.build("sim-batch", rp, seed)[:10] for seed in (0, 1)]
    first = [[op.check(op.execute(api)) for op in ops] for ops in batch]
    assert all(ok for outs in first for ok, _ in outs)
    assert first[0] != first[1]

    fixed = {"solve/pp-n12", "solve/cw-k3-n8-static", "solve/kpp-k4-n24-wave",
             "offline/wave-n10", "offline/wave-n20", "machine/stay"}
    seeded = {"offline/periodic-0", "offline/periodic-1", "machine/random-0"}
    runs = [_outputs(workloads.build("solve", rp, seed), api, fixed | seeded)
            for seed in (0, 1)]
    for outs in runs:
        assert set(outs) == fixed | seeded
        assert all(ok for ok, _ in outs.values())
    assert all(runs[0][name] == runs[1][name] for name in fixed)
    assert any(runs[0][name] != runs[1][name] for name in seeded)


def test_gate_fails_on_wrong_value():
    (op,) = [op for op in workloads.build("solve", rp, 0) if op.name == "offline/wave-n10"]
    ok, out = op.check(op.execute(tracing.Api(rp)))
    assert ok and out["value"] == workloads.WAVE_OPTIMUM[10]
    assert not op.check(out["value"] + 1)[0]

