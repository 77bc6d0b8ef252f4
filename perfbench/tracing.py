"""Calls into the ringpatrol package, timed from outside it.

The workloads make every package call through an ``Api`` object.  ``Api``
calls the package directly and keeps only the coarse timings the end-to-end
metrics need.  ``TracedApi`` also records a span around every public call
and, through two proxies, around every method called on an algorithm object
and every ``decide``/``missing_edge`` call on a driver.  Spans stay in
memory (flat arrays, one slot per field) until the benchmark writes them
out, and the per-layer metrics are computed from them.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# labels of the per-layer metrics; an algorithm proxy times every method,
# so a method added later (a joint step, say) is counted without an edit here
ALGOS = ("pingpong", "kpingpong", "place-and-swipe", "spread", "fsm")
ADVERSARIES = ("gate", "trap")
DRIVER_METHODS = ("decide", "missing_edge")


class Api:
    """Untraced package calls.  Records, per pass, the rounds simulated and
    the seconds spent inside ``run``."""

    def __init__(self, rp):
        self.rp = rp
        self.reset()

    def reset(self):
        self.rounds = 0
        self.engine_s = 0.0

    def begin_op(self, op_id: int, name: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def algo(self, obj, label):
        return obj

    def driver(self, obj, label):
        return obj

    def run_idle(self, algorithm, driver, initial, horizon, n=None, replay=False):
        """``engine.run`` followed by ``idle_time``: one simulated run."""
        t0 = perf_counter()
        trace = self.rp.run(algorithm, driver, initial, horizon, n=n)
        self.engine_s += perf_counter() - t0
        self.rounds += len(trace.records)
        return trace, self.rp.idle_time(trace)

    def solve(self, inst, algorithm, n, k, initial, schedule=None):
        return self.rp.solve_worst_case(algorithm, n, k, initial, schedule=schedule)

    def offline(self, case, schedule, k, start, home):
        return self.rp.offline_opt_search(schedule, k, start, home)

    def classify(self, graph, k, memory_bits):
        return self.rp.classify(graph, k, memory_bits)

    def cross_validate(self, classification, spec, n, k):
        return self.rp.cross_validate(classification, spec, n, k)


class Tracer:
    """Span store: name, start, end, parent span and operation id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> float:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def __len__(self):
        return len(self.start)

    def name_of(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def write(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i in range(len(self)):
                out.write(
                    json.dumps(
                        [self.name_of(i), self.start[i], self.end[i],
                         self.parent[i], self.op[i]]
                    )
                    + "\n"
                )


def _timed(tracer: Tracer, name: str, fn):
    def call(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return call


class TimedProxy:
    """Stand-in for a package object: attribute reads go to the wrapped
    object; methods named in ``methods`` (all methods when None) come back
    wrapped in a span ``<prefix>.<method>``.  Wrappers are cached on the
    proxy, so each name is looked up once."""

    def __init__(self, target, tracer: Tracer, prefix: str, methods=None):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_prefix", prefix)
        object.__setattr__(self, "_methods", methods)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if callable(value) and not name.startswith("__") and (
            self._methods is None or name in self._methods
        ):
            value = _timed(self._tracer, f"{self._prefix}.{name}", value)
            object.__setattr__(self, name, value)
        return value


class TracedApi(Api):
    """Same calls as ``Api``, with spans around every layer boundary."""

    def reset(self):
        super().reset()
        self.tracer = Tracer()
        self.counts = defaultdict(int)  # exact counts and per-label sums
        self.solve_spans: dict[int, str] = {}  # solve span -> instance

    def begin_op(self, op_id: int, name: str) -> None:
        self.tracer.op_id = op_id
        self._op_span = self.tracer.open(f"op.{name}")

    def end_op(self) -> None:
        self.tracer.close(self._op_span)

    def algo(self, obj, label):
        return TimedProxy(obj, self.tracer, f"agents.{label}")

    def driver(self, obj, label):
        return TimedProxy(obj, self.tracer, label, DRIVER_METHODS)

    def run_idle(self, algorithm, driver, initial, horizon, n=None, replay=False):
        tr = self.tracer
        idx = tr.open("engine.run")
        try:
            trace = self.rp.run(algorithm, driver, initial, horizon, n=n)
        finally:
            run_s = tr.close(idx)
        idx = tr.open("engine.idle_time")
        try:
            report = self.rp.idle_time(trace)
        finally:
            tr.close(idx)
        rounds = len(trace.records)
        label = algorithm._prefix.split(".", 1)[1]
        self.counts[f"rounds.{label}"] += rounds
        self.counts[f"run_s.{label}"] += run_s
        if replay:
            self.counts["replay_s"] += run_s
        self.rounds += rounds
        self.engine_s += run_s
        return trace, report

    def solve(self, inst, algorithm, n, k, initial, schedule=None):
        idx = self.tracer.open("worstcase.solve_worst_case")
        self.solve_spans[idx] = inst
        try:
            res = self.rp.solve_worst_case(algorithm, n, k, initial, schedule=schedule)
        finally:
            self.counts[f"solve_s.{inst}"] += self.tracer.close(idx)
        self.counts[f"states.{inst}"] += res.states_explored
        self.counts[f"witness_len.{inst}"] += len(res.witness)
        return res

    def offline(self, case, schedule, k, start, home):
        idx = self.tracer.open("worstcase.offline_opt_search")
        try:
            return self.rp.offline_opt_search(schedule, k, start, home)
        finally:
            self.counts[f"offline_s.{case}"] += self.tracer.close(idx)

    def classify(self, graph, k, memory_bits):
        return _timed(self.tracer, "fsm.classify", self.rp.classify)(
            graph, k, memory_bits
        )

    def cross_validate(self, classification, spec, n, k):
        return _timed(self.tracer, "fsm.cross_validate", self.rp.cross_validate)(
            classification, spec, n, k
        )


def per_layer_metrics(api: TracedApi, instances) -> dict[str, float]:
    """Reduce one traced pass to the per-layer metrics, by module."""
    tr = api.tracer
    n_spans = len(tr)
    child_s = [0.0] * n_spans
    dur = [tr.end[i] - tr.start[i] for i in range(n_spans)]
    for i in range(n_spans):
        p = tr.parent[i]
        if p >= 0:
            child_s[p] += dur[i]

    by_name_s = defaultdict(float)
    by_name_n = defaultdict(int)
    engine_self = 0.0
    dry_steps = 0
    solve_calls = defaultdict(int)
    solve_call_s = defaultdict(float)
    for i in range(n_spans):
        name = tr.name_of(i)
        by_name_s[name] += dur[i]
        by_name_n[name] += 1
        if name == "engine.run":
            engine_self += dur[i] - child_s[i]
        elif name.startswith("agents."):
            p = tr.parent[i]
            if p >= 0:
                parent = tr.name_of(p)
                if parent.startswith("adversaries."):
                    dry_steps += 1
                elif parent == "worstcase.solve_worst_case":
                    inst = api.solve_spans[p]
                    solve_calls[inst] += 1
                    solve_call_s[inst] += dur[i]

    c = api.counts
    m: dict[str, float] = {
        "engine.runs": by_name_n["engine.run"],
        "engine.rounds": api.rounds,
        "engine.run_s": by_name_s["engine.run"],
        "engine.self_s": engine_self,
        "engine.idle_s": by_name_s["engine.idle_time"],
        "engine.replay_s": c["replay_s"],
    }
    for a in ALGOS:
        run_s = c[f"run_s.{a}"]
        m[f"engine.rounds_per_s.{a}"] = c[f"rounds.{a}"] / run_s if run_s else 0.0
    for a in ALGOS:
        prefix = f"agents.{a}."
        calls = sum(v for k, v in by_name_n.items() if k.startswith(prefix))
        busy = sum(v for k, v in by_name_s.items() if k.startswith(prefix))
        m[f"agents.calls.{a}"] = calls
        m[f"agents.calls.{a}.step"] = by_name_n[prefix + "step"]
        m[f"agents.calls.{a}.initial_memory"] = by_name_n[prefix + "initial_memory"]
        m[f"agents.step_s.{a}"] = busy
        m[f"agents.us_per_step.{a}"] = 1e6 * busy / calls if calls else 0.0
    for adv in ADVERSARIES:
        m[f"adversaries.decide_calls.{adv}"] = by_name_n[f"adversaries.{adv}.decide"]
        m[f"adversaries.decide_s.{adv}"] = by_name_s[f"adversaries.{adv}.decide"]
    m["adversaries.dry_steps"] = dry_steps
    for inst in instances:
        solve_s = c[f"solve_s.{inst}"]
        states = c[f"states.{inst}"]
        m[f"worstcase.solve_s.{inst}"] = solve_s
        m[f"worstcase.states.{inst}"] = states
        m[f"worstcase.states_per_s.{inst}"] = states / solve_s if solve_s else 0.0
        m[f"worstcase.step_calls.{inst}"] = solve_calls[inst]
        m[f"worstcase.step_s.{inst}"] = solve_call_s[inst]
        m[f"worstcase.self_s.{inst}"] = solve_s - solve_call_s[inst]
        m[f"worstcase.witness_len.{inst}"] = c[f"witness_len.{inst}"]
    m["worstcase.offline_s"] = by_name_s["worstcase.offline_opt_search"]
    m["worstcase.offline_s.wave"] = c["offline_s.wave"]
    m["worstcase.offline_s.periodic"] = c["offline_s.periodic"]
    m["fsm.classify_s"] = by_name_s["fsm.classify"]
    m["fsm.cross_validate_s"] = by_name_s["fsm.cross_validate"]
    m["fsm.machines"] = by_name_n["fsm.classify"]
    return m


def span_counts(tracer: Tracer) -> dict[str, int]:
    """Spans per name, for the report: includes methods the metric list
    does not name yet."""
    return dict(sorted(Counter(tracer.name_of(i) for i in range(len(tracer))).items()))
