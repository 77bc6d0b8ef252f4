"""Benchmark driver for ringpatrol.

    python3 perfbench/run.py --workload sim-batch --seed 0 --seconds 50 --trace 0

Runs one workload in this process, closed loop: each operation starts when
the previous one has returned, with no threads.  It runs whole passes over
the workload's operations until ``--seconds`` have passed, checks every
output, and prints a report followed by one JSON line with the metrics.
Every pass starts with a set-up (package import plus input generation), so
set-up samples are spread over the run and no package state outlives a
pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (medians over
the traced passes), the tracing overhead, and writes the spans of the first
traced pass to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = HERE / "digests.json"  # output digest of each workload at the default seed
# The machine's speed drifts by tens of percent over seconds to minutes.  A
# fixed reference kernel, timed between operations, tracks that drift, and
# each end-to-end time is scaled to the speed at which the kernel takes
# REF_S seconds (about its median on the 2-core VM the bounds were set on),
# using the two kernel samples around the timed work.
REF_S = 0.012
REF_EVERY_S = 0.5  # operation time between two reference samples


@dataclass
class Pass:
    wall_s: float  # time inside the operations, checks excluded
    attempted: int
    failed: int
    digest: str
    rounds: int
    engine_s: float
    op_s: list  # latency of each operation
    op_scale: list  # each latency's factor to the reference speed
    largest_at: list  # indices of the workload's largest operation
    setup_s: float  # the set-up before this pass
    setup_scale: float
    last_ref: float  # the pass's last reference sample
    failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def fresh_import():
    """Import ringpatrol from this checkout's ``src``, dropping any earlier
    import so that each set-up pays the full import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "ringpatrol"]:
        del sys.modules[name]
    rp = importlib.import_module("ringpatrol")
    if not Path(rp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ringpatrol imported from {rp.__file__}, not {SRC}")
    return rp


def reference_kernel() -> float:
    """Seconds for a fixed loop of tuple and dict work that does not touch
    ringpatrol, so that its time moves only with the machine's speed."""
    t0 = perf_counter()
    counts = {}
    for i in range(40_000):
        key = (i & 63, (i * 7) & 63)
        counts[key] = counts.get(key, 0) + 1
    return perf_counter() - t0


def run_pass(workload: str, ops, api, setup_s: float, ref_before_setup: float) -> Pass:
    api.reset()
    refs = [reference_kernel()]
    op_ref = []  # the reference sample taken last before each operation
    since_ref = 0.0
    largest = workloads.LARGEST_OP[workload]
    digest = hashlib.sha256()
    wall = 0.0
    failures = []
    op_s = []
    for i, op in enumerate(ops):
        op_ref.append(len(refs) - 1)
        api.begin_op(i, op.name)
        t0 = perf_counter()
        raw = op.execute(api)
        dt = perf_counter() - t0
        api.end_op()
        wall += dt
        since_ref += dt
        op_s.append(dt)
        ok, output = op.check(raw)
        if not ok:
            failures.append(json.dumps(output, sort_keys=True))
        digest.update(json.dumps(output, sort_keys=True).encode() + b"\n")
        if since_ref >= REF_EVERY_S:
            refs.append(reference_kernel())
            since_ref = 0.0
    refs.append(reference_kernel())
    return Pass(
        wall_s=wall,
        attempted=len(ops),
        failed=len(failures),
        digest=digest.hexdigest(),
        rounds=api.rounds,
        engine_s=api.engine_s,
        op_s=op_s,
        # samples fall between operations, so the one after op i is op_ref[i] + 1
        op_scale=[2 * REF_S / (refs[j] + refs[j + 1]) for j in op_ref],
        largest_at=[i for i, op in enumerate(ops) if op.name == largest],
        setup_s=setup_s,
        setup_scale=2 * REF_S / (ref_before_setup + refs[0]),
        last_ref=refs[-1],
        failures=failures,
    )


def end_to_end(passes, scaled=True) -> dict:
    """Medians over the passes, with every time scaled to the reference
    speed (``scaled``) or as measured."""
    times = [
        [s * f for s, f in zip(p.op_s, p.op_scale)] if scaled else p.op_s
        for p in passes
    ]
    walls = [sum(t) for t in times]
    ops_ms = [1000 * s for t in times for s in t]
    deciles = statistics.quantiles(ops_ms, n=10)
    return {
        "setup_s": (
            statistics.median(
                p.setup_s * (p.setup_scale if scaled else 1.0) for p in passes
            ),
            "s",
        ),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        # the engine's time takes the pass's time-weighted scale
        "rounds_per_s": (
            statistics.median(
                p.rounds / p.engine_s * p.wall_s / w for p, w in zip(passes, walls)
            ),
            "1/s",
        ),
        "op_ms_p50": (statistics.median(ops_ms), "ms"),
        "op_ms_p90": (deciles[8], "ms"),
        "largest_op_s": (
            statistics.median(t[i] for p, t in zip(passes, times) for i in p.largest_at),
            "s",
        ),
    }


def per_layer(untraced, traced) -> dict:
    keys = traced[0].layers
    metrics = {
        k: (statistics.median(p.layers[k] for p in traced), _unit(k)) for k in keys
    }
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in untraced),
        "s",
    )
    return metrics


def _unit(name: str) -> str:
    kind = name.split(".")[1]
    if kind.endswith("per_s"):
        return "1/s"
    if kind.endswith("_s"):
        return "s"
    if kind == "us_per_step":
        return "us"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ringpatrol" / "__init__.py").is_file():
        print(f"error: no ringpatrol package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_at_start = os.getloadavg()[0]

    def set_up():
        t0 = perf_counter()
        rp = fresh_import()
        ops = workloads.build(args.workload, rp, args.seed)
        return rp, ops, perf_counter() - t0

    traced_api = None
    untraced, traced = [], []
    last_ref = reference_kernel()
    first_spans = None
    call_counts = {}
    instances = list(workloads.SOLVE_INSTANCES)
    deadline = perf_counter() + args.seconds
    while True:
        rp, ops, setup_s = set_up()
        untraced.append(run_pass(args.workload, ops, tracing.Api(rp), setup_s, last_ref))
        last_ref = untraced[-1].last_ref
        if args.trace:
            rp, ops, setup_s = set_up()
            traced_api = tracing.TracedApi(rp)
            p = run_pass(args.workload, ops, traced_api, setup_s, last_ref)
            last_ref = p.last_ref
            p.layers = tracing.per_layer_metrics(traced_api, instances)
            if first_spans is None:
                first_spans = traced_api.tracer
                call_counts = tracing.span_counts(traced_api.tracer)
            traced.append(p)
        if perf_counter() >= deadline:
            break

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    digest = untraced[0].digest
    notes = []
    if len(digests) != 1:
        notes.append("passes produced different outputs")
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text()).get(args.workload)
        if recorded != digest:
            notes.append(f"digest {digest} differs from recorded {recorded}")
    correct = failed == 0 and not notes

    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced)

    n_ops = sum(len(p.op_s) for p in untraced)
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"loadavg_at_start={load_at_start:.2f} shape=closed-loop,1-process"
    )
    print(
        f"# samples: set-ups={len(passes)} untraced_passes={len(untraced)} "
        f"traced_passes={len(traced)} ops_per_pass={len(ops)} "
        f"ops_timed={n_ops} digest={digest}"
    )
    print(f"fail_ratio {failed / attempted:.6g} ratio (ops={attempted}, failed={failed})")
    if not args.trace and args.workload == "solve":
        print(f"largest_solve_s {metrics['largest_op_s'][0]:.6g} s (pp-n32)")
    elif not args.trace:
        # an operation of sim-batch is one run plus its idle report
        print(f"run_ms_p50 {metrics['op_ms_p50'][0]:.6g} ms (= op_ms_p50)")
        print(f"run_ms_p90 {metrics['op_ms_p90'][0]:.6g} ms (= op_ms_p90)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        # the same metrics as measured, before scaling to the reference speed
        for name, (value, unit) in end_to_end(untraced, scaled=False).items():
            print(f"# raw {name} {value:.6g} {unit}")
        scales = [f for p in untraced for f in p.op_scale]
        print(f"# speed scale median {statistics.median(scales):.4g} "
              f"min {min(scales):.4g} max {max(scales):.4g}")
    for name, count in call_counts.items():
        print(f"# calls {name} {count}")
    if traced_api is not None:
        run_s = {a: traced_api.counts[f"run_s.{a}"] for a in tracing.ALGOS}
        total = sum(run_s.values())
        for a, s in run_s.items():
            print(f"# run_s share {a} {s / total if total else 0.0:.3f}")
    for line in sorted({f for p in passes for f in p.failures})[:10]:
        print(f"# FAILED {line}")
    for note in notes:
        print(f"# {note}")
    if first_spans is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        first_spans.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
