"""patrolctl: run simulations, solve worst cases, analyze machines, verify bounds."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .adversaries import fixed_edge_schedule, gate_adversary, trap_adversary, wave_schedule
from .agents import (
    BUILTIN_FSM_NAMES,
    FsmAlgorithm,
    FsmSpec,
    KPingPong,
    PingPong,
    PlaceAndSwipe,
    PlacementInfeasibleError,
    TargetSelectionError,
    UniformSpread,
    fsm_of,
)
from .engine import idle_time, run, trace_to_csv
from .fsm import classify, cross_validate
from .ring import (
    ObliviousSchedule,
    consecutive_positions,
    make_random_schedule,
    random_positions,
    uniform_positions,
)
from .suites import CSV_HEADER, SUITES, run_suite
from .worstcase import BudgetExceeded, solve_worst_case

GLOBAL_ALGOS = ("pingpong", "kpingpong", "place-and-swipe", "spread")
ALGO_CHOICES = GLOBAL_ALGOS + BUILTIN_FSM_NAMES + ("consecutive-sweep",)


def _load_schedule(spec: str, n: int, rounds: int) -> ObliviousSchedule:
    try:
        if spec == "static":
            return ObliviousSchedule(n=n, period=1)
        if spec == "wave":
            return wave_schedule(n)
        if spec.startswith("fixed:"):
            return fixed_edge_schedule(n, int(spec.split(":", 1)[1]))
        if spec.startswith("random:"):
            return make_random_schedule(n, rounds, int(spec.split(":", 1)[1]))
        sched = ObliviousSchedule.from_json(Path(spec).read_text())
    except (ValueError, OSError) as exc:
        raise click.ClickException(f"cannot load schedule {spec!r}: {exc}")
    if sched.n != n:
        raise click.ClickException(f"schedule file is for n={sched.n}, run has n={n}")
    return sched


def _make_algorithm(name: str, schedule) -> object:
    if name == "pingpong":
        return PingPong()
    if name == "kpingpong":
        return KPingPong()
    if name == "spread":
        return UniformSpread()
    if name == "place-and-swipe":
        if schedule is None:
            raise click.ClickException(
                "place-and-swipe needs a schedule (it plans from the known future)"
            )
        return PlaceAndSwipe(schedule)
    if name == "consecutive-sweep":
        return FsmAlgorithm(fsm_of("clockwise"))
    return FsmAlgorithm(fsm_of(name))


def _initial_positions(placement: str, n: int, k: int) -> tuple[int, ...]:
    if placement == "uniform":
        return uniform_positions(n, k)
    if placement == "consecutive":
        return consecutive_positions(n, k)
    if placement.startswith("random:"):
        return random_positions(n, k, int(placement.split(":", 1)[1]))
    if placement.startswith("explicit:"):
        positions = tuple(int(x) for x in placement.split(":", 1)[1].split(","))
        if len(positions) != k:
            raise click.ClickException(f"expected {k} positions, got {positions}")
        return positions
    raise click.ClickException(f"unknown placement {placement!r}")


class _Commands(click.Group):
    """Every command reports a ValueError (bad ring, team, start or horizon),
    an exhausted solver state budget or a place-and-swipe epoch that cannot
    be planned as a one-line error with exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (
            ValueError, BudgetExceeded, PlacementInfeasibleError, TargetSelectionError
        ) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Commands)
def main():
    """Patrolling on dynamic rings: simulate, search worst cases, analyze, verify."""


@main.command()
@click.option("--algo", type=click.Choice(ALGO_CHOICES), required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option(
    "--adversary",
    type=click.Choice(["none", "gate", "trap"]),
    default="none",
    show_default=True,
)
@click.option("--schedule", "schedule_spec", default=None,
              help="JSON file path, or static | wave | fixed:E | random:SEED")
@click.option("--rounds", type=int, default=None, help="horizon (default 10*n)")
@click.option("--placement", default="uniform", show_default=True,
              help="uniform | consecutive | random:SEED | explicit:p0,p1,...")
@click.option("--r-s", "r_s", type=int, default=0, show_default=True,
              help="stabilization round for the stable idle figure")
@click.option("--assert-idle-max", type=int, default=None)
@click.option("--assert-idle-min", type=int, default=None)
@click.option("--claim-tag", default=None, help="label echoed into the report")
@click.option("--out-trace", type=click.Path(), default=None)
@click.option("--out-report", type=click.Path(), default=None)
def simulate(algo, n, k, adversary, schedule_spec, rounds, placement, r_s,
             assert_idle_max, assert_idle_min, claim_tag, out_trace, out_report):
    """Run one simulation; exit non-zero if a bound assertion fails."""
    rounds = rounds if rounds is not None else 10 * n
    schedule = _load_schedule(schedule_spec, n, rounds) if schedule_spec else None
    if adversary != "none" and schedule is not None:
        raise click.ClickException("give either an adversary or a schedule, not both")
    driver = schedule
    if adversary == "gate":
        driver = gate_adversary(n)
    elif adversary == "trap":
        driver = trap_adversary()
    algorithm = _make_algorithm(algo, schedule)
    initial = _initial_positions(placement, n, k)

    trace = run(algorithm, driver, initial, rounds, n=n)
    report = idle_time(trace)
    stable = report.stable_idle(r_s)
    payload = {
        "algo": algo,
        "n": n,
        "k": k,
        "adversary": adversary,
        "schedule": schedule_spec,
        "rounds": rounds,
        "placement": placement,
        "r_s": r_s,
        "idle": report.idle,
        "stable_idle": stable,
        "worst_gap_with_open": report.worst_gap(r_s),
        "per_node_max_gap": report.per_node_max_gap,
        "open_gap_flags": report.open_gap_flags,
        "claim_tag": claim_tag,
        "assertions": {},
    }
    ok = True
    if assert_idle_max is not None:
        holds = report.worst_gap(r_s) <= assert_idle_max
        payload["assertions"]["idle_max"] = {"bound": assert_idle_max, "holds": holds}
        ok = ok and holds
    if assert_idle_min is not None:
        holds = stable >= assert_idle_min
        payload["assertions"]["idle_min"] = {"bound": assert_idle_min, "holds": holds}
        ok = ok and holds
    if out_trace:
        Path(out_trace).write_text(trace_to_csv(trace))
    text = json.dumps(payload, indent=2)
    if out_report:
        Path(out_report).write_text(text + "\n")
    click.echo(text)
    if not ok:
        sys.exit(1)


@main.command()
@click.option("--algo", type=click.Choice(ALGO_CHOICES), required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--placement", default="uniform", show_default=True)
@click.option("--schedule", "schedule_spec", default=None,
              help="restrict the scheduler to a periodic schedule "
                   "(static | wave | fixed:E | file)")
@click.option("--budget", type=int, default=None, help="state budget override")
@click.option("--out", type=click.Path(), default=None)
def worstcase(algo, n, k, placement, schedule_spec, budget, out):
    """Exact worst-case idle over all schedulers (or a restricted one)."""
    restriction = _load_schedule(schedule_spec, n, 10 * n) if schedule_spec else None
    algorithm = _make_algorithm(algo, restriction)
    initial = _initial_positions(placement, n, k)
    result = solve_worst_case(algorithm, n, k, initial, schedule=restriction, budget=budget)

    replay_note = "witness demonstrates a starvation loop"
    if not result.unbounded:
        sched = result.witness_schedule(n)
        trace = run(algorithm, sched, initial, len(result.witness), n=n)
        replayed = idle_time(trace).idle
        replay_note = (
            f"witness replay reproduces worst idle exactly ({replayed})"
            if replayed == result.worst_idle
            else f"REPLAY MISMATCH: witness gives {replayed}, solver {result.worst_idle}"
        )
    text = result.to_json()
    if out:
        Path(out).write_text(text + "\n")
    click.echo(text)
    click.echo(f"replay: {replay_note}", err=True)
    if replay_note.startswith("REPLAY MISMATCH"):
        sys.exit(1)


@main.command()
@click.argument("machine")
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--cross-validate", "cross_n", type=int, default=None,
              help="confirm the verdict with the game solver at this ring size")
@click.option("--out", type=click.Path(), default=None)
def analyze(machine, k, cross_n, out):
    """Classify a local-visibility machine (built-in name or JSON file)."""
    try:
        if machine in BUILTIN_FSM_NAMES:
            spec = fsm_of(machine)
        else:
            spec = FsmSpec.from_json(Path(machine).read_text())
    except OSError as exc:
        raise click.ClickException(str(exc))
    classification = classify(spec, k, max(1, (spec.states - 1).bit_length()))
    text = classification.to_json()
    if out:
        Path(out).write_text(text + "\n")
    click.echo(text)
    if cross_n is not None:
        check = cross_validate(classification, spec, cross_n, k)
        click.echo(
            f"cross-validation at n={cross_n}: "
            f"{'agree' if check.passed else 'DISAGREE'} ({check.detail})",
            err=True,
        )
        if not check.passed:
            sys.exit(1)


@main.command()
@click.option("--suite", type=click.Choice(sorted(SUITES)), required=True)
@click.option("--out", type=click.Path(), default=None)
def verify(suite, out):
    """Run a verification suite; non-zero exit if any row fails."""
    rows = run_suite(suite)
    lines = [CSV_HEADER] + [r.as_csv() for r in rows]
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    click.echo(text, nl=False)
    failed = [r for r in rows if not r.passed]
    click.echo(
        f"{len(rows) - len(failed)}/{len(rows)} rows pass", err=True
    )
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
