import ast
import copy
import inspect
import itertools
import json
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ringpatrol
from ringpatrol import adversaries, agents, cli, engine, worstcase
from ringpatrol.adversaries import wave_schedule
from ringpatrol.agents import BUILTIN_FSM_NAMES
from ringpatrol.cli import ALGO_CHOICES, main


@pytest.fixture
def runner():
    return CliRunner()


def test_simulate_gate_meets_lower_bound(runner):
    result = runner.invoke(main, [
        "simulate", "--algo", "pingpong", "--n", "10", "--k", "2",
        "--adversary", "gate", "--rounds", "300", "--assert-idle-min", "14",
        "--claim-tag", "gate-lower",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["assertions"]["idle_min"]["holds"]
    assert payload["claim_tag"] == "gate-lower"


def test_simulate_static_kpingpong_upper(runner):
    result = runner.invoke(main, [
        "simulate", "--algo", "kpingpong", "--n", "12", "--k", "4",
        "--adversary", "none", "--rounds", "120", "--assert-idle-max", "4",
    ])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("r_s", ["1000", "10", "-50"])
def test_simulate_rejects_a_stabilization_round_outside_the_trace(runner, r_s):
    # a round outside the run would read a gap of 0 (or one counted from
    # before the run) and let the idle assertions pass
    result = runner.invoke(main, [
        "simulate", "--algo", "pingpong", "--n", "8", "--k", "2", "--rounds", "10",
        "--r-s", r_s, "--assert-idle-max", "0",
    ])
    assert result.exit_code == 1
    assert result.output == (
        f"Error: r_s must be a round of the trace (0 <= r_s < 10), got {r_s}\n"
    )


def test_simulate_place_and_swipe_with_wave_file(runner, tmp_path):
    sched = tmp_path / "wave12.json"
    sched.write_text(wave_schedule(12).to_json())
    result = runner.invoke(main, [
        "simulate", "--algo", "place-and-swipe", "--n", "12", "--k", "3",
        "--schedule", str(sched), "--rounds", "240", "--assert-idle-max", "12",
    ])
    assert result.exit_code == 0, result.output


def test_simulate_failed_assertion_exits_nonzero(runner):
    result = runner.invoke(main, [
        "simulate", "--algo", "pingpong", "--n", "10", "--k", "2",
        "--adversary", "gate", "--rounds", "300", "--assert-idle-max", "5",
    ])
    assert result.exit_code == 1


def test_simulate_writes_artifacts(runner, tmp_path):
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.json"
    result = runner.invoke(main, [
        "simulate", "--algo", "clockwise", "--n", "6", "--k", "1",
        "--rounds", "12", "--placement", "explicit:2",
        "--out-trace", str(trace), "--out-report", str(report),
    ])
    assert result.exit_code == 0
    assert trace.read_text().startswith("round,missing_edge,pos_0")
    assert json.loads(report.read_text())["idle"] == 6


def test_simulate_runs_are_byte_identical(runner):
    args = [
        "simulate", "--algo", "place-and-swipe", "--n", "10", "--k", "2",
        "--schedule", "random:7", "--rounds", "200",
    ]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_worstcase_pingpong_bracket(runner):
    result = runner.invoke(main, [
        "worstcase", "--algo", "pingpong", "--n", "8", "--k", "2",
        "--placement", "uniform",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output[: result.output.index("replay:")])
    assert 10 <= payload["worst_idle"] <= 14
    assert "reproduces worst idle exactly" in result.output


def test_worstcase_single_clockwise_unbounded(runner):
    result = runner.invoke(main, [
        "worstcase", "--algo", "clockwise", "--n", "6", "--k", "1",
    ])
    assert result.exit_code == 0, result.output
    assert '"worst_idle": "unbounded"' in result.output
    assert "replay: witness demonstrates a starvation loop" in result.output


def test_worstcase_replays_a_starvation_loop(runner, monkeypatch):
    # a solver that claims node 3 starves while the lone clockwise agent
    # walks the static ring through it: the replay must catch the claim
    def solve(algorithm, n, k, initial, schedule=None, budget=None):
        return worstcase.GameSolverResult(
            worst_idle=worstcase.UNBOUNDED, target_node=3, witness=[None] * 6,
            states_explored=6, cycle_start=2,
        )

    monkeypatch.setattr(cli, "solve_worst_case", solve)
    result = runner.invoke(main, [
        "worstcase", "--algo", "clockwise", "--n", "6", "--k", "1",
    ])
    assert result.exit_code == 1
    assert result.output.splitlines()[-1] == (
        "replay: REPLAY MISMATCH: the loop visits target node 3"
    )


def test_worstcase_consecutive_sweep_static(runner):
    result = runner.invoke(main, [
        "worstcase", "--algo", "consecutive-sweep", "--n", "8", "--k", "3",
        "--placement", "consecutive", "--schedule", "static",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output[: result.output.index("replay:")])
    assert payload["worst_idle"] >= 8 - 3


def test_analyze_builtin_machines(runner):
    result = runner.invoke(main, ["analyze", "reverse-on-block", "--k", "2"])
    assert result.exit_code == 0
    assert '"verdict": "LOWER_BOUND"' in result.output

    result = runner.invoke(main, ["analyze", "oscillator", "--k", "2"])
    assert result.exit_code == 0
    assert '"verdict": "NOT_PATROLLING"' in result.output


def test_analyze_cross_validation(runner):
    result = runner.invoke(main, [
        "analyze", "oscillator", "--k", "2", "--cross-validate", "8",
    ])
    assert result.exit_code == 0, result.output
    assert "agree" in result.output


def test_cross_validation_on_a_ring_below_three_nodes_is_a_one_line_error(runner):
    # the placement once took nodes mod 0 and raised ZeroDivisionError
    result = runner.invoke(main, ["analyze", "stay", "--k", "3", "--cross-validate", "0"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.endswith("\nError: ring needs at least 3 nodes, got n=0\n")


def test_analyze_rejects_partial_table(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "states": 2, "initial": 0,
        "arcs": [{"from": 0, "snapshot": "both", "to": 1, "move": 1}],
    }))
    result = runner.invoke(main, ["analyze", str(bad)])
    assert result.exit_code != 0
    assert "non-total" in result.output


def test_verify_obs3_suite_passes(runner, tmp_path):
    out = tmp_path / "obs3.csv"
    result = runner.invoke(main, ["verify", "--suite", "obs3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("suite,claim")
    assert len(lines) == 3
    assert all(",pass," in line for line in lines[1:])


def test_verify_wave_suite_reports_known_gap(runner):
    # the wave floor rows fail by exactly one round; see the ledger
    result = runner.invoke(main, ["verify", "--suite", "wave"])
    assert result.exit_code == 1
    assert "9,>=,10,fail" in result.output
    assert "12,>=,13,fail" in result.output


def test_verify_rejects_unknown_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "nope"])
    assert result.exit_code != 0


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["simulate", "--algo", "pingpong", "--n", "6", "--k", "2",
                      "--rounds", "0"], id="simulate-zero-rounds"),
        pytest.param(["simulate", "--algo", "pingpong", "--n", "6", "--k", "3"],
                     id="simulate-pingpong-k3"),
        pytest.param(["worstcase", "--algo", "pingpong", "--n", "6", "--k", "3"],
                     id="worstcase-pingpong-k3"),
        pytest.param(["simulate", "--algo", "pingpong", "--n", "2", "--k", "2"],
                     id="simulate-n2"),
        pytest.param(["worstcase", "--algo", "pingpong", "--n", "2", "--k", "2"],
                     id="worstcase-n2"),
        pytest.param(["simulate", "--algo", "pingpong", "--n", "6", "--k", "2",
                      "--placement", "explicit:0,0"], id="simulate-co-located"),
        pytest.param(["simulate", "--algo", "pingpong", "--n", "6", "--k", "2",
                      "--placement", "explicit:0,9"], id="simulate-out-of-range"),
        pytest.param(["worstcase", "--algo", "pingpong", "--n", "6", "--k", "2",
                      "--placement", "explicit:0,0"], id="worstcase-co-located"),
        pytest.param(["worstcase", "--algo", "pingpong", "--n", "6", "--k", "2",
                      "--placement", "explicit:0,9"], id="worstcase-out-of-range"),
        pytest.param(["simulate", "--algo", "clockwise", "--n", "8", "--k", "0"],
                     id="simulate-no-agents"),
        pytest.param(["worstcase", "--algo", "clockwise", "--n", "8", "--k", "0"],
                     id="worstcase-no-agents"),
        pytest.param(["analyze", "stay", "--k", "0", "--cross-validate", "8"],
                     id="analyze-no-agents"),
        pytest.param(["worstcase", "--algo", "pingpong", "--n", "6", "--k", "2",
                      "--budget", "0"], id="worstcase-zero-budget"),
        pytest.param(["worstcase", "--algo", "pingpong", "--n", "6", "--k", "2",
                      "--schedule", "no-such-schedule.json"],
                     id="worstcase-unknown-schedule"),
    ],
)
def test_bad_arguments_are_a_one_line_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.startswith("Error: ")
    assert result.output.count("\n") == 1


@pytest.mark.parametrize("n", (-1, 0, 1, 2))
@pytest.mark.parametrize("placement", ("uniform", "consecutive", "random:3", "explicit:0,1"))
@pytest.mark.parametrize(
    "command",
    [["simulate"], ["worstcase"], ["simulate", "--adversary", "gate"]],
    ids=["simulate", "worstcase", "simulate-gate"],
)
def test_small_rings_fail_before_placement(runner, command, placement, n):
    # placements and the gate take nodes mod n or sample from range(n), so
    # the ring is checked before any of them runs
    result = runner.invoke(main, [
        *command, "--algo", "pingpong", "--n", str(n), "--k", "2",
        "--placement", placement,
    ])
    assert result.exit_code == 1
    assert result.output == f"Error: ring needs at least 3 nodes, got n={n}\n"


def test_random_placement_of_more_agents_than_nodes_names_k_and_n(runner):
    # random.sample said "Sample larger than population or is negative"
    result = runner.invoke(main, [
        "simulate", "--algo", "clockwise", "--n", "5", "--k", "7", "--placement", "random:3",
    ])
    assert result.exit_code == 1
    assert result.output == "Error: cannot place k=7 agents on distinct nodes of n=5\n"


def test_worstcase_refuses_place_and_swipe(runner):
    result = runner.invoke(main, [
        "worstcase", "--algo", "place-and-swipe", "--n", "8", "--k", "2",
        "--schedule", "fixed:3",
    ])
    assert result.exit_code == 1
    assert result.output == (
        "Error: place-and-swipe plans from the future schedule; the adaptive-game "
        "solver applies to schedule-oblivious algorithms\n"
    )


def test_unplaceable_epoch_is_a_one_line_error(runner, monkeypatch):
    # every epoch of these runs lands on some rotation; with only the first
    # fitting rotation to try, rounds [38, 40) give no agent-to-target
    # assignment that arrives in time
    select_targets = agents.select_targets
    monkeypatch.setattr(
        agents, "select_targets", lambda *args: itertools.islice(select_targets(*args), 1)
    )
    result = runner.invoke(main, [
        "simulate", "--algo", "place-and-swipe", "--n", "10", "--k", "6",
        "--schedule", "random:28", "--placement", "random:28", "--rounds", "60",
    ])
    assert result.exit_code == 1
    assert result.output == (
        "Error: no placement plan reaches (0, 2, 4, 6, 8, 9) from "
        "(3, 5, 1, 2, 9, 7) in rounds [38, 40)\n"
    )


def test_exhausted_budget_is_a_one_line_error(runner):
    result = runner.invoke(main, [
        "worstcase", "--algo", "pingpong", "--n", "10", "--k", "2", "--budget", "10",
    ])
    assert result.exit_code == 1
    assert result.output.startswith("Error: game graph exceeds state budget 10: ")
    assert "states discovered" in result.output
    assert result.output.count("\n") == 1


def test_cross_validation_budget_is_a_one_line_error(runner, monkeypatch):
    # below the 4 states of the starvation walk that settles oscillator, so
    # the solve falls back to the graph and runs out of budget there
    monkeypatch.setattr(worstcase, "DEFAULT_STATE_BUDGET", 3)
    result = runner.invoke(main, [
        "analyze", "oscillator", "--k", "2", "--cross-validate", "8",
    ])
    assert result.exit_code == 1
    assert result.output.splitlines()[-1].startswith(
        "Error: game graph exceeds state budget 3: "
    )
    assert "Traceback" not in result.output


BAD_FILES = {
    "entry-without-edge": json.dumps({"n": 6, "period": 4, "missing": [{"round": 0}]}),
    "truncated": '{"n": 6, "period": 4, "missing": [{"round": 0, "ed',
    "absent": None,
}


@pytest.mark.parametrize("bad", sorted(BAD_FILES))
@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--algo", "pingpong", "--n", "6", "--k", "2", "--schedule"],
        ["worstcase", "--algo", "pingpong", "--n", "6", "--k", "2", "--schedule"],
        ["analyze"],
    ],
    ids=["simulate", "worstcase", "analyze"],
)
def test_bad_input_file_is_a_one_line_error(runner, tmp_path, command, bad):
    path = tmp_path / "input.json"
    if BAD_FILES[bad] is not None:
        path.write_text(BAD_FILES[bad])
    result = runner.invoke(main, command + [str(path)])
    assert result.exit_code == 1
    assert "Error: " in result.output


_TEAM = ["--algo", "pingpong", "--n", "6", "--k", "2"]
OUTPUT_OPTIONS = {
    "simulate --out-trace": ["simulate", *_TEAM, "--out-trace"],
    "simulate --out-report": ["simulate", *_TEAM, "--out-report"],
    "worstcase --out": ["worstcase", *_TEAM, "--out"],
    "analyze --out": ["analyze", "stay", "--out"],
    "verify --out": ["verify", "--suite", "obs3", "--out"],
}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("option", sorted(OUTPUT_OPTIONS))
def test_unwritable_output_path_is_a_one_line_error(runner, tmp_path, option, where):
    path = tmp_path / "no-such-dir" / "out.txt" if where == "missing-directory" else tmp_path
    result = runner.invoke(main, OUTPUT_OPTIONS[option] + [str(path)])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    # every command writes its files before it prints anything
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1
    assert "Traceback" not in result.output


# --- argument fuzz: any argument list ends in a clean exit ------------------

def _counts(low, high):
    return st.integers(low, high).map(str)


_OUT_PATHS = st.sampled_from(("{tmp}/out.txt", "{tmp}/no-such-dir/out.txt", "{tmp}"))


@st.composite
def patrolctl_args(draw):
    """An argument list for ``simulate``, ``worstcase`` or ``analyze``,
    valid or not.  Rings, teams and budgets stay small, so every solve ends
    fast: ``analyze --cross-validate`` has no state budget.  An output path
    is a file, a file in a missing directory or a directory, all under
    ``{tmp}``, which the test replaces with its own directory."""
    command = draw(st.sampled_from(("simulate", "worstcase", "analyze")))
    if command == "analyze":
        args = [command, draw(st.sampled_from(BUILTIN_FSM_NAMES + ("no-such.json",)))]
        args += ["--k", draw(_counts(-1, 3))]
        if draw(st.booleans()):
            args += ["--cross-validate", draw(_counts(-1, 6))]
        if draw(st.booleans()):
            args += ["--out", draw(_OUT_PATHS)]
        return args
    args = [
        command,
        "--algo", draw(st.sampled_from(ALGO_CHOICES)),
        "--n", draw(_counts(-1, 8)),
        "--k", draw(_counts(-1, 4)),
    ]
    options = {
        "--placement": st.sampled_from(
            ("uniform", "consecutive", "random:3", "explicit:0,2", "explicit:x", "ring")
        ),
        "--schedule": st.sampled_from(
            ("static", "wave", "fixed:1", "fixed:-3", "random:5", "no-such.json")
        ),
    }
    if command == "simulate":
        options.update({
            "--adversary": st.sampled_from(("none", "gate", "trap")),
            "--rounds": _counts(-1, 40),
            "--r-s": _counts(-1, 10),
            "--assert-idle-max": _counts(-1, 20),
            "--assert-idle-min": _counts(-1, 20),
            "--out-trace": _OUT_PATHS,
            "--out-report": _OUT_PATHS,
        })
    else:
        args += ["--budget", draw(_counts(-1, 400))]
        options["--out"] = _OUT_PATHS
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        args += [name, draw(options[name])]
    return args


@example(["analyze", "stay", "--k", "3", "--cross-validate", "0"])
@settings(
    max_examples=150, deadline=None,
    # the examples share tmp_path; each one only writes its output files there
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(args=patrolctl_args())
def test_any_argument_list_ends_in_a_clean_exit(tmp_path, args):
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert result.exit_code in (0, 1, 2), args
    assert "Traceback" not in result.output, args


# --- file fuzz: any mutated schedule or machine file ends in a clean exit ---

_JUNK = st.sampled_from([
    -1, 0, 5, 6, 7, 10**12, -(10**12), 10**400, 2.5, 3.0, float("inf"), True, False,
    None, "", "4", "both", [], [0, [1]], {"round": {"edge": []}},
]).map(copy.deepcopy)  # a later mutation may edit the drawn junk in place


@st.composite
def mutated_file(draw, document, entries):
    """``document`` as JSON after one to three mutations: a key of the top
    level or of one of its ``entries`` list dropped or set to junk (a float,
    a bool, a string, a huge or out-of-range int, nested junk), an entry
    duplicated or replaced by junk, or the period set to 0 or -1."""
    doc = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 3))):
        items = doc[entries] if isinstance(doc.get(entries), list) else []
        target = doc
        if items and draw(st.booleans()):
            i = draw(st.integers(0, len(items) - 1))
            kind = draw(st.sampled_from(("duplicate", "replace", "key")))
            if kind == "duplicate":
                items.insert(i, json.loads(json.dumps(items[i])))
                continue
            if kind == "replace" or not isinstance(items[i], dict) or not items[i]:
                items[i] = draw(_JUNK)
                continue
            target = items[i]
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        kind = draw(st.sampled_from(("drop", "junk", "period")))
        if kind == "drop":
            del target[key]
        elif kind == "period" and target is doc and "period" in doc:
            doc["period"] = draw(st.sampled_from((0, -1)))
        else:
            target[key] = draw(_JUNK)
    return json.dumps(doc)


_SCHEDULE_FILE = {
    "n": 6, "period": 4,
    "missing": [{"round": 0, "edge": 1}, {"round": 1, "edge": 5}, {"round": 3, "edge": 0}],
}


@settings(
    max_examples=100, deadline=None,
    # every example overwrites the same two files in tmp_path
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    schedule=mutated_file(_SCHEDULE_FILE, "missing"),
    machine=st.sampled_from(BUILTIN_FSM_NAMES).flatmap(
        lambda name: mutated_file(json.loads(agents.fsm_of(name).to_json()), "arcs")
    ),
)
def test_any_mutated_input_file_ends_in_a_clean_exit(tmp_path, schedule, machine):
    schedule_path, machine_path = tmp_path / "schedule.json", tmp_path / "machine.json"
    schedule_path.write_text(schedule)
    machine_path.write_text(machine)
    team = ["--algo", "pingpong", "--n", "6", "--k", "2", "--schedule", str(schedule_path)]
    for args in (
        ["simulate", *team, "--rounds", "24"],
        ["worstcase", *team, "--budget", "400"],
        ["analyze", str(machine_path), "--k", "2", "--cross-validate", "5"],
    ):
        result = CliRunner().invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert result.exit_code in (0, 1, 2), args
        assert "Traceback" not in result.output, args


# --- settable values: every knob a user can turn ---------------------------

def _optional_click_options():
    names = []
    for command_name, command in sorted(main.commands.items()):
        names += [
            f"{command_name} {p.opts[0]}"
            for p in command.params
            if isinstance(p, click.Option) and not p.required
        ]
    return names


def _defaulted(fn, label):
    return [
        f"{label}({p.name})"
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
    ]


def _defaulted_api_parameters():
    """Defaulted parameters of the functions, constructors and public
    methods in ``ringpatrol.__all__`` (exception types excluded)."""
    names = []
    for name in ringpatrol.__all__:
        obj = getattr(ringpatrol, name)
        if inspect.isfunction(obj):
            names += _defaulted(obj, name)
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            names += _defaulted(obj, name)
            names += [
                entry
                for attr, member in vars(obj).items()
                if inspect.isfunction(member) and not attr.startswith("_")
                for entry in _defaulted(member, f"{name}.{attr}")
            ]
    return names


def test_settable_value_count_is_pinned():
    # a new option or default shows up here as a diff; ROADMAP tracks the sum
    assert _optional_click_options() == [
        "analyze --k", "analyze --cross-validate", "analyze --out",
        "simulate --adversary", "simulate --schedule", "simulate --rounds",
        "simulate --placement", "simulate --r-s", "simulate --assert-idle-max",
        "simulate --assert-idle-min", "simulate --claim-tag", "simulate --out-trace",
        "simulate --out-report",
        "verify --out",
        "worstcase --placement", "worstcase --schedule",
        "worstcase --budget", "worstcase --out",
    ]
    assert sorted(_defaulted_api_parameters()) == [
        "GameSolverResult(cycle_start)",
        "ObliviousSchedule(missing)",
        "ObliviousSchedule(period)",
        "offline_opt_search(max_rounds)",
        "run(n)",
        "solve_worst_case(budget)",
        "solve_worst_case(schedule)",
        "uniform_positions(anchor)",
    ]
    assert len(_optional_click_options()) + len(_defaulted_api_parameters()) == 26


def test_public_symbols_are_pinned():
    # adding or deleting a public symbol shows up here as a diff
    assert sorted(ringpatrol.__all__) == [
        "BUILTIN_FSM_NAMES", "BudgetExceeded", "CCW", "CW", "Classification",
        "ExecutionTrace", "FsmAlgorithm", "FsmSpec", "GameSolverResult",
        "IdleReport", "KPingPong", "ObliviousSchedule", "PingPong",
        "PlaceAndSwipe", "PlacementInfeasibleError", "RoundRecord", "STAY",
        "TargetSelectionError", "UNBOUNDED", "UniformSpread", "apply_round",
        "arc_distance", "build_transition_graph", "classify",
        "compute_swipe_set", "consecutive_positions", "cross_validate",
        "distinct_nodes_visited", "fixed_edge_schedule", "fsm_of",
        "gate_adversary", "idle_time", "is_uniform", "make_random_schedule",
        "offline_opt_search", "random_positions", "run", "solve_worst_case",
        "trace_to_csv", "trap_adversary", "uniform_positions", "wave_schedule",
        "wave_start_positions",
    ]


def _package_names_read_by_benchmark():
    """Every non-dunder ``rp.<name>`` or ``<...>.rp.<name>`` read under
    ``perfbench/``, where ``rp`` is the imported package."""
    names = set()
    for path in (Path(__file__).parents[1] / "perfbench").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute) or node.attr.startswith("__"):
                continue
            owner = node.value
            if getattr(owner, "id", None) == "rp" or getattr(owner, "attr", None) == "rp":
                names.add(node.attr)
    return names


def test_benchmark_reads_only_public_symbols():
    # the benchmark's own tests run only some of its operations, so a symbol
    # dropped from the package would otherwise break an untested operation
    names = _package_names_read_by_benchmark()
    assert "run" in names and "classify" in names
    assert sorted(names - set(ringpatrol.__all__)) == []


def _syntax_tree(module):
    return ast.parse(Path(inspect.getfile(module)).read_text())


def _relative_imports(tree):
    return sorted(
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    )


def test_engine_and_adversaries_import_only_ring():
    # re-coupling a layer (the engine to the agents, an adversary to the
    # round kernel) shows up here as a diff
    assert _relative_imports(_syntax_tree(engine)) == [".ring"]
    tree = _syntax_tree(adversaries)
    assert _relative_imports(tree) == [".ring"]
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(tree)
    }
    assert "decide_moves" not in names
