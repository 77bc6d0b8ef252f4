import json

import pytest
from click.testing import CliRunner

from ringpatrol.adversaries import wave_schedule
from ringpatrol.cli import main


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


def test_worstcase_consecutive_sweep_static(runner):
    result = runner.invoke(main, [
        "worstcase", "--algo", "consecutive-sweep", "--n", "8", "--k", "3",
        "--placement", "consecutive", "--static",
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
