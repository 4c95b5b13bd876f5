import json
import re

import pytest

from tracelang.cli import main
from tracelang.errors import TraceLangError
from tracelang.parser import parse_program
from tracelang.problems import ProblemId, build_instance, program_text
from tracelang.structures import parse_structure, serialize_structure


@pytest.fixture
def even_files(tmp_path):
    files = {}
    for n in (3, 4):
        inst = build_instance(ProblemId.EVEN, {"n": n})
        path = tmp_path / f"even{n}.structure"
        path.write_text(serialize_structure(inst))
        files[n] = str(path)
    program = tmp_path / "even.program"
    program.write_text(program_text(ProblemId.EVEN))
    files["program"] = str(program)
    return files


def test_run_exit_codes(even_files, capsys):
    assert main(["run", "--program", even_files["program"], "--structure", even_files[4]]) == 0
    assert main(["run", "--program", even_files["program"], "--structure", even_files[3]]) == 1


def test_run_parse_error_is_usage_exit(even_files, tmp_path, capsys):
    bad = tmp_path / "bad.program"
    bad.write_text("module M { P(x) <~ Undeclared(x) }\nterm: M")
    assert main(["run", "--program", str(bad), "--structure", even_files[4]]) == 64
    missing = tmp_path / "missing.program"
    assert main(["run", "--program", str(missing), "--structure", even_files[4]]) == 64


def test_usage_error_exit_code(capsys):
    assert main(["run", "--program", "x"]) == 64  # missing --structure
    assert main(["frobnicate"]) == 64


def test_every_command_rejects_a_negative_k(even_files, capsys):
    files = ["--program", even_files["program"], "--structure", even_files[4]]
    assert main(["run", *files, "--k", "-1"]) == 64
    assert main(["equiv", *files, "--left", "id", "--right", "id", "--k", "-1"]) == 64
    assert main(["suite", "--problem", "even", "--n-range", "1..2", "--k", "-1"]) == 64
    assert capsys.readouterr().err.count("k must be nonnegative, got -1") == 3


def test_a_length_bound_below_one_is_a_usage_exit(even_files, capsys):
    # the bound counts the input letter, so no bound below 1 can hold it
    files = ["--program", even_files["program"], "--structure", even_files[4]]
    assert main(["run", *files, "--max-len", "0"]) == 64
    assert main(["equiv", *files, "--left", "id", "--right", "id", "--max-len", "-1"]) == 64
    assert main(["run", *files, "--max-len", "x"]) == 64
    err = capsys.readouterr().err
    assert "max-len must be at least 1, the input letter, got 0" in err
    assert "max-len must be at least 1, the input letter, got -1" in err
    assert "max-len must be an integer, got 'x'" in err
    assert main(["run", *files, "--max-len", "1"]) == 2  # bound-exceeded


def test_witness_write_verify_and_hash_mismatch(even_files, tmp_path, capsys):
    witness = tmp_path / "w.json"
    assert (
        main(
            [
                "run",
                "--program",
                even_files["program"],
                "--structure",
                even_files[4],
                "--witness",
                str(witness),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "verify",
                "--program",
                even_files["program"],
                "--structure",
                even_files[4],
                "--witness",
                str(witness),
            ]
        )
        == 0
    )
    capsys.readouterr()
    # different structure: reported as a hash mismatch, not a replay failure
    assert (
        main(
            [
                "verify",
                "--program",
                even_files["program"],
                "--structure",
                even_files[3],
                "--witness",
                str(witness),
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "hash mismatch" in out

    # corrupt one assignment: replay failure
    doc = json.loads(witness.read_text())
    doc["choices"][0]["assignment"]["P"] = doc["choices"][2]["assignment"]["P"]
    witness.write_text(json.dumps(doc))
    assert (
        main(
            [
                "verify",
                "--program",
                even_files["program"],
                "--structure",
                even_files[4],
                "--witness",
                str(witness),
            ]
        )
        == 1
    )
    assert capsys.readouterr().out.startswith("invalid: replay failed at choice ")


def test_equiv_exit_codes(even_files, capsys):
    base = [
        "equiv",
        "--program",
        even_files["program"],
        "--structure",
        even_files[4],
    ]
    # two everywhere-undefined tests are not strongly equal
    assert main(base + ["--left", "~ ~ ~ id", "--right", "~ id"]) == 1
    assert main(base + ["--left", "id", "--right", "test(P == P)"]) == 0
    assert main(base + ["--left", "GuessP", "--right", "GuessP ; id"]) == 0
    out = capsys.readouterr().out
    assert "max_trace_length" in out  # the bounds are part of the report


def test_json_report_is_stable(even_files, capsys):
    args = [
        "run",
        "--program",
        even_files["program"],
        "--structure",
        even_files[4],
        "--format",
        "json",
        "--no-timing",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert list(report) == sorted(report)
    assert set(report) == {
        "exists_calls", "k", "max_trace_length", "node_budget", "nodes_explored", "table_hits",
        "trace_length", "verdict",
    }


def test_run_report_keys(even_files, tmp_path, capsys):
    args = ["run", "--program", even_files["program"], "--structure", even_files[4], "--format", "json"]
    assert main(args + ["--witness", str(tmp_path / "w.json")]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "exists_calls", "k", "max_trace_length", "node_budget", "nodes_explored", "table_hits",
        "trace_length", "verdict", "wall_seconds", "witness_length", "witness_path",
    }


def test_suite_small_run(capsys):
    assert main(["suite", "--problem", "even", "--n-range", "1..4", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "even" in out and " 4" in out


def test_a_suite_range_that_ends_below_its_start_is_a_usage_exit(capsys):
    assert main(["suite", "--problem", "st-conn", "--n-range", "5..2"]) == 64
    assert "range must not end below its start, got '5..2'" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_a_suite_of_no_trials_is_a_usage_exit(trials, capsys):
    assert main(["suite", "--problem", "st-conn", "--trials", trials]) == 64
    assert f"trials must be at least 1, got {trials}" in capsys.readouterr().err


def test_a_suite_problem_that_generates_no_instance_fails(capsys):
    # a suite that checked nothing has not agreed with its oracle
    assert main(["suite", "--problem", "even", "--n-range", "0..0", "--no-timing"]) == 1
    assert f"{'even':<12} {0:>9}" in capsys.readouterr().out


def test_the_default_suite_agrees_on_every_problem(capsys):
    assert main(["suite", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert all(f"{pid.value:<12}" in out for pid in ProblemId)


def test_node_budget_env(even_files, monkeypatch, capsys):
    monkeypatch.setenv("PROMISE_MAX_NODES", "2")
    assert main(["run", "--program", even_files["program"], "--structure", even_files[4]]) == 2
    monkeypatch.delenv("PROMISE_MAX_NODES")


def test_equiv_honours_the_node_budget(even_files, monkeypatch, capsys):
    # GuessP ; GuessP builds 4 + 16 successor traces on 4 elements; a check
    # cut off by the budget is unknown, never a definite answer
    args = [
        "equiv", "--program", even_files["program"], "--structure", even_files[4],
        "--left", "GuessP ; GuessP", "--right", "id ; GuessP ; GuessP",
    ]
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("True (mode=strong")
    monkeypatch.setenv("PROMISE_MAX_NODES", "10")
    assert main(args) == 2
    assert main(args + ["--mode", "before-after"]) == 2
    assert capsys.readouterr().out.count("Unknown (mode=") == 2
    monkeypatch.setenv("PROMISE_MAX_NODES", "20")
    assert main(args) == 0  # the right side's module steps are memo hits: they build nothing


@pytest.mark.parametrize("command", ["run", "verify", "verify-parse", "equiv", "suite"])
def test_an_internal_error_exits_70_in_every_command(command, even_files, tmp_path, monkeypatch, capsys):
    # A crash must not exit with a verdict's code (1 reads as no, invalid
    # or not equivalent).
    import tracelang.cli as cli
    import tracelang.witness_io as witness_io

    files = ["--program", even_files["program"], "--structure", even_files[4]]
    witness = tmp_path / "w.json"
    assert main(["run", *files, "--witness", str(witness)]) == 0

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    target, argv = {
        "run": ((cli, "run_main_task"), ["run", *files]),
        "verify": ((witness_io, "replay_failure"), ["verify", *files, "--witness", str(witness)]),
        "verify-parse": ((witness_io, "parse_program"), ["verify", *files, "--witness", str(witness)]),
        "equiv": ((cli, "strongly_equivalent"), ["equiv", *files, "--left", "id", "--right", "id"]),
        "suite": ((cli, "run_main_task"), ["suite", "--problem", "even", "--n-range", "1..2"]),
    }[command]
    monkeypatch.setattr(*target, boom)
    capsys.readouterr()
    assert main(argv) == 70
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_run_with_a_witness_path_in_a_missing_directory_is_a_usage_error(even_files, tmp_path, capsys):
    witness = tmp_path / "missing" / "w.json"
    argv = ["run", "--program", even_files["program"], "--structure", even_files[4]]
    assert main(argv + ["--witness", str(witness)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("left", ["pow(P == P, 3000) ; GuessP", "pow(dom(GuessP), 3000) ; GuessP"])
def test_equiv_decides_a_deep_pow(left, tmp_path, capsys):
    # pow(t, n) shares its halves, so the lab's structural recursion goes
    # O(log n) deep instead of n.
    program = tmp_path / "guess.program"
    program.write_text("module GuessP { P(x) <~ adom(x) }\nterm: GuessP\n")
    structure = tmp_path / "abc.structure"
    structure.write_text("domain a b c\nreg P\n")
    argv = ["equiv", "--program", str(program), "--structure", str(structure)]
    assert main(argv + ["--left", left, "--right", "GuessP"]) == 0
    assert capsys.readouterr().out.startswith("True ")


def test_equiv_on_a_long_written_out_chain_is_unknown(tmp_path, capsys):
    # the lab walks the left spine of a ; chain in a loop, so a chain past
    # the length bound is inconclusive, not a crash
    program = tmp_path / "guess.program"
    program.write_text("module GuessP { P(x) <~ adom(x) }\nterm: GuessP\n")
    structure = tmp_path / "ab.structure"
    structure.write_text("domain a b\nreg P\n")
    argv = ["equiv", "--program", str(program), "--structure", str(structure)]
    assert main(argv + ["--left", " ; ".join(["GuessP"] * 1500), "--right", "GuessP"]) == 2
    assert capsys.readouterr().out.startswith("Unknown ")


def test_equiv_refuses_a_term_that_names_a_missing_module(tmp_path, capsys):
    # the lab refuses the module before it evaluates anything, so a left
    # arm that fails first does not hide it
    program = tmp_path / "guess.program"
    program.write_text("module GuessP { P(x) <~ adom(x) }\nterm: GuessP\n")
    structure = tmp_path / "ab.structure"
    structure.write_text("domain a b\nreg P\n")
    argv = ["equiv", "--program", str(program), "--structure", str(structure)]
    assert main(argv + ["--left", "fail ; Ghost", "--right", "fail"]) == 64
    err = capsys.readouterr().err
    assert err == "error: term references undefined module Ghost\n"


@pytest.mark.parametrize(
    "left, message",
    [
        ("fail ; Ghost == P", "test names undeclared symbol Ghost"),
        ("fail ; adom == P", "test names undeclared symbol adom"),
        ("if " * 100 + "GuessP" + " then id else id" * 100, "TooDeep: universal checks nest 300 levels deep, more than 100"),
        (" <+ ".join(["GuessP"] * 2000), "TooDeep: universal checks nest 1999 levels deep, more than 100"),
        ("GuessP" + "^" * 2000, "TooDeep: universal checks nest 2000 levels deep, more than 100"),
    ],
    ids=["undeclared-symbol", "adom", "nested-ifs", "union-chain", "iterate-chain"],
)
def test_equiv_refuses_a_term_as_its_program_would(left, message, tmp_path, capsys):
    # equiv refuses a term with the message of the compile step that
    # refuses a program of it, before it evaluates anything
    modules, domain = "module GuessP { P(x) <~ adom(x) }\n", "domain a b\nreg P\n"
    program = tmp_path / "guess.program"
    program.write_text(modules + "term: GuessP\n")
    structure = tmp_path / "ab.structure"
    structure.write_text(domain)
    with pytest.raises(TraceLangError, match=f"^{re.escape(message)}$"):
        parse_program(f"{modules}term: {left}\n", parse_structure(domain).vocabulary)
    argv = ["equiv", "--program", str(program), "--structure", str(structure)]
    assert main(argv + ["--left", left, "--right", "GuessP"]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"
