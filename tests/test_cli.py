from __future__ import annotations

import hashlib
import io
import itertools
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import nbrv
from conftest import PROTOCOL_DIR
from helpers import MINSKY_MACHINE, RST_MACHINE, initial
from nbrv import cli, fileio
from nbrv.backward import saturation
from nbrv.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, _read_text, build_parser, main
from nbrv.explore import Witness, replay
from nbrv.model import MoveTable, StepLabel

FIG1 = str(PROTOCOL_DIR / "fig1.rvp")
P1 = str(PROTOCOL_DIR / "p1.rvp")
P2 = str(PROTOCOL_DIR / "p2.rvp")
GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


# Full stdout of the explorer's YES answers, pinned so that a change to the
# successor order or to the search shows up as a different witness.
GOLDEN_WITNESSES = [
    (["check", "scover", FIG1, "--method", "explore", "--max-procs", "4"],
     "RESULT YES\n"
     "STEP nb:a q5,q_in\n"
     "STEP msg:b q1,q6\n"),
    (["check", "ccover", FIG1, "--target", "q6:2", "--max-procs", "8"],
     "RESULT YES\n"
     "STEP nb:a q5,q_in:2\n"
     "STEP msg:b q1,q6,q_in\n"
     "STEP nb:a q1,q5,q6\n"
     "STEP nb:b q1,q6:2\n"),
    (["check", "ccover", P1, "--target", "q7:3", "--method", "explore", "--max-procs", "10"],
     "RESULT YES\n"
     "STEP nb:c q5,q_in:5\n"
     "STEP msg:d q4,q7,q_in:4\n"
     "STEP nb:c q4,q5,q7,q_in:3\n"
     "STEP msg:d q4:2,q7:2,q_in:2\n"
     "STEP nb:c q4:2,q5,q7:2,q_in\n"
     "STEP msg:d q4:3,q7:3\n"),
    (["check", "ccover", P2, "--target", "q3:4", "--method", "explore", "--max-procs", "10"],
     "RESULT YES\n"
     "STEP nb:a q1,q_in:4\n"
     "STEP msg:a q1,q3,q_in:3\n"
     "STEP msg:a q1,q3:2,q_in:2\n"
     "STEP msg:a q1,q3:3,q_in\n"
     "STEP msg:a q1,q3:4\n"),
]


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_scover_explore_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "scover", FIG1,
                           "--method", "explore", "--max-procs", "4")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "RESULT YES"
        assert lines[1:] == ["STEP nb:a q5,q_in", "STEP msg:b q1,q6"]

    def test_ccover_needs_target(self, capsys):
        code, _, err = run(capsys, "check", "ccover", FIG1)
        assert code == EXIT_PRECONDITION and "target" in err

    def test_abstract_on_non_wait_only_is_precondition_error(self, capsys):
        code, _, _ = run(capsys, "check", "ccover", FIG1,
                         "--method", "abstract", "--target", "q1")
        assert code == EXIT_PRECONDITION

    def test_abstract_scover_p1(self, capsys):
        code, out, _ = run(capsys, "check", "scover", P1, "--method", "abstract")
        assert code == EXIT_OK and out.splitlines()[0] == "RESULT YES"

    def test_abstract_ccover_no(self, capsys):
        code, out, _ = run(capsys, "check", "ccover", P1,
                           "--method", "abstract", "--target", "q1,q3")
        assert code == EXIT_OK and out.splitlines()[0] == "RESULT NO"

    def test_auto_routes_wait_only_to_abstract(self, capsys):
        # q1:2 is abstractly coverable only if the analysis is exact; the
        # sweep with tiny bounds would answer UNKNOWN instead of NO.
        code, out, _ = run(capsys, "check", "ccover", P1, "--method", "auto",
                           "--target", "q1:2", "--max-procs", "2")
        assert code == EXIT_OK and out.splitlines()[0] == "RESULT NO"

    def test_auto_routes_synchro_to_explore(self, capsys):
        code, out, _ = run(capsys, "check", "synchro", P1, "--max-procs", "2")
        assert code == EXIT_OK
        assert out.splitlines()[0] in ("RESULT YES", "RESULT UNKNOWN")

    def test_synchro_abstract_rejected(self, capsys):
        code, _, _ = run(capsys, "check", "synchro", P1, "--method", "abstract")
        assert code == EXIT_PRECONDITION

    def test_backward_fig1_q4_is_no(self, capsys):
        code, out, _ = run(capsys, "check", "ccover", FIG1, "--target", "q4",
                           "--method", "backward")
        assert (code, out) == (EXIT_OK, "RESULT NO\n")

    @pytest.mark.parametrize("argv", [
        ["scover", P1], ["ccover", P1, "--target", "q1:2"], ["ccover", P1, "--target", "q1,q3"],
        ["ccover", P1, "--target", "q7:3"], ["scover", P2], ["ccover", P2, "--target", "q2:2"],
        ["ccover", P2, "--target", "q3:4"], ["ccover", P2, "--target", "p4:2,q3"],
        ["scover", str(PROTOCOL_DIR / "rot.rvp")],
        ["ccover", str(PROTOCOL_DIR / "rot.rvp"), "--target", "p2:2"],
        ["ccover", str(PROTOCOL_DIR / "rot.rvp"), "--target", "p0,p1"],
    ], ids=lambda argv: "-".join(Path(a).stem for a in argv))
    def test_backward_agrees_with_abstract_on_wait_only(self, capsys, argv):
        # The backward engine runs on wait-only protocols too; only its YES
        # prints a witness.
        argv = ["check", *argv, "--max-procs", "10"]
        code, out, _ = run(capsys, *argv, "--method", "backward")
        assert code == EXIT_OK
        assert run(capsys, *argv, "--method", "abstract") == (EXIT_OK, out.splitlines()[0] + "\n", "")
        assert out.startswith("RESULT YES\nSTEP ") or out == "RESULT NO\n"

    def test_explore_sweep_unknown(self, capsys, tmp_path):
        q4 = fileio.parse_protocol(Path(FIG1).read_text())
        from nbrv.model import Protocol
        q4 = Protocol(q4.name, q4.states, q4.messages, q4.init, "q4", q4.transitions)
        path = tmp_path / "fig1q4.rvp"
        path.write_text(fileio.serialize_protocol(q4))
        code, out, _ = run(capsys, "check", "scover", str(path),
                           "--method", "explore", "--max-procs", "6")
        assert code == EXIT_OK and out.splitlines()[0] == "RESULT UNKNOWN"

    @pytest.mark.parametrize(
        "argv, expected", GOLDEN_WITNESSES,
        ids=["fig1-scover", "fig1-ccover-q6", "p1-ccover-q7", "p2-ccover-q3"])
    def test_golden_witness(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and out == expected

    def test_sweep_budget_is_unknown(self, capsys):
        code, out, _ = run(capsys, "check", "ccover", FIG1, "--target", "q4", "--method",
                           "explore", "--max-procs", "30", "--max-steps", "300")
        assert code == EXIT_OK and out == "RESULT UNKNOWN budget\n"

    def test_auto_routes_non_wait_only_cover_to_backward(self, capsys):
        # The sweep above runs out of budget; the backward engine answers an exact NO.
        code, out, _ = run(capsys, "check", "ccover", FIG1, "--target", "q4",
                           "--max-procs", "30", "--max-steps", "300")
        assert code == EXIT_OK and out == "RESULT NO\n"

    def test_backward_yes_above_max_procs_is_unknown(self, capsys):
        # q6:2 needs 3 processes (see the golden witness at --max-procs 8).
        code, out, _ = run(capsys, "check", "ccover", FIG1, "--target", "q6:2",
                           "--max-procs", "2")
        assert code == EXIT_OK and out == "RESULT UNKNOWN\n"

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_backward_pop_budget_is_unknown(self, capsys, budget):
        code, out, _ = run(capsys, "check", "ccover", FIG1, "--target", "q6:2",
                           "--max-steps", budget)
        assert code == EXIT_OK and out == "RESULT UNKNOWN budget\n"

    def test_explorer_budget_after_backward_yes_is_unknown(self, capsys):
        # Enough pops for the backward YES at population 3, too few nodes
        # for the explorer to rebuild its witness there.
        code, out, _ = run(capsys, "check", "ccover", FIG1, "--target", "q6:2",
                           "--max-steps", "5")
        assert code == EXIT_OK and out == "RESULT UNKNOWN budget\n"

    def test_synchro_exact_no_when_final_is_not_coverable(self, capsys, tmp_path):
        path = tmp_path / "q4.rvp"
        path.write_text(Path(FIG1).read_text().replace("final q1", "final q4"))
        code, out, _ = run(capsys, "check", "synchro", str(path))
        assert code == EXIT_OK and out == "RESULT NO\n"
        code, out, _ = run(capsys, "check", "synchro", str(path), "--method", "explore",
                           "--max-procs", "4")
        assert code == EXIT_OK and out == "RESULT UNKNOWN\n"

    @pytest.mark.parametrize("method", ["explore", "backward", "auto"])
    def test_synchro_when_init_is_final(self, capsys, tmp_path, method):
        # Every population starts in its goal: the run of no steps is the witness.
        path = tmp_path / "same.rvp"
        path.write_text("protocol same\nstates a b\ninit a\nfinal a\nmessages m\n"
                        "trans a !m b\n")
        assert run(capsys, "check", "synchro", str(path), "--method", method,
                   "--max-procs", "3") == (EXIT_OK, "RESULT YES\n", "")

    @pytest.mark.parametrize("method", ["explore", "backward", "auto"])
    @pytest.mark.parametrize("problem", [
        ["scover"], ["ccover", "--target", "q6:2"], ["synchro"]], ids=lambda a: a[0])
    def test_population_bound_below_one(self, capsys, problem, method):
        # Every route refuses the bound, the backward engine included, which
        # would otherwise answer without a population to check.
        for path in (FIG1, P1):
            for procs in ("0", "-1"):
                assert run(capsys, "check", problem[0], path, *problem[1:],
                           "--max-procs", procs, "--method", method) == (
                    EXIT_PRECONDITION, "", "error: population bound must be at least 1\n")

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.rvp"
        bad.write_text("protocol p\nstates a\n")
        code, _, err = run(capsys, "check", "scover", str(bad))
        assert code == EXIT_PARSE and "bad.rvp" in err


class TestUnicodeDigits:
    """``²`` passes ``str.isdigit`` but not ``int``: it must be a positioned parse error."""

    def test_vas_dimension(self, capsys, tmp_path):
        path = tmp_path / "v.vas"
        path.write_text("vas v dim ²\ninit 0\ntarget 1\n")
        assert run(capsys, "explore", "vas", str(path)) == (
            EXIT_PARSE, "", f"error: {path}:1:11: dimension must be a positive integer\n")

    def test_vas_init_value(self, capsys, tmp_path):
        path = tmp_path / "v.vas"
        path.write_text("vas v dim 1\ninit ²\ntarget 1\n")
        assert run(capsys, "explore", "vas", str(path)) == (
            EXIT_PARSE, "", f"error: {path}:2:6: invalid init value '²'\n")

    def test_target_count(self, capsys):
        assert run(capsys, "check", "ccover", P1, "--target", "q1:²") == (
            EXIT_PARSE, "", "error: <config>:1:1: count '²' must be a positive integer\n")


class TestAbstract:
    def test_p2_final_line(self, capsys):
        code, out, _ = run(capsys, "abstract", P2)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            "S = {p1,p2,p3,p4,q1,q3,q_in} Toks = {(q2,b)}"
        )

    def test_trace_shows_all_iterates(self, capsys):
        code, out, _ = run(capsys, "abstract", P2, "--trace")
        lines = out.splitlines()
        assert code == EXIT_OK and len(lines) == 4
        assert lines[0] == "S = {q_in} Toks = {}"
        assert lines[1] == "S = {p1,q1,q_in} Toks = {(p2,m2),(p3,m3),(q2,b)}"

    def test_non_wait_only_rejected(self, capsys):
        code, _, _ = run(capsys, "abstract", FIG1)
        assert code == EXIT_PRECONDITION

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "abstract", P1, "--trace")
        _, out2, _ = run(capsys, "abstract", P1, "--trace")
        assert out1 == out2


class TestExplore:
    def test_protocol_listing(self, capsys):
        code, out, _ = run(capsys, "explore", "protocol", FIG1, "--procs", "1",
                           "--list")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "REACHABLE 3"
        assert lines[1:] == ["CONFIG q5", "CONFIG q6", "CONFIG q_in"]

    def test_p1_listing_digest(self, capsys):
        # The benchmark corpora run no ``--list`` query: the decode path of
        # every reachable configuration is pinned here, byte for byte.
        code, out, err = run(capsys, "explore", "protocol", P1, "--procs", "12", "--list")
        assert (code, err, out.count("\n")) == (EXIT_OK, "", 3669)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "595aa92b3c900b20227dd42b20d07dc4efe16abaf2f32e5da24044bbb41919af")

    def test_machine(self, capsys, tmp_path):
        path = tmp_path / "m.nbm"
        path.write_text("machine m\nlocations a b\ninit a\ncounters x\n"
                        "restore off\ntrans a inc x b\n")
        code, out, _ = run(capsys, "explore", "machine", str(path),
                           "--loc", "b", "--cap", "1")
        assert code == EXIT_OK
        assert out.splitlines() == ["RESULT YES", "STEP inc x b;x=1"]

    def test_protocol_budget_is_error(self, capsys):
        code, out, err = run(capsys, "explore", "protocol", FIG1, "--procs", "6",
                             "--budget", "5")
        assert code == EXIT_PRECONDITION and out == "" and "budget" in err

    def test_machine_budget_is_unknown(self, capsys, tmp_path):
        path = tmp_path / "m.nbm"
        path.write_text("machine m\nlocations a b\ninit a\ncounters x\n"
                        "restore off\ntrans a inc x a\n")
        assert run(capsys, "explore", "machine", str(path), "--loc", "b", "--cap", "9",
                   "--budget", "5") == (EXIT_OK, "RESULT UNKNOWN budget\n", "")
        assert run(capsys, "explore", "machine", str(path), "--loc", "b", "--cap", "9",
                   "--budget", "10") == (EXIT_OK, "RESULT NO within-cap\n", "")

    def test_vas_budget_is_unknown(self, capsys, tmp_path):
        path = tmp_path / "v.vas"
        path.write_text("vas v dim 1\ninit 0\ntarget 12\ntrans 1 ; 0\n")
        assert run(capsys, "explore", "vas", str(path), "--cap", "9",
                   "--budget", "5") == (EXIT_OK, "RESULT UNKNOWN budget\n", "")
        assert run(capsys, "explore", "vas", str(path), "--cap", "9",
                   "--budget", "10") == (EXIT_OK, "RESULT NO within-cap\n", "")

    @pytest.mark.parametrize("procs", ["0", "-2"])
    def test_population_below_one(self, capsys, procs):
        # 0 needs no bits at all: the population is refused before any
        # move table is compiled for it.
        code, out, err = run(capsys, "explore", "protocol", FIG1, "--procs", procs)
        assert (code, out, err) == (EXIT_PRECONDITION, "",
                                    "error: population must be at least 1\n")

    def test_budget_counts_a_stuck_start(self, capsys, tmp_path):
        # The initial configuration has no move: it alone is reachable, and
        # it counts against the budget like any level after it.
        path = tmp_path / "z.rvp"
        path.write_text("protocol z\nstates a b\ninit a\nfinal b\nmessages m\n"
                        "trans b !m a\n")
        assert run(capsys, "explore", "protocol", str(path), "--procs", "2",
                   "--budget", "0") == (EXIT_PRECONDITION, "",
                                        "error: node budget 0 exceeded at population 2\n")
        assert run(capsys, "explore", "protocol", str(path), "--procs", "2",
                   "--budget", "1") == (EXIT_OK, "REACHABLE 1\n", "")

    def test_check_budget_counts_the_start(self, capsys, tmp_path):
        # The same rule as ``explore protocol``: at budget 0 no population is
        # searched, and at budget 1 the stuck start is all there is.
        path = tmp_path / "z.rvp"
        path.write_text("protocol z\nstates a b\ninit a\nfinal b\nmessages m\n"
                        "trans b !m a\n")
        argv = ["check", "scover", str(path), "--method", "explore", "--max-procs", "2"]
        assert run(capsys, *argv, "--max-steps", "0") == (EXIT_OK, "RESULT UNKNOWN budget\n", "")
        assert run(capsys, *argv, "--max-steps", "1") == (EXIT_OK, "RESULT UNKNOWN\n", "")
        # A start that meets the goal is admitted at budget 1 only.
        path.write_text("protocol y\nstates a\ninit a\nfinal a\nmessages m\n")
        assert run(capsys, *argv, "--max-steps", "0") == (EXIT_OK, "RESULT UNKNOWN budget\n", "")
        assert run(capsys, *argv, "--max-steps", "1") == (EXIT_OK, "RESULT YES\n", "")

    def test_machine_and_vas_budget_counts_the_start(self, capsys, tmp_path):
        # Both starts meet their goal: budget 0 admits nothing, 1 the start.
        machine, vas = tmp_path / "m.nbm", tmp_path / "v.vas"
        machine.write_text("machine m\nlocations a b\ninit a\ncounters x\n"
                           "restore off\ntrans a inc x b\n")
        vas.write_text("vas v dim 1\ninit 1\ntarget 1\ntrans 1 ; 0\n")
        for argv in (["machine", str(machine), "--loc", "a"], ["vas", str(vas)]):
            assert run(capsys, "explore", *argv, "--cap", "3", "--budget", "0") == (
                EXIT_OK, "RESULT UNKNOWN budget\n", "")
            assert run(capsys, "explore", *argv, "--cap", "3", "--budget", "1") == (
                EXIT_OK, "RESULT YES\n", "")
        # Target b is one step away: the budget must admit a second node.
        assert run(capsys, "explore", "machine", str(machine), "--loc", "b", "--cap", "3",
                   "--budget", "1") == (EXIT_OK, "RESULT UNKNOWN budget\n", "")
        assert run(capsys, "explore", "machine", str(machine), "--loc", "b", "--cap", "3",
                   "--budget", "2") == (EXIT_OK, "RESULT YES\nSTEP inc x b;x=1\n", "")

    def test_machine_within_cap_note(self, capsys, tmp_path):
        path = tmp_path / "fig1.nbm"
        _, out, _ = run(capsys, "translate", "p2cm", FIG1, str(path), "--target", "q3:2")
        assert out.splitlines()[0] == "TARGET at_20"
        _, out1, _ = run(capsys, "explore", "machine", str(path), "--loc", "at_20",
                         "--cap", "1")
        _, out2, _ = run(capsys, "explore", "machine", str(path), "--loc", "at_20",
                         "--cap", "2")
        assert out1 == "RESULT NO within-cap\n"
        assert out2.splitlines()[0] == "RESULT YES"

    @pytest.mark.parametrize("protocol,target,expected", [
        (P1, "q2:2", (GOLDEN_DIR / "vas_p1_q2x2_cap2.txt").read_text()),
        (FIG1, "q4", "RESULT NO within-cap\n"),
    ])
    def test_golden_vas(self, capsys, tmp_path, protocol, target, expected):
        """Full stdout of ``explore vas`` on the ``cm2vas`` of a ``p2cm`` output."""
        machine, vas = tmp_path / "m.nbm", tmp_path / "m.vas"
        _, out, _ = run(capsys, "translate", "p2cm", protocol, str(machine),
                        "--target", target)
        loc = out.splitlines()[0].removeprefix("TARGET ")
        run(capsys, "translate", "cm2vas", str(machine), str(vas), "--target-loc", loc)
        code, out, _ = run(capsys, "explore", "vas", str(vas), "--cap", "2")
        assert code == EXIT_OK
        assert out == expected

    def test_cm2vas_bytes(self, capsys, tmp_path):
        # No golden holds a ``cm2vas`` output: its bytes, and the full
        # stdout of a YES search on it, are pinned by digest.
        machine, vas = tmp_path / "x.nbm", tmp_path / "fig1.vas"
        run(capsys, "translate", "p2cm", FIG1, str(machine), "--target", "q3:2")
        code, out, _ = run(capsys, "translate", "cm2vas", str(machine), str(vas),
                           "--target-loc", "at_20")
        assert (code, out) == (EXIT_OK, "SIZE dim=30 transitions=30\n")
        assert hashlib.sha256(vas.read_bytes()).hexdigest() == (
            "a5d6eafd8be3988fe8f94cecec67da9a2aed9e6529f4058603b2bba4261810a2")
        code, out, _ = run(capsys, "explore", "vas", str(vas), "--cap", "2")
        assert code == EXIT_OK and out.startswith("RESULT YES\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7a50680920d6fa9c2efedf87a72896e4b79a165e38ef18e9aa46f6c731183720")
        assert run(capsys, "explore", "vas", str(vas), "--cap", "1")[1] == (
            "RESULT NO within-cap\n")

    def test_vas(self, capsys, tmp_path):
        path = tmp_path / "v.vas"
        path.write_text("vas v dim 1\ninit 0\ntarget 1\ntrans 1 ; 0\n")
        code, out, _ = run(capsys, "explore", "vas", str(path), "--cap", "2")
        assert code == EXIT_OK and out.splitlines()[0] == "RESULT YES"


class TestRepeatedCalls:
    """Calls of ``main`` in one process are independent: none leaks into the next."""

    def test_calls_are_independent(self, capsys):
        code, out, _ = run(capsys, "explore", "protocol", P1, "--procs", "3", "--list")
        assert code == EXIT_OK and "CONFIG" in out
        with pytest.raises(SystemExit) as exc:
            main(["explore", "protocol", P1, "--procs", "three"])
        assert exc.value.code == EXIT_PARSE
        code, out2, _ = run(capsys, "explore", "protocol", P1, "--procs", "3")
        assert code == EXIT_OK
        assert out2 == out.splitlines()[0] + "\n"
        assert "CONFIG" not in out2

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_method_returns_to_auto(self, capsys):
        code, out, _ = run(capsys, "check", "scover", P1, "--method", "explore")
        assert code == EXIT_OK and "STEP" in out
        assert build_parser().parse_args(["check", "scover", P1]).method == "auto"
        # p1 is wait-only, so auto routes to the abstraction, which prints no run.
        code, out, _ = run(capsys, "check", "scover", P1)
        assert (code, out) == (EXIT_OK, "RESULT YES\n")

    def test_gen_kinds_do_not_mix(self, capsys, tmp_path):
        rst_argv = ["gen", "rst", str(tmp_path / "rst.nbm"), "--levels", "1", "--level", "0"]
        first = run(capsys, *rst_argv), (tmp_path / "rst.nbm").read_bytes()
        machine = tmp_path / "m.nbm"
        machine.write_text(RESTORE_OFF_MACHINE)
        code, out, _ = run(capsys, "gen", "lipton", str(machine), str(tmp_path / "shell.nbm"),
                           "--levels", "1", "--target-loc", "lf")
        assert code == EXIT_OK and out.startswith("TARGET lf\n")
        args = build_parser().parse_args(rst_argv)
        assert args.kind == "rst" and not hasattr(args, "infile")
        assert not hasattr(args, "target_loc")
        assert (run(capsys, *rst_argv), (tmp_path / "rst.nbm").read_bytes()) == first

    @pytest.mark.parametrize("bad", [
        ["frobnicate"],
        ["check", "scover"],
        ["gen", "rst", "OUT", "--levels", "1"],
        ["check", "scover", P1, "--method", "guess"],
    ])
    def test_bad_argv_then_valid_call(self, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == EXIT_PARSE
        capsys.readouterr()
        assert run(capsys, "check", "scover", P1) == (EXIT_OK, "RESULT YES\n", "")

    @pytest.mark.parametrize("argv", [
        ["--help"], ["check", "--help"], ["gen", "rst", "--help"], ["explore", "-h"],
        ["translate", "--help"], ["gen", "lipton", "-h"],
    ])
    def test_help_is_stable(self, capsys, argv):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out and outputs[0] == outputs[1]


# One valid command line per command and kind, run in a scratch directory
# that holds every file they name (see ``dispatch_inputs``).
DISPATCH_VALID = [
    ["check", "scover", "p1.rvp"],
    ["check", "ccover", "fig1.rvp", "--target", "q6:2", "--method", "explore",
     "--max-procs", "3"],
    ["check", "synchro", "p2.rvp", "--max-procs", "2", "--max-steps", "50"],
    ["abstract", "p2.rvp", "--trace"],
    ["explore", "protocol", "fig1.rvp", "--procs", "2", "--list"],
    ["explore", "machine", "m.nbm", "--loc", "lf", "--cap", "1", "--budget", "50"],
    ["explore", "vas", "v.vas", "--cap", "2"],
    ["translate", "p2cm", "fig1.rvp", "out", "--target", "q3:2"],
    ["translate", "cm2p", "rst.nbm", "out", "--target-loc", "lf"],
    ["translate", "cm2vas", "m.nbm", "out", "--target-loc", "lf"],
    ["translate", "minsky2p", "minsky.nbm", "out", "--target-loc", "lf"],
    ["gen", "lipton", "m.nbm", "out", "--levels", "1", "--target-loc", "lf"],
    ["gen", "rst", "out", "--levels", "1", "--level", "0"],
    ["explore", "protocol", "fig1.rvp", "--procs", "3", "--procs", "2"],
    ["gen", "rst", "out", "--level", "0", "--levels", "1"],
]

# Command lines that name no command, or name one and then go wrong.
DISPATCH_FIXED = [
    [], ["-h"], ["--he"], ["--bogus"], ["frobnicate"], ["gen lipton"], ["gen"],
    ["gen", "-h"], ["gen", "bogus"], ["gen", "--", "rst", "out", "--levels", "1", "--level", "0"],
    ["--", "check", "scover", "p1.rvp"], ["check"], ["check", "-h", "--bogus"],
    ["check", "scover", "p1.rvp", "--", "--bogus"],
    ["explore", "protocol", "fig1.rvp", "--procs", "3", "--bogus"],
    ["explore", "protocol", "fig1.rvp", "--procs", "3", "extra", "--bogus=1", "-1"],
    ["gen", "rst", "out", "--levels", "1", "--level", "0", "--bogus", "x"],
    ["translate", "p2cm", "fig1.rvp", "out", "--target", "q3:2", "--target-loc", "x"],
    ["check", "ccover", "p1.rvp", "--target", ""],
]

DISPATCH_INSERTS = ["-h", "--he", "--bogus", "--max", "--procs=2", "--method=guess", "--", "-1",
                    "extra", "--max-procs=3", "--max-p", "--cap", "--level", "", "-"]


def dispatch_inputs(workdir: Path) -> None:
    """Writes every file that ``DISPATCH_VALID`` names into ``workdir``."""
    for name in ("fig1.rvp", "p1.rvp", "p2.rvp"):
        shutil.copy(PROTOCOL_DIR / name, workdir / name)
    (workdir / "m.nbm").write_text(RESTORE_OFF_MACHINE)
    (workdir / "rst.nbm").write_text(RST_MACHINE)
    (workdir / "minsky.nbm").write_text(MINSKY_MACHINE)
    (workdir / "v.vas").write_text("vas v dim 1\ninit 0\ntarget 1\ntrans 1 ; 0\n")


def mutated_command_lines(seed: int, count: int) -> list[list[str]]:
    """``count`` valid command lines, every command in turn, each with one or
    two words inserted from ``DISPATCH_INSERTS`` or dropped."""
    rng = random.Random(seed)
    lines = []
    for i in range(count):
        argv = list(DISPATCH_VALID[i % len(DISPATCH_VALID)])
        for _ in range(rng.choice([1, 1, 2])):
            if rng.random() < 0.7:
                argv.insert(rng.randrange(len(argv) + 1), rng.choice(DISPATCH_INSERTS))
            else:
                del argv[rng.randrange(len(argv))]
        lines.append(argv)
    return lines


def outcome(argv: list[str]) -> tuple[object, str, str]:
    """Exit code (returned or raised), stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def nested_parse(argv: list[str]):
    """The argparse parse of the whole line, with no command table in front."""
    return build_parser().parse_args(argv)


class TestDispatch:
    """``main`` reads a valid line from the command table and sends every other
    line to the one top-level argparse parser, with the same outcome either way."""

    def test_same_outcome_as_nested_parse(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dispatch_inputs(tmp_path)
        codes = set()
        for argv in DISPATCH_FIXED + DISPATCH_VALID + mutated_command_lines(19, 520):
            got = outcome(argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_parse", nested_parse)
                assert got == outcome(argv), argv
            codes.add("help" if got[1].startswith("usage:") else got[0])
        assert codes >= {EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, "help"}

    def test_valid_command_lines_skip_the_top_level_parse(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dispatch_inputs(tmp_path)
        parser, calls = build_parser(), []
        parse_args = parser.parse_args

        def spy(*args, **kwargs):
            calls.append(args)
            return parse_args(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_args", spy)
        for argv in DISPATCH_VALID:
            assert outcome(argv)[0] == EXIT_OK, argv
        assert calls == []
        refused = ["check", "scover", P1, "--max-procs=3"]
        assert outcome(refused) == (EXIT_OK, "RESULT YES\n", "")
        assert calls == [(refused,)]
        calls.clear()
        assert outcome(["frobnicate"])[0] == EXIT_PARSE
        assert calls == [(["frobnicate"],)]

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["nbrv", "check", "scover", P1])
        assert main() == EXIT_OK
        assert capsys.readouterr() == ("RESULT YES\n", "")
        monkeypatch.setattr(sys, "argv", ["nbrv", "explore", "protocol", P1, "--bogus"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == EXIT_PARSE
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "nbrv: error: unrecognized arguments: --bogus"


# Words the table reads as values: ints in every spelling ``int()`` takes,
# and strings that are no option although they hold a ``-`` or an ``=``.
TABLE_INTS = ["0", "3", " 3", "+3", "1_0", "03", "12\n", "\u0663"]
TABLE_STRINGS = ["p1.rvp", "out", "", "a b", " -x", "x=1", "q3:2", "lf"]


def table_value(rng: random.Random, spec: dict) -> list[str]:
    """The words that follow an argument of ``spec``: none for a flag, one
    drawn from its choices, or one int or string."""
    if spec.get("action") == "store_true":
        return []
    if "choices" in spec:
        return [rng.choice(spec["choices"])]
    return [rng.choice(TABLE_INTS if spec.get("type") is int else TABLE_STRINGS)]


def table_command_lines(seed: int, count: int) -> list[list[str]]:
    """``count`` seeded valid command lines, every command of ``cli._COMMANDS``
    in turn: each positional once and in order, each option zero to three
    times with a value drawn each time (required ones at least once),
    options placed anywhere between the positionals."""
    rng = random.Random(seed)
    commands = list(cli._COMMANDS.items())
    lines = []
    for i in range(count):
        words, (_help, _handler, _fixed, arguments) = commands[i % len(commands)]
        chunks, optional = [], []
        for name, spec in arguments:
            if not name.startswith("-"):
                chunks.append(table_value(rng, spec))
                continue
            for _ in range(rng.choice([0, 1, 1, 2, 3]) or int(bool(spec.get("required")))):
                optional.append([name, *table_value(rng, spec)])
        for chunk in optional:
            chunks.insert(rng.randrange(len(chunks) + 1), chunk)
        lines.append([*words, *itertools.chain.from_iterable(chunks)])
    return lines


def leaf_parse(argv: list[str]) -> dict | None:
    """``vars()`` of the argparse parse of ``argv`` without its ``command``
    key, or None when argparse rejects it."""
    with redirect_stderr(io.StringIO()):
        try:
            args = vars(build_parser().parse_args(argv))
        except SystemExit:
            return None
    del args["command"]
    return args


def table_parse(argv: list[str]) -> dict | None:
    words = 2 if argv[0] == "gen" else 1
    args = cli._table_parse(tuple(argv[:words]), argv[words:])
    return None if args is None else vars(args)


class TestCommandTable:
    """A command line that ``cli._table_parse`` reads gives what argparse gives."""

    FIXED = [
        ["check", "scover", "--method", "explore", "p1.rvp"],
        ["check", "--max-procs", "+3", "ccover", "--target", "q3:2", "p1.rvp"],
        ["explore", "protocol", "fig1.rvp", "--procs", "3", "--procs", "2"],
        ["explore", "vas", "v.vas", "--cap", " 3", "--budget", "1_0", "--list", "--list"],
        ["gen", "rst", "--level", "03", "out", "--levels", "1"],
        ["gen", "lipton", "m.nbm", "--levels", "\u0663", "out", "--target-loc", ""],
        ["translate", "cm2p", "--target-loc", "lf", "a b", " -x"],
        ["abstract", "--trace", "x=1"],
    ]

    def test_valid_lines_read_as_argparse_reads_them(self):
        lines = self.FIXED + table_command_lines(29, 1200)
        for argv in lines:
            got = table_parse(argv)
            assert got is not None, argv
            assert got == leaf_parse(argv), argv
        flat = set(itertools.chain.from_iterable(lines))
        assert set(TABLE_INTS) | set(TABLE_STRINGS) <= flat
        assert any(len(argv) != len(set(argv)) for argv in lines)

    def test_lines_the_table_accepts_agree(self):
        """Every mutated line that the table reads is one argparse reads the same
        way; the rest, which argparse reads or rejects, are left to it.  Each
        mutation inserts one or two words, or an option (of this command or
        any other) with a value, or drops one word."""
        options = sorted({name for *_, arguments in cli._COMMANDS.values()
                          for name, _ in arguments if name.startswith("-")})
        values = TABLE_INTS + TABLE_STRINGS + ["scover", "machine", "p2cm", "-1"]
        pool = DISPATCH_INSERTS + values + options
        rng, accepted = random.Random(31), 0
        for argv in table_command_lines(31, 3000):
            words = 2 if argv[0] == "gen" else 1
            own = [name for name, _ in cli._COMMANDS[tuple(argv[:words])][3]
                   if name.startswith("-")]
            for _ in range(rng.choice([1, 1, 2])):
                at = rng.randrange(words, len(argv) + 1)
                if rng.random() < 0.5:
                    argv[at:at] = [rng.choice(rng.choice([own, options])), rng.choice(values)]
                elif rng.random() < 0.6:
                    argv.insert(at, rng.choice(pool))
                elif len(argv) > words:
                    del argv[rng.randrange(words, len(argv))]
            got = table_parse(argv)
            if got is not None:
                accepted += 1
                assert got == leaf_parse(argv), argv
        assert accepted > 200

    @pytest.mark.parametrize("argv", [
        ["check", "scover", "p1.rvp", "--max-procs", "-1"],
        ["check", "scover", "p1.rvp", "--max-procs=3"],
        ["check", "scover", "p1.rvp", "--max-p", "3"],
        ["check", "scover", "p1.rvp", "--max-procs", "three"],
        ["check", "scover", "p1.rvp", "--method", "guess", "--method", "auto"],
        ["check", "scover", "p1.rvp", "--target"],
        ["check", "scover"],
        ["check", "scover", "p1.rvp", "extra"],
        ["check", "scover", "p1.rvp", "--"],
        ["check", "scover", "-"],
        ["check", "scover", "p1.rvp", "-h"],
        ["gen", "rst", "out", "--levels", "1"],
        ["gen", "lipton", "m.nbm", "out", "--level", "1"],
        ["explore", "protocol", "fig1.rvp", "--cap", "2", "--procs", "3", "--trace"],
    ])
    def test_other_lines_go_to_argparse(self, argv):
        assert table_parse(argv) is None


class TestTranslate:
    def test_p2cm_and_explore(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.nbm"
        code, out, _ = run(capsys, "translate", "p2cm", FIG1, str(out_path),
                           "--target", "q2:2")
        assert code == EXIT_OK
        target = [l for l in out.splitlines() if l.startswith("TARGET ")][0].split()[1]
        code2, out2, _ = run(capsys, "explore", "machine", str(out_path),
                             "--loc", target, "--cap", "4")
        assert code2 == EXIT_OK and out2.splitlines()[0] == "RESULT YES"

    def test_cm2p_round(self, capsys, tmp_path):
        machine_path = tmp_path / "m.nbm"
        machine_path.write_text(
            "machine m\nlocations lin lf\ninit lin\ncounters x\nrestore on\n"
            "trans lin inc x lf\n")
        proto_path = tmp_path / "m.rvp"
        code, _, _ = run(capsys, "translate", "cm2p", str(machine_path),
                         str(proto_path), "--target-loc", "lf")
        assert code == EXIT_OK
        code2, out2, _ = run(capsys, "check", "scover", str(proto_path),
                             "--method", "explore", "--max-procs", "3")
        assert code2 == EXIT_OK and out2.splitlines()[0] == "RESULT YES"

    def test_cm2p_requires_restore(self, capsys, tmp_path):
        machine_path = tmp_path / "m.nbm"
        machine_path.write_text(
            "machine m\nlocations lin lf\ninit lin\ncounters x\nrestore off\n"
            "trans lin inc x lf\n")
        code, _, _ = run(capsys, "translate", "cm2p", str(machine_path),
                         str(tmp_path / "m.rvp"), "--target-loc", "lf")
        assert code == EXIT_PRECONDITION

    def test_cm2vas(self, capsys, tmp_path):
        machine_path = tmp_path / "m.nbm"
        machine_path.write_text(
            "machine m\nlocations lin lf\ninit lin\ncounters x\nrestore off\n"
            "trans lin nbdec x lf\n")
        vas_path = tmp_path / "m.vas"
        code, _, _ = run(capsys, "translate", "cm2vas", str(machine_path),
                         str(vas_path), "--target-loc", "lf")
        assert code == EXIT_OK
        v = fileio.parse_vas(vas_path.read_text())
        assert v.dim == 3

    def test_minsky2p_round(self, capsys, tmp_path):
        machine_path = tmp_path / "m.nbm"
        machine_path.write_text(
            "machine m\nlocations l0 l1 lf\ninit l0\ncounters x1 x2\n"
            "restore off\ntrans l0 inc x1 l1\ntrans l1 dec x1 lf\n")
        proto_path = tmp_path / "m.rvp"
        code, _, _ = run(capsys, "translate", "minsky2p", str(machine_path),
                         str(proto_path), "--target-loc", "lf")
        assert code == EXIT_OK
        code2, out2, _ = run(capsys, "check", "synchro", str(proto_path),
                             "--max-procs", "3")
        assert code2 == EXIT_OK and out2.splitlines()[0] == "RESULT YES"

    def test_minsky2p_rejects_nbdec(self, capsys, tmp_path):
        machine_path = tmp_path / "m.nbm"
        machine_path.write_text(
            "machine m\nlocations l0 lf\ninit l0\ncounters x1 x2\n"
            "restore off\ntrans l0 nbdec x1 lf\n")
        code, _, _ = run(capsys, "translate", "minsky2p", str(machine_path),
                         str(tmp_path / "m.rvp"), "--target-loc", "lf")
        assert code == EXIT_PRECONDITION

    def test_outputs_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.nbm", tmp_path / "b.nbm"
        run(capsys, "translate", "p2cm", FIG1, str(a), "--target", "q3:2")
        run(capsys, "translate", "p2cm", FIG1, str(b), "--target", "q3:2")
        assert a.read_bytes() == b.read_bytes()


# The ``gen`` and ``translate`` commands whose outputs ``golden/gen_gadgets.txt``
# pins; IN is a two-location machine.  RST (restore, two counters) and MINSKY
# (two counters) have locations named like the compilers' fresh names, so the
# goldens also pin how those names avoid them.
GEN_RUNS = [
    ["gen", "rst", "OUT", "--levels", "2", "--level", "0"],
    ["gen", "rst", "OUT", "--levels", "2", "--level", "1"],
    ["gen", "rst", "OUT", "--levels", "2", "--level", "2"],
    ["gen", "lipton", "IN", "OUT", "--levels", "2"],
    ["translate", "p2cm", "FIG1", "OUT", "--target", "q3:2"],
    ["translate", "p2cm", "P1", "OUT", "--target", "q2:2"],
    ["translate", "cm2p", "RST", "OUT", "--target-loc", "lf"],
    ["translate", "minsky2p", "MINSKY", "OUT", "--target-loc", "lf"],
    # Level 2 is the first whose loops nest a loop, level 3 the first to nest two.
    ["gen", "rst", "OUT", "--levels", "3", "--level", "2"],
    ["gen", "rst", "OUT", "--levels", "3", "--level", "3"],
]


# One run of each command that writes OUT.
WRITING_RUNS = {argv[1]: argv for argv in GEN_RUNS} | {
    "cm2vas": ["translate", "cm2vas", "IN", "OUT", "--target-loc", "lf"]}


def gen_paths(workdir: Path) -> dict:
    """The paths that the names in ``GEN_RUNS`` stand for; writes the inputs."""
    paths = {"IN": workdir / "toy.nbm", "OUT": workdir / "out.nbm", "FIG1": FIG1, "P1": P1,
             "RST": workdir / "rst.nbm", "MINSKY": workdir / "minsky.nbm"}
    paths["IN"].write_text("machine toy\nlocations lin lf\ninit lin\ncounters x\n"
                           "restore off\ntrans lin inc x lf\n")
    paths["RST"].write_text(RST_MACHINE)
    paths["MINSKY"].write_text(MINSKY_MACHINE)
    return paths


def gen_transcript(workdir: Path) -> str:
    """Each command of ``GEN_RUNS``, what it printed and the machine it wrote.

    After a deliberate change of the gadgets, regenerate the golden file with
    ``PYTHONPATH=src python tests/test_cli.py`` and review the diff.
    """
    paths = gen_paths(workdir)
    parts = []
    for argv in GEN_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(paths.get(a, a)) for a in argv])
        assert (code, err.getvalue()) == (EXIT_OK, "")
        parts.append(f"$ nbrv {' '.join(argv)}\n{out.getvalue()}{paths['OUT'].read_text()}")
    return "".join(parts)


class TestGen:
    def test_outputs_match_golden(self, tmp_path):
        assert gen_transcript(tmp_path) == (GOLDEN_DIR / "gen_gadgets.txt").read_text()

    def test_rst_gadget(self, capsys, tmp_path):
        out_path = tmp_path / "rst.nbm"
        code, out, _ = run(capsys, "gen", "rst", str(out_path),
                           "--levels", "1", "--level", "0")
        assert code == EXIT_OK
        m = fileio.parse_machine(out_path.read_text())
        # two clamp steps per level-0 counter
        assert sum(op.kind == "nbdec" for _s, op, _d in m.transitions) == 12

    def test_compiled_level_one_shell(self, capsys, tmp_path):
        """The level-1 restore shell of fig1's ``p2cm`` machine, compiled back
        to a protocol of 162 states, is covered by 10 processes; its
        ``backward.saturation`` holds 156 of them, pinned by name."""
        nbm, shell, sh1 = tmp_path / "fig1.nbm", tmp_path / "sh1.nbm", tmp_path / "sh1.rvp"
        for argv in (["translate", "p2cm", FIG1, str(nbm), "--target", "q3:2"],
                     ["gen", "lipton", str(nbm), str(shell), "--levels", "1",
                      "--target-loc", "at_20"],
                     ["translate", "cm2p", str(shell), str(sh1), "--target-loc", "at_20"]):
            assert run(capsys, *argv)[0] == EXIT_OK
        code, out, err = run(capsys, "check", "scover", str(sh1), "--method", "explore",
                             "--max-procs", "12")
        assert (code, out.splitlines()[0], err) == (EXIT_OK, "RESULT YES", "")
        p = fileio.parse_protocol(sh1.read_text())
        assert len(p.states) == 162
        sat = saturation(p)
        assert len(sat) == 156
        assert hashlib.sha256(" ".join(sorted(sat)).encode()).hexdigest() == (
            "5cd57b9217c0277ed55dfbc82fb8c536fdc6e2cbf2dd4a27031af10210cfcf58")
        steps = []
        for line in out.splitlines()[1:]:
            _step, label, config = line.split()
            kind, _colon, message = label.partition(":")
            steps.append((StepLabel(kind, message or None), fileio.parse_config(config, p)))
        assert dict(steps[-1][1].items).get(p.final, 0) >= 1
        assert replay(p, Witness(initial(p, 10), tuple(steps)))

    def test_lipton_shell(self, capsys, tmp_path):
        machine_path = tmp_path / "m.nbm"
        machine_path.write_text(
            "machine m\nlocations lin lf\ninit lin\ncounters x\nrestore off\n"
            "trans lin inc x lf\n")
        out_path = tmp_path / "shell.nbm"
        code, out, _ = run(capsys, "gen", "lipton", str(machine_path),
                           str(out_path), "--levels", "1", "--target-loc", "lf")
        assert code == EXIT_OK
        shell = fileio.parse_machine(out_path.read_text())
        assert shell.restore is True
        code2, out2, _ = run(capsys, "explore", "machine", str(out_path),
                             "--loc", "lf", "--cap", "2")
        assert out2.splitlines()[0] == "RESULT YES"


ZERO_TEST_MACHINE = ("machine z\nlocations a b\ninit a\ncounters x\nrestore off\n"
                     "trans a zero? x b\n")
class TestInputFiles:
    """Input files are read through the descriptor and decoded as UTF-8."""

    @pytest.mark.parametrize("data", [
        b"", b"a\r\nb\rc\r\r\nd\n", "\ufeffq\u3000r\x85s\n".encode(), b"abc def\n" * 2000,
    ], ids=["empty", "line-ends", "unicode", "several-reads"])
    def test_lines_match_text_mode(self, tmp_path, data):
        path = tmp_path / "in.rvp"
        path.write_bytes(data)
        assert _read_text(str(path)).splitlines() == path.read_text().splitlines()

    def test_crlf_file_reports_the_same_position(self, capsys, tmp_path):
        text = (PROTOCOL_DIR / "p1.rvp").read_text().replace("trans", "trans ?", 1)
        lf, crlf = tmp_path / "lf.rvp", tmp_path / "crlf.rvp"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        code, _, err = run(capsys, "check", "scover", str(lf))
        assert code == EXIT_PARSE
        assert run(capsys, "check", "scover", str(crlf)) == (
            EXIT_PARSE, "", err.replace("lf.rvp", "crlf.rvp"))

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "none.rvp"
        assert run(capsys, "abstract", str(path)) == (
            EXIT_PARSE, "", f"error: [Errno 2] No such file or directory: '{path}'\n")

    def test_directory_exits_2_and_is_named(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", "scover", str(tmp_path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: [Errno ") and err.endswith(f": '{tmp_path}'\n")

    def test_undecodable_byte_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.rvp"
        # Columns count characters: the bad byte follows three of them.
        path.write_bytes(b"protocol p\r\n# \xc3\xa9\xff\nstates q\n")
        assert run(capsys, "abstract", str(path)) == (
            EXIT_PARSE, "", f"error: {path}:2:4: cannot decode as UTF-8: invalid start byte\n")

    def test_directory_is_named(self, tmp_path):
        with pytest.raises(IsADirectoryError) as exc:
            _read_text(str(tmp_path))
        assert exc.value.filename == str(tmp_path)


class TestOutputFiles:
    """OUT is written in place: an existing file ends up holding exactly the
    bytes a fresh write gives, a device is written without being cut, and a
    path that cannot be opened exits 2 naming it."""

    @staticmethod
    def run_to(capsys, paths: dict, argv: list[str], out) -> tuple[int, str, str]:
        return run(capsys, *(str({**paths, "OUT": out}.get(a, a)) for a in argv))

    # Every output is longer than 10 bytes and shorter than 10 kB.
    @pytest.mark.parametrize("old", [b"#" * 10_000, b"#" * 10], ids=["longer", "shorter"])
    @pytest.mark.parametrize("argv", WRITING_RUNS.values(), ids=WRITING_RUNS)
    def test_overwrite_equals_fresh_write(self, capsys, tmp_path, argv, old):
        paths = gen_paths(tmp_path)
        fresh, existing = tmp_path / "fresh", tmp_path / "existing"
        existing.write_bytes(old)
        result = self.run_to(capsys, paths, argv, fresh)
        assert result[0] == EXIT_OK
        assert self.run_to(capsys, paths, argv, existing) == result
        assert existing.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("argv", WRITING_RUNS.values(), ids=WRITING_RUNS)
    def test_dev_null(self, capsys, tmp_path, argv):
        paths = gen_paths(tmp_path)
        result = self.run_to(capsys, paths, argv, tmp_path / "file")
        assert result[0] == EXIT_OK
        assert self.run_to(capsys, paths, argv, os.devnull) == result

    @pytest.mark.parametrize("argv", WRITING_RUNS.values(), ids=WRITING_RUNS)
    def test_directory(self, capsys, tmp_path, argv):
        out = tmp_path / "dir"
        out.mkdir()
        assert self.run_to(capsys, gen_paths(tmp_path), argv, out) == (
            EXIT_PARSE, "", f"error: [Errno 21] Is a directory: '{out}'\n")

    @pytest.mark.parametrize("argv", WRITING_RUNS.values(), ids=WRITING_RUNS)
    def test_missing_directory(self, capsys, tmp_path, argv):
        out = tmp_path / "none" / "out"
        assert self.run_to(capsys, gen_paths(tmp_path), argv, out) == (
            EXIT_PARSE, "", f"error: [Errno 2] No such file or directory: '{out}'\n")

    def test_new_file_mode_follows_umask(self, capsys, tmp_path):
        out = tmp_path / "new.nbm"
        old_mask = os.umask(0o077)
        try:
            code, _, _ = self.run_to(capsys, {}, WRITING_RUNS["rst"], out)
        finally:
            os.umask(old_mask)
        assert code == EXIT_OK
        assert out.stat().st_mode & 0o777 == 0o600


RESTORE_OFF_MACHINE = ("machine m\nlocations lin lf\ninit lin\ncounters x\nrestore off\n"
                       "trans lin inc x lf\n")
THREE_COUNTER_MACHINE = ("machine t\nlocations l0 lf\ninit l0\ncounters x1 x2 x3\n"
                         "restore off\ntrans l0 inc x1 lf\n")
MINSKY_HEAD = "machine m\nlocations l0 lf\ninit l0\ncounters x1 x2\nrestore {}\n"
PLAIN_MINSKY = "minsky2p takes a plain two-counter machine (no nbdec transitions, restore off)"
MINSKY2P = ["translate", "minsky2p", "IN", "OUT", "--target-loc"]


class TestErrorMap:
    """Model-class errors raised by the library reach the user through ``main`` alone."""

    @pytest.mark.parametrize("machine, argv, message", [
        (None, ["check", "ccover", FIG1, "--target", "q4", "--method", "abstract"],
         "protocol fig1 is not wait-only (mixed states: q5, q_in)"),
        (None, ["abstract", FIG1],
         "protocol fig1 is not wait-only (mixed states: q5, q_in)"),
        (ZERO_TEST_MACHINE, ["translate", "cm2vas", "IN", "OUT", "--target-loc", "b"],
         "z has zero tests; VAS compilation needs a test-free machine"),
        (ZERO_TEST_MACHINE, ["gen", "lipton", "IN", "OUT", "--levels", "1"],
         "z has zero tests"),
        (RESTORE_OFF_MACHINE, ["translate", "cm2p", "IN", "OUT", "--target-loc", "lf"],
         "m is not a test-free restore machine"),
        (THREE_COUNTER_MACHINE, ["translate", "minsky2p", "IN", "OUT", "--target-loc", "lf"],
         "a Minsky machine has exactly two counters"),
        (MINSKY_HEAD.format("off") + "trans l0 nbdec x1 lf\n",
         MINSKY2P + ["lf"], PLAIN_MINSKY),
        (MINSKY_HEAD.format("on") + "trans l0 inc x1 lf\n",
         MINSKY2P + ["lf"], PLAIN_MINSKY),
        (MINSKY_HEAD.format("off") + "trans l0 nop lf\n",
         MINSKY2P + ["lf"], "op 'nop' not allowed in a Minsky machine"),
        (MINSKY_HEAD.format("off") + "trans l0 inc x1 lf\ntrans lf dec x1 l0\n",
         MINSKY2P + ["lf"], "the final location must have no outgoing transition"),
        (MINSKY_HEAD.format("off") + "trans l0 inc x1 lf\n",
         MINSKY2P + ["zz"], "unknown target location 'zz'"),
        (RESTORE_OFF_MACHINE, ["gen", "lipton", "IN", "OUT", "--levels", "0"],
         "need at least one level"),
        (None, ["gen", "rst", "OUT", "--levels", "1", "--level", "5"],
         "level 5 outside 0..1"),
        (RESTORE_OFF_MACHINE, ["gen", "lipton", "IN", "OUT", "--levels", "1", "--target-loc", ""],
         "unknown target location ''"),
        # IN is never written: both flags are refused before it is read.
        (None, ["translate", "p2cm", "IN", "OUT", "--target", "q3:2", "--target-loc", "x"],
         "p2cm takes no --target-loc"),
        (None, ["translate", "cm2p", "IN", "OUT", "--target", "q3:2", "--target-loc", "lf"],
         "cm2p takes no --target"),
        (None, ["check", "scover", FIG1, "--target", "q1"], "scover takes no --target"),
        (RESTORE_OFF_MACHINE, ["explore", "machine", "IN", "--cap", "2"],
         "explore machine requires --loc"),
    ], ids=["check-abstract", "abstract", "cm2vas-zero-test", "lipton-zero-test",
            "cm2p-restore-off", "minsky2p-three-counters", "minsky2p-nbdec",
            "minsky2p-restore-on", "minsky2p-nop", "minsky2p-edge-out-of-final",
            "minsky2p-undeclared-final", "lipton-levels-0", "rst-level-out-of-range",
            "lipton-empty-target-loc", "p2cm-target-loc", "cm2p-target", "scover-target",
            "explore-machine-no-loc"])
    def test_precondition_message(self, capsys, tmp_path, machine, argv, message):
        paths = {"IN": str(tmp_path / "in.nbm"), "OUT": str(tmp_path / "out")}
        if machine is not None:
            Path(paths["IN"]).write_text(machine)
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
        assert (code, out, err) == (EXIT_PRECONDITION, "", f"error: {message}\n")
        assert not Path(paths["OUT"]).exists()

    def test_reachable_count_decodes_nothing(self, capsys, monkeypatch):
        """Without ``--list``, ``explore protocol`` only counts the dense configurations."""
        def refuse(_self, _v):
            raise AssertionError("decode called")

        monkeypatch.setattr(MoveTable, "decode", refuse)
        code, out, _ = run(capsys, "explore", "protocol", P1, "--procs", "3")
        assert code == EXIT_OK and out == "REACHABLE 31\n"


class TestBrokenPipe:
    """A reader that stops early must not turn into a traceback or exit code."""

    @pytest.mark.parametrize("argv", [
        ["check", "scover", P1],
        ["explore", "protocol", P1, "--procs", "10", "--list"],
    ])
    def test_closed_stdout(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(nbrv.__file__).parent.parent))
        try:
            proc = subprocess.run([sys.executable, "-m", "nbrv.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


def test_cold_start_loads_no_dataclasses(tmp_path):
    """A fresh interpreter's ``import nbrv.cli``, and a valid command line of
    each command after it, load neither ``dataclasses`` nor the ``inspect``
    and ``ast`` it pulls in, nor ``argparse`` and its ``gettext``: each costs
    more than a query.  ``-S`` keeps the site hooks of the interpreter from
    loading them first."""
    dispatch_inputs(tmp_path)
    lines = [next(argv for argv in DISPATCH_VALID if tuple(argv[:len(words)]) == words)
             for words in cli._COMMANDS]
    env = dict(os.environ, PYTHONPATH=str(Path(nbrv.__file__).parent.parent))
    code = ("import sys, nbrv.cli; "
            f"codes = [nbrv.cli.main(argv) for argv in {lines!r}]; "
            "print(codes, sorted({'dataclasses', 'inspect', 'ast', 'argparse', 'gettext'}"
            " & set(sys.modules)), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, f"{[EXIT_OK] * 6} []\n")


MACHINE_STACK = ("nbrv.machines", "nbrv.reductions", "nbrv.gadgets")


def machine_stack_loaded(workdir: Path, lines: list[list[str]]) -> list[str]:
    """Runs ``lines`` in turn through ``nbrv.cli.main`` in a fresh ``python
    -S`` interpreter in ``workdir``.  One line per step, after the import
    and after each command line: the exit code (``-`` for the import) and
    the modules of ``MACHINE_STACK`` then loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(nbrv.__file__).parent.parent))
    code = ("import sys, nbrv.cli\n"
            "def report(code):\n"
            f"    print(code, [m for m in {MACHINE_STACK!r} if m in sys.modules], file=sys.stderr)\n"
            "report('-')\n"
            f"for argv in {lines!r}:\n"
            "    report(nbrv.cli.main(argv))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()


def test_protocol_commands_load_no_machine_stack(tmp_path):
    """``import nbrv.cli`` and the protocol commands (``check`` under
    ``auto`` on a wait-only and on a mixed protocol and under ``explore``,
    ``abstract``, ``explore protocol``) never import the counter-machine
    stack: they would pay its import and never run it."""
    dispatch_inputs(tmp_path)
    lines = [
        ["check", "scover", "p1.rvp"],  # the abstract engine
        ["check", "scover", "fig1.rvp"],  # the backward engine
        ["check", "ccover", "fig1.rvp", "--target", "q6:2", "--method", "explore"],
        ["check", "synchro", "p2.rvp", "--max-procs", "2"],
        ["abstract", "p2.rvp", "--trace"],
        ["explore", "protocol", "fig1.rvp", "--procs", "2", "--list"],
    ]
    assert machine_stack_loaded(tmp_path, lines) == ["- []"] + ["0 []"] * len(lines)


@pytest.mark.parametrize("argv, loads", [
    (["explore", "vas", "v.vas", "--cap", "2"], MACHINE_STACK[:1]),
    (["explore", "machine", "m.nbm", "--loc", "lf", "--cap", "1", "--budget", "50"],
     MACHINE_STACK[:1]),
    (["translate", "cm2vas", "m.nbm", "out", "--target-loc", "lf"], MACHINE_STACK[:2]),
    (["gen", "rst", "out", "--levels", "1", "--level", "0"], MACHINE_STACK),
], ids=["explore-vas", "explore-machine", "translate-cm2vas", "gen-rst"])
def test_machine_commands_load_what_they_run(tmp_path, argv, loads):
    """A machine command imports the part of the counter-machine stack it
    runs, in its own handler: ``machines`` for a search, ``reductions`` to
    translate and ``gadgets`` to generate (each imports the ones before)."""
    dispatch_inputs(tmp_path)
    assert machine_stack_loaded(tmp_path, [argv]) == ["- []", f"0 {list(loads)}"]


def readme_examples() -> list[tuple[list[str], str]]:
    """The ``$ nbrv`` commands of README.md, each with the output shown under it."""
    examples = []
    lines = README.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ nbrv "):
            shown = itertools.takewhile(lambda l: l and l != "```", lines[i + 1:])
            examples.append((line.split()[2:], "".join(l + "\n" for l in shown)))
    return examples


def test_readme_examples(capsys, tmp_path):
    examples = readme_examples()
    assert len(examples) == 4
    for argv, shown in examples:
        args = [str(PROTOCOL_DIR.parent / a) if a.startswith("protocols/")
                else str(tmp_path / Path(a).name) if a.endswith(".nbm") else a
                for a in argv]
        assert run(capsys, *args) == (EXIT_OK, shown, "")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN_DIR / "gen_gadgets.txt").write_text(gen_transcript(Path(tmp)))
