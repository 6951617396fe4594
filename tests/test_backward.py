from __future__ import annotations

import hashlib
import random
import re
from collections import Counter

import pytest

from conftest import PROTOCOL_DIR, load_protocol
from helpers import (
    backward_cover,
    random_config,
    random_protocol,
    random_wait_only,
    wait_only_chain,
    with_self_rendezvous,
)
from nbrv import backward, cli, explore, fileio, waitonly
from nbrv.backward import EngineDisagreementError, decide, first_population, saturation
from nbrv.explore import Problem, Verdict, decide_sweep
from nbrv.model import Configuration, Protocol, recv, tau


def cfg(**counts: int) -> Configuration:
    return Configuration.from_counts(counts)


class TestAgainstOracle:
    def test_agrees_with_p2cm_backward_search(self):
        """The p2cm-route oracle decides each query the same way; every YES
        population is the first one the explorer's sweep covers at.

        The saturation is also exactly the set of coverable states on these
        protocols.  A looser saturation (say, one that adds ``r'`` for
        ``r ?m r'`` without asking for a sender of ``m``) gives the same
        answers but lets vectors through that no run can reach.
        """
        rng = random.Random(41)
        answers = {"yes": 0, "no": 0}
        for k in range(2000):
            p = random_protocol(rng, max_q=6)
            if k % 4 == 0:
                p = with_self_rendezvous(rng, p)
            target = random_config(rng, p)
            found = first_population(p, target)
            assert (found.answer == "yes") == backward_cover(p, target), (k, target)
            answers[found.answer] += 1
            if found.is_yes():
                n = found.explored_bound
                swept = decide_sweep(p, Problem("ccover", target), n)
                assert swept.is_yes() and swept.explored_bound == n, (k, target, n)
            covered = {q for q in p.states if first_population(p, cfg(**{q: 1})).is_yes()}
            assert saturation(p) == covered, k
        assert min(answers.values()) > 500, answers

    def test_agrees_with_abstract_engine_on_wait_only(self):
        rng = random.Random(42)
        for k in range(500):
            p = random_wait_only(rng)
            target = random_config(rng, p)
            want = waitonly.decide_cover(p, target).answer
            assert first_population(p, target).answer == want, (k, target)


class TestSearch:
    def test_fig1(self, fig1):
        assert first_population(fig1, cfg(q4=1)).answer == "no"
        assert first_population(fig1, cfg(q6=2)).explored_bound == 3
        assert first_population(fig1, cfg(q_in=4)).explored_bound == 4

    def test_target_outside_saturation(self):
        # Nothing sends m, so b is never occupied.
        p = Protocol("p", ["a", "b"], ["m"], "a", "b", [("a", recv("m"), "b")])
        assert saturation(p) == {"a"}
        assert first_population(p, cfg(b=1)) == Verdict("no", stats={"pops": 0, "basis": 0})

    def test_stats_and_pop_budget(self, fig1):
        found = first_population(fig1, cfg(q6=2))
        assert found.stats == {"pops": 5, "basis": 7}
        cut = first_population(fig1, cfg(q6=2), budget=4)
        assert (cut.answer, cut.note, cut.stats) == ("unknown", "budget", {"pops": 4, "basis": 7})

    def test_chain_within_a_small_pop_budget(self):
        # Smallest sum first, ties to the larger init count, and the
        # saturation keep this family to a few hundred pops at k = 20.
        found = first_population(wait_only_chain(20), cfg(s20=1, w19=2), budget=1000)
        assert (found.answer, found.explored_bound) == ("yes", 3)


class TestWork:
    def test_work_is_pinned(self):
        """``(answer, explored_bound, pops, basis)`` on 800 seeded protocols,
        a third with a self rendez-vous, half of the targets drawn inside
        the saturation with counts up to 4.

        The digest was recorded from the search that kept single-process
        rules and rendez-vous in two lists with a loop each: the one loop
        over ``Protocol.rules`` pops the same vectors and keeps the same
        bases.
        """
        rng = random.Random(44)
        digest = hashlib.sha256()
        answers = Counter()
        for k in range(800):
            p = random_protocol(rng, max_q=7, max_t=14)
            if k % 3 == 0:
                p = with_self_rendezvous(rng, p)
            if k % 2:
                target = random_config(rng, p)
            else:
                sat = sorted(saturation(p))
                target = Configuration.from_counts(
                    {rng.choice(sat): rng.randint(1, 4) for _ in range(rng.randint(1, 3))})
            found = first_population(p, target, budget=100)
            row = (found.answer, found.explored_bound, found.stats["pops"], found.stats["basis"])
            digest.update(repr(row).encode())
            answers[found.answer] += 1
        assert answers == {"yes": 592, "no": 205, "unknown": 3}
        assert digest.hexdigest() == (
            "fba772061a45028c882f462720732c0d570c6d512eed65754b4462c178163d5f")


class TestDecide:
    def test_yes_is_the_explorer_verdict(self, fig1):
        prob = Problem("ccover", cfg(q6=2))
        verdict = decide(fig1, prob, 8)
        swept = decide_sweep(fig1, prob, 8)
        assert (verdict.answer, verdict.witness) == ("yes", swept.witness)
        assert verdict.stats == {"pops": 5, "basis": 7}

    def test_yes_above_max_n_is_unknown(self, fig1):
        verdict = decide(fig1, Problem("ccover", cfg(q6=2)), 2)
        assert (verdict.answer, verdict.note, verdict.explored_bound) == ("unknown", "", 2)

    def test_no_carries_stats(self, fig1):
        verdict = decide(fig1, Problem("ccover", cfg(q4=1)), 8)
        assert verdict.answer == "no" and set(verdict.stats) == {"pops", "basis"}

    @pytest.mark.parametrize("kind", ["scover", "synchro"])
    def test_agrees_with_the_sweep(self, kind):
        # Same verdict and witness as the sweep, except that a NO is exact
        # where the sweep can only say UNKNOWN.
        rng = random.Random(43)
        prob = Problem(kind)
        answers = set()
        for k in range(300):
            p = random_protocol(rng, max_q=5)
            verdict, swept = decide(p, prob, 4), decide_sweep(p, prob, 4)
            if verdict.answer == "no":
                assert swept.answer == "unknown", k
            else:
                assert (verdict.answer, verdict.witness) == (swept.answer, swept.witness), k
            answers.add(verdict.answer)
        assert {"yes", "no"} <= answers

    def test_pop_budget_is_unknown(self, fig1):
        for kind in ("scover", "synchro"):
            verdict = decide(fig1, Problem(kind), 8, budget=0)
            assert (verdict.answer, verdict.note) == ("unknown", "budget")

    def test_synchro_no_when_final_is_not_coverable(self):
        p = Protocol("p", ["a", "b", "c"], ["m"], "a", "c",
                     [("a", tau(), "b"), ("b", recv("m"), "c")])
        assert decide(p, Problem("synchro"), 8).answer == "no"

    def test_explorer_disagreement_raises(self, fig1, monkeypatch):
        monkeypatch.setattr(explore, "decide_ordered", lambda *args: Verdict("no"))
        with pytest.raises(EngineDisagreementError):
            backward.decide(fig1, Problem("ccover", cfg(q6=2)), 8)


NOT_WAIT_ONLY = "error: protocol fig1 is not wait-only (mixed states: q5, q_in)"
NO_SYNCHRO = "error: the abstract analysis does not decide synchro"
# The first line ``nbrv check`` prints, by protocol and problem, for the
# methods explore, abstract, backward and auto.
CHECK_FIRST_LINES = {
    ("p1.rvp", "scover"): ("RESULT YES", "RESULT YES", "RESULT YES", "RESULT YES"),
    ("p1.rvp", "ccover"): ("RESULT UNKNOWN", "RESULT NO", "RESULT NO", "RESULT NO"),
    ("p1.rvp", "synchro"): ("RESULT UNKNOWN", NO_SYNCHRO, "RESULT UNKNOWN", "RESULT UNKNOWN"),
    ("fig1.rvp", "scover"): ("RESULT YES", NOT_WAIT_ONLY, "RESULT YES", "RESULT YES"),
    ("fig1.rvp", "ccover"): ("RESULT YES", NOT_WAIT_ONLY, "RESULT YES", "RESULT YES"),
    ("fig1.rvp", "synchro"): ("RESULT UNKNOWN", NO_SYNCHRO, "RESULT UNKNOWN", "RESULT UNKNOWN"),
}


class TestMethod:
    """``decide`` with a method is the decision of ``nbrv check --method``."""

    @pytest.mark.parametrize("method", backward.METHODS)
    @pytest.mark.parametrize("kind", ["scover", "ccover", "synchro"])
    @pytest.mark.parametrize("name, target", [("p1.rvp", "q1,q3"), ("fig1.rvp", "q6:2")])
    def test_gives_the_check_verdict(self, name, target, kind, method, capsys):
        argv = ["check", kind, str(PROTOCOL_DIR / name), "--method", method]
        if kind == "ccover":
            argv += ["--target", target]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        want = dict(zip(("explore", "abstract", "backward", "auto"), CHECK_FIRST_LINES[name, kind]))
        assert (out or err).splitlines()[0] == want[method]
        p = load_protocol(name)
        prob = Problem(kind, fileio.parse_config(target, p) if kind == "ccover" else None)
        try:
            verdict = decide(p, prob, 8, method=method)
        except ValueError as exc:
            assert (code, out, err) == (3, "", f"error: {exc}\n")
            return
        cli._print_verdict(verdict, lambda label, c: f"{label} {c}")
        assert (code, err, capsys.readouterr().out) == (0, "", out)

    def test_refusals_keep_their_messages(self, p1, fig1):
        with pytest.raises(ValueError, match="^the abstract analysis does not decide synchro$"):
            decide(p1, Problem("synchro"), 8, method="abstract")
        message = "protocol fig1 is not wait-only (mixed states: q5, q_in)"
        with pytest.raises(waitonly.NotWaitOnlyError, match=f"^{re.escape(message)}$"):
            decide(fig1, Problem("scover"), 8, method="abstract")

    def test_unknown_method(self, p1):
        with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
            decide(p1, Problem("scover"), 8, method="bogus")
