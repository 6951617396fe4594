from __future__ import annotations

import gc
import random
import weakref
from collections import Counter, deque
from functools import cache, partial
from math import comb

import pytest

from conftest import PROTOCOL_DIR, load_protocol
from helpers import (
    WITNESS_MUTATIONS,
    bad_witnesses,
    covers,
    initial,
    ordered_decide_fixed,
    ordered_decide_sweep,
    ordered_reachable,
    random_config,
    random_protocol,
    spec_successors,
    with_self_rendezvous,
)
from nbrv import cli, explore
from nbrv.explore import (
    Problem,
    ResourceLimitError,
    Verdict,
    _meets,
    decide_fixed,
    decide_ordered,
    decide_sweep,
    reachable,
    replay,
    search,
)
from nbrv.machines import (
    NBDEC,
    NOP,
    CounterMachine,
    CounterOp,
    Vas,
    cover_bounded,
    vas_cover_bounded,
)
from nbrv.model import (
    Configuration,
    MoveTable,
    Protocol,
    StepLabel,
    dense_moves,
    recv,
    send,
    tau,
)


def cfg(**counts: int) -> Configuration:
    return Configuration.from_counts(counts)


def reached(p: Protocol, n: int) -> set[Configuration]:
    """``reachable``'s packed configurations in their sparse form."""
    t, configs = reachable(p, n)
    return set(map(t.decode, configs))


class TestReachable:
    def test_fig1_single_process(self, fig1):
        assert reached(fig1, 1) == {cfg(q_in=1), cfg(q5=1), cfg(q6=1)}

    def test_fig1_two_processes_contains_final(self, fig1):
        assert cfg(q2=2) in reached(fig1, 2)

    def test_no_transitions(self):
        p = Protocol("p", ["a"], [], "a", "a", [])
        assert reached(p, 3) == {cfg(a=3)}
        assert reachable(p, 3)[1] == {3}  # the packed form: one count field per state

    def test_budget_enforced(self, fig1):
        with pytest.raises(ResourceLimitError):
            reachable(fig1, 6, budget=5)

    def test_matches_spec_search(self):
        rng = random.Random(25)
        for _ in range(60):
            p = random_protocol(rng, max_q=4, max_t=8)
            for n in range(1, 5):
                start = Configuration(((p.init, n),))
                seen, queue = {start}, deque([start])
                while queue:
                    for _label, nxt in spec_successors(p, queue.popleft()):
                        if nxt not in seen:
                            seen.add(nxt)
                            queue.append(nxt)
                assert reached(p, n) == seen


def spec_reached(p: Protocol, n: int, budget: int) -> set[Configuration] | None:
    """The configurations ``spec_successors`` reaches from ``n`` processes,
    or ``None`` when there are more than ``budget`` of them."""
    start = Configuration(((p.init, n),))
    seen, queue = {start}, deque([start])
    while queue:
        for _label, nxt in spec_successors(p, queue.popleft()):
            if nxt not in seen:
                if len(seen) >= budget:
                    return None
                seen.add(nxt)
                queue.append(nxt)
    return seen


def signature(p: Protocol, c: Configuration) -> tuple[frozenset, frozenset]:
    """The occupied states of ``c``, and those of its states that send a
    message they also receive holding two processes or more."""
    shared = {q for q, m, _qp in p.sends if q in p.receivers_of[m]}
    counts = dict(c.items)
    return frozenset(counts), frozenset(q for q in shared if counts.get(q, 0) >= 2)


class TestLevels:
    def test_one_table_serves_every_smaller_population(self):
        rng = random.Random(28)
        full = 0
        for k in range(60):
            p = random_protocol(rng, max_q=4, max_m=2, max_t=8)
            if k % 3 == 0:
                p = with_self_rendezvous(rng, p)
            t = p.moves(6)
            for n in range(1, 7):
                want = spec_reached(p, n, 300)
                if want is None:
                    with pytest.raises(ResourceLimitError):
                        reachable(p, n, budget=300)
                    continue
                got_t, got = reachable(p, n, budget=300)
                assert got_t is t and set(map(t.decode, got)) == want, (k, n)
                full += 1
        assert full > 250, full

    @pytest.mark.parametrize("n", range(1, 9))
    def test_no_counts_levels_and_signatures(self, n):
        # A fresh protocol, so that the memo holds this search's signatures only.
        p = load_protocol("fig1.rvp")
        dist = {initial(p, n): 0}
        queue = deque(dist)
        while queue:
            cur = queue.popleft()
            for _label, nxt in spec_successors(p, cur):
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        verdict = decide_fixed(p, Problem("ccover", cfg(q4=1)), n)
        assert verdict.answer == "no"
        assert verdict.stats == {"visited": len(dist), "depth": max(dist.values()),
                                 "signatures": len({signature(p, c) for c in dist})}
        if n == 5:
            assert verdict.stats == {"visited": 35, "depth": 8, "signatures": 26}


class TestPackedWidth:
    """A table of width ``b`` holds counts up to ``2**b - 1``: populations on
    either side of each width boundary, whichever table was compiled first."""

    SIZES = (1, 3, 4, 7, 8, 15, 16)

    def test_reachable_matches_spec_search(self):
        rng = random.Random(27)
        full = {n: 0 for n in self.SIZES}
        for k in range(99):
            p = random_protocol(rng, max_q=4, max_m=2, max_t=6)
            if k % 3 == 0:
                p = with_self_rendezvous(rng, p)
            # Every other protocol compiles its widest table first.
            for n in self.SIZES if k % 2 else self.SIZES[::-1]:
                want = spec_reached(p, n, 150)
                if want is None:
                    with pytest.raises(ResourceLimitError):
                        reachable(p, n, budget=150)
                    continue
                t, got = reachable(p, n, budget=150)
                assert set(map(t.decode, got)) == want, (k, n)
                full[n] += 1
        assert min(full.values()) > 30, full

    def test_reachable_decodes_after_a_wider_search(self):
        # A wider search compiles a wider table on the protocol; the table
        # ``reachable`` returned still decodes its own configurations.
        p = load_protocol("fig1.rvp")
        t, got = reachable(p, 3)
        reachable(p, 16)
        assert p.moves(3).width > t.width
        assert set(map(t.decode, got)) == spec_reached(p, 3, 10_000)

    def test_target_count_above_the_field(self, fig1):
        # Seven processes take three bits per count: 9 does not fit, and no
        # configuration of seven processes covers q4:9.
        verdict = decide_sweep(fig1, Problem("ccover", cfg(q4=9)), 7)
        assert (verdict.answer, verdict.explored_bound) == ("unknown", 7)

    def test_witness_on_a_wider_table(self, fig1):
        # The sweep compiles five-bit fields (four count bits and a guard bit)
        # for 8 processes; the witness is found at 3 processes on that table.
        verdict = decide_sweep(fig1, Problem("ccover", cfg(q6=2)), 8)
        assert [(str(label), str(c)) for label, c in verdict.witness.steps] == [
            ("nb:a", "q5,q_in:2"), ("msg:b", "q1,q6,q_in"),
            ("nb:a", "q1,q5,q6"), ("nb:b", "q1,q6:2")]
        assert fig1.moves(1).width == 5


class TestDecideFixed:
    def test_fig1_scover_final_two_steps(self, fig1):
        verdict = decide_fixed(fig1, Problem("scover"), 2)
        assert verdict.is_yes()
        assert len(verdict.witness.steps) == 2
        assert [str(l) for l, _ in verdict.witness.steps] == ["nb:a", "msg:b"]
        assert replay(fig1, verdict.witness)

    def test_fig1_scover_q4_no(self, fig1):
        q4 = Protocol(fig1.name, fig1.states, fig1.messages, fig1.init, "q4",
                      fig1.transitions)
        assert decide_fixed(q4, Problem("scover"), 4).answer == "no"

    def test_fig1_synchro_q2(self, fig1):
        q2 = Protocol(fig1.name, fig1.states, fig1.messages, fig1.init, "q2",
                      fig1.transitions)
        verdict = decide_fixed(q2, Problem("synchro"), 2)
        assert verdict.is_yes()
        assert verdict.witness.steps[-1][1] == cfg(q2=2)

    def test_initial_configuration_can_satisfy(self):
        p = Protocol("p", ["a"], [], "a", "a", [])
        verdict = decide_fixed(p, Problem("synchro"), 2)
        assert verdict.is_yes() and verdict.witness.steps == ()

    def test_completeness_matches_reachable_scan(self, fig1):
        rng = random.Random(21)
        for _ in range(60):
            p = random_protocol(rng, max_q=4, max_t=8)
            target = random_config(rng, p, max_items=2)
            prob = Problem("ccover", target)
            for n in (1, 2, 3):
                verdict = decide_fixed(p, prob, n)
                scan = any(covers(c, target) for c in reached(p, n))
                assert verdict.is_yes() == scan


class TestDecideSweep:
    def test_fig1_scover_yes_at_two(self, fig1):
        verdict = decide_sweep(fig1, Problem("scover"), 4)
        assert verdict.is_yes()
        assert verdict.witness.initial == cfg(q_in=2)

    def test_fig1_scover_q4_unknown(self, fig1):
        q4 = Protocol(fig1.name, fig1.states, fig1.messages, fig1.init, "q4",
                      fig1.transitions)
        verdict = decide_sweep(q4, Problem("scover"), 6)
        assert verdict.answer == "unknown"
        assert verdict.explored_bound == 6

    def test_fig1_ccover_three_q3(self, fig1):
        verdict = decide_sweep(fig1, Problem("ccover", cfg(q3=3)), 8)
        assert verdict.is_yes()
        assert replay(fig1, verdict.witness)
        assert covers(verdict.witness.steps[-1][1], cfg(q3=3))

    def test_budget_ends_sweep_with_unknown(self, fig1):
        # Population 13 is the first whose search exceeds 300 nodes.
        verdict = decide_sweep(fig1, Problem("ccover", cfg(q4=1)), 30, budget=300)
        assert verdict.answer == "unknown" and verdict.note == "budget"
        assert verdict.explored_bound == 12

    def test_never_answers_no(self, fig1):
        rng = random.Random(22)
        for _ in range(40):
            p = random_protocol(rng, max_q=4)
            verdict = decide_sweep(p, Problem("scover"), 3)
            assert verdict.answer in ("yes", "unknown")


class TestDecideOrdered:
    def test_no_visits_every_reachable_configuration(self, fig1):
        # No population of fig1 covers q4, so each search exhausts it.
        for n in range(1, 5):
            verdict = decide_ordered(fig1, Problem("ccover", cfg(q4=1)), n)
            assert (verdict.answer, verdict.explored_bound) == ("no", n)
            assert verdict.stats["visited"] == len(reachable(fig1, n)[1])


class TestReplay:
    """``replay`` accepts an explorer witness and rejects each one-change corruption of it."""

    @pytest.fixture
    def witness(self, fig1):
        verdict = decide_sweep(fig1, Problem("ccover", cfg(q6=2)), 8)
        assert verdict.witness.steps[0][0] == StepLabel("nb", "a")
        return verdict.witness

    def test_accepts_the_search_witness(self, fig1, witness):
        assert replay(fig1, witness) is True

    @pytest.mark.parametrize("mutation", WITNESS_MUTATIONS)
    def test_rejects_a_bad_witness(self, fig1, witness, mutation):
        bad = bad_witnesses(witness, StepLabel("msg", "a"))[mutation]
        assert replay(fig1, bad) is False


class TestWitnesses:
    def test_all_yes_witnesses_replay(self):
        rng = random.Random(23)
        for _ in range(150):
            p = random_protocol(rng, max_q=4, max_t=8)
            target = random_config(rng, p, max_items=2)
            verdict = decide_sweep(p, Problem("ccover", target), 4)
            if verdict.is_yes():
                assert replay(p, verdict.witness)
                w = verdict.witness
                assert covers(w.steps[-1][1] if w.steps else w.initial, target)

    def test_population_monotonicity_of_yes(self):
        rng = random.Random(24)
        checked = 0
        for _ in range(80):
            p = random_protocol(rng, max_q=4, max_t=8)
            target = random_config(rng, p, max_items=2)
            for kind in ("scover", "ccover"):
                prob = Problem(kind, target if kind == "ccover" else None)
                for n in (1, 2, 3):
                    if decide_fixed(p, prob, n).is_yes():
                        assert decide_fixed(p, prob, n + 1).is_yes()
                        checked += 1
        assert checked > 30


def configurations(p: Protocol, n: int) -> int:
    """How many configurations ``n`` processes of ``p`` have, ``C(n + |Q| - 1,
    |Q| - 1)``: ``decide_fixed`` decides a ``synchro`` population from both
    ends when they fit in its budget."""
    places = len(p.states) - 1
    return comb(n + places, places)


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ``ResourceLimitError`` it raised."""
    try:
        return fn(*args)
    except ResourceLimitError as exc:
        return ("overflow", str(exc))


class TestOrderFreeSearch:
    """The explorer first searches unordered moves; every answer, witness,
    stat and overflow is the one a single search on the label-ordered
    successors gives."""

    def test_matches_one_ordered_search(self):
        rng = random.Random(26)
        seen = {"yes": 0, "no": 0, "unknown": 0, "overflow": 0}
        for k in range(120):
            p = random_protocol(rng, max_m=2)
            if k % 3 == 0:
                p = with_self_rendezvous(rng, p)
            problems = [Problem("scover"), Problem("synchro"),
                        Problem("ccover", random_config(rng, p, max_items=2))]
            for n in range(1, 5):
                size = len(reachable(p, n)[1])
                for budget in {max(1, size - 1), size, size + 1}:
                    assert (outcome(reachable, p, n, budget)
                            == outcome(ordered_reachable, p, n, budget))
                    for prob in problems:
                        got = outcome(decide_fixed, p, prob, n, budget)
                        want = outcome(ordered_decide_fixed, p, prob, n, budget)
                        if prob.kind == "synchro" and configurations(p, n) <= budget:
                            # Decided from both ends: a NO counts that search.
                            assert got.stats.keys() == want.stats.keys()
                            got = got._replace(stats=want.stats)
                        assert got == want
                        seen[got.answer if isinstance(got, Verdict) else got[0]] += 1
                        got = decide_sweep(p, prob, n, budget)
                        assert got == ordered_decide_sweep(p, prob, n, budget)
                        seen[got.answer] += 1
        assert min(seen.values()) > 100, seen

    def test_ordered_pass_meets_the_goal_before_the_budget(self):
        # From i:2, the send !a has no receiver (nb:a, to i,x) and !b meets
        # i ?b r (msg:b, to g,r).  The table tries !a first; label order puts
        # every rendez-vous before every non-blocking step.
        p = Protocol("p", ["g", "i", "r", "x"], ["a", "b"], "i", "g",
                     [("i", send("a"), "x"), ("i", send("b"), "g"), ("i", recv("b"), "r")])
        t, prob = p.moves(2), Problem("scover")
        with pytest.raises(ResourceLimitError):
            search(t.encode(initial(p, 2)), partial(dense_moves, t), budget=2,
                   overflow="budget", goal=prob.goal(p, t, 2))
        verdict = decide_fixed(p, prob, 2, budget=2)
        assert verdict == ordered_decide_fixed(p, prob, 2, 2)
        assert [(str(label), str(c)) for label, c in verdict.witness.steps] == [("msg:b", "g,r")]


@cache
def synchro_protocols() -> tuple[Protocol, ...]:
    """2,100 seeded protocols, a third of them with a self rendez-vous."""
    rng = random.Random(27)
    out = []
    for k in range(2100):
        p = random_protocol(rng)
        out.append(with_self_rendezvous(rng, p) if k % 3 == 0 else p)
    return tuple(out)


def meets_disagreement() -> tuple:
    """The first ``(protocol, n)``, for ``n`` from 1 to 5, at which the search
    from both ends and forward reachability disagree on whether ``n * final``
    is reachable, else ``None``; and how often each answer came before it."""
    seen = {True: 0, False: 0}
    for p in synchro_protocols():
        t = p.moves(5)
        for n in range(1, 6):
            full = n << t.shift[p.final]
            got = _meets(t, n << t.shift[p.init], full) is None
            if got != (full in reachable(p, n)[1]):
                return (p, n), seen
            seen[got] += 1
    return None, seen


class TestSearchFromBothEnds:
    """A ``synchro`` population whose configurations all fit in the budget is
    decided from both ends; every verdict is the one a single label-ordered
    search per population gives."""

    def test_meets_matches_forward_reachability(self):
        found, seen = meets_disagreement()
        assert found is None
        assert min(seen.values()) > 3000, seen

    def test_sweep_matches_one_ordered_search(self):
        prob = Problem("synchro")
        seen = Counter()
        for p in synchro_protocols():
            places = len(p.states) - 1
            for n in range(1, 6):
                size, bound = len(reachable(p, n)[1]), comb(n + places, places)
                for budget in {max(1, size - 1), size, size + 1, bound - 1, bound}:
                    got = decide_sweep(p, prob, n, budget, start=n)
                    assert got == ordered_decide_sweep(p, prob, n, budget, start=n), (p, n)
                    seen[bound <= budget, got.answer, got.note] += 1
        assert seen[True, "yes", ""] > 1000 and seen[True, "unknown", ""] > 1000, seen
        assert seen[False, "yes", ""] > 1000 and seen[False, "unknown", "budget"] > 1000, seen

    def test_fixed_matches_one_ordered_search(self):
        prob = Problem("synchro")
        seen = Counter()
        for p in synchro_protocols():
            for n in range(1, 6):
                # The smallest budget that every configuration fits in.
                budget = configurations(p, n)
                got = decide_fixed(p, prob, n, budget)
                want = ordered_decide_fixed(p, prob, n, budget)
                assert got._replace(stats={}) == want._replace(stats={}), (p, n)
                assert got.stats.keys() == want.stats.keys()
                seen[got.answer] += 1
        assert min(seen.values()) > 1000, seen

    def test_mutant_without_lone_sends_fails(self, monkeypatch):
        # A lone non-blocking send has a rank above every rendez-vous rank.
        full = MoveTable.back.fget
        monkeypatch.setattr(MoveTable, "back", property(
            lambda t: tuple([m for m in full(t) if t.order[m[1][0]][0] != "nb"])))
        assert meets_disagreement()[0] is not None

    def test_mutant_without_the_memo_check_fails(self, monkeypatch):
        def unchecked(t, frontier):
            return {u for c in frontier for delta, _move in t.back if not (u := c - delta) & t.high}

        monkeypatch.setattr(explore, "preimage", unchecked)
        assert meets_disagreement()[0] is not None

    def test_p1_visits_few_configurations(self, monkeypatch, capsys):
        # Every step into q7 leaves its sender in q4, so n * q7 has no
        # predecessor, and the backward side closes at once.
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                out = fn(*args)
                counts[name] += len(out) if isinstance(out, set) else 1
                return out
            return wrapper

        for name in ("image", "preimage", "successors", "decide_fixed"):
            monkeypatch.setattr(explore, name, counted(name, getattr(explore, name)))
        assert cli.main(["check", "synchro", str(PROTOCOL_DIR / "p1.rvp"),
                         "--max-procs", "16"]) == 0
        assert capsys.readouterr().out == "RESULT UNKNOWN\n"
        # The sweep runs from population 2, the first that covers q7, to 16,
        # and decides each one from both ends.
        assert counts["successors"] == 0 and counts["decide_fixed"] == 15, counts
        # The sweep sees 45 configurations; saturating each population
        # forward, as the level-by-level pass does, sees 44,125.
        assert counts["image"] + counts["preimage"] <= 60, counts


class TestFirstLabel:
    """Two labels lead from one node to the same successor: the witness shows the first."""

    def test_protocol(self):
        # No state receives m, so the send is a lone non-blocking step to b.
        p = Protocol("p", ["a", "b"], ["m"], "a", "b",
                     [("a", tau(), "b"), ("a", send("m"), "b")])
        verdict = decide_fixed(p, Problem("scover"), 1)
        assert [(str(label), str(c)) for label, c in verdict.witness.steps] == [("tau", "b")]

    def test_machine(self):
        nop = ("l0", CounterOp(NOP), "l1")
        m = CounterMachine("m", ["l0", "l1"], ["x"], "l0",
                           [nop, ("l0", CounterOp(NBDEC, "x"), "l1")])
        assert [label for label, _cfg in cover_bounded(m, "l1", 1).witness.steps] == [nop]

    def test_vas(self):
        # At (1, 0) both transitions give (0, 1): the clamp part has nothing to take.
        first, second = ((-1, 1), (0, 0)), ((-1, 1), (1, 0))
        vas = Vas("v", 2, (first, second), (1, 0), (0, 1))
        assert vas_cover_bounded(vas, 1).witness.steps == ((first, (0, 1)),)


def test_problem_validation(fig1):
    with pytest.raises(ValueError):
        Problem("ccover")
    with pytest.raises(ValueError):
        Problem("scover", Configuration((("a", 1),)))
    with pytest.raises(ValueError):
        Problem("cover")
    target = Configuration((("q3", 2), ("q4", 1)))
    assert Problem("ccover", target).cover(fig1) is target
    assert Problem("scover").cover(fig1) == Configuration((("q1", 1),))
    # A synchro YES needs every process in final: covering one is necessary.
    assert Problem("synchro").cover(fig1) == Configuration((("q1", 1),))


@pytest.mark.parametrize("at_goal", [True, False])
def test_search_counts_its_start(at_goal):
    # As in the level-by-level pass, the start is the first node admitted:
    # a budget of 0 admits nothing, even a start that meets the goal.
    def succ(v):
        return [("inc", v + 1)]

    def goal(v):
        return v == 0 if at_goal else False

    with pytest.raises(ResourceLimitError, match="over"):
        search(0, succ, budget=0, overflow="over", goal=goal)
    if at_goal:
        assert search(0, succ, budget=1, overflow="over", goal=goal) == ({0: None}, 0, 0)
    else:
        with pytest.raises(ResourceLimitError, match="over"):
            search(0, succ, budget=1, overflow="over", goal=goal)
    assert search(0, succ, budget=3, overflow="over", goal=lambda v: v == 2) == (
        {0: None, 1: 0, 2: 1}, 2, 0)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("decide", [
    reachable,
    partial(decide_fixed, prob=Problem("scover")),
    partial(decide_ordered, prob=Problem("scover")),
    lambda p, n: decide_sweep(p, Problem("scover"), max_n=n),
], ids=["reachable", "decide_fixed", "decide_ordered", "decide_sweep"])
def test_population_below_one(fig1, decide, n):
    with pytest.raises(ValueError, match="population must be at least 1"):
        decide(fig1, n=n)


class TestOverflowFreesTables:
    """An overflow leaves no reference cycle: with the cyclic collector off,
    a protocol's or a machine's compiled table goes as soon as its model does."""

    @staticmethod
    def table_after_overflow(make, search, attr):
        """The table left of the model ``make()`` once ``search`` overflowed on it and
        the model was dropped (a weak reference: ``None`` when it is gone)."""
        gc.disable()
        try:
            model = make()
            try:
                search(model)
            except ResourceLimitError:
                pass
            else:
                pytest.fail("the search did not overflow")
            table = weakref.ref(getattr(model, attr))
            del model
            return table()
        finally:
            gc.enable()

    def test_protocol(self):
        prob = Problem("ccover", Configuration((("q4", 1),)))
        left = self.table_after_overflow(partial(load_protocol, "fig1.rvp"),
                                         partial(decide_ordered, prob=prob, n=4, budget=3),
                                         "_moves")
        assert left is None

    def test_machine(self):
        left = self.table_after_overflow(
            lambda: CounterMachine("m", ["a", "b"], ["x"], "a",
                                   [("a", CounterOp("inc", "x"), "a")]),
            partial(cover_bounded, target_loc="b", cap=5, budget=2), "_table")
        assert left is None
