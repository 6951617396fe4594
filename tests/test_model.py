from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import load_protocol
from helpers import (
    covers,
    initial,
    random_config,
    random_protocol,
    spec_successors,
    with_self_rendezvous,
)
from nbrv.explore import Problem, decide_fixed, reachable
from nbrv.machines import CounterMachine, CounterOp, VasLayout
from nbrv.model import (
    Configuration,
    MalformedConfigurationError,
    Protocol,
    ProtocolError,
    StepLabel,
    dense_image,
    dense_moves,
    dense_successors,
    recv,
    send,
    successors,
    tau,
)


def cfg(**counts: int) -> Configuration:
    return Configuration.from_counts(counts)


def labels(p, c):
    return {(str(label), str(nxt)) for label, nxt in successors(p, c)}


class TestProtocolConstruction:
    def test_requires_declared_init(self):
        with pytest.raises(ProtocolError):
            Protocol("p", ["a"], [], "b", "a", [])

    def test_requires_declared_final(self):
        with pytest.raises(ProtocolError):
            Protocol("p", ["a"], [], "a", "b", [])

    def test_requires_declared_message(self):
        with pytest.raises(ProtocolError):
            Protocol("p", ["a"], [], "a", "a", [("a", send("x"), "a")])

    def test_requires_nonempty_states(self):
        with pytest.raises(ProtocolError):
            Protocol("p", [], [], "a", "a", [])

    def test_duplicate_transitions_collapse(self):
        p = Protocol("p", ["a", "b"], ["m"], "a", "b",
                     [("a", send("m"), "b"), ("a", send("m"), "b")])
        assert len(p.transitions) == 1


class TestReceivers:
    def test_fig1_b(self, fig1):
        assert fig1.receivers_of["b"] == {"q_in", "q5"}

    def test_fig1_a(self, fig1):
        assert fig1.receivers_of["a"] == {"q5"}

    def test_no_receptions_empty(self):
        p = Protocol("p", ["a"], ["m"], "a", "a", [("a", send("m"), "a")])
        assert p.receivers_of["m"] == frozenset()


class TestReceivable:
    def test_p1_q1(self, p1):
        assert p1.receptions["q1"].keys() == {"a", "b", "c"}

    def test_p1_q4_empty(self, p1):
        assert p1.receptions["q4"] == {}

    def test_p2_p3(self, p2):
        assert p2.receptions["p3"].keys() == {"m1", "m2", "m3"}


class TestReceptionTargets:
    def test_fig1(self, fig1):
        assert fig1.receptions["q5"]["b"] == ("q4",)
        assert fig1.receptions["q_in"]["b"] == ("q1",)

    def test_two_targets(self):
        p = Protocol("p", ["a", "b", "c"], ["m"], "a", "a",
                     [("a", recv("m"), "c"), ("a", recv("m"), "b")])
        assert p.receptions["a"]["m"] == ("b", "c")

    def test_none_is_empty(self, fig1):
        assert "zz" not in fig1.receptions["q5"]
        assert "b" not in fig1.receptions["q1"]

    def test_tables_are_a_scan_of_the_receptions(self):
        # Both filings of ``recvs``, and the rules built from them, against a
        # direct scan; a quarter of the protocols have a state that both
        # sends and receives one message.
        rng = random.Random(34)
        seen = Counter()
        for k in range(500):
            p = random_protocol(rng)
            if k % 4 == 0:
                p = with_self_rendezvous(rng, p)
            for q in p.states:
                table = {}
                for m in p.messages:
                    targets = tuple([rp for r, mm, rp in p.recvs if r == q and mm == m])
                    if targets:
                        table[m] = targets
                assert p.receptions[q] == table
                seen["idle" if not table else "two" if any(
                    len(t) > 1 for t in table.values()) else "one"] += 1
            for m in p.messages:
                scan = frozenset([r for r, mm, _rp in p.recvs if mm == m])
                assert p.receivers_of[m] == scan
                seen["unheard" if not scan else "heard"] += 1
            rules = [("tau", None, (q,), (qp,), ()) for q, qp in p.taus]
            for s, m, sp in p.sends:
                rules += [("msg", m, (s, r), (sp, rp), ()) for r, mm, rp in p.recvs if mm == m]
                rules.append(("nb", m, (s,), (sp,),
                              tuple(sorted({r for r, mm, _rp in p.recvs if mm == m}))))
            assert p.rules == tuple(rules)
        assert min(seen.values()) > 100, seen


class TestSuccessors:
    def test_two_initial_only_lost_request(self, fig1):
        assert labels(fig1, cfg(q_in=2)) == {("nb:a", "q5,q_in")}

    def test_rendezvous_on_b(self, fig1):
        assert ("msg:b", "q1,q6") in labels(fig1, cfg(q_in=1, q5=1))

    def test_no_transitions_no_successors(self):
        p = Protocol("p", ["a"], [], "a", "a", [])
        assert successors(p, cfg(a=3)) == []

    def test_self_rendezvous_needs_two(self):
        p = Protocol("p", ["a", "b", "c"], ["m"], "a", "c",
                     [("a", send("m"), "b"), ("a", recv("m"), "c")])
        assert labels(p, cfg(a=1)) == {("nb:m", "b")}
        assert labels(p, cfg(a=2)) == {("msg:m", "b,c")}

    def test_sender_set_aside_for_blocking_check(self, fig1):
        # A single process on q5 can still lose its own request on b.
        assert ("nb:b", "q6") in labels(fig1, cfg(q5=1))

    def test_unknown_state_rejected(self, fig1):
        with pytest.raises(MalformedConfigurationError):
            successors(fig1, cfg(ghost=1))


class TestCovers:
    def test_componentwise(self):
        assert covers(cfg(q2=2), cfg(q2=1))

    def test_reflexive(self):
        assert covers(cfg(q1=1, q6=1), cfg(q1=1, q6=1))

    def test_missing_state(self):
        assert not covers(cfg(q_in=1, q5=1), cfg(q4=1))

    @given(st.dictionaries(st.sampled_from("abcd"), st.integers(1, 4), min_size=1),
           st.dictionaries(st.sampled_from("abcd"), st.integers(1, 4), min_size=1))
    def test_order_matches_counts(self, d1, d2):
        c1, c2 = Configuration.from_counts(d1), Configuration.from_counts(d2)
        expected = all(d1.get(k, 0) >= v for k, v in d2.items())
        assert covers(c1, c2) == expected


class TestConfiguration:
    def test_rejects_empty(self):
        with pytest.raises(MalformedConfigurationError):
            Configuration(())

    def test_rejects_nonpositive(self):
        with pytest.raises(MalformedConfigurationError):
            Configuration((("a", 0),))

    def test_literal_rendering(self):
        assert str(cfg(q1=2, q5=1)) == "q1:2,q5"

    def test_from_counts_drops_zero(self):
        assert cfg(a=1, b=0).items == (("a", 1),)


class TestInvariants:
    def test_count_conservation(self):
        rng = random.Random(11)
        for _ in range(300):
            p = random_protocol(rng)
            c = random_config(rng, p)
            for _label, nxt in successors(p, c):
                assert nxt.total() == c.total()

    def test_nonblocking_exclusivity(self):
        # nb(m) appears for a send iff no receiver is populated once the
        # sender is set aside; never alongside a rendez-vous for that send.
        rng = random.Random(12)
        for _ in range(300):
            p = random_protocol(rng)
            c = random_config(rng, p)
            counts = dict(c.items)
            nb_msgs = {l.message for l, _ in successors(p, c) if l.kind == "nb"}
            for q1, m, _q1p in p.sends:
                if counts.get(q1, 0) == 0:
                    continue
                free = all(
                    counts.get(q2, 0) - (1 if q2 == q1 else 0) == 0
                    for q2 in p.receivers_of[m]
                )
                if free:
                    assert m in nb_msgs
            for m in nb_msgs:
                senders = [q1 for q1, mm, _ in p.sends if mm == m and counts.get(q1, 0) > 0]
                assert any(
                    all(counts.get(q2, 0) - (1 if q2 == q1 else 0) == 0
                        for q2 in p.receivers_of[m])
                    for q1 in senders
                )

    def test_monotonicity_lemma(self):
        # A stepwise-larger configuration can mimic any run, and a state
        # holding 2*len + a processes keeps at least a of them.
        rng = random.Random(14)
        for _ in range(120):
            p = random_protocol(rng, max_q=4, max_t=8)
            c = random_config(rng, p, max_items=3)
            path = [c]
            for _ in range(rng.randint(1, 3)):
                succ = successors(p, path[-1])
                if not succ:
                    break
                path.append(rng.choice(succ)[1])
            steps = len(path) - 1
            if steps == 0:
                continue
            extra = random_config(rng, p, max_items=2)
            d = Configuration.from_counts(Counter(dict(path[0].items)) + Counter(dict(extra.items)))
            layer = {d}
            for _ in range(steps):
                layer = {nxt for cur in layer for _l, nxt in successors(p, cur)}
            assert any(covers(dd, path[-1]) for dd in layer), (p.transitions, path, d)
            first, last = dict(c.items), dict(path[-1].items)
            for q in p.states:
                if first.get(q, 0) >= 2 * steps:
                    assert last.get(q, 0) >= first[q] - 2 * steps

    def test_matches_spec_in_order(self):
        # Half the protocols get a state that both sends and receives one
        # message, so that self rendez-vous are tried with one and with two
        # processes in the shared state.
        rng = random.Random(16)
        shared = {1: 0, 2: 0}
        for k in range(300):
            p = random_protocol(rng, max_m=2)
            if k % 2:
                p = with_self_rendezvous(rng, p)
            for _ in range(4):
                c = random_config(rng, p, max_items=4)
                assert successors(p, c) == spec_successors(p, c)
                counts = dict(c.items)
                for q, m, _q1p in p.sends:
                    if q in p.receivers_of[m] and counts.get(q) in shared:
                        shared[counts[q]] += 1
        assert min(shared.values()) > 20, shared

    def test_moves_are_the_successors_in_any_order(self):
        # Every configuration reached at n = 1..5: the unordered moves, read
        # as a set, are the label-ordered successors.
        rng = random.Random(17)
        repeated = 0
        for k in range(300):
            p = random_protocol(rng, max_m=2)
            if k % 3 == 0:
                p = with_self_rendezvous(rng, p)
            t = p.moves(5)
            rank = {label: r for r, label in enumerate(t.labels)}
            for n in range(1, 6):
                for v in reachable(p, n)[1]:
                    moves = dense_moves(t, v)
                    ordered = [(rank[label], w) for label, w in dense_successors(t, v)]
                    assert set(moves) == set(ordered)
                    assert len(set(ordered)) == len(ordered)
                    repeated += len(moves) > len(ordered)
        assert repeated > 100, repeated

    def test_image_is_the_union_of_spec_successors(self):
        # Random frontiers on a table of width 4: counts up to 3 per state,
        # so that a shared state (one that sends a message it also
        # receives) holds one, two and three processes.
        rng = random.Random(18)
        shared = {1: 0, 2: 0, 3: 0}
        for k in range(300):
            p = random_protocol(rng, max_m=2)
            if k % 3 == 0:
                p = with_self_rendezvous(rng, p)
            selfish = {q for q, m, _qp in p.sends if q in p.receivers_of[m]}
            t = p.moves(15)
            frontier = set()
            for _ in range(rng.randint(1, 6)):
                counts = {q: rng.randint(0, 3) for q in rng.sample(p.states, min(3, len(p.states)))}
                if any(counts.values()):
                    frontier.add(Configuration.from_counts(counts))
            want = {t.encode(d) for c in frontier for _label, d in spec_successors(p, c)}
            assert dense_image(t, {t.encode(c) for c in frontier}) == want, k
            for c in frontier:
                counts = dict(c.items)
                for q in selfish:
                    if counts.get(q) in shared:
                        shared[counts[q]] += 1
        assert min(shared.values()) > 20, shared

    def test_table_is_freed_with_its_protocol(self):
        # The memo refers to no table, so no reference cycle keeps a table
        # alive for the cyclic collector: it dies with its protocol.
        p = load_protocol("fig1.rvp")
        gc.disable()
        try:
            t = reachable(p, 5)[0]
            assert decide_fixed(p, Problem("scover"), 3).is_yes()
            assert decide_fixed(p, Problem("ccover", cfg(q4=1)), 5).answer == "no"
            assert t.memo and t.labels and p.moves(5) is t
            ref = weakref.ref(t)
            del t, p
            assert ref() is None
        finally:
            gc.enable()

    def test_successors_deterministic(self):
        rng = random.Random(15)
        for _ in range(50):
            p = random_protocol(rng)
            c = random_config(rng, p)
            assert successors(p, c) == successors(p, c)


class TestRules:
    def test_table_order(self):
        p = Protocol("p", ["a", "b", "c"], ["m", "n"], "a", "c",
                     [("a", tau(), "b"), ("a", send("m"), "b"), ("c", recv("m"), "a"),
                      ("a", recv("m"), "c"), ("b", send("n"), "c")])
        assert p.rules == (
            ("tau", None, ("a",), ("b",), ()),
            ("msg", "m", ("a", "a"), ("b", "c"), ()),
            ("msg", "m", ("a", "c"), ("b", "a"), ()),
            ("nb", "m", ("a",), ("b",), ("a", "c")),
            ("nb", "n", ("b",), ("c",), ()),
        )
        assert p.rules is p.rules

    def test_firing_the_rules_gives_the_spec_successors(self):
        # Every configuration reached at n = 1..4, a third of the protocols
        # with a self rendez-vous.  A rule is enabled when its sources are
        # present with multiplicity and no blocker holds a process beyond
        # the rule's own sources.
        rng = random.Random(25)
        fired = Counter()
        for k in range(1050):
            p = random_protocol(rng, max_m=2)
            if k % 3 == 0:
                p = with_self_rendezvous(rng, p)
            for n in range(1, 5):
                t, found = reachable(p, n)
                for v in found:
                    c = t.decode(v)
                    counts = Counter(dict(c.items))
                    got = set()
                    for kind, m, src, dst, blockers in p.rules:
                        need = Counter(src)
                        if (all(counts[q] >= j for q, j in need.items())
                                and all(counts[q] <= need[q] for q in blockers)):
                            moved = counts - need + Counter(dst)
                            got.add((StepLabel(kind, m), Configuration.from_counts(moved)))
                            fired[kind, len(set(src)) < len(src), bool(blockers)] += 1
                    assert got == set(spec_successors(p, c)), (k, n, c)
        assert min(fired.values()) > 100 and len(fired) == 5, fired


def test_initial_config(fig1):
    assert initial(fig1, 3) == cfg(q_in=3)
    with pytest.raises(MalformedConfigurationError):
        initial(fig1, 0)


class TestFields:
    """The packed layout that every engine shares (``model._Fields``)."""

    @pytest.mark.parametrize("layout", [
        load_protocol("p1.rvp").moves(12), load_protocol("fig1.rvp").moves(3),
        VasLayout(5, 6), VasLayout(3, 1)], ids=["p1@12", "fig1@3", "vas5@6", "vas3@1"])
    def test_at_least_matches_the_sparse_comparison(self, layout):
        rng = random.Random(24)
        count, guard = len(layout.shifts), layout.guard
        for _ in range(300):
            values = [rng.choice((0, 1, guard - 1, rng.randrange(guard)))
                      for _ in range(count)]
            v = layout.pack(values)
            picked = rng.sample(range(count), rng.randint(1, count))
            need = [(i, rng.choice((1, guard - 1, guard, guard + 5))) for i in picked]
            # A count above the guard is clamped to it, as the callers do.
            test = layout.at_least([(layout.shifts[i], min(k, guard)) for i, k in need])
            assert test(v) == all(values[i] >= k for i, k in need), (values, need)

    def test_moves_widens_at_the_guard(self):
        p = load_protocol("fig1.rvp")
        t = p.moves(5)
        assert (t.width, t.guard) == (4, 8)
        assert p.moves(1) is t and p.moves(t.guard - 1) is t
        wider = p.moves(t.guard)
        assert wider is not t and wider.guard > t.guard and p.moves(5) is wider

    def test_machine_table_widens_at_the_guard(self):
        m = CounterMachine("m", ["a"], ["x"], "a", [("a", CounterOp("inc", "x"), "a")])
        t = m.table(2)
        # A table serves every cap whose ``cap + 1`` is below its guard.
        assert m.table(t.guard - 2) is t
        assert m.table(t.guard - 1) is not t

    def test_decode_builds_the_checked_configuration(self, p1):
        t, got = reachable(p1, 12)
        assert len(got) == 3668
        for v in got:
            c = t.decode(v)
            assert type(c) is Configuration
            assert c == Configuration(t.items(v))
