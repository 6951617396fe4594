from __future__ import annotations

import itertools
import random

import pytest

from conftest import load_protocol
from helpers import (
    backward_cover,
    random_config,
    random_protocol,
    is_consistent,
    is_wait_only,
    random_wait_only,
    spec_violations,
    wait_only_chain,
    with_self_rendezvous,
)
from nbrv import waitonly
from nbrv.explore import Problem, decide_fixed, decide_sweep
from nbrv.model import Configuration, Protocol, recv, send, tau
from nbrv.waitonly import (
    AbstractionDivergenceError,
    AbstractSet,
    NotWaitOnlyError,
    abstract_post,
    admits,
    conflict_free,
    decide_cover,
    decide_state_cover,
    fixpoint,
    partition,
)


def cfg(**counts: int) -> Configuration:
    return Configuration.from_counts(counts)


def gamma(states, tokens) -> AbstractSet:
    return AbstractSet(frozenset(states), frozenset(tokens))


GAMMA0 = gamma({"q_in"}, set())

P1_ITER1 = gamma({"q_in", "q4"}, {("q1", "a"), ("q1", "b"), ("q5", "c")})
P1_ITER2 = gamma({"q_in", "q2", "q4", "q5", "q6", "q7"},
                 {("q1", "a"), ("q1", "b"), ("q3", "a"), ("q3", "b")})
P2_ITER1 = gamma({"q_in", "q1", "p1"}, {("q2", "b"), ("p2", "m2"), ("p3", "m3")})
P2_FIX = gamma({"q_in", "q1", "q3", "p1", "p2", "p3", "p4"}, {("q2", "b")})

ROT = load_protocol("rot.rvp")

# p0's occupant absorbs p1's second request m1 and loops back to p0; p1's
# occupant absorbed p0's request m0 the same way.
SELF_LOOP = Protocol("selfloop", ["qin", "p0", "p1", "pf"], ["m0", "m1"], "qin", "pf", [
    ("qin", send("m0"), "p0"), ("qin", send("m1"), "p1"),
    ("p0", recv("m0"), "pf"), ("p0", recv("m1"), "p0"),
    ("p1", recv("m0"), "p1"), ("p1", recv("m1"), "pf"),
])


def potential(g: AbstractSet, p: Protocol) -> int:
    """``(|M|+1)*|S| + |Toks|``, which every round that changes ``g`` raises."""
    return (len(p.messages) + 1) * len(g.states) + len(g.tokens)


def round_bound(p: Protocol) -> int:
    """``|Q| * (|M|+1)``, the most the potential can reach."""
    return len(p.states) * (len(p.messages) + 1)


def rotation(receives) -> Protocol:
    """``qin !m_i p_i`` for each i, and ``p_i ?m_j pf`` for each j in ``receives[i]``."""
    k = len(receives)
    trans = [("qin", send(f"m{i}"), f"p{i}") for i in range(k)]
    trans += [(f"p{i}", recv(f"m{j}"), "pf") for i, js in enumerate(receives) for j in js]
    return Protocol("rotation", [f"p{i}" for i in range(k)] + ["pf", "qin"],
                    [f"m{i}" for i in range(k)], "qin", "pf", trans)


def token_fan(rng: random.Random) -> Protocol:
    """``qin`` requests into each waiting state ``p_i``, which answers some
    messages into a random ``p_j`` or ``pf``: a wait-only protocol with
    several token states more often than :func:`random_wait_only`."""
    ps = [f"p{i}" for i in range(rng.randint(2, 5))]
    msgs = [f"m{j}" for j in range(rng.randint(2, 4))]
    trans = {("qin", send(rng.choice(msgs)), q) for q in ps}
    for q in ps:
        for m in rng.sample(msgs, rng.randint(1, len(msgs))):
            trans.add((q, recv(m), rng.choice(ps + ["pf"])))
    return Protocol("fan", ps + ["pf", "qin"], msgs, "qin", "pf", trans)


def waiting_targets(k: int, most: int) -> list[Configuration]:
    """Every non-empty target over ``p0..p{k-1}`` with counts up to ``most``."""
    return [Configuration.from_counts({f"p{i}": n for i, n in enumerate(counts) if n})
            for counts in itertools.product(range(most + 1), repeat=k) if any(counts)]


class TestPartition:
    def test_p1(self, p1):
        assert is_wait_only(p1)

    def test_p2(self, p2):
        assert is_wait_only(p2)

    def test_fig1_mixed_state_rejected(self, fig1):
        with pytest.raises(NotWaitOnlyError) as exc:
            partition(fig1)
        violating = {state for state, _evidence in exc.value.violations}
        assert "q5" in violating

    def test_fig1_violations_pinned(self, fig1):
        with pytest.raises(NotWaitOnlyError) as exc:
            partition(fig1)
        assert exc.value.violations == (
            ("q5", (("q5", "!b", "q6"), ("q5", "?a", "q3"), ("q5", "?b", "q4"))),
            ("q_in", (("q_in", "!a", "q5"), ("q_in", "?b", "q1"))),
        )

    def test_violations_match_spec(self):
        rng = random.Random(3131)
        rejected = 0
        for i in range(400):
            p = random_protocol(rng, max_q=6, max_t=14)
            if i % 4 == 0:
                p = with_self_rendezvous(rng, p)
            want = spec_violations(p)
            if not want:
                assert is_wait_only(p)
                continue
            rejected += 1
            with pytest.raises(NotWaitOnlyError) as exc:
                partition(p)
            assert exc.value.violations == want
        assert rejected >= 200

    def test_initial_state_must_be_active(self):
        p = Protocol("p", ["a", "b"], ["m"], "a", "b",
                     [("a", recv("m"), "b"), ("b", send("m"), "b")])
        with pytest.raises(NotWaitOnlyError):
            partition(p)

    def test_transitionless_states_are_active(self):
        p = Protocol("p", ["a", "b"], [], "a", "b", [])
        assert is_wait_only(p)


class TestConflictFree:
    def test_p1_q1_q5_after_one_step(self, p1):
        assert conflict_free(P1_ITER1, p1, "q1", "q5") is True

    def test_p1_q1_q3_at_fixpoint(self, p1):
        assert conflict_free(P1_ITER2, p1, "q1", "q3") is False

    def test_same_state_rejected(self, p1):
        with pytest.raises(ValueError):
            conflict_free(P1_ITER1, p1, "q1", "q1")

    def test_symmetric(self, p1):
        assert conflict_free(P1_ITER1, p1, "q5", "q1") is True


class TestAdmits:
    def test_p1_unbounded_plus_two_tokens(self, p1):
        assert admits(P1_ITER1, cfg(q4=5, q1=1, q5=1), p1) is True

    def test_p1_conflicting_tokens(self, p1):
        assert admits(P1_ITER2, cfg(q1=1, q3=1), p1) is False

    def test_all_unbounded(self, p1):
        assert admits(P1_ITER2, cfg(q_in=4, q7=9), p1) is True

    def test_token_state_capped_at_one(self, p1):
        assert admits(P1_ITER1, cfg(q1=2), p1) is False

    def test_unknown_populated_state(self, p1):
        assert admits(GAMMA0, cfg(q6=1), p1) is False

    def test_downward_closure(self, p1, p2):
        rng = random.Random(31)
        for proto in (p1, p2):
            _gf, trace = fixpoint(proto)
            for g in trace:
                for _ in range(40):
                    c = random_config(rng, proto, max_items=3)
                    if admits(g, c, proto):
                        counts = dict(c.items)
                        q = rng.choice(list(counts))
                        counts[q] -= 1
                        if sum(counts.values()) >= 1:
                            smaller = Configuration.from_counts(counts)
                            assert admits(g, smaller, proto)


class TestConsistency:
    def test_empty_tokens_consistent(self, fig1, p1, p2):
        for proto in (fig1, p1, p2):
            assert is_consistent(gamma({proto.init}, set()), proto) is True

    def test_first_iterate_consistent(self, p1):
        assert is_consistent(abstract_post(GAMMA0, p1), p1) is True

    def test_unjustified_token_rejected(self, p1):
        # q7 is only reachable through ?d, never by a path opening with !a.
        assert is_consistent(gamma({"q_in"}, {("q7", "a")}), p1) is False

    def test_justified_token_accepted(self, p1):
        assert is_consistent(gamma({"q_in"}, {("q1", "a"), ("q5", "c")}), p1) is True


class TestAbstractPost:
    def test_p1_first_iterate(self, p1):
        assert abstract_post(GAMMA0, p1) == P1_ITER1

    def test_p1_second_iterate(self, p1):
        assert abstract_post(P1_ITER1, p1) == P1_ITER2

    def test_p2_first_iterate(self, p2):
        assert abstract_post(GAMMA0, p2) == P2_ITER1


class TestFixpoint:
    def test_p1(self, p1):
        gf, trace = fixpoint(p1)
        assert gf == P1_ITER2
        assert trace == [GAMMA0, P1_ITER1, P1_ITER2]

    def test_p2(self, p2):
        gf, trace = fixpoint(p2)
        assert gf == P2_FIX
        assert trace[1] == P2_ITER1

    def test_internal_only_protocol(self):
        p = Protocol("p", ["q_in", "p"], [], "q_in", "p", [("q_in", tau(), "p")])
        gf, trace = fixpoint(p)
        assert gf == gamma({"q_in", "p"}, set())
        assert len(trace) == 2

    def test_not_wait_only_rejected(self, fig1):
        with pytest.raises(NotWaitOnlyError):
            fixpoint(fig1)


class TestRoundBound:
    def test_potential_rises_every_round(self):
        rng = random.Random(3201)
        longer = 0
        for _ in range(2000):
            p = random_wait_only(rng, max_q=8, max_m=4, max_t=16)
            _gf, trace = fixpoint(p)
            phis = [potential(g, p) for g in trace]
            assert all(a < b for a, b in zip(phis, phis[1:])), p.transitions
            assert phis[-1] <= round_bound(p)
            # ``fixpoint`` calls ``abstract_post`` once per iterate.
            assert len(trace) <= round_bound(p)
            longer += len(trace) >= 4
        assert longer >= 200

    def test_chain_family_within_the_bound(self):
        for k in range(5, 81):
            p = wait_only_chain(k)
            _gf, trace = fixpoint(p)
            phis = [potential(g, p) for g in trace]
            assert all(a < b for a, b in zip(phis, phis[1:])), k
            assert len(trace) == k + 1
            assert len(trace) <= round_bound(p)

    def test_guard_raises_past_the_bound(self, p1, monkeypatch):
        calls = []

        def growing(gamma, _p):
            calls.append(gamma)
            return AbstractSet(gamma.states, gamma.tokens | {("x", f"m{len(calls)}")})

        monkeypatch.setattr(waitonly, "abstract_post", growing)
        assert round_bound(p1) == 40
        with pytest.raises(AbstractionDivergenceError, match="no fixpoint within 40 iterations"):
            decide_cover(p1, cfg(q7=1))
        assert len(calls) == 41


class TestDecideCover:
    def test_p1_many_q7(self, p1):
        assert decide_cover(p1, cfg(q7=3)).is_yes()

    def test_p1_conflicting_pair(self, p1):
        assert decide_cover(p1, cfg(q1=1, q3=1)).answer == "no"

    def test_p2_two_p1(self, p2):
        assert decide_cover(p2, cfg(p1=2)).is_yes()

    def test_not_wait_only_rejected_before_any_iterate(self, fig1):
        # The initial iterate would admit the target.
        with pytest.raises(NotWaitOnlyError):
            decide_cover(fig1, cfg(q_in=2))

    def test_state_cover_uses_final(self, p1):
        assert decide_state_cover(p1).is_yes()  # final state q7

    @pytest.mark.parametrize("name", ["p1.rvp", "p2.rvp", "rot.rvp"])
    def test_state_cover_is_the_scover_cover(self, name):
        p = load_protocol(name)
        assert decide_state_cover(p) == decide_cover(p, Problem("scover").cover(p))


class TestEarlyAnswer:
    def test_agrees_with_the_stable_abstraction(self):
        """The first admitting iterate answers as the stable one does.  Half
        the queries are random; the other half put single processes on two
        states that are token states in some iterate, when there are two."""
        rng = random.Random(3202)
        pair_answers = []
        for i in range(2400):
            p = token_fan(rng) if i % 2 else random_wait_only(rng)
            gf, trace = fixpoint(p)
            token_states = sorted({q for g in trace for q in g.token_states})
            pair = i % 2 and len(token_states) >= 2
            if pair:
                q1, q2 = rng.sample(token_states, 2)
                target = cfg(**{q1: 1, q2: 1})
            else:
                target = random_config(rng, p, max_items=3)
            answer = decide_cover(p, target).answer
            assert answer == ("yes" if admits(gf, target, p) else "no"), (p.transitions, target)
            if pair:
                pair_answers.append(answer)
        assert len(pair_answers) >= 300
        assert pair_answers.count("no") >= 10

    @pytest.mark.parametrize("name, target, answer, posts", [
        ("p2.rvp", None, "yes", 2),
        ("p2.rvp", {"q1": 1, "q2": 1}, "yes", 1),
        ("rot.rvp", {"p2": 2}, "yes", 3),
        ("p1.rvp", {"q1": 1, "q3": 1}, "no", 3),
        ("p1.rvp", {"q1": 1, "q5": 1}, "yes", 1),
        ("p1.rvp", {"q_in": 3}, "yes", 0),
    ], ids=["p2-scover", "p2-q1,q2", "rot-p2:2", "p1-q1,q3", "p1-q1,q5", "p1-q_in:3"])
    def test_abstract_post_calls(self, name, target, answer, posts, monkeypatch):
        """Rounds run up to the first admitting iterate, through the module
        global; the whole chain takes 4 on ``p2`` and ``rot``, 3 on ``p1``."""
        p = load_protocol(name)
        calls = []
        post = waitonly.abstract_post
        monkeypatch.setattr(waitonly, "abstract_post",
                            lambda gamma, q: calls.append(gamma) or post(gamma, q))
        if target is None:
            verdict = decide_state_cover(p)
        else:
            verdict = decide_cover(p, Configuration.from_counts(target))
        assert verdict.answer == answer
        assert len(calls) == posts


class TestRotation:
    @pytest.mark.parametrize("p, target", [
        (ROT, cfg(p2=2)), (ROT, cfg(p0=2)), (ROT, cfg(p0=1, p1=1)), (SELF_LOOP, cfg(p1=2)),
    ], ids=["rot-p2:2", "rot-p0:2", "rot-p0,p1", "selfloop-p1:2"])
    def test_covered_with_witness(self, p, target):
        assert decide_cover(p, target).is_yes()
        assert decide_sweep(p, Problem("ccover", target), 5).witness is not None

    def test_agrees_with_backward_coverability(self):
        rng = random.Random(36)
        shapes = [(((0, 1, 2), (0, 1), (0, 2)), 2), (((0, 1), (0, 1, 2), (1, 2)), 2)]
        for k, count, most in ((3, 40, 2), (4, 60, 1)):
            subsets = [s for r in range(1, k + 1) for s in itertools.combinations(range(k), r)]
            shapes += [(tuple(rng.choice(subsets) for _ in range(k)), most) for _ in range(count)]
        for receives, most in shapes:
            p = rotation(receives)
            for target in waiting_targets(len(receives), most):
                expected = "yes" if backward_cover(p, target) else "no"
                assert decide_cover(p, target).answer == expected, (receives, target)


class TestIterateProperties:
    def test_growth_and_consistency(self):
        rng = random.Random(32)
        for _ in range(150):
            p = random_wait_only(rng)
            _gf, trace = fixpoint(p)
            for g in trace:
                assert is_consistent(g, p)
            for prev, nxt in zip(trace, trace[1:]):
                assert prev.states <= nxt.states
                if prev.states == nxt.states:
                    assert prev.tokens <= nxt.tokens

    def test_membership_monotone_under_post(self):
        rng = random.Random(33)
        for _ in range(100):
            p = random_wait_only(rng)
            _gf, trace = fixpoint(p)
            for prev, nxt in zip(trace, trace[1:]):
                for _ in range(10):
                    c = random_config(rng, p, max_items=3)
                    if admits(prev, c, p):
                        assert admits(nxt, c, p)

    def test_is_wait_only_predicate(self, fig1, p1):
        assert is_wait_only(p1) is True
        assert is_wait_only(fig1) is False


class TestAgainstExplorer:
    def test_soundness_explorer_yes_implies_abstract_yes(self):
        rng = random.Random(34)
        for _ in range(120):
            p = random_wait_only(rng)
            target = random_config(rng, p, max_items=2)
            if decide_sweep(p, Problem("ccover", target), 5).is_yes():
                assert decide_cover(p, target).is_yes(), (p.transitions, target)

    def test_completeness_abstract_no_implies_explorer_no(self):
        rng = random.Random(35)
        for _ in range(120):
            p = random_wait_only(rng)
            target = random_config(rng, p, max_items=2)
            if decide_cover(p, target).answer == "no":
                for n in range(1, 6):
                    assert not decide_fixed(p, Problem("ccover", target), n).is_yes()
