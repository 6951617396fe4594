"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance (exact set equality, zero property
violations, wall-clock budget) is asserted, not just reported.
"""

from __future__ import annotations

import random
import time
from collections import Counter, deque

from conftest import load_protocol
from helpers import (
    admissible_entry,
    covers,
    exit_valuations,
    is_wait_only,
    leader_zone,
    random_config,
    random_machine,
    random_protocol,
    random_wait_only,
    step_relaxed,
)
from nbrv import reductions, waitonly
from nbrv.explore import Problem, decide_fixed, decide_sweep, reachable, replay
from nbrv.gadgets import (
    LevelContext,
    init_level,
    reset_chain,
    reset_level,
    zero_test_swap,
)
from nbrv.machines import (
    CounterMachine,
    CounterOp,
    apply_strict,
    cover_bounded,
    replay_machine,
    vas_cover_bounded,
)
from nbrv.model import Configuration, Protocol, successors
from nbrv.waitonly import AbstractSet, abstract_post, fixpoint


def cfg(**counts: int) -> Configuration:
    return Configuration.from_counts(counts)


def gamma(states, tokens) -> AbstractSet:
    return AbstractSet(frozenset(states), frozenset(tokens))


class _Budget:
    def __init__(self, name: str, seconds: float) -> None:
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.1f}s / {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        return False


def test_criterion_1_p1_iterates_match():
    with _Budget("1 first-protocol iterates", 1.0):
        p1 = load_protocol("p1.rvp")
        g0 = gamma({"q_in"}, set())
        g1 = abstract_post(g0, p1)
        assert g1 == gamma({"q_in", "q4"},
                           {("q1", "a"), ("q1", "b"), ("q5", "c")})
        g2 = abstract_post(g1, p1)
        assert g2 == gamma({"q_in", "q2", "q4", "q5", "q6", "q7"},
                           {("q1", "a"), ("q1", "b"), ("q3", "a"), ("q3", "b")})


def test_criterion_2_p2_fixpoint_matches():
    with _Budget("2 second-protocol fixpoint", 1.0):
        p2 = load_protocol("p2.rvp")
        gf, trace = fixpoint(p2)
        assert trace[1] == gamma({"q_in", "q1", "p1"},
                                 {("q2", "b"), ("p2", "m2"), ("p3", "m3")})
        assert gf == gamma({"q_in", "q1", "q3", "p1", "p2", "p3", "p4"},
                           {("q2", "b")})


def test_criterion_3_fig1_regression():
    with _Budget("3 fig1 regression", 10.0):
        fig1 = load_protocol("fig1.rvp")
        verdict = decide_fixed(fig1, Problem("scover"), 2)
        assert verdict.is_yes()
        assert len(verdict.witness.steps) == 2  # three configurations in all
        assert [str(label) for label, _ in verdict.witness.steps] == ["nb:a", "msg:b"]

        q2 = Protocol(fig1.name, fig1.states, fig1.messages, fig1.init, "q2",
                      fig1.transitions)
        assert decide_fixed(q2, Problem("synchro"), 2).is_yes()

        q4 = Protocol(fig1.name, fig1.states, fig1.messages, fig1.init, "q4",
                      fig1.transitions)
        for n in range(1, 7):
            assert decide_fixed(q4, Problem("scover"), n).answer == "no"

        assert decide_sweep(fig1, Problem("ccover", cfg(q3=4)), 10).is_yes()


def test_criterion_4_oracle_cross_validation():
    with _Budget("4 oracle cross-validation", 120.0):
        rng = random.Random(20250808)
        protocols = 0
        while protocols < 200:
            p = random_wait_only(rng, max_q=6, max_m=3, max_t=12)
            protocols += 1
            for _ in range(2):
                target = random_config(rng, p, max_items=3)
                explorer_yes = any(
                    decide_fixed(p, Problem("ccover", target), n).is_yes()
                    for n in range(1, 6)
                )
                abstract_yes = waitonly.decide_cover(p, target).is_yes()
                if explorer_yes:
                    assert abstract_yes, (p.transitions, target)
                if not abstract_yes:
                    for n in range(1, 6):
                        assert not decide_fixed(p, Problem("ccover", target), n).is_yes()


def test_criterion_5_reduction_agreement():
    with _Budget("5 reduction agreement", 120.0):
        rng = random.Random(321)
        for _ in range(100):
            p = random_protocol(rng, max_q=5, max_m=3, max_t=10)
            target = random_config(rng, p, max_items=2)
            m, lf, _rep = reductions.protocol_to_machine(p, target)
            proto_yes = any(
                decide_fixed(p, Problem("ccover", target), n).is_yes()
                for n in range(1, 6)
            )
            assert proto_yes == cover_bounded(m, lf, cap=5).is_yes(), (
                p.transitions, target)

        rng = random.Random(99)
        for _ in range(100):
            m = random_machine(rng, max_loc=4, max_ctr=2, max_t=6, restore=True)
            lf = m.locations[-1]
            proto, _rep = reductions.machine_to_protocol(m, lf)
            machine_yes = cover_bounded(m, lf, cap=3).is_yes()
            sweep_yes = decide_sweep(proto, Problem("scover"), 8).is_yes()
            assert machine_yes == sweep_yes, m.transitions

        rng = random.Random(1234)
        for _ in range(100):
            m = random_machine(rng, max_loc=4, max_ctr=2, max_t=7)
            lf = m.locations[-1]
            cap = rng.randint(1, 4)
            a = cover_bounded(m, lf, cap=cap).answer
            b = vas_cover_bounded(reductions.machine_to_vas(m, lf), cap=cap).answer
            assert a == b, (m.transitions, cap)


def test_criterion_6_bounding_gadget_contracts():
    with _Budget("6 bounding gadget contracts", 60.0):
        import itertools

        ctx = LevelContext.create(2)
        level0 = ("y_0", "z_0", "s_0", "ybar_0", "zbar_0", "sbar_0")
        level1 = ("y_1", "z_1", "s_1", "ybar_1", "zbar_1", "sbar_1")

        def single(pm, entry, out):
            outs = exit_valuations(pm, entry)
            assert all(not v for o, v in outs.items() if o != out), outs
            assert len(outs[out]) == 1, outs
            return outs[out][0]

        # Swap-test contract, level 0, every admissible entry.
        for dual in ("ybar_0", "zbar_0"):
            pm = zero_test_swap(ctx, 0, dual)
            work = ctx.pair(0, dual)
            free = [c for c in ("y_0", "z_0", "ybar_0", "zbar_0")
                    if c not in (dual, work)]
            for dual_val in (0, 1, 2):
                for spare in itertools.product((0, 1, 2), repeat=2):
                    entry = admissible_entry(ctx, 0, {"sbar_0": 2})
                    entry[dual], entry[work] = dual_val, 2 - dual_val
                    for c, v in zip(free, spare):
                        entry[c] = v
                    if dual_val == 0:
                        got = single(pm, entry, pm.outs[0])
                        want = dict(entry)
                        want[dual], want[work] = entry[work], 0
                        assert got == want
                    else:
                        assert single(pm, entry, pm.outs[1]) == entry

        # Swap-test contract, level 1, every admissible entry.
        pm = zero_test_swap(ctx, 1, "ybar_1")
        for dual_val in range(5):
            for zb in range(5):
                for zz in range(5):
                    entry = admissible_entry(ctx, 1, {"sbar_1": 4})
                    entry["ybar_1"], entry["y_1"] = dual_val, 4 - dual_val
                    entry["zbar_1"], entry["z_1"] = zb, zz
                    if dual_val == 0:
                        got = single(pm, entry, pm.outs[0])
                        want = dict(entry)
                        want["ybar_1"], want["y_1"] = 4, 0
                        assert got == want
                    else:
                        assert single(pm, entry, pm.outs[1]) == entry

        # Initializer contract at both levels.
        pm = init_level(ctx, 0)
        for spare in itertools.product((0, 1, 2), repeat=3):
            entry = admissible_entry(ctx, 0)
            for c, v in zip(("y_0", "z_0", "s_0"), spare):
                entry[c] = v
            got = single(pm, entry, pm.outs[0])
            want = dict(entry)
            want.update({"ybar_0": 2, "zbar_0": 2, "sbar_0": 2})
            assert got == want
        pm = init_level(ctx, 1)
        for spare in itertools.product((0, 2, 4), repeat=3):
            entry = admissible_entry(ctx, 1)
            for c, v in zip(("y_1", "z_1", "s_1"), spare):
                entry[c] = v
            got = single(pm, entry, pm.outs[0])
            want = dict(entry)
            want.update({"ybar_1": 4, "zbar_1": 4, "sbar_1": 4})
            assert got == want

        # Reset contract at both levels, every bounded entry.
        pm = reset_level(ctx, 0)
        for vals in itertools.product((0, 1, 2), repeat=6):
            entry = admissible_entry(ctx, 0)
            entry.update(zip(level0, vals))
            got = single(pm, entry, pm.outs[0])
            assert all(got[c] == 0 for c in level0)
            assert all(got[c] == entry[c] for c in level1)
        pm = reset_level(ctx, 1)
        for vals in itertools.product(range(5), repeat=6):
            entry = admissible_entry(ctx, 1)
            entry.update(zip(level1, vals))
            got = single(pm, entry, pm.outs[0])
            for c in level1:
                assert got[c] == max(0, entry[c] - 4)
            for c in level0:
                assert got[c] == entry[c]

        # Full reset chain at one level from every bounded entry.
        ctx1 = LevelContext.create(1, ("xa", "xb"))
        pm = reset_chain(ctx1)
        for l0 in itertools.product((0, 1, 2), repeat=6):
            for xs in itertools.product(range(5), repeat=2):
                entry = {c: 0 for c in ctx1.all_counters()}
                entry.update(zip(level0, l0))
                entry["xa"], entry["xb"] = xs
                got = single(pm, entry, pm.outs[0])
                assert got["xa"] == got["xb"] == 0
                assert all(got[c] == 2 for c in ("ybar_0", "zbar_0", "sbar_0"))
                assert all(got[c] == 0 for c in ("y_0", "z_0", "s_0"))


def test_criterion_7_minsky_demonstration():
    with _Budget("7 two-counter machine demonstration", 30.0):
        halting = CounterMachine(
            "halting", ("l0", "l1", "lf"), ("x1", "x2"), "l0",
            (("l0", CounterOp("inc", "x1"), "l1"),
             ("l1", CounterOp("dec", "x1"), "lf")))
        proto, _rep = reductions.minsky_to_protocol(halting, "lf")
        assert is_wait_only(proto)
        assert decide_fixed(proto, Problem("synchro"), 3).is_yes()

        stranded = CounterMachine(
            "stranded", ("l0", "lf"), ("x1", "x2"), "l0",
            (("l0", CounterOp("inc", "x1"), "lf"),))
        proto2, _rep2 = reductions.minsky_to_protocol(stranded, "lf")
        for n in range(1, 6):
            assert not decide_fixed(proto2, Problem("synchro"), n).is_yes()


def test_criterion_8_semantics_properties():
    with _Budget("8 semantics properties", 60.0):
        # Count conservation, 1000 cases.
        rng = random.Random(88001)
        cases = 0
        while cases < 1000:
            p = random_protocol(rng)
            c = random_config(rng, p)
            for _label, nxt in successors(p, c):
                assert nxt.total() == c.total()
                cases += 1
            cases += 1  # configurations with no successors still count

        # Strict VAS step implies relaxed, 1000 cases.
        rng = random.Random(88002)
        for _ in range(1000):
            d = rng.randint(1, 5)
            v = tuple(rng.randint(0, 5) for _ in range(d))
            t = (tuple(rng.randint(-3, 3) for _ in range(d)),
                 tuple(rng.randint(0, 3) for _ in range(d)))
            strict = apply_strict(v, t)
            if strict is not None:
                assert strict == step_relaxed(v, t)

        # Leader uniqueness on compiled machine protocols, 1000 configs.
        rng = random.Random(88003)
        checked = 0
        while checked < 1000:
            m = random_machine(rng, max_loc=3, max_t=4, restore=True)
            proto, rep = reductions.machine_to_protocol(m, m.locations[-1])
            zone = leader_zone(m, proto, rep)
            start = Configuration(((proto.init, 3),))
            seen = {start}
            queue = deque([(start, 0)])
            while queue and checked < 1000:
                cur, depth = queue.popleft()
                if depth >= 1:
                    assert sum(n for q, n in cur.items if q in zone) == 1
                    checked += 1
                for _l, nxt in successors(proto, cur):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append((nxt, depth + 1))

        # Witness replay validity, 1000 replayed witnesses.
        rng = random.Random(88004)
        replayed = 0
        while replayed < 1000:
            p = random_protocol(rng, max_q=4, max_t=8)
            n = rng.randint(1, 3)
            t, configs = reachable(p, n)
            pool = sorted(map(t.decode, configs), key=lambda c: c.items)
            target = rng.choice(pool)
            verdict = decide_sweep(p, Problem("ccover", target), 3)
            if verdict.is_yes():
                assert replay(p, verdict.witness)
                w = verdict.witness
                assert covers(w.steps[-1][1] if w.steps else w.initial, target)
                replayed += 1
            m = random_machine(rng, max_loc=3, max_t=5)
            mv = cover_bounded(m, rng.choice(m.locations), cap=2)
            if mv.is_yes():
                assert replay_machine(m, mv.witness)
                replayed += 1

        # Stepwise monotonicity, 1000 cases.
        rng = random.Random(88005)
        cases = 0
        while cases < 1000:
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
            assert any(covers(dd, path[-1]) for dd in layer)
            first, last = dict(c.items), dict(path[-1].items)
            for q in p.states:
                if first.get(q, 0) >= 2 * steps:
                    assert last.get(q, 0) >= first[q] - 2 * steps
            cases += 1
