from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from helpers import (
    WITNESS_MUTATIONS,
    bad_witnesses,
    machine_config,
    random_machine,
    random_vas,
    spec_machine_cover,
    spec_machine_successors,
    spec_step_relaxed,
    spec_step_strict,
    spec_vas_cover,
    step_relaxed,
    transition_key,
)
from nbrv.explore import ResourceLimitError
from nbrv.machines import (
    DEC,
    EFFECT,
    INC,
    NBDEC,
    NOP,
    OP_TEXT,
    ZEROTEST,
    CounterMachine,
    CounterOp,
    MachineError,
    MachineConfig,
    Vas,
    VasError,
    VasLayout,
    _candidates,
    apply_strict,
    cover_bounded,
    replay_machine,
    successors,
    vas_cover_bounded,
)
from nbrv.model import Configuration
from nbrv.reductions import machine_to_vas, protocol_to_machine


def simple(transitions=(), locations=("l0", "l1"), counters=("x",),
           restore=False) -> CounterMachine:
    return CounterMachine("m", locations, counters, "l0", transitions, restore)


# The counter after one step of each op from the values 0, 1 and 2, ``None``
# where the op blocks: the semantics written out apart from ``EFFECT``.
AFTER = {
    NOP: (0, 1, 2),
    INC: (1, 2, 3),
    DEC: (None, 0, 1),
    ZEROTEST: (0, None, None),
    NBDEC: (0, 0, 1),
}


class TestOpSemantics:
    def test_every_op_kind_has_an_effect_and_a_text(self):
        assert list(EFFECT) == list(AFTER)
        assert OP_TEXT.keys() == EFFECT.keys()

    @pytest.mark.parametrize("kind", list(AFTER))
    def test_successors_effect_and_vas_image_agree(self, kind):
        m = simple([("l0", CounterOp(kind, None if kind == NOP else "x"), "l1")])
        # Coordinates: l0, l1, then x.  A zero test has no VAS image.
        image = None if kind == ZEROTEST else machine_to_vas(m, "l1").transitions
        for value, after in enumerate(AFTER[kind]):
            change = EFFECT[kind][value == 0]
            assert (None if change is None else value + change) == after
            cfg = machine_config(m, "l0", {"x": value})
            got = [(c.loc, c.values) for _t, c in successors(m, cfg)]
            assert got == ([] if after is None else [("l1", (after,))])
            if image is not None:
                (t,) = image
                assert apply_strict((1, 0, value), t) == (None if after is None else (0, 1, after))


class TestMachineSuccessors:
    @pytest.mark.parametrize("counters", [(), ("x",), ("y", "x", "z")])
    def test_initial_config(self, counters):
        # Every search starts at the init location with every counter at 0.
        m = CounterMachine("m", ["b", "a"], counters, "b", [("b", CounterOp(NOP), "a")])
        assert m.initial_config() == MachineConfig("b", (0,) * len(counters))
        assert cover_bounded(m, "a", 0).witness.initial == m.initial_config()

    def test_nbdec_at_zero(self):
        m = simple([("l0", CounterOp(NBDEC, "x"), "l1")])
        succ = successors(m, m.initial_config())
        assert [(t[1].kind, c.loc, c.values) for t, c in succ] == [(NBDEC, "l1", (0,))]

    def test_dec_blocked_at_zero(self):
        m = simple([("l0", CounterOp(DEC, "x"), "l1")])
        assert successors(m, m.initial_config()) == []

    def test_restore_jump_everywhere(self):
        m = simple([("l0", CounterOp(INC, "x"), "l1")], restore=True)
        cfg = machine_config(m, "l1", {"x": 2})
        succ = successors(m, cfg)
        assert any(c.loc == "l0" and c.values == (2,) for _t, c in succ)

    def test_zerotest_requires_zero(self):
        m = simple([("l0", CounterOp(ZEROTEST, "x"), "l1")])
        assert successors(m, machine_config(m, "l0", {"x": 1})) == []
        assert successors(m, machine_config(m, "l0", {"x": 0}))[0][1].loc == "l1"

    def test_nbdec_never_blocks(self):
        rng = random.Random(41)
        for _ in range(200):
            m = random_machine(rng)
            cfg = machine_config(m, rng.choice(m.locations),
                                 {x: rng.randint(0, 3) for x in m.counters})
            succ = successors(m, cfg)
            for src, op, dst in m.transitions:
                if op.kind == NBDEC and src == cfg.loc:
                    assert any(t == (src, op, dst) for t, _c in succ)

    def test_values_stay_nonnegative(self):
        rng = random.Random(42)
        for _ in range(200):
            m = random_machine(rng, restore=rng.random() < 0.5)
            cfg = machine_config(m, rng.choice(m.locations),
                                 {x: rng.randint(0, 3) for x in m.counters})
            for _t, nxt in successors(m, cfg):
                assert all(v >= 0 for v in nxt.values)

    def test_restore_reaches_init_from_everywhere(self):
        rng = random.Random(43)
        for _ in range(100):
            m = random_machine(rng, restore=True)
            cfg = machine_config(m, rng.choice(m.locations),
                                 {x: rng.randint(0, 2) for x in m.counters})
            succ = successors(m, cfg)
            assert any(c.loc == m.init and c.values == cfg.values for _t, c in succ)


def with_zero_tests(rng: random.Random, m: CounterMachine) -> CounterMachine:
    """``m`` plus up to two random zero-test edges."""
    extra = {(rng.choice(m.locations), CounterOp(ZEROTEST, rng.choice(m.counters)),
              rng.choice(m.locations)) for _ in range(rng.randint(0, 2))}
    return CounterMachine(m.name, m.locations, m.counters, m.init,
                          m.transitions + tuple(extra), m.restore)


def enabled(m: CounterMachine, op: CounterOp, values: tuple[int, ...]) -> bool:
    if op.kind == DEC:
        return values[m.counters.index(op.counter)] >= 1
    if op.kind == ZEROTEST:
        return values[m.counters.index(op.counter)] == 0
    return True


class TestSuccessorOrder:
    """Witnesses take the first move that reaches a configuration, so the
    successor order is part of every machine verdict's output."""

    def test_sorted_by_transition_key(self):
        rng = random.Random(45)
        merged = 0
        for _ in range(400):
            m = with_zero_tests(rng, random_machine(rng, max_t=8,
                                                    restore=rng.random() < 0.5))
            cfg = machine_config(m, rng.choice(m.locations),
                                 {x: rng.randint(0, 2) for x in m.counters})
            succ = successors(m, cfg)
            trans = [t for t, _c in succ]
            assert trans == sorted(trans, key=transition_key)
            assert len(set(trans)) == len(trans)
            want = {t for t in m.transitions
                    if t[0] == cfg.loc and enabled(m, t[1], cfg.values)}
            if m.restore:
                jump = (cfg.loc, CounterOp(NOP), m.init)
                merged += jump in want
                want.add(jump)
            assert set(trans) == want
            assert all(c.loc == t[2] for t, c in succ)
        assert merged > 0

    def test_matches_spec(self):
        rng = random.Random(46)
        seen = Counter()
        for _ in range(600):
            m = with_zero_tests(rng, random_machine(rng, max_t=8,
                                                    restore=rng.random() < 0.5))
            cfg = machine_config(m, rng.choice(m.locations),
                                 {x: rng.randint(0, 2) for x in m.counters})
            succ = successors(m, cfg)
            assert succ == spec_machine_successors(m, cfg)
            assert all(type(c) is MachineConfig for _t, c in succ)
            fired = {t for t, _c in succ}
            for t in m.transitions:
                if t[0] == cfg.loc:
                    seen[(t[1].kind, t in fired)] += 1
            seen["restore"] += m.restore
            seen["nbdec at zero"] += any(
                t[1].kind == NBDEC and c.values == cfg.values for t, c in succ)
        # Every op kind both fires and, where it can, is blocked.
        for kind in (NOP, INC, DEC, ZEROTEST, NBDEC):
            assert seen[(kind, True)] > 20, (kind, seen)
        for kind in (DEC, ZEROTEST):
            assert seen[(kind, False)] > 20, (kind, seen)
        assert seen["restore"] > 100 and seen["nbdec at zero"] > 20, seen

    def test_restore_jump_merges_with_nop_edge(self):
        m = simple([("l1", CounterOp(NOP), "l0"), ("l1", CounterOp(INC, "x"), "l0"),
                    ("l1", CounterOp(NBDEC, "x"), "l0")], restore=True)
        succ = successors(m, machine_config(m, "l1", {"x": 1}))
        assert [(t[1].kind, c.values) for t, c in succ] == [
            (NOP, (1,)), (INC, (2,)), (NBDEC, (0,))]


class TestMachineValidation:
    @pytest.mark.parametrize("kind", [INC, NBDEC])
    def test_undeclared_names(self, kind):
        with pytest.raises(MachineError, match="undeclared location"):
            simple([("l0", CounterOp(kind, "x"), "l9")])
        with pytest.raises(MachineError, match="undeclared counter"):
            simple([("l0", CounterOp(kind, "y"), "l1")])

    def test_class_predicates(self):
        m = simple([("l0", CounterOp(INC, "x"), "l1")])
        assert m.is_test_free and not m.is_nbrcm
        r = simple([("l0", CounterOp(INC, "x"), "l1")], restore=True)
        assert r.is_nbrcm
        z = simple([("l0", CounterOp(ZEROTEST, "x"), "l1")])
        assert not z.is_test_free


class TestReplayMachine:
    """``replay_machine`` accepts a ``cover_bounded`` witness and rejects each
    one-change corruption of it."""

    @pytest.fixture
    def machine_witness(self, fig1):
        m, loc, _report = protocol_to_machine(fig1, Configuration((("q3", 2),)))
        verdict = cover_bounded(m, loc, cap=2)
        assert verdict.witness.steps[0][0] == ("lin", CounterOp(INC, "q_in"), "lin")
        return m, verdict.witness

    def test_accepts_the_search_witness(self, machine_witness):
        m, witness = machine_witness
        assert replay_machine(m, witness) is True

    @pytest.mark.parametrize("mutation", WITNESS_MUTATIONS)
    def test_rejects_a_bad_witness(self, machine_witness, mutation):
        m, witness = machine_witness
        bad = bad_witnesses(witness, ("lin", CounterOp(NOP), "lin"))[mutation]
        assert replay_machine(m, bad) is False


class TestCoverBounded:
    def test_single_increment(self):
        m = simple([("l0", CounterOp(INC, "x"), "l1")])
        verdict = cover_bounded(m, "l1", cap=1)
        assert verdict.is_yes() and len(verdict.witness.steps) == 1
        assert replay_machine(m, verdict.witness)

    def test_dec_from_zero_never_covers(self):
        m = simple([("l0", CounterOp(DEC, "x"), "l1")])
        verdict = cover_bounded(m, "l1", cap=5)
        assert verdict.answer == "no" and verdict.note == "within-cap"

    def test_cap_prunes(self):
        m = simple([("l0", CounterOp(INC, "x"), "l0"),
                    ("l0", CounterOp(NOP), "l1")])
        verdict = cover_bounded(m, "l1", cap=2)
        assert verdict.is_yes()
        nores = cover_bounded(simple([("l0", CounterOp(INC, "x"), "l0")]),
                              "l1", cap=2)
        assert nores.answer == "no" and nores.stats["pruned"] > 0

    def test_budget(self):
        m = simple([("l0", CounterOp(INC, "x"), "l0")])
        with pytest.raises(ResourceLimitError):
            cover_bounded(m, "l1", cap=10**6, budget=10)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_small_budgets_match_spec(self, budget):
        # The start counts against the budget: 0 admits nothing, 1 the start alone.
        rng = random.Random(49)
        seen = Counter()
        for n in range(300):
            m = random_machine(rng, restore=n % 2 == 1)
            loc = rng.choice(m.locations)
            try:
                want = spec_machine_cover(m, loc, 2, budget)
            except ResourceLimitError:
                with pytest.raises(ResourceLimitError):
                    cover_bounded(m, loc, 2, budget)
                seen["overflow"] += 1
                continue
            verdict = cover_bounded(m, loc, 2, budget)
            assert (verdict.answer, verdict.witness and list(verdict.witness.steps),
                    verdict.stats) == want
            seen[verdict.answer] += 1
        assert seen["overflow"] == 300 if budget == 0 else min(seen.values()) > 20, seen

    def test_witnesses_replay(self):
        rng = random.Random(44)
        for _ in range(150):
            m = random_machine(rng, restore=rng.random() < 0.3)
            verdict = cover_bounded(m, rng.choice(m.locations), cap=3)
            if verdict.is_yes():
                assert replay_machine(m, verdict.witness)

    def test_matches_brute_force_spec(self):
        # Caps 0, 1, 3 and 7 are those where ``cap + 1`` is a power of two.
        rng = random.Random(48)
        seen = Counter()
        for n in range(700):
            m = with_zero_tests(rng, random_machine(rng, max_loc=6, max_ctr=3, max_t=12,
                                                    restore=n % 2 == 1))
            loc = rng.choice(m.locations)
            cap = (0, 1, 2, 3, 7)[n % 5]
            budget = (6, 40, 10_000)[n % 3]
            seen.update(op.kind for _s, op, _d in m.transitions)
            try:
                answer, steps, stats = spec_machine_cover(m, loc, cap, budget)
            except ResourceLimitError:
                with pytest.raises(ResourceLimitError):
                    cover_bounded(m, loc, cap, budget)
                seen["overflow", m.restore] += 1
                continue
            verdict = cover_bounded(m, loc, cap, budget)
            assert verdict.answer == answer
            assert verdict.stats == stats
            seen[answer, m.restore, cap] += 1
            seen["pruned", cap] += stats["pruned"] > 0
            if answer == "yes":
                assert verdict.witness.initial == m.initial_config()
                assert list(verdict.witness.steps) == steps
                seen["long witness"] += len(steps) > 2
                seen["at cap"] += any(max(c.values) == cap for _t, c in steps)
            else:
                assert (verdict.note, verdict.explored_bound) == ("within-cap", cap)
        assert min(seen.values()) >= 5 and len(seen) == 34, seen

    def test_no_counters(self):
        # The packed configuration of a machine without counters is its location.
        m = CounterMachine("m", ["a", "b", "c", "d"], [], "a",
                           [("a", CounterOp(NOP), "b"), ("b", CounterOp(NOP), "c")],
                           restore=True)
        assert successors(m, machine_config(m, "b")) == [
            (("b", CounterOp(NOP), "a"), MachineConfig("a", ())),
            (("b", CounterOp(NOP), "c"), MachineConfig("c", ()))]
        for loc in m.locations:
            for cap in (0, 1):
                verdict = cover_bounded(m, loc, cap)
                assert (verdict.answer, list(verdict.witness.steps) if verdict.witness else None,
                        verdict.stats) == spec_machine_cover(m, loc, cap, 100)
        assert cover_bounded(m, "c", 0).witness.steps[-1][1] == MachineConfig("c", ())
        assert cover_bounded(m, "d", 0).stats == {"visited": 3, "pruned": 0}


class TestVasSteps:
    def test_strict_blocked(self):
        assert apply_strict((1, 2), ((-3, 0), (0, 1))) is None

    def test_strict_clamps_nonblocking_part(self):
        assert apply_strict((1, 0), ((0, 0), (0, 1))) == (1, 0)

    def test_strict_add_then_clamp(self):
        assert apply_strict((0,), ((2,), (1,))) == (1,)

    def test_relaxed_clamps_combined(self):
        assert step_relaxed((1, 2), ((-3, 0), (0, 1))) == (0, 1)

    def test_relaxed_identity(self):
        assert step_relaxed((4, 7), ((0, 0), (0, 0))) == (4, 7)

    def test_relaxed_explicit(self):
        assert step_relaxed((5,), ((-1,), (2,))) == (2,)

    def test_match_spec(self):
        rng = random.Random(31)
        seen = Counter()
        for _ in range(3000):
            d = rng.randint(1, 6)
            v = tuple(rng.randint(0, 3) for _ in range(d))
            t_b = tuple(rng.randint(-3, 3) for _ in range(d))
            t_nb = tuple(rng.choice((0, 0, 1, 4)) for _ in range(d))
            t = (t_b, t_nb)
            strict = apply_strict(v, t)
            assert strict == spec_step_strict(v, t)
            assert step_relaxed(v, t) == spec_step_relaxed(v, t)
            assert type(step_relaxed(v, t)) is tuple
            seen["blocked" if strict is None else "fired"] += 1
            if strict is not None:
                assert type(strict) is tuple
                seen["clamped"] += any(a + b - c < 0 for a, b, c in zip(v, t_b, t_nb))
                seen["no clamp part"] += not any(t_nb)
        assert min(seen.values()) > 50, seen

    @pytest.mark.parametrize("step", [
        pytest.param(apply_strict, id="step_strict"),
        pytest.param(step_relaxed, id="step_relaxed"),
    ])
    def test_arity_mismatch(self, step):
        with pytest.raises(VasError):
            step((1, 2), ((0,), (0,)))
        with pytest.raises(VasError):
            step((1,), ((0, 1), (0, 0)))

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.tuples(*[st.integers(0, 5)] * d),
                st.tuples(*[st.integers(-3, 3)] * d),
                st.tuples(*[st.integers(0, 3)] * d),
            )
        )
    )
    def test_strict_implies_relaxed(self, data):
        v, t_b, t_nb = data
        strict = apply_strict(v, (t_b, t_nb))
        if strict is not None:
            assert strict == step_relaxed(v, (t_b, t_nb))
            assert all(x >= 0 for x in strict)

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.tuples(*[st.integers(0, 5)] * d),
                st.tuples(*[st.integers(-3, 3)] * d),
                st.tuples(*[st.integers(0, 3)] * d),
            )
        )
    )
    def test_relaxed_total_and_nonnegative(self, data):
        v, t_b, t_nb = data
        assert all(x >= 0 for x in step_relaxed(v, (t_b, t_nb)))


class TestVasCover:
    def test_unit_increment(self):
        v = Vas("v", 1, (((1,), (0,)),), (0,), (1,))
        assert vas_cover_bounded(v, cap=2).is_yes()

    def test_no_transitions(self):
        v = Vas("v", 1, (), (0,), (1,))
        verdict = vas_cover_bounded(v, cap=3)
        assert verdict.answer == "no" and verdict.note == "within-cap"

    def test_cap_must_cover_init(self):
        v = Vas("v", 1, (), (4,), (1,))
        with pytest.raises(ValueError):
            vas_cover_bounded(v, cap=2)

    def test_matches_brute_force_spec(self):
        rng = random.Random(5)
        seen = Counter()
        for _ in range(800):
            vas = random_vas(rng)
            cap = max(vas.v_init) + rng.randint(0, 3)
            budget = rng.choice((6, 40, 10_000))
            try:
                answer, steps, stats = spec_vas_cover(vas, cap, budget)
            except ResourceLimitError:
                with pytest.raises(ResourceLimitError):
                    vas_cover_bounded(vas, cap, budget)
                seen["overflow"] += 1
                continue
            verdict = vas_cover_bounded(vas, cap, budget)
            assert verdict.answer == answer
            assert verdict.stats == stats
            seen[answer] += 1
            seen["pruned"] += stats["pruned"] > 0
            seen["free"] += any(min(t_b) >= 0 for t_b, _ in vas.transitions)
            seen["multi-start"] += sum(map(bool, vas.v_init)) > 1
            seen["clamp"] += any(any(t_nb) for _, t_nb in vas.transitions)
            if answer == "yes":
                assert verdict.witness.initial == vas.v_init
                assert list(verdict.witness.steps) == steps
                seen["long witness"] += len(steps) > 2
        assert min(seen.values()) >= 15, seen

    @pytest.mark.parametrize("budget", [0, 1])
    def test_small_budgets_match_spec(self, budget):
        # The start counts against the budget: 0 admits nothing, 1 the start alone.
        rng = random.Random(6)
        seen = Counter()
        for _ in range(300):
            vas = random_vas(rng)
            cap = max(vas.v_init) + 1
            try:
                want = spec_vas_cover(vas, cap, budget)
            except ResourceLimitError:
                with pytest.raises(ResourceLimitError):
                    vas_cover_bounded(vas, cap, budget)
                seen["overflow"] += 1
                continue
            verdict = vas_cover_bounded(vas, cap, budget)
            assert (verdict.answer, verdict.witness and list(verdict.witness.steps),
                    verdict.stats) == want
            seen[verdict.answer] += 1
        assert seen["overflow"] == 300 if budget == 0 else min(seen.values()) > 20, seen

    def test_field_width_boundaries(self):
        # A field holds up to ``cap`` plus the largest positive blocking
        # entry; these VAS put that sum on and around powers of two, with
        # guards of 2 or more and clamp parts larger than the coordinate.
        rng = random.Random(8)
        seen = Counter()
        for n in range(600):
            dim = 1 if n % 4 == 0 else rng.randint(2, 4)
            cap = rng.choice((1, 2, 3, 4, 5, 7, 8))
            grow = rng.choice((1, 2, 3, 4, 5, 7, 8, 9))
            transitions = [(tuple(rng.choice((0, 0, -1, -2, -3, 1, grow)) for _ in range(dim)),
                            tuple(rng.choice((0, 0, 1, 3, 9)) for _ in range(dim)))
                           for _ in range(rng.randint(1, 6))]
            transitions.append((tuple(rng.choice((0, grow)) for _ in range(dim)), (0,) * dim))
            vas = Vas("w", dim, tuple(transitions),
                      tuple(rng.randint(0, cap) for _ in range(dim)),
                      tuple(rng.randint(0, cap + 1) for _ in range(dim)))
            budget = (40, 10_000)[n % 2]
            try:
                answer, steps, stats = spec_vas_cover(vas, cap, budget)
            except ResourceLimitError:
                with pytest.raises(ResourceLimitError):
                    vas_cover_bounded(vas, cap, budget)
                seen["overflow"] += 1
                continue
            verdict = vas_cover_bounded(vas, cap, budget)
            assert verdict.answer == answer
            assert verdict.stats == stats
            high = cap + max(b for t_b, _ in vas.transitions for b in t_b)
            seen["power of two", high & (high - 1) == 0] += 1
            seen["dim 1", answer] += dim == 1
            seen["pruned"] += stats["pruned"] > 0
            if answer == "yes":
                assert verdict.witness.initial == vas.v_init
                assert list(verdict.witness.steps) == steps
                prev = [vas.v_init] + [v for _t, v in steps]
                for ((t_b, t_nb), _v), u in zip(steps, prev):
                    seen["guard >= 2"] += min(t_b) <= -2
                    seen["clamp > coordinate"] += any(
                        c > a + b for a, b, c in zip(u, t_b, t_nb))
        assert min(seen.values()) >= 10 and len(seen) == 8, seen

    def test_machine_images_match_spec(self):
        # ``machine_to_vas`` images have one 0/1 coordinate per location,
        # the one-hot shape ``random_vas`` never makes.
        rng = random.Random(6)
        seen = Counter()
        for n in range(300):
            m = random_machine(rng, max_loc=6, max_ctr=3, max_t=10, restore=n % 2 == 1)
            if all(op.kind != NBDEC for _s, op, _d in m.transitions):
                src, dst = rng.choice(m.locations), rng.choice(m.locations)
                m = CounterMachine(m.name, m.locations, m.counters, m.init,
                                   m.transitions + ((src, CounterOp(NBDEC, m.counters[0]), dst),),
                                   m.restore)
            vas = machine_to_vas(m, rng.choice(m.locations[1:]))
            for cap in (1, 2, 3):
                answer, steps, stats = spec_vas_cover(vas, cap, 10_000)
                verdict = vas_cover_bounded(vas, cap, 10_000)
                assert verdict.answer == answer
                assert verdict.stats == stats
                if answer == "yes":
                    assert verdict.witness.initial == vas.v_init
                    assert list(verdict.witness.steps) == steps
                    seen["long witness"] += len(steps) > 2
                seen[answer] += 1
                seen["pruned"] += stats["pruned"] > 0
            seen["restore"] += m.restore
            seen["dim > 10"] += vas.dim > 10
        assert min(seen.values()) >= 20, seen

    def test_candidates_match_brute_force_rule(self):
        # At every vector within the cap that the strict steps reach, the
        # candidates are the transitions whose negative blocking entries
        # all fall on nonzero coordinates, in transition order.  Vectors
        # whose supports differ only where no step needs a coordinate share
        # a memo entry; the ``machine_to_vas`` images have many such
        # coordinates.
        rng = random.Random(12)
        seen = Counter()
        for n in range(400):
            if n % 2:
                m = random_machine(rng, max_loc=6, max_ctr=3, max_t=10, restore=n % 4 == 1)
                vas = machine_to_vas(m, rng.choice(m.locations[1:]))
            else:
                vas = random_vas(rng)
            cap = max(vas.v_init) + rng.randint(0, 2)
            grow = max([max(t_b) for t_b, _ in vas.transitions], default=0)
            layout = VasLayout(vas.dim, cap + max(grow, 0))
            candidates = _candidates(layout, [layout.compile(t) for t in vas.transitions])
            entries: dict[int, set] = {}
            seen_vectors = {vas.v_init}
            queue = [vas.v_init]
            for v in queue:
                want = [t for t in vas.transitions
                        if all(x > 0 for x, b in zip(v, t[0]) if b < 0)]
                got = candidates(layout.pack(v))
                assert [s[0] for s in got] == want
                if got:  # the empty tuple is one object however it was built
                    entries.setdefault(id(got), set()).add(tuple(x > 0 for x in v))
                for t in vas.transitions:
                    w = spec_step_strict(v, t)
                    if w is not None and max(w) <= cap and w not in seen_vectors:
                        seen_vectors.add(w)
                        queue.append(w)
            kind = "machine image" if n % 2 else "random"
            seen[kind, "shared entry"] += any(len(sups) > 1 for sups in entries.values())
            seen[kind, "several vectors"] += len(queue) > 5
        assert min(seen.values()) >= 20, seen

    def test_vas_validation(self):
        with pytest.raises(VasError):
            Vas("v", 1, (((1,), (-1,)),), (0,), (0,))
        with pytest.raises(VasError):
            Vas("v", 2, (), (0,), (0, 0))
