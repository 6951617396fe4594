from __future__ import annotations

import random
from collections import deque
from pathlib import Path

import pytest

from helpers import (
    MINSKY_MACHINE,
    RST_MACHINE,
    is_wait_only,
    leader_zone,
    model_key,
    random_config,
    random_machine,
    random_protocol,
    with_self_rendezvous,
)
from nbrv.fileio import parse_machine, serialize_machine, serialize_vas
from nbrv.explore import Problem, decide_fixed, decide_sweep
from nbrv.machines import (
    DEC,
    INC,
    NBDEC,
    NOP,
    ZEROTEST,
    CounterMachine,
    CounterOp,
    MachineError,
    apply_strict,
    cover_bounded,
    vas_cover_bounded,
)
from nbrv.model import Configuration, Protocol, recv, send, successors, tau
from nbrv.reductions import (
    machine_to_protocol,
    machine_to_vas,
    minsky_to_protocol,
    protocol_to_machine,
)


GOLDEN_DIR = Path(__file__).parent / "golden"


def cfg(**counts: int) -> Configuration:
    return Configuration.from_counts(counts)


class TestProtocolToMachine:
    def test_internal_only_toy(self):
        p = Protocol("toy", ["q_in", "p"], [], "q_in", "p", [("q_in", tau(), "p")])
        m, lf, _rep = protocol_to_machine(p, cfg(p=1))
        # hub self-loop, 2-step internal loop, 1-step verification
        assert len(m.transitions) == 1 + 2 + 1
        assert all(op.kind != NBDEC for _s, op, _d in m.transitions)
        assert cover_bounded(m, lf, cap=1).is_yes()

    def test_nb_chain_one_step_per_receiver(self):
        p = Protocol("p", ["q", "q2", "r1", "r2", "s"], ["a"], "q", "s",
                     [("q", send("a"), "q2"),
                      ("r1", recv("a"), "s"), ("r2", recv("a"), "s")])
        m, _lf, _rep = protocol_to_machine(p, cfg(q2=1))
        nbdecs = [op.counter for _s, op, _d in m.transitions if op.kind == NBDEC]
        assert sorted(nbdecs) == ["r1", "r2"]

    def test_verification_chain_length(self):
        p = Protocol("p", ["q"], [], "q", "q", [])
        m, lf, _rep = protocol_to_machine(p, cfg(q=2))
        decs = [t for t in m.transitions if t[1].kind == DEC]
        assert len(decs) == 2
        assert cover_bounded(m, lf, cap=2).is_yes()

    def test_random_protocols_golden(self):
        """The written machine, its final location and the sizes, pinned byte
        for byte: the order of the ``at_k`` names is the order of emission."""
        rng = random.Random(16)
        text, units = [], []
        for i in range(40):
            p = random_protocol(rng)
            if i % 3 == 0:
                p = with_self_rendezvous(rng, p)
            target = random_config(rng, p, max_items=4)
            units.append(max(n for _q, n in target.items))
            m, lf, rep = protocol_to_machine(p, target)
            text.append(f"{serialize_machine(m)}TARGET {lf}\n"
                        f"SIZE source={rep.source_size} target={rep.target_size}\n")
        # The seed covers targets with two and three units of one state.
        assert {2, 3} <= set(units)
        assert "".join(text) == (GOLDEN_DIR / "p2cm_random_protocols.txt").read_text()

    def test_empty_target_rejected(self, fig1):
        with pytest.raises(Exception):
            protocol_to_machine(fig1, Configuration(()))

    def test_verdict_agreement(self):
        rng = random.Random(321)
        disagreements = 0
        for _ in range(60):
            p = random_protocol(rng)
            target = random_config(rng, p, max_items=2)
            m, lf, _rep = protocol_to_machine(p, target)
            proto_yes = any(
                decide_fixed(p, Problem("ccover", target), n).is_yes()
                for n in range(1, 6)
            )
            if proto_yes != cover_bounded(m, lf, cap=5).is_yes():
                disagreements += 1
        assert disagreements == 0


class TestMachineToProtocol:
    def one_counter_machine(self) -> CounterMachine:
        return CounterMachine(
            "inc1", ["lin", "lf"], ["x"], "lin",
            [("lin", CounterOp(INC, "x"), "lf")], restore=True)

    def test_cover_with_three_processes(self):
        proto, _rep = machine_to_protocol(self.one_counter_machine(), "lf")
        assert decide_fixed(proto, Problem("scover"), 3).is_yes()

    def test_state_count(self):
        rng = random.Random(51)
        for _ in range(30):
            m = random_machine(rng, restore=True)
            proto, _rep = machine_to_protocol(m, m.locations[-1])
            handshakes = [t for t in m.transitions if t[1].kind in (INC, DEC)]
            expected = len(m.locations) + len(handshakes) + 3 * len(m.counters) + 3
            assert len(proto.states) == expected
            entered = {dst for _s, _a, dst in proto.transitions}
            assert all(q in entered for q in proto.states if q.startswith("at_"))

    def test_leader_uniqueness(self):
        rng = random.Random(52)
        for _ in range(25):
            m = random_machine(rng, max_loc=3, max_t=4, restore=True)
            proto, rep = machine_to_protocol(m, m.locations[-1])
            zone = leader_zone(m, proto, rep)
            start = Configuration(((proto.init, 3),))
            seen = {start}
            queue = deque([(start, 0)])
            while queue:
                cur, depth = queue.popleft()
                if depth >= 1:
                    assert sum(n for q, n in cur.items if q in zone) == 1, (m, cur)
                for _l, nxt in successors(proto, cur):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append((nxt, depth + 1))

    def test_requires_restore_machine(self):
        m = CounterMachine("m", ["l0"], ["x"], "l0", [], restore=False)
        with pytest.raises(MachineError):
            machine_to_protocol(m, "l0")

    def test_requires_test_free(self):
        m = CounterMachine("m", ["l0", "l1"], ["x"], "l0",
                           [("l0", CounterOp(ZEROTEST, "x"), "l1")], restore=True)
        with pytest.raises(MachineError):
            machine_to_protocol(m, "l1")

    def test_verdict_agreement(self):
        rng = random.Random(99)
        disagreements = 0
        for _ in range(60):
            m = random_machine(rng, restore=True)
            lf = m.locations[-1]
            proto, _rep = machine_to_protocol(m, lf)
            mach_yes = cover_bounded(m, lf, cap=3).is_yes()
            sweep_yes = decide_sweep(proto, Problem("scover"), 8).is_yes()
            if mach_yes != sweep_yes:
                disagreements += 1
        assert disagreements == 0


class TestMachineToVas:
    def test_nbdec_vectors(self):
        m = CounterMachine("m", ["l1", "l2"], ["x"], "l1",
                           [("l1", CounterOp(NBDEC, "x"), "l2")])
        v = machine_to_vas(m, "l2")
        assert v.dim == 3
        assert v.transitions == (((-1, 1, 0), (0, 0, 1)),)
        assert v.v_init == (1, 0, 0) and v.v_target == (0, 1, 0)

    def test_nop_vectors(self):
        m = CounterMachine("m", ["l1", "l2"], ["x"], "l1",
                           [("l1", CounterOp(NOP), "l2")])
        v = machine_to_vas(m, "l2")
        assert v.transitions == (((-1, 1, 0), (0, 0, 0)),)

    def test_self_loop_split(self):
        m = CounterMachine("m", ["l1", "l2"], ["x"], "l1",
                           [("l1", CounterOp(INC, "x"), "l1"),
                            ("l1", CounterOp(NOP), "l2")])
        v = machine_to_vas(m, "l2")
        assert v.dim == 4  # the self-loop goes through a fresh location
        assert all(any(x < 0 for x in t_b) for t_b, _ in v.transitions)

    def test_zerotest_rejected(self):
        m = CounterMachine("m", ["l1", "l2"], ["x"], "l1",
                           [("l1", CounterOp(ZEROTEST, "x"), "l2")])
        with pytest.raises(MachineError):
            machine_to_vas(m, "l2")

    def test_one_active_location_coordinate(self):
        rng = random.Random(61)
        for _ in range(40):
            m = random_machine(rng)
            v = machine_to_vas(m, m.locations[-1])
            k = v.dim - len(m.counters)
            frontier = {v.v_init}
            seen = set(frontier)
            for _ in range(200):
                nxt = set()
                for vec in frontier:
                    for t in v.transitions:
                        out = apply_strict(vec, t)
                        if out is not None and out not in seen and all(x <= 2 for x in out):
                            nxt.add(out)
                seen |= nxt
                frontier = nxt
                if not frontier:
                    break
            for vec in seen:
                assert sum(vec[:k]) == 1 and all(x in (0, 1) for x in vec[:k])

    def test_restore_machines_golden(self):
        """Restore jumps, self-loop splits and fresh names, pinned byte for byte."""
        rng = random.Random(1)
        ms = [random_machine(rng, restore=True) for _ in range(20)]
        # The seed covers an explicit self-loop and a nop edge to init that
        # coincides with a restore jump.
        assert any(s == d for m in ms for s, _op, d in m.transitions)
        assert any(s != d and op == CounterOp(NOP) and d == m.init
                   for m in ms for s, op, d in m.transitions)
        text = "".join(serialize_vas(machine_to_vas(m, m.locations[-1])) for m in ms)
        assert text == (GOLDEN_DIR / "vas_restore_machines.txt").read_text()

    def test_verdict_agreement(self):
        rng = random.Random(1234)
        disagreements = 0
        for _ in range(60):
            m = random_machine(rng, max_t=7)
            lf = m.locations[-1]
            cap = rng.randint(1, 4)
            a = cover_bounded(m, lf, cap=cap).answer
            b = vas_cover_bounded(machine_to_vas(m, lf), cap=cap).answer
            if a != b:
                disagreements += 1
        assert disagreements == 0


def halting_minsky() -> CounterMachine:
    return CounterMachine(
        "halting", ("l0", "l1", "lf"), ("x1", "x2"), "l0",
        (("l0", CounterOp(INC, "x1"), "l1"),
         ("l1", CounterOp(DEC, "x1"), "lf")))


def stranded_minsky() -> CounterMachine:
    return CounterMachine(
        "stranded", ("l0", "lf"), ("x1", "x2"), "l0",
        (("l0", CounterOp(INC, "x1"), "lf"),))


class TestMinskyToProtocol:
    def test_image_is_wait_only(self):
        proto, _rep = minsky_to_protocol(halting_minsky(), "lf")
        assert is_wait_only(proto)

    def test_halting_machine_synchronizes_at_three(self):
        proto, _rep = minsky_to_protocol(halting_minsky(), "lf")
        assert decide_fixed(proto, Problem("synchro"), 3).is_yes()

    def test_stranded_counter_blocks_synchro(self):
        proto, _rep = minsky_to_protocol(stranded_minsky(), "lf")
        for n in range(1, 6):
            assert not decide_fixed(proto, Problem("synchro"), n).is_yes()

    def test_zero_test_is_single_send(self):
        mm = CounterMachine(
            "zt", ("l0", "lf"), ("x1", "x2"), "l0",
            (("l0", CounterOp(ZEROTEST, "x1"), "lf"),))
        proto, rep = minsky_to_protocol(mm, "lf")
        zmsg = rep.tables["messages"]["zero[1]"]
        assert ("l0", send(zmsg), "lf") in proto.transitions
        # halting immediately with zero counters: synchro possible
        assert decide_fixed(proto, Problem("synchro"), 2).is_yes()

    def test_final_location_must_be_sink(self):
        mm = CounterMachine("bad", ("l0", "lf"), ("x1", "x2"), "l0",
                            (("lf", CounterOp(INC, "x1"), "l0"),))
        with pytest.raises(MachineError):
            minsky_to_protocol(mm, "lf")

    def test_two_counters_required(self):
        with pytest.raises(MachineError):
            minsky_to_protocol(CounterMachine("bad", ("l0",), ("x1", "x1"), "l0", ()), "l0")


class TestReportTables:
    """The full name tables of the two counter simulations, in order.

    The ``translate`` runs in ``golden/gen_gadgets.txt`` show the written
    protocols but not these tables, which ``helpers.leader_zone`` reads.
    """

    def test_cm2p_tables(self):
        _proto, rep = machine_to_protocol(parse_machine(RST_MACHINE), "lf")
        assert repr(rep.tables) == repr({
            "states": {
                "qin": "qin_1", "lead": "lead", "sink": "sink",
                "one[x]": "one_x", "qa[x]": "qa_x", "qd[x]": "qd_x",
                "one[y]": "one_y", "qa[y]": "qa_y", "qd[y]": "qd_y",
                "aux[l3,inc y,l3]": "at_1", "aux[l3,dec x,lf]": "at_2",
                "aux[qin,inc x,l1]": "at_3",
            },
            "messages": {
                "L": "L", "R": "R",
                "inc[x]": "inc_x", "ackinc[x]": "ackinc_x", "dec[x]": "dec_x",
                "ackdec[x]": "ackdec_x", "nbdec[x]": "nbdec_x",
                "inc[y]": "inc_y", "ackinc[y]": "ackinc_y", "dec[y]": "dec_y",
                "ackdec[y]": "ackdec_y", "nbdec[y]": "nbdec_y",
            },
        })

    def test_minsky2p_tables(self):
        _proto, rep = minsky_to_protocol(parse_machine(MINSKY_MACHINE), "lf")
        assert repr(rep.tables) == repr({
            "states": {
                "qin": "qin", "q1": "q1", "q2": "q2", "w": "w", "wp": "wp", "sink": "sink",
                "zero[1]": "c0_1_1", "pending_inc[1]": "p_1", "one[1]": "c1_1",
                "pending_dec[1]": "pp_1",
                "zero[2]": "c0_2", "pending_inc[2]": "p_2", "one[2]": "c1_2",
                "pending_dec[2]": "pp_2",
                "aux[l0,inc a,c0_1]": "at_1", "aux[l2,dec a,l3]": "at_2",
                "aux[l3,inc b,l2]": "at_4",
            },
            "messages": {
                "init": "init", "ackinit": "ackinit", "w": "w",
                "inc[1]": "inc_1", "ackinc[1]": "ackinc_1", "dec[1]": "dec_1",
                "ackdec[1]": "ackdec_1", "zero[1]": "zero_1",
                "inc[2]": "inc_2", "ackinc[2]": "ackinc_2", "dec[2]": "dec_2",
                "ackdec[2]": "ackdec_2", "zero[2]": "zero_2",
            },
        })


class TestDeterminism:
    def test_translations_are_reproducible(self):
        rng = random.Random(71)
        for _ in range(20):
            m = random_machine(rng, restore=True)
            lf = m.locations[-1]
            a, b = machine_to_protocol(m, lf)[0], machine_to_protocol(m, lf)[0]
            assert model_key(a) == model_key(b)
            assert machine_to_vas(m, lf) == machine_to_vas(m, lf)
            p = random_protocol(rng)
            t = random_config(rng, p)
            a, b = protocol_to_machine(p, t)[0], protocol_to_machine(p, t)[0]
            assert model_key(a) == model_key(b)

    def test_fresh_names_injective(self):
        # Injective per namespace: states and messages are separate tables.
        rng = random.Random(72)
        reports = []
        for _ in range(20):
            m = random_machine(rng, restore=True)
            reports.append(machine_to_protocol(m, m.locations[-1])[1])
        reports.append(minsky_to_protocol(halting_minsky(), "lf")[1])
        for rep in reports:
            for table in rep.tables.values():
                values = list(table.values())
                assert len(values) == len(set(values))
