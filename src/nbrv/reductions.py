"""Compilers between protocols, counter machines, VAS and Minsky machines.

Four pure translations:

* protocol + target configuration  ->  test-free machine with non-blocking
  decrements whose distinguished location is coverable iff the target is;
* restore machine -> protocol, using a leader election by message overtake
  so that one process simulates the machine and the others model counters;
* non-blocking machine -> non-blocking VAS, one coordinate per location and
  per counter;
* two-counter Minsky machine -> wait-only protocol whose synchronization
  question encodes halting with empty counters.

All fresh names are drawn deterministically, so each translation is
byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .machines import (
    DEC,
    INC,
    NBDEC,
    NOP,
    ZEROTEST,
    CounterMachine,
    CounterOp,
    MachineError,
    MachineTransition,
    Vas,
)
from .model import (
    Configuration,
    Protocol,
    Transition,
    check_configuration,
    receivers,
    recv,
    send,
    tau,
)


@dataclass(frozen=True)
class TranslationReport:
    """Size accounting plus provenance tables for the generated names."""

    source_size: int
    target_size: int
    tables: dict[str, dict[str, str]] = field(default_factory=dict)


class _Names:
    """Deterministic fresh-name allocator avoiding a set of taken names."""

    def __init__(self, taken: Iterable[str]) -> None:
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        cand = base
        i = 1
        while cand in self.taken:
            cand = f"{base}_{i}"
            i += 1
        self.taken.add(cand)
        return cand


def _protocol_size(p: Protocol) -> int:
    return len(p.states) + len(p.messages) + len(p.transitions)


def _machine_size(m: CounterMachine) -> int:
    return len(m.locations) + len(m.counters) + len(m.transitions)


def protocol_to_machine(
    p: Protocol, target: Configuration
) -> tuple[CounterMachine, str, TranslationReport]:
    """Compile configuration coverability into location coverability.

    One counter per protocol state tracks the process count; a hub location
    hosts one simulation loop per protocol transition and a final chain of
    decrements checks the target.  Non-blocking decrements appear exactly in
    the loops that simulate sends, one per potential receiver state.
    """
    check_configuration(p, target)

    names = _Names([])
    hub = names.fresh("lin")
    aux_table: dict[str, str] = {}
    counter = 0

    def aux(tag: str) -> str:
        nonlocal counter
        loc = names.fresh(f"at_{counter}")
        counter += 1
        aux_table[tag] = loc
        return loc

    transitions: list[MachineTransition] = [(hub, CounterOp(INC, p.init), hub)]
    locations = [hub]

    for src, dst in p.taus:
        a = aux(f"tau:{src}->{dst}")
        locations.append(a)
        transitions.append((hub, CounterOp(DEC, src), a))
        transitions.append((a, CounterOp(INC, dst), hub))

    for q1, m, q1p in p.sends:
        for q2, mm, q2p in p.recvs:
            if mm != m:
                continue
            a1 = aux(f"rdv:{q1}!{m}->{q1p}/{q2}->{q2p}:1")
            a2 = aux(f"rdv:{q1}!{m}->{q1p}/{q2}->{q2p}:2")
            a3 = aux(f"rdv:{q1}!{m}->{q1p}/{q2}->{q2p}:3")
            locations += [a1, a2, a3]
            transitions.append((hub, CounterOp(DEC, q1), a1))
            transitions.append((a1, CounterOp(DEC, q2), a2))
            transitions.append((a2, CounterOp(INC, q1p), a3))
            transitions.append((a3, CounterOp(INC, q2p), hub))

    for q1, m, q1p in p.sends:
        head = aux(f"nb:{q1}!{m}->{q1p}")
        locations.append(head)
        transitions.append((hub, CounterOp(DEC, q1), head))
        cur = head
        for q2 in sorted(receivers(p, m)):
            nxt = aux(f"nb:{q1}!{m}->{q1p}/{q2}")
            locations.append(nxt)
            transitions.append((cur, CounterOp(NBDEC, q2), nxt))
            cur = nxt
        transitions.append((cur, CounterOp(INC, q1p), hub))

    flat_target = [s for s, n in target.items for _ in range(n)]
    cur = hub
    for i, q in enumerate(flat_target):
        nxt = aux(f"verify:{i}:{q}")
        locations.append(nxt)
        transitions.append((cur, CounterOp(DEC, q), nxt))
        cur = nxt
    final_loc = cur

    machine = CounterMachine(
        name=f"{p.name}_cover",
        locations=locations,
        counters=p.states,
        init=hub,
        transitions=transitions,
        restore=False,
    )
    report = TranslationReport(
        source_size=_protocol_size(p),
        target_size=_machine_size(machine),
        tables={"locations": {"hub": hub, **aux_table}},
    )
    return machine, final_loc, report


def machine_to_protocol(
    m: CounterMachine, target_loc: str
) -> tuple[Protocol, TranslationReport]:
    """Compile a restore machine into a protocol covering ``target_loc``.

    Each counter ``x`` becomes a three-state gadget whose middle state holds
    one process per counter unit; increments and decrements are handshakes
    with acknowledgement messages.  A process entering the simulation sends
    ``L`` (knocking out any current leader) then ``R`` (flushing a gadget
    stuck mid-handshake), which as a whole acts as a restore step of the
    machine.
    """
    if not m.is_nbrcm:
        raise MachineError(f"{m.name} is not a test-free restore machine")
    if target_loc not in set(m.locations):
        raise MachineError(f"unknown target location {target_loc!r}")

    names = _Names(m.locations)
    q_in = names.fresh("qin")
    lead = names.fresh("lead")
    sink = names.fresh("sink")
    gadget: dict[str, str] = {}
    for x in m.counters:
        gadget[f"one[{x}]"] = names.fresh(f"one_{x}")
        gadget[f"qa[{x}]"] = names.fresh(f"qa_{x}")
        gadget[f"qd[{x}]"] = names.fresh(f"qd_{x}")

    # An inc or dec waits for its acknowledgement in ``at_i``, where ``i``
    # counts the transitions other than nbdec.
    non_nb = [t for t in m.transitions if t[1].kind != NBDEC]
    aux = {t: names.fresh(f"at_{i}") for i, t in enumerate(non_nb) if t[1].kind in (INC, DEC)}

    msg = _Names([])
    messages: dict[str, str] = {"L": msg.fresh("L"), "R": msg.fresh("R")}
    for x in m.counters:
        for role in ("inc", "ackinc", "dec", "ackdec", "nbdec"):
            messages[f"{role}[{x}]"] = msg.fresh(f"{role}_{x}")

    transitions: list[Transition] = []
    for t in m.transitions:
        src, op, dst = t
        if op.kind == INC:
            transitions.append((src, send(messages[f"inc[{op.counter}]"]), aux[t]))
            transitions.append((aux[t], recv(messages[f"ackinc[{op.counter}]"]), dst))
        elif op.kind == DEC:
            transitions.append((src, send(messages[f"dec[{op.counter}]"]), aux[t]))
            transitions.append((aux[t], recv(messages[f"ackdec[{op.counter}]"]), dst))
        elif op.kind == NOP:
            transitions.append((src, tau(), dst))
        else:
            transitions.append((src, send(messages[f"nbdec[{op.counter}]"]), dst))

    machine_zone = list(m.locations) + list(aux.values())
    transitions.append((q_in, send(messages["L"]), lead))
    transitions.append((lead, send(messages["R"]), m.init))
    transitions.append((lead, recv(messages["L"]), sink))
    for loc in machine_zone:
        transitions.append((loc, recv(messages["L"]), sink))

    for x in m.counters:
        one, qa, qd = gadget[f"one[{x}]"], gadget[f"qa[{x}]"], gadget[f"qd[{x}]"]
        transitions.append((q_in, recv(messages[f"inc[{x}]"]), qa))
        transitions.append((qa, send(messages[f"ackinc[{x}]"]), one))
        transitions.append((one, recv(messages[f"dec[{x}]"]), qd))
        transitions.append((qd, send(messages[f"ackdec[{x}]"]), q_in))
        transitions.append((one, recv(messages[f"nbdec[{x}]"]), q_in))
        transitions.append((qa, recv(messages["R"]), q_in))
        transitions.append((qd, recv(messages["R"]), q_in))

    states = machine_zone + [q_in, lead, sink] + list(gadget.values())
    protocol = Protocol(
        name=f"{m.name}_sim",
        states=states,
        messages=messages.values(),
        init=q_in,
        final=target_loc,
        transitions=transitions,
    )
    report = TranslationReport(
        source_size=_machine_size(m),
        target_size=_protocol_size(protocol),
        tables={
            "states": {
                "qin": q_in, "lead": lead, "sink": sink, **gadget,
                **{f"aux[{t[0]},{t[1]},{t[2]}]": v for t, v in aux.items()},
            },
            "messages": messages,
        },
    )
    return protocol, report


def machine_to_vas(m: CounterMachine, target_loc: str) -> Vas:
    """Compile location coverability of a non-blocking machine into VAS covering.

    One coordinate per location (kept 0/1, exactly one active) plus one per
    counter.  The transitions are the machine's moves (restore jumps
    included) in ``CounterMachine.moves`` order; self-loops are split
    through a fresh location first.
    """
    if not m.is_test_free:
        raise MachineError(f"{m.name} has zero tests; VAS compilation needs a test-free machine")
    if target_loc not in set(m.locations):
        raise MachineError(f"unknown target location {target_loc!r}")

    trans = [move[0] for loc in m.locations for move in m.moves(loc)]
    names = _Names(m.locations)
    locations = list(m.locations)
    split: list[MachineTransition] = []
    for i, (src, op, dst) in enumerate(trans):
        if src == dst:
            mid = names.fresh(f"at_{i}")
            locations.append(mid)
            split.append((src, op, mid))
            split.append((mid, CounterOp(NOP), dst))
        else:
            split.append((src, op, dst))

    rest = sorted(set(locations) - {m.init, target_loc})
    ordered = [m.init] + rest + ([target_loc] if target_loc != m.init else [])
    loc_index = {loc: i for i, loc in enumerate(ordered)}
    k = len(ordered)
    counters = sorted(m.counters)
    ctr_index = {x: k + i for i, x in enumerate(counters)}
    dim = k + len(counters)

    vas_transitions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for src, op, dst in split:
        t_b = [0] * dim
        t_nb = [0] * dim
        t_b[loc_index[src]] -= 1
        t_b[loc_index[dst]] += 1
        if op.kind == INC:
            t_b[ctr_index[op.counter]] += 1
        elif op.kind == DEC:
            t_b[ctr_index[op.counter]] -= 1
        elif op.kind == NBDEC:
            t_nb[ctr_index[op.counter]] += 1
        vas_transitions.append((tuple(t_b), tuple(t_nb)))

    v_init = tuple(1 if i == loc_index[m.init] else 0 for i in range(dim))
    v_target = tuple(1 if i == loc_index[target_loc] else 0 for i in range(dim))
    return Vas(
        name=f"{m.name}_vas",
        dim=dim,
        transitions=tuple(sorted(set(vas_transitions))),
        v_init=v_init,
        v_target=v_target,
    )


def minsky_to_protocol(mm: CounterMachine, final: str) -> tuple[Protocol, TranslationReport]:
    """Compile halting-with-empty-counters into protocol synchronization.

    ``mm`` must be a plain two-counter (Minsky) machine: increments,
    decrements and zero tests, no restore, and no move out of ``final``.
    The produced protocol is wait-only.  One process simulates the control
    flow, a witness process guards leader uniqueness, counter units are
    processes parked in a per-counter gadget, and zero tests are lost sends
    that deadlock a unit process if the counter was non-empty.  All
    processes can gather in the final location iff the machine halts there
    with both counters at zero.
    """
    if mm.restore or any(op.kind == NBDEC for _s, op, _d in mm.transitions):
        raise MachineError("minsky2p takes a plain two-counter machine "
                           "(no nbdec transitions, restore off)")
    if len(mm.counters) != 2:
        raise MachineError("a Minsky machine has exactly two counters")
    if final not in mm.locations:
        raise MachineError("init/final locations must be declared")
    for src, op, _dst in mm.transitions:
        if op.kind not in (INC, DEC, ZEROTEST):
            raise MachineError(f"op {op.kind!r} not allowed in a Minsky machine")
        if src == final:
            raise MachineError("the final location must have no outgoing transition")

    names = _Names(mm.locations)
    q_in = names.fresh("qin")
    q1 = names.fresh("q1")
    q2 = names.fresh("q2")
    w = names.fresh("w")
    wp = names.fresh("wp")
    sink = names.fresh("sink")
    gadget: dict[str, str] = {}
    for i in (1, 2):
        gadget[f"zero[{i}]"] = names.fresh(f"c0_{i}")
        gadget[f"pending_inc[{i}]"] = names.fresh(f"p_{i}")
        gadget[f"one[{i}]"] = names.fresh(f"c1_{i}")
        gadget[f"pending_dec[{i}]"] = names.fresh(f"pp_{i}")

    msg = _Names([])
    messages: dict[str, str] = {
        "init": msg.fresh("init"),
        "ackinit": msg.fresh("ackinit"),
        "w": msg.fresh("w"),
    }
    for i in (1, 2):
        for role in ("inc", "ackinc", "dec", "ackdec", "zero"):
            messages[f"{role}[{i}]"] = msg.fresh(f"{role}_{i}")

    cidx = {mm.counters[0]: 1, mm.counters[1]: 2}
    transitions: list[Transition] = [
        (q_in, tau(), q1),
        (q_in, send(messages["init"]), w),
        (q_in, tau(), gadget["zero[1]"]),
        (q_in, tau(), gadget["zero[2]"]),
        (q1, recv(messages["init"]), q2),
        (q2, send(messages["ackinit"]), mm.init),
        (w, recv(messages["ackinit"]), wp),
        (wp, send(messages["w"]), final),
        (final, recv(messages["w"]), sink),
    ]
    for i in (1, 2):
        c0, pi = gadget[f"zero[{i}]"], gadget[f"pending_inc[{i}]"]
        c1, pd = gadget[f"one[{i}]"], gadget[f"pending_dec[{i}]"]
        transitions += [
            (c0, recv(messages[f"inc[{i}]"]), pi),
            (pi, send(messages[f"ackinc[{i}]"]), c1),
            (c1, recv(messages[f"dec[{i}]"]), pd),
            (c1, recv(messages[f"zero[{i}]"]), sink),
            (pd, send(messages[f"ackdec[{i}]"]), final),
        ]

    aux: dict[MachineTransition, str] = {}
    for j, t in enumerate(mm.transitions):
        src, op, dst = t
        i = cidx[op.counter]
        if op.kind == INC:
            aux[t] = names.fresh(f"at_{j}")
            transitions.append((src, send(messages[f"inc[{i}]"]), aux[t]))
            transitions.append((aux[t], recv(messages[f"ackinc[{i}]"]), dst))
        elif op.kind == DEC:
            aux[t] = names.fresh(f"at_{j}")
            transitions.append((src, send(messages[f"dec[{i}]"]), aux[t]))
            transitions.append((aux[t], recv(messages[f"ackdec[{i}]"]), dst))
        else:
            transitions.append((src, send(messages[f"zero[{i}]"]), dst))

    states = (
        list(mm.locations)
        + [q_in, q1, q2, w, wp, sink]
        + list(gadget.values())
        + list(aux.values())
    )
    protocol = Protocol(
        name=f"{mm.name}_sync",
        states=states,
        messages=messages.values(),
        init=q_in,
        final=final,
        transitions=transitions,
    )
    report = TranslationReport(
        source_size=_machine_size(mm),
        target_size=_protocol_size(protocol),
        tables={
            "states": {
                "qin": q_in, "q1": q1, "q2": q2, "w": w, "wp": wp, "sink": sink,
                **gadget,
                **{f"aux[{t[0]},{t[1]},{t[2]}]": v for t, v in aux.items()},
            },
            "messages": messages,
        },
    )
    return protocol, report
