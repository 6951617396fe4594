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

The two counter simulations (machine -> protocol, Minsky -> protocol) share
their control encoding, ``_control``: one process runs the machine, an
``inc``/``dec`` is a request by rendez-vous and a wait for its acknowledgement
in a fresh ``at_i`` state, a ``nop`` is a tau, and an ``nbdec`` or zero test
is a request with no acknowledgement.  Each keeps only its own counter
gadgets and leader guard.

The protocol -> machine compiler names its locations ``lin`` (the hub) and
``at_0, at_1, ...`` in emission order, and keeps no table of them: only the
counter simulations return name tables.  All fresh names are drawn
deterministically, so each translation is byte-reproducible.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .machines import (
    DEC,
    EFFECT,
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
    STEP_KINDS,
    Configuration,
    Protocol,
    Transition,
    check_configuration,
    recv,
    send,
    tau,
)


class TranslationReport(namedtuple("TranslationReport", "source_size target_size tables")):
    """Size accounting; the two counter simulations add the ``states`` and
    ``messages`` tables of their generated names, the other translations none."""

    __slots__ = ()

    def __new__(cls, source_size: int, target_size: int,
                tables: dict[str, dict[str, str]] | None = None) -> TranslationReport:
        return tuple.__new__(cls, (source_size, target_size, {} if tables is None else tables))


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
    hosts one simulation loop per step rule of ``Protocol.rules`` and a
    final chain of decrements checks the target.  A rule's loop decrements
    its sources, non-blocking decrements its blockers (so they appear
    exactly in the loops of non-blocking sends, one per receiver state) and
    increments its destinations.
    """
    check_configuration(p, target)

    hub = "lin"
    locations = [hub]
    transitions: list[MachineTransition] = [(hub, CounterOp(INC, p.init), hub)]

    def chain(ops: list[tuple[str, str]], back: bool = True) -> str:
        """Edges from the hub, one per op, each into a fresh ``at_k`` location
        (``k`` the order of emission); with ``back`` the last re-enters the hub."""
        cur = hub
        for i, (kind, x) in enumerate(ops, 1):
            if back and i == len(ops):
                nxt = hub
            else:
                nxt = f"at_{len(locations) - 1}"
                locations.append(nxt)
            transitions.append((cur, CounterOp(kind, x), nxt))
            cur = nxt
        return cur

    # Taus, then rendez-vous, then non-blocking sends, each kind in table order.
    by_kind = sorted(p.rules, key=lambda rule: STEP_KINDS.index(rule[0]))
    for _kind, _m, src, dst, blockers in by_kind:
        chain([(DEC, q) for q in src] + [(NBDEC, q) for q in blockers] + [(INC, q) for q in dst])
    final_loc = chain([(DEC, q) for q, n in target.items for _ in range(n)], back=False)

    machine = CounterMachine(f"{p.name}_cover", locations, p.states, hub, transitions)
    return machine, final_loc, TranslationReport(_protocol_size(p), _machine_size(machine))


def _table(names: _Names, fixed: Iterable[str], keys: Iterable[object],
           roles: dict[str, str]) -> dict[str, str]:
    """Fresh names for the ``fixed`` bases, then ``{base}_{k}`` as ``role[k]``
    for each key ``k`` and each ``role: base``, in that order."""
    table = {base: names.fresh(base) for base in fixed}
    for k in keys:
        for role, base in roles.items():
            table[f"{role}[{k}]"] = names.fresh(f"{base}_{k}")
    return table


def _messages(fixed: Iterable[str], keys: Iterable[object],
              roles: Iterable[str]) -> dict[str, str]:
    """The message table; messages are a namespace apart from the states."""
    return _table(_Names([]), fixed, keys, {role: role for role in roles})


def _control(m: CounterMachine, names: _Names, messages: dict[str, str],
             key: dict[str, object]) -> tuple[dict[MachineTransition, str], list[Transition]]:
    """The control process's moves, one per machine transition.

    An ``inc`` or ``dec`` of counter ``x`` sends its request and waits in
    ``at_i`` for the acknowledgement, where ``i`` counts the transitions
    other than nbdec; a ``nop`` is a tau; an ``nbdec`` or a zero test is one
    request with no acknowledgement.  The messages of ``x`` are
    ``role[key[x]]``, the role being the op kind (``zero`` for a zero test).
    Returns the wait states, by transition, and the moves.
    """
    aux: dict[MachineTransition, str] = {}
    moves: list[Transition] = []
    i = 0
    for t in m.transitions:
        src, op, dst = t
        k = key.get(op.counter)
        if op.kind == NOP:
            moves.append((src, tau(), dst))
        elif op.kind in (INC, DEC):
            aux[t] = names.fresh(f"at_{i}")
            moves.append((src, send(messages[f"{op.kind}[{k}]"]), aux[t]))
            moves.append((aux[t], recv(messages[f"ack{op.kind}[{k}]"]), dst))
        else:
            role = "zero" if op.kind == ZEROTEST else op.kind
            moves.append((src, send(messages[f"{role}[{k}]"]), dst))
        i += op.kind != NBDEC
    return aux, moves


def _simulation(m: CounterMachine, suffix: str, final: str, states: dict[str, str],
                aux: dict[MachineTransition, str], messages: dict[str, str],
                transitions: list[Transition]) -> tuple[Protocol, TranslationReport]:
    """The protocol on ``m``'s locations, the named ``states`` and the wait
    states ``aux``, entered at ``states["qin"]``, with its report."""
    table = {**states, **{f"aux[{s},{op},{d}]": v for (s, op, d), v in aux.items()}}
    protocol = Protocol(f"{m.name}_{suffix}", [*m.locations, *table.values()],
                        messages.values(), states["qin"], final, transitions)
    tables = {"states": table, "messages": messages}
    return protocol, TranslationReport(_machine_size(m), _protocol_size(protocol), tables)


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
    m.target(target_loc)

    names = _Names(m.locations)
    states = _table(names, ("qin", "lead", "sink"), m.counters,
                    {"one": "one", "qa": "qa", "qd": "qd"})
    messages = _messages(("L", "R"), m.counters, ("inc", "ackinc", "dec", "ackdec", "nbdec"))
    aux, transitions = _control(m, names, messages, {x: x for x in m.counters})

    q_in, lead, sink = states["qin"], states["lead"], states["sink"]
    knock, flush = messages["L"], messages["R"]
    transitions += [(q_in, send(knock), lead), (lead, send(flush), m.init),
                    (lead, recv(knock), sink)]
    transitions += [(loc, recv(knock), sink) for loc in [*m.locations, *aux.values()]]
    for x in m.counters:
        one, qa, qd = states[f"one[{x}]"], states[f"qa[{x}]"], states[f"qd[{x}]"]
        transitions += [
            (q_in, recv(messages[f"inc[{x}]"]), qa),
            (qa, send(messages[f"ackinc[{x}]"]), one),
            (one, recv(messages[f"dec[{x}]"]), qd),
            (qd, send(messages[f"ackdec[{x}]"]), q_in),
            (one, recv(messages[f"nbdec[{x}]"]), q_in),
            (qa, recv(flush), q_in),
            (qd, recv(flush), q_in),
        ]
    return _simulation(m, "sim", target_loc, states, aux, messages, transitions)


def machine_to_vas(m: CounterMachine, target_loc: str) -> Vas:
    """Compile location coverability of a non-blocking machine into VAS covering.

    One coordinate per location (kept 0/1, exactly one active) plus one per
    counter.  The transitions are the machine's moves (restore jumps
    included) in ``CounterMachine.moves`` order; self-loops are split
    through a fresh location first.  A counter's entry is read from the
    op's ``EFFECT``: an op that blocks at zero, or makes the same change
    either way, adds that change to ``t_b``, and ``nbdec`` puts its
    decrement, negated, in the clamp part ``t_nb``.
    """
    if not m.is_test_free:
        raise MachineError(f"{m.name} has zero tests; VAS compilation needs a test-free machine")
    m.target(target_loc)

    trans = [t for row in m.moves() for t in row]
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
    ctr_index = {x: k + i for i, x in enumerate(m.counters)}
    dim = k + len(m.counters)

    vas_transitions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for src, op, dst in split:
        t_b = [0] * dim
        t_nb = [0] * dim
        t_b[loc_index[src]] -= 1
        t_b[loc_index[dst]] += 1
        if op.counter:
            nonzero, zero = EFFECT[op.kind]
            if zero is None or zero == nonzero:
                t_b[ctr_index[op.counter]] += nonzero
            else:  # a decrement that clamps at zero
                t_nb[ctr_index[op.counter]] -= nonzero
        vas_transitions.append((tuple(t_b), tuple(t_nb)))

    v_target = tuple(1 if i == loc_index[target_loc] else 0 for i in range(dim))
    return Vas(name=f"{m.name}_vas", dim=dim, transitions=tuple(sorted(set(vas_transitions))),
               v_init=(1,) + (0,) * (dim - 1), v_target=v_target)


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
    mm.target(final)
    for src, op, _dst in mm.transitions:
        if op.kind not in (INC, DEC, ZEROTEST):
            raise MachineError(f"op {op.kind!r} not allowed in a Minsky machine")
        if src == final:
            raise MachineError("the final location must have no outgoing transition")

    names = _Names(mm.locations)
    states = _table(names, ("qin", "q1", "q2", "w", "wp", "sink"), (1, 2),
                    {"zero": "c0", "pending_inc": "p", "one": "c1", "pending_dec": "pp"})
    messages = _messages(("init", "ackinit", "w"), (1, 2),
                         ("inc", "ackinc", "dec", "ackdec", "zero"))
    aux, transitions = _control(mm, names, messages,
                                {mm.counters[0]: 1, mm.counters[1]: 2})

    q_in, q1, q2, w, wp, sink = (states[b] for b in ("qin", "q1", "q2", "w", "wp", "sink"))
    transitions += [
        (q_in, tau(), q1),
        (q_in, send(messages["init"]), w),
        (q_in, tau(), states["zero[1]"]),
        (q_in, tau(), states["zero[2]"]),
        (q1, recv(messages["init"]), q2),
        (q2, send(messages["ackinit"]), mm.init),
        (w, recv(messages["ackinit"]), wp),
        (wp, send(messages["w"]), final),
        (final, recv(messages["w"]), sink),
    ]
    for i in (1, 2):
        c0, pi = states[f"zero[{i}]"], states[f"pending_inc[{i}]"]
        c1, pd = states[f"one[{i}]"], states[f"pending_dec[{i}]"]
        transitions += [
            (c0, recv(messages[f"inc[{i}]"]), pi),
            (pi, send(messages[f"ackinc[{i}]"]), c1),
            (c1, recv(messages[f"dec[{i}]"]), pd),
            (c1, recv(messages[f"zero[{i}]"]), sink),
            (pd, send(messages[f"ackdec[{i}]"]), final),
        ]
    return _simulation(mm, "sync", final, states, aux, messages, transitions)
