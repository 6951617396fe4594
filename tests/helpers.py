"""Seeded random model generators shared by the test modules."""

from __future__ import annotations

import heapq
import random
from collections import Counter, deque
from functools import partial
from itertools import repeat
from operator import add, le, sub

from nbrv import explore
from nbrv.explore import Problem, ResourceLimitError, Verdict, Witness, search
from nbrv.gadgets import LevelContext, ProceduralMachine
from nbrv.machines import (
    DEC,
    EFFECT,
    INC,
    NBDEC,
    NOP,
    ZEROTEST,
    CounterMachine,
    CounterOp,
    MachineConfig,
    MachineTable,
    Vas,
    VasError,
    machine_successors,
)
from nbrv.model import (
    STEP_KINDS,
    Configuration,
    MalformedConfigurationError,
    MoveTable,
    Protocol,
    StepLabel,
    dense_successors,
    recv,
    send,
    tau,
)
from nbrv.reductions import TranslationReport, protocol_to_machine
from nbrv.waitonly import AbstractSet, NotWaitOnlyError, _pumpable, partition


# ``.nbm`` inputs of ``translate cm2p`` and ``translate minsky2p`` whose
# locations clash with the compilers' fresh names (``qin``, ``c0_1``).
RST_MACHINE = ("machine rst2\nlocations qin l1 l2 l3 lf\ninit qin\ncounters x y\n"
               "restore on\ntrans qin inc x l1\ntrans l1 nbdec y l2\ntrans l2 nop l3\n"
               "trans l3 inc y l3\ntrans l3 dec x lf\n")
MINSKY_MACHINE = ("machine mk2\nlocations l0 c0_1 l2 l3 lf\ninit l0\ncounters a b\n"
                  "restore off\ntrans l0 inc a c0_1\ntrans c0_1 zero? b l2\n"
                  "trans l2 dec a l3\ntrans l3 inc b l2\ntrans l2 zero? a lf\n")


def covers(c: Configuration, d: Configuration) -> bool:
    """The cover order: ``c(q) >= d(q)`` for every state ``q``."""
    counts = dict(c.items)
    return all(counts.get(q, 0) >= n for q, n in d.items)


def label_key(label: StepLabel) -> tuple[int, str]:
    """The label order: the kinds in ``STEP_KINDS`` order, then the message."""
    return (STEP_KINDS.index(label.kind), label.message or "")


def transition_key(t) -> tuple:
    """The order of a machine's ``transitions``: source, then the op kind in
    ``EFFECT`` order and its counter, then target."""
    src, op, dst = t
    return (src, list(EFFECT).index(op.kind), op.counter or "", dst)


def machine_config(m: CounterMachine, loc: str, valuation: dict[str, int] | None = None
                   ) -> MachineConfig:
    """The configuration at ``loc`` with the counters of ``valuation``, 0 elsewhere."""
    valuation = valuation or {}
    assert loc in m.loc_index and valuation.keys() <= set(m.counters), (loc, valuation)
    return MachineConfig(loc, tuple(valuation.get(x, 0) for x in m.counters))


def model_key(x: Protocol | CounterMachine | Vas) -> tuple:
    """All six fields of a protocol or machine, for comparing two of them.

    A VAS is a named tuple, so it is its own key.
    """
    if isinstance(x, Protocol):
        return (x.name, x.states, x.messages, x.init, x.final, x.transitions)
    if isinstance(x, CounterMachine):
        return (x.name, x.locations, x.counters, x.init, x.transitions, x.restore)
    return x


def initial(p: Protocol, n: int) -> Configuration:
    """The initial configuration with ``n`` processes on the initial state."""
    if n < 1:
        raise MalformedConfigurationError("population must be at least 1")
    return Configuration(((p.init, n),))


def random_protocol(rng: random.Random, max_q: int = 5, max_m: int = 3,
                    max_t: int = 10) -> Protocol:
    nq = rng.randint(2, max_q)
    nm = rng.randint(1, max_m)
    states = [f"s{i}" for i in range(nq)]
    msgs = [f"m{i}" for i in range(nm)]
    trans = set()
    for _ in range(rng.randint(1, max_t)):
        src, dst = rng.choice(states), rng.choice(states)
        r = rng.random()
        if r < 0.25:
            trans.add((src, tau(), dst))
        elif r < 0.6:
            trans.add((src, send(rng.choice(msgs)), dst))
        else:
            trans.add((src, recv(rng.choice(msgs)), dst))
    return Protocol("rnd", states, msgs, states[0], states[-1], trans)


def with_self_rendezvous(rng: random.Random, p: Protocol) -> Protocol:
    """``p`` with one state that both sends and receives one message."""
    q, m = rng.choice(p.states), rng.choice(p.messages)
    extra = ((q, send(m), rng.choice(p.states)), (q, recv(m), rng.choice(p.states)))
    return Protocol(p.name, p.states, p.messages, p.init, p.final, p.transitions + extra)


def random_wait_only(rng: random.Random, max_q: int = 6, max_m: int = 3,
                     max_t: int = 12) -> Protocol:
    nq = rng.randint(2, max_q)
    nm = rng.randint(1, max_m)
    states = [f"s{i}" for i in range(nq)]
    msgs = [f"m{i}" for i in range(nm)]
    waiting = {q for q in states[1:] if rng.random() < 0.5}
    trans = set()
    for _ in range(rng.randint(1, max_t)):
        src, dst = rng.choice(states), rng.choice(states)
        if src in waiting:
            trans.add((src, recv(rng.choice(msgs)), dst))
        elif rng.random() < 0.3:
            trans.add((src, tau(), dst))
        else:
            trans.add((src, send(rng.choice(msgs)), dst))
    return Protocol("rndwo", states, msgs, states[0], states[-1], trans)


def wait_only_chain(k: int) -> Protocol:
    """A wait-only chain: ``s_i !m_i s_i+1``, ``s_i !m_i+1 w_i`` and
    ``w_i ?m_i w_i+1`` (indices of ``w`` and ``m`` mod ``k``)."""
    trans = []
    for i in range(k):
        trans += [(f"s{i}", send(f"m{i}"), f"s{i + 1}"),
                  (f"s{i}", send(f"m{(i + 1) % k}"), f"w{i}"),
                  (f"w{i}", recv(f"m{i}"), f"w{(i + 1) % k}")]
    states = [f"s{i}" for i in range(k + 1)] + [f"w{i}" for i in range(k)]
    return Protocol("chain", states, [f"m{i}" for i in range(k)], "s0", f"s{k}", trans)


# The corruptions of :func:`bad_witnesses`, one change each.
WITNESS_MUTATIONS = (
    "start-type", "start-not-initial", "wrong-label", "not-a-successor", "step-dropped")


def bad_witnesses(w: Witness, wrong_label) -> dict[str, Witness]:
    """Witnesses a checker must reject, each one change away from the search witness ``w``.

    ``w`` is a shortest run of three steps or more, as a breadth-first
    search gives one, so no configuration of it is a successor of one two
    or more steps before it.  ``wrong_label`` is not the label of any
    step from ``w.initial`` to the first configuration of ``w``.
    """
    (label, first), *rest = w.steps
    assert len(w.steps) >= 3
    return {
        # A plain tuple equal to the start, but not of its type.
        "start-type": Witness(tuple(w.initial), w.steps),
        # A real run, from the first configuration after the start.
        "start-not-initial": Witness(first, tuple(rest)),
        "wrong-label": Witness(w.initial, ((wrong_label, first), *rest)),
        "not-a-successor": Witness(w.initial, ((label, w.steps[-1][1]), *rest)),
        "step-dropped": Witness(w.initial, tuple(rest)),
    }


def random_config(rng: random.Random, p: Protocol, max_items: int = 3) -> Configuration:
    counts: dict[str, int] = {}
    for _ in range(rng.randint(1, max_items)):
        q = rng.choice(p.states)
        counts[q] = counts.get(q, 0) + 1
    return Configuration.from_counts(counts)


def random_machine(rng: random.Random, max_loc: int = 4, max_ctr: int = 2,
                   max_t: int = 6, restore: bool = False) -> CounterMachine:
    nl = rng.randint(2, max_loc)
    nc = rng.randint(1, max_ctr)
    locs = [f"l{i}" for i in range(nl)]
    ctrs = [f"x{i}" for i in range(nc)]
    transitions = set()
    for _ in range(rng.randint(1, max_t)):
        src, dst = rng.choice(locs), rng.choice(locs)
        r = rng.random()
        if r < 0.15:
            transitions.add((src, CounterOp(NOP), dst))
        elif r < 0.55:
            transitions.add((src, CounterOp(INC, rng.choice(ctrs)), dst))
        elif r < 0.8:
            transitions.add((src, CounterOp(DEC, rng.choice(ctrs)), dst))
        else:
            transitions.add((src, CounterOp(NBDEC, rng.choice(ctrs)), dst))
    return CounterMachine("rnd", locs, ctrs, locs[0], transitions, restore=restore)


def spec_machine_successors(m: CounterMachine, cfg: MachineConfig) -> list:
    """``machines.successors`` as its docstring states it, on a counter dict.

    Every transition out of ``cfg.loc``, plus the restore jump to ``m.init``
    on a restore machine (once, even where a nop edge already makes it), in
    ``transitions`` order.  ``inc`` adds one; ``dec`` subtracts one and is
    blocked at zero; ``nbdec`` subtracts one and leaves a zero as it is; a
    zero test fires only on zero; ``nop`` changes no counter.
    """
    edges = {t for t in m.transitions if t[0] == cfg.loc}
    if m.restore:
        edges.add((cfg.loc, CounterOp(NOP), m.init))
    out = []
    for t in sorted(edges, key=transition_key):
        op, dst = t[1], t[2]
        vals = dict(zip(m.counters, cfg.values))
        if op.kind == INC:
            vals[op.counter] += 1
        elif op.kind == DEC:
            if vals[op.counter] == 0:
                continue
            vals[op.counter] -= 1
        elif op.kind == NBDEC:
            vals[op.counter] = max(0, vals[op.counter] - 1)
        elif op.kind == ZEROTEST and vals[op.counter] != 0:
            continue
        out.append((t, machine_config(m, dst, vals)))
    return out


def spec_successors(p: Protocol, c: Configuration) -> list[tuple[StepLabel, Configuration]]:
    """One-step successors written straight from the three rules in ``nbrv.model``.

    A sparse reference for the compiled interpreter: it works on a count
    dict, pairs every send edge with every receive edge of its message, and
    sorts by label order, then by ``items``.
    """
    counts = Counter(dict(c.items))

    def present(*states: str) -> bool:
        # Each listed state hosts its own process: a repeated state needs two.
        return all(counts[q] >= k for q, k in Counter(states).items())

    def moved(*edges: tuple[str, str]) -> Configuration:
        nxt = Counter(counts)
        for src, dst in edges:
            nxt[src] -= 1
            nxt[dst] += 1
        return Configuration.from_counts(nxt)

    found = set()
    for src, act, dst in p.transitions:
        if act.kind == "tau" and present(src):
            found.add((StepLabel("tau"), moved((src, dst))))
    for src, act, dst in p.transitions:
        if act.kind != "send" or not present(src):
            continue
        receptions = [(q, qp) for q, b, qp in p.transitions
                      if b.kind == "recv" and b.message == act.message]
        for q, qp in receptions:
            if present(src, q):
                found.add((StepLabel("msg", act.message), moved((src, dst), (q, qp))))
        others = Counter(counts)
        others[src] -= 1
        if not any(others[q] > 0 for q, _qp in receptions):
            found.add((StepLabel("nb", act.message), moved((src, dst))))
    return sorted(found, key=lambda pair: (label_key(pair[0]), pair[1].items))


def spec_violations(p: Protocol) -> tuple:
    """``NotWaitOnlyError.violations`` as ``waitonly.partition`` documents them.

    A state with an outgoing reception is waiting; it violates the
    partition when it also initiates (a send or an internal move) or is the
    initial state.  Each violation is the state, in name order, with its
    evidence: its initiating transitions, then its receptions, each group in
    ``p.transitions`` order, as ``(src, action text, dst)``.
    """
    out = []
    for q in p.states:
        edges = [(src, str(act), dst) for src, act, dst in p.transitions if src == q]
        receptions = [e for e in edges if e[1].startswith("?")]
        initiating = [e for e in edges if not e[1].startswith("?")]
        if receptions and (initiating or q == p.init):
            out.append((q, tuple(initiating + receptions)))
    return tuple(out)


def is_wait_only(p: Protocol) -> bool:
    """Whether ``waitonly.partition`` accepts ``p``."""
    try:
        partition(p)
    except NotWaitOnlyError:
        return False
    return True


def _senders_from(p: Protocol, states: frozenset[str]) -> frozenset[str]:
    """Messages sendable from some state of ``states``."""
    return frozenset(m for src, m, _dst in p.sends if src in states)


def is_consistent(gamma: AbstractSet, p: Protocol) -> bool:
    """Check that the abstraction is self-justifying.

    (i) every token ``(q, m)`` is witnessed by a path that starts with a
    send of ``m`` from an unbounded state and continues through receptions
    whose messages are sendable from unbounded states;
    (ii) no token state can be pumped against the other tokens (see
    :func:`_pumpable`): :func:`abstract_post` would promote such a state, so
    a token for it means the abstraction undercounts it.
    """
    sendable = _senders_from(p, gamma.states)

    for token_msg in {m for _q, m in gamma.tokens}:
        fringe = {dst for src, m, dst in p.sends if m == token_msg and src in gamma.states}
        seen = set(fringe)
        while fringe:
            nxt = set()
            for src, m, dst in p.recvs:
                if src in seen and m in sendable and dst not in seen:
                    nxt.add(dst)
            seen |= nxt
            fringe = nxt
        for q, m in gamma.tokens:
            if m == token_msg and q not in seen:
                return False

    return not any(_pumpable(p, q, m, gamma.tokens) for q, m in gamma.tokens)


def leader_zone(m: CounterMachine, p: Protocol, report: TranslationReport) -> frozenset[str]:
    """States of a compiled protocol in which the unique simulator process lives."""
    aux_states = {
        v for k, v in report.tables["states"].items() if k.startswith("aux[")
    }
    return frozenset(set(m.locations) | aux_states | {report.tables["states"]["lead"]})


def admissible_entry(ctx: LevelContext, level: int, overrides: dict[str, int] | None = None) -> dict[str, int]:
    """Valuation with levels below ``level`` initialized, everything else zero."""
    vals = {x: 0 for x in ctx.all_counters()}
    for j in range(min(level, ctx.levels)):
        for x in ctx.dual(j):
            vals[x] = ctx.bound(j)
    vals.update(overrides or {})
    return vals


def reachable_packed(
    pm: ProceduralMachine, entry_valuation: dict[str, int], budget: int = 200_000
) -> tuple[MachineTable, set[int]]:
    """All configurations reachable from the entry (no restore jumps), packed.

    The search runs on the machine's table for a cap.  A search that prunes
    a counter above that cap is run again with twice the cap, so the set
    returned is complete; the table returned decodes it.
    """
    start = machine_config(pm, pm.init, entry_valuation)
    overflow = f"budget {budget} exceeded while simulating {pm.name}"
    cap = max(start.values, default=0) + 1
    while True:
        t = pm.table(cap)
        over, high = t.over(cap), t.high
        parents, _hit, pruned = search(t.encode(start), partial(machine_successors, t),
                                       budget=budget, overflow=overflow,
                                       prune=lambda v: (v + over) & high)
        if not pruned:
            return t, set(parents)
        cap *= 2


def reachable_configs(
    pm: ProceduralMachine, entry_valuation: dict[str, int], budget: int = 200_000
) -> set[MachineConfig]:
    """All configurations reachable from the entry (no restore jumps)."""
    t, packed = reachable_packed(pm, entry_valuation, budget)
    return set(map(t.decode, packed))


def exit_valuations(
    pm: ProceduralMachine, entry_valuation: dict[str, int], budget: int = 200_000
) -> dict[str, list[dict[str, int]]]:
    """Valuations observed at each exit location, keyed by exit name.

    Only the configurations at an exit are decoded.
    """
    t, packed = reachable_packed(pm, entry_valuation, budget)
    out: dict[str, set[tuple[int, ...]]] = {o: set() for o in pm.outs}
    exits = {t.index[o] for o in pm.outs}
    for v in packed:
        if v & t.lmask in exits:
            cfg = t.decode(v)
            out[cfg.loc].add(cfg.values)
    return {
        o: [dict(zip(pm.counters, values)) for values in sorted(vals)]
        for o, vals in out.items()
    }


def backward_cover(p: Protocol, target: Configuration) -> bool:
    """Exact configuration coverability by backward search over minimal bases.

    ``protocol_to_machine`` turns the query into location coverability on a
    test-free counter machine, which is monotone (Abdulla, Cerans, Jonsson
    and Tsay, LICS 1996).  Each location keeps the antichain of minimal
    counter vectors from which the target location can be covered; the
    answer is YES once the zero vector reaches the initial location.
    Vectors are expanded smallest sum first: in FIFO order one rotation
    shape took 43 s.
    """
    m, goal, _report = protocol_to_machine(p, target)
    pre: dict[str, list[tuple[str, str, int]]] = {}
    for row in m.moves():
        for src, op, dst in row:
            if op.kind == ZEROTEST:
                raise ValueError("zero tests are not monotone")
            x = m.counters.index(op.counter) if op.counter else -1
            pre.setdefault(dst, []).append((src, op.kind, x))
    zero = (0,) * len(m.counters)
    basis: dict[str, set[tuple[int, ...]]] = {loc: set() for loc in m.locations}
    heap: list[tuple[int, tuple[int, ...], str]] = []

    def insert(loc: str, v: tuple[int, ...]) -> None:
        b = basis[loc]
        if any(all(map(le, u, v)) for u in b):
            return
        b -= {u for u in b if all(map(le, v, u))}
        b.add(v)
        heapq.heappush(heap, (sum(v), v, loc))

    insert(goal, zero)
    while heap and zero not in basis[m.init]:
        _size, v, loc = heapq.heappop(heap)
        if v not in basis[loc]:
            continue
        for src, kind, x in pre.get(loc, ()):
            w = list(v)
            if kind == INC:
                w[x] = max(0, w[x] - 1)
            elif kind == DEC or (kind == NBDEC and w[x] > 0):
                w[x] += 1
            insert(src, tuple(w))
    return zero in basis[m.init]


def ordered_reachable(p: Protocol, n: int, budget: int) -> tuple[MoveTable, set[int]]:
    """``explore.reachable`` as one search on the label-ordered ``dense_successors``."""
    t = p.moves(n)
    overflow = f"node budget {budget} exceeded at population {n}"
    return t, set(search(t.encode(initial(p, n)), partial(dense_successors, t),
                         budget=budget, overflow=overflow)[0])


def ordered_decide_fixed(p: Protocol, prob: Problem, n: int, budget: int) -> Verdict:
    """``explore.decide_fixed`` as one search on the label-ordered ``dense_successors``.

    A NO's ``depth`` is the distance of the deepest node; its
    ``signatures`` is read from the table's memo, which a complete search
    fills with the signature of every node it expands, whichever order it
    expands them in.  A ``synchro`` population that ``decide_fixed``
    decides from both ends gets the same answer and witness, but its NO
    counts the work of that search.
    """
    t = p.moves(n)
    goal = prob.goal(p, t, n)
    start = t.encode(initial(p, n))
    overflow = f"node budget {budget} exceeded at population {n}"
    succ = partial(dense_successors, t)
    parents, hit, _pruned = search(start, succ, budget=budget, overflow=overflow, goal=goal)
    if hit is None:
        # The last node a breadth-first search admits is one of the deepest.
        depth, v = 0, next(reversed(parents))
        while parents[v] is not None:
            depth, v = depth + 1, parents[v]
        return Verdict("no", explored_bound=n, stats={
            "visited": len(parents), "depth": depth, "signatures": len(t.memo)})
    return Verdict("yes", explore._rebuild(parents, succ, start, hit, t.decode), explored_bound=n)


def ordered_decide_sweep(p: Protocol, prob: Problem, max_n: int, budget: int,
                         start: int = 1) -> Verdict:
    """``explore.decide_sweep`` over :func:`ordered_decide_fixed`."""
    for n in range(start, max_n + 1):
        try:
            verdict = ordered_decide_fixed(p, prob, n, budget)
        except ResourceLimitError:
            return Verdict("unknown", explored_bound=n - 1, note="budget")
        if verdict.is_yes():
            return verdict
    return Verdict("unknown", explored_bound=max_n)


def random_vas(rng: random.Random, max_dim: int = 5, max_t: int = 8) -> Vas:
    """A small non-blocking VAS: sparse blocking parts, some of them without a
    negative coordinate, some nonzero clamp parts, and a start vector that
    may have several nonzero coordinates."""
    dim = rng.randint(1, max_dim)

    def sparse(lo: int, hi: int, density: float) -> tuple[int, ...]:
        return tuple(rng.randint(lo, hi) if rng.random() < density else 0
                     for _ in range(dim))

    transitions = []
    for _ in range(rng.randint(1, max_t)):
        lo = 0 if rng.random() < 0.2 else -2
        t_nb = sparse(0, 2, 0.3) if rng.random() < 0.5 else (0,) * dim
        transitions.append((sparse(lo, 2, 0.5), t_nb))
    return Vas("rnd", dim, tuple(transitions), sparse(0, 2, 0.6), sparse(1, 4, 0.6))


def spec_step_strict(v: tuple[int, ...], t) -> tuple[int, ...] | None:
    """``step_strict`` as its docstring states it, with generator expressions."""
    t_b, t_nb = t
    if len(v) != len(t_b):
        raise ValueError("vector arity mismatch")
    if any(a + b < 0 for a, b in zip(v, t_b)):
        return None
    return tuple(max(0, a + b - c) for a, b, c in zip(v, t_b, t_nb))


def _clamp(u, t_nb: tuple[int, ...]) -> tuple[int, ...]:
    """The clamp-subtract of a non-blocking step: ``max(0, u_i - t_nb_i)``."""
    return tuple(map(max, repeat(0), map(sub, u, t_nb)))


def step_relaxed(v: tuple[int, ...], t) -> tuple[int, ...]:
    """The relaxed VAS step on a dense ``(t_b, t_nb)`` pair: clamp the
    combined update at zero coordinatewise; always defined.  Strict steps
    that fire agree with it."""
    t_b, t_nb = t
    if len(v) != len(t_b):
        raise VasError("vector arity mismatch")
    return _clamp(map(add, v, t_b), t_nb)


def spec_step_relaxed(v: tuple[int, ...], t) -> tuple[int, ...]:
    """``step_relaxed`` as its docstring states it, with a generator expression."""
    t_b, t_nb = t
    if len(v) != len(t_b):
        raise ValueError("vector arity mismatch")
    return tuple(max(0, a + b - c) for a, b, c in zip(v, t_b, t_nb))


def spec_vas_cover(vas: Vas, cap: int, budget: int):
    """Brute-force strict-step BFS: every transition on every vector, in order.

    Returns ``(answer, steps, stats)`` with the witness as ``(transition,
    vector)`` steps, or raises ``ResourceLimitError`` when admitting a vector
    would exceed ``budget``.  A successor already seen is skipped before the
    cap is checked, and only new ones over the cap count as pruned.
    """
    def succ(v: tuple[int, ...]):
        return [(t, nxt) for t in vas.transitions
                if (nxt := spec_step_strict(v, t)) is not None]

    return _spec_capped(vas.v_init, succ,
                        lambda v: all(a >= b for a, b in zip(v, vas.v_target)),
                        lambda v: max(v) > cap, budget)


def spec_machine_cover(m: CounterMachine, loc: str, cap: int, budget: int):
    """Brute-force BFS over :func:`spec_machine_successors` for the location ``loc``.

    Returns ``(answer, steps, stats)`` with the witness as ``(transition,
    MachineConfig)`` steps, or raises ``ResourceLimitError`` when admitting a
    configuration would exceed ``budget``, as :func:`spec_vas_cover` does; a
    configuration with a counter above ``cap`` is pruned.
    """
    return _spec_capped(m.initial_config(), partial(spec_machine_successors, m),
                        lambda c: c.loc == loc,
                        lambda c: max(c.values, default=0) > cap, budget)


def _spec_capped(start, succ, covers, over, budget: int):
    """The BFS of :func:`spec_vas_cover` and :func:`spec_machine_cover`.

    ``start`` counts against ``budget`` like every other configuration, so a
    budget below 1 raises before ``start`` is tested.
    """
    if budget < 1:
        raise ResourceLimitError("budget")
    parent: dict = {start: None}
    pruned = 0
    end = start if covers(start) else None
    queue = deque([start] if end is None else [])
    while queue and end is None:
        cur = queue.popleft()
        for t, nxt in succ(cur):
            if nxt in parent:
                continue
            if over(nxt):
                pruned += 1
                continue
            if len(parent) >= budget:
                raise ResourceLimitError("budget")
            parent[nxt] = (cur, t)
            if covers(nxt):
                end = nxt
                break
            queue.append(nxt)
    stats = {"visited": len(parent), "pruned": pruned}
    if end is None:
        return "no", None, stats
    steps = []
    while parent[end] is not None:
        prev, t = parent[end]
        steps.append((t, end))
        end = prev
    return "yes", steps[::-1], stats
