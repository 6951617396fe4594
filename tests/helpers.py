"""Seeded random model generators shared by the test modules."""

from __future__ import annotations

import random
from collections import Counter

from nbrv.machines import DEC, INC, NBDEC, NOP, CounterMachine, CounterOp
from nbrv.model import Configuration, Protocol, StepLabel, recv, send, tau


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
    blocking, nonblocking = set(), set()
    for _ in range(rng.randint(1, max_t)):
        src, dst = rng.choice(locs), rng.choice(locs)
        r = rng.random()
        if r < 0.15:
            blocking.add((src, CounterOp(NOP), dst))
        elif r < 0.55:
            blocking.add((src, CounterOp(INC, rng.choice(ctrs)), dst))
        elif r < 0.8:
            blocking.add((src, CounterOp(DEC, rng.choice(ctrs)), dst))
        else:
            nonblocking.add((src, CounterOp(NBDEC, rng.choice(ctrs)), dst))
    return CounterMachine("rnd", locs, ctrs, locs[0], blocking, nonblocking,
                          restore=restore)


def spec_successors(p: Protocol, c: Configuration,
                    allow_nonblocking: bool = True) -> list[tuple[StepLabel, Configuration]]:
    """One-step successors written straight from the three rules in ``nbrv.model``.

    A sparse reference for the compiled interpreter: it works on a count
    dict, pairs every send edge with every receive edge of its message, and
    sorts by ``(label.sort_key(), items)``.
    """
    counts = Counter(c.counts())

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
        if allow_nonblocking and not any(others[q] > 0 for q, _qp in receptions):
            found.add((StepLabel("nb", act.message), moved((src, dst))))
    return sorted(found, key=lambda pair: (pair[0].sort_key(), pair[1].items))
