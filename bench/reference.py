"""Reference semantics the benchmark checks nbrv's outputs against.

Written from the definitions in the repository README, independently of
``nbrv``: its own readers for the three text formats, a dense
non-blocking rendez-vous successor function, a counter-machine step and a
non-blocking VAS step, and breadth-first searches over each.

Protocol configurations are tuples of counts indexed by the sorted state
names; machine configurations are ``(location, values)`` with the values in
sorted counter order, which is also the order nbrv prints them in.
"""

from __future__ import annotations

from collections import deque


def _lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if toks:
            out.append(toks)
    return out


class Protocol:
    """A ``.rvp`` protocol with its rules compiled to index moves."""

    def __init__(self, text: str) -> None:
        lines = _lines(text)
        head = {toks[0]: toks[1:] for toks in lines[:5]}
        self.name = head["protocol"][0]
        self.states = tuple(sorted(set(head["states"])))
        self.index = {q: i for i, q in enumerate(self.states)}
        self.init = self.index[head["init"][0]]
        self.final = self.index[head["final"][0]]
        taus, sends, recvs = set(), set(), set()
        for toks in lines[5:]:
            src, act, dst = self.index[toks[1]], toks[2], self.index[toks[3]]
            if act == "tau":
                taus.add((src, dst))
            elif act[0] == "!":
                sends.add((src, act[1:], dst))
            else:
                recvs.add((src, act[1:], dst))
        self.taus = sorted(taus)
        self.sends = sorted(sends)
        self.recvs = sorted(recvs)
        self.receivers: dict[str, list[tuple[int, int]]] = {}
        for src, m, dst in self.recvs:
            self.receivers.setdefault(m, []).append((src, dst))

    def is_wait_only(self) -> bool:
        waiting = {src for src, _m, _dst in self.recvs}
        active = {src for src, _dst in self.taus} | {src for src, _m, _dst in self.sends}
        return not (waiting & active) and self.init not in waiting

    def initial(self, n: int) -> tuple[int, ...]:
        c = [0] * len(self.states)
        c[self.init] = n
        return tuple(c)

    def parse_config(self, literal: str) -> tuple[int, ...]:
        c = [0] * len(self.states)
        for item in literal.split(","):
            q, _, k = item.partition(":")
            c[self.index[q]] += int(k) if k else 1
        return tuple(c)

    def literal(self, c: tuple[int, ...]) -> str:
        return ",".join(q if k == 1 else f"{q}:{k}"
                        for q, k in zip(self.states, c) if k)

    def successors(self, c: tuple[int, ...]) -> set[tuple[str, tuple[int, ...]]]:
        """One-step successors with labels ``tau``, ``msg:m`` and ``nb:m``."""
        out = set()
        for src, dst in self.taus:
            if c[src]:
                nxt = list(c)
                nxt[src] -= 1
                nxt[dst] += 1
                out.add(("tau", tuple(nxt)))
        for q1, m, q1p in self.sends:
            if not c[q1]:
                continue
            answered = False
            for q2, q2p in self.receivers.get(m, ()):
                # The receiver is another process than the sender.
                if c[q2] - (q2 == q1) < 1:
                    continue
                answered = True
                nxt = list(c)
                nxt[q1] -= 1
                nxt[q2] -= 1
                nxt[q1p] += 1
                nxt[q2p] += 1
                out.add((f"msg:{m}", tuple(nxt)))
            if not answered:
                nxt = list(c)
                nxt[q1] -= 1
                nxt[q1p] += 1
                out.add((f"nb:{m}", tuple(nxt)))
        return out

    def goal(self, problem: str, target: tuple[int, ...] | None):
        """The predicate a configuration must meet to answer ``problem``."""
        f = self.final
        if problem == "scover":
            return lambda c: c[f] > 0
        if problem == "synchro":
            return lambda c: c[f] == sum(c)
        assert target is not None
        need = [(i, k) for i, k in enumerate(target) if k]
        return lambda c: all(c[i] >= k for i, k in need)


def protocol_search(p: Protocol, n: int, goal=None, max_seen=None) -> tuple[bool, int]:
    """BFS from ``n`` initial processes: (goal met, configurations seen).

    Without a goal the whole reachable set is enumerated.  With ``max_seen``
    the search gives up once it has seen more configurations than that.
    """
    start = p.initial(n)
    if goal is not None and goal(start):
        return True, 1
    seen = {start}
    queue = deque([start])
    while queue and (max_seen is None or len(seen) <= max_seen):
        for _label, nxt in p.successors(queue.popleft()):
            if nxt not in seen:
                if goal is not None and goal(nxt):
                    return True, len(seen) + 1
                seen.add(nxt)
                queue.append(nxt)
    return False, len(seen)


def first_population(p: Protocol, goal, max_n: int, max_work=None) -> tuple[int | None, int]:
    """Smallest population up to ``max_n`` with a witness, and the work done.

    With ``max_work`` the sweep gives up, answering None, once it has seen
    more configurations than that in total.
    """
    work = 0
    for n in range(1, max_n + 1):
        budget = None if max_work is None else max_work - work
        hit, seen = protocol_search(p, n, goal, budget)
        work += seen
        if hit:
            return n, work
        if max_work is not None and work > max_work:
            break
    return None, work


def replay_protocol(p: Protocol, steps: list[tuple[str, str]], goal) -> str | None:
    """Replay printed ``STEP label config`` lines; None when they check out."""
    if not steps:
        return None
    n = sum(p.parse_config(steps[0][1]))
    cur = p.initial(n)
    for label, literal in steps:
        nxt = p.parse_config(literal)
        if (label, nxt) not in p.successors(cur):
            return f"step {label} {literal} is not a successor of {p.literal(cur)}"
        cur = nxt
    if not goal(cur):
        return f"witness ends in {p.literal(cur)}, which does not answer the question"
    return None


class Machine:
    """A ``.nbm`` counter machine."""

    def __init__(self, text: str) -> None:
        lines = _lines(text)
        head = {toks[0]: toks[1:] for toks in lines[:5]}
        self.name = head["machine"][0]
        self.locations = set(head["locations"])
        self.init = head["init"][0]
        self.counters = tuple(sorted(set(head["counters"])))
        self.restore = head["restore"] == ["on"]
        index = {x: i for i, x in enumerate(self.counters)}
        self.moves: dict[str, list[tuple[str, int, str]]] = {}
        for toks in lines[5:]:
            src, dst = toks[1], toks[-1]
            op = " ".join(toks[2:-1])
            ctr = index[toks[3]] if len(toks) == 5 else -1
            self.moves.setdefault(src, []).append((op, ctr, dst))

    def step(self, loc: str, values: tuple[int, ...]):
        """Yield (op text, location, values) for every enabled move."""
        for op, i, dst in self.moves.get(loc, ()):
            kind = op.split()[0]
            if kind == "nop":
                yield op, dst, values
                continue
            v = values[i]
            if kind == "inc":
                v += 1
            elif kind == "dec":
                if v == 0:
                    continue
                v -= 1
            elif kind == "nbdec":
                v = max(0, v - 1)
            elif v != 0:  # zero? x
                continue
            yield op, dst, values[:i] + (v,) + values[i + 1:]
        if self.restore:
            yield "nop", self.init, values

    def parse_config(self, literal: str) -> tuple[str, tuple[int, ...]]:
        loc, _, vals = literal.partition(";")
        values = dict(item.split("=") for item in vals.split(",")) if vals else {}
        return loc, tuple(int(values[x]) for x in self.counters)


def machine_cover(m: Machine, target: str, cap: int) -> tuple[bool, int]:
    """Can ``target`` be reached with every counter kept at most ``cap``?"""
    start = (m.init, (0,) * len(m.counters))
    if m.init == target:
        return True, 1
    seen = {start}
    queue = deque([start])
    while queue:
        loc, values = queue.popleft()
        for _op, dst, nxt in m.step(loc, values):
            node = (dst, nxt)
            if node in seen or max(nxt, default=0) > cap:
                continue
            if dst == target:
                return True, len(seen) + 1
            seen.add(node)
            queue.append(node)
    return False, len(seen)


def replay_machine(m: Machine, steps: list[tuple[str, str]], target: str) -> str | None:
    cur = (m.init, (0,) * len(m.counters))
    for op, literal in steps:
        nxt = m.parse_config(literal)
        if (op, *nxt) not in set(m.step(*cur)):
            return f"step {op} {literal} is not a move of the machine"
        cur = nxt
    if cur[0] != target:
        return f"witness ends in {cur[0]}, not {target}"
    return None


class Vas:
    """A ``.vas`` non-blocking vector addition system."""

    def __init__(self, text: str) -> None:
        lines = _lines(text)
        self.dim = int(lines[0][3])
        self.init = tuple(int(x) for x in lines[1][1:])
        self.target = tuple(int(x) for x in lines[2][1:])
        self.transitions = []
        for toks in lines[3:]:
            cut = toks.index(";")
            self.transitions.append((tuple(int(x) for x in toks[1:cut]),
                                     tuple(int(x) for x in toks[cut + 1:])))

    @staticmethod
    def step(v, t):
        """Blocking part first (no coordinate below zero), then clamped subtraction."""
        moved = [a + b for a, b in zip(v, t[0])]
        if min(moved) < 0:
            return None
        return tuple(max(0, a - b) for a, b in zip(moved, t[1]))

    def covers(self, v) -> bool:
        return all(a >= b for a, b in zip(v, self.target))


def vas_cover(vas: Vas, cap: int) -> tuple[bool, int]:
    """Can a vector covering the target be reached with coordinates <= ``cap``?"""
    if vas.covers(vas.init):
        return True, 1
    seen = {vas.init}
    queue = deque([vas.init])
    while queue:
        cur = queue.popleft()
        for t in vas.transitions:
            nxt = vas.step(cur, t)
            if nxt is None or nxt in seen or max(nxt) > cap:
                continue
            if vas.covers(nxt):
                return True, len(seen) + 1
            seen.add(nxt)
            queue.append(nxt)
    return False, len(seen)


def replay_vas(vas: Vas, steps: list[tuple[tuple, tuple, tuple]]) -> str | None:
    cur = vas.init
    for t_b, t_nb, vec in steps:
        if (t_b, t_nb) not in vas.transitions or vas.step(cur, (t_b, t_nb)) != vec:
            return f"step {t_b} ; {t_nb} -> {vec} is not a strict step"
        cur = vec
    if not vas.covers(cur):
        return "witness does not end covering the target"
    return None
