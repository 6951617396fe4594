"""Counter machines with non-blocking decrements, and non-blocking VAS.

The machine family covers plain counter machines (with zero tests),
test-free machines, machines extended with non-blocking decrements
(``nbdec`` always fires and clamps at zero) and the restore variant that can
jump back to the initial location from anywhere.  A machine keeps one
transition set, sorted by source, op and target; the op says whether a step
can block, since every op but ``nbdec`` can.  A non-blocking VAS pairs
each transition with a blocking update vector and a non-negative clamp
vector applied coordinatewise.  A VAS search compiles its transitions once
into sparse steps that read and write only the coordinates they touch;
witnesses still carry the dense pairs.  The machine interpreter dispatches
on small-int op codes.

Both models get exhaustive search bounded by an inclusive per-counter cap;
a NO produced under a cap is only valid within that cap and is flagged so.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress
from operator import ge
from typing import Callable, Iterable, NamedTuple

from . import explore
from .explore import DEFAULT_BUDGET, ResourceLimitError, Verdict, Witness, search

NOP = "nop"
INC = "inc"
DEC = "dec"
ZEROTEST = "zerotest"
NBDEC = "nbdec"

# Op codes: the order of op kinds in ``_mt_key``, and the kinds the
# interpreter dispatches on.
_NOP, _INC, _DEC, _ZEROTEST, _NBDEC = range(5)
_OP_ORDER = {NOP: _NOP, INC: _INC, DEC: _DEC, ZEROTEST: _ZEROTEST, NBDEC: _NBDEC}


class MachineError(ValueError):
    """Structurally invalid counter machine."""


class MalformedMachineConfigError(ValueError):
    """Configuration does not fit the machine (bad location, negative value)."""


@dataclass(frozen=True)
class CounterOp:
    """A counter action: nop, inc, dec, zero test or non-blocking dec."""

    kind: str
    counter: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _OP_ORDER:
            raise MachineError(f"unknown counter op {self.kind!r}")
        if self.kind == NOP and self.counter is not None:
            raise MachineError("nop takes no counter")
        if self.kind != NOP and not self.counter:
            raise MachineError(f"{self.kind} needs a counter")

    def sort_key(self) -> tuple[int, str]:
        return (_OP_ORDER[self.kind], self.counter or "")

    def __str__(self) -> str:
        if self.kind == NOP:
            return "nop"
        name = {INC: "inc", DEC: "dec", ZEROTEST: "zero?", NBDEC: "nbdec"}[self.kind]
        return f"{name} {self.counter}"


MachineTransition = tuple[str, CounterOp, str]


def _mt_key(t: MachineTransition) -> tuple:
    return (t[0], t[1].sort_key(), t[2])


class MachineConfig(NamedTuple):
    """Current location plus one value per counter (machine counter order).

    A named tuple, so that the searches hash and compare configurations in C.
    """

    loc: str
    values: tuple[int, ...]


class CounterMachine:
    """Immutable counter machine over named locations and counters."""

    def __init__(
        self,
        name: str,
        locations: Iterable[str],
        counters: Iterable[str],
        init: str,
        transitions: Iterable[MachineTransition],
        restore: bool = False,
    ) -> None:
        self.name = name
        self.locations: tuple[str, ...] = tuple(sorted(set(locations)))
        self.counters: tuple[str, ...] = tuple(sorted(set(counters)))
        self.init = init
        # Transitions are deduplicated and ordered on plain keys, the fields
        # of ``_mt_key``, which hash and compare in C.
        keyed = {(src, _OP_ORDER[op.kind], op.counter or "", dst): op
                 for src, op, dst in transitions}
        order = sorted(keyed)
        self.transitions: tuple[MachineTransition, ...] = tuple(
            [(k[0], keyed[k], k[3]) for k in order]
        )
        self.restore = restore

        locs = set(self.locations)
        ctrs = set(self.counters)
        if init not in locs:
            raise MachineError(f"initial location {init!r} not declared")
        for src, _kind, x, dst in order:
            if src not in locs or dst not in locs:
                raise MachineError(f"transition {src!r} -> {dst!r} uses undeclared location")
            if x and x not in ctrs:
                raise MachineError(f"undeclared counter {x!r}")
        self._index = {x: i for i, x in enumerate(self.counters)}
        self._locs = locs
        self._moves: dict[str, tuple[tuple[MachineTransition, int, int, str], ...]] = {}
        self._by_src: dict[str, list[MachineTransition]] | None = None

    def _key(self) -> tuple:
        return (
            self.name, self.locations, self.counters, self.init,
            self.transitions, self.restore,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CounterMachine) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        kind = "NB-R-CM" if self.is_nbrcm else ("NB-CM" if self.is_test_free else "CM")
        return f"CounterMachine({self.name!r}, {kind}, |L|={len(self.locations)})"

    @property
    def is_test_free(self) -> bool:
        return all(op.kind != ZEROTEST for _s, op, _d in self.transitions)

    @property
    def is_nbrcm(self) -> bool:
        return self.is_test_free and self.restore

    def index(self, counter: str) -> int:
        try:
            return self._index[counter]
        except KeyError:
            raise MalformedMachineConfigError(f"unknown counter {counter!r}") from None

    def config(self, loc: str, valuation: dict[str, int] | None = None) -> MachineConfig:
        """A checked configuration: where configurations enter the searches."""
        valuation = valuation or {}
        for x in valuation:
            self.index(x)
        if loc not in self._locs:
            raise MalformedMachineConfigError(f"unknown location {loc!r}")
        values = tuple(valuation.get(x, 0) for x in self.counters)
        if values and min(values) < 0:
            raise MalformedMachineConfigError("counter values must be non-negative")
        return MachineConfig(loc, values)

    def initial_config(self) -> MachineConfig:
        return self.config(self.init)

    def moves(self, loc: str) -> tuple[tuple[MachineTransition, int, int, str], ...]:
        """The moves out of ``loc`` as (transition, op code, counter index, target).

        The op code is the kind's rank in ``_OP_ORDER`` (``_NOP`` to
        ``_NBDEC``); a nop's counter index is -1.  Restore jumps are
        included, each transition appears once, and the order is
        ``_mt_key``.  The transitions of one source already come in that
        order, so only an appended restore jump needs a sort.  A location's
        moves are compiled on first use.
        """
        moves = self._moves.get(loc)
        if moves is None:
            if self._by_src is None:
                self._by_src = {}
                for t in self.transitions:
                    self._by_src.setdefault(t[0], []).append(t)
            out = list(self._by_src.get(loc, ()))
            jump = (loc, CounterOp(NOP), self.init)
            if self.restore and jump not in out:
                out.append(jump)
                out.sort(key=_mt_key)
            moves = self._moves[loc] = tuple(
                (t, _OP_ORDER[t[1].kind], self._index.get(t[1].counter, -1), t[2])
                for t in out
            )
        return moves


def machine_successors(
    m: CounterMachine, cfg: MachineConfig
) -> list[tuple[MachineTransition, MachineConfig]]:
    """All enabled one-step moves, restore jumps included, in a fixed order.

    The order is ``_mt_key``.  ``inc`` adds one; ``dec`` subtracts one and
    is blocked at zero; ``nbdec`` subtracts one and leaves a zero as it is;
    a zero test fires only on zero; ``nop`` and restore jumps change no
    counter.  ``cfg`` is trusted: it comes from :meth:`CounterMachine.config`
    or from an earlier step, so it is not checked again.
    """
    values = cfg.values
    # Each successor is built with ``tuple.__new__``, which skips the named
    # tuple's Python-level constructor.
    new = tuple.__new__
    out: list[tuple[MachineTransition, MachineConfig]] = []
    for trans, code, i, dst in m.moves(cfg.loc):
        if code == _NOP:
            nxt = values
        elif code == _ZEROTEST:
            if values[i]:
                continue
            nxt = values
        else:
            x = values[i]
            if code == _INC:
                x += 1
            elif x:
                x -= 1
            elif code == _DEC:
                continue
            w = list(values)
            w[i] = x
            nxt = tuple(w)
        out.append((trans, new(MachineConfig, (dst, nxt))))
    return out


def cover_bounded(
    m: CounterMachine,
    target_loc: str,
    cap: int,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Search for the target location keeping every counter at most ``cap``.

    YES verdicts carry the run; NO means the cap-bounded space is exhausted
    and is tagged ``within-cap``.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if target_loc not in m._locs:
        raise MachineError(f"unknown target location {target_loc!r}")
    return _capped(m.initial_config(), partial(machine_successors, m), cap, budget,
                   goal=lambda c: c.loc == target_loc,
                   prune=lambda c: max(c.values, default=0) > cap)


def _capped(start, succ, cap: int, budget: int, *, goal, prune) -> Verdict:
    """The search of a cap-bounded model: YES with the run, else NO ``within-cap``."""
    parents, hit, pruned = search(
        start, succ, budget=budget,
        overflow=ResourceLimitError(f"node budget {budget} exceeded (cap {cap})"),
        goal=goal, prune=prune,
    )
    stats = {"visited": len(parents), "pruned": pruned}
    if hit is not None:
        # Looked up through the module, so that a wrapper on it sees machine witnesses.
        return Verdict("yes", explore._rebuild(parents, succ, start, hit), stats=stats)
    return Verdict("no", explored_bound=cap, note="within-cap", stats=stats)


def replay_machine(m: CounterMachine, witness: Witness) -> bool:
    """Check a machine witness step by step against the semantics."""
    cur = witness.initial
    if not isinstance(cur, MachineConfig) or cur != m.initial_config():
        return False
    for trans, nxt in witness.steps:
        if (trans, nxt) not in machine_successors(m, cur):
            return False
        cur = nxt
    return True


Vector = tuple[int, ...]
VasTransition = tuple[Vector, Vector]


class VasError(ValueError):
    """Structurally invalid vector addition system."""


@dataclass(frozen=True)
class Vas:
    """Non-blocking VAS: transitions pair a blocking part with a clamp part."""

    name: str
    dim: int
    transitions: tuple[VasTransition, ...]
    v_init: Vector
    v_target: Vector

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise VasError("dimension must be at least 1")
        for vec in (self.v_init, self.v_target):
            if len(vec) != self.dim:
                raise VasError("vector arity mismatch")
            if min(vec) < 0:
                raise VasError("init/target vectors must be non-negative")
        for t_b, t_nb in self.transitions:
            if len(t_b) != self.dim or len(t_nb) != self.dim:
                raise VasError("transition arity mismatch")
            if min(t_nb) < 0:
                raise VasError("the non-blocking part must be non-negative")


_Pairs = tuple[tuple[int, int], ...]
# A transition compiled by :func:`compile_step`: (pair, guard, update, clamp, dim).
VasStep = tuple[VasTransition, _Pairs, _Pairs, _Pairs, int]


def compile_step(t: VasTransition) -> VasStep:
    """The sparse form of the transition ``t`` that :func:`step_strict` applies.

    ``pair`` is ``t`` itself, the dense ``(t_b, t_nb)`` label a witness step
    carries.  ``guard`` lists ``(i, k)`` with ``k = -t_b[i] > 0``: the step
    needs ``v[i] >= k``.  ``update`` lists ``(i, t_b[i])`` and ``clamp``
    ``(i, t_nb[i])`` for the nonzero entries, in coordinate order, and
    ``dim`` is the arity.
    """
    t_b, t_nb = t
    # Each dense vector is scanned once in Python, and a zero clamp part
    # not at all; the guard comes from the short update list.
    update = [(i, b) for i, b in enumerate(t_b) if b]
    return (
        t,
        tuple([(i, -b) for i, b in update if b < 0]),
        tuple(update),
        tuple([(i, c) for i, c in enumerate(t_nb) if c]) if any(t_nb) else (),
        len(t_b),
    )


def step_strict(v: Vector, s: VasStep) -> Vector | None:
    """Apply the blocking part (must stay non-negative), then clamp-subtract.

    ``None`` when some coordinate of ``v + t_b`` is negative; otherwise
    ``max(0, v_i + t_b_i - t_nb_i)`` for every coordinate ``i``.  The step
    ``s`` is compiled by :func:`compile_step`, so only the coordinates where
    ``t_b`` or ``t_nb`` is nonzero are read or written.
    """
    _pair, guard, update, clamp, dim = s
    if len(v) != dim:
        raise VasError("vector arity mismatch")
    for i, k in guard:
        if v[i] < k:
            return None
    out = list(v)
    for i, b in update:
        out[i] += b
    for i, c in clamp:
        x = out[i] - c
        out[i] = x if x > 0 else 0
    return tuple(out)


def _candidates(vas: Vas) -> Callable[[Vector], tuple[VasStep, ...]]:
    """Compile the steps of ``vas`` and index them by the vectors they may fire on.

    A step is filed under its first guard coordinate, the first where its
    blocking part is negative: on a vector that is zero there, the step is
    blocked.  The candidates of a vector are the steps filed under none (the
    free ones) or under one of its nonzero coordinates, in
    ``vas.transitions`` order, so the search meets successors in the same
    order as a scan of every transition.  They are memoised per set of
    nonzero coordinates.
    """
    steps = [compile_step(t) for t in vas.transitions]
    free: list[int] = []
    buckets: list[list[int]] = [[] for _ in range(vas.dim)]
    for j, s in enumerate(steps):
        guard = s[1]
        (buckets[guard[0][0]] if guard else free).append(j)
    coords = range(vas.dim)
    memo: dict[tuple[int, ...], tuple[VasStep, ...]] = {}

    def candidates(v: Vector) -> tuple[VasStep, ...]:
        support = tuple(compress(coords, v))
        found = memo.get(support)
        if found is None:
            found = memo[support] = tuple(
                steps[j] for j in sorted(chain(free, *(buckets[i] for i in support))))
        return found

    return candidates


def vas_cover_bounded(vas: Vas, cap: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Strict-step search for a vector covering the target, coordinates <= cap.

    The transitions are compiled once per search into sparse steps; witness
    steps carry the dense ``(t_b, t_nb)`` pairs.
    """
    if cap < max(vas.v_init):
        raise ValueError("cap must cover the initial vector")
    candidates = _candidates(vas)
    # Only the target's nonzero coordinates can fail to be covered.
    need = [i for i, b in enumerate(vas.v_target) if b]
    floor = [vas.v_target[i] for i in need]

    def succ(cur: Vector):
        return ((s[0], nxt) for s in candidates(cur)
                if (nxt := step_strict(cur, s)) is not None)

    return _capped(vas.v_init, succ, cap, budget,
                   goal=lambda v: all(map(ge, map(v.__getitem__, need), floor)),
                   prune=lambda v: max(v) > cap)
