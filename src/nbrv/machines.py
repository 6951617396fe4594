"""Counter machines with non-blocking decrements, and non-blocking VAS.

The machine family covers plain counter machines (with zero tests),
test-free machines, machines extended with non-blocking decrements and the
restore variant that can jump back to the initial location from anywhere.
``EFFECT`` states the semantics of every op once, as the change it makes
to its counter when the counter is positive and when it is zero, or where
it blocks; :class:`MachineTable` and ``reductions.machine_to_vas`` compile
it, and ``OP_TEXT`` is the ops' text, which ``CounterOp`` prints and
``fileio`` parses.  A machine keeps one transition set, sorted by source,
op and target.  A non-blocking VAS pairs each transition with a blocking
update vector and a non-negative clamp vector applied coordinatewise.

Both models get exhaustive search bounded by an inclusive per-counter cap;
a NO produced under a cap is only valid within that cap and is flagged so.
The searches run on packed ints in the guarded fields of
``model._Fields``, as the protocol explorer does.  A machine configuration
is one int: the location's index in the low bits, then one field per
counter.  A VAS vector is one field per coordinate.  A step is then a
field test and one addition of a precomputed delta, the cap test and the
cover test are each one addition and one mask, and only witnesses are
decoded.  The VAS search keeps its candidate steps per needed support, the
nonzero fields that ``(v + ONES) & H`` gives cut to the coordinates some
step needs, and each memo entry already leaves out the steps that need a
coordinate outside it.
:func:`successors` and :func:`apply_strict` are the sparse forms, on
:class:`MachineConfig` and on tuples.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from typing import Callable, Iterable, NamedTuple

from . import explore
from .explore import DEFAULT_BUDGET, Verdict, Witness, search
from .model import _Fields

NOP = "nop"
INC = "inc"
DEC = "dec"
ZEROTEST = "zerotest"
NBDEC = "nbdec"

# The semantics of each op kind, in ``transitions`` order: the change the op
# makes to its counter when the counter is positive and when it is zero,
# ``None`` where the op blocks.  ``nop`` has no counter.
EFFECT: dict[str, tuple[int | None, int | None]] = {
    NOP: (0, 0), INC: (1, 1), DEC: (-1, None), ZEROTEST: (None, 0), NBDEC: (-1, 0)}
_OP_ORDER = {kind: rank for rank, kind in enumerate(EFFECT)}

# The text of each op kind in ``.nbm`` files and witnesses, before its counter,
# and the op kind of each text, which ``fileio`` parses.
OP_TEXT = {NOP: "nop", INC: "inc", DEC: "dec", ZEROTEST: "zero?", NBDEC: "nbdec"}
OP_KIND = {text: kind for kind, text in OP_TEXT.items()}


class MachineError(ValueError):
    """Structurally invalid counter machine."""


class CounterOp(namedtuple("CounterOp", "kind counter")):
    """A counter action: nop, inc, dec, zero test or non-blocking dec."""

    __slots__ = ()

    def __new__(cls, kind: str, counter: str | None = None) -> CounterOp:
        if kind not in EFFECT:
            raise MachineError(f"unknown counter op {kind!r}")
        if kind == NOP and counter is not None:
            raise MachineError("nop takes no counter")
        if kind != NOP and not counter:
            raise MachineError(f"{kind} needs a counter")
        return tuple.__new__(cls, (kind, counter))

    def __str__(self) -> str:
        text = OP_TEXT[self.kind]
        return text if self.counter is None else f"{text} {self.counter}"


MachineTransition = tuple[str, CounterOp, str]

# The op of every restore jump.
_RESTORE = CounterOp(NOP)


class MachineConfig(NamedTuple):
    """Current location plus one value per counter (machine counter order).

    A named tuple, so that configurations hash and compare in C.
    """

    loc: str
    values: tuple[int, ...]


class CounterMachine:
    """Immutable counter machine over named locations and counters.

    ``loc_index`` maps each location to its index in ``locations``: the
    one location table that membership tests, :meth:`target`,
    :meth:`moves` and :class:`MachineTable` read.
    """

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
        # Transitions are deduplicated and ordered on plain keys, (src, op
        # rank, counter, dst), which hash and compare in C.
        keyed = {(src, _OP_ORDER[op.kind], op.counter or "", dst): op
                 for src, op, dst in transitions}
        order = sorted(keyed)
        self.transitions: tuple[MachineTransition, ...] = tuple(
            [(k[0], keyed[k], k[3]) for k in order]
        )
        self.restore = restore

        locs = self.loc_index = {loc: i for i, loc in enumerate(self.locations)}
        ctrs = set(self.counters)
        if init not in locs:
            raise MachineError(f"initial location {init!r} not declared")
        for src, _kind, x, dst in order:
            if src not in locs or dst not in locs:
                raise MachineError(f"transition {src!r} -> {dst!r} uses undeclared location")
            if x and x not in ctrs:
                raise MachineError(f"undeclared counter {x!r}")
        self._moves: tuple[tuple[MachineTransition, ...], ...] | None = None
        self._table: MachineTable | None = None

    @property
    def is_test_free(self) -> bool:
        return all(op.kind != ZEROTEST for _s, op, _d in self.transitions)

    @property
    def is_nbrcm(self) -> bool:
        return self.is_test_free and self.restore

    def target(self, loc: str) -> int:
        """The index of the target location ``loc``; ``MachineError`` if undeclared."""
        try:
            return self.loc_index[loc]
        except KeyError:
            raise MachineError(f"unknown target location {loc!r}") from None

    def initial_config(self) -> MachineConfig:
        """The ``init`` location with every counter at 0: where the searches start."""
        return MachineConfig(self.init, (0,) * len(self.counters))

    def moves(self) -> tuple[tuple[MachineTransition, ...], ...]:
        """The transitions out of each location, one row per location in
        ``locations`` order, restore jumps included.

        Each row is in ``transitions`` order and holds each transition once: a
        restore jump is a nop to ``init``, merged with an equal nop edge.
        The rows are built on first use; :class:`MachineTable` and
        ``reductions.machine_to_vas`` compile them.
        """
        if self._moves is None:
            rows: list[list[MachineTransition]] = [[] for _ in self.locations]
            for t in self.transitions:
                rows[self.loc_index[t[0]]].append(t)
            if self.restore:
                init = self.init
                for loc, row in zip(self.locations, rows):
                    # A row starts with its nops, in target order.
                    k = 0
                    while k < len(row) and row[k][1].kind == NOP and row[k][2] < init:
                        k += 1
                    if k == len(row) or row[k][1].kind != NOP or row[k][2] != init:
                        row.insert(k, (loc, _RESTORE, init))
            self._moves = tuple(map(tuple, rows))
        return self._moves

    def table(self, cap: int) -> MachineTable:
        """The machine compiled for :func:`machine_successors`, for counters up to ``cap``.

        The machine keeps one table, compiled on first use, and reuses it
        while ``cap + 1``, the most one step makes, is below its ``guard``.
        The table returned is always wide enough for ``cap``.
        """
        t = self._table
        if t is None or cap + 1 >= t.guard:
            t = self._table = MachineTable(self, cap)
        return t


class MachineTable(_Fields):
    """A counter machine compiled into moves over packed configurations.

    A packed configuration is one int.  The location's index in
    ``locations`` sits in the low ``(len(locations) - 1).bit_length()``
    bits (``v & lmask``), and counter ``i`` (in ``counters`` order) in the
    field at ``shifts[i]``, for values up to ``cap + 1``: the most one step
    makes from a configuration within the cap, so no step sets a guard bit.
    ``rows[l]`` lists the moves out of the location of index ``l``, in
    ``transitions`` order, as ``(transition, field, nonzero, zero)``: the move
    adds ``nonzero`` when ``v & field`` is nonzero and ``zero`` when it is
    zero, and is blocked where that delta is ``None``.  The deltas are the
    op's ``EFFECT`` entries in the counter's field plus the change of
    location index; an op whose two entries are equal gets ``field`` 0,
    so its one delta is ``zero``.  ``index`` is the machine's own
    ``loc_index``, not a copy.
    """

    def __init__(self, m: CounterMachine, cap: int) -> None:
        lbits = (len(m.locations) - 1).bit_length()
        super().__init__(len(m.counters), cap + 1, lbits)
        self.locations = m.locations
        self.lmask = (1 << lbits) - 1
        self.index = m.loc_index
        # The unit of each counter's field; ``nop`` has no counter.
        unit = {None: 0} | {x: 1 << s for x, s in zip(m.counters, self.shifts)}
        rows = []
        for i, moves in enumerate(m.moves()):
            row = []
            for trans in moves:
                _src, op, dst = trans
                jump = self.index[dst] - i
                one = unit[op.counter]
                nonzero, zero = EFFECT[op.kind]
                if nonzero == zero:  # the same change at any value: no field to test
                    row.append((trans, 0, None, jump + zero * one))
                else:
                    row.append((trans, self.fmask * one,
                                None if nonzero is None else jump + nonzero * one,
                                None if zero is None else jump + zero * one))
            rows.append(tuple(row))
        self.rows = tuple(rows)

    def encode(self, cfg: MachineConfig) -> int:
        """The packed form of ``cfg``, whose values must fit this table."""
        return self.index[cfg.loc] + self.pack(cfg.values)

    def decode(self, v: int) -> MachineConfig:
        """The sparse form of the packed configuration ``v``."""
        # ``tuple.__new__`` skips the named tuple's Python-level constructor.
        return tuple.__new__(MachineConfig, (self.locations[v & self.lmask], self.unpack(v)))


def machine_successors(t: MachineTable, v: int) -> list[tuple[MachineTransition, int]]:
    """All enabled one-step moves of the packed configuration ``v``, as ``(transition, w)``.

    ``v`` holds the location index in its low bits and one guarded field
    per counter (see :class:`MachineTable`).  Each move of the location,
    restore jumps included and in ``transitions`` order, is one test of its
    counter's field and one addition of a precomputed delta that also
    moves the location.  ``v``'s counters must be within the cap ``t`` was
    compiled for, so that no result sets a guard bit.
    """
    out: list[tuple[MachineTransition, int]] = []
    for trans, field, nonzero, zero in t.rows[v & t.lmask]:
        d = nonzero if v & field else zero
        if d is not None:
            out.append((trans, v + d))
    return out


def successors(
    m: CounterMachine, cfg: MachineConfig
) -> list[tuple[MachineTransition, MachineConfig]]:
    """All enabled one-step moves, restore jumps included, in a fixed order.

    The moves come in ``transitions`` order.  Each op changes its counter,
    or blocks, as its ``EFFECT`` entry says; a restore jump is a ``nop``.
    ``cfg`` is trusted: it comes from :meth:`CounterMachine.initial_config`
    or from an earlier step, so it is not checked again.  This is
    :func:`machine_successors` on the packed form of ``cfg``.
    """
    t = m.table(max(cfg.values, default=0))
    return [(trans, t.decode(w)) for trans, w in machine_successors(t, t.encode(cfg))]


def cover_bounded(
    m: CounterMachine,
    target_loc: str,
    cap: int,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Search for the target location keeping every counter at most ``cap``.

    YES verdicts carry the run; NO means the cap-bounded space is exhausted
    and is tagged ``within-cap``.  The search runs :func:`machine_successors`
    on the machine's :class:`MachineTable` for ``cap``.  A configuration is
    pruned when ``(v + over(cap)) & high`` is nonzero, one addition and one
    mask, and the goal tests the location bits.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    goal = m.target(target_loc)
    t = m.table(cap)
    lmask = t.lmask
    return _capped(t, t.encode(m.initial_config()), partial(machine_successors, t), cap, budget,
                   t.decode, goal=lambda v: v & lmask == goal)


def _capped(layout: _Fields, start: int, succ, cap: int, budget: int, decode, *, goal) -> Verdict:
    """The search of a cap-bounded model: YES with the run, else NO ``within-cap``.

    The search runs on packed ints in ``layout``, and prunes a value with a
    field above ``cap``; ``decode`` gives the witness's sparse forms.
    """
    over, high = layout.over(cap), layout.high
    parents, hit, pruned = search(
        start, succ, budget=budget,
        overflow=f"node budget {budget} exceeded (cap {cap})",
        goal=goal, prune=lambda v: (v + over) & high,
    )
    stats = {"visited": len(parents), "pruned": pruned}
    if hit is not None:
        # Looked up through the module, so that a wrapper on it sees machine witnesses.
        return Verdict("yes", explore._rebuild(parents, succ, start, hit, decode), stats=stats)
    return Verdict("no", explored_bound=cap, note="within-cap", stats=stats)


def replay_machine(m: CounterMachine, witness: Witness) -> bool:
    """Check a machine witness against the semantics.

    The witness must start at ``m.initial_config()``, a
    :class:`MachineConfig`; ``explore.replay_steps`` then checks each step
    against :func:`successors`.
    """
    start = witness.initial
    if not isinstance(start, MachineConfig) or start != m.initial_config():
        return False
    return explore.replay_steps(partial(successors, m), witness)


Vector = tuple[int, ...]
VasTransition = tuple[Vector, Vector]


class VasError(ValueError):
    """Structurally invalid vector addition system."""


class Vas(namedtuple("Vas", "name dim transitions v_init v_target")):
    """Non-blocking VAS: transitions pair a blocking part with a clamp part."""

    __slots__ = ()

    def __new__(cls, name: str, dim: int, transitions: tuple[VasTransition, ...],
                v_init: Vector, v_target: Vector) -> Vas:
        if dim < 1:
            raise VasError("dimension must be at least 1")
        for vec in (v_init, v_target):
            if len(vec) != dim:
                raise VasError("vector arity mismatch")
            if min(vec) < 0:
                raise VasError("init/target vectors must be non-negative")
        for t_b, t_nb in transitions:
            if len(t_b) != dim or len(t_nb) != dim:
                raise VasError("transition arity mismatch")
            if min(t_nb) < 0:
                raise VasError("the non-blocking part must be non-negative")
        return tuple.__new__(cls, (name, dim, transitions, v_init, v_target))


_FieldTests = tuple[tuple[int, int], ...]
# A transition compiled by :meth:`VasLayout.compile`: (pair, need, guards, delta, clamps).
VasStep = tuple[VasTransition, int, _FieldTests, int, _FieldTests]


class VasLayout(_Fields):
    """``VasLayout(dim, top)``: packed vectors of ``dim`` coordinates, one
    field each, whose values never exceed ``top``.

    ``(v + ones) & high``, the guard bits of the nonzero fields of ``v``,
    is its support.
    """

    def compile(self, t: VasTransition) -> VasStep:
        """The packed form of the transition ``t`` that :func:`step_strict` applies.

        ``pair`` is ``t`` itself, the dense ``(t_b, t_nb)`` label a witness
        step carries.  ``need`` has the guard bit of every coordinate where
        ``t_b`` is negative: the step is blocked on a vector zero there.
        ``guards`` lists ``(field, k << shift)`` for the entries ``t_b[i] =
        -k`` with ``k >= 2``, the step needing ``v & field >= k << shift``;
        ``delta`` is ``t_b`` packed, and ``clamps`` lists ``(field, c <<
        shift)`` for the nonzero entries ``c`` of ``t_nb``.
        """
        t_b, t_nb = t
        dim = len(self.shifts)
        if len(t_b) != dim or len(t_nb) != dim:
            raise VasError("vector arity mismatch")
        # Each dense vector is scanned once in Python, and a zero clamp part
        # not at all.
        fmask, guard, shifts = self.fmask, self.guard, self.shifts
        update = [(s, b) for s, b in zip(shifts, t_b) if b]
        return (
            t,
            sum(guard << s for s, b in update if b < 0),
            tuple([(fmask << s, -b << s) for s, b in update if b < -1]),
            sum(b << s for s, b in update),
            tuple([(fmask << s, c << s) for s, c in zip(shifts, t_nb) if c])
            if any(t_nb) else (),
        )


def step_strict(v: int, s: VasStep) -> int | None:
    """Apply the blocking part (must stay non-negative), then clamp-subtract.

    ``None`` when some coordinate of ``v + t_b`` is negative; otherwise
    ``max(0, v_i + t_b_i - t_nb_i)`` for every coordinate ``i``.  ``v`` is
    packed in the :class:`VasLayout` that compiled ``s``, and must be
    nonzero on the coordinates of ``s``'s ``need``: the search's support
    memo ensures that, so only the guards of 2 or more are tested here.
    The blocking part is one addition, and each clamp entry one field
    extract.  The layout's fields hold the result without setting a guard
    bit when ``v`` is within the cap it was compiled for.
    """
    for field, low in s[2]:
        if v & field < low:
            return None
    w = v + s[3]
    for field, low in s[4]:
        x = w & field
        w -= low if x > low else x
    return w


def apply_strict(v: Vector, t: VasTransition) -> Vector | None:
    """:func:`step_strict` on the sparse vector ``v`` and the dense pair ``t``.

    ``None`` when some coordinate of ``v + t_b`` is negative, else the
    vector ``max(0, v_i + t_b_i - t_nb_i)``.  Raises ``VasError`` when the
    arities differ.
    """
    layout = VasLayout(len(v), max(v, default=0) + max(max(t[0], default=0), 0))
    s = layout.compile(t)
    packed = layout.pack(v)
    if s[1] & (packed + layout.ones) != s[1]:
        return None
    w = step_strict(packed, s)
    return None if w is None else layout.unpack(w)


def _candidates(layout: VasLayout, steps: list[VasStep]) -> Callable[[int], tuple[VasStep, ...]]:
    """The steps that may fire on a packed vector, memoised per needed support.

    The candidates of ``v`` are the steps whose ``need`` lies inside ``v``'s
    support, ``(v + ones) & high``, in ``vas.transitions`` order, so the
    search meets successors in the same order as a scan of every
    transition.  The memo is keyed on the support cut to ``needed``, the
    union of every step's ``need``: a coordinate that no step needs cannot
    change which steps fire, so vectors that differ only there share one
    entry.  A step is filed under the lowest bit of its ``need``, or with
    the free steps when it has none, so that a new key looks only at the
    free steps and those filed under one of its bits.
    """
    ones = layout.ones
    needed = 0
    free: list[int] = []
    filed: dict[int, list[int]] = {}
    for j, s in enumerate(steps):
        need = s[1]
        if need:
            needed |= need
            filed.setdefault(need & -need, []).append(j)
        else:
            free.append(j)
    memo: dict[int, tuple[VasStep, ...]] = {}

    def candidates(v: int) -> tuple[VasStep, ...]:
        key = (v + ones) & needed
        found = memo.get(key)
        if found is None:
            picked = list(free)
            rest = key
            while rest:
                bit = rest & -rest
                picked += filed.get(bit, ())
                rest ^= bit
            found = memo[key] = tuple([
                steps[j] for j in sorted(picked) if steps[j][1] & key == steps[j][1]])
        return found

    return candidates


def vas_cover_bounded(vas: Vas, cap: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Strict-step search for a vector covering the target, coordinates <= cap.

    The search runs on packed vectors (:class:`VasLayout`) for values up
    to ``cap + g``, ``g`` the largest positive entry of a blocking part:
    the most one step makes from a vector within the cap, so no step sets
    a field's guard bit.  The transitions are compiled once per search into
    packed steps, memoised per needed support (see :func:`_candidates`);
    the cap prune and the cover test (``_Fields.over`` and
    ``_Fields.at_least``) are each one addition and one mask.  Witness
    steps carry the dense ``(t_b, t_nb)`` pairs.
    """
    if cap < max(vas.v_init):
        raise ValueError("cap must cover the initial vector")
    grow = max([max(t_b) for t_b, _ in vas.transitions], default=0)
    layout = VasLayout(vas.dim, cap + max(grow, 0))
    candidates = _candidates(layout, [layout.compile(t) for t in vas.transitions])
    # A target above the cap is written as ``cap + 1``, which no admitted
    # vector has.
    covered = layout.at_least(
        [(s, min(b, cap + 1)) for s, b in zip(layout.shifts, vas.v_target) if b])

    def succ(cur: int) -> list[tuple[VasTransition, int]]:
        return [(s[0], nxt) for s in candidates(cur)
                if (nxt := step_strict(cur, s)) is not None]

    return _capped(layout, layout.pack(vas.v_init), succ, cap, budget, layout.unpack,
                   goal=covered)
