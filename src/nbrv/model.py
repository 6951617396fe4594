"""Core model: rendez-vous protocols, configurations and the non-blocking step relation.

A protocol is a finite automaton whose edges are labelled with internal
actions (``tau``), send requests (``!m``) or receptions (``?m``).  A network
snapshot is a non-empty multiset of protocol states (one entry per process).
The one-step relation has three rules:

* internal: one process takes a ``tau`` edge;
* rendez-vous: a sender and a receiver of the same message move together
  (two distinct processes, which for a self rendez-vous means at least two
  processes in the shared state);
* non-blocking request: a sender moves alone when, once the sender itself is
  set aside, no process sits on a state that could receive the message.

``Protocol.rules`` states them once, as one list of rules: each rule
moves one process from each of its sources to its destinations, and is
disabled while one of its blockers holds a process besides the rule's own
sources.  The explorer's move table, the backward search's saturation and
pre-images, and the protocol -> machine compiler all read that one list.

Searches do not step on :class:`Configuration` objects.  ``Protocol.moves(n)``
compiles the rules into a :class:`MoveTable` for populations up to ``n``,
whose configurations are packed into one int, one count field per state,
in the layout of :class:`_Fields`: the one packed layout of every engine
of the package, whose guard bits make each move one addition.  Which moves
a configuration has depends only on its signature: which of the states
that some rule reads (as a source or a blocker) it occupies, and whether
each state that sends a message it also receives holds two processes or
more.  The table memoises the moves of each signature it meets; the code
that fills that memo is the one interpreter of the rules.
:func:`dense_moves` is then one lookup and one addition per move, and
:func:`dense_image` expands a whole frontier of packed configurations at
once.  :func:`dense_preimage` goes one step backward: it
keeps a candidate predecessor only when the memo lists the move among the
moves of the candidate's signature, so it states no rule of its own.

The package's value records (:class:`Action`, :class:`Configuration`,
:class:`StepLabel` here, and ``Problem``, ``Verdict``, ``CounterOp``,
``Vas`` and the like elsewhere) are named tuples: they hash and compare in
C and a field cannot be assigned, and they import nothing that a command
line run would wait for (the standard library's generator of frozen record
classes imports ``inspect`` and ``ast``, and costs more than any query).
A record that checks its fields does so in an explicit ``__new__`` that
ends in ``tuple.__new__``.  Equality is tuple equality (``Action("tau")
== StepLabel("tau")``), so no dict or set may mix records of two classes,
or a record and a plain tuple.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Iterable, Mapping, NamedTuple

IDENTIFIER_RE = r"[A-Za-z_][A-Za-z0-9_']*"

TAU = "tau"
SEND = "send"
RECV = "recv"

_TAU_RANK, _SEND_RANK, _RECV_RANK = 0, 1, 2
_KIND_ORDER = {TAU: _TAU_RANK, SEND: _SEND_RANK, RECV: _RECV_RANK}

# The step kinds in label order: a tau step, then rendez-vous ``msg:<m>``,
# then non-blocking ``nb:<m>``.  ``MoveTable.order`` and the rule order of
# ``reductions.protocol_to_machine`` read it.
STEP_KINDS = ("tau", "msg", "nb")


class ProtocolError(ValueError):
    """Structurally invalid protocol (bad init/final, dangling transition...)."""


class MalformedConfigurationError(ValueError):
    """Empty configuration, non-positive count, or state outside the protocol."""


class Action(namedtuple("Action", "kind message")):
    """Edge label: internal move, send request or reception of a message."""

    __slots__ = ()

    def __new__(cls, kind: str, message: str | None = None) -> Action:
        if kind not in _KIND_ORDER:
            raise ProtocolError(f"unknown action kind {kind!r}")
        if kind == TAU and message is not None:
            raise ProtocolError("internal actions carry no message")
        if kind != TAU and not message:
            raise ProtocolError(f"{kind} action needs a message")
        return tuple.__new__(cls, (kind, message))

    def __str__(self) -> str:
        if self.kind == TAU:
            return "tau"
        prefix = "!" if self.kind == SEND else "?"
        return prefix + (self.message or "")


def tau() -> Action:
    return Action(TAU)


def send(message: str) -> Action:
    return Action(SEND, message)


def recv(message: str) -> Action:
    return Action(RECV, message)


Transition = tuple[str, Action, str]
Rule = tuple[str, str | None, tuple[str, ...], tuple[str, ...], tuple[str, ...]]


class Protocol:
    """Immutable protocol automaton with precomputed lookup tables."""

    def __init__(
        self,
        name: str,
        states: Iterable[str],
        messages: Iterable[str],
        init: str,
        final: str,
        transitions: Iterable[Transition],
    ) -> None:
        self.name = name
        self.states: tuple[str, ...] = tuple(sorted(set(states)))
        self.messages: tuple[str, ...] = tuple(sorted(set(messages)))
        self.init = init
        self.final = final
        # Transitions are deduplicated and ordered on plain keys, (src, kind
        # rank, message, dst), which hash and compare in C.
        keyed = {(src, _KIND_ORDER[act.kind], act.message or "", dst): act
                 for src, act, dst in transitions}
        if not self.states:
            raise ProtocolError("a protocol needs at least one state")
        state_set = set(self.states)
        msg_set = set(self.messages)
        if init not in state_set:
            raise ProtocolError(f"initial state {init!r} not declared")
        if final not in state_set:
            raise ProtocolError(f"final state {final!r} not declared")
        ordered: list[Transition] = []
        # (source, message, target) of every send and receive, (source, target) of every tau.
        sends: list[tuple[str, str, str]] = []
        recvs: list[tuple[str, str, str]] = []
        taus: list[tuple[str, str]] = []
        by_msg: dict[str, list[tuple[str, str]]] = {m: [] for m in self.messages}
        receptions: dict[str, dict[str, list[str]]] = {q: {} for q in self.states}
        for key in sorted(keyed):
            src, kind, m, dst = key
            if src not in state_set or dst not in state_set:
                raise ProtocolError(f"transition {src!r} -> {dst!r} uses undeclared state")
            ordered.append((src, keyed[key], dst))
            if kind == _TAU_RANK:
                taus.append((src, dst))
            elif m not in msg_set:
                raise ProtocolError(f"transition on undeclared message {m!r}")
            elif kind == _SEND_RANK:
                sends.append((src, m, dst))
            else:
                recvs.append((src, m, dst))
                by_msg[m].append((src, dst))
                receptions[src].setdefault(m, []).append(dst)
        self.transitions: tuple[Transition, ...] = tuple(ordered)
        self.sends: tuple[tuple[str, str, str], ...] = tuple(sends)
        self.recvs: tuple[tuple[str, str, str], ...] = tuple(recvs)
        self.taus: tuple[tuple[str, str], ...] = tuple(taus)
        # Each reception ``r ?m r'`` is filed twice.  By message, as ``(r, r')``
        # in ``recvs`` order, which ``rules`` reads; ``receivers_of[m]`` is the
        # set R(m) of those ``r``.  By state, as ``receptions[r][m]``, the
        # targets in ``recvs`` order ({} for a state with no reception).
        self._by_msg = by_msg
        self.receivers_of = {m: frozenset([r for r, _rp in v]) for m, v in by_msg.items()}
        self.receptions = {q: {m: tuple(v) for m, v in d.items()}
                           for q, d in receptions.items()}
        self._rules: tuple[Rule, ...] | None = None
        self._moves: MoveTable | None = None

    @property
    def rules(self) -> tuple[Rule, ...]:
        """The step rules, each ``(kind, message, sources, destinations, blockers)``.

        A rule moves one process from each source state to the destination
        in the same position, and is labelled ``StepLabel(kind, message)``.
        It is enabled when its sources hold one process each (a state named
        twice holds two) and no blocker holds a process besides the rule's
        own sources.  They come in table order: each tau ``q -> q'`` gives
        ``("tau", None, (q,), (q',), ())``; then each send ``s !m s'`` gives
        ``("msg", m, (s, r), (s', r'), ())`` for each reception ``r ?m r'``,
        in ``recvs`` order, then ``("nb", m, (s,), (s',), receivers)``, the
        receivers of ``m`` in name order.  Built on first use, as most
        protocols that are parsed never step.
        """
        if self._rules is None:
            blockers = {m: tuple(sorted(qs)) for m, qs in self.receivers_of.items()}
            rules: list[Rule] = [("tau", None, (src,), (dst,), ()) for src, dst in self.taus]
            for s, m, sp in self.sends:
                for r, rp in self._by_msg[m]:
                    rules.append(("msg", m, (s, r), (sp, rp), ()))
                rules.append(("nb", m, (s,), (sp,), blockers[m]))
            self._rules = tuple(rules)
        return self._rules

    def moves(self, n: int) -> "MoveTable":
        """The protocol compiled for :func:`dense_moves` at populations up to ``n``.

        The protocol keeps one table, compiled on first use (most protocols
        that are parsed are never explored), and reuses it while ``n`` is
        below its ``guard``; ``n >= guard`` compiles a wider one.  The table
        returned is always wide enough for ``n``.  A population below 1 is
        refused, for every search that compiles its table here.
        """
        if n < 1:
            raise MalformedConfigurationError("population must be at least 1")
        t = self._moves
        if t is None or n >= t.guard:
            t = self._moves = MoveTable(self, n)
        return t


class Configuration(namedtuple("Configuration", "items")):
    """Non-empty multiset of states, stored sparsely as sorted (state, count) pairs."""

    __slots__ = ()

    def __new__(cls, items: tuple[tuple[str, int], ...]) -> Configuration:
        if not items:
            raise MalformedConfigurationError("configuration must be non-empty")
        for state, count in items:
            if count <= 0:
                raise MalformedConfigurationError(f"count for {state!r} must be positive")
        names = [s for s, _ in items]
        if names != sorted(names) or len(set(names)) != len(names):
            raise MalformedConfigurationError("configuration items must be sorted and unique")
        return tuple.__new__(cls, (items,))

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "Configuration":
        return cls(tuple(sorted((s, n) for s, n in counts.items() if n != 0)))

    def total(self) -> int:
        return sum(n for _, n in self.items)

    def states(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.items)

    def __str__(self) -> str:
        return ",".join(s if n == 1 else f"{s}:{n}" for s, n in self.items)


def check_configuration(p: Protocol, c: Configuration) -> None:
    """Reject configurations mentioning states outside ``p``."""
    state_set = set(p.states)
    for s, _ in c.items:
        if s not in state_set:
            raise MalformedConfigurationError(f"state {s!r} not in protocol {p.name}")


class StepLabel(NamedTuple):
    """Step kind: ``tau``, rendez-vous ``msg:<m>`` or non-blocking ``nb:<m>``."""

    kind: str
    message: str | None = None

    def __str__(self) -> str:
        if self.kind == "tau":
            return "tau"
        return f"{self.kind}:{self.message}"


class _Fields:
    """``count`` packed fields for values up to ``top``, from bit ``offset`` up.

    Every engine packs its vectors of counts in this layout: the protocol
    configurations of a :class:`MoveTable`, the counters of a counter
    machine and the coordinates of a VAS (``machines``), and the basis
    vectors of the backward search (``backward``).  Each field has ``width
    = top.bit_length() + 1`` bits, field ``i`` starts at bit ``shifts[i]``,
    and ``fmask`` is a whole field at shift 0.  A value up to ``top``
    leaves the field's top bit clear: that guard bit is ``guard`` at shift
    0, and ``high`` has it in every field, so an addition that keeps each
    field within ``top`` never carries into the next one, and a move is one
    addition.  Adding a constant then tests every field at once: ``(v +
    ones) & high`` has the guard bit of exactly the nonzero fields of ``v``,
    ``(v + over(cap)) & high`` the guard bit of those above ``cap``, and
    :meth:`at_least` tests a lower bound on some fields.
    """

    def __init__(self, count: int, top: int, offset: int = 0) -> None:
        self.width = top.bit_length() + 1
        self.guard = 1 << (self.width - 1)
        self.fmask = (1 << self.width) - 1
        self.shifts = tuple(range(offset, offset + count * self.width, self.width))
        # 1 in every field: (2^(count * width) - 1) / (2^width - 1), at offset.
        self.unit = ((1 << count * self.width) - 1) // self.fmask << offset
        self.high = self.spread(self.guard)
        self.ones = self.spread(self.guard - 1)

    def spread(self, x: int) -> int:
        """``x`` written into every field, for ``0 <= x <= fmask``."""
        return x * self.unit

    def over(self, cap: int) -> int:
        """``K`` for ``cap <= top``: ``(v + K) & high`` is nonzero exactly
        when some field of ``v`` exceeds ``cap``."""
        return self.spread(self.guard - 1 - cap)

    def at_least(self, need: list[tuple[int, int]]) -> Callable[[int], bool]:
        """The test that the field at ``shift`` holds ``k`` or more, for every
        ``(shift, k)`` pair of ``need`` (``k <= guard``).

        Adding ``guard - k`` to a field sets its guard bit exactly when it
        holds ``k`` or more, so the test is one addition and one mask.  A
        ``k`` of ``guard`` is never met.
        """
        guard = self.guard
        lift = sum((guard - k) << s for s, k in need)
        full = sum(guard << s for s, _k in need)
        return lambda v: (v + lift) & full == full

    def pack(self, values: Iterable[int]) -> int:
        return sum(x << s for x, s in zip(values, self.shifts))

    def unpack(self, v: int) -> tuple[int, ...]:
        fmask = self.fmask
        return tuple([v >> s & fmask for s in self.shifts])


class MoveTable(_Fields):
    """A protocol compiled into moves over packed configurations.

    A packed configuration is one int: the count of state ``q`` sits in the
    :class:`_Fields` field at ``shift[q]``, in ``p.states`` order.  A table
    compiled for ``n`` serves every population below its ``guard``: no
    count can then reach a guard bit, so each move is one addition.

    The moves of a configuration depend only on its signature: which of the
    states that some rule reads, as a source or a blocker, it occupies and,
    for each state that sends a message it also receives, whether that
    state holds two processes or more.  ``(v + ones) & read_high`` has the
    guard bit of every occupied field that a rule reads (``read_high`` has
    the guard bits of those states), and ``((v + twos) & self_high) >> 1``
    the bit below the guard of every such shared state with a count of 2
    or more (``twos`` holds ``guard - 2`` in their fields); the signature
    ors the two.  A state no rule reads is left out, so the memo does not
    hold one entry per occupancy of such states.
    ``memo`` maps each signature met so far to the ``(rank, delta)`` moves
    it enables, one per enabled rule of ``Protocol.rules``: a configuration
    ``v`` with that signature steps to ``v + delta`` under the label
    ``labels[rank]``.  ``order`` lists the labels in rank order, one
    ``(kind, message)`` pair per rank: the kinds in :data:`STEP_KINDS`
    order, ``tau`` once and each send kind once per message in name order:
    the label order of :func:`successors`.  A rule's rank is the index of
    its pair there, and ``labels`` is built from it.
    """

    def __init__(self, p: Protocol, n: int) -> None:
        super().__init__(len(p.states), n)
        self.name = p.name
        self.states = p.states
        self.shift = dict(zip(p.states, self.shifts))
        one = {q: 1 << s for q, s in self.shift.items()}
        guard = {q: self.guard << s for q, s in self.shift.items()}
        self.order = ((STEP_KINDS[0], None),
                      *[(kind, m) for kind in STEP_KINDS[1:] for m in p.messages])
        rank = {pair: r for r, pair in enumerate(self.order)}
        # Each rule as (need | block, need, (rank, delta)), grouped by the
        # guard bit of its first source.  A state that is two of the
        # sources, or both a source and a blocker, is read by its
        # two-or-more bit, the bit below its guard bit; ``read`` ors every
        # bit that a rule reads.
        groups: dict[int, list] = {}
        read = 0
        for kind, m, src, dst, blockers in p.rules:
            s, r, pair = src[0], src[-1], len(src) == 2
            need = guard[s] >> 1 if pair and r == s else guard[s] | guard[r]
            delta = one[dst[0]] - one[s] + (one[dst[1]] - one[r] if pair else 0)
            block = 0
            for q in blockers:
                block |= guard[q] >> (q in src)
            read |= need | block
            groups.setdefault(guard[s], []).append(
                (need | block, need, (rank[kind, m], delta)))
        # The signature keeps the guard bits of the states a rule reads; the
        # shared states are those read by their two-or-more bit.
        self.read_high = read & self.high
        self.self_high = (read & (self.high >> 1)) << 1
        self.twos = self.self_high - (self.self_high >> (self.width - 2))
        self.memo = _Moves(tuple([(bit, tuple(rules)) for bit, rules in groups.items()]))
        self._labels: tuple[StepLabel, ...] | None = None
        self._back: tuple[tuple[int, tuple[int, int]], ...] | None = None

    @property
    def labels(self) -> tuple[StepLabel, ...]:
        """The shared :class:`StepLabel` of each rank, in ``order``.  Only
        label-ordered searches read them, so they are built on first use."""
        if self._labels is None:
            self._labels = tuple([StepLabel(*pair) for pair in self.order])
        return self._labels

    @property
    def back(self) -> tuple[tuple[int, tuple[int, int]], ...]:
        """Every move of the table's rules once, as ``(delta, (rank, delta))``.

        These are the candidates of :func:`dense_preimage`, taken from the
        memo's own rule tuples.  Only the backward side of a search from
        both ends reads them, so they are built on first use.
        """
        if self._back is None:
            moves = dict.fromkeys([move for _bit, rules in self.memo.groups
                                   for _mask, _need, move in rules])
            self._back = tuple([(move[1], move) for move in moves])
        return self._back

    def encode(self, c: Configuration) -> int:
        """The packed form of ``c``, whose total must be below ``guard``;
        rejects states outside the protocol."""
        v = 0
        for state, n in c.items:
            s = self.shift.get(state)
            if s is None:
                raise MalformedConfigurationError(f"state {state!r} not in protocol {self.name}")
            v += n << s
        return v

    def items(self, v: int) -> tuple[tuple[str, int], ...]:
        """The ``Configuration.items`` of the packed configuration ``v``."""
        out = []
        mask, stride = self.fmask, self.width
        for q in self.states:
            if not v:
                break
            if v & mask:
                out.append((q, v & mask))
            v >>= stride
        return tuple(out)

    def decode(self, v: int) -> Configuration:
        """The sparse form of the packed configuration ``v``."""
        # ``items`` gives only valid items: ``tuple.__new__`` skips the checks.
        return tuple.__new__(Configuration, (self.items(v),))


class _Moves(dict):
    """A :class:`MoveTable`'s memo: signature -> the ``(rank, delta)`` moves it enables.

    A missing signature is filled by the one interpreter of the step rules,
    from the compiled ``Protocol.rules`` alone.  ``groups`` pairs the guard
    bit of a first source with the ``(mask, need, move)`` of each rule that
    starts there, in table order: a signature enables the rule when it has
    every bit of ``need`` and none of the rule's blocker bits, the rest of
    ``mask``.  The memo holds no reference to its table, so a table is freed
    as soon as its protocol is.
    """

    def __init__(self, groups: tuple) -> None:
        super().__init__()
        self.groups = groups

    def __missing__(self, key: int) -> tuple[tuple[int, int], ...]:
        moves: list[tuple[int, int]] = []
        for bit, rules in self.groups:
            if key & bit:
                for mask, need, move in rules:
                    if key & mask == need:
                        moves.append(move)
        found = self[key] = tuple(moves)
        return found


def dense_moves(t: MoveTable, v: int) -> list[tuple[int, int]]:
    """Every one-step move of the packed configuration ``v``, as ``(rank, w)``.

    ``rank`` indexes ``t.labels``.  The moves are those ``t.memo`` keeps for
    the signature of ``v``, in the order of the memo's groups, and may repeat
    a successor: a search that only needs the set of successors reads them
    as they are, and :func:`dense_successors` orders them.  ``v`` must hold
    fewer than ``t.guard`` processes.
    """
    moves = t.memo[((v + t.ones) & t.read_high) | (((v + t.twos) & t.self_high) >> 1)]
    return [(rank, v + delta) for rank, delta in moves]


def dense_image(t: MoveTable, frontier: Iterable[int]) -> set[int]:
    """The set of one-step successors of every packed configuration in ``frontier``.

    The moves of :func:`dense_moves`, over a whole frontier at once, without
    ranks or order.
    """
    memo, ones, read_high, twos, self_high = t.memo, t.ones, t.read_high, t.twos, t.self_high
    return {v + delta
            for v in frontier
            for _rank, delta in memo[((v + ones) & read_high) | (((v + twos) & self_high) >> 1)]}


def dense_preimage(t: MoveTable, frontier: Iterable[int]) -> set[int]:
    """The set of one-step predecessors of every packed configuration in ``frontier``.

    A candidate is ``u = c - delta`` for each move of ``t.back``, and it is
    a configuration exactly when none of its guard bits is set.  A field of
    ``c`` short of a destination unit of the move borrows from the next
    field and sets its own guard bit (every field is at least 2 bits wide,
    and a move takes at most 2 from a field); a short top field makes ``u``
    negative, which sets the top guard bit too.  With no field short, ``u``
    is a configuration of as many processes as ``c``.  It is a predecessor
    when the memo lists the move among those of its signature, so the three
    step rules are read from the one interpreter that fills the memo.
    Each ``c`` must hold fewer than ``t.guard`` processes.
    """
    memo, ones, high, read_high = t.memo, t.ones, t.high, t.read_high
    twos, self_high, back = t.twos, t.self_high, t.back
    return {u for c in frontier for delta, move in back
            if not (u := c - delta) & high
            and move in memo[((u + ones) & read_high) | (((u + twos) & self_high) >> 1)]}


def dense_successors(t: MoveTable, v: int) -> list[tuple[StepLabel, int]]:
    """All one-step successors of the packed configuration ``v``, as ``(label, w)``.

    The moves of :func:`dense_moves`, deduplicated and ordered by label
    rank, then by the sparse order of the decoded successors, as
    :func:`successors` promises, with each rank replaced by its label.
    """
    found: dict[int, list[int]] = {}
    for rank, w in dense_moves(t, v):
        found.setdefault(rank, []).append(w)
    out: list[tuple[StepLabel, int]] = []
    labels = t.labels
    for rank in sorted(found):
        group = found[rank]
        if len(group) > 1:
            group = sorted(set(group), key=t.items)
        label = labels[rank]
        out += [(label, w) for w in group]
    return out


def successors(p: Protocol, c: Configuration) -> list[tuple[StepLabel, Configuration]]:
    """All one-step successors of ``c``, deduplicated and deterministically ordered.

    Successors are ordered by label (``tau``, then ``msg:<m>``, then
    ``nb:<m>``, messages in name order), then by ``Configuration.items``:
    :func:`dense_successors` on the packed form of ``c``.  The classical
    rendez-vous semantics is the successors whose label is not ``nb:<m>``.
    """
    t = p.moves(c.total())
    return [(label, t.decode(w))
            for label, w in dense_successors(t, t.encode(c))]
