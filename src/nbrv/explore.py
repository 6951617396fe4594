"""Bounded explicit-state exploration of protocol networks.

For a fixed population size the configuration space is finite, so breadth
first search decides state coverability, configuration coverability and
synchronization exactly at that size.  Sweeping the population upward gives a
semi-decision procedure for the parameterised questions: it can answer YES
with a witness but never NO.

``search`` is the one breadth-first search with parents of the package: the
counter machine and VAS searches run on it too, also on packed ints.  The
explorer runs on the packed configurations of the protocol's compiled
``MoveTable`` (one int per configuration, one count field per state), so
each move is one integer addition; ``Configuration`` objects are built
only for witnesses.  A sweep compiles its table for the largest population
first, and every smaller population reuses it.

Each population is searched on its own, since an extra process can turn a
non-blocking request into a rendez-vous.  A reachable set, a NO and an
overflow with no goal met depend only on the set of nodes reached, so
``reachable`` and the first pass of ``decide_fixed`` saturate that set
level by level, ``seen |= image(t, frontier) - seen``, on
``model.dense_image``, which expands a whole frontier at once on the
moves the table memoises per signature and keeps neither order nor
parents.  Only a YES witness, and the overflow of a search that has a
goal, depend on the order of successors: ``decide_ordered`` then searches
the population again with ``search``, on the label-ordered successors.

A ``synchro`` population ``n`` has one goal configuration, all ``n``
processes in ``final``, so :func:`decide_fixed` decides it by a search from
both ends (:func:`_meets`): ``image`` levels forward from ``n * init`` and
``model.dense_preimage`` levels backward from ``n * final``, one level per
round on the side with the smaller frontier, NO when either side closes
and YES when they meet.  On the shipped ``fig1``, ``p1`` and ``p2``,
``n * final`` has no predecessor at all, so the backward side closes at
once where the forward side would saturate every reachable configuration.
It takes this path only while the ``C(n + |Q| - 1, |Q| - 1)``
configurations of ``n`` processes fit in the budget: then no search of
the population can run out of it, and the verdict is the one the
level-by-level pass gives, a YES being searched again by
``decide_ordered`` for its witness.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import partial
from math import comb
from typing import Any, Callable, Hashable, Iterable, NamedTuple

from . import model
from .model import Configuration, MoveTable, Protocol, check_configuration

# The explorer's step functions, looked up as ``explore.successors``,
# ``explore.image`` and ``explore.preimage`` on every search so that a
# wrapper installed on any of these names sees each call.  ``successors``
# gives the ``(label, w)`` successors of one configuration, deduplicated and
# in label order, for the label-ordered searches; ``image`` gives the
# successor set of a frontier, for the level-by-level passes, and
# ``preimage`` its predecessor set, for the backward side of :func:`_meets`.
successors = model.dense_successors
image = model.dense_image
preimage = model.dense_preimage

DEFAULT_BUDGET = 10**6

SCOVER = "scover"
CCOVER = "ccover"
SYNCHRO = "synchro"


class ResourceLimitError(RuntimeError):
    """The configurable node budget was exceeded before the search finished."""


class Problem(namedtuple("Problem", "kind target")):
    """A parameterised verification question against a protocol."""

    __slots__ = ()

    def __new__(cls, kind: str, target: Configuration | None = None) -> Problem:
        if kind not in (SCOVER, CCOVER, SYNCHRO):
            raise ValueError(f"unknown problem kind {kind!r}")
        if kind == CCOVER and target is None:
            raise ValueError("ccover needs a target configuration")
        if kind != CCOVER and target is not None:
            raise ValueError(f"{kind} takes no target configuration")
        return tuple.__new__(cls, (kind, target))

    def cover(self, p: Protocol) -> Configuration:
        """The configuration that a YES must cover on ``p``.

        That is the ``ccover`` target, or one process in ``p.final``.  A
        ``synchro`` YES needs every process in ``final``, so covering this
        is necessary for it but not enough.
        """
        return Configuration(((p.final, 1),)) if self.target is None else self.target

    def goal(self, p: Protocol, t: MoveTable, n: int) -> Callable[[int], Any]:
        """The test of this problem on ``t``'s packed configurations of size ``n``.

        A ``scover`` or ``ccover`` test is ``t.at_least`` of the cover, one
        addition and one mask.  A cover count is clamped to ``t.guard``,
        which is never met: no configuration of ``t`` holds that many
        processes.  A ``synchro`` test is equality with all ``n`` processes
        in ``final``.
        """
        if self.kind == SYNCHRO:
            full = n << t.shift[p.final]
            return lambda v: v == full
        cover = self.cover(p)
        check_configuration(p, cover)
        return t.at_least([(t.shift[q], min(k, t.guard)) for q, k in cover.items])


class Witness(NamedTuple):
    """A replayable run: start point plus a sequence of labelled steps."""

    initial: Any
    steps: tuple[tuple[Any, Any], ...]


class Verdict(namedtuple("Verdict", "answer witness explored_bound note stats")):
    """Outcome of a decision procedure.

    ``answer`` is ``yes``, ``no`` or ``unknown``.  A ``yes`` from a search
    carries a witness; ``explored_bound`` records the population size or
    counter cap that was exhausted; ``note`` qualifies incomplete NOs
    (``within-cap``) and sweeps cut short by the node budget (``budget``).
    ``stats`` is a fresh dict for each verdict built without one.
    """

    __slots__ = ()

    def __new__(cls, answer: str, witness: Witness | None = None,
                explored_bound: int | None = None, note: str = "",
                stats: dict | None = None) -> Verdict:
        return tuple.__new__(cls, (answer, witness, explored_bound, note,
                                   {} if stats is None else stats))

    def is_yes(self) -> bool:
        return self.answer == "yes"


def search(
    start: Hashable,
    succ: Callable[[Any], Iterable[tuple[Any, Any]]],
    *,
    budget: int,
    overflow: str,
    goal: Callable[[Any], bool] | None = None,
    prune: Callable[[Any], bool] | None = None,
) -> tuple[dict, Any, int]:
    """Breadth-first search from ``start`` over ``succ(node) -> [(label, node)]``.

    Returns ``(parents, hit, pruned)``: the node every admitted node was
    first reached from (``start`` has parent ``None``), the first admitted
    node meeting ``goal`` (``None`` if the search ran out), and how many new
    successors ``prune`` turned away.  Admitting more than ``budget`` nodes,
    ``start`` included, raises a ``ResourceLimitError`` with the message
    ``overflow`` before the node is tested against ``goal``, as
    :func:`_levels` counts: a budget below 1 admits nothing.  The error is
    made only then: an exception built up front would be held by the frames
    of its own traceback, keeping them and their tables alive until the
    cyclic collector runs.  The labels are not kept: :func:`_rebuild` finds
    those of a witness again.
    """
    if budget < 1:
        raise ResourceLimitError(overflow)
    parents: dict = {start: None}
    if goal is not None and goal(start):
        return parents, start, 0
    queue = deque([start])
    pruned = 0
    while queue:
        cur = queue.popleft()
        for label, nxt in succ(cur):
            if nxt in parents:
                continue
            if prune is not None and prune(nxt):
                pruned += 1
                continue
            if len(parents) >= budget:
                raise ResourceLimitError(overflow)
            parents[nxt] = cur
            if goal is not None and goal(nxt):
                return parents, nxt, pruned
            queue.append(nxt)
    return parents, None, pruned


def _levels(t: MoveTable, start: int, n: int, budget: int,
            goal: Callable[[int], Any] | None = None) -> tuple[set[int], int] | None:
    """The configurations reachable from ``start``, saturated level by level.

    Returns ``(seen, depth)``: every configuration reached, and the number
    of levels after ``start``, the longest shortest run.  ``None`` when a
    level holds a configuration meeting ``goal``.  More than ``budget``
    configurations raise ``ResourceLimitError``; ``n`` is the population it
    names.
    """
    seen = {start}
    frontier: Iterable[int] = (start,)
    depth = 0
    while True:
        if len(seen) > budget:
            raise ResourceLimitError(f"node budget {budget} exceeded at population {n}")
        if goal is not None and any(map(goal, frontier)):
            return None
        frontier = image(t, frontier) - seen
        if not frontier:
            return seen, depth
        depth += 1
        seen |= frontier


def _meets(t: MoveTable, start: int, goal: int) -> tuple[set[int], int] | None:
    """Whether ``goal`` is reachable from ``start``, by a search from both ends.

    The forward side saturates ``image`` levels from ``start``, the backward
    side ``preimage`` levels from ``goal``, and each round expands one level
    of the side whose frontier is smaller (the forward side on a tie).  The
    two seen sets stay disjoint until a new level meets the other side's
    set: a run then passes through the configuration they share, and the
    answer is ``None``.  A side whose new level is empty has closed, and has
    not met the other side, so ``goal`` is unreachable: the answer is then
    ``(seen, depth)``, the configurations both sides reached and the levels
    both expanded.  Nothing bounds the work: the caller makes sure that
    every configuration of the population fits in its budget.
    """
    if start == goal:
        return None
    # Side 0 is the forward side, side 1 the backward one.
    steps, seen, fronts = (image, preimage), [{start}, {goal}], [(start,), (goal,)]
    depth = 0
    while True:
        side = int(len(fronts[1]) < len(fronts[0]))
        new = steps[side](t, fronts[side]) - seen[side]
        if not new:
            return seen[0] | seen[1], depth
        if not new.isdisjoint(seen[1 - side]):
            return None
        depth += 1
        seen[side] |= new
        fronts[side] = new


def reachable(p: Protocol, n: int, budget: int = DEFAULT_BUDGET) -> tuple[MoveTable, set[int]]:
    """The exact set of configurations reachable from ``n`` initial processes.

    Returns the table searched on and the configurations as its packed ints;
    the table's ``decode`` gives their sparse forms.  ``Protocol.moves``
    refuses ``n < 1``.
    """
    t = p.moves(n)
    found = _levels(t, n << t.shift[p.init], n, budget)
    assert found is not None
    return t, found[0]


def _rebuild(parents: dict, succ: Callable, start: Any, end: Any,
             decode: Callable[[Any], Any]) -> Witness:
    """The run from ``start`` to ``end`` through ``parents``, in sparse form.

    Each step's label is the first that ``succ`` gives from the parent to the
    node: the one the search admitted the node by.  ``decode`` gives the
    sparse form of each node of the run.
    """
    steps: list[tuple[Any, Any]] = []
    cur = end
    while cur != start:
        parent = parents[cur]
        steps.append((next(label for label, nxt in succ(parent) if nxt == cur), decode(cur)))
        cur = parent
    steps.reverse()
    return Witness(decode(start), tuple(steps))


def decide_ordered(
    p: Protocol, prob: Problem, n: int, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Decide ``prob`` at population ``n`` by one search in label order.

    A YES carries the witness to the first goal node that search admits; a
    NO carries ``visited``.  Admitting more than ``budget`` nodes first
    raises ``ResourceLimitError``.  Which goal node is met first, and
    whether the budget runs out before it, depend on the order of
    successors, so every explorer witness and every overflow with a goal
    comes from this search.  ``Protocol.moves`` refuses ``n < 1``.
    """
    t = p.moves(n)
    goal = prob.goal(p, t, n)
    start = n << t.shift[p.init]
    overflow = f"node budget {budget} exceeded at population {n}"
    succ = partial(successors, t)
    parents, hit, _pruned = search(start, succ, budget=budget, overflow=overflow, goal=goal)
    if hit is None:
        return Verdict("no", explored_bound=n, stats={"visited": len(parents)})
    return Verdict("yes", _rebuild(parents, succ, start, hit, t.decode), explored_bound=n)


def decide_fixed(
    p: Protocol, prob: Problem, n: int, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Decide ``prob`` exactly for initial configurations of size ``n``.

    A ``synchro`` population whose ``C(n + |Q| - 1, |Q| - 1)``
    configurations fit in ``budget`` is decided from both ends
    (:func:`_meets`); any other population is first saturated level by
    level.  A NO carries ``visited`` (the configurations reached), ``depth``
    (the levels expanded after the initial ones) and ``signatures`` (the
    size of the table's memo after the search, which counts the signatures
    met by every search on that table).  When the search meets the goal,
    or the budget runs out, :func:`decide_ordered` answers instead: under
    the bound above no search of the population can run out of budget, so
    both paths give the same answer.  ``Protocol.moves`` refuses ``n < 1``.
    """
    t = p.moves(n)
    start = n << t.shift[p.init]
    places = len(p.states) - 1
    try:
        if prob.kind == SYNCHRO and comb(n + places, places) <= budget:
            found = _meets(t, start, n << t.shift[p.final])
        else:
            found = _levels(t, start, n, budget, prob.goal(p, t, n))
    except ResourceLimitError:
        found = None
    if found is not None:
        seen, depth = found
        return Verdict("no", explored_bound=n,
                       stats={"visited": len(seen), "depth": depth, "signatures": len(t.memo)})
    return decide_ordered(p, prob, n, budget)


def decide_sweep(
    p: Protocol, prob: Problem, max_n: int, budget: int = DEFAULT_BUDGET, start: int = 1
) -> Verdict:
    """Try population sizes start..max_n; YES at the first hit, else UNKNOWN.

    Each population is decided by :func:`decide_fixed`.  ``start`` skips
    populations already known to give no YES.  A population that exceeds
    ``budget`` ends the sweep with UNKNOWN, noted ``budget``, whose
    ``explored_bound`` is the last population completed.  The move table is
    compiled for ``max_n`` up front, so every population shares one table,
    and ``Protocol.moves`` refuses a ``max_n`` below 1.
    """
    p.moves(max_n)
    for n in range(start, max_n + 1):
        try:
            verdict = decide_fixed(p, prob, n, budget)
        except ResourceLimitError:
            return Verdict("unknown", explored_bound=n - 1, note="budget")
        if verdict.is_yes():
            return verdict
    return Verdict("unknown", explored_bound=max_n)


def replay_steps(succ: Callable[[Any], list[tuple[Any, Any]]], witness: Witness) -> bool:
    """Whether every step of ``witness`` is a ``(label, nxt)`` pair that
    ``succ`` lists for the configuration before it, from ``witness.initial`` on.

    ``succ`` is a model's sparse successor function: the one replay loop of
    :func:`replay` and ``machines.replay_machine``.
    """
    cur = witness.initial
    for label, nxt in witness.steps:
        if (label, nxt) not in succ(cur):
            return False
        cur = nxt
    return True


def replay(p: Protocol, witness: Witness) -> bool:
    """Check a protocol witness against the semantics.

    The witness must start at a :class:`Configuration` with every process
    in ``p.init``; :func:`replay_steps` then checks each step against
    ``model.successors``.
    """
    start = witness.initial
    if not isinstance(start, Configuration) or set(start.states()) != {p.init}:
        return False
    return replay_steps(partial(model.successors, p), witness)
