"""Exact parameterised COVER by backward search over minimal bases.

A configuration ``c`` covers a target ``t`` when ``c(q) >= t(q)`` for every
state.  :func:`first_population` computes the upward-closed set of
configurations from which some run covers the target, as the antichain of
its minimal elements, and answers with the smallest population ``n`` whose
initial configuration ``n * init`` lies in that set, or NO when none does.
:func:`decide` is the one decision procedure of ``nbrv check``: its
docstring states which engine answers each method and problem.

Why it is sound
---------------
*Monotonicity.*  Under the non-blocking semantics, configurations ordered
by ``<=`` form a well-structured transition system.  Tau and rendez-vous
steps are monotone: a larger configuration can take the same step, to a
larger successor.  A non-blocking step ``nb:m`` enabled at ``c`` may be
disabled at some ``c' >= c``, but only because ``c'`` holds a receiver of
``m`` that ``c`` lacks; then the rendez-vous ``msg:m`` with that receiver
is enabled at ``c'`` and its successor covers the ``nb`` successor of
``c``.  So whenever ``c -> d`` and ``c <= c'``, some step ``c' -> d'`` has
``d <= d'``, and the set of configurations that can cover the target is
upward closed.  Backward search over minimal bases therefore terminates
and is exact (Abdulla, Cerans, Jonsson and Tsay, LICS 1996; Finkel and
Schnoebelen, TCS 2001).

*Pre-images.*  A rule of ``Protocol.rules`` moves the vector ``pre`` of
its sources to the vector ``post`` of its destinations, and has blockers
``B``.  For a basis vector ``b`` it gives at most one minimal predecessor,
the upward-closed pre-image

    ``c = max(b - post, 0) + pre``, kept only when ``c - pre`` is 0 on ``B``,

such that every configuration that takes the rule into the upward
closure of ``b`` is at least ``c``.  Its three instances are:

- tau ``q -> q'``: ``c = max(b - e_q', 0) + e_q``;
- rendez-vous of ``s !m s'`` with ``r ?m r'`` (``r = s`` allowed):
  ``c = max(b - e_s' - e_r', 0) + e_s + e_r``;
- non-blocking ``s !m s'``, blocked by the receivers of ``m``:
  ``c = max(b - e_s', 0) + e_s``, kept only when ``c - e_s`` is 0 on
  every receiver of ``m``.  Otherwise every configuration at least ``c``
  holds a receiver besides the sender, and the rule has no pre-image in
  the upward closure of ``b``.

A tau or a rendez-vous has no blockers.  A rule whose destination fields
are all 0 in ``b`` gives ``c >= b``, which adds nothing, and is skipped.

*Saturation.*  :func:`saturation` over-approximates the states that any
reachable configuration occupies: it is the least set of states that holds
``init`` and is closed under the rules of ``Protocol.rules`` with their
blockers ignored, so that whenever a rule's sources all lie in the set, its
destinations do too.  A run from ``n * init`` to a cover passes only
through configurations supported in the saturation, and each basis vector
below such a configuration is supported in it too, so dropping the vectors
positive outside it loses no answer.

*Minimal population.*  Every pre-image has at least the sum of its vector.
Vectors are expanded smallest sum first, ties broken by the larger
``init`` count, so the first vector popped that is 0 outside ``init`` has
the smallest sum of any such vector that the search can still derive: its
``init`` count is the smallest population that covers the target.

Vectors are packed ints in the guarded fields of ``model._Fields``, one
field per state (in ``p.states`` order) for values up to ``sum(target) + 2
* budget``.  A pre-image adds at most 2 to the sum of its vector, so within
``budget`` pops no value reaches a guard bit, and ``u <= v`` is one
subtraction: ``((v | H) - u) & H == H`` with ``H`` the guard bits.
"""

from __future__ import annotations

import heapq

from . import explore, waitonly
from .explore import DEFAULT_BUDGET, SYNCHRO, Problem, ResourceLimitError, Verdict
from .model import Configuration, Protocol, _Fields, check_configuration


# The methods of :func:`decide`, as ``nbrv check --method`` offers them.
METHODS = ("explore", "abstract", "backward", "auto")


class EngineDisagreementError(RuntimeError):
    """The explorer found no cover at the population the backward search gave."""


def saturation(p: Protocol) -> frozenset[str]:
    """The states that some reachable configuration may occupy (an over-approximation).

    The least set of states that holds ``p.init`` and holds the destinations
    of every rule of ``Protocol.rules`` whose sources it holds, blockers
    ignored.
    """
    sat = {p.init}
    rules = p.rules
    while True:
        # A rule has one or two sources.  A rule that fired can add nothing
        # more: only the others are kept, and a round that fires none ends.
        left = []
        for rule in rules:
            src = rule[2]
            if src[0] in sat and src[-1] in sat:
                sat.update(rule[3])
            else:
                left.append(rule)
        if len(left) == len(rules):
            return frozenset(sat)
        rules = left


def first_population(p: Protocol, target: Configuration,
                     budget: int = DEFAULT_BUDGET) -> Verdict:
    """The smallest population whose initial configuration can cover ``target``.

    YES carries that population as ``explored_bound``; NO is exact for every
    population.  Past ``budget`` pops the answer is UNKNOWN, noted
    ``budget``.  ``stats`` holds ``pops`` and ``basis``, the size of the
    antichain when the search stopped.
    """
    check_configuration(p, target)
    sat = saturation(p)
    # A target outside the saturation is never covered: nothing is compiled.
    if not sat.issuperset([q for q, _k in target.items]):
        return Verdict("no", stats={"pops": 0, "basis": 0})
    budget = max(budget, 0)
    layout = _Fields(len(p.states), target.total() + 2 * budget)
    shift = dict(zip(p.states, layout.shifts))
    one = {q: 1 << s for q, s in shift.items()}
    field = {q: layout.fmask << s for q, s in shift.items()}
    guards = layout.high
    outside_init = sum(field.values()) - field[p.init]
    init_field = field[p.init]
    start = sum(k << shift[q] for q, k in target.items)

    # Only the rules that the saturation fires are compiled, those whose
    # sources all lie in it: any other rule only gives vectors that are
    # positive outside it.  A rule has one or two sources, and is compiled to
    # the union of its destination fields, each destination field and unit
    # (the second 0 for a rule of one process), the sum of its source units,
    # its number of sources and the union of its blocker fields.
    rules = []
    for _kind, _m, src, dst, blockers in p.rules:
        if src[0] not in sat or src[-1] not in sat:
            continue
        block = 0
        for q in blockers:
            block |= field[q]
        d = dst[0]
        f2, u2, s2 = (field[dst[1]], one[dst[1]], one[src[1]]) if len(src) == 2 else (0, 0, 0)
        rules.append((field[d] | f2, field[d], one[d], f2, u2, one[src[0]] + s2, len(src), block))
    # Rules of one process first: their pre-images keep the sum of their
    # vector, so they tend to cover the rendez-vous pre-images of the same
    # vector, which are then turned away before they enter the basis.
    rules.sort(key=lambda rule: rule[6])

    basis: set[int] = set()
    heap: list[tuple[int, int, int]] = []
    # Every vector ever offered: the upward closure of the basis only grows,
    # so a vector offered again is covered by then.
    offered: set[int] = set()

    def insert(c: int, total: int) -> None:
        if c in offered:
            return
        offered.add(c)
        lifted = c | guards
        dominated = []
        for u in basis:
            if (lifted - u) & guards == guards:
                return
            if ((u | guards) - c) & guards == guards:
                dominated.append(u)
        basis.difference_update(dominated)
        basis.add(c)
        heapq.heappush(heap, (total, -(c & init_field), c))

    insert(start, target.total())
    pops = 0
    while heap:
        total, _init, b = heapq.heappop(heap)
        if b not in basis:
            continue
        if pops == budget:
            return Verdict("unknown", note="budget", stats={"pops": pops, "basis": len(basis)})
        pops += 1
        if not b & outside_init:
            return Verdict("yes", explored_bound=total,
                           stats={"pops": pops, "basis": len(basis)})
        for dests, f1, u1, f2, u2, sources, grow, block in rules:
            if not b & dests:
                continue
            c = b
            if c & f1:
                c -= u1
                grow -= 1
            if c & f2:
                c -= u2
                grow -= 1
            if not c & block:
                insert(c + sources, total + grow)
    return Verdict("no", stats={"pops": pops, "basis": len(basis)})


def decide(p: Protocol, prob: Problem, max_n: int,
           budget: int = DEFAULT_BUDGET, method: str = "backward") -> Verdict:
    """Decide ``prob`` on ``p`` by ``method``: the routing of ``nbrv check``.

    ``max_n`` bounds the populations searched and ``budget`` every search.

    - ``explore`` sweeps populations 1..``max_n``
      (``explore.decide_sweep``): YES with a witness, else UNKNOWN.
    - ``abstract`` sends a cover question (``scover``, ``ccover``) to the
      wait-only abstraction (``waitonly.decide_cover``), which raises
      ``NotWaitOnlyError`` on any other protocol.  It refuses ``synchro``
      with a ``ValueError``.
    - ``auto`` sends a cover question on a wait-only protocol there too,
      and every other question to ``backward``.
    - ``backward`` answers with :func:`first_population`, at most
      ``budget`` pops: a NO is exact, and past ``budget`` pops the answer is
      UNKNOWN, noted ``budget``.  The search asks for ``prob.cover(p)``.  A
      cover question that it answers YES at population ``n <= max_n`` gets
      the verdict of the explorer's label-ordered search at ``n``
      (``explore.decide_ordered``), with its witness; the explorer must
      agree.  At ``n > max_n`` the answer is UNKNOWN.  For ``synchro`` the
      cover is necessary but not enough: a NO is exact for it too, and a
      YES is swept from ``n``, each population of which
      ``explore.decide_fixed`` decides from both ends while its
      configurations fit in ``budget``.  An explorer search that runs out
      of ``budget`` nodes answers UNKNOWN, noted ``budget``.  Every
      verdict's ``stats`` carry the backward search's ``pops`` and
      ``basis``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "explore":
        return explore.decide_sweep(p, prob, max_n, budget)
    if method == "abstract" and prob.kind == SYNCHRO:
        raise ValueError("the abstract analysis does not decide synchro")
    if method != "backward" and prob.kind != SYNCHRO:
        # The abstract engine partitions the protocol once; ``auto`` falls
        # back to the backward engine when it is not wait-only.
        try:
            return waitonly.decide_cover(p, prob.cover(p))
        except waitonly.NotWaitOnlyError:
            if method != "auto":
                raise
    found = first_population(p, prob.cover(p), budget)
    if not found.is_yes():
        return found
    n = found.explored_bound
    assert n is not None
    if prob.kind == SYNCHRO:
        verdict = explore.decide_sweep(p, prob, max_n, budget, start=n)
    elif n > max_n:
        verdict = Verdict("unknown", explored_bound=max_n)
    else:
        # Population n can cover the target, so the explorer's order-free
        # pass could only confirm it: search once, in label order.
        try:
            verdict = explore.decide_ordered(p, prob, n, budget)
        except ResourceLimitError:
            verdict = Verdict("unknown", explored_bound=n - 1, note="budget")
        if verdict.answer == "no":
            raise EngineDisagreementError(
                f"backward search covers the target of {p.name} at population {n},"
                " but the explorer does not")
    return verdict._replace(stats={**verdict.stats, **found.stats})
