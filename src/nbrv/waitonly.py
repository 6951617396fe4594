"""Polynomial-time coverability analysis for wait-only protocols.

A protocol is wait-only when every state either only initiates actions
(sends, internal moves) or only answers receptions.  Reachable
configurations of such protocols are abstracted by a pair ``(S, Toks)``:
states in ``S`` can host arbitrarily many processes, a token ``(q, m)``
records that the waiting state ``q`` can host a single process whose last
requested rendez-vous was ``m``.  The one-step abstract post operator is
iterated from ``({q_in}, {})`` until a round changes nothing
(:func:`iterates`), and the stable abstraction decides configuration
coverability exactly.

The iterates form an ascending chain whose concretisations only grow:
``S`` never shrinks, and a token ``(q, m)`` is dropped only when ``q``
enters ``S``.  A configuration admitted by one iterate is therefore
admitted by every later one: each populated state stays unbounded, or
stays a token state whose tokens only grow, and a pair of single token
states stays conflict-free, as one pair of tokens shows that and the pair
survives.  So the first iterate that admits a target already gives the
final answer; :func:`decide_cover` answers YES there, and NO only when the
chain ends.  :func:`fixpoint` still lists the whole chain.

The number of rounds is bounded by the potential ``(|M|+1)*|S| + |Toks|``
(``M`` the messages).  Every round that changes the abstraction raises it:
a new state of ``S`` adds ``|M|+1`` and drops at most the ``|M|`` tokens of
that state, and a new token adds 1.  Every state counts at most ``|M|+1``,
in ``S`` or by its tokens, so the potential never exceeds ``|Q|*(|M|+1)``
and, starting at ``|M|+1`` from ``({q_in}, {})``, changes the chain at
most ``(|Q|-1)*(|M|+1)`` times.  :func:`iterates` raises
``AbstractionDivergenceError`` past ``|Q|*(|M|+1)`` rounds.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

from .explore import SCOVER, Problem, Verdict
from .model import RECV, Configuration, Protocol, check_configuration


class NotWaitOnlyError(ValueError):
    """Some state both initiates actions and answers receptions.

    ``violations`` lists each offending state with the evidence transitions.
    """

    def __init__(self, protocol: str, violations: tuple) -> None:
        self.violations = violations
        states = ", ".join(v[0] for v in violations)
        super().__init__(f"protocol {protocol} is not wait-only (mixed states: {states})")


class AbstractionDivergenceError(RuntimeError):
    """The abstraction failed to stabilize within the round bound of :func:`iterates`."""


class AbstractSet(namedtuple("AbstractSet", "states tokens")):
    """Abstraction ``(S, Toks)`` of a set of reachable configurations."""

    __slots__ = ()

    def __new__(cls, states: frozenset[str], tokens: frozenset[tuple[str, str]]) -> AbstractSet:
        overlap = states & {q for q, _ in tokens}
        if overlap:
            raise ValueError(f"token states may not be unbounded states: {sorted(overlap)}")
        return tuple.__new__(cls, (states, tokens))

    @property
    def token_states(self) -> frozenset[str]:
        return frozenset(q for q, _ in self.tokens)


def partition(p: Protocol) -> None:
    """Check that ``p`` is wait-only: raise ``NotWaitOnlyError`` on mixed states.

    A state with an outgoing reception is waiting; everything else
    (including transition-less states) is active.  A waiting state that
    also initiates (a send or an internal move) is mixed, and so is a
    waiting initial state: the initial state must be active.  The error
    lists each mixed state, in name order, with its evidence: its
    initiating transitions, then its receptions, each group in
    ``p.transitions`` order, as ``(src, action text, dst)``.
    """
    # One pass over the transitions, which ``recvs``, ``sends`` and ``taus`` split.
    waiting = {src for src, _m, _dst in p.recvs}
    mixed = {src for src, _m, _dst in p.sends if src in waiting}
    mixed.update([src for src, _dst in p.taus if src in waiting])
    if p.init in waiting:
        mixed.add(p.init)
    if mixed:
        evidence: dict[str, tuple[list, list]] = {q: ([], []) for q in sorted(mixed)}
        for src, act, dst in p.transitions:
            if src in evidence:
                evidence[src][act.kind == RECV].append((src, str(act), dst))
        raise NotWaitOnlyError(p.name, tuple(
            (q, tuple(initiating + receptions)) for q, (initiating, receptions) in evidence.items()
        ))


def conflict_free(gamma: AbstractSet, p: Protocol, q1: str, q2: str) -> bool:
    """Can one process sit in ``q1`` and one in ``q2`` at the same time?

    True when some pair of tokens ``(q1, m1)``, ``(q2, m2)`` with distinct
    messages admits a placement order: the request that fills the later
    state must not be receivable by the occupant of the earlier one.
    """
    if q1 == q2:
        raise ValueError("conflict-freedom is about two distinct states")
    toks1 = [m for q, m in gamma.tokens if q == q1]
    toks2 = [m for q, m in gamma.tokens if q == q2]
    if not toks1 or not toks2:
        raise ValueError(f"{q1!r} and {q2!r} must both carry tokens")
    rec1, rec2 = p.receptions[q1], p.receptions[q2]
    for m1 in toks1:
        for m2 in toks2:
            if m1 != m2 and (m1 not in rec2 or m2 not in rec1):
                return True
    return False


def admits(gamma: AbstractSet, c: Configuration, p: Protocol) -> bool:
    """Membership of a configuration in the concretization of ``gamma``.

    Every populated state must be unbounded, or be a token state hosting
    exactly one process and pairwise conflict-free with every other
    populated token state.
    """
    check_configuration(p, c)
    return _admitted(gamma, c, p)


def _admitted(gamma: AbstractSet, c: Configuration, p: Protocol) -> bool:
    """:func:`admits`, for a configuration already checked against ``p``."""
    token_states = gamma.token_states
    singles: list[str] = []
    for q, n in c.items:
        if q in gamma.states:
            continue
        if q in token_states and n == 1:
            singles.append(q)
        else:
            return False
    for i, q1 in enumerate(singles):
        for q2 in singles[i + 1:]:
            if not conflict_free(gamma, p, q1, q2):
                return False
    return True


def _pumpable(p: Protocol, q: str, m: str, toks: frozenset[tuple[str, str]]) -> bool:
    """Can a second process enter token state ``q`` by request ``m``, its occupant staying?

    The request ``m`` must be absorbed by the occupant of another token
    state ``(q2, m2)`` through a reception ``q2 ?m d``; refilling ``q2``
    requests ``m2`` in turn.  That refill is safe when the landed process
    absorbs it (``(d, m2)`` is a token), or when ``d`` ignores it and ``q``
    does too; when only ``q`` answers ``m2``, ``m2`` must be absorbed the
    same way.  If ``d`` answers ``m2`` but ``(d, m2)`` is not tracked yet,
    the absorber does not count in this round.
    """
    receptions = p.receptions
    rec_q = receptions[q]
    wants, seen = [m], {m}
    while wants:
        want = wants.pop()
        for q2, m2 in toks:
            if q2 == q:
                continue
            for d in receptions[q2].get(want, ()):
                if (d, m2) in toks:
                    return True
                if m2 in receptions[d]:
                    continue
                if m2 not in rec_q:
                    return True
                if m2 not in seen:
                    seen.add(m2)
                    wants.append(m2)
    return False


def abstract_post(gamma: AbstractSet, p: Protocol) -> AbstractSet:
    """One application of the abstract post operator.

    First a growth pass extends ``(S, Toks)`` with everything one concrete
    step can populate.  Then one rule promotes: a token state ``q`` moves to
    ``S`` when some token ``(q, m)`` is :func:`_pumpable` against the tokens
    still live, and its tokens are dropped.  The promotion pass walks the
    tokens in sorted order, and a promoted state no longer absorbs for the
    rest of the round: in ``p2.rvp``, ``p1`` and ``p2`` (equal up to
    swapping ``m1`` and ``m2``) each need the other as an absorber, so
    round 1 promotes only ``p1`` and ``p2`` follows in a later round.
    """
    S = gamma.states
    toks = gamma.tokens
    s2 = set(S)
    t2 = set(toks)
    receptions = p.receptions
    receivers_of = p.receivers_of

    for src, dst in p.taus:
        if src in S:
            s2.add(dst)

    # The messages sendable from ``S``, gathered in the same pass.
    sendable: set[str] = set()
    for src, m, dst in p.sends:
        if src not in S:
            continue
        sendable.add(m)
        if m not in receptions[dst] or not S.isdisjoint(receivers_of[m]):
            s2.add(dst)
        else:
            t2.add((dst, m))

    tok_msgs: dict[str, list[str]] = {}
    for q, tok_m in toks:
        tok_msgs.setdefault(q, []).append(tok_m)
    for src, m, dst in p.recvs:
        if m not in sendable:
            continue
        if src in S or (src, m) in toks:
            s2.add(dst)
        rec_dst = receptions[dst]
        for tok_m in tok_msgs.get(src, ()):
            if tok_m != m:
                if tok_m not in rec_dst:
                    s2.add(dst)
                else:
                    t2.add((dst, tok_m))

    s3 = set(s2)
    live = frozenset(t2)
    for q, m in sorted(t2):
        if q not in s3 and _pumpable(p, q, m, live):
            s3.add(q)
            live = frozenset(t for t in live if t[0] != q)

    return AbstractSet(
        states=frozenset(s3),
        tokens=frozenset((q, m) for q, m in t2 if q not in s3),
    )


def iterates(p: Protocol) -> Iterator[AbstractSet]:
    """The abstract iterates from ``({q_in}, {})``, the stable one last.

    Checks first that ``p`` is wait-only (:func:`partition`).  Each
    iterate is :func:`abstract_post` of the one before, and the chain ends
    with the first iterate that a round leaves unchanged.  Raises
    ``AbstractionDivergenceError`` past ``|Q| * (|messages| + 1)`` rounds,
    which the potential argument of the module docstring rules out.
    """
    partition(p)
    bound = len(p.states) * (len(p.messages) + 1)
    cur = AbstractSet(frozenset({p.init}), frozenset())
    yield cur
    for _ in range(bound + 1):
        nxt = abstract_post(cur, p)
        if nxt == cur:
            return
        yield nxt
        cur = nxt
    raise AbstractionDivergenceError(
        f"no fixpoint within {bound} iterations on {p.name}"
    )


def fixpoint(p: Protocol) -> tuple[AbstractSet, list[AbstractSet]]:
    """The stable abstraction and the full chain of :func:`iterates`."""
    trace = list(iterates(p))
    return trace[-1], trace


def decide_cover(p: Protocol, target: Configuration) -> Verdict:
    """Exact configuration-coverability verdict for a wait-only protocol.

    YES at the first iterate that admits ``target`` (a later one admits it
    too, see the module docstring), NO when the chain ends without one.
    """
    check_configuration(p, target)
    for gamma in iterates(p):
        if _admitted(gamma, target, p):
            return Verdict("yes")
    return Verdict("no")


def decide_state_cover(p: Protocol) -> Verdict:
    """Exact state-coverability verdict: :func:`decide_cover` of ``Problem.cover``."""
    return decide_cover(p, Problem(SCOVER).cover(p))
