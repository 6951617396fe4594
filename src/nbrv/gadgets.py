"""Generators for nested counter-bounding machines.

These procedural machines manipulate ``levels`` families of scratch
counters; level ``i`` works with the bound 2^(2^i).  The building blocks:

* ``zero_test_swap``: branches on whether a dual counter is zero, swapping the
  pair when it is (the level-0 gadget decrements twice; higher levels count
  to the bound with a double loop controlled by the level below);
* ``init_level``: raises all dual counters of a level to the level bound;
* ``reset_level``: clamps a level's counters to zero with non-blocking
  decrements, again driven by the level below;
* ``reset_chain``: alternates resets and initializations bottom-up so that,
  whatever bounded state the counters were in, everything is clean again;
* ``restore_shell``: wraps a test-free machine so that every restore jump
  passes through the reset chain, making restarts harmless.

Internals are not meant to be minimal: each builder only promises its
entry/exit contract (unique exit valuation from every admissible entry,
intermediate values staying within the per-level bounds).

The description of a gadget roughly doubles with each level: a double loop
controlled by level ``i`` inlines two test-and-swap blocks of that level,
and each of them inlines its own loop controlled by level ``i - 1``.
In a context of ``L`` levels, ``reset_level`` of level ``L - 1`` has 13,
27, 63, 135 and 279 locations for ``L`` = 1..5, and does not finish at
``L`` = 30.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .machines import (
    DEC,
    INC,
    NBDEC,
    NOP,
    CounterMachine,
    CounterOp,
    MachineError,
    MachineTransition,
)
from .reductions import _Names


class LevelError(ValueError):
    """Requested level outside the configured range."""


class LevelContext(NamedTuple):
    """Scratch counter families for ``levels`` nesting levels plus the payload counters."""

    levels: int
    machine_counters: tuple[str, ...]
    families: tuple[tuple[tuple[str, str, str], tuple[str, str, str]], ...]

    @classmethod
    def create(cls, levels: int, machine_counters: tuple[str, ...] = ()) -> "LevelContext":
        if levels < 1:
            raise LevelError("need at least one level")
        names = _Names(machine_counters)
        families = []
        for i in range(levels):
            low = tuple(names.fresh(f"{c}_{i}") for c in ("y", "z", "s"))
            dual = tuple(names.fresh(f"{c}bar_{i}") for c in ("y", "z", "s"))
            families.append((low, dual))
        return cls(levels, tuple(machine_counters), tuple(families))

    def low(self, i: int) -> tuple[str, ...]:
        """The work counters of level ``i`` (the payload counters at the top)."""
        if i == self.levels:
            return tuple(sorted(self.machine_counters))
        return self.families[self._check(i)][0]

    def dual(self, i: int) -> tuple[str, ...]:
        """The dual counters of level ``i``; empty at the top level."""
        if i == self.levels:
            return ()
        return self.families[self._check(i)][1]

    def pair(self, i: int, dual_counter: str) -> str:
        """The work counter matching a dual counter of level ``i``."""
        idx = self.dual(i).index(dual_counter)
        return self.low(i)[idx]

    def bound(self, i: int) -> int:
        return 2 ** (2 ** i)

    def all_counters(self) -> tuple[str, ...]:
        out: list[str] = []
        for low, dual in self.families:
            out.extend(low)
            out.extend(dual)
        out.extend(sorted(self.machine_counters))
        return tuple(out)

    def _check(self, i: int) -> int:
        if not 0 <= i < self.levels:
            raise LevelError(f"level {i} outside 0..{self.levels - 1}")
        return i


class ProceduralMachine(CounterMachine):
    """A machine fragment entered at ``init`` and left at its exits ``outs``.

    No exit has an outgoing transition, and the fragment has no restore jumps.
    """

    def __init__(
        self,
        name: str,
        locations: Iterable[str],
        counters: Iterable[str],
        transitions: Iterable[MachineTransition],
        entry: str,
        outs: Iterable[str],
    ) -> None:
        super().__init__(name, locations, counters, entry, transitions)
        self.outs: tuple[str, ...] = tuple(outs)
        if not set(self.outs) <= self.loc_index.keys():
            raise MachineError("outs must be declared locations")
        for src, _op, _dst in self.transitions:
            if src in self.outs:
                raise MachineError(f"output location {src!r} has outgoing transitions")


class _Builder:
    """Accumulates locations and transitions under unique prefixed names."""

    def __init__(self, ctx: LevelContext) -> None:
        self.ctx = ctx
        self.locations: list[str] = []
        self._names: set[str] = set()
        self.transitions: list[MachineTransition] = []

    def loc(self, name: str) -> str:
        if name in self._names:
            raise MachineError(f"duplicate location {name!r}")
        self._names.add(name)
        self.locations.append(name)
        return name

    def edge(self, src: str, op: CounterOp, dst: str) -> None:
        self.transitions.append((src, op, dst))

    def chain(self, prefix: str, start: str, ops: list[CounterOp], end: str) -> None:
        """A straight line of operations from ``start`` to ``end``."""
        cur = start
        for i, op in enumerate(ops):
            nxt = end if i == len(ops) - 1 else self.loc(f"{prefix}c{i}")
            self.edge(cur, op, nxt)
            cur = nxt
        if not ops:
            self.edge(start, CounterOp(NOP), end)

    def machine(self, name: str, entry: str, outs: tuple[str, ...]) -> ProceduralMachine:
        """The fragment built so far, entered at ``entry`` and left at ``outs``."""
        return ProceduralMachine(name, self.locations, self.ctx.all_counters(),
                                 self.transitions, entry, outs)


def _emit_test_swap(b: _Builder, level: int, dual_counter: str, prefix: str) -> tuple[str, str, str]:
    """Emit a test-and-swap block; returns (entry, zero_exit, nonzero_exit)."""
    ctx = b.ctx
    if dual_counter not in ctx.dual(level):
        raise LevelError(f"{dual_counter!r} is not a dual counter of level {level}")
    work = ctx.pair(level, dual_counter)
    entry = b.loc(f"{prefix}in")
    z_exit = b.loc(f"{prefix}z")
    nz_exit = b.loc(f"{prefix}nz")

    n1 = b.loc(f"{prefix}n1")
    b.edge(entry, CounterOp(DEC, dual_counter), n1)
    b.edge(n1, CounterOp(INC, dual_counter), nz_exit)

    if level == 0:
        # Bound is 2: drain the work counter, then refill its dual.
        d1 = b.loc(f"{prefix}d1")
        d2 = b.loc(f"{prefix}d2")
        i1 = b.loc(f"{prefix}i1")
        b.edge(entry, CounterOp(DEC, work), d1)
        b.edge(d1, CounterOp(DEC, work), d2)
        b.edge(d2, CounterOp(INC, dual_counter), i1)
        b.edge(i1, CounterOp(INC, dual_counter), z_exit)
    else:
        body = [CounterOp(DEC, work), CounterOp(INC, dual_counter)]
        head = _emit_loop(b, level - 1, prefix, z_exit, body)
        # The loop re-enters at its own head, so the nonzero branch can only
        # be taken on the first visit of the entry, before any swap step.
        b.edge(entry, CounterOp(NOP), head)
    return entry, z_exit, nz_exit


def _emit_loop(
    b: _Builder,
    control: int,
    prefix: str,
    out: str,
    body: list[CounterOp],
) -> str:
    """Emit the double loop that runs ``body`` bound(control)^2 times.

    The loop transfers the control level's ``ybar``/``zbar`` pair into
    ``y``/``z``, interleaving the body, and uses two nested test-and-swap
    blocks to detect completion and restore the control counters.  Returns
    the loop head, which is also the re-entry point of the outer round.
    """
    ctx = b.ctx
    y, z, _s = ctx.low(control)
    ybar, zbar, _sbar = ctx.dual(control)

    head = b.loc(f"{prefix}a0")
    a1 = b.loc(f"{prefix}a1")
    a2 = b.loc(f"{prefix}a2")
    a3 = b.loc(f"{prefix}a3")
    a4 = b.loc(f"{prefix}a4")
    bodyend = b.loc(f"{prefix}a5")
    b.edge(head, CounterOp(DEC, ybar), a1)
    b.edge(a1, CounterOp(INC, y), a2)
    b.edge(a2, CounterOp(DEC, zbar), a3)
    b.edge(a3, CounterOp(INC, z), a4)
    b.chain(f"{prefix}b", a4, body, bodyend)

    tsz_in, tsz_z, tsz_nz = _emit_test_swap(b, control, zbar, f"{prefix}tz_")
    tsy_in, tsy_z, tsy_nz = _emit_test_swap(b, control, ybar, f"{prefix}ty_")
    b.edge(bodyend, CounterOp(NOP), tsz_in)
    b.edge(tsz_z, CounterOp(NOP), tsy_in)
    b.edge(tsz_nz, CounterOp(NOP), a2)
    b.edge(tsy_z, CounterOp(NOP), out)
    b.edge(tsy_nz, CounterOp(NOP), head)
    return head


def zero_test_swap(ctx: LevelContext, level: int, dual_counter: str) -> ProceduralMachine:
    """Zero-test a dual counter of ``level``; swap the pair when it is zero.

    Entering with the pair summing to the level bound and the levels below
    initialized, exactly one exit is reachable: the zero exit (values
    swapped) when the dual counter is zero, the nonzero exit (values kept)
    otherwise.  No other counter changes.
    """
    b = _Builder(ctx)
    entry, z_exit, nz_exit = _emit_test_swap(b, level, dual_counter, "ts_")
    return b.machine(f"test_swap_{level}_{dual_counter}", entry, (z_exit, nz_exit))


def _emit_pass(b: _Builder, level: int, prefix: str, first: list[CounterOp],
               body: list[CounterOp]) -> tuple[str, str]:
    """Emit one pass over ``level``; returns (entry, exit).

    At level 0 the pass is the straight chain ``first``; above it, ``body``
    runs inside the loop controlled by the level below.
    """
    entry = b.loc(f"{prefix}in")
    out = b.loc(f"{prefix}out")
    if level == 0:
        b.chain(f"{prefix}k", entry, first, out)
    else:
        head = _emit_loop(b, level - 1, prefix, out, body)
        b.edge(entry, CounterOp(NOP), head)
    return entry, out


def _emit_init(b: _Builder, level: int, prefix: str) -> tuple[str, str]:
    duals = b.ctx.dual(level)
    first = [CounterOp(INC, x) for x in duals for _ in range(2)]
    return _emit_pass(b, level, prefix, first, [CounterOp(INC, x) for x in duals])


def init_level(ctx: LevelContext, level: int) -> ProceduralMachine:
    """Raise every dual counter of ``level`` from zero to the level bound."""
    ctx._check(level)
    b = _Builder(ctx)
    entry, out = _emit_init(b, level, "ic_")
    return b.machine(f"init_level_{level}", entry, (out,))


def _emit_reset(b: _Builder, level: int, prefix: str) -> tuple[str, str]:
    lows, duals = b.ctx.low(level), b.ctx.dual(level)
    first = [CounterOp(NBDEC, x) for pair in zip(lows, duals) for x in pair for _ in range(2)]
    return _emit_pass(b, level, prefix, first, [CounterOp(NBDEC, x) for x in lows + duals])


def reset_level(ctx: LevelContext, level: int) -> ProceduralMachine:
    """Clamp every counter of ``level`` down by the level bound (to zero when bounded)."""
    if not 0 <= level <= ctx.levels:
        raise LevelError(f"level {level} outside 0..{ctx.levels}")
    b = _Builder(ctx)
    entry, out = _emit_reset(b, level, "rs_")
    return b.machine(f"reset_level_{level}", entry, (out,))


def reset_chain(ctx: LevelContext) -> ProceduralMachine:
    """Reset level 0, initialize it, reset level 1, ... up to the top level.

    From any entry valuation bounded levelwise, exits with every dual
    counter at its level bound, every work counter at zero, and the payload
    counters at zero.
    """
    b = _Builder(ctx)
    entry = b.loc("ri_in")
    out = b.loc("ri_out")
    cur = entry
    for i in range(ctx.levels):
        r_in, r_out = _emit_reset(b, i, f"ri_r{i}_")
        b.edge(cur, CounterOp(NOP), r_in)
        i_in, i_out = _emit_init(b, i, f"ri_i{i}_")
        b.edge(r_out, CounterOp(NOP), i_in)
        cur = i_out
    r_in, r_out = _emit_reset(b, ctx.levels, f"ri_r{ctx.levels}_")
    b.edge(cur, CounterOp(NOP), r_in)
    b.edge(r_out, CounterOp(NOP), out)
    return b.machine("reset_chain", entry, (out,))


def restore_shell(m: CounterMachine, levels: int, target_loc: str) -> CounterMachine:
    """Wrap a test-free machine so that restore jumps cannot corrupt a run.

    The produced machine has restore jumps from everywhere to a fresh
    initial location that funnels through :func:`reset_chain`, so each
    (re)start sees clean counters; the target location is coverable in the
    wrapped machine iff it is in the original.
    """
    if not m.is_test_free:
        raise MachineError(f"{m.name} has zero tests")
    # The context refuses ``levels < 1`` before the target is looked up.
    ctx = LevelContext.create(levels, m.counters)
    m.target(target_loc)
    chain = reset_chain(ctx)
    names = _Names(m.locations)
    renamed = {loc: names.fresh("sh_" + loc) for loc in chain.locations}
    entry = names.fresh("sh_start")

    locations = [entry] + list(renamed.values()) + list(m.locations)
    transitions: list[MachineTransition] = [
        (entry, CounterOp(NOP), renamed[chain.init]),
        (renamed[chain.outs[0]], CounterOp(NOP), m.init),
    ]
    transitions += [(renamed[s], op, renamed[d]) for s, op, d in chain.transitions]
    transitions += m.transitions

    return CounterMachine(
        name=f"{m.name}_shell",
        locations=locations,
        counters=ctx.all_counters(),
        init=entry,
        transitions=transitions,
        restore=True,
    )

