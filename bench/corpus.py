"""Seeded query corpora for the three workloads.

A corpus is a fixed list of queries, each one ``nbrv`` command line plus
what the checker needs to judge its output.  Random inputs are drawn from
``random.Random(seed)`` and written by the benchmark itself.  They are
admitted into quotas keyed by query kind, by the reference answer and by
the reference's work, so that every seed gives the same mix of answers and
nearly the same amount of work.  Admission looks only at the benchmark's
own inputs and its reference semantics, never at nbrv's output, so the
parent and the changed program always see the same corpus for one seed.

Inputs that are nbrv outputs (``cm2p``/``minsky2p`` protocols) come from
fixed machines, and so do the queries whose answer the reference cannot
pin down before nbrv has run.  The rotation family is fixed as well: its
false NOs are counted failures, and their number must not depend on the
seed.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import reference as ref

WORKLOADS = ("population-sweep", "wait-only", "counter-machines")

# Searched as a protocol by the explorer, with the default step budget lowered
# so that the sweep runs out of budget at population 13.
BUDGET_EXIT = ["check", "ccover", "protocols/fig1.rvp", "--target", "q4",
               "--max-procs", "30", "--max-steps", "300"]

# The wait-only protocol on which the abstract engine answers a false NO for
# p2:2 (a 4-process run covers it).
ROT = """protocol rot
states p0 p1 p2 pf qin
init qin
final pf
messages m0 m1 m2
trans qin !m0 p0
trans qin !m1 p1
trans qin !m2 p2
trans p0 ?m0 pf
trans p0 ?m1 pf
trans p0 ?m2 pf
trans p1 ?m0 pf
trans p1 ?m1 pf
trans p2 ?m0 pf
trans p2 ?m2 pf
"""

# Small machines shared by the fixed families.  RESTORE_* are test-free
# restore machines for cm2p, NB is a test-free machine with a non-blocking
# decrement, MINSKY_* are two-counter machines for minsky2p (the first halts
# with empty counters, the second strands a counter unit).
NB = """machine nb
locations l0 l1 l2
init l0
counters x y
restore off
trans l0 inc x l1
trans l1 dec x l2
trans l1 nbdec y l0
"""
NB2 = """machine nb2
locations a b c d
init a
counters x y
restore off
trans a inc x b
trans b inc y a
trans b dec x c
trans c nbdec x d
trans c dec y d
"""
RESTORE_1 = """machine r1
locations l0 l1 l2
init l0
counters x
restore on
trans l0 inc x l1
trans l1 inc x l0
trans l1 dec x l2
"""
RESTORE_2 = """machine r2
locations l0 l1 l2 l3
init l0
counters x y
restore on
trans l0 inc x l1
trans l1 inc y l2
trans l2 dec x l3
trans l1 nbdec y l0
"""
MINSKY_1 = """machine mk1
locations l0 l1 lf
init l0
counters x1 x2
restore off
trans l0 inc x1 l1
trans l1 dec x1 lf
"""
MINSKY_2 = """machine mk2
locations l0 l1 lf
init l0
counters x1 x2
restore off
trans l0 inc x1 l1
trans l1 zero? x2 lf
"""


def protocol_text(name, states, init, final, messages, transitions) -> str:
    lines = [f"protocol {name}", "states " + " ".join(states), f"init {init}",
             f"final {final}", ("messages " + " ".join(messages)).rstrip()]
    lines += [f"trans {s} {a} {d}" for s, a, d in sorted(transitions)]
    return "\n".join(lines) + "\n"


def machine_text(name, locations, init, counters, restore, transitions) -> str:
    lines = [f"machine {name}", "locations " + " ".join(locations), f"init {init}",
             ("counters " + " ".join(counters)).rstrip(),
             f"restore {'on' if restore else 'off'}"]
    lines += [f"trans {s} {op} {d}" for s, op, d in sorted(transitions)]
    return "\n".join(lines) + "\n"


def random_general(rng: random.Random, name: str, states: tuple[int, int] = (5, 8)) -> str:
    """A protocol in which every state has one to three moves of any kind."""
    nq, nm = rng.randint(*states), rng.randint(2, 3)
    states = [f"s{i}" for i in range(nq)]
    msgs = [f"m{i}" for i in range(nm)]
    trans = set()
    for q in states:
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            act = "tau" if r < 0.15 else ("!" if r < 0.6 else "?") + rng.choice(msgs)
            if q == "s0" and act[0] == "?":
                act = "!" + act[1:]
            trans.add((q, act, rng.choice(states)))
    return protocol_text(name, states, "s0", states[-1], msgs, trans)


def random_wait_only(rng: random.Random, name: str, nq: int, nm: int) -> str:
    """A wait-only protocol with ``nq`` states and ``nm`` messages."""
    states = [f"s{i}" for i in range(nq)]
    msgs = [f"m{i}" for i in range(nm)]
    waiting = {q for q in states[1:] if rng.random() < 0.45}
    trans = set()
    for q in states:
        for _ in range(rng.randint(1, 3)):
            if q in waiting:
                act = "?" + rng.choice(msgs)
            else:
                act = "tau" if rng.random() < 0.25 else "!" + rng.choice(msgs)
            trans.add((q, act, rng.choice(states)))
    return protocol_text(name, states, "s0", states[-1], msgs, trans)


def rotation_shape(rng: random.Random, name: str) -> str:
    """ROADMAP item 1 shape: qin !m_i p_i, and p_i ?m_j pf for random subsets."""
    k = rng.randint(3, 5)
    msgs = [f"m{i}" for i in range(k)]
    trans = {("qin", f"!m{i}", f"p{i}") for i in range(k)}
    for i in range(k):
        answered = [m for m in msgs if rng.random() < 0.6] or [rng.choice(msgs)]
        trans |= {(f"p{i}", "?" + m, "pf") for m in answered}
    states = ["qin", "pf"] + [f"p{i}" for i in range(k)]
    return protocol_text(name, sorted(states), "qin", "pf", msgs, trans)


def random_nb_machine(rng: random.Random, name: str) -> str:
    """A test-free machine with non-blocking decrements over two or three counters."""
    nl = rng.randint(4, 7)
    locs = [f"l{i}" for i in range(nl)]
    counters = ["x", "y", "z"][:rng.randint(2, 3)]
    trans = set()
    for src in locs[:-1]:
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            x = rng.choice(counters)
            op = "nop" if r < 0.1 else (f"inc {x}" if r < 0.55 else
                                        f"dec {x}" if r < 0.8 else f"nbdec {x}")
            trans.add((src, op, rng.choice(locs)))
    return machine_text(name, locs, "l0", counters, False, trans)


class Corpus:
    """Query list under construction; inputs are written into ``workdir``."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.queries: list[dict] = []

    def path(self, name: str) -> str:
        return str((self.workdir / name).relative_to(self.root))

    def write(self, name: str, text: str) -> str:
        (self.workdir / name).write_text(text)
        return self.path(name)

    def add(self, family: str, argv: list[str], kind: str, **fields) -> dict:
        """Append a query; ``fields`` are what the checker needs beyond argv."""
        q = {"id": len(self.queries), "family": family, "argv": argv, "kind": kind, **fields}
        self.queries.append(q)
        return q


class Quotas:
    """Admit candidates until every (key) slot holds its quota."""

    MAX_TRIES = 20000

    def __init__(self, quotas: dict) -> None:
        self.left = dict(quotas)
        self.tries = self.MAX_TRIES

    def want(self, key) -> bool:
        return self.left.get(key, 0) > 0

    def take(self, key) -> None:
        self.left[key] -= 1

    def full(self) -> bool:
        self.tries -= 1
        if self.tries < 0:
            raise RuntimeError(f"corpus quotas not filled: {self.left}")
        return not any(self.left.values())


def _bucket(work: int, buckets: dict[str, tuple[int, int]]) -> str | None:
    for name, (lo, hi) in buckets.items():
        if lo <= work < hi:
            return name
    return None


def compiled(c: Corpus, kind: str, name: str, text: str, target: str) -> str:
    """Write a fixed machine and compile it to a protocol with ``nbrv translate``.

    Corpus set-up, never timed.  Returns the protocol's path.
    """
    from nbrv.cli import main

    machine = c.write(f"{name}.nbm", text)
    out = c.path(f"{name}_{kind}.rvp")
    argv = ["translate", kind, machine, out, "--target-loc", target]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"corpus set-up command failed: {argv}")
    return out


# Reference work (configurations seen) of the random queries.  The random
# queries stay below the fixed heavy ones, so that the 90th percentile falls
# among the fixed queries, and the median in the middle of the "small" ones.
SWEEP_BUCKETS = {"tiny": (1, 10), "small": (10, 40), "mid": (40, 250)}
SWEEP_QUOTAS = {
    ("yes", "tiny"): 20, ("yes", "small"): 14, ("yes", "mid"): 8,
    ("unknown", "tiny"): 14, ("unknown", "small"): 12, ("unknown", "mid"): 8,
    ("reach", "tiny"): 12, ("reach", "small"): 12, ("reach", "mid"): 8,
}
SWEEP_MAX_PROCS = 6


def population_sweep(c: Corpus, rng: random.Random) -> None:
    def check(family, path, problem, target, max_procs, method=None):
        argv = ["check", problem, path, "--max-procs", str(max_procs)]
        argv += ["--target", target] if target else []
        argv += ["--method", method] if method else []
        c.add(family, argv, "check", file=path, problem=problem, target=target,
              max_procs=max_procs)

    def reach(family, path, procs):
        c.add(family, ["explore", "protocol", path, "--procs", str(procs)], "reach",
              file=path, procs=procs)

    # Shipped protocols: exhaustive enumeration at large populations, long
    # UNKNOWN sweeps, and YES answers that rebuild a witness.
    fig1, p1, p2 = (f"protocols/{name}.rvp" for name in ("fig1", "p1", "p2"))
    for path, sizes in ((p1, (8, 9, 10, 11, 12)), (p2, (7, 8, 9, 10)),
                        (fig1, (21, 22, 24, 26))):
        for procs in sizes:
            reach("fixed", path, procs)
    check("fixed", fig1, "ccover", "q4", 14)
    check("fixed", fig1, "synchro", None, 14)
    check("fixed", p1, "synchro", None, 8)
    check("fixed", p2, "synchro", None, 8)
    c.add("fixed", BUDGET_EXIT, "check", file=fig1, problem="ccover", target="q4",
          max_procs=30)
    check("fixed", fig1, "scover", None, 4, "explore")
    check("fixed", fig1, "ccover", "q6:2", 8)
    check("fixed", p1, "ccover", "q7:3", 10, "explore")
    check("fixed", p2, "ccover", "q3:4", 10, "explore")
    # Protocols compiled by nbrv from fixed machines: the cm2p simulation of
    # restore machines, and the minsky2p encoding, whose synchro question is
    # halting with empty counters.
    for i, (text, target) in enumerate(((RESTORE_1, "l2"), (RESTORE_2, "l3"))):
        out = compiled(c, "cm2p", f"r{i}", text, target)
        check("cm2p", out, "scover", None, 6)
        reach("cm2p", out, 7)
    for i, text in enumerate((MINSKY_1, MINSKY_2)):
        check("minsky2p", compiled(c, "minsky2p", f"mk{i}", text, "lf"), "synchro", None, 5)

    quotas = Quotas(SWEEP_QUOTAS)
    limit = SWEEP_BUCKETS["mid"][1]
    k = 0
    while not quotas.full():
        text = random_general(rng, f"g{k}")
        p = ref.Protocol(text)
        if p.is_wait_only():
            continue
        path = None
        problem = rng.choice(["scover", "ccover", "synchro"])
        target = None
        if problem == "ccover":
            picks = rng.sample(p.states, 2)
            target = ",".join(f"{q}:{rng.randint(1, 3)}" for q in sorted(picks))
        goal = p.goal(problem, p.parse_config(target) if target else None)
        n, work = ref.first_population(p, goal, SWEEP_MAX_PROCS, limit)
        key = ("yes" if n else "unknown", _bucket(work, SWEEP_BUCKETS))
        if quotas.want(key):
            quotas.take(key)
            path = c.write(f"g{k}.rvp", text)
            check("random-general", path, problem, target, SWEEP_MAX_PROCS,
                  "explore" if n else None)
        procs = rng.randint(3, 8)
        _hit, count = ref.protocol_search(p, procs, max_seen=limit)
        key = ("reach", _bucket(count, SWEEP_BUCKETS))
        if quotas.want(key):
            quotas.take(key)
            reach("random-general", path or c.write(f"g{k}.rvp", text), procs)
        k += 1


WAIT_ONLY_RANDOM = 24
ROTATION_SEED = 20230710
ROTATION_COUNT = 10


def wait_only(c: Corpus, rng: random.Random) -> None:
    def protocol_queries(family, path, targets):
        c.add(family, ["abstract", path, "--trace"], "abstract", file=path)
        c.add(family, ["check", "scover", path], "exact", file=path,
              problem="scover", target=None)
        for t in targets:
            c.add(family, ["check", "ccover", path, "--target", t], "exact", file=path,
                  problem="ccover", target=t)

    protocol_queries("fixed", "protocols/p1.rvp", ["q7", "q2:2", "q3,q6", "q4,q6"])
    protocol_queries("fixed", "protocols/p2.rvp", ["p4:2", "q3:2", "p1,p2,p3", "q1,q2"])
    rot = c.write("rot.rvp", ROT)
    protocol_queries("fixed", rot, ["p2:2", "p0:2", "pf:2", "p0,p1"])

    fixed_rng = random.Random(ROTATION_SEED)
    for i in range(ROTATION_COUNT):
        text = rotation_shape(fixed_rng, f"rot{i}")
        p = ref.Protocol(text)
        path = c.write(f"rot{i}.rvp", text)
        waiting = [q for q in p.states if q.startswith("p") and q != "pf"]
        protocol_queries("rotation", path, [f"{q}:2" for q in waiting])

    for i, text in enumerate((MINSKY_1, MINSKY_2)):
        protocol_queries("minsky2p", compiled(c, "minsky2p", f"mk{i}", text, "lf"),
                         ["lf", "c1_1:2"])

    # Sizes are spread evenly over 12..30 states and 3..6 messages, the
    # same for every seed; the seed draws the transitions and targets.
    for i in range(WAIT_ONLY_RANDOM):
        text = random_wait_only(rng, f"w{i}", 12 + 18 * i // (WAIT_ONLY_RANDOM - 1), 3 + i % 4)
        p = ref.Protocol(text)
        path = c.write(f"w{i}.rvp", text)
        targets = []
        for _ in range(2):
            picks = rng.sample(p.states[1:], rng.randint(1, 2))
            targets.append(",".join(f"{q}:{rng.randint(1, 2)}" for q in sorted(picks)))
        protocol_queries("random-wait-only", path, targets)


MACHINE_BUCKETS = {"small": (3, 12), "large": (12, 150)}
MACHINE_QUOTAS = {("yes", "small"): 4, ("yes", "large"): 2,
                  ("no", "small"): 3, ("no", "large"): 3}
P2CM_RANDOM = 8


def counter_machines(c: Corpus, rng: random.Random) -> None:
    def machine_and_vas(family, machine, loc, caps, vas_caps, loc_from=None):
        vas = machine.replace(".nbm", ".vas")
        c.add(family, ["translate", "cm2vas", machine, vas, "--target-loc", loc],
              "cm2vas", out=vas, loc_from=loc_from)
        for cap in caps:
            c.add(family, ["explore", "machine", machine, "--loc", loc, "--cap", str(cap)],
                  "explore-machine", file=machine, cap=cap, loc_from=loc_from)
        for cap in vas_caps:
            c.add(family, ["explore", "vas", vas, "--cap", str(cap)], "explore-vas",
                  file=vas, machine=machine, cap=cap)

    # p2cm on the shipped protocols.  The machine's target location is only
    # known from the p2cm query's TARGET line: a ``None`` argument is filled
    # in from the output of the query named by ``loc_from``.
    fixed = "fixed"
    for i, (name, target, vas_caps) in enumerate((
            ("fig1", "q4", (1, 2)), ("fig1", "q3:2", (1, 2)), ("fig1", "q2", (1, 2)),
            ("p1", "q7", (1, 2)), ("p2", "p4", (1,)), ("p1", "q2:2", (2,)))):
        f = f"protocols/{name}.rvp"
        out = c.path(f"f{i}.nbm")
        q = c.add(fixed, ["translate", "p2cm", f, out, "--target", target], "p2cm",
                  out=out, file=f, target=target)
        machine_and_vas(fixed, out, None, (1, 2), vas_caps, loc_from=q["id"])

    for levels in (1, 2, 3):
        for level in range(levels + 1):
            out = c.path(f"rst{levels}{level}.nbm")
            c.add(fixed, ["gen", "rst", out, "--levels", str(levels), "--level", str(level)],
                  "rst", out=out)
    for i, (text, target, levels, caps) in enumerate((
            (NB, "l2", 1, (1, 2)), (NB, "l2", 2, (2,)), (NB2, "d", 1, (2,)))):
        m = c.write(f"shell_in{i}.nbm", text)
        out = c.path(f"shell{i}.nbm")
        c.add(fixed, ["gen", "lipton", m, out, "--levels", str(levels), "--target-loc", target],
              "lipton", out=out)
        for cap in caps:
            c.add(fixed, ["explore", "machine", out, "--loc", target, "--cap", str(cap)],
                  "explore-machine", file=out, cap=cap)
    for kind, name, text, target in (("cm2p", "r0", RESTORE_1, "l2"),
                                     ("cm2p", "r1", RESTORE_2, "l3"),
                                     ("minsky2p", "mk0", MINSKY_1, "lf"),
                                     ("minsky2p", "mk1", MINSKY_2, "lf")):
        m, out = c.write(f"{name}.nbm", text), c.path(f"{name}_{kind}.rvp")
        c.add(fixed, ["translate", kind, m, out, "--target-loc", target], kind, out=out)

    # Seeded test-free machines, searched as machines and as their VAS.
    quotas = Quotas(MACHINE_QUOTAS)
    k = 0
    while not quotas.full():
        text = random_nb_machine(rng, f"nb{k}")
        m = ref.Machine(text)
        loc = sorted(m.locations)[-1]
        cap = rng.randint(2, 4)
        hit, work = ref.machine_cover(m, loc, cap)
        key = ("yes" if hit else "no", _bucket(work, MACHINE_BUCKETS))
        if quotas.want(key):
            quotas.take(key)
            path = c.write(f"nb{k}.nbm", text)
            machine_and_vas("random-machine", path, loc, (cap,), (cap,))
        k += 1

    # Seeded protocols compiled by p2cm; each has a reference witness at a
    # population n <= 2, so the machine covers its target at cap 2.  They
    # have few states, which keeps the machine search below the fixed ones.
    k = 0
    admitted = 0
    while admitted < P2CM_RANDOM:
        text = random_general(rng, f"pc{k}", states=(3, 4))
        p = ref.Protocol(text)
        picks = rng.sample(p.states, 2)
        target = ",".join(sorted(picks))
        n, _work = ref.first_population(p, p.goal("ccover", p.parse_config(target)), 2)
        if n is not None:  # the checker requires YES at cap 2
            f = c.write(f"pc{k}.rvp", text)
            out = c.path(f"pc{k}.nbm")
            q = c.add("random-p2cm", ["translate", "p2cm", f, out, "--target", target],
                      "p2cm", out=out, file=f, target=target)
            c.add("random-p2cm", ["explore", "machine", out, "--loc", None, "--cap", "2"],
                  "explore-machine", file=out, cap=2, loc_from=q["id"])
            admitted += 1
        k += 1


CORPORA = {
    "population-sweep": population_sweep,
    "wait-only": wait_only,
    "counter-machines": counter_machines,
}


def build(workload: str, seed: int, root: Path, workdir: Path) -> list[dict]:
    c = Corpus(root, workdir)
    CORPORA[workload](c, random.Random(f"{workload}:{seed}"))
    return c.queries
