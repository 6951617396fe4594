"""Output checks: every query's output is judged against the reference.

``judge`` returns, for each query, whether its output passed, why not, and
whether it counts as decided (YES, or a NO that is exact).  Nothing is
compared against saved copies of earlier output; the checks are properties
the answer must have under the reference semantics of ``reference.py``.
"""

from __future__ import annotations

from pathlib import Path

import reference as ref

# Populations the reference enumerates to confirm an abstract YES or refute
# an abstract NO, and the configurations it may visit per protocol doing so.
ABSTRACT_MAX_N = 5
ABSTRACT_NODE_CAP = 20000


class Checker:
    def __init__(self, root: Path, queries: list[dict], outputs: list[dict]) -> None:
        self.root = root
        self.queries = queries
        self.outputs = outputs
        self.protocols: dict[str, ref.Protocol] = {}
        self.reach_sets: dict[str, list[set]] = {}
        self.unconfirmed: list[int] = []
        self.answers: dict[int, str] = {}
        self.fixpoints: dict[str, tuple[set[str], set[str]]] = {}

    def text(self, path: str) -> str:
        return (self.root / path).read_text()

    def protocol(self, path: str) -> ref.Protocol:
        if path not in self.protocols:
            self.protocols[path] = ref.Protocol(self.text(path))
        return self.protocols[path]

    def judge(self) -> list[dict]:
        verdicts = []
        for q, out in zip(self.queries, self.outputs):
            lines = out["stdout"].splitlines()
            if out["code"] != 0:
                why = f"exit {out['code']}: {out['stderr'].strip()[-200:]}"
                verdicts.append({"ok": False, "why": why, "decided": False})
                continue
            try:
                why, decided = getattr(self, "check_" + q["kind"].replace("-", "_"))(
                    q, out["argv"], lines)
            except (ValueError, KeyError, IndexError) as exc:
                why, decided = f"unreadable output: {type(exc).__name__}: {exc}", False
            verdicts.append({"ok": why is None, "why": why, "decided": decided and why is None})
        return verdicts

    # -- protocols -----------------------------------------------------------

    @staticmethod
    def _answer(lines: list[str]) -> str:
        head = lines[0].split()
        if head[0] != "RESULT" or head[1] not in ("YES", "NO", "UNKNOWN"):
            raise ValueError(f"first line is {lines[0]!r}")
        return head[1]

    @staticmethod
    def _steps(lines: list[str]) -> list[list[str]]:
        steps = []
        for line in lines[1:]:
            toks = line.split()
            if toks[0] != "STEP":
                raise ValueError(f"unexpected line {line!r}")
            steps.append(toks[1:])
        return steps

    def _goal(self, q: dict):
        p = self.protocol(q["file"])
        target = p.parse_config(q["target"]) if q["target"] else None
        return p, p.goal(q["problem"], target)

    def check_check(self, q, argv, lines):
        """Explorer sweeps: a YES replays, an UNKNOWN or NO has no witness."""
        answer = self._answer(lines)
        p, goal = self._goal(q)
        if answer == "YES":
            steps = [(label, literal) for label, literal in self._steps(lines)]
            if not steps:
                if not any(goal(p.initial(n)) for n in range(1, q["max_procs"] + 1)):
                    return "YES without steps, but no initial configuration answers", False
                return None, True
            n = sum(p.parse_config(steps[0][1]))
            if n > q["max_procs"]:
                return f"witness uses {n} processes, above --max-procs", False
            return ref.replay_protocol(p, steps, goal), True
        n, _work = ref.first_population(p, goal, q["max_procs"])
        if n is not None:
            return f"{answer}, but the reference finds a witness at population {n}", False
        return None, answer == "NO"

    def check_reach(self, q, argv, lines):
        head = lines[0].split()
        if head[0] != "REACHABLE":
            raise ValueError(f"first line is {lines[0]!r}")
        _hit, count = ref.protocol_search(self.protocol(q["file"]), q["procs"])
        if int(head[1]) != count:
            return f"REACHABLE {head[1]}, the reference counts {count}", False
        return None, False

    def _reach(self, path: str) -> list[set]:
        """Reachable sets for n = 1, 2, ... within the node cap."""
        if path not in self.reach_sets:
            p = self.protocol(path)
            sets, total = [], 0
            for n in range(1, ABSTRACT_MAX_N + 1):
                seen = {p.initial(n)}
                frontier = list(seen)
                while frontier and total + len(seen) <= ABSTRACT_NODE_CAP:
                    nxt = []
                    for c in frontier:
                        for _label, d in p.successors(c):
                            if d not in seen:
                                seen.add(d)
                                nxt.append(d)
                    frontier = nxt
                if frontier:
                    break
                sets.append(seen)
                total += len(seen)
            self.reach_sets[path] = sets
        return self.reach_sets[path]

    def check_exact(self, q, argv, lines):
        """Abstract engine: a NO meets no reference witness up to the bound.

        The answer must also agree with the fixpoint that ``abstract`` printed
        for the same protocol: a target state outside S and the token states,
        or a token state wanted twice, rules out YES; a target inside S
        forces it.
        """
        answer = self._answer(lines)
        if answer == "UNKNOWN":
            return "UNKNOWN from an exact engine", False
        p, goal = self._goal(q)
        if q["file"] in self.fixpoints:
            unbounded, tokens = self.fixpoints[q["file"]]
            target = p.parse_config(q["target"]) if q["target"] else None
            wanted = ({p.states[i]: k for i, k in enumerate(target) if k} if target
                      else {p.states[p.final]: 1})
            possible = all(s in unbounded or s in tokens and k == 1 for s, k in wanted.items())
            if answer == "YES" and not possible:
                return "YES, but the printed fixpoint cannot host the target", False
            if answer == "NO" and all(s in unbounded for s in wanted):
                return "NO, but every target state is in the printed fixpoint's S", False
        found = next((n for n, reach in enumerate(self._reach(q["file"]), 1)
                      if any(goal(c) for c in reach)), None)
        if answer == "NO" and found is not None:
            return f"NO, but the reference finds a witness at population {found}", False
        if answer == "YES" and found is None:
            self.unconfirmed.append(q["id"])
        return None, True

    def check_abstract(self, q, argv, lines):
        """``abstract --trace``: starts at ({init}, {}) and S never shrinks."""
        p = self.protocol(q["file"])
        prev = None
        for i, line in enumerate(lines):
            if not (line.startswith("S = {") and "} Toks = {" in line and line.endswith("}")):
                raise ValueError(f"unexpected line {line!r}")
            s_text, toks_text = line[5:-1].split("} Toks = {")
            states = set(s_text.split(",")) if s_text else set()
            tok_states = {t.strip("()").split(",")[0] for t in toks_text.split("),(")
                          if toks_text}
            if not (states | tok_states) <= set(p.states):
                return f"iterate {i} names states outside the protocol", False
            if i == 0 and (states != {p.states[p.init]} or tok_states):
                return "the first iterate is not ({init}, {})", False
            if prev is not None and not prev <= states:
                return f"S shrinks at iterate {i}", False
            prev = states
        self.fixpoints[q["file"]] = (states, tok_states)
        return None, False

    # -- translations and generators --------------------------------------------

    def _roundtrip(self, path: str, kind: str) -> str | None:
        """Written files parse back and re-serialise to the same bytes."""
        from nbrv import fileio

        text = self.text(path)
        parse, serialize = {
            "rvp": (fileio.parse_protocol, fileio.serialize_protocol),
            "nbm": (fileio.parse_machine, fileio.serialize_machine),
            "vas": (fileio.parse_vas, fileio.serialize_vas),
        }[kind]
        if serialize(parse(text)) != text:
            return f"{path} does not re-serialise to the same bytes"
        return None

    @staticmethod
    def _fields(line: str, head: str) -> dict[str, int]:
        toks = line.split()
        if toks[0] != head:
            raise ValueError(f"expected a {head} line, found {line!r}")
        return {k: int(v) for k, v in (t.split("=") for t in toks[1:])}

    def _machine_size(self, q, line) -> str | None:
        m = ref.Machine(self.text(q["out"]))
        size = self._fields(line, "SIZE")
        if size != {"locations": len(m.locations), "counters": len(m.counters)}:
            return f"{line!r} does not match the written machine"
        return self._roundtrip(q["out"], "nbm")

    def check_p2cm(self, q, argv, lines):
        loc = lines[0].split()
        if loc[0] != "TARGET" or loc[1] not in ref.Machine(self.text(q["out"])).locations:
            return f"{lines[0]!r} names no location of the written machine", False
        self._fields(lines[1], "SIZE")
        return self._roundtrip(q["out"], "nbm"), False

    def check_cm2vas(self, q, argv, lines):
        vas = ref.Vas(self.text(q["out"]))
        if self._fields(lines[0], "SIZE") != {"dim": vas.dim, "transitions": len(vas.transitions)}:
            return f"{lines[0]!r} does not match the written VAS", False
        return self._roundtrip(q["out"], "vas"), False

    def check_cm2p(self, q, argv, lines):
        self._fields(lines[0], "SIZE")
        return self._roundtrip(q["out"], "rvp"), False

    def check_minsky2p(self, q, argv, lines):
        self._fields(lines[0], "SIZE")
        if not ref.Protocol(self.text(q["out"])).is_wait_only():
            return "the minsky2p protocol is not wait-only", False
        return self._roundtrip(q["out"], "rvp"), False

    def check_rst(self, q, argv, lines):
        return self._machine_size(q, lines[0]), False

    def check_lipton(self, q, argv, lines):
        if lines[0].split() != ["TARGET", argv[argv.index("--target-loc") + 1]]:
            return f"unexpected {lines[0]!r}", False
        return self._machine_size(q, lines[1]), False

    # -- machine and VAS searches ----------------------------------------------

    def check_explore_machine(self, q, argv, lines):
        """Cap-bounded search: a YES replays, a NO matches the reference.

        For a ``p2cm`` machine, a reference witness of the protocol at a
        population n <= cap also forces a YES.
        """
        answer = self._answer(lines)
        loc = argv[argv.index("--loc") + 1]
        m = ref.Machine(self.text(q["file"]))
        self.answers[q["id"]] = answer
        if answer == "YES":
            steps = [(" ".join(t[:-1]), t[-1]) for t in self._steps(lines)]
            return ref.replay_machine(m, steps, loc), True
        if answer != "NO":
            return f"unexpected {answer}", False
        source = self.queries[q["loc_from"]] if q.get("loc_from") is not None else None
        if source is not None and source["kind"] == "p2cm":
            _p, goal = self._goal({**source, "problem": "ccover"})
            n, _work = ref.first_population(self.protocol(source["file"]), goal, q["cap"])
            if n is not None:
                return f"NO, but the protocol has a witness at population {n} <= cap", False
        hit, _work = ref.machine_cover(m, loc, q["cap"])
        return ("NO, but the reference reaches the location" if hit else None), False

    def check_explore_vas(self, q, argv, lines):
        """Strict-step search; it must agree with the machine it came from."""
        answer = self._answer(lines)
        vas = ref.Vas(self.text(q["file"]))
        if answer == "YES":
            steps = []
            for toks in self._steps(lines):
                cut, arrow = toks.index(";"), toks.index("->")
                steps.append((tuple(map(int, toks[:cut])), tuple(map(int, toks[cut + 1:arrow])),
                              tuple(map(int, toks[arrow + 1:]))))
            why = ref.replay_vas(vas, steps)
        elif answer == "NO":
            hit, _work = ref.vas_cover(vas, q["cap"])
            why = "NO, but the reference covers the target" if hit else None
        else:
            return f"unexpected {answer}", False
        twin = next((other["id"] for other in self.queries
                     if other["kind"] == "explore-machine" and other["file"] == q["machine"]
                     and other["cap"] == q["cap"]), None)
        if why is None and twin is not None and self.answers.get(twin) not in (None, answer):
            why = f"{answer}, but explore machine answers {self.answers[twin]} at the same cap"
        return why, answer == "YES"
