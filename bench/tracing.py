"""Spans around the calls into each nbrv layer, installed from outside.

``Tracer.install`` replaces the module attributes the layers look up
(``explore.successors``, ``waitonly.abstract_post``, ``machines.step_strict``
...) by wrappers that record a span (name, start, end, parent, query id)
and a few work counts taken from the call's result.  Nothing under
``src/`` changes: the wrappers sit in the module dictionaries only while a
traced pass runs.  Spans stay in memory; ``write`` saves them at the end.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute, span name).  ``explore.successors`` is the model's
# successor function as the explorer looks it up.
WRAPPED = [
    ("nbrv.fileio", "parse_protocol", "fileio.parse_protocol"),
    ("nbrv.fileio", "parse_machine", "fileio.parse_machine"),
    ("nbrv.fileio", "parse_vas", "fileio.parse_vas"),
    ("nbrv.fileio", "parse_config", "fileio.parse_config"),
    ("nbrv.fileio", "serialize_protocol", "fileio.serialize_protocol"),
    ("nbrv.fileio", "serialize_machine", "fileio.serialize_machine"),
    ("nbrv.fileio", "serialize_vas", "fileio.serialize_vas"),
    ("nbrv.explore", "successors", "model.successors"),
    ("nbrv.explore", "reachable", "explore.reachable"),
    ("nbrv.explore", "decide_sweep", "explore.decide_sweep"),
    ("nbrv.explore", "decide_fixed", "explore.decide_fixed"),
    ("nbrv.explore", "_rebuild", "explore.rebuild"),
    ("nbrv.waitonly", "partition", "waitonly.partition"),
    ("nbrv.waitonly", "fixpoint", "waitonly.fixpoint"),
    ("nbrv.waitonly", "abstract_post", "waitonly.abstract_post"),
    ("nbrv.waitonly", "admits", "waitonly.admits"),
    ("nbrv.waitonly", "decide_cover", "waitonly.decide_cover"),
    ("nbrv.waitonly", "decide_state_cover", "waitonly.decide_state_cover"),
    ("nbrv.machines", "cover_bounded", "machines.cover_bounded"),
    ("nbrv.machines", "machine_successors", "machines.machine_successors"),
    ("nbrv.machines", "vas_cover_bounded", "machines.vas_cover_bounded"),
    ("nbrv.machines", "step_strict", "machines.step_strict"),
    ("nbrv.reductions", "protocol_to_machine", "reductions.p2cm"),
    ("nbrv.reductions", "machine_to_vas", "reductions.cm2vas"),
    ("nbrv.reductions", "machine_to_protocol", "reductions.cm2p"),
    ("nbrv.reductions", "minsky_to_protocol", "reductions.minsky2p"),
    ("nbrv.gadgets", "restore_shell", "gadgets.shell"),
    ("nbrv.gadgets", "reset_level", "gadgets.rst"),
]

SEARCHES = ("explore.reachable", "explore.decide_fixed")


class Tracer:
    """Span recorder for one workload process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.stack: list[int] = []
        self.query = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: list[set] = []
        self.saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, args, kwargs):
        spans = self.spans
        index = len(spans)
        spans.append(None)  # type: ignore[arg-type]
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            spans[index] = (name, start, end, parent, self.query)

    def _wrap(self, name: str, fn):
        count = self._counter(name)
        searched = name in SEARCHES

        def wrapper(*args, **kwargs):
            if searched:
                self.seen.append(set())
            try:
                result = self.span(name, fn, args, kwargs)
            finally:
                if searched:
                    self.counts["explore.new"] += len(self.seen.pop())
            if count is not None:
                count(result)
            return result

        return wrapper

    def _counter(self, name: str):
        """The function that takes work counts from a call's result, if any."""
        c = self.counts

        def add(key: str, n: float) -> None:
            c[key] += n

        def successors(result):
            add("model.successors_out", len(result))
            if self.seen:
                self.seen[-1].update(cfg for _label, cfg in result)

        def visited(prefix):
            def count(verdict):
                add(prefix + "visited", verdict.stats.get("visited", 0))
                add(prefix + "pruned", verdict.stats.get("pruned", 0))
            return count

        def report(result):
            add("reductions.target_size", result[-1].target_size)

        return {
            "model.successors": successors,
            "explore.rebuild": lambda w: add("explore.witness_steps", len(w.steps)),
            "waitonly.fixpoint": lambda r: add("waitonly.abstraction_size",
                                               len(r[0].states) + len(r[0].tokens)),
            "machines.cover_bounded": visited("machines.cover_"),
            "machines.vas_cover_bounded": visited("machines.vas_"),
            "machines.step_strict": lambda v: add("machines.step_yield", v is not None),
            "reductions.p2cm": report,
            "reductions.cm2p": report,
            "reductions.minsky2p": report,
            "reductions.cm2vas": lambda v: add("reductions.target_size",
                                               v.dim + len(v.transitions)),
            "gadgets.shell": lambda m: add("gadgets.shell_locations", len(m.locations)),
        }.get(name)

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self.saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in self.saved:
            setattr(mod, attr, fn)
        self.saved.clear()

    def take(self) -> tuple[list, dict]:
        """Spans and counts recorded since the last call."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def pass_metrics(spans: list, counts: dict, queries: int, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times scaled by ``scale``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _q in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _parent, _q) in enumerate(spans):
        total[name] += (end - start) * scale
        own[name] += (end - start - child[i]) * scale
        calls[name] += 1

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    ms = 1e3
    parses = [k for k in calls if k.startswith("fileio.parse")]
    return {
        "cli.self_ms": own["cli.main"] * ms / queries,
        "fileio.parse_calls": sum(calls[k] for k in parses),
        "fileio.parse_ms": sum(total[k] for k in parses) * ms,
        "fileio.serialize_ms": layer("fileio.serialize", total) * ms,
        "model.successors_calls": calls["model.successors"],
        "model.successors_out": counts.get("model.successors_out", 0),
        "model.successors_per_s": rate(calls["model.successors"], total["model.successors"]),
        "explore.self_ms": layer("explore.", own) * ms,
        "explore.populations": calls["explore.decide_fixed"],
        "explore.new_ratio": rate(counts.get("explore.new", 0),
                                  counts.get("model.successors_out", 0)),
        "explore.witness_steps": counts.get("explore.witness_steps", 0),
        "waitonly.fixpoint_ms": total["waitonly.fixpoint"] * ms,
        "waitonly.post_calls": calls["waitonly.abstract_post"],
        "waitonly.post_us": rate(total["waitonly.abstract_post"],
                                 calls["waitonly.abstract_post"]) * 1e6,
        "waitonly.partition_ms": total["waitonly.partition"] * ms,
        "waitonly.admits_ms": total["waitonly.admits"] * ms,
        "waitonly.abstraction_size": counts.get("waitonly.abstraction_size", 0),
        "machines.cover_visited": counts.get("machines.cover_visited", 0),
        "machines.cover_visited_per_s": rate(counts.get("machines.cover_visited", 0),
                                             total["machines.cover_bounded"]),
        "machines.cover_pruned": counts.get("machines.cover_pruned", 0),
        "machines.vas_visited": counts.get("machines.vas_visited", 0),
        "machines.vas_visited_per_s": rate(counts.get("machines.vas_visited", 0),
                                           total["machines.vas_cover_bounded"]),
        "machines.vas_step_yield": rate(counts.get("machines.step_yield", 0),
                                        calls["machines.step_strict"]),
        "reductions.p2cm_ms": total["reductions.p2cm"] * ms,
        "reductions.cm2vas_ms": total["reductions.cm2vas"] * ms,
        "reductions.cm2p_ms": total["reductions.cm2p"] * ms,
        "reductions.minsky2p_ms": total["reductions.minsky2p"] * ms,
        "reductions.target_size": counts.get("reductions.target_size", 0),
        "gadgets.shell_ms": total["gadgets.shell"] * ms,
        "gadgets.rst_ms": total["gadgets.rst"] * ms,
        "gadgets.shell_locations": counts.get("gadgets.shell_locations", 0),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write(path, spans: list) -> None:
    """Gzipped tab-separated spans: index, name, start, end, parent index, query id."""
    with gzip.open(path, "wt") as f:
        for i, (name, start, end, parent, query) in enumerate(spans):
            f.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\n")
