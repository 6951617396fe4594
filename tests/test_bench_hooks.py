"""The benchmark's traced run wraps nbrv's module attributes from outside.

These tests load ``bench/tracing.py`` by path and check that every hook it
names still exists, and that the searches still look their successor
functions up through those module globals, so that a refactor cannot
silently empty the per-layer metrics.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from helpers import initial
from nbrv import explore, machines, model, reductions
from nbrv.explore import Problem
from nbrv.model import Configuration

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_attributes_are_callable():
    tracing = load_tracing()
    assert tracing.WRAPPED
    for module, attr, _name in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_searches_reach_the_wrapped_globals(p1):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        explore.reachable(p1, 3)
        assert explore.decide_fixed(p1, Problem("scover"), 3).is_yes()
        m, loc, _report = reductions.protocol_to_machine(p1, Configuration((("q1", 1),)))
        assert machines.cover_bounded(m, loc, 1).is_yes()
        machines.vas_cover_bounded(reductions.machine_to_vas(m, loc), 1)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for name in ("model.successors", "explore.rebuild", "machines.machine_successors",
                 "machines.step_strict"):
        assert name in names, name


def test_machine_witness_reaches_the_wrapped_rebuild(p1):
    m, loc, _report = reductions.protocol_to_machine(p1, Configuration((("q1", 1),)))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert machines.cover_bounded(m, loc, 1).is_yes()
    finally:
        tracer.uninstall()
    assert "explore.rebuild" in {span[0] for span in tracer.spans}


def test_traced_yes_records_both_passes(fig1, monkeypatch):
    # A YES population is searched twice: level by level on the frontier
    # images, then in label order on the moves of each node.  A wrapper on
    # ``explore.image`` sees the first pass, and the traced
    # ``explore.successors`` the second and the witness rebuild.
    prob = Problem("scover")
    t = fig1.moves(2)
    start, goal = t.encode(initial(fig1, 2)), prob.goal(fig1, t, 2)
    levels, seen, frontier = [], {start}, {start}
    while not any(map(goal, frontier)):
        levels.append(frontier)
        frontier = model.dense_image(t, frontier) - seen
        seen |= frontier
    ordered = []
    explore.search(start, lambda v: ordered.append(v) or model.dense_successors(t, v),
                   budget=100, overflow="budget", goal=goal)
    untraced = explore.decide_fixed(fig1, prob, 2)

    images = []
    image = explore.image
    monkeypatch.setattr(explore, "image", lambda t, f: images.append(set(f)) or image(t, f))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traced = explore.decide_fixed(fig1, prob, 2)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    fixed, rebuild = names.index("explore.decide_fixed"), names.index("explore.rebuild")
    searched = [s for s in tracer.spans if s[0] == "model.successors" and s[3] == fixed]
    rebuilt = [s for s in tracer.spans if s[0] == "model.successors" and s[3] == rebuild]
    assert images == levels and len(levels) > 0
    assert len(searched) == len(ordered) > 0
    assert len(rebuilt) == len(traced.witness.steps) > 0
    assert traced == untraced
