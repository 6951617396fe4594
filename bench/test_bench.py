"""One pass of each workload with every output check, untimed.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest bench/test_bench.py -q

No query may fail except those of the two known faults that the benchmark
counts as failures: the explorer's budget exit on fig1 (population-sweep)
and the abstract engine's false NOs on the ``rot`` protocol (wait-only).
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from nbrv.cli import main as nbrv_main  # noqa: E402

KNOWN_FAILURES = {
    "population-sweep": lambda q: q["argv"] == corpus.BUDGET_EXIT,
    "wait-only": lambda q: q["argv"][2].endswith("/rot.rvp"),
    "counter-machines": lambda q: False,
}

# Layer work each workload must show in a traced pass.
EXERCISED = {
    "population-sweep": ["model.successors_calls", "explore.populations",
                         "explore.witness_steps"],
    "wait-only": ["waitonly.post_calls", "waitonly.abstraction_size", "fileio.parse_calls"],
    "counter-machines": ["machines.cover_visited", "machines.vas_visited",
                         "reductions.target_size", "gadgets.shell_locations"],
}


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_one_pass_checks(workload, workdir, monkeypatch):
    monkeypatch.chdir(ROOT)
    queries = corpus.build(workload, 1, ROOT, workdir)
    assert len(queries) >= 100
    result = worker.run_pass(nbrv_main, queries, None, record=True)
    checker = checks.Checker(ROOT, queries, result["outputs"])
    verdicts = checker.judge()
    unexpected = [(q["argv"], v["why"]) for q, v in zip(queries, verdicts)
                  if not v["ok"] and not KNOWN_FAILURES[workload](q)]
    assert not unexpected
    assert sum(v["decided"] for v in verdicts) > 0


def test_corpus_is_a_function_of_the_seed(workdir, monkeypatch):
    monkeypatch.chdir(ROOT)
    first = corpus.build("population-sweep", 7, ROOT, workdir)
    texts = {q["file"]: (ROOT / q["file"]).read_text() for q in first if "file" in q}
    again = corpus.build("population-sweep", 7, ROOT, workdir)
    assert first == again
    assert texts == {q["file"]: (ROOT / q["file"]).read_text() for q in again if "file" in q}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_pass_counts_layer_work(workload, workdir, monkeypatch):
    monkeypatch.chdir(ROOT)
    queries = corpus.build(workload, 1, ROOT, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        worker.run_pass(nbrv_main, queries, tracer, record=False)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert all(s is not None for s in spans)
    metrics = tracing.pass_metrics(spans, counts, len(queries), 1.0)
    for name in EXERCISED[workload]:
        assert metrics[name] > 0, name
    assert metrics["cli.self_ms"] > 0
