"""Runs one workload's query list in passes, in a process of its own.

Usage: ``python3 bench/worker.py WORKDIR SECONDS TRACE`` from the root of a
checkout, with ``src`` on ``PYTHONPATH``.  Reads ``WORKDIR/queries.json``
and writes ``WORKDIR/result.json`` (and, when tracing, the spans of the
last traced pass to ``WORKDIR/spans.tsv.gz``).

One caller, closed loop: each query is one ``nbrv.cli.main(argv)`` call
with stdout and stderr captured, sent only after the previous one returned.
The calibration kernel runs between consecutive queries, outside their
timed intervals.  One warm-up pass records the full outputs for checking;
timed passes follow until SECONDS have passed, with ``gc.collect()`` before
each.  With TRACE=1 the passes alternate between untraced and traced.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calib
import tracing
from nbrv.cli import main as nbrv_main

MIN_TIMED_PASSES = 3


def run_query(main, argv: list[str]) -> tuple[object, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a failed query
            code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_pass(main, queries: list[dict], tracer: tracing.Tracer | None, record: bool) -> dict:
    """One pass over the list; returns raw times, kernels and output digests."""
    gc.collect()
    targets: dict[int, str] = {}
    kernels = [calib.time_kernel()]
    raw, digests, outputs = [], [], []
    for q in queries:
        argv = [a if a is not None else targets[q["loc_from"]] for a in q["argv"]]
        if tracer is not None:
            tracer.query = q["id"]
            code, out, err, elapsed = tracer.span("cli.main", run_query, (main, argv), {})
        else:
            code, out, err, elapsed = run_query(main, argv)
        kernels.append(calib.time_kernel())
        raw.append(elapsed)
        if q["kind"] == "p2cm" and out.startswith("TARGET "):
            targets[q["id"]] = out.split()[1]
        digests.append(hashlib.sha1(f"{code}\n{out}".encode()).hexdigest())
        if record:
            outputs.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    return {"raw": raw, "kernels": kernels, "digests": digests, "outputs": outputs,
            "traced": tracer is not None}


def load(workdir: Path) -> list[dict]:
    return json.loads((workdir / "queries.json").read_text())


def warm(workdir: str) -> None:
    """One untimed pass: fills the bytecode cache with every module the queries import."""
    run_pass(nbrv_main, load(Path(workdir)), None, record=False)


def main() -> int:
    workdir, seconds, traced = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1"
    queries = load(workdir)

    tracer = tracing.Tracer() if traced else None
    warm = run_pass(nbrv_main, queries, None, record=True)
    passes, layer_passes, spans = [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_TIMED_PASSES or time.perf_counter() - start < seconds:
        use = tracer if traced and len(passes) % 2 == 1 else None
        if use is not None:
            use.install()
        try:
            p = run_pass(nbrv_main, queries, use, record=False)
        finally:
            if use is not None:
                use.uninstall()
        if use is not None:
            pass_spans, counts = use.take()
            scale = calib.factor(p["kernels"])
            layer_passes.append(tracing.pass_metrics(pass_spans, counts, len(queries), scale))
            spans = pass_spans
        passes.append(p)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        tracing.write(workdir / "spans.tsv.gz", spans)
    result = {
        "warm": warm,
        "passes": passes,
        "layers": tracing.median_metrics(layer_passes) if layer_passes else {},
        "peak_rss_mb": rss_kb / 1024,
    }
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
