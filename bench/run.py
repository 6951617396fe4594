"""nbrv benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload population-sweep|wait-only|counter-machines \\
        --seed N --seconds S --trace 0|1

Builds the workload's corpus from the seed under ``.bench_work/``, times
the CLI cold start, runs the queries in a fresh worker process for S
seconds, checks every output against the reference semantics, and prints
as its last line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  All times are scaled to the calibration kernel's nominal
speed (``calib.py``).  The run log with raw seconds and kernel series goes
to ``.bench_work/logs/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402

HASH_SEED = "0"
SETUP_SPAWNS = 11
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "queries_per_s": "1/s", "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms", "peak_rss_mb": "MB", "decided": "count",
}


def child_env(root: Path) -> dict[str, str]:
    """Fixed environment for every child: hash seed, import path, bytecode cache."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_work" / "pycache")
    return env


def cold_starts(root: Path, env: dict[str, str]) -> tuple[float, list[dict]]:
    """Median scaled time a fresh interpreter spends importing ``nbrv.cli``.

    The import is timed inside the child, beside the kernel; the spawn's
    wall time, which adds interpreter start-up and swings far more, goes to
    the log only.
    """
    cmd = [sys.executable, str(HERE / "coldstart.py")]
    log = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=root, env=env, check=True, capture_output=True, text=True)
        wall = time.perf_counter() - start
        child = json.loads(out.stdout)
        scaled = child["import_s"] * calib.factor(child["kernels"])
        log.append({"wall_s": wall, **child, "scaled_s": scaled})
    return statistics.median(s["scaled_s"] for s in log), log


def scaled(p: dict) -> list[float]:
    """A pass's query times scaled to the nominal speed."""
    return [t * f for t, f in zip(p["raw"], calib.window_factors(p["kernels"]))]


def qps(passes: list[dict]) -> float:
    """Queries per second over a pass, median over ``passes``."""
    return statistics.median(len(p["raw"]) / sum(scaled(p)) for p in passes)


def end_to_end(result: dict, verdicts: list[dict], setup_s: float) -> dict[str, float]:
    timed = [p for p in result["passes"] if not p["traced"]]
    per_query = zip(*(scaled(p) for p in timed))
    latencies = [statistics.median(ts) * 1e3 for ts in per_query]
    return {
        "setup_s": setup_s,
        "queries_per_s": qps(timed),
        "verdict_p50_ms": statistics.median(latencies),
        "verdict_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": result["peak_rss_mb"],
        "decided": sum(v["decided"] for v in verdicts),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "nbrv" / "cli.py").is_file() or not (root / "protocols").is_dir():
        print("error: run from the root of an nbrv checkout (src/nbrv and protocols/ "
              "are missing here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    base = root / ".bench_work"
    workdir = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    (base / "logs").mkdir(parents=True, exist_ok=True)
    workdir.mkdir()
    try:
        return run(args, root, base, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: Path, base: Path, workdir: Path) -> int:
    env = child_env(root)
    t0 = time.perf_counter()
    queries = corpus.build(args.workload, args.seed, root, workdir)
    (workdir / "queries.json").write_text(json.dumps(queries))
    corpus_s = time.perf_counter() - t0
    # One untimed pass in a throw-away child compiles every module the
    # queries import, so that no run's import or memory figures include it.
    warm = [sys.executable, "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); import worker; worker.warm(sys.argv[2])",
            str(HERE), str(workdir)]
    subprocess.run(warm, cwd=root, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
    setup_s, setup_log = cold_starts(root, env)

    worker = [sys.executable, str(HERE / "worker.py"), str(workdir), str(args.seconds),
              str(args.trace)]
    proc = subprocess.run(worker, cwd=root, env=env, stdout=sys.stderr,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((workdir / "result.json").read_text())

    outputs = result["warm"]["outputs"]
    checker = checks.Checker(root, queries, outputs)
    verdicts = checker.judge()
    warm_digests = result["warm"]["digests"]
    failed = sum(not v["ok"] for v in verdicts)
    for p in result["passes"]:
        failed += sum(not v["ok"] or d != w
                      for v, d, w in zip(verdicts, p["digests"], warm_digests))
    attempted = len(queries) * (1 + len(result["passes"]))

    if args.trace:
        untraced = [p for p in result["passes"] if not p["traced"]]
        traced = [p for p in result["passes"] if p["traced"]]
        values = dict(result["layers"])
        values["trace.overhead_ratio"] = qps(untraced) / qps(traced)
        units = layer_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        values = end_to_end(result, verdicts, setup_s)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    if args.trace:
        shutil.move(str(workdir / "spans.tsv.gz"), str(base / "logs" / f"{name}.spans.tsv.gz"))
    passes = [{k: p[k] for k in ("raw", "kernels", "traced")}
              for p in [result["warm"]] + result["passes"]]
    log = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "corpus_s": corpus_s, "nominal_kernel_s": calib.NOMINAL_S,
        "setup": setup_log, "passes": passes,
        "queries": [{**q, "argv": o["argv"], **v} for q, o, v in zip(queries, outputs, verdicts)],
        "unconfirmed_yes": checker.unconfirmed, "metrics": values,
    }
    (base / "logs" / f"{name}.json").write_text(json.dumps(log, indent=1))
    for q, o, v in zip(queries, outputs, verdicts):
        if not v["ok"]:
            print(f"failed query {q['id']} ({' '.join(o['argv'])}): {v['why']}", file=sys.stderr)
    # Every query whose output failed a check is counted in ``failed``; the
    # outputs of all the others passed theirs.
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
