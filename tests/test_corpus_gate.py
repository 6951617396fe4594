"""Every function in ``src/nbrv`` is reached by a command, and the corpus outputs hold.

The module's fixture builds the bench corpora (``bench/corpus.py``, read
only) for the three workloads at seeds 1-4 in a temporary root, which holds
a ``protocols`` link to the shipped protocols, and runs every query once
through ``nbrv.cli.main`` under ``sys.setprofile``, followed by a few
command lines the corpora lack (help, a bad option, two parse errors).

* :func:`test_every_function_is_reached` fails on a function of
  ``src/nbrv`` that no command line reached and that ``ALLOWED`` does not
  name, and on an ``ALLOWED`` entry that names no function or that a
  command line now reaches.
* :func:`test_outputs_match_golden` compares a digest of each query's exit
  code, stdout and stderr, and of each file in the corpus directories,
  with ``tests/golden/corpus_digests.txt``, for the workloads whose corpus
  does not depend on the hash seed.  Regenerate that file with
  ``PYTHONPATH=src python tests/test_corpus_gate.py``.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import nbrv
from nbrv import cli

REPO = Path(__file__).resolve().parent.parent
SRC = Path(nbrv.__file__).resolve().parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus_digests.txt"
SEEDS = (1, 2, 3, 4)
WORKLOADS = ("population-sweep", "wait-only", "counter-machines")
# The population-sweep corpus admits protocols by iterating a set, so it
# moves with the hash seed: it is run for reachability only.
GOLDEN_WORKLOADS = ("wait-only", "counter-machines")

# Inputs of the extra command lines, written into the temporary root.
EXTRA_FILES = {
    "np.nbm": "machine t\nlocations a b\ninit a\ncounters x\nrestore off\ntrans a np b\n",
    "nostates.rvp": "protocol z\ninit a\nstates a\nfinal a\nmessages m\n",
}
EXTRA_LINES = (
    ["check", "--help"],
    ["explore", "protocol", "protocols/fig1.rvp", "--procs", "3", "--bogus"],
    ["explore", "machine", "np.nbm", "--loc", "b", "--cap", "1"],
    ["check", "scover", "nostates.rvp"],
)

# Functions that no command line reaches, each with the reason it stays.
_CHECKER = "a witness checker, for checking each printed verdict (ROADMAP item 2)"
_SPARSE = "a sparse form of a packed step or configuration, for the witness checkers"
_GADGET = "a Lipton gadget part that the gadget contract tests exercise"
_BENCH = "wrapped by name in bench/tracing.py WRAPPED until ROADMAP item 4 phase B"
ALLOWED = {
    "explore.replay": _CHECKER,
    "explore.replay_steps": _CHECKER,
    "machines.replay_machine": _CHECKER,
    "model.successors": _SPARSE,
    "machines.successors": _SPARSE,
    "machines.apply_strict": _SPARSE,
    "model.MoveTable.encode": _SPARSE,
    "model.Configuration.states": _SPARSE,
    "gadgets.zero_test_swap": _GADGET,
    "gadgets.init_level": _GADGET,
    "gadgets.LevelContext.bound": _GADGET,
    "waitonly.admits": _BENCH,
    "waitonly.decide_state_cover": _BENCH,
}


def _bench_corpus():
    """``bench/corpus.py``, imported without writing bytecode under ``bench``."""
    bench = str(REPO / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import corpus
    finally:
        sys.dont_write_bytecode = dont_write
    return corpus


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[object, str, str]:
    """One ``nbrv.cli.main`` call: its exit code (or crash), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is an output too
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_corpora(root: Path) -> tuple[set, dict[str, str], dict[str, str]]:
    """Build every corpus in the empty directory ``root`` and run each query
    once, profiled, with ``root`` as the working directory.

    Returns the code objects that ran, and for each golden key (``workload
    seed id``, the id being a query's number or a file's name) its sha256
    and what it names.
    """
    (root / "protocols").symlink_to(REPO / "protocols")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        return _run_corpora(root)
    finally:
        os.chdir(cwd)


def _run_corpora(root: Path) -> tuple[set, dict[str, str], dict[str, str]]:
    corpus = _bench_corpus()
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            workdir = root / f"{workload}-{seed}"
            workdir.mkdir()
            runs.append((workload, seed, workdir, corpus.build(workload, seed, root, workdir)))
    for name, text in EXTRA_FILES.items():
        (root / name).write_text(text)
    # A cached function runs only on its first call, which an earlier test may have made.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("nbrv."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                    obj.cache_clear()
    digests, names = {}, {}
    seen: set = set()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, _event, _arg: seen.add(frame.f_code))
    try:
        for workload, seed, workdir, queries in runs:
            targets: dict[int, str] = {}
            for q in queries:
                # ``explore machine`` after ``translate p2cm`` searches the target it printed.
                argv = [a if a is not None else targets[q["loc_from"]] for a in q["argv"]]
                code, out, err = _run(argv)
                if q["kind"] == "p2cm" and out.startswith("TARGET "):
                    targets[q["id"]] = out.split()[1]
                key = f"{workload} {seed} {q['id']}"
                digests[key] = _digest(json.dumps([code, out, err]).encode())
                names[key] = " ".join(argv)
        for argv in EXTRA_LINES:
            _run(argv)
    finally:
        sys.setprofile(previous)
    for workload, seed, workdir, _queries in runs:
        for path in sorted(workdir.iterdir()):
            key = f"{workload} {seed} {path.name}"
            digests[key] = _digest(path.read_bytes())
            names[key] = f"file {path.relative_to(root)}"
    return seen, digests, names


def functions() -> dict[tuple[str, int], str]:
    """Every ``def`` of ``src/nbrv``, keyed by its file and first line as its
    code object is, with its qualified name (``module.Class.function``).

    A decorated function's code starts at its first decorator.
    """
    found = {}

    def visit(node: ast.AST, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[file, first] = prefix + child.name
                visit(child, file, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.")
            else:
                visit(child, file, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_bytes()), str(path), f"{path.stem}.")
    return found


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    return run_corpora(tmp_path_factory.mktemp("corpora"))


def test_every_function_is_reached(corpus_run):
    seen, _digests, _names = corpus_run
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}
    defined = functions()
    names = set(defined.values())
    unreached = {name for key, name in defined.items() if key not in reached}
    problems = [f"no command reaches {name}" for name in sorted(unreached - ALLOWED.keys())]
    problems += [f"ALLOWED names no function: {name}" for name in sorted(ALLOWED.keys() - names)]
    problems += [f"a command now reaches ALLOWED {name}"
                 for name in sorted(ALLOWED.keys() & (names - unreached))]
    assert not problems, "\n".join(problems)


def _read_golden() -> dict[str, str]:
    rows = [line.split() for line in GOLDEN.read_text().splitlines() if not line.startswith("#")]
    return {" ".join(row[:3]): row[3] for row in rows}


def _golden(digests: dict[str, str]) -> dict[str, str]:
    return {key: d for key, d in digests.items() if key.split()[0] in GOLDEN_WORKLOADS}


def test_outputs_match_golden(corpus_run):
    _seen, digests, names = corpus_run
    want, got = _read_golden(), _golden(digests)
    keys = [*want, *(key for key in got if key not in want)]
    moved = [f"{key}: {names.get(key, 'not run here')}"
             for key in keys if want.get(key) != got.get(key)]
    assert not moved, (f"{len(moved)} outputs moved (regenerate with "
                       f"PYTHONPATH=src python tests/test_corpus_gate.py):\n" + "\n".join(moved))


def write_golden() -> None:
    """Run the corpora in a temporary root and write the golden digests."""
    with tempfile.TemporaryDirectory() as tmp:
        _seen, digests, _names = run_corpora(Path(tmp).resolve())
    lines = ["# workload seed id sha256: a query's id is its number, with the digest of"
             " its exit code, stdout and stderr; a file's id is its name, with the digest"
             " of its bytes."]
    lines += [f"{key} {d}" for key, d in _golden(digests).items()]
    GOLDEN.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    write_golden()
