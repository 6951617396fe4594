"""Command line front end.

Commands::

    nbrv check scover|ccover|synchro FILE [--target CONF]
         [--method explore|abstract|backward|auto] [--max-procs N] [--max-steps B]
    nbrv abstract FILE [--trace]
    nbrv explore protocol FILE --procs N [--list]
    nbrv explore machine FILE --loc L --cap C [--budget B]
    nbrv explore vas FILE --cap C [--budget B]
    nbrv translate p2cm|cm2p|cm2vas|minsky2p IN OUT [--target CONF | --target-loc L]
    nbrv gen lipton --levels N IN OUT [--target-loc L]
    nbrv gen rst --levels N --level I OUT

Exit codes: 0 the analysis ran (whatever the verdict), 2 a file that cannot
be read or written, or a parse error in an input file (a byte that is not
UTF-8 included), 3 precondition violation (bad flag combination, wrong model
class for the requested method...).  ``translate`` takes ``--target`` for
``p2cm`` and ``--target-loc`` for the other kinds, never both.

A command line is parsed once, by the parser of the command it names; one
that names no command goes to the top-level parser.  Usage lines, help and
error messages are argparse's, as they were under the top-level parser's
nested parse.

``translate`` and ``gen`` write OUT in place as UTF-8: an existing file is
overwritten and then cut to the new length.  Nothing is fsynced, before or
after, so there is no durability promise; if the operating system crashes
during a write, OUT may hold a mix of old and new blocks rather than nothing.
A write that fails exits 2, like a read.

``check --method auto`` sends a cover question (``scover``, ``ccover``) on a
wait-only protocol to the abstract engine (``waitonly``) and one on any
other protocol to the backward engine (``backward``).  The backward engine
gives an exact NO, or the smallest population ``n`` that covers the target:
``n <= --max-procs`` prints the explorer's verdict at ``n``, with its
witness, and a larger ``n`` prints ``RESULT UNKNOWN``.  ``synchro`` needs
every process in ``final``, so under ``auto`` it answers an exact NO when
``final`` cannot be covered, and is otherwise swept from ``n`` up to
``--max-procs``.  A sweep decides each ``synchro`` population ``n`` by a
search from both ends, forward from ``n * init`` and backward from ``n *
final``, while the configurations of ``n`` processes, ``C(n + |Q| - 1,
|Q| - 1)``, number at most ``--max-steps``: no search of that population
can then run out of ``--max-steps``, so it prints what a forward search
would.  ``--method backward`` sends every question to the
backward engine, wait-only protocols included, ``--method abstract`` sends
a cover question to the abstract engine alone, and ``--method explore``
sweeps populations 1..``--max-procs``.  A ``--max-procs`` below 1 is
refused on every method.

The first result line is ``RESULT YES|NO|UNKNOWN``, followed by the
verdict's note when it has one (``RESULT NO within-cap``, ``RESULT UNKNOWN
budget``); YES verdicts found by search are followed by ``STEP <label>
<config>`` lines that replay the witness.  ``--max-steps`` bounds both the
pops of the backward search and the nodes of each explorer search, the
initial configuration included, so ``--max-steps 0`` admits none.  A
``check`` that runs out of it, or an ``explore machine|vas`` search that
runs out of its node budget, answers ``RESULT UNKNOWN budget``;
``explore protocol`` counts, and a partial count is no answer, so there the
budget is a precondition error.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from . import backward, explore, fileio, gadgets, machines, reductions, waitonly
from .explore import Problem, Verdict
from .model import Protocol

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


class PreconditionError(Exception):
    """Raised for bad flag combinations or wrong model classes."""


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``; a byte that does not decode is
    a ``ParseError`` at its line and column.

    Reads through the descriptor: five system calls, where a text-mode
    ``open`` makes about ten.  On a busy host their cost swings far more
    than the parse that follows.  Line ends need no translation, because
    the parsers split with ``str.splitlines``.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        parts = []
        while part := os.read(fd, max(size, 4095) + 1):
            parts.append(part)
    except OSError as exc:
        exc.filename = path  # reading a directory names no file otherwise
        raise
    finally:
        os.close(fd)
    data = b"".join(parts)
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # The decoded head plus a stand-in for the bad byte: its last line
        # ends at the byte's column.
        lines = (data[:exc.start].decode() + "?").splitlines()
        raise fileio.ParseError(path, len(lines), len(lines[-1]),
                                f"cannot decode as UTF-8: {exc.reason}") from None


def _write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to the file at ``path``, in place.

    An existing file is overwritten and then cut to the new length; it is
    never truncated to zero first, since on some file systems (ext4 with
    ``discard``) freeing every block of the old file costs far more than
    writing the new bytes over them.  Only a regular file is cut:
    ``ftruncate`` fails on a device such as ``/dev/null``.  A new file gets
    mode ``0o666`` less the umask, as with ``open(path, "w")``.  Nothing is
    fsynced.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _load_protocol(path: str) -> Protocol:
    return fileio.parse_protocol(_read_text(path), file=path)


def _load_machine(path: str) -> machines.CounterMachine:
    return fileio.parse_machine(_read_text(path), file=path)


def _load_vas(path: str) -> machines.Vas:
    return fileio.parse_vas(_read_text(path), file=path)


def _machine_config_literal(m: machines.CounterMachine, cfg: machines.MachineConfig) -> str:
    vals = ",".join(f"{x}={v}" for x, v in zip(m.counters, cfg.values))
    return f"{cfg.loc};{vals}" if vals else cfg.loc


def _print_verdict(verdict: Verdict, render_step) -> None:
    note = f" {verdict.note}" if verdict.note else ""
    print(f"RESULT {verdict.answer.upper()}{note}")
    if verdict.is_yes() and verdict.witness is not None:
        for label, state in verdict.witness.steps:
            print(f"STEP {render_step(label, state)}")


def _cmd_check(args: argparse.Namespace) -> int:
    if args.max_procs < 1:
        raise PreconditionError("population bound must be at least 1")
    p = _load_protocol(args.file)
    if args.problem == "ccover":
        if args.target is None:
            raise PreconditionError("ccover requires --target")
        target = fileio.parse_config(args.target, p)
        problem = Problem("ccover", target)
    else:
        if args.target is not None:
            raise PreconditionError(f"{args.problem} takes no --target")
        problem = Problem(args.problem)

    method = args.method
    if method == "abstract" and args.problem == "synchro":
        raise PreconditionError("the abstract analysis does not decide synchro")
    if method == "explore":
        verdict = explore.decide_sweep(p, problem, args.max_procs, args.max_steps)
    elif method == "backward" or args.problem == "synchro":
        verdict = backward.decide(p, problem, args.max_procs, args.max_steps)
    else:
        # The abstract engine partitions the protocol once; ``auto`` falls
        # back to the backward engine when it is not wait-only.
        try:
            verdict = waitonly.decide_cover(p, problem.cover(p))
        except waitonly.NotWaitOnlyError:
            if method != "auto":
                raise
            verdict = backward.decide(p, problem, args.max_procs, args.max_steps)
    _print_verdict(verdict, lambda label, cfg: f"{label} {cfg}")
    return EXIT_OK


def _cmd_abstract(args: argparse.Namespace) -> int:
    p = _load_protocol(args.file)
    _gamma, trace = waitonly.fixpoint(p)
    shown = trace if args.trace else trace[-1:]
    for gamma in shown:
        states = ",".join(gamma.sorted_states())
        toks = ",".join(f"({q},{m})" for q, m in gamma.sorted_tokens())
        print(f"S = {{{states}}} Toks = {{{toks}}}")
    return EXIT_OK


def _cmd_explore(args: argparse.Namespace) -> int:
    if args.kind == "protocol":
        p = _load_protocol(args.file)
        table, configs = explore.reachable(p, args.procs, args.budget)
        print(f"REACHABLE {len(configs)}")
        if args.list:
            for c in sorted(map(table.decode, configs), key=lambda c: c.items):
                print(f"CONFIG {c}")
        return EXIT_OK
    if args.kind == "machine":
        m = _load_machine(args.file)
        if args.loc is None:
            raise PreconditionError("explore machine requires --loc")
        search = functools.partial(machines.cover_bounded, m, args.loc)

        def render(t, cfg) -> str:
            return f"{t[1]} {_machine_config_literal(m, cfg)}"
    else:
        search = functools.partial(machines.vas_cover_bounded, _load_vas(args.file))

        def render(t, vec) -> str:
            t_b, t_nb, w = map(fileio.vector_text, (*t, vec))
            return f"{t_b} ; {t_nb} -> {w}"
    try:
        verdict = search(args.cap, args.budget)
    except explore.ResourceLimitError:
        # A cap-bounded search that runs out of budget has no answer.
        verdict = Verdict("unknown", note="budget")
    _print_verdict(verdict, render)
    return EXIT_OK


def _cmd_translate(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "p2cm":
        if args.target is None:
            raise PreconditionError("p2cm requires --target")
        if args.target_loc is not None:
            raise PreconditionError("p2cm takes no --target-loc")
        p = _load_protocol(args.infile)
        target = fileio.parse_config(args.target, p)
        machine, final_loc, report = reductions.protocol_to_machine(p, target)
        _write_text(args.out, fileio.serialize_machine(machine))
        print(f"TARGET {final_loc}")
    else:
        if args.target_loc is None:
            raise PreconditionError(f"{kind} requires --target-loc")
        if args.target is not None:
            raise PreconditionError(f"{kind} takes no --target")
        m = _load_machine(args.infile)
        if kind == "cm2vas":
            vas = reductions.machine_to_vas(m, args.target_loc)
            _write_text(args.out, fileio.serialize_vas(vas))
            print(f"SIZE dim={vas.dim} transitions={len(vas.transitions)}")
            return EXIT_OK
        simulate = (reductions.machine_to_protocol if kind == "cm2p"
                    else reductions.minsky_to_protocol)
        protocol, report = simulate(m, args.target_loc)
        _write_text(args.out, fileio.serialize_protocol(protocol))
    print(f"SIZE source={report.source_size} target={report.target_size}")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "lipton":
        m = _load_machine(args.infile)
        target = m.init if args.target_loc is None else args.target_loc
        shell = gadgets.restore_shell(m, args.levels, target)
        _write_text(args.out, fileio.serialize_machine(shell))
        print(f"TARGET {target}")
        print(f"SIZE locations={len(shell.locations)} counters={len(shell.counters)}")
    else:
        ctx = gadgets.LevelContext.create(args.levels)
        pm = gadgets.reset_level(ctx, args.level)
        _write_text(args.out, fileio.serialize_machine(pm))
        print(f"SIZE locations={len(pm.locations)} counters={len(pm.counters)}")
    return EXIT_OK


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The top-level argument parser and the parser of each command, keyed by
    the command's words; built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="nbrv",
        description="Coverability analyses for networks with non-blocking rendez-vous.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a verification question")
    check.add_argument("problem", choices=["scover", "ccover", "synchro"])
    check.add_argument("file")
    check.add_argument("--target", help="configuration literal for ccover")
    check.add_argument("--method", choices=["explore", "abstract", "backward", "auto"],
                       default="auto")
    check.add_argument("--max-procs", type=int, default=8)
    check.add_argument("--max-steps", type=int, default=explore.DEFAULT_BUDGET)
    check.set_defaults(func=_cmd_check)

    abstract = sub.add_parser("abstract", help="run the wait-only abstraction")
    abstract.add_argument("file")
    abstract.add_argument("--trace", action="store_true")
    abstract.set_defaults(func=_cmd_abstract)

    explore_cmd = sub.add_parser("explore", help="bounded exhaustive exploration")
    explore_cmd.add_argument("kind", choices=["protocol", "machine", "vas"])
    explore_cmd.add_argument("file")
    explore_cmd.add_argument("--procs", type=int, default=2)
    explore_cmd.add_argument("--list", action="store_true")
    explore_cmd.add_argument("--loc")
    explore_cmd.add_argument("--cap", type=int, default=8)
    explore_cmd.add_argument("--budget", type=int, default=explore.DEFAULT_BUDGET)
    explore_cmd.set_defaults(func=_cmd_explore)

    translate = sub.add_parser("translate", help="compile between model classes")
    translate.add_argument("kind", choices=["p2cm", "cm2p", "cm2vas", "minsky2p"])
    translate.add_argument("infile")
    translate.add_argument("out")
    translate.add_argument("--target", help="configuration literal (p2cm)")
    translate.add_argument("--target-loc", help="target location (cm2p, cm2vas, minsky2p)")
    translate.set_defaults(func=_cmd_translate)

    gen = sub.add_parser("gen", help="generate bounding gadget machines")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    lipton = gen_sub.add_parser("lipton", help="wrap a machine in the restore shell")
    lipton.add_argument("infile")
    lipton.add_argument("out")
    lipton.add_argument("--levels", type=int, required=True)
    lipton.add_argument("--target-loc")
    lipton.set_defaults(func=_cmd_gen, kind="lipton")
    rst = gen_sub.add_parser("rst", help="emit one reset gadget")
    rst.add_argument("out")
    rst.add_argument("--levels", type=int, required=True)
    rst.add_argument("--level", type=int, required=True)
    rst.set_defaults(func=_cmd_gen, kind="rst")

    leaves = {("check",): check, ("abstract",): abstract, ("explore",): explore_cmd,
              ("translate",): translate, ("gen", "lipton"): lipton, ("gen", "rst"): rst}
    return parser, leaves


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser, built on the first call and shared by every later one."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of ``argv``, parsed once, by the parser of the command it names.

    The top-level parser would hand every word after the command to that
    parser unchanged and report the words it leaves over; this skips that
    outer pass.  A command line that names no command (no words, ``-h``, an
    unknown or incomplete command) goes to the top-level parser, which prints
    its help or error.
    """
    parser, leaves = _parsers()
    words = 2 if argv[:1] == ["gen"] else 1
    leaf = leaves.get(tuple(argv[:words]))
    if leaf is None:
        return parser.parse_args(argv)
    args, extra = leaf.parse_known_args(argv[words:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point the descriptor at devnull so
        # that the flush at interpreter exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except fileio.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, explore.ResourceLimitError, ValueError) as exc:
        # The library's model-class errors (not wait-only, zero tests, bad
        # level...) are all ValueErrors: they are mapped here and nowhere else.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        # A missing, unreadable or unwritable file (``BrokenPipeError`` is
        # one too, which is why its branch comes first).
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
