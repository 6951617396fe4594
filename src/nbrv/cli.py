"""Command line front end.

Commands::

    nbrv check scover|ccover|synchro FILE [--target CONF]
         [--method explore|abstract|backward|auto] [--max-procs N] [--max-steps B]
    nbrv abstract FILE [--trace]
    nbrv explore protocol FILE --procs N [--list] [--budget B]
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

The grammar is stated once, in ``_COMMANDS``.  A well-formed command line,
in which every word is an exact option name followed by a value that does
not start with ``-``, a flag, or a positional, is read from that table
directly, so it never loads ``argparse``.  Every other line (``-h``, ``--``,
``--opt=value``, an abbreviation, a bad value, a missing or extra word, no
command at all) goes to the one top-level argparse parser, built from the
same table, which reads it or prints its usage, help or error.

``translate`` and ``gen`` write OUT in place as UTF-8: an existing file is
overwritten and then cut to the new length.  Nothing is fsynced, before or
after, so there is no durability promise; if the operating system crashes
during a write, OUT may hold a mix of old and new blocks rather than nothing.
A write that fails exits 2, like a read.

``check`` makes one call, ``backward.decide``, whose docstring states which
engine answers each ``--method`` and problem: ``auto`` (the default) sends
a cover question on a wait-only protocol to the abstract engine
(``waitonly``) and every other question to the backward engine
(``backward``), ``abstract`` and ``backward`` name one engine, and
``explore`` sweeps populations 1..``--max-procs``.  A ``--max-procs`` below
1 is refused on every method.

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

import functools
import os
import stat
import sys
from types import SimpleNamespace

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


def _cmd_check(args: SimpleNamespace) -> int:
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

    verdict = backward.decide(p, problem, args.max_procs, args.max_steps, args.method)
    _print_verdict(verdict, lambda label, cfg: f"{label} {cfg}")
    return EXIT_OK


def _cmd_abstract(args: SimpleNamespace) -> int:
    p = _load_protocol(args.file)
    _gamma, trace = waitonly.fixpoint(p)
    shown = trace if args.trace else trace[-1:]
    for gamma in shown:
        states = ",".join(sorted(gamma.states))
        toks = ",".join(f"({q},{m})" for q, m in sorted(gamma.tokens))
        print(f"S = {{{states}}} Toks = {{{toks}}}")
    return EXIT_OK


def _cmd_explore(args: SimpleNamespace) -> int:
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


def _cmd_translate(args: SimpleNamespace) -> int:
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


def _cmd_gen(args: SimpleNamespace) -> int:
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


# nbrv's command-line grammar, stated once: each leaf command, keyed by its
# words, with its help line, its handler, the values its parse always adds
# (``gen``'s ``kind``) and its arguments as ``add_argument`` takes them.
# ``_table_parse`` reads a well-formed command line from it, and
# ``build_parser`` builds argparse's tree from it for every other line.
_COMMANDS = {
    ("check",): ("decide a verification question", _cmd_check, {}, (
        ("problem", {"choices": ["scover", "ccover", "synchro"]}),
        ("file", {}),
        ("--target", {"help": "configuration literal for ccover"}),
        ("--method", {"choices": backward.METHODS, "default": "auto"}),
        ("--max-procs", {"type": int, "default": 8}),
        ("--max-steps", {"type": int, "default": explore.DEFAULT_BUDGET}),
    )),
    ("abstract",): ("run the wait-only abstraction", _cmd_abstract, {}, (
        ("file", {}),
        ("--trace", {"action": "store_true"}),
    )),
    ("explore",): ("bounded exhaustive exploration", _cmd_explore, {}, (
        ("kind", {"choices": ["protocol", "machine", "vas"]}),
        ("file", {}),
        ("--procs", {"type": int, "default": 2}),
        ("--list", {"action": "store_true"}),
        ("--loc", {}),
        ("--cap", {"type": int, "default": 8}),
        ("--budget", {"type": int, "default": explore.DEFAULT_BUDGET}),
    )),
    ("translate",): ("compile between model classes", _cmd_translate, {}, (
        ("kind", {"choices": ["p2cm", "cm2p", "cm2vas", "minsky2p"]}),
        ("infile", {}),
        ("out", {}),
        ("--target", {"help": "configuration literal (p2cm)"}),
        ("--target-loc", {"help": "target location (cm2p, cm2vas, minsky2p)"}),
    )),
    ("gen", "lipton"): ("wrap a machine in the restore shell", _cmd_gen, {"kind": "lipton"}, (
        ("infile", {}),
        ("out", {}),
        ("--levels", {"type": int, "required": True}),
        ("--target-loc", {}),
    )),
    ("gen", "rst"): ("emit one reset gadget", _cmd_gen, {"kind": "rst"}, (
        ("out", {}),
        ("--levels", {"type": int, "required": True}),
        ("--level", {"type": int, "required": True}),
    )),
}
# The help line of each command that groups others; its parser stores the
# word after it as ``kind``.
_GROUPS = {"gen": "generate bounding gadget machines"}


@functools.cache
def _grammar(words: tuple[str, ...]) -> tuple[dict, tuple, dict, tuple]:
    """The command ``words`` of ``_COMMANDS`` as ``_table_parse`` reads it:
    the value of every destination before any word is read, the positionals
    in order and the options by name, each as ``(dest, is a flag, type,
    choices)``, and the destinations of the required options, whose value
    is None until a word gives one."""
    _help, handler, fixed, arguments = _COMMANDS[words]
    defaults = {"func": handler, **fixed}
    positionals, options, required = [], {}, []
    for name, spec in arguments:
        dest = name.lstrip("-").replace("-", "_")
        flag = spec.get("action") == "store_true"
        defaults[dest] = False if flag else spec.get("default")
        entry = (dest, flag, spec.get("type"), spec.get("choices"))
        if name.startswith("-"):
            options[name] = entry
        else:
            positionals.append(entry)
        if spec.get("required"):
            required.append(dest)
    return defaults, tuple(positionals), options, tuple(required)


def _table_parse(words: tuple[str, ...], rest: list[str]) -> SimpleNamespace | None:
    """The arguments of the command ``words`` read from ``rest`` as argparse
    reads them, or None when argparse must read them.

    Reads only lines in which every word is an exact option name followed
    by a value that does not start with ``-``, a flag, or a positional;
    there argparse reads each word the same way.  Each value is converted
    and checked as argparse does (``int()`` for ``type=int``, then the
    choices), and a repeated option keeps its last value.  A line with any
    other word (``-h``, ``--``, ``--opt=value``, an abbreviation, a value
    starting with ``-``), a value that fails its type or choices, or a
    missing or extra word is None: argparse prints its help or error.
    """
    defaults, positionals, options, required = _grammar(words)
    values = dict(defaults)
    pending = iter(positionals)
    words_left = iter(rest)
    for word in words_left:
        if word[:1] == "-":
            entry = options.get(word)
            if entry is None:
                return None
            dest, flag, convert, choices = entry
            if flag:
                values[dest] = True
                continue
            word = next(words_left, "-")
            if word[:1] == "-":
                return None
        else:
            entry = next(pending, None)
            if entry is None:
                return None
            dest, _flag, convert, choices = entry
        if convert is not None:
            try:
                word = convert(word)
            except ValueError:
                return None
        if choices is not None and word not in choices:
            return None
        values[dest] = word
    if next(pending, None) is not None or any(values[dest] is None for dest in required):
        return None
    return SimpleNamespace(**values)


@functools.cache
def build_parser():
    """The argparse parser of every command, built from ``_COMMANDS`` on the
    first call and shared by every later one.  Only here is ``argparse``
    imported."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nbrv",
        description="Coverability analyses for networks with non-blocking rendez-vous.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, (help_line, handler, fixed, arguments) in _COMMANDS.items():
        *group, name = words
        parent = sub
        if group:
            if group[0] not in groups:
                grouped = sub.add_parser(group[0], help=_GROUPS[group[0]])
                groups[group[0]] = grouped.add_subparsers(dest="kind", required=True)
            parent = groups[group[0]]
        leaf = parent.add_parser(name, help=help_line)
        for arg, spec in arguments:
            leaf.add_argument(arg, **spec)
        leaf.set_defaults(func=handler, **fixed)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace:
    """The arguments of ``argv``, parsed once.

    A well-formed line of a command is read from ``_COMMANDS`` by
    ``_table_parse``, so it never loads argparse.  Every other line goes to
    the argparse parser, which reads it or prints its help or error.
    """
    words = tuple(argv[:2 if argv[:1] == ["gen"] else 1])
    if words in _COMMANDS:
        args = _table_parse(words, argv[len(words):])
        if args is not None:
            return args
    return SimpleNamespace(**vars(build_parser().parse_args(argv)))


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
