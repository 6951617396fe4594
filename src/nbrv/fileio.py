"""Text formats for protocols (.rvp), counter machines (.nbm) and VAS (.vas).

All three formats are line oriented and whitespace tokenized; ``#`` starts a
comment running to the end of the line.  Each file is read in one pass: the
reader keeps the words of every non-blank line with its line number, and a
1-based column is worked out from the raw line only when a parse error
reports it.  The ``trans SRC LABEL DST`` lines of a ``.rvp`` protocol and of
a ``.nbm`` machine are read by one ``_Reader`` method, ``edges``, which
checks both ends and keeps one table per file from the label text (an
action, or an operation and its counter) to its ``Action`` or
``CounterOp``: a text is checked, and its object built, where it first
occurs, and every later line with that text costs one lookup.  A ``.vas``
vector is converted by one lookup per word in a table of the one-digit
numerals, and only a vector with a word outside it is checked a word at a
time; an error names the first bad value.  A vector is written with its
zero entries as one shared ``"0"`` and only its nonzero entries converted.
Serializers emit a canonical form (sorted states, messages and
transitions) so that parse/serialize round-trips are stable.
"""

from __future__ import annotations

import re
from itertools import compress
from typing import Callable, Iterator

from .machines import (
    NBDEC,
    NOP,
    OP_TEXT,
    CounterMachine,
    CounterOp,
    Vas,
)
from .model import (
    IDENTIFIER_RE,
    Action,
    Configuration,
    Protocol,
    recv,
    send,
    tau,
)

_IDENT = re.compile(IDENTIFIER_RE)


class ParseError(ValueError):
    """Syntax or semantic error at a known position of an input file."""

    def __init__(self, file: str, line: int, column: int, message: str) -> None:
        self.file = file
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{file}:{line}:{column}: {message}")


# A line of a file: its 1-based number and its words, comment stripped.
Line = tuple[int, list[str]]


class _Reader:
    """The lines of one file that hold a word once comments are cut, read in order."""

    def __init__(self, text: str, file: str) -> None:
        self.file = file
        self.raw = text.splitlines()
        self.lines: list[Line] = [
            (n, words) for n, raw in enumerate(self.raw, start=1)
            if (words := raw.partition("#")[0].split())
        ]
        self.pos = 0

    def error(self, line: int, index: int, message: str) -> ParseError:
        """A ``ParseError`` at word ``index`` of line ``line``."""
        starts = [m.start() for m in re.finditer(r"\S+", self.raw[line - 1].partition("#")[0])]
        return ParseError(self.file, line, starts[index] + 1, message)

    def unexpected(self, n: int, words: list[str], keyword: str) -> ParseError:
        """The error for line ``n``, which should have started with ``keyword``."""
        return self.error(n, 0, f"expected '{keyword}' line, found {words[0]!r}")

    def take(self, keyword: str) -> Line:
        """The next line, which must start with ``keyword``."""
        if self.pos >= len(self.lines):
            last = self.lines[-1][0] if self.lines else 1
            raise ParseError(self.file, last, 1, f"missing '{keyword}' line")
        n, words = line = self.lines[self.pos]
        if words[0] != keyword:
            raise self.unexpected(n, words, keyword)
        self.pos += 1
        return line

    def arg(self, keyword: str, what: str) -> tuple[int, str]:
        """The next line, ``keyword`` and exactly one word: its number and that word."""
        n, words = self.take(keyword)
        if len(words) != 2:
            raise self.error(n, 0, f"'{keyword}' takes exactly one {what}")
        return n, words[1]

    def names(self, keyword: str, what: str) -> list[str]:
        """The next line, ``keyword`` and at least one ``what`` identifier: those identifiers."""
        n, words = self.take(keyword)
        if len(words) < 2:
            raise self.error(n, 0, f"'{keyword}' needs at least one {what}")
        return _idents(self, n, words, what)

    def trans(self) -> Iterator[Line]:
        """The lines after those taken, each checked to be a ``trans`` line as it is reached."""
        for n, words in self.lines[self.pos:]:
            if words[0] != "trans":
                raise self.unexpected(n, words, "trans")
            yield n, words

    def edges(self, places: set[str], noun: str, usage: str, arity: int,
              read_label: Callable[[_Reader, int, list[str], set[str]], object],
              names: set[str]) -> list[tuple]:
        """The ``(SRC, label, DST)`` of each ``trans`` line after those taken.

        A line has 4 or ``arity`` (at most 5) words, ``trans SRC ... DST``,
        with SRC and DST among the ``noun`` names ``places``.  The words
        between them are read by ``read_label(self, n, words, names)``, with
        ``names`` the declared messages or counters, where their text first
        occurs in the file, and looked up in a table after that.
        """
        labels: dict = {}
        edges = []
        for n, words in self.trans():
            if len(words) == 4:
                _trans, src, key, dst = words
            elif len(words) == arity:
                _trans, src, op, counter, dst = words
                key = op, counter
            else:
                raise self.error(n, 0, f"'trans' takes {usage}")
            if src not in places:
                raise self.error(n, 1, f"{noun} {src!r} not declared")
            if dst not in places:
                raise self.error(n, len(words) - 1, f"{noun} {dst!r} not declared")
            label = labels.get(key)
            if label is None:
                label = labels[key] = read_label(self, n, words, names)
            edges.append((src, label, dst))
        return edges


def _ident(rd: _Reader, n: int, word: str, what: str) -> str:
    """``word``, the argument of line ``n``, which must be an identifier."""
    if not _IDENT.fullmatch(word):
        raise rd.error(n, 1, f"invalid {what} identifier {word!r}")
    return word


def _idents(rd: _Reader, n: int, words: list[str], what: str) -> list[str]:
    """The words after the keyword of line ``n``, which must all be identifiers."""
    names = words[1:]
    if not all(map(_IDENT.fullmatch, names)):
        i = next(i for i, w in enumerate(words) if i and not _IDENT.fullmatch(w))
        raise rd.error(n, i, f"invalid {what} identifier {words[i]!r}")
    return names


def _action(rd: _Reader, n: int, words: list[str], msg_set: set[str]) -> Action:
    """The action named by word 2 of ``trans`` line ``n``."""
    act = words[2]
    if act == "tau":
        return tau()
    if act[0] in "!?":
        msg = act[1:]
        if not _IDENT.fullmatch(msg):
            raise rd.error(n, 2, f"invalid message identifier {msg!r}")
        if msg not in msg_set:
            raise rd.error(n, 2, f"message {msg!r} not declared")
        return send(msg) if act[0] == "!" else recv(msg)
    raise rd.error(n, 2, f"unknown action {act!r} (tau, !m or ?m)")


def parse_protocol(text: str, file: str = "<string>") -> Protocol:
    """Parse the ``.rvp`` format; header lines in order, then ``trans`` lines."""
    rd = _Reader(text, file)
    n, name = rd.arg("protocol", "name")
    _ident(rd, n, name, "protocol")

    states = rd.names("states", "state")
    init_n, init = rd.arg("init", "state")
    final_n, final = rd.arg("final", "state")
    n, words = rd.take("messages")
    messages = _idents(rd, n, words, "message")

    state_set = set(states)
    msg_set = set(messages)
    if init not in state_set:
        raise rd.error(init_n, 1, f"initial state {init!r} not declared")
    if final not in state_set:
        raise rd.error(final_n, 1, f"final state {final!r} not declared")

    transitions = rd.edges(state_set, "state", "SRC ACTION DST", 4, _action, msg_set)
    return Protocol(name, states, messages, init, final, transitions)


def serialize_protocol(p: Protocol) -> str:
    lines = [
        f"protocol {p.name}",
        "states " + " ".join(p.states),
        f"init {p.init}",
        f"final {p.final}",
        ("messages " + " ".join(p.messages)).rstrip(),
    ]
    for src, act, dst in p.transitions:
        lines.append(f"trans {src} {act} {dst}")
    return "\n".join(lines) + "\n"


def parse_config(text: str, p: Protocol, file: str = "<config>") -> Configuration:
    """Parse a configuration literal: comma-separated ``state`` or ``state:count``."""
    raw_items = text.split(",")
    items = [raw.strip() for raw in raw_items]
    counts: dict[str, int] = {}
    if not any(items):
        raise ParseError(file, 1, 1, "empty configuration literal")
    state_set = set(p.states)
    start = 1
    for raw, piece in zip(raw_items, items):
        # An item is reported at its first non-blank character, an empty
        # item at the start of its slot.
        col = start + len(raw) - len(raw.lstrip()) if piece else start
        start += len(raw) + 1
        if not piece:
            raise ParseError(file, 1, col, "empty configuration item")
        state, _, count_text = piece.partition(":")
        if count_text:
            if not count_text.isdecimal() or int(count_text) < 1:
                raise ParseError(file, 1, col, f"count {count_text!r} must be a positive integer")
            count = int(count_text)
        else:
            count = 1
        if state not in state_set:
            raise ParseError(file, 1, col, f"state {state!r} not in protocol {p.name}")
        counts[state] = counts.get(state, 0) + count
    return Configuration.from_counts(counts)


# The op kind of each op text: the inverse of ``machines.OP_TEXT``.
_OP_KIND = {text: kind for kind, text in OP_TEXT.items()}


def _op(rd: _Reader, n: int, words: list[str], ctr_set: set[str]) -> CounterOp:
    """The operation named by the words between SRC and DST of ``trans`` line ``n``."""
    kind = _OP_KIND.get(words[2])
    counter = words[3] if len(words) == 5 else None
    if kind is None:
        raise rd.error(n, 2, f"unknown operation {words[2]!r}")
    if (kind == NOP) != (counter is None):
        need = "takes no" if counter else "needs a"
        raise rd.error(n, 2, f"operation {words[2]!r} {need} counter")
    if counter is not None and counter not in ctr_set:
        raise rd.error(n, 3, f"counter {counter!r} not declared")
    return CounterOp(kind, counter)


def parse_machine(text: str, file: str = "<string>") -> CounterMachine:
    """Parse the ``.nbm`` counter machine format."""
    rd = _Reader(text, file)
    n, name = rd.arg("machine", "name")
    _ident(rd, n, name, "machine")

    locations = rd.names("locations", "location")
    init_n, init = rd.arg("init", "location")
    n, words = rd.take("counters")
    counters = _idents(rd, n, words, "counter")
    restore_n, restore = rd.arg("restore", "flag")
    if restore not in ("on", "off"):
        raise rd.error(restore_n, 1, "restore must be 'on' or 'off'")

    loc_set = set(locations)
    ctr_set = set(counters)
    if init not in loc_set:
        raise rd.error(init_n, 1, f"initial location {init!r} not declared")

    transitions = rd.edges(loc_set, "location", "SRC OP [COUNTER] DST", 5, _op, ctr_set)
    return CounterMachine(
        name=name,
        locations=locations,
        counters=counters,
        init=init,
        transitions=transitions,
        restore=restore == "on",
    )


def serialize_machine(m: CounterMachine) -> str:
    """The canonical ``.nbm`` text: ``nbdec`` lines last, each group in machine order."""
    lines = [
        f"machine {m.name}",
        "locations " + " ".join(m.locations),
        f"init {m.init}",
        ("counters " + " ".join(m.counters)).rstrip(),
        f"restore {'on' if m.restore else 'off'}",
    ]
    for src, op, dst in sorted(m.transitions, key=lambda t: t[1].kind == NBDEC):
        lines.append(f"trans {src} {op} {dst}")
    return "\n".join(lines) + "\n"


# The one-digit numerals of ``.vas`` values, with the value each one denotes:
# most words of a vector are among them.
_UNSIGNED = {str(d): d for d in range(10)}
_SIGNED = _UNSIGNED | {f"{sign}{d}": int(f"{sign}{d}") for sign in "+-" for d in range(10)}


def _values(rd: _Reader, n: int, words: list[str], first: int, stop: int, dim: int,
            what: str, signed: bool) -> tuple[int, ...]:
    """``words[first:stop]`` of line ``n`` as ``dim`` integers, the first bad one reported.

    A value is decimal digits, after one ``+`` or ``-`` when ``signed``.
    The vector is looked up word by word in a table of the one-digit
    numerals; only a vector with a word outside it is checked and converted
    a word at a time.
    """
    values = words[first:stop]
    if len(values) != dim:
        index = first if values else 0  # an empty vector is reported at its line
        raise rd.error(n, index, f"expected {dim} {what} values, found {len(values)}")
    try:
        return tuple(map((_SIGNED if signed else _UNSIGNED).__getitem__, values))
    except KeyError:
        pass
    digits = [w[1:] if w[0] in "+-" else w for w in values] if signed else values
    if not all(map(str.isdecimal, digits)):
        i = first + next(i for i, d in enumerate(digits) if not d.isdecimal())
        raise rd.error(n, i, f"invalid {what} value {words[i]!r}")
    return tuple(map(int, values))


def parse_vas(text: str, file: str = "<string>") -> Vas:
    """Parse the ``.vas`` format for non-blocking vector addition systems."""
    rd = _Reader(text, file)
    n, head = rd.take("vas")
    if len(head) != 4 or head[2] != "dim":
        raise rd.error(n, 0, "'vas' line must be: vas NAME dim D")
    name = _ident(rd, n, head[1], "vas")
    if not head[3].isdecimal() or int(head[3]) < 1:
        raise rd.error(n, 3, "dimension must be a positive integer")
    dim = int(head[3])

    n, words = rd.take("init")
    v_init = _values(rd, n, words, 1, len(words), dim, "init", signed=False)
    n, words = rd.take("target")
    v_target = _values(rd, n, words, 1, len(words), dim, "target", signed=False)

    transitions = []
    for n, words in rd.trans():
        if words.count(";") != 1:
            raise rd.error(n, 0, "'trans' needs one ';' between blocking and non-blocking parts")
        split = words.index(";")
        t_b = _values(rd, n, words, 1, split, dim, "blocking", signed=True)
        t_nb = _values(rd, n, words, split + 1, len(words), dim, "non-blocking", signed=False)
        transitions.append((t_b, t_nb))

    return Vas(name=name, dim=dim, transitions=tuple(sorted(set(transitions))),
               v_init=v_init, v_target=v_target)


def vector_text(xs: tuple[int, ...]) -> str:
    """``" ".join(map(str, xs))``, converting only the nonzero entries."""
    words = ["0"] * len(xs)
    for i in compress(range(len(xs)), xs):
        words[i] = str(xs[i])
    return " ".join(words)


def serialize_vas(v: Vas) -> str:
    """The canonical ``.vas`` text; each vector is written by :func:`vector_text`."""
    lines = [
        f"vas {v.name} dim {v.dim}",
        "init " + vector_text(v.v_init),
        "target " + vector_text(v.v_target),
    ]
    for t_b, t_nb in v.transitions:
        lines.append(f"trans {vector_text(t_b)} ; {vector_text(t_nb)}")
    return "\n".join(lines) + "\n"
