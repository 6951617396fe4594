"""Text formats for protocols (.rvp), counter machines (.nbm) and VAS (.vas).

All three formats are line oriented and whitespace tokenized; ``#`` starts a
comment running to the end of the line.  Parsers report 1-based line/column
positions pointing at the offending token; serializers emit a canonical
form (sorted states, messages and transitions) so that parse/serialize
round-trips are stable.
"""

from __future__ import annotations

import re

from .machines import (
    NBDEC,
    CounterMachine,
    CounterOp,
    MachineTransition,
    Vas,
)
from .model import (
    IDENTIFIER_RE,
    Configuration,
    Protocol,
    ProtocolError,
    Transition,
    recv,
    send,
    tau,
)

_IDENT = re.compile(f"^{IDENTIFIER_RE}$")


class ParseError(ValueError):
    """Syntax or semantic error at a known position of an input file."""

    def __init__(self, file: str, line: int, column: int, message: str) -> None:
        self.file = file
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{file}:{line}:{column}: {message}")


# A token is its text, its 1-based line number and its index among the words
# of that line; the column is worked out only when an error reports it.
Token = tuple[str, int, int]


def _tokenize(lines: list[str]) -> list[list[Token]]:
    """Token lists per non-empty line, comments stripped."""
    out: list[list[Token]] = []
    for lineno, raw in enumerate(lines, start=1):
        words = raw.split("#", 1)[0].split()
        if words:
            out.append([(word, lineno, i) for i, word in enumerate(words)])
    return out


class _Reader:
    def __init__(self, text: str, file: str) -> None:
        self.file = file
        self.raw = text.splitlines()
        self.lines = _tokenize(self.raw)
        self.pos = 0

    def error(self, token: Token | None, message: str) -> ParseError:
        if token is None:
            line = self.lines[-1][0][1] if self.lines else 1
            return ParseError(self.file, line, 1, message)
        _text, line, index = token
        starts = [m.start() for m in re.finditer(r"\S+", self.raw[line - 1].split("#", 1)[0])]
        return ParseError(self.file, line, starts[index] + 1, message)

    def take(self, keyword: str) -> list[Token]:
        if self.pos >= len(self.lines):
            raise self.error(None, f"missing '{keyword}' line")
        line = self.lines[self.pos]
        if line[0][0] != keyword:
            raise self.error(line[0], f"expected '{keyword}' line, found {line[0][0]!r}")
        self.pos += 1
        return line

    def done(self) -> bool:
        return self.pos >= len(self.lines)


def _ident(rd: _Reader, tok: Token, what: str) -> str:
    if not _IDENT.match(tok[0]):
        raise rd.error(tok, f"invalid {what} identifier {tok[0]!r}")
    return tok[0]


def _one_arg(rd: _Reader, line: list[Token], what: str) -> Token:
    if len(line) != 2:
        raise rd.error(line[0], f"'{line[0][0]}' takes exactly one {what}")
    return line[1]


def parse_protocol(text: str, file: str = "<string>") -> Protocol:
    """Parse the ``.rvp`` format; header lines in order, then ``trans`` lines."""
    rd = _Reader(text, file)
    name_tok = _one_arg(rd, rd.take("protocol"), "name")
    name = _ident(rd, name_tok, "protocol")

    states_line = rd.take("states")
    if len(states_line) < 2:
        raise rd.error(states_line[0], "'states' needs at least one state")
    states = [_ident(rd, t, "state") for t in states_line[1:]]

    init_tok = _one_arg(rd, rd.take("init"), "state")
    final_tok = _one_arg(rd, rd.take("final"), "state")
    messages_line = rd.take("messages")
    messages = [_ident(rd, t, "message") for t in messages_line[1:]]

    state_set = set(states)
    msg_set = set(messages)
    if init_tok[0] not in state_set:
        raise rd.error(init_tok, f"initial state {init_tok[0]!r} not declared")
    if final_tok[0] not in state_set:
        raise rd.error(final_tok, f"final state {final_tok[0]!r} not declared")

    transitions: list[Transition] = []
    while not rd.done():
        line = rd.take("trans")
        if len(line) != 4:
            raise rd.error(line[0], "'trans' takes SRC ACTION DST")
        src_tok, act_tok, dst_tok = line[1], line[2], line[3]
        for tok in (src_tok, dst_tok):
            if tok[0] not in state_set:
                raise rd.error(tok, f"state {tok[0]!r} not declared")
        act_text = act_tok[0]
        if act_text == "tau":
            action = tau()
        elif act_text.startswith("!") or act_text.startswith("?"):
            msg = act_text[1:]
            if not _IDENT.match(msg):
                raise rd.error(act_tok, f"invalid message identifier {msg!r}")
            if msg not in msg_set:
                raise rd.error(act_tok, f"message {msg!r} not declared")
            action = send(msg) if act_text[0] == "!" else recv(msg)
        else:
            raise rd.error(act_tok, f"unknown action {act_text!r} (tau, !m or ?m)")
        transitions.append((src_tok[0], action, dst_tok[0]))

    try:
        return Protocol(name, states, messages, init_tok[0], final_tok[0], transitions)
    except ProtocolError as exc:
        raise ParseError(file, 1, 1, str(exc)) from exc


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


_OPS_TWO_TOKEN = {"inc": "inc", "dec": "dec", "nbdec": "nbdec", "zero?": "zerotest"}


def parse_machine(text: str, file: str = "<string>") -> CounterMachine:
    """Parse the ``.nbm`` counter machine format."""
    rd = _Reader(text, file)
    name = _ident(rd, _one_arg(rd, rd.take("machine"), "name"), "machine")

    loc_line = rd.take("locations")
    if len(loc_line) < 2:
        raise rd.error(loc_line[0], "'locations' needs at least one location")
    locations = [_ident(rd, t, "location") for t in loc_line[1:]]
    init_tok = _one_arg(rd, rd.take("init"), "location")
    counters = [_ident(rd, t, "counter") for t in rd.take("counters")[1:]]
    restore_tok = _one_arg(rd, rd.take("restore"), "flag")
    if restore_tok[0] not in ("on", "off"):
        raise rd.error(restore_tok, "restore must be 'on' or 'off'")

    loc_set = set(locations)
    ctr_set = set(counters)
    if init_tok[0] not in loc_set:
        raise rd.error(init_tok, f"initial location {init_tok[0]!r} not declared")

    transitions: list[MachineTransition] = []
    while not rd.done():
        line = rd.take("trans")
        if len(line) not in (4, 5):
            raise rd.error(line[0], "'trans' takes SRC OP [COUNTER] DST")
        src_tok, dst_tok = line[1], line[-1]
        for tok in (src_tok, dst_tok):
            if tok[0] not in loc_set:
                raise rd.error(tok, f"location {tok[0]!r} not declared")
        op_tok = line[2]
        if len(line) == 4:
            if op_tok[0] != "nop":
                raise rd.error(op_tok, f"operation {op_tok[0]!r} needs a counter")
            op = CounterOp("nop")
        else:
            if op_tok[0] not in _OPS_TWO_TOKEN:
                raise rd.error(op_tok, f"unknown operation {op_tok[0]!r}")
            ctr_tok = line[3]
            if ctr_tok[0] not in ctr_set:
                raise rd.error(ctr_tok, f"counter {ctr_tok[0]!r} not declared")
            op = CounterOp(_OPS_TWO_TOKEN[op_tok[0]], ctr_tok[0])
        transitions.append((src_tok[0], op, dst_tok[0]))

    return CounterMachine(
        name=name,
        locations=locations,
        counters=counters,
        init=init_tok[0],
        transitions=transitions,
        restore=restore_tok[0] == "on",
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


def _int_tokens(rd: _Reader, keyword: Token, toks: list[Token], want: int, what: str,
                signed: bool) -> tuple[int, ...]:
    if len(toks) != want:
        tok = toks[0] if toks else keyword  # an empty vector is reported at its line
        raise rd.error(tok, f"expected {want} {what} values, found {len(toks)}")
    out = []
    for tok in toks:
        text = tok[0]
        body = text[1:] if signed and text and text[0] in "+-" else text
        if not body.isdecimal():
            raise rd.error(tok, f"invalid {what} value {text!r}")
        value = int(text)
        if not signed and value < 0:
            raise rd.error(tok, f"{what} value must be non-negative")
        out.append(value)
    return tuple(out)


def parse_vas(text: str, file: str = "<string>") -> Vas:
    """Parse the ``.vas`` format for non-blocking vector addition systems."""
    rd = _Reader(text, file)
    head = rd.take("vas")
    if len(head) != 4 or head[2][0] != "dim":
        raise rd.error(head[0], "'vas' line must be: vas NAME dim D")
    name = _ident(rd, head[1], "vas")
    if not head[3][0].isdecimal() or int(head[3][0]) < 1:
        raise rd.error(head[3], "dimension must be a positive integer")
    dim = int(head[3][0])

    line = rd.take("init")
    v_init = _int_tokens(rd, line[0], line[1:], dim, "init", signed=False)
    line = rd.take("target")
    v_target = _int_tokens(rd, line[0], line[1:], dim, "target", signed=False)

    transitions = []
    while not rd.done():
        line = rd.take("trans")
        toks = line[1:]
        split = [i for i, t in enumerate(toks) if t[0] == ";"]
        if len(split) != 1:
            raise rd.error(line[0], "'trans' needs one ';' between blocking and non-blocking parts")
        t_b = _int_tokens(rd, line[0], toks[: split[0]], dim, "blocking", signed=True)
        t_nb = _int_tokens(rd, line[0], toks[split[0] + 1:], dim, "non-blocking", signed=False)
        transitions.append((t_b, t_nb))

    return Vas(name=name, dim=dim, transitions=tuple(sorted(set(transitions))),
               v_init=v_init, v_target=v_target)


def serialize_vas(v: Vas) -> str:
    lines = [
        f"vas {v.name} dim {v.dim}",
        "init " + " ".join(str(x) for x in v.v_init),
        "target " + " ".join(str(x) for x in v.v_target),
    ]
    for t_b, t_nb in v.transitions:
        left = " ".join(str(x) for x in t_b)
        right = " ".join(str(x) for x in t_nb)
        lines.append(f"trans {left} ; {right}")
    return "\n".join(lines) + "\n"
