"""Differential test of the file parsers and the configuration literal.

Every row of ``golden/parse_mutations.txt`` is the outcome of parsing one
seeded one-edit mutation of a valid input: ``OK`` with the canonical
re-serialisation, or the exception type and message (for a ``ParseError``,
the message carries the file, line and column).  The inputs are the shipped
protocols and serialisations of seeded random protocols, machines and VAS;
the edits insert, replace or delete one character, and the inserted junk is
chosen to probe the tokenizer's notion of whitespace, comments, line breaks
and digits.

After a deliberate change of a format or of an error message, regenerate the
file with ``PYTHONPATH=src python tests/test_parse_mutations.py`` and review
the diff row by row.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from helpers import random_config, random_machine, random_protocol, random_vas
from nbrv import fileio

GOLDEN = Path(__file__).parent / "golden" / "parse_mutations.txt"
PROTOCOL_DIR = Path(__file__).parent.parent / "protocols"
SHIPPED = ("fig1.rvp", "p1.rvp", "p2.rvp")
JUNK = ("\t", "\x0b", "\x1c", "　", "#", "\r\n", "²", ";", "-1")


def mutate(rng: random.Random, text: str) -> str:
    """One edit of ``text``: insert junk, replace a character by junk, or delete one."""
    pos = rng.randrange(len(text) + 1)
    edit = rng.randrange(3)
    if edit == 0 or pos == len(text):
        return text[:pos] + rng.choice(JUNK) + text[pos:]
    if edit == 1:
        return text[:pos] + rng.choice(JUNK) + text[pos + 1:]
    return text[:pos] + text[pos + 1:]


def inputs(fig1):
    """``(tag, format, text)`` triples, in a fixed order."""
    rng = random.Random(20231)
    bases = [(name, "rvp", (PROTOCOL_DIR / name).read_text()) for name in SHIPPED]
    bases += [(f"protocol{i}", "rvp", fileio.serialize_protocol(random_protocol(rng)))
              for i in range(20)]
    bases += [(f"machine{i}", "nbm",
               fileio.serialize_machine(random_machine(rng, restore=rng.random() < 0.5)))
              for i in range(20)]
    bases += [(f"vas{i}", "vas", fileio.serialize_vas(random_vas(rng))) for i in range(20)]
    bases += [(f"config{i}", "config", str(random_config(rng, fig1, max_items=4)))
              for i in range(20)]
    for name, fmt, text in bases:
        for k in range(100 if name in SHIPPED else 30):
            yield f"{name}/{k}", fmt, mutate(rng, text)


def outcome(fmt: str, text: str, fig1) -> str:
    try:
        if fmt == "rvp":
            return "OK " + fileio.serialize_protocol(fileio.parse_protocol(text, "in.rvp"))
        if fmt == "nbm":
            return "OK " + fileio.serialize_machine(fileio.parse_machine(text, "in.nbm"))
        if fmt == "vas":
            return "OK " + fileio.serialize_vas(fileio.parse_vas(text, "in.vas"))
        return "OK " + str(fileio.parse_config(text, fig1, "--target"))
    except Exception as exc:  # noqa: BLE001 - the row records whatever escapes
        return f"{type(exc).__name__}: {exc}"


def rows() -> list[str]:
    fig1 = fileio.parse_protocol((PROTOCOL_DIR / "fig1.rvp").read_text())
    return [json.dumps([tag, outcome(fmt, text, fig1)]) for tag, fmt, text in inputs(fig1)]


def test_parse_outcomes_match_golden():
    got = rows()
    want = GOLDEN.read_text().splitlines()
    assert len(got) == len(want) >= 2000
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, f"{len(diff)} rows differ, first: {diff[0]}"


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(rows()) + "\n")
