from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PROTOCOL_DIR
from helpers import model_key, random_config, random_machine, random_protocol, random_vas
from nbrv.cli import EXIT_PARSE, main
from nbrv.fileio import (
    ParseError,
    parse_config,
    parse_machine,
    parse_protocol,
    parse_vas,
    serialize_machine,
    serialize_protocol,
    serialize_vas,
    vector_text,
)
from nbrv.machines import INC, CounterOp, Vas
from nbrv.model import Configuration


def labels_by_text(transitions) -> dict[str, int]:
    """The number of distinct label objects that carry each label text."""
    ids: dict[str, set[int]] = {}
    for _src, label, _dst in transitions:
        ids.setdefault(str(label), set()).add(id(label))
    return {text: len(objects) for text, objects in ids.items()}


class TestProtocolFormat:
    def test_shipped_fig1_contents(self, fig1):
        assert len(fig1.states) == 7
        assert len(fig1.messages) == 3
        assert len(fig1.transitions) == 7
        assert fig1.init == "q_in" and fig1.final == "q1"

    def test_missing_init_line(self):
        text = "protocol p\nstates a\nfinal a\nmessages\n"
        with pytest.raises(ParseError) as exc:
            parse_protocol(text, "x.rvp")
        assert exc.value.line == 3

    def test_undeclared_message_in_trans(self):
        text = ("protocol p\nstates a b\ninit a\nfinal b\nmessages m\n"
                "trans a !x b\n")
        with pytest.raises(ParseError) as exc:
            parse_protocol(text, "x.rvp")
        assert exc.value.line == 6
        assert exc.value.column == 9

    @pytest.mark.parametrize("space", ["\t", "\u3000", "\x1f", "  "])
    def test_column_after_any_whitespace(self, space):
        text = (f"protocol p\nstates a b\ninit a\nfinal b\nmessages m\n"
                f"trans{space}a{space}!m{space}c # !x\n")
        with pytest.raises(ParseError) as exc:
            parse_protocol(text, "x.rvp")
        assert (exc.value.line, exc.value.column) == (6, 12 + 3 * (len(space) - 1))

    def test_undeclared_state_in_trans(self):
        text = ("protocol p\nstates a b\ninit a\nfinal b\nmessages m\n"
                "trans a !m c\n")
        with pytest.raises(ParseError) as exc:
            parse_protocol(text, "x.rvp")
        assert exc.value.line == 6

    def test_comments_and_blank_lines(self):
        text = ("# header\nprotocol p\n\nstates a b  # trailing\ninit a\n"
                "final b\nmessages\ntrans a tau b\n")
        p = parse_protocol(text)
        assert p.taus == (("a", "b"),)

    def test_duplicate_trans_idempotent(self):
        text = ("protocol p\nstates a b\ninit a\nfinal b\nmessages m\n"
                "trans a !m b\ntrans a !m b\n")
        assert len(parse_protocol(text).transitions) == 1

    def test_identifier_lexical_rule(self):
        with pytest.raises(ParseError):
            parse_protocol("protocol 1p\nstates a\ninit a\nfinal a\nmessages\n")
        p = parse_protocol("protocol p\nstates q' _x\ninit q'\nfinal _x\nmessages\n")
        assert set(p.states) == {"q'", "_x"}

    def test_recurring_action_text_is_read_once(self):
        text = ("protocol p\nstates a b c\ninit a\nfinal c\nmessages m n\n"
                "trans a !m b\ntrans b !m c\ntrans c ?m a\ntrans a !n c\ntrans b ?m a\n")
        p = parse_protocol(text)
        assert len(p.transitions) == 5
        assert labels_by_text(p.transitions) == {"!m": 1, "?m": 1, "!n": 1}

    def test_round_trip(self):
        rng = random.Random(81)
        for _ in range(60):
            p = random_protocol(rng)
            assert model_key(parse_protocol(serialize_protocol(p))) == model_key(p)

    def test_serialized_is_canonical(self, p2):
        text = serialize_protocol(p2)
        assert model_key(parse_protocol(text)) == model_key(p2)
        assert serialize_protocol(parse_protocol(text)) == text


class TestConfigLiteral:
    def test_counts_and_defaults(self, fig1):
        c = parse_config("q1:2,q4,q5", fig1)
        assert c == Configuration.from_counts({"q1": 2, "q4": 1, "q5": 1})

    def test_default_count_one(self, fig1):
        assert parse_config("q_in", fig1) == Configuration((("q_in", 1),))

    def test_zero_count_rejected(self, fig1):
        with pytest.raises(ParseError):
            parse_config("q1:0", fig1)

    def test_unknown_state_rejected(self, fig1):
        with pytest.raises(ParseError):
            parse_config("nope", fig1)

    def test_duplicates_sum(self, fig1):
        assert parse_config("q1,q1:2", fig1) == Configuration((("q1", 3),))

    def test_empty_rejected(self, fig1):
        with pytest.raises(ParseError):
            parse_config("", fig1)

    def test_round_trip(self, fig1):
        c = Configuration.from_counts({"q1": 2, "q5": 1})
        assert parse_config(str(c), fig1) == c

    def error(self, text, p):
        with pytest.raises(ParseError) as exc:
            parse_config(text, p)
        return exc.value.line, exc.value.column, exc.value.message

    def test_column_after_blanks_around_earlier_item(self, p1):
        assert self.error("q1 , zz", p1) == (1, 6, "state 'zz' not in protocol p1")

    def test_column_after_leading_blanks(self, p1):
        assert self.error("  q1,zz", p1) == (1, 6, "state 'zz' not in protocol p1")

    def test_column_of_empty_item(self, p1):
        assert self.error("q1:1 ,,q2", p1) == (1, 7, "empty configuration item")


class TestMachineFormat:
    def test_round_trip(self):
        rng = random.Random(82)
        for _ in range(60):
            m = random_machine(rng, restore=rng.random() < 0.5)
            assert model_key(parse_machine(serialize_machine(m))) == model_key(m)

    def test_ops_of_four_and_five_word_lines_are_read_once(self):
        text = ("machine m\nlocations a b c\ninit a\ncounters x y\nrestore off\n"
                "trans a nop b\ntrans b inc x c\ntrans c inc y a\n"
                "trans b nop c\ntrans a inc x c\ntrans a inc y b\n")
        m = parse_machine(text)
        assert len(m.transitions) == 6
        assert labels_by_text(m.transitions) == {"nop": 1, "inc x": 1, "inc y": 1}
        ops = {str(op): op for _s, op, _d in m.transitions}
        assert ops["inc x"] == CounterOp(INC, "x") != ops["inc y"] == CounterOp(INC, "y")

    def test_all_op_spellings(self):
        text = ("machine m\nlocations a b\ninit a\ncounters x\nrestore off\n"
                "trans a nop b\ntrans a inc x b\ntrans a dec x b\n"
                "trans a nbdec x b\ntrans a zero? x b\n")
        m = parse_machine(text)
        kinds = sorted(op.kind for _s, op, _d in m.transitions)
        assert kinds == ["dec", "inc", "nbdec", "nop", "zerotest"]

    def test_canonical_order_lists_nbdec_last(self):
        head = "machine m\nlocations a b c\ninit a\ncounters x y\nrestore off\n"
        text = head + ("trans b nbdec y c\ntrans a nbdec x b\n"
                       "trans c nop a\ntrans a inc x b\n")
        canonical = head + ("trans a inc x b\ntrans c nop a\n"
                            "trans a nbdec x b\ntrans b nbdec y c\n")
        assert serialize_machine(parse_machine(text)) == canonical
        assert serialize_machine(parse_machine(canonical)) == canonical

    def test_restore_flag(self):
        base = "machine m\nlocations a\ninit a\ncounters\nrestore {}\n"
        assert parse_machine(base.format("on")).restore is True
        assert parse_machine(base.format("off")).restore is False
        with pytest.raises(ParseError):
            parse_machine(base.format("maybe"))

    def test_undeclared_counter(self):
        text = ("machine m\nlocations a\ninit a\ncounters x\nrestore off\n"
                "trans a inc y a\n")
        with pytest.raises(ParseError) as exc:
            parse_machine(text)
        assert exc.value.line == 6

    @pytest.mark.parametrize("line, error", [
        ("trans a nop zz", "6:13: location 'zz' not declared"),
        ("trans a inc x zz", "6:15: location 'zz' not declared"),
        ("trans zz inc x b", "6:7: location 'zz' not declared"),
    ])
    def test_undeclared_location_is_reported_at_its_word(self, line, error):
        text = f"machine m\nlocations a b\ninit a\ncounters x\nrestore off\n{line}\n"
        with pytest.raises(ParseError) as exc:
            parse_machine(text, "x")
        assert str(exc.value) == f"x:{error}"

    @pytest.mark.parametrize("op, error", [
        ("nop x", "6:9: operation 'nop' takes no counter"),
        ("inc", "6:9: operation 'inc' needs a counter"),
        ("np", "6:9: unknown operation 'np'"),
    ])
    def test_counter_arity(self, op, error):
        text = f"machine m\nlocations a b\ninit a\ncounters x\nrestore off\ntrans a {op} b\n"
        with pytest.raises(ParseError) as exc:
            parse_machine(text, "x")
        assert str(exc.value) == f"x:{error}"


class TestVasFormat:
    def test_parse_and_round_trip(self):
        text = ("vas v dim 2\ninit 1 0\ntarget 0 1\n"
                "trans -1 1 ; 0 0\ntrans 1 0 ; 0 2\n")
        v = parse_vas(text)
        assert v.dim == 2 and len(v.transitions) == 2
        assert parse_vas(serialize_vas(v)) == v

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_vas("vas v dim 2\ninit 1\ntarget 0 1\n")

    @pytest.mark.parametrize("text, position, what", [
        ("vas v dim 2\ninit# 1 0\ntarget 0 1\n", "2:1", "init"),
        ("vas v dim 2\ninit 1 0\ntarget\ntrans -1 1 ; 0 0\n", "3:1", "target"),
        ("vas v dim 2\ninit 1 0\ntarget 0 1\n  trans ; 0 0\ntrans 1 0 ; 0 2\n", "4:3", "blocking"),
        ("vas v dim 2\ninit 1 0\ntarget 0 1\ntrans -1 1 ;\ntrans 1 0 ; 0 2\n", "4:1",
         "non-blocking"),
    ], ids=["init", "target", "blocking", "non-blocking"])
    def test_empty_vector_reported_at_its_keyword(self, text, position, what):
        with pytest.raises(ParseError) as exc:
            parse_vas(text, "x.vas")
        assert str(exc.value) == f"x.vas:{position}: expected 2 {what} values, found 0"

    def test_negative_nonblocking_rejected(self):
        with pytest.raises(ParseError):
            parse_vas("vas v dim 1\ninit 0\ntarget 1\ntrans 1 ; -1\n")

    def test_round_trip_canonical(self):
        v = Vas("v", 2, (((-1, 1), (0, 0)), ((1, 0), (0, 2))), (1, 0), (0, 1))
        assert parse_vas(serialize_vas(v)) == v
        assert serialize_vas(parse_vas(serialize_vas(v))) == serialize_vas(v)

    # Each word as the second value of a blocking and of a non-blocking
    # part, with the value it gets there, or ``None`` where it is rejected.
    # The one-digit numerals are converted by table lookup and every other
    # word by the check of each word; the outcomes are those of that check
    # alone.  "\uff11" is a full-width 1, "\u0663" an Arabic-Indic 3 and
    # "\u00b2" a superscript 2, which is a digit but not a decimal.
    NUMERALS = [
        ("0", 0, 0), ("+0", 0, None), ("-0", 0, None), ("7", 7, 7), ("+7", 7, None),
        ("-7", -7, None), ("007", 7, 7), ("10", 10, 10), ("-13", -13, None),
        ("\uff11", 1, 1), ("\u0663", 3, 3), ("\u00b2", None, None), ("1_0", None, None),
        ("+", None, None), ("-", None, None), ("--1", None, None), ("+-1", None, None),
    ]

    @pytest.mark.parametrize("word, blocking, non_blocking", NUMERALS,
                             ids=[ascii(w) for w, _b, _n in NUMERALS])
    def test_numerals(self, word, blocking, non_blocking):
        for part, want, line, column in (
                ("blocking", blocking, f"trans 1 {word} ; 0 0", 9),
                ("non-blocking", non_blocking, f"trans 1 0 ; 0 {word}", 15)):
            text = f"vas v dim 2\ninit 0 0\ntarget 0 1\n{line}\n"
            if want is None:
                with pytest.raises(ParseError) as exc:
                    parse_vas(text, "x")
                assert str(exc.value) == f"x:4:{column}: invalid {part} value {word!r}"
            else:
                (t_b, t_nb), = parse_vas(text, "x").transitions
                assert (t_b, t_nb)[part != "blocking"][1] == want

    def test_vector_text(self):
        rng = random.Random(11)
        for _ in range(300):
            xs = tuple(rng.choice((0, 0, 0, 1, -1, 9, -10, 12, 345, -6789))
                       for _ in range(rng.randint(0, 40)))
            assert vector_text(xs) == " ".join(map(str, xs))


@pytest.mark.parametrize("parse, text, error", [
    (parse_protocol, "protocol p\nstates a\ninit a\nfinal a\nmessages\ntrans a !m a\nfinal a\n",
     "x:6:9: message 'm' not declared"),
    (parse_machine, "machine m\nlocations a\ninit a\ncounters\nrestore off\n"
     "trans a inc x a\ninit a\n", "x:6:13: counter 'x' not declared"),
    (parse_vas, "vas v dim 1\ninit 0\ntarget 1\ntrans 1 ; x\ntarget 1\n",
     "x:4:11: invalid non-blocking value 'x'"),
], ids=["rvp", "nbm", "vas"])
def test_bad_trans_line_is_reported_before_a_later_stray_line(parse, text, error):
    # Lines are checked in file order: the stray header line after the bad
    # ``trans`` line is never reached.
    with pytest.raises(ParseError) as exc:
        parse(text, "x")
    assert str(exc.value) == error


def render(rng: random.Random, canonical: str, newline: str) -> str:
    """A non-canonical text of the same model: the header lines in order, the
    ``trans`` lines shuffled with some repeated, words split by spaces and
    tabs, comments, blank lines and ``newline`` line ends."""
    lines = canonical.splitlines()
    head = [line for line in lines if not line.startswith("trans ")]
    body = [line for line in lines if line.startswith("trans ")]
    body += rng.sample(body, rng.randint(0, len(body)))
    rng.shuffle(body)
    out = []
    for line in head + body:
        if rng.random() < 0.3:
            out.append(rng.choice(["", "  \t", "# a comment", "\t# trans x !y z"]))
        gaps = [rng.choice([" ", "\t", "  ", " \t "]) for _ in line.split()]
        words = "".join(w + g for w, g in zip(line.split(), gaps)).rstrip()
        lead = rng.choice(["", " ", "\t"])
        tail = rng.choice(["", " ", "\t# trailing # comment"])
        out.append(lead + words + tail)
    return newline.join(out) + rng.choice(["", newline, newline + "# end"])


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_non_canonical_renderings_parse_to_the_same_model(newline):
    rng = random.Random(4242)
    cases = [(parse_protocol, serialize_protocol, random_protocol(rng)) for _ in range(40)]
    cases += [(parse_machine, serialize_machine,
               random_machine(rng, restore=rng.random() < 0.5)) for _ in range(40)]
    # A parsed VAS keeps its transitions sorted and unique.
    cases += [(parse_vas, serialize_vas, v._replace(transitions=tuple(sorted(set(v.transitions)))))
              for v in (random_vas(rng) for _ in range(40))]
    for parse, serialize, model in cases:
        canonical = serialize(model)
        text = render(rng, canonical, newline)
        assert text != canonical
        parsed = parse(text)
        assert model_key(parsed) == model_key(model), text
        assert serialize(parsed) == canonical


FIG1 = parse_protocol((PROTOCOL_DIR / "fig1.rvp").read_text())


def _mutation_bases() -> list[tuple[str, str]]:
    """``(format, text)`` pairs of valid inputs: the shipped protocols and
    serialisations of seeded random models and configuration literals."""
    rng = random.Random(5151)
    bases = [("rvp", (PROTOCOL_DIR / name).read_text())
             for name in ("fig1.rvp", "p1.rvp", "p2.rvp")]
    bases += [("rvp", serialize_protocol(random_protocol(rng))) for _ in range(4)]
    bases += [("nbm", serialize_machine(random_machine(rng, restore=rng.random() < 0.5)))
              for _ in range(4)]
    bases += [("vas", serialize_vas(random_vas(rng))) for _ in range(4)]
    bases += [("config", str(random_config(rng, FIG1, max_items=4))) for _ in range(4)]
    return bases


MUTATION_BASES = _mutation_bases()
# Characters that probe the reader's notions of words, lines, comments,
# numbers and identifiers.
JUNK = st.text(st.sampled_from(list(" \t\n\r\x0b\x0c\x1c\x85\u2028\u3000#;:,!?+-\u00b20159q_'x")),
               max_size=6)
# One edit: at a position (taken modulo the text's length), replace a span of
# up to five characters by a junk string; an empty span inserts, empty junk deletes.
EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 5), JUNK), min_size=1,
                 max_size=4)


def mutated(base: int, edits) -> tuple[str, str]:
    fmt, text = MUTATION_BASES[base]
    for pos, span, junk in edits:
        pos %= len(text) + 1
        text = text[:pos] + junk + text[pos + span:]
    return fmt, text


def parse_as(fmt: str, text: str):
    if fmt == "rvp":
        return parse_protocol(text, "in.rvp")
    if fmt == "nbm":
        return parse_machine(text, "in.nbm")
    if fmt == "vas":
        return parse_vas(text, "in.vas")
    return parse_config(text, FIG1)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, len(MUTATION_BASES) - 1), EDITS)
def test_mutated_inputs_raise_only_parse_errors(mutation_dir, base, edits):
    """Multi-character edits of valid inputs parse or raise ``ParseError``; on
    the CLI a ``ParseError`` exits 2 with one ``error:`` line on stderr."""
    fmt, text = mutated(base, edits)
    try:
        parse_as(fmt, text)
    except ParseError:
        pass
    else:
        return
    path = mutation_dir / f"in.{fmt}"
    path.write_bytes(text.encode())
    argv = {
        "rvp": ["abstract", str(path)],
        "nbm": ["explore", "machine", str(path), "--loc", "l0", "--cap", "1"],
        "vas": ["explore", "vas", str(path), "--cap", "1"],
        "config": ["check", "ccover", str(PROTOCOL_DIR / "fig1.rvp"), f"--target={text}"],
    }[fmt]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_PARSE
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
