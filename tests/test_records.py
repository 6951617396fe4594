"""The value records are named tuples that read, hash and fail as frozen dataclasses did.

The input checks of the records and of the engines' entry points raise
their exact error types and messages.
"""

from __future__ import annotations

import pytest

from conftest import load_protocol
from nbrv.backward import first_population
from nbrv.explore import Problem, Verdict, Witness
from nbrv.gadgets import LevelContext, ProceduralMachine
from nbrv.machines import (
    CounterMachine,
    CounterOp,
    MachineError,
    Vas,
    VasError,
    cover_bounded,
)
from nbrv.model import (
    Action,
    Configuration,
    MalformedConfigurationError,
    Protocol,
    ProtocolError,
    StepLabel,
    tau,
)
from nbrv.reductions import TranslationReport, protocol_to_machine
from nbrv.waitonly import AbstractSet, conflict_free, decide_cover

C = Configuration((("q1", 2), ("q5", 1)))
FIG1 = load_protocol("fig1.rvp")
ZZ = Configuration((("zz", 1),))
MK = CounterMachine("mk", ["a", "b"], ["x"], "a", [("a", CounterOp("inc", "x"), "b")])

# One record of each class with its repr, the ``Name(field=value, ...)`` form.
REPRS = [
    (Action("send", "a"), "Action(kind='send', message='a')"),
    (C, "Configuration(items=(('q1', 2), ('q5', 1)))"),
    (StepLabel("nb", "a"), "StepLabel(kind='nb', message='a')"),
    (Problem("ccover", C),
     "Problem(kind='ccover', target=Configuration(items=(('q1', 2), ('q5', 1))))"),
    (Witness(Configuration((("q_in", 2),)), ((StepLabel("nb", "a"), C),)),
     "Witness(initial=Configuration(items=(('q_in', 2),)), steps=((StepLabel(kind='nb', "
     "message='a'), Configuration(items=(('q1', 2), ('q5', 1)))),))"),
    (Verdict("yes", None, 3, "", {"pops": 2}),
     "Verdict(answer='yes', witness=None, explored_bound=3, note='', stats={'pops': 2})"),
    (CounterOp("inc", "x"), "CounterOp(kind='inc', counter='x')"),
    (Vas("v", 2, (((0, -1), (1, 0)),), (0, 1), (1, 0)),
     "Vas(name='v', dim=2, transitions=(((0, -1), (1, 0)),), v_init=(0, 1), v_target=(1, 0))"),
    (AbstractSet(frozenset({"q_in"}), frozenset({("q1", "a")})),
     "AbstractSet(states=frozenset({'q_in'}), tokens=frozenset({('q1', 'a')}))"),
    (LevelContext.create(1, ("x",)),
     "LevelContext(levels=1, machine_counters=('x',), families=((('y_0', 'z_0', 's_0'), "
     "('ybar_0', 'zbar_0', 'sbar_0')),))"),
    (TranslationReport(3, 5, {"states": {"a": "b"}}),
     "TranslationReport(source_size=3, target_size=5, tables={'states': {'a': 'b'}})"),
]
RECORDS = [r for r, _ in REPRS]
# Verdict and TranslationReport hold a dict, so they have no hash.
HASHABLE = [r for r in RECORDS if not isinstance(r, (Verdict, TranslationReport))]


def name(record) -> str:
    return type(record).__name__


@pytest.mark.parametrize("record, text", REPRS, ids=[name(r) for r in RECORDS])
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=name)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", HASHABLE, ids=name)
def test_hash_is_the_hash_of_the_fields(record):
    # As for a frozen dataclass, so that set orders do not move.
    assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


# Each row names its test by the callable, a tag fixed in the row, the
# error type and the message, so that adding or removing a row renames no
# other test.  The tags of the rows below are the names they were first
# reported under.
VALIDATION_ERRORS = [
    ("args0", Action, ("wait",), ProtocolError, "unknown action kind 'wait'"),
    ("args1", Action, ("tau", "a"), ProtocolError, "internal actions carry no message"),
    ("args2", Action, ("send",), ProtocolError, "send action needs a message"),
    ("args3", Action, ("recv", ""), ProtocolError, "recv action needs a message"),
    ("args4", Configuration, ((),), MalformedConfigurationError, "configuration must be non-empty"),
    ("args5", Configuration, ((("q", 0),),), MalformedConfigurationError,
     "count for 'q' must be positive"),
    ("args6", Configuration, ((("b", 1), ("a", 1)),), MalformedConfigurationError,
     "configuration items must be sorted and unique"),
    ("args7", Configuration, ((("a", 1), ("a", 1)),), MalformedConfigurationError,
     "configuration items must be sorted and unique"),
    ("args8", Problem, ("cover",), ValueError, "unknown problem kind 'cover'"),
    ("args9", Problem, ("ccover",), ValueError, "ccover needs a target configuration"),
    ("args10", Problem, ("scover", C), ValueError, "scover takes no target configuration"),
    ("args11", CounterOp, ("mul", "x"), MachineError, "unknown counter op 'mul'"),
    ("args12", CounterOp, ("nop", "x"), MachineError, "nop takes no counter"),
    ("args13", CounterOp, ("inc",), MachineError, "inc needs a counter"),
    ("args14", Vas, ("v", 0, (), (), ()), VasError, "dimension must be at least 1"),
    ("args15", Vas, ("v", 2, (), (0,), (0, 0)), VasError, "vector arity mismatch"),
    ("args16", Vas, ("v", 2, (), (0, -1), (0, 0)), VasError,
     "init/target vectors must be non-negative"),
    ("args17", Vas, ("v", 2, (((0,), (0, 0)),), (0, 0), (0, 0)), VasError,
     "transition arity mismatch"),
    ("args18", Vas, ("v", 2, (((0, 0), (0, -1)),), (0, 0), (0, 0)), VasError,
     "the non-blocking part must be non-negative"),
    ("args19", AbstractSet, (frozenset({"q1", "q2"}), frozenset({("q2", "a"), ("q1", "b")})),
     ValueError, "token states may not be unbounded states: ['q1', 'q2']"),
    ("args20", Protocol, ("p", ["a"], [], "a", "a", [("a", tau(), "b")]), ProtocolError,
     "transition 'a' -> 'b' uses undeclared state"),
    ("args21", first_population, (FIG1, ZZ), MalformedConfigurationError,
     "state 'zz' not in protocol fig1"),
    ("args22", decide_cover, (FIG1, ZZ), MalformedConfigurationError,
     "state 'zz' not in protocol fig1"),
    ("args23", protocol_to_machine, (FIG1, ZZ), MalformedConfigurationError,
     "state 'zz' not in protocol fig1"),
    ("args24", CounterMachine, ("m", ["a"], ["x"], "b", []), MachineError,
     "initial location 'b' not declared"),
    ("args25", CounterMachine, ("m", ["a"], [], "a", [("a", CounterOp("inc", "x"), "a")]),
     MachineError, "undeclared counter 'x'"),
    ("args26", CounterMachine, ("m", ["a"], [], "a", [("a", CounterOp("nop"), "b")]), MachineError,
     "transition 'a' -> 'b' uses undeclared location"),
    ("args27", CounterMachine.target, (MK, "zz"), MachineError, "unknown target location 'zz'"),
    ("args28", cover_bounded, (MK, "b", -1), ValueError, "cap must be non-negative"),
    ("args29", ProceduralMachine, ("f", ["a", "b"], ["x"], [], "a", ["c"]), MachineError,
     "outs must be declared locations"),
    ("args30", conflict_free,
     (AbstractSet(frozenset({"q_in"}), frozenset({("q1", "a")})), FIG1, "q1", "q2"),
     ValueError, "'q1' and 'q2' must both carry tokens"),
]


def validation_id(row) -> str:
    tag, cls, _args, error, message = row
    return f"{cls.__name__}-{tag}-{error.__name__}-{message}"


@pytest.mark.parametrize("cls, args, error, message", [row[1:] for row in VALIDATION_ERRORS],
                         ids=[validation_id(row) for row in VALIDATION_ERRORS])
def test_validation_errors(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message


def test_keyword_construction_validates_too():
    assert Action(kind="recv", message="m") == Action("recv", "m")
    with pytest.raises(ProtocolError):
        Action(kind="tau", message="m")


def test_default_dicts_are_not_shared():
    a, b = Verdict("no"), Verdict("no")
    assert a.stats == {} and a.stats is not b.stats
    a.stats["pops"] = 1
    assert b.stats == {} and Verdict("no").stats == {}
    r, s = TranslationReport(1, 2), TranslationReport(1, 2)
    assert r.tables == {} and r.tables is not s.tables
