"""Verification toolkit for networks communicating by non-blocking rendez-vous.

Subpackages by theme: :mod:`nbrv.model` (protocol semantics),
:mod:`nbrv.explore` (bounded exhaustive search), :mod:`nbrv.backward`
(exact coverability by backward search), :mod:`nbrv.waitonly`
(polynomial-time coverability for wait-only protocols), :mod:`nbrv.machines`
(counter machines and non-blocking VAS), :mod:`nbrv.reductions` (model to
model compilers), :mod:`nbrv.gadgets` (nested counter-bounding machinery),
:mod:`nbrv.fileio` (text formats) and :mod:`nbrv.cli`.
"""

from .model import (
    Action,
    Configuration,
    Protocol,
    StepLabel,
    recv,
    send,
    successors,
    tau,
)

__all__ = [
    "Action",
    "Configuration",
    "Protocol",
    "StepLabel",
    "recv",
    "send",
    "successors",
    "tau",
]

__version__ = "0.1.0"
