"""Atomic modules: one-step nondeterministic register updates.

A module is a set of rules, each guessing one element out of a unary
conjunctive query's answer set into a register.  All rule bodies are
evaluated against the source letter before any register is written, and
everything a module does not write stays unchanged (inertia).  A module with
an empty answer set for any rule has no transition at all from that letter.

A letter is the input structure ``s`` under a register valuation ``r``:
the functions here take both, and :func:`apply_choice` returns the next
valuation.  A program compiles each of its modules once
(``Program.compiled``) into a :class:`CompiledModule`: per rule, the
generated answer and membership functions of its body (see ``cq``), and a
getter for the registers the bodies read.  The outcomes of a module depend
on the valuation only through those registers, so a search may reuse them
wherever they agree.  :func:`successor_choices` sorts only answer sets of
more than one element, and builds a one-rule module's choices straight from
its answer set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .cq import CQBody
from .errors import DuplicateSymbolError, StaleChoiceError
from .structures import Structure


@dataclass(frozen=True)
class Rule:
    head: str  # register written by this rule
    body: CQBody
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ModuleDef:
    name: str
    rules: tuple[Rule, ...]
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        heads = [r.head for r in self.rules]
        if len(set(heads)) != len(heads):
            raise DuplicateSymbolError(
                f"module {self.name} writes a register in more than one rule", self.line
            )
        if not self.rules:
            raise DuplicateSymbolError(f"module {self.name} has no rules", self.line)


class CompiledModule(NamedTuple):
    """A module compiled against one vocabulary: the registers its rules
    write (``heads``, in rule order), per rule its body's generated
    ``answers`` and ``member`` functions, and ``reads``, the getter of the
    registers the bodies read from a register valuation."""

    name: str
    heads: tuple[str, ...]
    answers: tuple[Callable, ...]
    members: tuple[Callable, ...]
    reads: Callable


@dataclass(frozen=True)
class Choice:
    """One resolved outcome of a module's guesses: element per written register."""

    module: str
    assignment: tuple[tuple[str, str], ...]  # (register, element) in rule order

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


def successor_choices(m: CompiledModule, s: Structure, r: tuple) -> tuple[Choice, ...]:
    """All outcomes of ``m`` at ``s`` under the valuation ``r``: the product
    of the rules' answer sets.

    Empty iff some rule has an empty answer set, in which case the module is
    undefined there.  Enumeration order is deterministic: element
    declaration order within each rule, rules in declaration order.
    """
    answers = []
    for rule in m.answers:
        found = rule(s, r)
        if not found:
            return ()
        answers.append(sorted(found, key=s.element_order) if len(found) > 1 else found)
    if len(answers) == 1:
        head = m.heads[0]
        return tuple([Choice(m.name, ((head, e),)) for e in answers[0]])
    return tuple(
        Choice(m.name, tuple(zip(m.heads, combo))) for combo in itertools.product(*answers)
    )


def check_choice(m: CompiledModule, s: Structure, r: tuple, c: Choice) -> None:
    """Raise ``StaleChoiceError`` unless ``c`` is an outcome of ``m`` at
    ``s`` under ``r``: it writes each register of ``m`` once, and nothing
    else, with an element of that rule's answer set.  Each element is tested
    with its rule's membership function; no answer set is built."""
    assigned = c.as_dict()
    if len(assigned) != len(c.assignment) or set(assigned) != set(m.heads):
        raise StaleChoiceError(f"choice for {c.module} writes the wrong registers")
    for head, member in zip(m.heads, m.members):
        if not member(s, r, assigned[head]):
            raise StaleChoiceError(
                f"choice {head}={assigned[head]} is not in the answer set of {c.module}"
            )


def apply_choice(s: Structure, r: tuple, c: Choice) -> tuple:
    """The valuation after ``c`` writes its elements into ``r``; all other
    registers keep their values.  The choice is not checked: see
    :func:`check_choice`."""
    rindex = s.vocabulary.register_index
    registers = list(r)
    for reg, value in c.assignment:
        registers[rindex[reg]] = value
    return tuple(registers)
