"""Atomic modules: one-step nondeterministic register updates.

A module is a set of rules, each guessing one element out of a unary
conjunctive query's answer set into a register.  All rule bodies are
evaluated against the source structure before any register is written, and
everything a module does not write stays unchanged (inertia).  A module with
an empty answer set for any rule has no transition at all from that
structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cq import CQBody, evaluate_unary_cq
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


@dataclass(frozen=True)
class Choice:
    """One resolved outcome of a module's guesses: element per written register."""

    module: str
    assignment: tuple[tuple[str, str], ...]  # (register, element) in rule order

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


def _answer_sets(m: ModuleDef, s: Structure) -> list[list[str]] | None:
    """Per-rule answers in deterministic element order, or None if any is empty."""
    order = s.element_order
    out: list[list[str]] = []
    for rule in m.rules:
        answers = evaluate_unary_cq(rule.body, s)
        if not answers:
            return None
        out.append(sorted(answers, key=order))
    return out


def successor_choices(m: ModuleDef, s: Structure) -> tuple[Choice, ...]:
    """All outcomes of ``m`` at ``s``: the product of the rules' answer sets.

    Empty iff some rule has an empty answer set, in which case the module is
    undefined at ``s``.  Enumeration order is deterministic: element
    declaration order within each rule, rules in declaration order.
    """
    answers = _answer_sets(m, s)
    if answers is None:
        return ()
    heads = [r.head for r in m.rules]
    return tuple(
        Choice(m.name, tuple(zip(heads, combo))) for combo in itertools.product(*answers)
    )


def apply_choice(s: Structure, c: Choice, module: ModuleDef | None = None) -> Structure:
    """Write the chosen elements; all other registers keep their values.

    When ``module`` is supplied the choice is re-validated against the answer
    sets on ``s`` (used during certificate replay).
    """
    if module is not None:
        if module.name != c.module:
            raise StaleChoiceError(f"choice for {c.module} applied to module {module.name}")
        assigned = c.as_dict()
        if len(assigned) != len(c.assignment) or set(assigned) != {r.head for r in module.rules}:
            raise StaleChoiceError(f"choice for {c.module} writes the wrong registers")
        for rule in module.rules:
            if assigned[rule.head] not in evaluate_unary_cq(rule.body, s):
                raise StaleChoiceError(
                    f"choice {rule.head}={assigned[rule.head]} is not in the answer set of {c.module}"
                )
    rindex = s.vocabulary.register_index
    registers = list(s.registers)
    for reg, value in c.assignment:
        registers[rindex[reg]] = value
    return s.with_registers(tuple(registers))
