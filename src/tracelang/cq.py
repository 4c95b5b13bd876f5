"""Unary conjunctive-query evaluation against one structure.

A query body is a conjunction of atoms over EDB symbols, registers and the
built-in ``adom``; its answer set is the set of domain elements that the head
variable can take under some assignment of the existential variables.  Module
guesses pick single elements out of these answer sets.

Each body is compiled once per vocabulary into a join plan, which checks the
body's symbols and arities: register atoms, which hold at most one tuple,
come first, then atoms with the most arguments bound.  An EDB atom with some
arguments bound is answered by one lookup in a hash index keyed by its
bound-position pattern; an atom with every argument bound is a membership
test.  Indexes are built lazily over EDB tables only, never over register
values, and shared by every letter that ``with_registers`` derives from one
structure: the EDB never changes along a trace.  Every bundled rule body is
acyclic, so one lookup per bound atom suffices (Yannakakis, VLDB 1981).  The
answer-set contract does not depend on the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .errors import ArityError, HeadVarUnusedError, UnknownSymbolError
from .structures import ADOM, Structure, Vocabulary


@dataclass(frozen=True)
class Const:
    """An element constant in an atom argument position."""

    value: str


Arg = Union[str, Const]  # str = variable name


@dataclass(frozen=True)
class Atom:
    symbol: str
    args: tuple[Arg, ...]


@dataclass(frozen=True)
class CQBody:
    """Body of a unary query: conjunction of atoms with a designated head variable."""

    head_var: str
    atoms: tuple[Atom, ...]

    def variables(self) -> frozenset[str]:
        return frozenset(a for atom in self.atoms for a in atom.args if isinstance(a, str))


def free_and_bound_vars(body: CQBody) -> tuple[str, frozenset[str]]:
    """Split the body's variables into the head variable and the existential rest."""
    all_vars = body.variables()
    if body.head_var not in all_vars:
        raise HeadVarUnusedError(f"head variable {body.head_var} does not occur in the body")
    return body.head_var, all_vars - {body.head_var}


# Step kinds: where an atom's tuples come from.
_EDB, _REG, _ADOM = 0, 1, 2


@dataclass(frozen=True)
class _Plan:
    """A compiled body.  ``env`` holds one slot per variable and per
    constant (constants prefilled).  Each step is ``(kind, ref, positions,
    key_slots, outs)``: ``ref`` is the EDB symbol or register index,
    ``positions`` the argument positions bound before the step and
    ``key_slots`` their slots, ``outs`` the ``(position, slot, binds)`` of
    the other positions in order (``binds`` false: repeated variable, check).
    ``head_step`` is the step that binds the head variable."""

    steps: tuple[tuple, ...]
    env: tuple
    head_slot: int
    head_step: int


def compile_body(body: CQBody, vocab: Vocabulary) -> _Plan:
    """The join plan of ``body`` over ``vocab``; raises ``UnknownSymbolError``,
    ``ArityError`` or ``HeadVarUnusedError`` for a body that does not fit."""
    for atom in body.atoms:
        if atom.symbol != ADOM and not vocab.is_declared(atom.symbol):
            raise UnknownSymbolError(f"unknown symbol {atom.symbol}")
        if len(atom.args) != vocab.arity(atom.symbol):
            raise ArityError(
                f"atom {atom.symbol}/{len(atom.args)} does not match arity {vocab.arity(atom.symbol)}"
            )
    free_and_bound_vars(body)

    slots: dict[Arg, int] = {}
    env: list = []
    for atom in body.atoms:
        for a in atom.args:
            if isinstance(a, Const) and a not in slots:
                slots[a] = len(env)
                env.append(a.value)
    bound = set(slots)  # constants are always bound

    def rank(atom: Atom) -> int:
        if all(a in bound for a in atom.args):
            return 0  # membership test
        if vocab.is_register(atom.symbol):
            return 1  # at most one tuple
        return 2 if any(a in bound for a in atom.args) else 3  # lookup, scan

    pending = list(body.atoms)
    steps = []
    head_step = -1
    while pending:
        atom = min(pending, key=rank)  # ties keep body order
        pending.remove(atom)
        positions = tuple(i for i, a in enumerate(atom.args) if a in bound)
        outs = []
        for i, a in enumerate(atom.args):
            if a in bound and i not in positions:
                outs.append((i, slots[a], False))  # repeated within this atom
            elif a not in bound:
                slots[a] = len(env)
                env.append(None)
                bound.add(a)
                outs.append((i, slots[a], True))
        if atom.symbol == ADOM:
            kind, ref = _ADOM, None
        elif vocab.is_register(atom.symbol):
            kind, ref = _REG, vocab.register_index[atom.symbol]
        else:
            kind, ref = _EDB, atom.symbol
        if body.head_var in bound and head_step < 0:
            head_step = len(steps)
        steps.append((kind, ref, positions, tuple(slots[atom.args[i]] for i in positions), tuple(outs)))
    return _Plan(tuple(steps), tuple(env), slots[body.head_var], head_step)


# Evaluation's plans.  The parser memoizes its checks apart, so each key here
# holds the objects a run passes, and a lookup with the very objects of its
# key skips comparing them field by field, which costs more than the rest.
_plan = lru_cache(maxsize=1024)(compile_body)


def _index(s: Structure, symbol: str, positions: tuple[int, ...]) -> dict:
    """Hash index of one EDB table by the values at ``positions``."""
    key = (symbol, positions)
    index = s._index.get(key)
    if index is None:
        index = {}
        for tup in s.edb[symbol]:
            index.setdefault(tuple(tup[p] for p in positions), []).append(tup)
        s._index[key] = index
    return index


def evaluate_unary_cq(body: CQBody, s: Structure) -> frozenset[str]:
    """Answer set of the body on ``s``: all head-variable values with a match.

    Register atoms hold only when the register is non-blank; ``adom`` holds of
    every domain element.  Raises as :func:`compile_body` does.
    """
    plan = _plan(body, s.vocabulary)
    steps = plan.steps
    nsteps = len(steps)
    head_slot, head_step = plan.head_slot, plan.head_step
    env = list(plan.env)
    answers: set[str] = set()

    def rec(i: int) -> None:
        if i == nsteps:
            answers.add(env[head_slot])
            return
        if i == head_step + 1 and env[head_slot] in answers:
            return  # the rest only re-proves a known answer
        kind, ref, positions, key_slots, outs = steps[i]
        if kind == _EDB:
            table = s.edb[ref]
        elif kind == _REG:
            v = s.registers[ref]
            table = () if v is None else ((v,),)
        else:
            table = s.adom_tuples
        if not positions:
            candidates = table
        else:
            key = tuple(env[k] for k in key_slots)
            if not outs:
                candidates = (key,) if key in table else ()
            else:
                candidates = _index(s, ref, positions).get(key, ())
        for tup in candidates:
            for pos, slot, binds in outs:
                if binds:
                    env[slot] = tup[pos]
                elif env[slot] != tup[pos]:
                    break
            else:
                rec(i + 1)

    rec(0)
    return frozenset(answers)
