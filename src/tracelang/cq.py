"""Unary conjunctive queries, compiled to Python functions.

A query body is a conjunction of atoms over EDB symbols, registers and the
built-in ``adom``; its answer set is the set of domain elements that the head
variable can take under some assignment of the existential variables.  Module
guesses pick single elements out of these answer sets.

Each body is compiled once per vocabulary (:func:`compile_body`), which checks
its symbols and arities, into two generated functions.  ``answers(s, r)`` is
the answer set on the structure ``s`` under the register valuation ``r``.
``member(s, r, e)`` tells whether ``e`` is in it, with the head bound
first, so that a bound head turns the query into a Boolean check (Yannakakis,
VLDB 1981).  Both follow a join plan, one nested loop or test per atom
(Neumann, *Efficiently compiling efficient query plans for modern hardware*,
PVLDB 2011): atoms with every argument bound come first, as membership tests,
then register atoms, which hold at most one tuple, then atoms with some
argument bound, then scans; ties keep body order.  An EDB atom with some
arguments bound is answered by one lookup in a hash index keyed by its
bound-position pattern.  Indexes are built lazily over EDB tables only, never
over register values, and kept on the structure: a run passes its input
structure with each letter's valuation, so one set of indexes serves every
letter of the run.  Once ``answers`` has bound the head, the atoms left are
one existential check that stops at its first match, and a head value
already found skips it.

The generated source contains only slot numbers, argument positions and
register indexes.  It is generated from the body's shape, the body with its
symbol names and constants taken out, so no program text can reach it.  The
names and constants are the arguments of the generated ``make``, which
returns the two functions closed over them.  ``make`` is memoised on the
shape: compiling a program again, as every replay of a certificate file
does, passes it the program's names and skips generating and ``compile``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Union

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


class Query(NamedTuple):
    """A body compiled against one vocabulary: its ``answers`` and
    ``member`` functions, the indexes of the registers it reads, and the
    generated ``source`` they were compiled from."""

    answers: Callable[[Structure, tuple], set]
    member: Callable[[Structure, tuple, str], bool]
    registers: frozenset[int]
    source: str


def _index(s: Structure, key: tuple[str, tuple[int, ...]]) -> dict:
    """Hash index of the EDB table ``key[0]`` by the values at the positions
    ``key[1]``, built on first use."""
    symbol, positions = key
    index: dict = {}
    for tup in s.edb[symbol]:
        index.setdefault(tuple(tup[p] for p in positions), []).append(tup)
    s._index[key] = index
    return index


def compile_body(body: CQBody, vocab: Vocabulary) -> Query:
    """Compile ``body`` over ``vocab``; raises ``UnknownSymbolError``,
    ``ArityError`` or ``HeadVarUnusedError`` for a body that does not fit."""
    shape, symbols, constants = _shape(body, vocab)
    make, refs, registers, source = _generate(shape)
    answers, member = make(*[
        constants[n] if tag == "c" else symbols[n] if positions is None else (symbols[n], positions)
        for tag, n, positions in refs
    ])
    return Query(answers, member, registers, source)


def evaluate_unary_cq(body: CQBody, s: Structure) -> frozenset[str]:
    """Answer set of the body on ``s``: all head-variable values with a match.

    Register atoms hold only when the register is non-blank; ``adom`` holds of
    every domain element.  Raises as :func:`compile_body` does.
    """
    return frozenset(compile_body(body, s.vocabulary).answers(s, s.registers))


# Atom kinds: where an atom's tuples come from.
_EDB, _REG, _ADOM = 0, 1, 2


def _shape(body: CQBody, vocab: Vocabulary) -> tuple[tuple, tuple, tuple]:
    """``(shape, symbols, constants)``: the body with its names taken out,
    and the names.  The shape is ``(head, atoms)``, each atom ``(kind, ref,
    args)``: ``ref`` is the register index, or the EDB symbol's number in
    ``symbols``; an argument is a variable's number, or ``~n`` for the
    constant ``constants[n]``.  Checks the symbols, arities and head."""
    arities = dict(vocab.edb_symbols)
    variables: dict = {}
    edb: dict = {}
    consts: dict = {}
    atoms = []
    for atom in body.atoms:
        symbol = atom.symbol
        if symbol == ADOM:
            kind, ref, arity = _ADOM, None, 1
        elif symbol in vocab.register_index:
            kind, ref, arity = _REG, vocab.register_index[symbol], 1
        elif symbol in arities:
            kind, ref, arity = _EDB, edb.setdefault(symbol, len(edb)), arities[symbol]
        else:
            raise UnknownSymbolError(f"unknown symbol {symbol}")
        if len(atom.args) != arity:
            raise ArityError(f"atom {symbol}/{len(atom.args)} does not match arity {arity}")
        args = []
        for a in atom.args:
            if isinstance(a, Const):
                args.append(~consts.setdefault(a.value, len(consts)))
            else:
                args.append(variables.setdefault(a, len(variables)))
        atoms.append((kind, ref, tuple(args)))
    if body.head_var not in variables:
        raise HeadVarUnusedError(f"head variable {body.head_var} does not occur in the body")
    return (variables[body.head_var], tuple(atoms)), tuple(edb), tuple(consts)


# CPython refuses more than 20 nested loops in one function, so a plan is
# cut into generated functions of at most this many steps, each calling the
# next from its innermost loop.
_STEPS_PER_FUNCTION = 16


@lru_cache(maxsize=1024)
def _generate(shape: tuple) -> tuple:
    """``(make, refs, registers, source)`` for a body of this shape.
    ``make(a0, a1, ...)`` returns the ``answers`` and ``member`` functions,
    closed over its arguments; ``refs`` says what each argument is:
    ``("s", n, None)`` the EDB symbol ``n``, ``("s", n, positions)`` its
    index on those positions, ``("c", n, None)`` the constant ``n``."""
    gen = _Generator(shape)
    source = gen.source()
    namespace = {"_index": _index}
    exec(compile(source, "<tracelang query>", "exec"), namespace)
    return namespace["make"], tuple(gen.refs), frozenset(gen.registers), source


class _Generator:
    """The source of the ``make`` function of one shape.  In it a variable
    is ``v<n>``, an argument of ``make`` ``a<n>``, the register valuation
    ``r``, and the table or index that ``a<n>`` names ``ta<n>``."""

    def __init__(self, shape: tuple):
        self.head, self.atoms = shape
        self.refs: list[tuple] = []
        self._numbers: dict[tuple, int] = {}
        self.registers: set[int] = set()
        self._nvars = 0
        self._functions: list[list[str]] = []

    def source(self) -> str:
        steps = self._plan(set())
        at = next(i for i, (_, _, args) in enumerate(steps) if self.head in args)
        self._emit("answers(s, r)", steps[: at + 1], steps[at + 1 :], {}, True)
        self._nvars = 0
        self._emit("member(s, r, v0)", self._plan({self.head}), [], {self.head: self._var()}, False)
        args = ", ".join(f"a{i}" for i in range(len(self.refs)))
        return "\n".join([
            f"def make({args}):",
            *("    " + line for f in self._functions for line in f),
            "    return answers, member\n",
        ])

    def _plan(self, bound: set) -> list[tuple]:
        """The atoms in join order, given the variables bound up front."""
        bound = bound | {a for _, _, args in self.atoms for a in args if a < 0}

        def rank(atom: tuple) -> int:
            kind, _, args = atom
            if all(a in bound for a in args):
                return 0  # membership test
            if kind == _REG:
                return 1  # at most one tuple
            return 2 if any(a in bound for a in args) else 3  # lookup, scan

        pending = list(self.atoms)
        steps = []
        while pending:
            atom = min(pending, key=rank)  # ties keep body order
            pending.remove(atom)
            steps.append(atom)
            bound.update(atom[2])
        return steps

    def _name(self, ref: tuple) -> str:
        """The argument of ``make`` that ``ref`` is passed as."""
        if ref not in self._numbers:
            self._numbers[ref] = len(self.refs)
            self.refs.append(ref)
        return f"a{self._numbers[ref]}"

    def _var(self) -> str:
        self._nvars += 1
        return f"v{self._nvars - 1}"

    def _emit(self, header: str, steps: list, rest: list, bound: dict, collect: bool) -> None:
        """Emit the function ``header`` for ``steps``, the variables in
        ``bound`` bound on entry.

        ``collect``: the steps bind the head, and each match adds it to
        ``out`` when ``rest``, the existential atoms after the head, has a
        match too; else the function returns whether any match exists.
        Steps past ``_STEPS_PER_FUNCTION`` go into a further function."""
        top = ["    out = set()"] if header.startswith("answers") else []
        nest: list[str] = []
        lines = [f"def {header}:"]
        self._functions.append(lines)
        pad = "    "
        for atom in steps[:_STEPS_PER_FUNCTION]:
            self._step(atom, bound, top, nest, pad)
            pad += "    "
        if len(steps) > _STEPS_PER_FUNCTION:
            call = f"f{len(self._functions)}({', '.join(['s', 'r', *(['out'] * collect), *bound.values()])})"
            self._emit(call, steps[_STEPS_PER_FUNCTION:], rest, dict(bound), collect)
            nest += [pad + call] if collect else [f"{pad}if {call}:", f"{pad}    return True"]
        elif not collect:
            nest.append(pad + "return True")
        elif rest:
            head = bound[self.head]
            call = f"f{len(self._functions)}({', '.join(['s', 'r', *bound.values()])})"
            self._emit(call, rest, [], dict(bound), False)
            nest += [f"{pad}if {head} not in out and {call}:", f"{pad}    out.add({head})"]
        else:
            nest.append(f"{pad}out.add({bound[self.head]})")
        tail = "out" if header.startswith("answers") else "None" if collect else "False"
        lines += [*top, *nest, f"    return {tail}"]

    def _step(self, atom: tuple, bound: dict, top: list, nest: list, pad: str) -> None:
        """Append the test or loop of one atom at indentation ``pad`` to
        ``nest``, and the fetch of its EDB table or index, once per
        function, to ``top``."""

        def known(a: int) -> bool:
            return a < 0 or a in bound

        def expr(a: int) -> str:
            return self._name(("c", ~a, None)) if a < 0 else bound[a]

        def fetch(line: str) -> None:
            if line not in top:
                top.append(line)

        kind, ref, args = atom
        if kind == _ADOM:
            (a,) = args
            if known(a):
                nest.append(f"{pad}if {expr(a)} in s._dindex:")
            else:
                bound[a] = self._var()
                nest.append(f"{pad}for {bound[a]} in s.domain:")
            return
        if kind == _REG:
            (a,) = args
            self.registers.add(ref)
            if known(a):
                nest.append(f"{pad}if r[{ref}] == {expr(a)}:")
            else:
                bound[a] = self._var()
                nest += [f"{pad}{bound[a]} = r[{ref}]", f"{pad}if {bound[a]} is not None:"]
            return
        keys = tuple(i for i, a in enumerate(args) if known(a))
        if len(keys) == len(args):
            table = self._name(("s", ref, None))
            fetch(f"    t{table} = s.edb[{table}]")
            nest.append(f"{pad}if ({', '.join(map(expr, args))},) in t{table}:")
            return
        targets, checks = [], []
        for i, a in enumerate(args):
            if i in keys:
                targets.append("_")
            elif a in bound:  # a variable repeated within this atom
                targets.append(f"u{i}")
                checks += [f"{pad}    if u{i} != {bound[a]}:", f"{pad}        continue"]
            else:
                bound[a] = self._var()
                targets.append(bound[a])
        if keys:
            index = self._name(("s", ref, keys))
            fetch(f"    t{index} = s._index.get({index}) or _index(s, {index})")
            rows = f"t{index}.get(({', '.join(expr(args[i]) for i in keys)},), ())"
        else:
            table = self._name(("s", ref, None))
            fetch(f"    t{table} = s.edb[{table}]")
            rows = f"t{table}"
        nest += [f"{pad}for ({', '.join(targets)},) in {rows}:", *checks]
