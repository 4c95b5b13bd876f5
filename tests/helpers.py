"""Shared test utilities: independent oracles and random generators.

The naive CQ evaluator enumerates all assignments outright and is the oracle
for the backtracking join.  The random generators produce small vocabularies,
structures, modules and core terms for cross-checking the search engine
against the denotational semantics.  The reference replay decides every
union arm and iterate unfolding with ``exists`` before it replays it, and is
the oracle for the engine's replay, which asks only where replaying fails.
"""

from __future__ import annotations

import itertools
import random
import sys
from typing import Optional, Sequence

from tracelang.cq import Atom, CQBody, Const
from tracelang.engine import Evaluator, Trace, Witness, check_bg, check_eq
from tracelang.errors import ChoiceMismatchError
from tracelang.modules import Choice, ModuleDef, Rule, check_choice
from tracelang.parser import Program
from tracelang.structures import ADOM, Structure, Vocabulary, blank_registers
from tracelang import terms as T


def naive_unary_cq(body: CQBody, s: Structure) -> frozenset[str]:
    """Answer set by brute force over all variable assignments."""

    def tuples_for(symbol):
        if symbol == ADOM:
            return {(e,) for e in s.domain}
        if symbol in s.vocabulary.register_index:
            v = s.register_value(symbol)
            return set() if v is None else {(v,)}
        return set(s.edb[symbol])

    variables = sorted(body.variables())
    answers = set()
    for combo in itertools.product(s.domain, repeat=len(variables)):
        env = dict(zip(variables, combo))
        ok = True
        for atom in body.atoms:
            resolved = tuple(a.value if isinstance(a, Const) else env[a] for a in atom.args)
            if resolved not in tuples_for(atom.symbol):
                ok = False
                break
        if ok:
            answers.add(env[body.head_var])
    return frozenset(answers)


class _Chooser:
    """The reference replay's cursor into the certificate: the index of the
    next choice, moved by hand, where ``Evaluator.replay`` reads it from the
    trace length."""

    __slots__ = ("choices", "pos")

    def __init__(self, choices: tuple[Choice, ...]):
        self.choices = choices
        self.pos = 0

    def peek(self) -> Choice:
        """The next choice; ``pos`` moves past it only once it is applied."""
        if self.pos >= len(self.choices):
            raise ChoiceMismatchError("certificate has fewer choices than the derivation needs")
        return self.choices[self.pos]

    def exhausted(self) -> bool:
        return self.pos == len(self.choices)


def reference_replay_failure(ev: Evaluator, witness: Witness) -> Optional[str]:
    """What ``engine.replay_failure`` answers for ``witness`` on the
    program and input of ``ev``, from a replay that decides each union arm
    and each iterate unfolding with ``ev.exists`` first and then replays the
    arm or step it chose.  ``ev`` counts its nodes and checks."""
    chooser = _Chooser(witness.choices)
    try:
        if witness.final_length != 1 + len(witness.choices):
            raise ChoiceMismatchError("final_length does not match the number of choices")
        if witness.final_length > ev.cfg.max_trace_length:
            raise ChoiceMismatchError("certificate exceeds the configured length bound")
        _reference_replay(ev, ev.program.core, Trace.initial(ev.input), chooser)
        if not chooser.exhausted():
            raise ChoiceMismatchError("certificate has more choices than the derivation uses")
    except ChoiceMismatchError as e:
        return f"at choice {chooser.pos}: {e}"
    return None


def _reference_replay(ev: Evaluator, term: T.Term, trace: Trace, chooser: _Chooser) -> Trace:
    work = [term]
    while work:
        match work.pop():
            case T.Id():
                pass
            case T.ModuleRef(name):
                choice = chooser.peek()
                if choice.module != name:
                    raise ChoiceMismatchError(
                        f"certificate names module {choice.module}, derivation needs {name}"
                    )
                check_choice(ev.program.compiled[name], trace.input, trace.last, choice)
                chooser.pos += 1
                ev.nodes += 1
                trace = trace.extend(choice)
            case T.Seq(a, b):
                work.append(b)
                work.append(a)
            case T.AntiDomain(a):
                r = ev.exists(a, trace)
                if r is not False:
                    raise ChoiceMismatchError(
                        "anti-domain test fails" if r else "anti-domain check inconclusive"
                    )
            case T.PrefUnion(a, b):
                r = ev.exists(a, trace)
                if r is None:
                    raise ChoiceMismatchError("union arm check inconclusive")
                work.append(a if r else b)
            case T.MaxIterate(a):
                seen = {trace.last}
                while True:
                    r = ev.exists(a, trace)
                    if r is False:
                        break
                    if r is None:
                        raise ChoiceMismatchError("iterate exit check inconclusive")
                    trace = _reference_replay(ev, a, trace, chooser)
                    if trace.last in seen:
                        raise ChoiceMismatchError("iterate revisits a milestone valuation")
                    seen.add(trace.last)
            case T.EqTest(p, q):
                if not check_eq(p, q, trace):
                    raise ChoiceMismatchError(f"equality test {p} == {q} fails")
            case T.BackGlobal(p, q):
                if not check_bg(p, q, trace):
                    raise ChoiceMismatchError(f"history test BG({p} != {q}) fails")
    return trace


def compiled(module: ModuleDef, vocabulary: Vocabulary):
    """``module`` compiled against ``vocabulary`` as a program compiles it."""
    return Program(vocabulary, {module.name: module}, T.ModuleRef(module.name)).compiled[module.name]


def structure_of(domain, edb=None, registers=(), arities=None, state=None) -> Structure:
    domain = tuple(domain)
    edb = {k: frozenset(map(tuple, v)) for k, v in (edb or {}).items()}
    decls = []
    for name, tuples in edb.items():
        if arities and name in arities:
            decls.append((name, arities[name]))
        else:
            decls.append((name, len(next(iter(tuples)))))
    if arities:
        for name, arity in arities.items():
            if name not in edb:
                decls.append((name, arity))
                edb[name] = frozenset()
    vocab = Vocabulary(tuple(decls), tuple(registers))
    values = list(blank_registers(vocab))
    for reg, val in (state or {}).items():
        values[vocab.register_index[reg]] = val
    return Structure(vocab, domain, edb, tuple(values))


def at_valuation(s: Structure, registers: tuple) -> Structure:
    """The structure of a letter: ``s`` with its registers set to ``registers``."""
    return Structure(s.vocabulary, s.domain, s.edb, registers)


# ---------------------------------------------------------------------------
# Random generators for cross-checking
# ---------------------------------------------------------------------------


def random_structure(rng: random.Random, max_domain: int = 3) -> Structure:
    n = rng.randint(1, max_domain)
    domain = tuple("abc"[:n])
    u_tuples = {(e,) for e in domain if rng.random() < 0.5}
    e_tuples = {(x, y) for x in domain for y in domain if rng.random() < 0.4}
    return structure_of(
        domain,
        {"U": u_tuples, "E": e_tuples},
        registers=("P", "Q"),
        arities={"U": 1, "E": 2},
    )


def _random_body(rng: random.Random, head_var: str) -> CQBody:
    atoms = []
    first_symbol = rng.choice([ADOM, "U", "P", "Q", "E"])
    if first_symbol == "E":
        atoms.append(Atom("E", (head_var, rng.choice([head_var, "z"]))))
    else:
        atoms.append(Atom(first_symbol, (head_var,)))
    for _ in range(rng.randint(0, 1)):
        symbol = rng.choice([ADOM, "U", "P", "Q", "E"])
        pool = [head_var, "z", "w"]
        if symbol == "E":
            atoms.append(Atom("E", (rng.choice(pool), rng.choice(pool))))
        else:
            atoms.append(Atom(symbol, (rng.choice(pool),)))
    return CQBody(head_var, tuple(atoms))


def random_modules(rng: random.Random, count: int = 2) -> dict[str, ModuleDef]:
    out = {}
    for i in range(rng.randint(1, count)):
        name = f"M{i}"
        heads = rng.sample(["P", "Q"], rng.randint(1, 2))
        rules = tuple(Rule(h, _random_body(rng, "x")) for h in heads)
        out[name] = ModuleDef(name, rules)
    return out


def random_core_term(rng: random.Random, modules: list[str], depth: int) -> T.Term:
    symbols = ["P", "Q", "U"]
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.choice(["id", "mod", "eq", "bg"])
        if kind == "id":
            return T.Id()
        if kind == "mod":
            return T.ModuleRef(rng.choice(modules))
        if kind == "eq":
            return T.EqTest(rng.choice(symbols), rng.choice(symbols))
        return T.BackGlobal(rng.choice(symbols), rng.choice(symbols))
    kind = rng.choice(["seq", "seq", "union", "anti", "iter"])
    if kind == "seq":
        return T.Seq(
            random_core_term(rng, modules, depth - 1),
            random_core_term(rng, modules, depth - 1),
        )
    if kind == "union":
        return T.PrefUnion(
            random_core_term(rng, modules, depth - 1),
            random_core_term(rng, modules, depth - 1),
        )
    if kind == "anti":
        return T.AntiDomain(random_core_term(rng, modules, depth - 1))
    return T.MaxIterate(random_core_term(rng, modules, depth - 1))


def random_program(rng: random.Random, structure: Structure, depth: int = 4) -> Program:
    modules = random_modules(rng)
    main = random_core_term(rng, sorted(modules), depth)
    return Program(structure.vocabulary, modules, main)


def random_surface_term(
    rng: random.Random,
    depth: int,
    modules: Sequence[str] = ("Alpha", "Beta"),
    symbols: Sequence[str] = ("P", "Q"),
    max_pow: int = 3,
) -> T.Term:
    """Random surface AST (sugar included); its tests compare ``symbols``."""
    if depth <= 0 or rng.random() < 0.3:
        p, q = rng.choice(symbols), rng.choice(symbols)
        return rng.choice(
            [
                T.Id(),
                T.Fail(),
                T.ModuleRef(rng.choice(modules)),
                T.EqTest(p, q),
                T.BackGlobal(p, q),
            ]
        )
    sub = lambda: random_surface_term(rng, depth - 1, modules, symbols, max_pow)  # noqa: E731
    return rng.choice(
        [
            lambda: T.Seq(sub(), sub()),
            lambda: T.PrefUnion(sub(), sub()),
            lambda: T.AntiDomain(sub()),
            lambda: T.MaxIterate(sub()),
            lambda: T.Test(sub()),
            lambda: T.Dia(sub(), sub()),
            lambda: T.Pow(sub(), rng.randint(0, max_pow)),
            lambda: T.If(sub(), sub(), sub()),
            lambda: T.While(sub(), sub()),
            lambda: T.Repeat(sub(), sub()),
        ]
    )()


def frame_depth() -> int:
    """The number of Python frames on the stack of the caller."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def near_the_default_limit(f):
    """``f()`` at the interpreter's default recursion limit of 1,000, called
    from about 200 frames deep."""

    def down(n):
        return f() if n <= 0 else down(n - 1)

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return down(200 - frame_depth())
    finally:
        sys.setrecursionlimit(old)
