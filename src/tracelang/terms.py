"""Term ASTs: the eight core constructors and the surface sugar over them.

Core terms: identity, module reference, anti-domain, sequence, preferential
union, maximum iterate, equality test, back-globally test.  The sugar
(fail/test/dia/if/while/repeat/pow) desugars into these.  The parser reads
the keywords skip/not/and/or/dom as the id/~/;/<+/test they spell, so they
have no node of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError

# How deeply parentheses, keyword arguments and prefix ``~`` may nest in
# program text, and universal checks in a compiled program: the parser,
# ``desugar`` and the engine recurse once per level, so a program within the
# bound runs at the interpreter's default recursion limit.
MAX_NESTING = 100


class Term:
    """Base class for surface and core term nodes."""

    __slots__ = ()


# --- core constructors ------------------------------------------------------


@dataclass(frozen=True)
class Id(Term):
    pass


@dataclass(frozen=True)
class ModuleRef(Term):
    name: str


@dataclass(frozen=True)
class AntiDomain(Term):
    term: Term


@dataclass(frozen=True)
class Seq(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class PrefUnion(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class MaxIterate(Term):
    term: Term


# The positions of a test's two sides in a register valuation, ``None`` for
# a side that is no register: set by a program's compile step on the test
# nodes of its core, which it builds itself; every other node looks its
# symbols up by name.
_POSITIONS = dict(default=(None, None), init=False, repr=False, compare=False)


@dataclass(frozen=True)
class EqTest(Term):
    left: str
    right: str
    positions: tuple = field(**_POSITIONS)


@dataclass(frozen=True)
class BackGlobal(Term):
    """Current interpretation of ``current`` differs from ``past`` at every
    strictly earlier letter of the trace."""

    current: str
    past: str
    positions: tuple = field(**_POSITIONS)


CORE_TYPES = (Id, ModuleRef, AntiDomain, Seq, PrefUnion, MaxIterate, EqTest, BackGlobal)


# --- surface sugar ----------------------------------------------------------


@dataclass(frozen=True)
class Fail(Term):
    pass


@dataclass(frozen=True)
class Test(Term):
    term: Term


@dataclass(frozen=True)
class Dia(Term):
    term: Term
    cond: Term


@dataclass(frozen=True)
class If(Term):
    cond: Term
    then: Term
    orelse: Term


@dataclass(frozen=True)
class While(Term):
    cond: Term
    body: Term


@dataclass(frozen=True)
class Repeat(Term):
    body: Term
    cond: Term


@dataclass(frozen=True)
class Pow(Term):
    term: Term
    n: int


# What the parser nests without bound: the left arm of a ``;``/``<+`` chain
# and the body of a ``^`` chain.
_SPINE = (Seq, PrefUnion, MaxIterate)
_CHAIN = (Seq, PrefUnion)


def _parenthesized(node: Term, part: Term, right: bool = False) -> bool:
    """Whether program text must parenthesize ``part`` as the body or an arm
    (``right``: the right arm) of the spine node ``node``."""
    if type(node) is MaxIterate:
        return isinstance(part, _CHAIN)
    if type(node) is Seq:
        return isinstance(part, _CHAIN if right else PrefUnion)
    return right and isinstance(part, PrefUnion)


_LEAVES = frozenset((Id, ModuleRef, EqTest, BackGlobal, Fail))


def desugar(t: Term) -> Term:
    """Rewrite surface constructs into the eight core constructors.

    A core-shaped (sub)term is returned as it is, the same object.  The
    left spine of ``;``/``<+`` chains and ``^`` chains is walked in a loop,
    so a long written-out chain costs no recursion; every other part is
    nested only within parentheses, keyword arguments or prefix operators.
    A compound subterm shared by several parents (``pow`` shares its
    halves) is desugared once per depth it occurs at, not once per path.
    A term nested too deeply, or a ``pow`` with a negative exponent, raises
    ``ParseError``.
    """
    return _desugar(t, 0, {})


def _desugar(t: Term, depth: int, memo: dict) -> Term:
    """``desugar`` of ``t`` at ``depth``, with ``memo`` holding the result of
    every call so far on a term with parts, by ``(id(t), depth)``; a spine
    node gets no lookup.

    ``depth`` is the nesting of ``t`` as the parser counts it in program
    text: one level per prefix operator, keyword argument, and chain that
    text must parenthesize.  Past ``MAX_NESTING`` levels, where the parser
    would have refused the text, a term built directly raises
    ``ParseError`` (TooDeep) instead of recursing past the interpreter's
    limit.  A level costs at most five Python frames (a union's right arm,
    a ``;`` chain's right arm, then an ``if`` condition).
    """
    if type(t) in _LEAVES:
        return _desugar_part(t, depth, memo)
    key = (id(t), depth)
    out = memo.get(key)
    if out is not None:
        return out
    spine = []
    while isinstance(t, _SPINE):
        spine.append((t, depth))
        part = t.term if type(t) is MaxIterate else t.left
        depth += _parenthesized(t, part)
        t = part
    out = _desugar_part(t, depth, memo)
    for node, depth in reversed(spine):
        if type(node) is MaxIterate:
            out = node if out is node.term else MaxIterate(out)
            continue
        right = _desugar(node.right, depth + _parenthesized(node, node.right, right=True), memo)
        out = node if out is node.left and right is node.right else type(node)(out, right)
    memo[key] = out
    return out


def _desugar_part(t: Term, depth: int, memo: dict) -> Term:
    """``desugar`` of a term that is not on a spine, ``depth`` levels deep."""
    if depth > MAX_NESTING:
        raise ParseError(f"TooDeep: term is nested more than {MAX_NESTING} levels deep")
    inner = depth + 1
    match t:
        case Id() | ModuleRef(_) | EqTest(_, _) | BackGlobal(_, _):
            return t
        case AntiDomain(u):
            d = _desugar(u, inner, memo)
            return t if d is u else AntiDomain(d)
        case Fail():
            return AntiDomain(Id())
        case Test(u):
            return _test(u, inner, memo)
        case Dia(u, cond):
            return AntiDomain(AntiDomain(Seq(_desugar(u, inner, memo), _desugar(cond, inner, memo))))
        case If(cond, then, orelse):
            arm = Seq(_test(cond, inner, memo), _desugar(then, inner, memo))
            return PrefUnion(arm, _desugar(orelse, inner, memo))
        case While(cond, body):
            phi = _test(cond, inner, memo)
            return Seq(MaxIterate(Seq(phi, _desugar(body, inner, memo))), AntiDomain(phi))
        case Repeat(body, cond):
            phi = _test(cond, inner, memo)
            core_body = _desugar(body, inner, memo)
            return Seq(core_body, Seq(MaxIterate(Seq(AntiDomain(phi), core_body)), phi))
        case Pow(u, n):
            if n < 0:
                raise ParseError("pow exponent must be nonnegative")
            if n == 0:
                return Id()
            # binary powers that share their halves: at most 2*log2(n) Seq
            # nodes; ``;`` is associative, so the steps run in the same order
            power, out = _desugar(u, inner, memo), None
            while True:
                if n & 1:
                    out = power if out is None else Seq(out, power)
                n >>= 1
                if not n:
                    return out
                power = Seq(power, power)
        case _:
            raise TypeError(f"not a term: {t!r}")


def _test(t: Term, depth: int, memo: dict) -> Term:
    """``desugar(Test(t))``, with ``t`` at ``depth``."""
    return AntiDomain(AntiDomain(_desugar(t, depth, memo)))


# --- pretty printing --------------------------------------------------------

_PREC_UNION = 1
_PREC_SEQ = 2
_PREC_PREFIX = 3
_PREC_ATOM = 4


def _pp(t: Term, parent: int) -> str:
    match t:
        case Id():
            s, prec = "id", _PREC_ATOM
        case Fail():
            s, prec = "fail", _PREC_ATOM
        case ModuleRef(name):
            s, prec = name, _PREC_ATOM
        case EqTest(p, q):
            s, prec = f"{p} == {q}", _PREC_ATOM
        case BackGlobal(p, q):
            s, prec = f"BG({p} != {q})", _PREC_ATOM
        case AntiDomain(u):
            s, prec = "~" + _pp(u, _PREC_PREFIX), _PREC_PREFIX
        case MaxIterate(u):
            s, prec = _pp(u, _PREC_ATOM) + "^", _PREC_ATOM
        case Seq(a, b):
            s, prec = f"{_pp(a, _PREC_SEQ)} ; {_pp(b, _PREC_SEQ + 1)}", _PREC_SEQ
        case PrefUnion(a, b):
            s, prec = f"{_pp(a, _PREC_UNION)} <+ {_pp(b, _PREC_UNION + 1)}", _PREC_UNION
        case Test(u):
            s, prec = f"test({_pp(u, 0)})", _PREC_ATOM
        case Dia(u, c):
            s, prec = f"dia({_pp(u, 0)}, {_pp(c, 0)})", _PREC_ATOM
        case Pow(u, n):
            s, prec = f"pow({_pp(u, 0)}, {n})", _PREC_ATOM
        case If(c, a, b):
            s, prec = f"if {_pp(c, _PREC_UNION)} then {_pp(a, _PREC_UNION)} else {_pp(b, 0)}", 0
        case While(c, b):
            s, prec = f"while {_pp(c, _PREC_UNION)} do {_pp(b, 0)}", 0
        case Repeat(b, c):
            s, prec = f"repeat {_pp(b, _PREC_UNION)} until {_pp(c, 0)}", 0
        case _:
            raise TypeError(f"not a term: {t!r}")
    return f"({s})" if prec < parent else s


def pretty(t: Term) -> str:
    """Surface syntax for a term, parenthesized per operator precedence."""
    return _pp(t, 0)
