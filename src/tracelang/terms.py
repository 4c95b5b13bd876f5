"""Term ASTs: the eight core constructors and the surface sugar over them.

Core terms: identity, module reference, anti-domain, sequence, preferential
union, maximum iterate, equality test, back-globally test.  Everything else
(skip/fail/test/dom/dia/not/and/or/if/while/repeat/pow) desugars into these.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class EqTest(Term):
    left: str
    right: str


@dataclass(frozen=True)
class BackGlobal(Term):
    """Current interpretation of ``current`` differs from ``past`` at every
    strictly earlier letter of the trace."""

    current: str
    past: str


CORE_TYPES = (Id, ModuleRef, AntiDomain, Seq, PrefUnion, MaxIterate, EqTest, BackGlobal)


# --- surface sugar ----------------------------------------------------------


@dataclass(frozen=True)
class Skip(Term):
    pass


@dataclass(frozen=True)
class Fail(Term):
    pass


@dataclass(frozen=True)
class Test(Term):
    term: Term


@dataclass(frozen=True)
class Dom(Term):
    term: Term


@dataclass(frozen=True)
class Dia(Term):
    term: Term
    cond: Term


@dataclass(frozen=True)
class Not(Term):
    term: Term


@dataclass(frozen=True)
class And(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Or(Term):
    left: Term
    right: Term


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


def desugar(t: Term) -> Term:
    """Rewrite surface constructs into the eight core constructors.

    A core-shaped (sub)term is returned as it is, the same object.
    """
    match t:
        case Id() | ModuleRef(_) | EqTest(_, _) | BackGlobal(_, _):
            return t
        case AntiDomain(u) | MaxIterate(u):
            d = desugar(u)
            return t if d is u else type(t)(d)
        case Seq(a, b) | PrefUnion(a, b):
            da, db = desugar(a), desugar(b)
            return t if da is a and db is b else type(t)(da, db)
        case Skip():
            return Id()
        case Fail():
            return AntiDomain(Id())
        case Test(u):
            return AntiDomain(AntiDomain(desugar(u)))
        case Dom(u):
            return AntiDomain(AntiDomain(desugar(u)))
        case Dia(u, cond):
            return AntiDomain(AntiDomain(Seq(desugar(u), desugar(cond))))
        case Not(u):
            return AntiDomain(desugar(u))
        case And(a, b):
            return Seq(desugar(a), desugar(b))
        case Or(a, b):
            return PrefUnion(desugar(a), desugar(b))
        case If(cond, then, orelse):
            return PrefUnion(
                Seq(desugar(Test(cond)), desugar(then)),
                desugar(orelse),
            )
        case While(cond, body):
            phi = desugar(Test(cond))
            return Seq(MaxIterate(Seq(phi, desugar(body))), AntiDomain(phi))
        case Repeat(body, cond):
            phi = desugar(Test(cond))
            core_body = desugar(body)
            return Seq(core_body, Seq(MaxIterate(Seq(AntiDomain(phi), core_body)), phi))
        case Pow(u, n):
            if n < 0:
                raise ValueError("pow exponent must be nonnegative")
            if n == 0:
                return Id()
            # binary powers that share their halves: at most 2*log2(n) Seq
            # nodes; ``;`` is associative, so the steps run in the same order
            power, out = desugar(u), None
            while True:
                if n & 1:
                    out = power if out is None else Seq(out, power)
                n >>= 1
                if not n:
                    return out
                power = Seq(power, power)
        case _:
            raise TypeError(f"not a term: {t!r}")


# --- pretty printing --------------------------------------------------------

_PREC_UNION = 1
_PREC_SEQ = 2
_PREC_PREFIX = 3
_PREC_ATOM = 4


def _pp(t: Term, parent: int) -> str:
    match t:
        case Id():
            s, prec = "id", _PREC_ATOM
        case Skip():
            s, prec = "skip", _PREC_ATOM
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
        case Not(u):
            s, prec = "not " + _pp(u, _PREC_PREFIX), _PREC_PREFIX
        case MaxIterate(u):
            s, prec = _pp(u, _PREC_ATOM + 1) + "^", _PREC_ATOM
        case Seq(a, b):
            s, prec = f"{_pp(a, _PREC_SEQ)} ; {_pp(b, _PREC_SEQ + 1)}", _PREC_SEQ
        case And(a, b):
            s, prec = f"{_pp(a, _PREC_SEQ)} and {_pp(b, _PREC_SEQ + 1)}", _PREC_SEQ
        case PrefUnion(a, b):
            s, prec = f"{_pp(a, _PREC_UNION)} <+ {_pp(b, _PREC_UNION + 1)}", _PREC_UNION
        case Or(a, b):
            s, prec = f"{_pp(a, _PREC_UNION)} or {_pp(b, _PREC_UNION + 1)}", _PREC_UNION
        case Test(u):
            s, prec = f"test({_pp(u, 0)})", _PREC_ATOM
        case Dom(u):
            s, prec = f"dom({_pp(u, 0)})", _PREC_ATOM
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
