"""Denotational reference semantics and desk-scale equivalence checking.

``denotational_deltas`` computes a term's extension set by direct structural
recursion over eagerly materialized sets of traces.  It is an independent
second route to the same semantics as the search engine and serves as its
oracle in tests.

The equivalence checks implement two notions: trace equivalence (identical
extension sets on every base) and before-after equivalence (identical
(start letter, end letter) projections).  Both are undefined-intolerant: a
pair of terms that are both undefined on a base is *not* equivalent there,
so neither relation is reflexive.  Verdicts are three-valued and always
relative to the supplied bases and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import SearchConfig, Trace, check_bg, check_eq
from .modules import successor_choices, apply_choice
from .parser import Program
from . import terms as T


class _Unknown:
    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        raise TypeError("UNKNOWN is not a truth value")


UNKNOWN = _Unknown()


@dataclass(frozen=True)
class DeltaSet:
    """All bounded extensions of one base trace."""

    base: Trace
    extensions: frozenset[Trace]

    def __post_init__(self):
        for ext in self.extensions:
            if ext.letters[: len(self.base)] != self.base.letters:
                raise ValueError("extension does not extend its base")


def _deno(program: Program, term: T.Term, trace: Trace, cfg: SearchConfig) -> tuple[frozenset[Trace], bool]:
    """(extension set found, complete?) by structural recursion."""
    match term:
        case T.Id():
            return frozenset((trace,)), True
        case T.ModuleRef(name):
            if len(trace) + 1 > cfg.max_trace_length:
                return frozenset(), False
            last = trace.last
            exts = frozenset(
                trace.extend(apply_choice(last, c), c)
                for c in successor_choices(program.modules[name], last)
            )
            return exts, True
        case T.Seq():
            # the left spine in a loop, so a long ``;`` chain stays flat
            rights = []
            while isinstance(term, T.Seq):
                rights.append(term.right)
                term = term.left
            found, complete = _deno(program, term, trace, cfg)
            for b in reversed(rights):
                out: set[Trace] = set()
                for u in found:
                    more, ok = _deno(program, b, u, cfg)
                    out |= more
                    complete = complete and ok
                found = frozenset(out)
            return found, complete
        case T.AntiDomain(a):
            found, complete = _deno(program, a, trace, cfg)
            if found:
                return frozenset(), True  # a witness refutes the test outright
            if complete:
                return frozenset((trace,)), True
            return frozenset(), False
        case T.PrefUnion(a, b):
            found, complete = _deno(program, a, trace, cfg)
            if found:
                return found, complete
            if not complete:
                return frozenset(), False
            return _deno(program, b, trace, cfg)
        case T.MaxIterate(a):
            return _deno_iterate(program, a, trace, frozenset((trace.last.registers,)), cfg)
        case T.EqTest(p, q):
            return (frozenset((trace,)) if check_eq(p, q, trace) else frozenset()), True
        case T.BackGlobal(p, q):
            return (frozenset((trace,)) if check_bg(p, q, trace) else frozenset()), True
        case _:
            raise TypeError(f"term is not in core form: {term!r}")


def _deno_iterate(
    program: Program, body: T.Term, trace: Trace, seen: frozenset, cfg: SearchConfig
) -> tuple[frozenset[Trace], bool]:
    steps, complete = _deno(program, body, trace, cfg)
    if not steps:
        if complete:
            return frozenset((trace,)), True
        return frozenset(), False
    out: set[Trace] = set()
    for u in steps:
        key = u.last.registers
        if key in seen:
            continue  # revisiting a milestone valuation is not an unfolding
        more, ok = _deno_iterate(program, body, u, seen | {key}, cfg)
        out |= more
        complete = complete and ok
    return frozenset(out), complete


def denotational_deltas(program: Program, term: T.Term, trace: Trace, cfg: SearchConfig):
    """Complete bounded extension set of ``term`` on ``trace``, or UNKNOWN."""
    found, complete = _deno(program, T.desugar(term), trace, cfg)
    if not complete:
        return UNKNOWN
    return DeltaSet(trace, found)


def is_defined(program: Program, term: T.Term, trace: Trace, cfg: SearchConfig):
    """Three-valued definedness: does the term have any successful extension?"""
    found, complete = _deno(program, T.desugar(term), trace, cfg)
    if found:
        return True
    if complete:
        return False
    return UNKNOWN


def strongly_equivalent(
    program: Program,
    t: T.Term,
    g: T.Term,
    bases: Iterable[Trace],
    cfg: SearchConfig,
):
    """Trace equivalence over the given bases: on every base, both terms are
    defined and have identical extension sets.  Two terms that are both
    undefined on some base are not equal there (False, not vacuity)."""
    t = T.desugar(t)
    g = T.desugar(g)
    for base in bases:
        dt, ct = _deno(program, t, base, cfg)
        dg, cg = _deno(program, g, base, cfg)
        if not (ct and cg):
            return UNKNOWN
        if not dt or not dg:
            return False
        if {x.key() for x in dt} != {x.key() for x in dg}:
            return False
    return True


def before_after_equivalent(
    program: Program,
    t: T.Term,
    g: T.Term,
    bases: Iterable[Trace],
    cfg: SearchConfig,
):
    """Input-output equivalence: on every base, both terms are defined and
    the sets of (start letter, end letter) pairs of their deltas coincide."""
    t = T.desugar(t)
    g = T.desugar(g)

    def proj(base: Trace, exts: frozenset[Trace]) -> frozenset:
        return frozenset((base.last.registers, e.last.registers) for e in exts)

    for base in bases:
        dt, ct = _deno(program, t, base, cfg)
        dg, cg = _deno(program, g, base, cfg)
        if not (ct and cg):
            return UNKNOWN
        if not dt or not dg:
            return False
        if proj(base, dt) != proj(base, dg):
            return False
    return True
