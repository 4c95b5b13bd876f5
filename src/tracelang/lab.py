"""Denotational reference semantics and desk-scale equivalence checking.

``denotational_deltas`` computes a term's extension set by direct structural
recursion over eagerly materialized sets of traces.  It is an independent
second route to the same semantics as the search engine and serves as its
oracle in tests: it reads a program's modules (``Program.compiled``) and
nothing else the engine derives.  A query refuses a term as building a
``Program`` of it would, and evaluates its own plain desugaring.

The equivalence checks implement two notions: trace equivalence (identical
extension sets on every base) and before-after equivalence (identical
(start letter, end letter) projections).  Both are undefined-intolerant: a
pair of terms that are both undefined on a base is *not* equivalent there,
so neither relation is reflexive.  Verdicts are three-valued and always
relative to the supplied bases and bounds.

Each query evaluates through one :class:`_Deno`, which lives for that call
and evaluates each shared subterm once per trace:

* the terms it compares are desugared and hash-consed together (Filliatre &
  Conchon, *Type-safe modular hash-consing*, ML Workshop 2006), so equal
  subterms, of one side or of both, become one object;
* a subterm with more than one parent edge in that DAG (a root counts as
  one) has its extension sets memoised per trace, as a BDD package's
  computed table memoises on node identity (Bryant, IEEE ToC 1986); no
  other subterm is memoised, as a memo on every node would keep every
  intermediate extension set alive for the whole check;
* a module's choices are cached per input structure, module and whole
  register valuation; ``Trace.extend`` applies each one.

The recursion is unchanged by this: one call per term level, with the left
spine of a ``;`` chain walked in a loop and the unfoldings of a maximum
iterate walked from a worklist, so the stack grows with the term, not with
the trace.  ``node_budget`` caps the successor traces a query builds; a
module step that would build past it builds none and is incomplete, so the
answer is UNKNOWN, as at the length bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import SearchConfig, Trace, check_bg, check_eq
from .errors import TraceLangError
from .modules import successor_choices
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
        n = len(self.base)
        for ext in self.extensions:
            node = ext
            while len(node) > n:
                node = node.parent
            if node != self.base:
                raise ValueError("extension does not extend its base")


_LEAVES = (T.Id, T.ModuleRef, T.EqTest, T.BackGlobal)
# the empty set and the two empty answers, one object each: most memoised
# answers are empty
_NONE: frozenset[Trace] = frozenset()
_FAILED = _NONE, True  # complete and empty
_CUT = _NONE, False  # cut off by a bound


class _Deno:
    """The evaluator of one lab query over ``program`` within ``cfg``.

    ``roots`` holds the given terms desugared and hash-consed, in order.
    ``deno(term, trace)`` takes one of them, or a part of one.
    """

    def __init__(self, program: Program, cfg: SearchConfig, *terms: T.Term):
        self.program, self.cfg = program, cfg
        # (id(input), module, valuation) -> (choices, input); the input keeps
        # its id from being reused
        self.steps: dict[tuple, tuple] = {}
        self.built = 0  # successor traces built, against cfg.node_budget
        # One walk over every desugared term, with an explicit stack, once
        # per object.  The key of a leaf is the leaf; of an inner node, its
        # class and the ids of its parts' canonical nodes.  ``desugared``
        # keeps every walked object alive, so that ``canon``'s ids stay theirs.
        # A program of a term may be refused only if the term does not
        # desugar, names a missing module or a symbol outside ``unary``, or
        # has more than ``MAX_NESTING`` check nodes; then those are built.
        unary = program.vocabulary.unary_symbols
        refusable, checks = False, 0
        try:
            desugared = [T.desugar(t) for t in terms]
        except (TraceLangError, ValueError):
            desugared, refusable = [], True
        table: dict = {}
        canon: dict[int, T.Term] = {}  # id(walked node) -> canonical node
        edges: dict[int, int] = {}  # id(canonical node) -> parent edges
        stack = desugared[::-1]
        while stack:
            node = stack.pop()
            if id(node) in canon:
                continue
            cls = type(node)
            if cls is T.Seq or cls is T.PrefUnion:
                left, right = node.left, node.right
                a, b = canon.get(id(left)), canon.get(id(right))
                if a is None or b is None:
                    stack += (node, right, left)
                    continue
                key, kids = (cls, id(a), id(b)), (a, b)
                fresh = a is not left or b is not right
                checks += cls is T.PrefUnion
            elif cls is T.AntiDomain or cls is T.MaxIterate:
                a = canon.get(id(node.term))
                if a is None:
                    stack += (node, node.term)
                    continue
                key, kids, fresh = (cls, id(a)), (a,), a is not node.term
                checks += 1
            elif cls in _LEAVES:
                if cls is T.ModuleRef:
                    refusable |= node.name not in program.compiled
                elif cls is T.EqTest:
                    refusable |= node.left not in unary or node.right not in unary
                elif cls is T.BackGlobal:
                    refusable |= node.current not in unary or node.past not in unary
                key, kids, fresh = node, (), False
            else:
                raise TypeError(f"term is not in core form: {node!r}")
            c = table.get(key)
            if c is None:
                c = table[key] = cls(*kids) if fresh else node
                for kid in kids:
                    edges[id(kid)] = edges.get(id(kid), 0) + 1
            canon[id(node)] = c
        if refusable or checks > T.MAX_NESTING:
            for t in terms:
                Program(program.vocabulary, program.modules, t)
        self.roots = [canon[id(t)] for t in desugared]
        for root in self.roots:
            edges[id(root)] = edges.get(id(root), 0) + 1
        # id(shared node) -> {trace: (extension set, complete?)}
        self.memo: dict[int, dict] = {i: {} for i, n in edges.items() if n > 1}

    def deno(self, term: T.Term, trace: Trace) -> tuple[frozenset[Trace], bool]:
        """(extension set found, complete?) by structural recursion."""
        memo = self.memo.get(id(term))
        if memo is not None:
            out = memo.get(trace)
            if out is not None:
                return out
        match term:
            case T.Id():
                out = frozenset((trace,)), True
            case T.ModuleRef(name):
                out = self._step(name, trace)
            case T.Seq():
                # the left spine in a loop, so a long ``;`` chain stays flat;
                # a shared node on it is looked up and stored as on entry
                spine, node, out = [], term, None
                while type(node) is T.Seq:
                    m = self.memo.get(id(node))
                    if m is not None and node is not term:
                        out = m.get(trace)
                        if out is not None:
                            break
                    spine.append((node.right, m))
                    node = node.left
                found, complete = self.deno(node, trace) if out is None else out
                for right, m in reversed(spine):
                    more: set[Trace] = set()
                    for u in found:
                        step, ok = self.deno(right, u)
                        more |= step
                        complete = complete and ok
                    found = frozenset(more) if more else _NONE
                    if m is not None:
                        m[trace] = found, complete
                out = found, complete
            case T.AntiDomain(a):
                found, complete = self.deno(a, trace)
                if found:
                    out = _FAILED  # a witness refutes the test outright
                elif complete:
                    out = frozenset((trace,)), True
                else:
                    out = _CUT
            case T.PrefUnion(a, b):
                found, complete = self.deno(a, trace)
                if found:
                    out = found, complete
                elif complete:
                    out = self.deno(b, trace)
                else:
                    out = _CUT
            case T.MaxIterate(a):
                out = self._iterate(a, trace)
            case T.EqTest(p, q):
                out = (frozenset((trace,)), True) if check_eq(p, q, trace) else _FAILED
            case T.BackGlobal(p, q):
                out = (frozenset((trace,)), True) if check_bg(p, q, trace) else _FAILED
            case _:
                raise TypeError(f"term is not in core form: {term!r}")
        if memo is not None:
            memo[trace] = out
        return out

    def _step(self, name: str, trace: Trace) -> tuple[frozenset[Trace], bool]:
        """The one-letter extensions of ``trace`` by the module ``name``."""
        if len(trace) + 1 > self.cfg.max_trace_length:
            return _CUT
        s, r = trace.input, trace.last
        key = (id(s), name, r)
        cached = self.steps.get(key)
        if cached is None:
            cached = self.steps[key] = successor_choices(self.program.compiled[name], s, r), s
        steps = cached[0]
        budget = self.cfg.node_budget
        if budget is not None and self.built + len(steps) > budget:
            return _CUT
        self.built += len(steps)
        return frozenset(trace.extend(c) for c in steps), True

    def _iterate(self, body: T.Term, trace: Trace) -> tuple[frozenset[Trace], bool]:
        """The traces where an unfolding of ``body`` from ``trace`` stops,
        complete when every step was.  Depth first from a worklist, in the
        order of a recursion, so the stack stays flat however long a trace."""
        out: set[Trace] = set()
        complete = True
        work = [(trace, frozenset((trace.last,)))]
        while work:
            trace, seen = work.pop()
            steps, ok = self.deno(body, trace)
            complete = complete and ok
            if not steps:
                if ok:
                    out.add(trace)
                continue
            # revisiting a milestone valuation is not an unfolding
            work += [(u, seen | {u.last}) for u in reversed(list(steps)) if u.last not in seen]
        return frozenset(out) if out else _NONE, complete


def denotational_deltas(program: Program, term: T.Term, trace: Trace, cfg: SearchConfig):
    """Complete bounded extension set of ``term`` on ``trace``, or UNKNOWN."""
    ev = _Deno(program, cfg, term)
    found, complete = ev.deno(ev.roots[0], trace)
    if not complete:
        return UNKNOWN
    return DeltaSet(trace, found)


def is_defined(program: Program, term: T.Term, trace: Trace, cfg: SearchConfig):
    """Three-valued definedness: does the term have any successful extension?"""
    ev = _Deno(program, cfg, term)
    found, complete = ev.deno(ev.roots[0], trace)
    if found:
        return True
    if complete:
        return False
    return UNKNOWN


def _equivalent(program: Program, t: T.Term, g: T.Term, bases: Iterable[Trace], cfg: SearchConfig, view):
    """Both terms defined on every base, with equal ``view(base, extensions)``."""
    ev = _Deno(program, cfg, t, g)
    t, g = ev.roots
    for base in bases:
        dt, ct = ev.deno(t, base)
        dg, cg = ev.deno(g, base)
        if not (ct and cg):
            return UNKNOWN
        if not dt or not dg:
            return False
        if view(base, dt) != view(base, dg):
            return False
    return True


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
    return _equivalent(program, t, g, bases, cfg, lambda base, exts: exts)


def before_after_equivalent(
    program: Program,
    t: T.Term,
    g: T.Term,
    bases: Iterable[Trace],
    cfg: SearchConfig,
):
    """Input-output equivalence: on every base, both terms are defined and
    the sets of (start letter, end letter) pairs of their deltas coincide."""
    return _equivalent(
        program, t, g, bases, cfg, lambda base, exts: frozenset((base.last, e.last) for e in exts)
    )
