"""Search engine for the main task and deterministic certificate replay.

A term is evaluated on a trace (a nonempty string of structures) by
depth-first search over module choices.  Anti-domain tests, the left arm of a
preferential union, and maximum-iterate exit checks are universal checks:
does any extension of the trace let the checked term succeed?  They are
three-valued under the bounds on trace length and nodes, and any
inconclusive check turns a would-be "no" into "bound-exceeded", never into a
wrong answer.

The search is one loop over an explicit stack, so its Python stack grows
only with the nesting of universal checks.  The program fixes that nesting,
and the compile step refuses it past ``parser.MAX_NESTING``, so no check
depth is configured or tracked and the engine runs at the caller's
recursion limit.

A check is first evaluated directly on the trace, as a test that keeps the
trace or fails; a term with no module in it is always decided so, with no
nested search.  A check that reaches a module opens a nested exhaustive
search over a fresh choice of guesses, and its definite answers are tabled
per evaluator on the term's footprint: the registers its modules and tests
can read or write, the history of the registers its history tests look back
on, and the trace length.  The footprint getters come from the program's
compile step (``Program.footprint``), so a run walks no term to find them.
A check answered directly or from the table expands no node.

The search does not check the left arm of a preferential union in a nested
search and then enumerate it again: it runs the arm once, in line, under a
scope that records whether the arm succeeded or hit a bound, goes on with
the union's continuation at each success, and turns to the right arm only
when the arm's search was complete and found nothing.  Its answer is tabled
like a check's, so a known answer still skips the search.  Replay still
checks union arms with ``exists``.

A successful search yields a witness: the ordered list of module choices
along the accepting trace.  Replaying a witness re-runs the term with every
guess dictated by the certificate, so the derivation is deterministic and
needs no backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .errors import (
    ChoiceMismatchError,
    InvalidParamsError,
    TraceLangError,
    UnknownSymbolError,
    VocabularyMismatchError,
)
from .modules import Choice, apply_choice, successor_choices
from .parser import Program, check_constants
from .structures import Structure
from . import terms as T


# What no register holds: the value before the input letter.
_UNSET = object()


class Trace:
    """Nonempty string of structures; the first letter is the input.

    A trace is a persistent parent-pointer chain.  Each node holds its parent
    (``None`` at the input letter), its ``last`` letter, the module ``choice``
    that produced that letter, its ``length``, the ``input`` letter, the
    history ``hist`` and a hash computed once.  Extending shares the whole
    prefix, so ``extend`` costs O(changed registers) however long the trace
    is (see ``hist`` below), and siblings extended from one node share it
    too.  ``letters``, ``choices`` and ``key()`` are read-only views built on
    demand by walking the chain, in O(length).

    Letters share the input's domain and EDB tables and differ only in their
    register valuations.  ``hist`` holds, per register, the values it held at
    all letters except the last, as an immutable ``int`` bitmask: bit 0 for
    blank, bit i+1 for domain element i.  It makes history tests one bit test.
    It depends on the letters alone.  ``extend`` updates only the masks of
    the registers whose value changed at the last letter, after one
    comparison of the last two valuations.
    """

    __slots__ = ("parent", "last", "choice", "length", "input", "hist", "_hash")

    def __init__(
        self,
        parent: Optional["Trace"],
        last: Structure,
        choice: Optional[Choice],
        length: int,
        input: Structure,
        hist: tuple[int, ...],
        hash_: int,
    ):
        self.parent = parent
        self.last = last
        self.choice = choice
        self.length = length
        self.input = input
        self.hist = hist
        self._hash = hash_

    @classmethod
    def initial(cls, input_structure: Structure) -> "Trace":
        nregs = len(input_structure.vocabulary.register_symbols)
        return cls(
            None, input_structure, None, 1, input_structure, (0,) * nregs,
            hash(input_structure.registers),
        )

    def _chain(self) -> list["Trace"]:
        """The nodes from the input letter to this one."""
        nodes = []
        node = self
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes

    @property
    def letters(self) -> tuple[Structure, ...]:
        return tuple(node.last for node in self._chain())

    @property
    def choices(self) -> tuple[Choice, ...]:
        """The module choice that produced each non-input letter."""
        return tuple(node.choice for node in self._chain()[1:])

    def __len__(self) -> int:
        return self.length

    def extend(self, letter: Structure, choice: Choice) -> "Trace":
        # ``hist`` gains the values of ``self.last``.  A register that holds
        # the value it held one letter earlier has its bit already, so only
        # changed registers are looked at (at the input letter, all of them);
        # a mask that has the bit is kept, and so is the tuple when no
        # register changed.  Plain loops: a generator costs a frame per step.
        prev = self.last
        values, hist = prev.registers, self.hist
        if self.parent is None:
            before = (_UNSET,) * len(values)
        else:
            before = self.parent.last.registers
        if values != before:
            order = prev._dindex
            hist = list(hist)
            for i, v in enumerate(values):
                # an equal value held by another object sets a bit already set
                if v is not before[i]:
                    bit = 1 if v is None else 2 << order[v]
                    h = hist[i]
                    if not h & bit:
                        hist[i] = h | bit
            hist = tuple(hist)
        return Trace(
            self, letter, choice, self.length + 1, self.input, hist,
            hash((self._hash, letter.registers)),
        )

    def key(self) -> tuple:
        """Content key: the valuation of every letter (EDB is fixed per run)."""
        return tuple(node.last.registers for node in self._chain())

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        if self.length != other.length or self._hash != other._hash:
            return False
        a, b = self, other
        while a is not b:  # walk back to a shared ancestor, if any
            if a.last.registers != b.last.registers:
                return False
            if a.parent is None:
                return a.input == b.input
            a, b = a.parent, b.parent
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<Trace len={len(self)}>"


def check_eq(p: str, q: str, trace: Trace) -> bool:
    """True iff the set interpretations of ``p`` and ``q`` coincide at the
    last letter (a blank register is the empty set)."""
    last = trace.last
    rindex = last.vocabulary.register_index
    pi, qi = rindex.get(p), rindex.get(q)
    if pi is not None and qi is not None:
        return last.registers[pi] == last.registers[qi]
    return last.interp(p) == last.interp(q)


def check_bg(p: str, q: str, trace: Trace) -> bool:
    """True iff the current interpretation of ``p`` differs from the
    interpretation of ``q`` at every strictly earlier letter."""
    last = trace.last
    rindex = last.vocabulary.register_index
    pi, qi = rindex.get(p), rindex.get(q)
    if pi is not None and qi is not None:
        # register vs register: singleton-or-blank sets are equal iff the
        # stored values are, blank included
        v = last.registers[pi]
        return not trace.hist[qi] & (1 if v is None else 2 << last._dindex[v])
    target = last.interp(p)
    if qi is not None:
        if not target:
            return not trace.hist[qi] & 1
        if len(target) == 1:
            (e,) = target
            return not trace.hist[qi] & 2 << last._dindex[e]
        return True  # register interpretations never have two elements
    past = last.interp(q)  # EDB: constant along the trace
    return len(trace) < 2 or past != target


_LENGTH_CAP = 1 << 62


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for the search: the trace length and the node budget.  The
    nesting of universal checks needs no bound here, the program fixes it.

    ``max_trace_length`` counts letters including the input.  The default is
    ``max(2, n) ** k + 2``: the polynomial bound on added letters, plus the
    input letter, plus one letter of headroom so that exhaustion probes (a
    guess that must be materialized before a freshness test can reject it)
    stay conclusive at very small domains.  No search builds a trace near
    ``2 ** 62`` letters, so the default is cut there: no answer changes, and
    a huge ``k`` costs no more than ``k = 62``.
    ``node_budget`` caps the module steps expanded (``None``: no cap).
    """

    k: int = 2
    max_trace_length: int = 101
    witness_limit: int = 1000
    node_budget: Optional[int] = None

    @classmethod
    def for_run(
        cls,
        program: Program,
        input_structure: Structure,
        k: int = 2,
        max_trace_length: Optional[int] = None,
        witness_limit: int = 1000,
        node_budget: Optional[int] = None,
    ) -> "SearchConfig":
        """The default bounds for a run on ``input_structure``; they depend
        on the input alone, not on ``program``."""
        if k < 0:
            raise InvalidParamsError(f"the length-bound exponent k must be nonnegative, got {k}")
        if max_trace_length is None:
            # max(2, n) ** 62 >= 2 ** 62, so capping k first bounds the power
            power = max(2, len(input_structure.domain)) ** min(k, 62)
            max_trace_length = min(power, _LENGTH_CAP) + 2
        return cls(k, max_trace_length, witness_limit, node_budget)


@dataclass(frozen=True)
class Witness:
    """Replayable certificate: the module choices of one accepting trace."""

    choices: tuple[Choice, ...]
    final_length: int


def witness_length(w: Witness) -> int:
    """Number of letters the witness adds to the input."""
    return w.final_length - 1


@dataclass(frozen=True)
class Verdict:
    """The answer of a run, with the evaluator's counters (see
    :class:`Evaluator`)."""

    kind: str  # 'yes' | 'no' | 'bound-exceeded'
    witness: Optional[Witness]
    nodes: int
    trace: Optional[Trace] = None
    exists_calls: int = 0
    table_hits: int = 0


class _Scope:
    """Sticky bound-hit flag for one exhaustiveness question."""

    __slots__ = ("hit",)

    def __init__(self):
        self.hit = False


class _Unfold:
    """An unfolding point of a maximum iterate: the scope of the body's
    search from here, and the exit entry pushed under the body's steps.
    ``seen`` holds the milestones of the current unfolding path, ``key``
    the one this point added; ``k`` and ``scope`` are the iterate's."""

    __slots__ = ("body", "k", "scope", "seen", "key", "hit", "stepped")

    def __init__(self, body: T.Term, k, scope, seen: set, key: tuple):
        self.body, self.k, self.scope, self.seen, self.key = body, k, scope, seen, key
        self.hit = self.stepped = False


# The continuation of an iterate's body: unfold again from where it ended,
# under the unfolding point that is the current scope.
_AGAIN = object()
_AGAIN_K = (_AGAIN, None)


class _Else:
    """A preferential union whose left arm is searched in line: the scope
    of that search, and the entry pushed under its steps that goes on with
    the ``right`` arm if it found nothing.  ``k`` and ``scope`` are the
    union's, ``key`` the left arm's table key (``None``: untabled)."""

    __slots__ = ("right", "k", "scope", "key", "hit", "found")

    def __init__(self, right: T.Term, k, scope, key):
        self.right, self.k, self.scope, self.key = right, k, scope, key
        self.hit = self.found = False


# The continuation of a left arm searched in line: the arm succeeded, so the
# union is its left arm; go on under the scope the union had.
_FOUND = object()


# What ``Evaluator._test`` answers when only a search can decide a check.
_SEARCH = object()


class _Chooser:
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


class Evaluator:
    """Evaluates core terms of one program under one bound configuration.
    Search, checks and replay each add a few Python frames per nested
    universal check and none per sequence step, iterate unfolding or letter.

    ``nodes`` counts module steps actually expanded.  ``exists_calls``
    counts the universal checks made through ``exists`` and ``table_hits``
    those answered from the table, which expand no node.  The left arm of a
    union that the search runs in line (see the module docstring) is no
    ``exists`` call, and a table answer for it is no hit: it is decided by
    the search itself.
    """

    def __init__(self, program: Program, cfg: SearchConfig):
        self.program = program
        self.cfg = cfg
        self.nodes = 0
        self.exists_calls = 0
        self.table_hits = 0
        # Per input: successors depend only on the frontier letter, which
        # recurs a lot across branches of the search, and the table holds
        # the definite answers of module-bearing checks.
        self._input: Optional[Structure] = None
        self._succ: dict[tuple, tuple] = {}
        self._table: dict[tuple, bool] = {}

    def _bind(self, input_structure: Structure) -> None:
        """Drop the per-input caches when the input changes."""
        if input_structure is not self._input:
            self._input = input_structure
            self._succ.clear()
            self._table.clear()

    def _successors(self, name: str, letter) -> tuple:
        key = (name, letter.registers)
        cached = self._succ.get(key)
        if cached is None:
            cached = tuple(
                (apply_choice(letter, c), c)
                for c in successor_choices(self.program.modules[name], letter)
            )
            self._succ[key] = cached
        return cached

    # --- search ----------------------------------------------------------

    def iter_extensions(self, term: T.Term, trace: Trace, scope: _Scope) -> Iterator[Trace]:
        """Yield every bounded extension of ``trace`` on which ``term``
        succeeds under some sequence of guesses; set ``scope.hit`` when the
        enumeration is incomplete because a bound was reached.

        Depth first, from one explicit stack of ``(node, trace,
        continuation, scope)`` entries; a continuation is ``None`` or a
        linked ``(node, rest)`` pair.  The Python stack grows only with the
        nesting of universal checks, not with sequence chains or traces."""
        max_length, budget = self.cfg.max_trace_length, self.cfg.node_budget
        stack = [(term, trace, None, scope)]
        while stack:
            node, trace, k, scope = stack.pop()
            while True:  # evaluate ``node`` on ``trace``; break to backtrack
                cls = type(node)
                if cls is T.Seq:
                    node, k = node.left, (node.right, k)
                    continue
                if cls is tuple:  # a successor ``(letter, choice)``
                    if budget is not None and self.nodes >= budget:
                        scope.hit = True
                        break
                    self.nodes += 1
                    trace = trace.extend(*node)
                elif cls is T.ModuleRef:
                    if trace.length >= max_length:
                        scope.hit = True
                        break
                    # counted and budget-checked only when popped
                    succ = self._successors(node.name, trace.last)
                    stack += [(s, trace, k, scope) for s in reversed(succ)]
                    break
                elif cls is T.BackGlobal:
                    if not check_bg(node.current, node.past, trace):
                        break
                elif cls is T.AntiDomain:
                    r = self.exists(node.term, trace)
                    if r is not False:
                        if r is None:
                            scope.hit = True
                        break
                elif cls is T.EqTest:
                    if not check_eq(node.left, node.right, trace):
                        break
                elif cls is T.PrefUnion:
                    # the left arm is decided directly or from the table, or
                    # else searched once, in line, under an ``_Else`` scope
                    left = node.left
                    r = self._test(left, trace)
                    if r is _SEARCH:
                        key = self._key(left, trace)
                        r = self._table.get(key) if key is not None else None
                        if r is None:
                            nxt = _Else(node.right, k, scope, key)
                            stack.append((nxt, trace, k, scope))
                            node, k, scope = left, (_FOUND, k), nxt
                            continue
                    node = left if r else node.right
                    continue
                elif node is _FOUND:  # the left arm of ``scope`` succeeded
                    if not scope.found:
                        scope.found = True
                        if scope.key is not None:
                            self._table[scope.key] = True
                    scope = scope.scope
                elif cls is _Else:  # every step of its left arm is explored
                    if node.hit:
                        scope.hit = True
                    if node.hit or node.found:
                        break
                    if node.key is not None:
                        self._table[node.key] = False
                    node = node.right
                    continue
                elif node is _AGAIN or cls is T.MaxIterate:
                    key = trace.last.registers
                    if node is _AGAIN:  # the body of ``scope`` made a step
                        scope.stepped = True
                        if key in scope.seen:
                            break
                        scope.seen.add(key)
                        nxt = _Unfold(scope.body, scope.k, scope.scope, scope.seen, key)
                    else:
                        nxt = _Unfold(node.term, k, scope, {key}, key)
                    stack.append((nxt, trace, nxt.k, nxt.scope))
                    node, k, scope = nxt.body, _AGAIN_K, nxt
                    continue
                elif cls is _Unfold:  # every step of its body is explored
                    node.seen.discard(node.key)
                    if node.hit:
                        scope.hit = True
                    if node.hit or node.stepped:  # else the iterate exits here
                        break
                elif cls is not T.Id:
                    raise TypeError(f"term is not in core form: {node!r}")
                # ``node`` holds: go on with the continuation
                if k is None:
                    yield trace
                    break
                node, k = k

    def exists(self, term: T.Term, trace: Trace):
        """Three-valued: is there any bounded extension on which ``term``
        succeeds?  ``None`` means the bounded search was inconclusive.

        The term is first evaluated directly on the trace, which decides it
        unless a module must be expanded.  Otherwise a definite answer (True,
        or False from a complete search) is tabled on the term's footprint
        from the program's compile step; ``None`` is never stored.  A term
        from outside the program has no footprint and is searched untabled.
        """
        self.exists_calls += 1
        r = self._test(term, trace)
        if r is not _SEARCH:
            return r
        if trace.input is not self._input:
            self._bind(trace.input)
        key = self._key(term, trace)
        if key is not None:
            r = self._table.get(key)
            if r is not None:
                self.table_hits += 1
                return r
        sub = _Scope()
        for _ in self.iter_extensions(term, trace, sub):
            r = True
            break
        else:
            r = None if sub.hit else False
        if r is not None and key is not None:
            self._table[key] = r
        return r

    def _key(self, term: T.Term, trace: Trace) -> Optional[tuple]:
        """The table key of the check of ``term`` on ``trace`` (the
        evaluator is bound to its input): its footprint from the program's
        compile step, or ``None`` for a term from outside the program.
        Registers outside the footprint stay unchanged and unread along
        every extension (milestone comparisons included), so the answer
        depends only on this key."""
        fp = self.program.footprint.get(id(term))
        if fp is None:
            return None
        cur, past = fp
        return (
            id(term),
            cur(trace.last.registers),
            past(trace.hist) if past is not None else None,
            trace.length,
        )

    def _test(self, term: T.Term, trace: Trace):
        """Evaluate ``term`` directly on ``trace`` as a test: True or False,
        exactly what a nested search would return, without one, or
        ``_SEARCH`` when the evaluation reaches a module, which only a
        search can expand.  A sequence is true when all its parts are, else
        its first part that is not; it is walked from a worklist, so a long
        chain stays flat.  Nodes are told apart by type tests, which cost
        about half as much as class patterns on this hot path."""
        work = [term]
        while work:
            t = work.pop()
            cls = type(t)
            if cls is T.Seq:
                work.append(t.right)
                work.append(t.left)
                continue
            if cls is T.BackGlobal:
                r = check_bg(t.current, t.past, trace)
            elif cls is T.AntiDomain or cls is T.MaxIterate:
                # an iterate of a test exits exactly where the test fails
                r = self._test(t.term, trace)
                if r is not _SEARCH:
                    r = not r
            elif cls is T.EqTest:
                r = check_eq(t.left, t.right, trace)
            elif cls is T.ModuleRef:
                return _SEARCH
            elif cls is T.Id:
                continue
            elif cls is T.PrefUnion:
                r = self._test(t.left, trace)
                if r is _SEARCH:
                    return r
                work.append(t.left if r else t.right)
                continue
            else:
                raise TypeError(f"term is not in core form: {t!r}")
            if r is not True:
                return r
        return True

    def extensions(self, term: T.Term, trace: Trace) -> tuple[list[Trace], bool]:
        """Eager enumeration: (all extensions found, enumeration complete?)."""
        self._bind(trace.input)
        scope = _Scope()
        found = list(self.iter_extensions(term, trace, scope))
        return found, not scope.hit

    # --- verdicts ----------------------------------------------------------

    def run(self, input_structure: Structure) -> Verdict:
        self._bind(input_structure)
        _check_input(self.program, input_structure)
        scope = _Scope()
        start = Trace.initial(input_structure)
        result = next(self.iter_extensions(self.program.core, start, scope), None)
        counters = dict(exists_calls=self.exists_calls, table_hits=self.table_hits)
        if result is not None:
            witness = Witness(result.choices, len(result))
            return Verdict("yes", witness, self.nodes, trace=result, **counters)
        return Verdict("bound-exceeded" if scope.hit else "no", None, self.nodes, **counters)

    def enumerate(self, input_structure: Structure) -> list[Witness]:
        self._bind(input_structure)
        _check_input(self.program, input_structure)
        trace = Trace.initial(input_structure)
        seen: set = set()
        out: list[Witness] = []
        for result in self.iter_extensions(self.program.core, trace, _Scope()):
            key = result.key()
            if key in seen:
                continue
            seen.add(key)
            out.append(Witness(result.choices, len(result)))
            if len(out) >= self.cfg.witness_limit:
                break
        return out

    # --- replay ------------------------------------------------------------

    def replay(self, input_structure: Structure, witness: Witness) -> Trace:
        """Deterministically re-derive the witness trace; raises
        ``ChoiceMismatchError`` when the certificate does not replay.

        Every guess is dictated by the certificate; at each point exactly one
        rule applies, so no search over choices happens.  Universal checks
        (anti-domain, union arms, iterate exits) are re-established by the
        same bounded procedure the search uses.  Replay's Python stack depth
        does not grow with the length of a sequence chain: a ``pow(t, j)``
        certificate replays at the same depth for every ``j``.

        A failure's message starts with ``at choice i:``, where ``i`` is the
        number of choices replayed before it (the index of the failing one).
        Each replayed choice adds one letter, so the checks of
        ``final_length`` up front keep the trace within the length bound.
        An invalid program raises as it does for a run, before any replay.
        """
        _check_input(self.program, input_structure)
        chooser = _Chooser(witness.choices)
        try:
            if witness.final_length != 1 + len(witness.choices):
                raise ChoiceMismatchError("final_length does not match the number of choices")
            if witness.final_length > self.cfg.max_trace_length:
                raise ChoiceMismatchError("certificate exceeds the configured length bound")
            trace = self._replay(self.program.core, Trace.initial(input_structure), chooser)
            if not chooser.exhausted():
                raise ChoiceMismatchError("certificate has more choices than the derivation uses")
        except ChoiceMismatchError as e:
            raise type(e)(f"at choice {chooser.pos}: {e}") from None
        return trace

    def _replay(self, term: T.Term, trace: Trace, chooser: _Chooser) -> Trace:
        # Sequencing and the chosen union arm are replayed from a worklist,
        # left part before right part, so the Python stack stays flat however
        # long a ``Seq`` chain (e.g. a desugared ``pow``) is.
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
                    letter = apply_choice(trace.last, choice, self.program.modules[name])
                    chooser.pos += 1
                    self.nodes += 1
                    trace = trace.extend(letter, choice)
                case T.Seq(a, b):
                    work.append(b)
                    work.append(a)
                case T.AntiDomain(a):
                    r = self.exists(a, trace)
                    if r is not False:
                        raise ChoiceMismatchError(
                            "anti-domain test fails" if r else "anti-domain check inconclusive"
                        )
                case T.PrefUnion(a, b):
                    r = self.exists(a, trace)
                    if r is None:
                        raise ChoiceMismatchError("union arm check inconclusive")
                    work.append(a if r else b)
                case T.MaxIterate(a):
                    seen = {trace.last.registers}
                    while True:
                        r = self.exists(a, trace)
                        if r is False:
                            break
                        if r is None:
                            raise ChoiceMismatchError("iterate exit check inconclusive")
                        trace = self._replay(a, trace, chooser)
                        key = trace.last.registers
                        if key in seen:
                            raise ChoiceMismatchError("iterate revisits a milestone valuation")
                        seen.add(key)
                case T.EqTest(p, q):
                    if not check_eq(p, q, trace):
                        raise ChoiceMismatchError(f"equality test {p} == {q} fails")
                case T.BackGlobal(p, q):
                    if not check_bg(p, q, trace):
                        raise ChoiceMismatchError(f"history test BG({p} != {q}) fails")
                case other:
                    raise TypeError(f"term is not in core form: {other!r}")
        return trace


def _check_input(program: Program, input_structure: Structure) -> Program:
    """Refuse an invalid program, else return it.  The program was validated
    when it was built; only the constants depend on the input's domain."""
    if input_structure.vocabulary != program.vocabulary:
        raise VocabularyMismatchError("input structure does not match the program vocabulary")
    diags = [*program.diagnostics, *check_constants(program, input_structure.domain)]
    if diags:
        raise UnknownSymbolError(f"program is not valid: {diags[0]}")
    return program


# --- module-level convenience surface ---------------------------------------


def eval_deltas(
    program: Program, term: T.Term, trace: Trace, cfg: SearchConfig
) -> tuple[list[Trace], bool]:
    """All bounded extensions of ``trace`` on which ``term`` succeeds, plus a
    flag telling whether the enumeration is complete (no bound was hit).
    ``term`` is compiled with the program's modules, and refused as a run
    refuses an invalid program."""
    compiled = _check_input(replace(program, main=term), trace.input)
    return Evaluator(compiled, cfg).extensions(compiled.core, trace)


def holds_antidomain(program: Program, term: T.Term, trace: Trace, cfg: SearchConfig):
    """Three-valued anti-domain test: True iff no bounded extension lets
    ``term`` succeed; None when the bounded search is inconclusive.  The
    term is compiled and refused as in :func:`eval_deltas`."""
    compiled = _check_input(replace(program, main=term), trace.input)
    r = Evaluator(compiled, cfg).exists(compiled.core, trace)
    return None if r is None else not r


def run_main_task(
    program: Program, input_structure: Structure, cfg: Optional[SearchConfig] = None
) -> Verdict:
    """Decide whether some sequence of guesses executes the program's term
    successfully from the input (registers must start blank)."""
    if any(v is not None for v in input_structure.registers):
        raise TraceLangError("the main task starts from a blank register valuation")
    if cfg is None:
        cfg = SearchConfig.for_run(program, input_structure)
    return Evaluator(program, cfg).run(input_structure)


def enumerate_witnesses(
    program: Program, input_structure: Structure, cfg: Optional[SearchConfig] = None
) -> list[Witness]:
    """Distinct witnesses (one per accepting trace) in search order, up to
    ``cfg.witness_limit``."""
    if cfg is None:
        cfg = SearchConfig.for_run(program, input_structure)
    return Evaluator(program, cfg).enumerate(input_structure)


def verify_witness(
    program: Program,
    input_structure: Structure,
    witness: Witness,
    cfg: Optional[SearchConfig] = None,
) -> bool:
    """Replay a certificate; True iff the deterministic derivation succeeds
    and consumes exactly the recorded choices."""
    return replay_failure(program, input_structure, witness, cfg) is None


def replay_failure(
    program: Program,
    input_structure: Structure,
    witness: Witness,
    cfg: Optional[SearchConfig] = None,
) -> Optional[str]:
    """Replay a certificate; None when it replays cleanly, else why not, as
    ``at choice i: <reason>`` with ``i`` the number of choices replayed
    before the failure."""
    if cfg is None:
        cfg = SearchConfig.for_run(program, input_structure)
    try:
        Evaluator(program, cfg).replay(input_structure, witness)
        return None
    except ChoiceMismatchError as e:
        return str(e)
