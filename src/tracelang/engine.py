"""Search engine for the main task and deterministic certificate replay.

A term is evaluated on a trace (a nonempty string of letters) by
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
recursion limit.  The compile step gives every ``==`` and ``BG`` test of
the core the positions of its register sides, and an evaluator binds each
unary EDB symbol's value when it is built, so no ``==`` test looks a symbol
up by name.  ``Trace.extend`` applies a module choice to the last letter
and updates the history of only the registers that choice wrote.

A module forward-checks a ``BG`` test that comes right after it, when the
module writes the test's current register and the past side is a
register: a choice the test rejects at the letter it would produce is
dropped before it becomes a trace, so it is no node and uses up no budget.
Its subtree was that one failing test, so every definite answer, witness
and enumeration stays as it was; only the node count drops, and a budget
once spent on rejected choices may now reach a definite answer.  Replay
applies each choice the certificate names and drops none; the checks it
asks search as the search does.

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
like a check's, so a known answer still skips the search.

A successful search yields a witness: the ordered list of module choices
along the accepting trace.  Replay re-runs the term with each guess read
from the certificate by trace length (a module step on ``L`` letters takes
choice ``L - 1``), so it is deterministic and keeps no cursor.  It proves a
true union arm or iterate step by replaying it, since a replay that
succeeds is a run; only a failed replay asks ``exists``, so only a false
arm or step, or a certificate that does not replay, is searched.

An :class:`Evaluator` runs the core of one program on one input under one
bound configuration; its caches and exists table hold for that input alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .errors import (
    ChoiceMismatchError,
    InvalidParamsError,
    TraceLangError,
    VocabularyMismatchError,
)
from .modules import Choice, apply_choice, check_choice, successor_choices
from .parser import Program, check_constants
from .structures import Structure
from . import terms as T


class Trace:
    """Nonempty string of letters; the first letter is the input.

    A letter is the input structure under one register valuation.  Domain,
    EDB and indexes never change along a trace, so it keeps one
    ``Structure``, its ``input``, and per letter only the valuation tuple
    (Driscoll et al., *Making data structures persistent*, JCSS 1989).

    A trace is a persistent parent-pointer chain.  Each node holds its parent
    (``None`` at the input letter), the valuation ``last`` of its last
    letter, the module ``choice`` that produced that letter, its ``length``,
    the ``input``, the history ``hist`` and a hash computed once.  Extending
    shares the whole prefix, so ``extend`` costs O(registers written by one
    choice) however long the trace is and however many registers there are
    (see ``hist`` below), and siblings extended from one node share the
    prefix too.  ``choices`` and ``key()`` (the valuation of each letter) are
    read-only views built on demand by walking the chain, in O(length).

    ``hist`` holds, per register, the values it held at
    all letters except the last, as an immutable ``int`` bitmask: bit 0 for
    blank, bit i+1 for domain element i.  It makes history tests one bit test.
    It depends on the letters alone.  ``extend`` builds every letter after
    the input by applying its choice, so a register that the choice of the
    last letter did not write holds the value it held one letter earlier,
    whose bit is set already, and ``extend`` updates only the masks of the
    registers that choice wrote (at the input letter, every mask).
    """

    __slots__ = ("parent", "last", "choice", "length", "input", "hist", "_hash")

    def __init__(
        self,
        parent: Optional["Trace"],
        last: tuple,
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
        registers = input_structure.registers
        return cls(None, registers, None, 1, input_structure, (0,) * len(registers), hash(registers))

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
    def choices(self) -> tuple[Choice, ...]:
        """The module choice that produced each non-input letter."""
        return tuple(node.choice for node in self._chain()[1:])

    def __len__(self) -> int:
        return self.length

    def extend(self, choice: Choice) -> "Trace":
        """This trace with one more letter, produced by ``choice``: the last
        valuation with the choice's elements written in (``apply_choice``).
        The choice is not checked: see ``modules.check_choice``."""
        values, hist, order = self.last, list(self.hist), self.input._dindex
        if self.parent is None:
            for i, v in enumerate(values):
                hist[i] |= 1 if v is None else 2 << order[v]
        else:  # plain loops: a generator costs a frame per step
            rindex = self.input.vocabulary.register_index
            for reg, _ in self.choice.assignment:
                i = rindex[reg]
                v = values[i]
                hist[i] |= 1 if v is None else 2 << order[v]
        registers = apply_choice(self.input, values, choice)
        return Trace(
            self, registers, choice, self.length + 1, self.input, tuple(hist),
            hash((self._hash, registers)),
        )

    def key(self) -> tuple:
        """Content key: the valuation of every letter (EDB is fixed per run)."""
        return tuple(node.last for node in self._chain())

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        if self.length != other.length or self._hash != other._hash:
            return False
        a, b = self, other
        while a is not b:  # walk back to a shared ancestor, if any
            if a.last != b.last:
                return False
            if a.parent is None:
                return a.input == b.input
            a, b = a.parent, b.parent
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<Trace len={len(self)}>"


def _value(symbol: str, trace: Trace):
    """The interpretation of the unary ``symbol`` at the last letter, in a
    register's terms: ``None`` for the empty set, the element of a
    singleton, else the set.  A register is read from the valuation; EDB
    symbols and ``adom`` from the input, as they never change along a trace."""
    i = trace.input.vocabulary.register_index.get(symbol)
    if i is not None:
        return trace.last[i]
    interp = trace.input.interp(symbol)
    return interp if len(interp) > 1 else next(iter(interp), None)


def check_eq(p: str, q: str, trace: Trace) -> bool:
    """True iff the set interpretations of ``p`` and ``q`` coincide at the
    last letter (a blank register is the empty set)."""
    return _value(p, trace) == _value(q, trace)


def check_bg(p: str, q: str, trace: Trace) -> bool:
    """True iff the current interpretation of ``p`` differs from the
    interpretation of ``q`` at every strictly earlier letter."""
    v = _value(p, trace)
    qi = trace.input.vocabulary.register_index.get(q)
    if qi is None:
        past = _value(q, trace)  # EDB: constant along the trace
        return len(trace) < 2 or past != v
    if type(v) is frozenset:
        return True  # register interpretations never have two elements
    return not trace.hist[qi] & (1 if v is None else 2 << trace.input._dindex[v])


_LENGTH_CAP = 1 << 62


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for the search: the trace length and the node budget.  The
    nesting of universal checks needs no bound here, the program fixes it.
    ``max_trace_length`` counts letters including the input (``for_run``
    derives it from an exponent ``k``, which is not kept).  ``node_budget``
    caps the module steps expanded (``None``: no cap); the lab counts the
    successor traces it builds against it instead."""

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
        on the input alone, not on ``program``.  A given length bound must
        hold the input letter.  The default is ``max(2, n) ** k + 2``: the
        polynomial bound on added letters, plus the input letter, plus one
        letter of headroom so that exhaustion probes (a guess that must be
        materialized before a freshness test can reject it) stay conclusive
        at very small domains.  No search builds a trace near ``2 ** 62``
        letters, so the default is cut there: no answer changes, and a huge
        ``k`` costs no more than ``k = 62``."""
        if k < 0:
            raise InvalidParamsError(f"the length-bound exponent k must be nonnegative, got {k}")
        if max_trace_length is None:
            # max(2, n) ** 62 >= 2 ** 62, so capping k first bounds the power
            power = max(2, len(input_structure.domain)) ** min(k, 62)
            max_trace_length = min(power, _LENGTH_CAP) + 2
        elif max_trace_length < 1:
            raise InvalidParamsError(
                f"the trace length bound must hold the input letter (at least 1), got {max_trace_length}"
            )
        return cls(max_trace_length, witness_limit, node_budget)


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
    union's, ``key`` the left arm's table key."""

    __slots__ = ("right", "k", "scope", "key", "hit", "found")

    def __init__(self, right: T.Term, k, scope, key):
        self.right, self.k, self.scope, self.key = right, k, scope, key
        self.hit = self.found = False


# The continuation of a left arm searched in line: the arm succeeded, so the
# union is its left arm; go on under the scope the union had.
_FOUND = object()


# What ``Evaluator._test`` answers when only a search can decide a check.
_SEARCH = object()


class Evaluator:
    """Evaluates the core of one program, and the subterms of it that a
    search checks, on one input under one bound configuration.  It refuses
    an input the program cannot run on (see ``_check_input``) when it is
    built; every trace it is given starts at that input.  Search, checks and
    replay each add a few Python frames per nested universal check and none
    per sequence step, iterate unfolding or letter.

    ``nodes`` counts module steps actually expanded; a choice that the
    ``BG`` test right after its module rejects, when the module writes the
    test's current register, is dropped before it becomes a trace and is no
    node (see ``iter_extensions``).  ``exists_calls``
    counts the universal checks made through ``exists`` and ``table_hits``
    those answered from the table, which expand no node.  The left arm of a
    union that the search runs in line (see the module docstring) is no
    ``exists`` call, and a table answer for it is no hit: it is decided by
    the search itself.
    """

    def __init__(self, program: Program, input_structure: Structure, cfg: SearchConfig):
        _check_input(program, input_structure)
        start = Trace.initial(input_structure)
        # the value of each unary EDB symbol, fixed for the input
        self._edb = {n: _value(n, start) for n, arity in program.vocabulary.edb_symbols if arity == 1}
        self.program = program
        self.input = input_structure
        self.cfg = cfg
        self.nodes = 0
        self.exists_calls = 0
        self.table_hits = 0
        # A module's choices, keyed on its name and the values of the
        # registers it reads, on which alone they depend, and the definite
        # answers of module-bearing checks.
        self._choices: dict[tuple, tuple] = {}
        self._table: dict[tuple, bool] = {}

    # --- search ----------------------------------------------------------

    def iter_extensions(self, term: T.Term, trace: Trace, scope: _Scope) -> Iterator[Trace]:
        """Yield every bounded extension of ``trace`` on which ``term``
        succeeds under some sequence of guesses; set ``scope.hit`` when the
        enumeration is incomplete because a bound was reached.

        Depth first, from one explicit stack of ``(node, trace,
        continuation, scope)`` entries; a continuation is ``None`` or a
        linked ``(node, rest)`` pair.  A module pushes one entry per choice,
        and a choice is counted, budget-checked and applied to its trace
        only when it is popped.  When the leftmost leaf of the continuation
        is a ``BG`` test whose current side the module writes and whose past
        side is a register, the module forward-checks it (Haralick &
        Elliott, *Increasing tree search efficiency for constraint
        satisfaction problems*, AI 1980): each choice's element is tested
        against the history the past side would have, the current one plus
        the last letter's value, and only the choices that pass are pushed,
        with the continuation after the test.  Any other test is left to run
        on each popped trace.
        A dropped choice is never applied or counted and uses up no budget;
        its subtree was one failing test, so nothing else changes.  The
        Python stack grows only with the nesting of universal checks, not
        with sequence chains or traces."""
        max_length, budget = self.cfg.max_trace_length, self.cfg.node_budget
        compiled, cache = self.program.compiled, self._choices
        stack = [(term, trace, None, scope)]
        while stack:
            node, trace, k, scope = stack.pop()
            while True:  # evaluate ``node`` on ``trace``; break to backtrack
                cls = type(node)
                if cls is T.Seq:
                    node, k = node.left, (node.right, k)
                    continue
                if cls is Choice:  # a successor of ``trace``
                    if budget is not None and self.nodes >= budget:
                        scope.hit = True
                        break
                    self.nodes += 1
                    trace = trace.extend(node)
                elif cls is T.ModuleRef:
                    if trace.length >= max_length:
                        scope.hit = True
                        break
                    name = node.name
                    module = compiled[name]
                    key = (name, module.reads(trace.last))
                    succ = cache.get(key)
                    if succ is None:
                        succ = cache[key] = successor_choices(module, trace.input, trace.last)
                    if k is not None:  # forward-check a BG test that comes next
                        test, rest = k
                        while type(test) is T.Seq:
                            test, rest = test.left, (test.right, rest)
                        j = test.positions[1] if type(test) is T.BackGlobal else None
                        if j is not None and test.current in module.heads:
                            h = module.heads.index(test.current)
                            order, v = trace.input._dindex, trace.last[j]
                            past = trace.hist[j] | (1 if v is None else 2 << order[v])
                            for c in reversed(succ):
                                if not past & 2 << order[c.assignment[h][1]]:
                                    stack.append((c, trace, rest, scope))
                            break
                    for c in reversed(succ):  # a loop: a comprehension costs a frame
                        stack.append((c, trace, k, scope))
                    break
                elif cls is T.BackGlobal:
                    i, j = node.positions
                    if i is None or j is None:
                        if not check_bg(node.current, node.past, trace):
                            break
                    else:
                        v = trace.last[i]
                        if trace.hist[j] & (1 if v is None else 2 << trace.input._dindex[v]):
                            break
                elif cls is T.AntiDomain:
                    r = self.exists(node.term, trace)
                    if r is not False:
                        if r is None:
                            scope.hit = True
                        break
                elif cls is T.EqTest:
                    i, j = node.positions
                    if (self._edb[node.left] if i is None else trace.last[i]) != (
                        self._edb[node.right] if j is None else trace.last[j]
                    ):
                        break
                elif cls is T.PrefUnion:
                    # the left arm is decided directly or from the table, or
                    # else searched once, in line, under an ``_Else`` scope
                    left = node.left
                    r = self._test(left, trace)
                    if r is _SEARCH:
                        key = self._key(left, trace)
                        r = self._table.get(key)
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
                        self._table[scope.key] = True
                    scope = scope.scope
                elif cls is _Else:  # every step of its left arm is explored
                    if node.hit:
                        scope.hit = True
                    if node.hit or node.found:
                        break
                    self._table[node.key] = False
                    node = node.right
                    continue
                elif node is _AGAIN or cls is T.MaxIterate:
                    key = trace.last
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
        from the program's compile step; ``None`` is never stored.
        """
        self.exists_calls += 1
        r = self._test(term, trace)
        if r is not _SEARCH:
            return r
        key = self._key(term, trace)
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
        if r is not None:
            self._table[key] = r
        return r

    def _key(self, term: T.Term, trace: Trace) -> tuple:
        """The table key of the check of ``term`` on ``trace`` (the
        evaluator is bound to its input): its footprint from the program's
        compile step.  Registers outside the footprint stay unchanged and
        unread along every extension (milestone comparisons included), so
        the answer depends only on this key."""
        cur, past = self.program.footprint[id(term)]
        return (
            id(term),
            cur(trace.last),
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
                i, j = t.positions
                if i is None or j is None:
                    r = check_bg(t.current, t.past, trace)
                else:
                    v = trace.last[i]
                    r = not trace.hist[j] & (1 if v is None else 2 << trace.input._dindex[v])
            elif cls is T.AntiDomain or cls is T.MaxIterate:
                # an iterate of a test exits exactly where the test fails
                r = self._test(t.term, trace)
                if r is not _SEARCH:
                    r = not r
            elif cls is T.EqTest:
                i, j = t.positions
                r = (self._edb[t.left] if i is None else trace.last[i]) == (
                    self._edb[t.right] if j is None else trace.last[j]
                )
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

    # --- verdicts ----------------------------------------------------------

    def run(self) -> Verdict:
        scope = _Scope()
        start = Trace.initial(self.input)
        result = next(self.iter_extensions(self.program.core, start, scope), None)
        counters = dict(exists_calls=self.exists_calls, table_hits=self.table_hits)
        if result is not None:
            witness = Witness(result.choices, len(result))
            return Verdict("yes", witness, self.nodes, **counters)
        return Verdict("bound-exceeded" if scope.hit else "no", None, self.nodes, **counters)

    def enumerate(self) -> list[Witness]:
        trace = Trace.initial(self.input)
        seen: set[Trace] = set()
        out: list[Witness] = []
        for result in self.iter_extensions(self.program.core, trace, _Scope()):
            if result in seen:
                continue
            seen.add(result)
            out.append(Witness(result.choices, len(result)))
            if len(out) >= self.cfg.witness_limit:
                break
        return out

    # --- replay ------------------------------------------------------------

    def replay(self, witness: Witness) -> Trace:
        """Deterministically re-derive the witness trace; raises
        ``ChoiceMismatchError`` when the certificate does not replay.

        Every guess is dictated by the certificate, read by trace length (a
        module step on ``L`` letters takes choice ``L - 1``); at each point
        exactly one rule applies, so no search over choices happens.  A
        union's left arm and an iterate's step are replayed first, and
        checked by the same bounded procedure the search uses only when that
        replay fails; every anti-domain test is checked so.  Replay's Python
        stack depth grows with the nesting of left arms and iterates, which
        the program bounds, not with the length of a sequence chain: a
        ``pow(t, j)`` certificate replays at the same depth for every ``j``.

        A failure's message starts with ``at choice i:``, where ``i`` is the
        number of choices replayed before it (the index of the failing one),
        read from the trace where it was raised.  The checks of
        ``final_length`` up front keep the trace within the length bound.
        """
        choices, trace = witness.choices, Trace.initial(self.input)
        try:
            if witness.final_length != 1 + len(choices):
                raise ChoiceMismatchError("final_length does not match the number of choices")
            if witness.final_length > self.cfg.max_trace_length:
                raise ChoiceMismatchError("certificate exceeds the configured length bound")
            trace = self._replay(self.program.core, trace, choices)
            if trace.length != witness.final_length:
                raise ChoiceMismatchError("certificate has more choices than the derivation uses")
        except ChoiceMismatchError as e:
            step = trace.length - 1 if e.step is None else e.step
            raise type(e)(f"at choice {step}: {e}") from None
        return trace

    def _replay(self, term: T.Term, trace: Trace, choices: tuple[Choice, ...]) -> Trace:
        # Sequencing and the chosen union arm are replayed from a worklist,
        # left part before right part, so the Python stack stays flat however
        # long a ``Seq`` chain (e.g. a desugared ``pow``) is.  Nodes are told
        # apart by type tests, most frequent class first, as in ``_test``.
        work = [term]
        try:
            while work:
                node = work.pop()
                cls = type(node)
                if cls is T.Seq:
                    work.append(node.right)
                    work.append(node.left)
                elif cls is T.ModuleRef:
                    if trace.length > len(choices):
                        raise ChoiceMismatchError("certificate has fewer choices than the derivation needs")
                    name, choice = node.name, choices[trace.length - 1]
                    if choice.module != name:
                        raise ChoiceMismatchError(
                            f"certificate names module {choice.module}, derivation needs {name}"
                        )
                    check_choice(self.program.compiled[name], trace.input, trace.last, choice)
                    self.nodes += 1
                    trace = trace.extend(choice)
                elif cls is T.BackGlobal:
                    if not self._test(node, trace):
                        raise ChoiceMismatchError(f"history test BG({node.current} != {node.past}) fails")
                elif cls is T.AntiDomain:
                    r = self.exists(node.term, trace)
                    if r is not False:
                        raise ChoiceMismatchError(
                            "anti-domain test fails" if r else "anti-domain check inconclusive"
                        )
                elif cls is T.PrefUnion:
                    after = self._replay_if_true(node.left, trace, choices, "union arm")
                    if after is None:
                        work.append(node.right)
                    else:
                        trace = after
                elif cls is T.EqTest:
                    if not self._test(node, trace):
                        raise ChoiceMismatchError(f"equality test {node.left} == {node.right} fails")
                elif cls is T.MaxIterate:
                    seen, body = {trace.last}, node.term
                    while (after := self._replay_if_true(body, trace, choices, "iterate exit")) is not None:
                        trace = after
                        if trace.last in seen:
                            raise ChoiceMismatchError("iterate revisits a milestone valuation")
                        seen.add(trace.last)
                elif cls is not T.Id:
                    raise TypeError(f"term is not in core form: {node!r}")
        except ChoiceMismatchError as e:
            if e.step is None:  # raised here, not by a nested replay that stands
                e.step = trace.length - 1
            raise
        return trace

    def _replay_if_true(self, a: T.Term, trace: Trace, choices: tuple[Choice, ...], check: str):
        """The trace after ``a`` replayed from the certificate, or ``None``
        where no run of ``a`` exists.  A replay that succeeds is a run, so
        only a failed one asks ``exists``; if a run exists after all, the
        derivation must take ``a``, and the replay's own failure stands.
        ``check`` names the check in the reason of an inconclusive one."""
        try:
            return self._replay(a, trace, choices)
        except ChoiceMismatchError:
            r = self.exists(a, trace)
            if r is None:
                raise ChoiceMismatchError(f"{check} check inconclusive") from None
            if r:
                raise
            return None


def _check_input(program: Program, input_structure: Structure) -> None:
    """Refuse an input the program cannot run on: one of another vocabulary,
    or whose domain lacks a constant of the program.  The program itself was
    validated when it was built."""
    if input_structure.vocabulary != program.vocabulary:
        raise VocabularyMismatchError("input structure does not match the program vocabulary")
    check_constants(program, input_structure.domain)


# --- module-level convenience surface ---------------------------------------


def eval_deltas(
    program: Program, term: T.Term, trace: Trace, cfg: SearchConfig
) -> tuple[list[Trace], bool]:
    """All bounded extensions of ``trace`` on which ``term`` succeeds, plus a
    flag telling whether the enumeration is complete (no bound was hit).
    ``term`` is compiled with the program's modules, and refused as a
    program built from them and ``term`` would be."""
    compiled = replace(program, main=term)
    scope = _Scope()
    found = list(Evaluator(compiled, trace.input, cfg).iter_extensions(compiled.core, trace, scope))
    return found, not scope.hit


def holds_antidomain(program: Program, term: T.Term, trace: Trace, cfg: SearchConfig):
    """Three-valued anti-domain test: True iff no bounded extension lets
    ``term`` succeed; None when the bounded search is inconclusive.  The
    term is compiled and refused as in :func:`eval_deltas`."""
    compiled = replace(program, main=term)
    r = Evaluator(compiled, trace.input, cfg).exists(compiled.core, trace)
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
    return Evaluator(program, input_structure, cfg).run()


def enumerate_witnesses(
    program: Program, input_structure: Structure, cfg: Optional[SearchConfig] = None
) -> list[Witness]:
    """Distinct witnesses (one per accepting trace) in search order, up to
    ``cfg.witness_limit``."""
    if cfg is None:
        cfg = SearchConfig.for_run(program, input_structure)
    return Evaluator(program, input_structure, cfg).enumerate()


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
        Evaluator(program, input_structure, cfg).replay(witness)
        return None
    except ChoiceMismatchError as e:
        return str(e)
