"""Program file parsing and validation.

Program file format (``#`` starts a comment)::

    module GuessP {
        P(x) <~ adom(x)
    }
    module Step { Next(y) <~ Reach(x), E(x, y) }
    term: GuessP ; BG(P != P)

Rules are separated by newlines or ``;`` inside the braces.  Atom arguments
are variables (lower-case identifiers) or quoted element constants.  The term
expression may span lines; it ends at the next top-level keyword or at the
end of the file.

Operator precedence, tightest first: postfix ``^``; prefix ``~``/``not``;
``;``/``and``; ``<+``/``or``.  Parentheses override.  ``if``/``while``/
``repeat`` parse greedily to the end of the enclosing expression.  Text that
nests parentheses, keyword arguments and prefix operators, or a program that
nests universal checks, more than ``MAX_NESTING`` levels deep is rejected.

Symbols are resolved against the vocabulary of the structure the program will
run on, so parsing takes a :class:`Vocabulary`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .cq import Atom, CQBody, Const, compile_body
from .errors import (
    ArityError,
    DuplicateSymbolError,
    HeadVarUnusedError,
    NonUnarySymbolError,
    ParseError,
    UnknownModuleError,
    UnknownSymbolError,
)
from .modules import ModuleDef, Rule
from .structures import Vocabulary
from .terms import MAX_NESTING
from . import terms as T

KEYWORDS = {
    "module", "term", "id", "skip", "fail", "test", "dom", "dia", "not",
    "and", "or", "if", "then", "else", "while", "do", "repeat", "until",
    "pow", "BG",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<string>"[^"\n]*")
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op><~|<\+|==|!=|[~;^(){},:=])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # 'name', 'int', 'string', 'op', 'newline', 'eof'
    text: str
    line: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        if kind == "newline":
            tokens.append(Token("newline", "\n", line))
            line += 1
            continue
        tokens.append(Token(kind, m.group(), line))
    tokens.append(Token("eof", "", line))
    return tokens


# diagnostic code -> the error parse_program raises for it (else ParseError)
_ERRORS = {
    "UnknownModule": UnknownModuleError,
    "UnknownSymbol": UnknownSymbolError,
    "NonUnarySymbolInTest": NonUnarySymbolError,
    "HeadVarUnused": HeadVarUnusedError,
    "ArityMismatch": ArityError,
}
_CODES = {error: code for code, error in _ERRORS.items()}

# rule-body checks, memoized apart from the plans runs use (see cq._plan)
_check_body = lru_cache(maxsize=1024)(compile_body)


@dataclass
class Diagnostic:
    code: str
    message: str
    line: int | None = None

    def __str__(self):
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.code}: {self.message}{where}"


_COMPILED = dict(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Program:
    """A program over one vocabulary, compiled once when it is built:
    ``core`` is the term the engine runs, ``check_depth`` the nesting depth
    of the universal checks a search of it can open, ``footprint`` maps the
    ids of the core and of each subterm it checks to their footprint
    getters (the program holds the core, so the ids stay unique), and
    ``diagnostics`` are what :func:`validate_program` reports."""

    vocabulary: Vocabulary
    modules: dict[str, ModuleDef]
    main: T.Term
    source: str = field(default="", compare=False)
    core: T.Term = field(**_COMPILED)
    check_depth: int = field(**_COMPILED)
    footprint: dict = field(**_COMPILED)
    diagnostics: tuple = field(**_COMPILED)

    def __post_init__(self):
        for name, value in zip(("core", "check_depth", "footprint", "diagnostics"), _compile(self)):
            object.__setattr__(self, name, value)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = -1  # nesting level of the expression being read

    def _descend(self) -> None:
        """Enter one more nesting level; the parser and the walks over the
        term recurse once per level, so past ``MAX_NESTING`` it stops."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"term is nested more than {MAX_NESTING} levels deep",
                self.peek(skip_newlines=True).line,
            )

    def peek(self, skip_newlines: bool = False) -> Token:
        i = self.pos
        if skip_newlines:
            while self.tokens[i].kind == "newline":
                i += 1
        return self.tokens[i]

    def next(self, skip_newlines: bool = False) -> Token:
        if skip_newlines:
            while self.tokens[self.pos].kind == "newline":
                self.pos += 1
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str, skip_newlines: bool = False) -> Token:
        tok = self.next(skip_newlines)
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line)
        return tok

    # --- terms ---------------------------------------------------------

    def parse_expr(self) -> T.Term:
        """An expression: a whole term, or one inside a parenthesis or a
        keyword's arguments, which is one nesting level deeper."""
        self._descend()
        left = self._parse_seq()
        while not self._at_expr_end():
            tok = self.peek(skip_newlines=True)
            if tok.text == "<+":
                self.next(skip_newlines=True)
                left = T.PrefUnion(left, self._parse_seq())
            elif tok.text == "or":
                self.next(skip_newlines=True)
                left = T.Or(left, self._parse_seq())
            else:
                break
        self.depth -= 1
        return left

    def _at_expr_end(self) -> bool:
        tok = self.peek(skip_newlines=True)
        return tok.kind == "eof" or tok.text in ("module", "term", ")", ",", "then", "else", "do", "until")

    def _parse_seq(self) -> T.Term:
        left = self._parse_prefix()
        while not self._at_expr_end():
            tok = self.peek(skip_newlines=True)
            if tok.text == ";":
                self.next(skip_newlines=True)
                left = T.Seq(left, self._parse_prefix())
            elif tok.text == "and":
                self.next(skip_newlines=True)
                left = T.And(left, self._parse_prefix())
            else:
                break
        return left

    def _parse_prefix(self) -> T.Term:
        tok = self.peek(skip_newlines=True)
        if tok.text not in ("~", "not"):
            return self._parse_postfix()
        self.next(skip_newlines=True)
        self._descend()
        inner = self._parse_prefix()
        self.depth -= 1
        return T.AntiDomain(inner) if tok.text == "~" else T.Not(inner)

    def _parse_postfix(self) -> T.Term:
        term = self._parse_atom()
        while self.peek(skip_newlines=True).text == "^":
            self.next(skip_newlines=True)
            term = T.MaxIterate(term)
        return term

    def _parse_atom(self) -> T.Term:
        tok = self.next(skip_newlines=True)
        if tok.text == "(":
            inner = self.parse_expr()
            self.expect(")", skip_newlines=True)
            return inner
        if tok.text == "id":
            return T.Id()
        if tok.text == "skip":
            return T.Skip()
        if tok.text == "fail":
            return T.Fail()
        if tok.text in ("test", "dom"):
            self.expect("(", skip_newlines=True)
            inner = self.parse_expr()
            self.expect(")", skip_newlines=True)
            return T.Test(inner) if tok.text == "test" else T.Dom(inner)
        if tok.text == "dia":
            self.expect("(", skip_newlines=True)
            proc = self.parse_expr()
            self.expect(",", skip_newlines=True)
            cond = self.parse_expr()
            self.expect(")", skip_newlines=True)
            return T.Dia(proc, cond)
        if tok.text == "pow":
            self.expect("(", skip_newlines=True)
            base = self.parse_expr()
            self.expect(",", skip_newlines=True)
            n_tok = self.next(skip_newlines=True)
            if n_tok.kind != "int":
                raise ParseError("pow exponent must be an integer literal", n_tok.line)
            self.expect(")", skip_newlines=True)
            return T.Pow(base, int(n_tok.text))
        if tok.text == "if":
            cond = self.parse_expr()
            self.expect("then", skip_newlines=True)
            then = self.parse_expr()
            self.expect("else", skip_newlines=True)
            orelse = self.parse_expr()
            return T.If(cond, then, orelse)
        if tok.text == "while":
            cond = self.parse_expr()
            self.expect("do", skip_newlines=True)
            return T.While(cond, self.parse_expr())
        if tok.text == "repeat":
            body = self.parse_expr()
            self.expect("until", skip_newlines=True)
            return T.Repeat(body, self.parse_expr())
        if tok.text == "BG":
            self.expect("(", skip_newlines=True)
            left = self._symbol_token()
            self.expect("!=", skip_newlines=True)
            right = self._symbol_token()
            self.expect(")", skip_newlines=True)
            return T.BackGlobal(left, right)
        if tok.kind == "name" and tok.text not in KEYWORDS:
            if self.peek(skip_newlines=True).text == "==":
                self.next(skip_newlines=True)
                right = self._symbol_token()
                return T.EqTest(tok.text, right)
            return T.ModuleRef(tok.text)
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r} in term", tok.line)

    def _symbol_token(self) -> str:
        tok = self.next(skip_newlines=True)
        if tok.kind != "name" or tok.text in KEYWORDS:
            raise ParseError(f"expected a symbol name, found {tok.text!r}", tok.line)
        return tok.text

    # --- rules and modules ----------------------------------------------

    def parse_atom_pred(self) -> Atom:
        sym = self.next(skip_newlines=True)
        if sym.kind != "name":
            raise ParseError(f"expected an atom, found {sym.text!r}", sym.line)
        self.expect("(", skip_newlines=True)
        args: list = []
        while True:
            tok = self.next(skip_newlines=True)
            if tok.kind == "string":
                args.append(Const(tok.text[1:-1]))
            elif tok.kind == "name":
                if not tok.text[0].islower():
                    raise ParseError(
                        f"variable {tok.text!r} must start lower-case (quote element constants)",
                        tok.line,
                    )
                args.append(tok.text)
            else:
                raise ParseError(f"expected a variable or constant, found {tok.text!r}", tok.line)
            sep = self.next(skip_newlines=True)
            if sep.text == ",":
                continue
            if sep.text == ")":
                break
            raise ParseError(f"expected ',' or ')' in atom, found {sep.text!r}", sep.line)
        return Atom(sym.text, tuple(args))

    def parse_rule(self) -> Rule:
        head = self.next(skip_newlines=True)
        if head.kind != "name":
            raise ParseError(f"expected a rule head, found {head.text!r}", head.line)
        self.expect("(")
        var = self.next()
        if var.kind != "name" or not var.text[0].islower():
            raise ParseError("rule head takes a single variable", var.line)
        self.expect(")")
        self.expect("<~")
        atoms = [self.parse_atom_pred()]
        while self.peek().text == ",":
            self.next()
            atoms.append(self.parse_atom_pred())
        return Rule(head.text, CQBody(var.text, tuple(atoms)), line=head.line)

    def parse_module(self) -> ModuleDef:
        name = self.next(skip_newlines=True)
        if name.kind != "name":
            raise ParseError(f"expected a module name, found {name.text!r}", name.line)
        self.expect("{", skip_newlines=True)
        rules: list[Rule] = []
        while True:
            tok = self.peek(skip_newlines=True)
            if tok.text == "}":
                self.next(skip_newlines=True)
                break
            rules.append(self.parse_rule())
            sep = self.peek()
            if sep.text == ";" or sep.kind == "newline":
                self.next()
        return ModuleDef(name.text, tuple(rules), line=name.line)


def parse_term(text: str) -> T.Term:
    """Parse one term expression (no validation against a vocabulary)."""
    parser = _Parser(tokenize(text))
    term = parser.parse_expr()
    trailing = parser.peek(skip_newlines=True)
    if trailing.kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.line)
    return term


def parse_program(text: str, vocabulary: Vocabulary) -> Program:
    """Parse and validate a program against the vocabulary it will run over."""
    parser = _Parser(tokenize(text))
    modules: dict[str, ModuleDef] = {}
    main: T.Term | None = None
    while True:
        tok = parser.peek(skip_newlines=True)
        if tok.kind == "eof":
            break
        if tok.text == "module":
            parser.next(skip_newlines=True)
            mod = parser.parse_module()
            if mod.name in modules:
                raise DuplicateSymbolError(f"module {mod.name} defined twice", mod.line)
            modules[mod.name] = mod
        elif tok.text == "term":
            parser.next(skip_newlines=True)
            parser.expect(":")
            if main is not None:
                raise ParseError("more than one term directive", tok.line)
            main = parser.parse_expr()
        else:
            raise ParseError(f"expected 'module' or 'term', found {tok.text!r}", tok.line)
    if main is None:
        raise ParseError("program has no term directive")
    program = Program(vocabulary, modules, main, source=text)
    if program.diagnostics:
        d = program.diagnostics[0]
        raise _ERRORS.get(d.code, ParseError)(d.message, d.line)
    return program


def validate_program(program: Program) -> list[Diagnostic]:
    """All well-formedness diagnostics for a program; empty iff valid."""
    return list(program.diagnostics)


def _getter(mask: int):
    """The getter of the registers whose bits are set in ``mask``; with
    none, ``registers[0:0]``, which is ``()``."""
    indexes = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return itemgetter(*indexes) if indexes else itemgetter(slice(0, 0))


def _compile(program: Program) -> tuple:
    """``(core, check_depth, footprint, diagnostics)``, see :class:`Program`.

    The core is ``main`` desugared, with one law applied: a test sequenced
    with itself is that test, ``p ; p -> p`` (Desharnais, Moeller & Struth,
    *Kleene algebra with domain*, ACM TOCL 2006).  A test (``id``, ``==``,
    ``BG``, ``~t``, or ``;``, ``<+`` or ``^`` over tests) keeps the trace or
    fails, and answers a second time as it did the first, so the law changes
    no search order, witness or node count.  It folds one shared object, as
    in a ``pow`` of a test, never two equal copies, whose checks the exists
    table keys apart.  It lives here and not in ``desugar``, so that the lab
    evaluates the plain expansion and stays an independent oracle.

    The core is walked once, with an explicit stack, once per shared node,
    for its check depth (``~``, ``^`` and the left arm of ``<+`` open one
    more level; the engine recurses once per level, so a depth past
    ``MAX_NESTING`` is a diagnostic), the registers its modules read in a
    rule body or write and its tests name, and the past sides of its history
    tests.  The core and each subterm a search checks (the body of ``~`` and
    ``^``, the left arm of ``<+``) get the getters of those registers and of
    that history, which key the exists table.
    """
    vocab, modules = program.vocabulary, program.modules
    bit = {x: 1 << i for x, i in vocab.register_index.items()}
    module_regs = {}
    for name, mod in modules.items():
        regs = 0
        for rule in mod.rules:
            regs |= bit.get(rule.head, 0)
            for atom in rule.body.atoms:
                regs |= bit.get(atom.symbol, 0)
        module_regs[name] = regs
    names: set[str] = set()
    symbols: set[str] = set()
    checked: dict[int, tuple] = {}
    # id(node) -> (compiled node, is a test, check depth, registers, past);
    # a node whose parts are not done yet goes back on the stack under them
    done: dict[int, tuple] = {}
    root = T.desugar(program.main)
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in done:
            continue
        cls = type(node)
        if cls is T.Seq or cls is T.PrefUnion:
            left, right = node.left, node.right
            a, b = done.get(id(left)), done.get(id(right))
            if a is None or b is None:
                stack += (node, right, left)
                continue
            t = node if a[0] is left and b[0] is right else cls(a[0], b[0])
            if cls is T.PrefUnion:
                checked[id(a[0])] = a
                info = (t, a[1] and b[1], max(1 + a[2], b[2]), a[3] | b[3], a[4] | b[4])
            elif a[0] is b[0] and a[1]:
                info = a
            else:
                info = (t, a[1] and b[1], max(a[2], b[2]), a[3] | b[3], a[4] | b[4])
        elif cls is T.AntiDomain or cls is T.MaxIterate:
            a = done.get(id(node.term))
            if a is None:
                stack += (node, node.term)
                continue
            checked[id(a[0])] = a
            t = node if a[0] is node.term else cls(a[0])
            info = (t, cls is T.AntiDomain or a[1], 1 + a[2], a[3], a[4])
        elif cls is T.ModuleRef:
            names.add(node.name)
            info = (node, False, 0, module_regs.get(node.name, 0), 0)
        elif cls is T.EqTest:
            symbols.update((node.left, node.right))
            info = (node, True, 0, bit.get(node.left, 0) | bit.get(node.right, 0), 0)
        elif cls is T.BackGlobal:
            symbols.update((node.current, node.past))
            past = bit.get(node.past, 0)
            info = (node, True, 0, bit.get(node.current, 0) | past, past)
        elif cls is T.Id:
            info = (node, True, 0, 0, 0)
        else:
            raise TypeError(f"term is not in core form: {node!r}")
        done[id(node)] = info
    top = done[id(root)]
    checked[id(top[0])] = top
    masks = {mask for *_, regs, past in checked.values() for mask in (regs, past)}
    getters = {mask: _getter(mask) for mask in masks}
    footprint = {
        key: (getters[regs], getters[past] if past else None)
        for key, (_, _, _, regs, past) in checked.items()
    }

    diags: list[Diagnostic] = []
    for mod in modules.values():
        for rule in mod.rules:
            if not vocab.is_register(rule.head):
                diags.append(
                    Diagnostic("UnknownSymbol", f"rule head {rule.head} is not a declared register", rule.line)
                )
            try:  # the join plan a run evaluates the body with
                _check_body(rule.body, vocab)
            except (UnknownSymbolError, ArityError, HeadVarUnusedError) as e:
                diags.append(Diagnostic(_CODES[type(e)], f"rule {mod.name}.{rule.head}: {e}", rule.line))
    for name in sorted(names - modules.keys()):
        diags.append(Diagnostic("UnknownModule", f"term references undefined module {name}"))
    for sym in sorted(symbols):
        if not vocab.is_declared(sym):
            diags.append(Diagnostic("UnknownSymbol", f"test names undeclared symbol {sym}"))
        elif not vocab.is_unary(sym):
            diags.append(Diagnostic("NonUnarySymbolInTest", f"test names non-unary symbol {sym}"))
    if top[2] > MAX_NESTING:
        diags.append(
            Diagnostic("TooDeep", f"universal checks nest {top[2]} levels deep, more than {MAX_NESTING}")
        )
    return top[0], top[2], footprint, tuple(diags)


def check_constants(program: Program, domain: tuple[str, ...]) -> list[Diagnostic]:
    """Diagnostics for element constants not present in the given domain."""
    dset = set(domain)
    diags = []
    for mod in program.modules.values():
        for rule in mod.rules:
            for atom in rule.body.atoms:
                for arg in atom.args:
                    if isinstance(arg, Const) and arg.value not in dset:
                        diags.append(
                            Diagnostic(
                                "UnknownElement",
                                f"constant {arg.value!r} is not a domain element",
                                rule.line,
                            )
                        )
    return diags
