"""Term language: ASTs, a recursive-descent parser, and a pretty-printer.

Concrete syntax (loosest to tightest binding):

    arrow    t -> u        right associative
    join     t v u
    meet     t ^ u
    postfix  t'  t*  t+    negation, star (t -> 0), plus ((t')*')
    atoms    0 1 variables ( t )

Identities are ``t = u`` or ``t <= u``; the latter is sugar for
``t ^ u = t``.  Quasi-identities are ``atom ; ... ; atom => atom`` where
premises may also use ``!=``.  See docs/grammar.md for the full grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .algebra import FiniteAlgebra
from .errors import InputError, ParseError, SignatureError


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    """A variable, by name."""

    name: str


@dataclass(frozen=True)
class Const(Term):
    """The constant 0 or 1."""

    value: int  # 0 or 1

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise InputError(f"constant must be 0 or 1, got {self.value}")


@dataclass(frozen=True)
class Join(Term):
    """x v y."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Meet(Term):
    """x ^ y."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Arrow(Term):
    """x -> y, the semi-Heyting implication."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    """x', the dual quasi-De Morgan negation."""

    arg: Term


@dataclass(frozen=True)
class Star(Term):
    """x*, sugar for x -> 0."""

    arg: Term


@dataclass(frozen=True)
class Plus(Term):
    """x+, sugar for x'*'."""

    arg: Term


@dataclass(frozen=True)
class PrimeStar(Term):
    """k-fold application of t |-> (t')*, built programmatically.

    There is no concrete syntax for this node; the pretty-printer emits
    the equivalent ``'*`` chain, so parse(pretty(t)) yields the expanded
    form (see :func:`normalize`).
    """

    arg: Term
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InputError("PrimeStar count must be >= 1")


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Const(_):
            return frozenset()
        case Join(l, r) | Meet(l, r) | Arrow(l, r):
            return free_vars(l) | free_vars(r)
        case Neg(a) | Star(a) | Plus(a) | PrimeStar(a, _):
            return free_vars(a)
    raise TypeError(f"not a term: {t!r}")


def normalize(t: Term) -> Term:
    """Expand PrimeStar nodes into Star/Neg chains; other nodes unchanged."""
    match t:
        case Var(_) | Const(_):
            return t
        case Join(l, r):
            return Join(normalize(l), normalize(r))
        case Meet(l, r):
            return Meet(normalize(l), normalize(r))
        case Arrow(l, r):
            return Arrow(normalize(l), normalize(r))
        case Neg(a):
            return Neg(normalize(a))
        case Star(a):
            return Star(normalize(a))
        case Plus(a):
            return Plus(normalize(a))
        case PrimeStar(a, k):
            out = normalize(a)
            for _ in range(k):
                out = Star(Neg(out))
            return out
    raise TypeError(f"not a term: {t!r}")


def desugar(t: Term) -> Term:
    """Rewrite star/plus/primestar into the core signature {v, ^, ->, ', 0, 1}.

    Star(t) becomes t -> 0 and Plus(t) becomes ((t')*)' with the inner star
    expanded, so the result evaluates identically on any algebra.
    """
    match t:
        case Var(_) | Const(_):
            return t
        case Join(l, r):
            return Join(desugar(l), desugar(r))
        case Meet(l, r):
            return Meet(desugar(l), desugar(r))
        case Arrow(l, r):
            return Arrow(desugar(l), desugar(r))
        case Neg(a):
            return Neg(desugar(a))
        case Star(a):
            return Arrow(desugar(a), Const(0))
        case Plus(a):
            return Neg(Arrow(Neg(desugar(a)), Const(0)))
        case PrimeStar(_, _):
            return desugar(normalize(t))
    raise TypeError(f"not a term: {t!r}")


def _arrow(a: FiniteAlgebra):
    if a.arrow is None:
        raise SignatureError(f"{a.name}: no arrow operation")
    return a.arrow


def _negation(a: FiniteAlgebra):
    if a.neg is None:
        raise SignatureError(f"{a.name}: no negation")
    return a.neg


def eval_term(a: FiniteAlgebra, t: Term, env: Mapping[str, int]) -> int:
    """Evaluate a term to an element index under an assignment: the scalar
    reference, which reads x* as x -> 0, x+ as ((x')*)' and primestar as k
    steps of (x')* straight from the tables, never through :func:`desugar`."""
    match t:
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise InputError(f"unbound variable {name!r}") from None
        case Const(v):
            return a.bot if v == 0 else a.top
        case Join(l, r):
            return a.join[eval_term(a, l, env)][eval_term(a, r, env)]
        case Meet(l, r):
            return a.meet[eval_term(a, l, env)][eval_term(a, r, env)]
        case Arrow(l, r):
            x, y = eval_term(a, l, env), eval_term(a, r, env)
            return _arrow(a)[x][y]
        case Neg(arg):
            x = eval_term(a, arg, env)
            return _negation(a)[x]
        case Star(arg):
            x = eval_term(a, arg, env)
            return _arrow(a)[x][a.bot]
        case Plus(arg):
            x = eval_term(a, arg, env)
            neg = _negation(a)
            return neg[_arrow(a)[neg[x]][a.bot]]
        case PrimeStar(arg, k):
            x = eval_term(a, arg, env)
            neg, arrow = _negation(a), _arrow(a)
            for _ in range(k):
                x = arrow[neg[x]][a.bot]
            return x
    raise TypeError(f"not a term: {t!r}")


# -- statements ------------------------------------------------------------

# Statements are immutable: their variables are computed on first use and
# cached on the instance, as is the program that shw.equations compiles
# them to; that program says which tables a statement reads.

@dataclass(frozen=True)
class Identity:
    """``lhs = rhs`` or ``lhs <= rhs`` (kind "eq" / "leq")."""

    kind: str
    lhs: Term
    rhs: Term
    source: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("eq", "leq"):
            raise InputError(f"bad identity kind {self.kind!r}")

    def variables(self) -> tuple[str, ...]:
        return self._variables

    @cached_property
    def _variables(self) -> tuple[str, ...]:
        return tuple(sorted(free_vars(self.lhs) | free_vars(self.rhs)))


@dataclass(frozen=True)
class Atom:
    """A relational atom inside a quasi-identity ("eq", "leq" or "neq")."""

    kind: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if self.kind not in ("eq", "leq", "neq"):
            raise InputError(f"bad atom kind {self.kind!r}")


@dataclass(frozen=True)
class QuasiIdentity:
    """Premises (atoms) implying a conclusion atom, which cannot be !=."""

    premises: tuple[Atom, ...]
    conclusion: Atom
    source: str = ""

    def __post_init__(self) -> None:
        if self.conclusion.kind == "neq":
            raise InputError("quasi-identity conclusion cannot use !=")

    def variables(self) -> tuple[str, ...]:
        return self._variables

    @cached_property
    def _variables(self) -> tuple[str, ...]:
        vs: frozenset[str] = frozenset()
        for at in self.premises + (self.conclusion,):
            vs |= free_vars(at.lhs) | free_vars(at.rhs)
        return tuple(sorted(vs))


# -- parsing ---------------------------------------------------------------

# the relation symbols, by the kind of atom they write, and back
_KINDS = {"=": "eq", "<=": "leq", "!=": "neq"}
_SYMBOLS = {kind: sym for sym, kind in _KINDS.items()}

_TOKEN_RE = re.compile(r"->|<=|=>|!=|[()'*+^=;]|v(?![A-Za-z0-9_])|[01]|[A-Za-z_][A-Za-z0-9_]*")
_WS_RE = re.compile(r"\s*")


def _tokenize(src: str) -> Iterator[tuple[str, int]]:
    pos = 0
    n = len(src)
    while True:
        pos = _WS_RE.match(src, pos).end()
        if pos >= n:
            yield ("<end>", pos)
            return
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        yield (m.group(), pos)
        pos = m.end()


_POSTFIX = {"'": Neg, "*": Star, "+": Plus}
_RESERVED = {"v"}


class _Parser:
    def __init__(self, src: str):
        self.tokens = list(_tokenize(src))
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def take(self) -> str:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}", self.pos())
        self.i += 1

    def term(self) -> Term:
        left = self.join_exp()
        if self.peek() == "->":
            self.take()
            return Arrow(left, self.term())
        return left

    def join_exp(self) -> Term:
        t = self.meet_exp()
        while self.peek() == "v":
            self.take()
            t = Join(t, self.meet_exp())
        return t

    def meet_exp(self) -> Term:
        t = self.postfix()
        while self.peek() == "^":
            self.take()
            t = Meet(t, self.postfix())
        return t

    def postfix(self) -> Term:
        t = self.primary()
        while self.peek() in _POSTFIX:
            t = _POSTFIX[self.take()](t)
        return t

    def primary(self) -> Term:
        tok = self.peek()
        if tok == "(":
            self.take()
            t = self.term()
            self.expect(")")
            return t
        if tok == "0":
            self.take()
            return Const(0)
        if tok == "1":
            self.take()
            return Const(1)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and tok not in _RESERVED:
            self.take()
            return Var(tok)
        raise ParseError(f"expected a term, found {tok!r}", self.pos())

    def atom(self, allow_neq: bool) -> Atom:
        lhs = self.term()
        tok = self.peek()
        if tok not in _KINDS or (tok == "!=" and not allow_neq):
            raise ParseError(f"expected a relation, found {tok!r}", self.pos())
        self.take()
        return Atom(_KINDS[tok], lhs, self.term())

    def done(self) -> None:
        if self.peek() != "<end>":
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())


def parse_term(src: str) -> Term:
    p = _Parser(src)
    t = p.term()
    p.done()
    return t


def parse_identity(src: str) -> Identity:
    p = _Parser(src)
    at = p.atom(allow_neq=False)
    p.done()
    return Identity(at.kind, at.lhs, at.rhs, source=src.strip())


def parse_quasi(src: str) -> QuasiIdentity:
    p = _Parser(src)
    atoms = [p.atom(allow_neq=True)]
    while p.peek() == ";":
        p.take()
        atoms.append(p.atom(allow_neq=True))
    p.expect("=>")
    conclusion = p.atom(allow_neq=False)
    p.done()
    return QuasiIdentity(tuple(atoms), conclusion, source=src.strip())


def parse_statement(src: str) -> Identity | QuasiIdentity:
    """Parse either an identity or (if '=>' occurs) a quasi-identity."""
    if "=>" in src:
        return parse_quasi(src)
    return parse_identity(src)


# -- pretty-printing ---------------------------------------------------------

_LVL_ARROW, _LVL_JOIN, _LVL_MEET, _LVL_POSTFIX, _LVL_ATOM = 0, 1, 2, 3, 4


def _render(t: Term, minlevel: int) -> str:
    match t:
        case Var(name):
            s, lvl = name, _LVL_ATOM
        case Const(v):
            s, lvl = str(v), _LVL_ATOM
        case Arrow(l, r):
            s, lvl = f"{_render(l, _LVL_JOIN)} -> {_render(r, _LVL_ARROW)}", _LVL_ARROW
        case Join(l, r):
            s, lvl = f"{_render(l, _LVL_JOIN)} v {_render(r, _LVL_MEET)}", _LVL_JOIN
        case Meet(l, r):
            s, lvl = f"{_render(l, _LVL_MEET)} ^ {_render(r, _LVL_POSTFIX)}", _LVL_MEET
        case Neg(a):
            s, lvl = f"{_render(a, _LVL_POSTFIX)}'", _LVL_POSTFIX
        case Star(a):
            s, lvl = f"{_render(a, _LVL_POSTFIX)}*", _LVL_POSTFIX
        case Plus(a):
            s, lvl = f"{_render(a, _LVL_POSTFIX)}+", _LVL_POSTFIX
        case PrimeStar(a, k):
            s, lvl = _render(a, _LVL_POSTFIX) + "'*" * k, _LVL_POSTFIX
        case _:
            raise TypeError(f"not a term: {t!r}")
    if lvl < minlevel:
        return f"({s})"
    return s


def pretty(t: Term) -> str:
    return _render(t, _LVL_ARROW)


def pretty_identity(ident: Identity | Atom) -> str:
    return f"{pretty(ident.lhs)} {_SYMBOLS[ident.kind]} {pretty(ident.rhs)}"


def pretty_quasi(q: QuasiIdentity) -> str:
    return ("; ".join(map(pretty_identity, q.premises))
            + " => " + pretty_identity(q.conclusion))


def level_identity(n: int) -> Identity:
    """The n-th level identity over t = x ^ (x')*.

    Level n says the n-fold primestar of t equals the (n-1)-fold one;
    level 1 is the statement that t is a primestar fixpoint.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    t = Meet(Var("x"), Star(Neg(Var("x"))))
    lhs = PrimeStar(t, n)
    rhs = PrimeStar(t, n - 1) if n > 1 else t
    return Identity("eq", lhs, rhs, source=f"level-{n}")
