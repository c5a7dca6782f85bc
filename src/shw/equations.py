"""Exhaustive satisfaction checking and the named identity suites.

A suite is an ordered list of identities/quasi-identities.  Primitive
suites live in ``suites/core.ids``; composites (DMSH, RDQDStSH1, ...) are
unions assembled here.  Satisfaction is decided by brute force over all
assignments, reporting the first counterexample in lexicographic
assignment order (variables sorted by name).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from itertools import product as iproduct
from typing import Iterable, Mapping

from .algebra import FiniteAlgebra
from .errors import InputError, SignatureError
from .terms import (
    Arrow,
    Atom,
    Const,
    Identity,
    Join,
    Meet,
    Neg,
    QuasiIdentity,
    Term,
    Var,
    desugar,
    parse_statement,
)

Statement = Identity | QuasiIdentity


@dataclass(frozen=True)
class SatisfactionResult:
    holds: bool
    witness: dict[str, int] | None = None

    def witness_labels(self, a: FiniteAlgebra) -> dict[str, str] | None:
        if self.witness is None:
            return None
        return {v: a.elements[i] for v, i in self.witness.items()}


# -- the statement evaluator, shared with the model search --------------------

Triple = tuple[str, Term, Term]  # (kind, lhs, rhs) over desugared terms
Program = tuple[tuple[Triple, ...], Triple]


def _triple(at: Identity | Atom) -> Triple:
    return at.kind, desugar(at.lhs), desugar(at.rhs)


def compile_statement(stmt: Statement) -> Program:
    """(premises, conclusion) of a statement, as desugared triples."""
    if isinstance(stmt, Identity):
        return (), _triple(stmt)
    return tuple(map(_triple, stmt.premises)), _triple(stmt.conclusion)


def _value(t: Term, ops, env: Mapping[str, int]) -> int:
    match t:
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise InputError(f"unbound variable {name!r}") from None
        case Meet(l, r):
            return ops[1][_value(l, ops, env)][_value(r, ops, env)]
        case Arrow(l, r):
            return ops[2][_value(l, ops, env)][_value(r, ops, env)]
        case Join(l, r):
            return ops[0][_value(l, ops, env)][_value(r, ops, env)]
        case Neg(g):
            return ops[3][_value(g, ops, env)]
        case Const(v):
            return ops[5] if v else ops[4]
    raise TypeError(f"not a desugared term: {t!r}")


def _atom_truth(atom: Triple, ops, env: Mapping[str, int]) -> int:
    kind, lhs, rhs = atom
    l = _value(lhs, ops, env)
    if l < 0:
        return -1
    r = _value(rhs, ops, env)
    if r < 0:
        return -1
    if kind == "eq":
        return int(l == r)
    if kind == "leq":
        return int(ops[1][l][r] == l)
    return int(l != r)


def truth(prog: Program, ops, env: Mapping[str, int]) -> int:
    """Verdict of a compiled statement under one assignment.

    ``ops`` is (join, meet, arrow, neg, bot, top).  Returns 1 (holds),
    0 (fails) or -1 (undetermined: it read an unknown value, -1).
    """
    premises, conclusion = prog
    pending = False
    for atom in premises:
        v = _atom_truth(atom, ops, env)
        if v == 0:
            return 1  # vacuous
        if v < 0:
            pending = True
    if pending:
        return -1
    return _atom_truth(conclusion, ops, env)


def _ops(a: FiniteAlgebra):
    return (a.join, a.meet, a.arrow, a.neg, a.bot, a.top)


def holds_at(a: FiniteAlgebra, stmt: Statement, env: Mapping[str, int]) -> bool:
    """Truth of a statement under one assignment."""
    _check_signature(a, stmt)
    return truth(compile_statement(stmt), _ops(a), env) == 1


def _check_signature(a: FiniteAlgebra, stmt: Statement) -> None:
    if stmt.requires_neg and not a.has_neg:
        raise SignatureError(f"{a.name}: statement {stmt.source!r} needs a negation")
    if stmt.requires_arrow and not a.has_arrow:
        raise SignatureError(f"{a.name}: statement {stmt.source!r} needs an arrow")


def satisfies(a: FiniteAlgebra, stmt: Statement) -> SatisfactionResult:
    """Exhaustively check one statement; witness is the first failure."""
    _check_signature(a, stmt)
    prog, ops = compile_statement(stmt), _ops(a)
    varnames = stmt.variables()
    for values in iproduct(range(a.size), repeat=len(varnames)):
        env = dict(zip(varnames, values))
        if truth(prog, ops, env) != 1:
            return SatisfactionResult(False, env)
    return SatisfactionResult(True)


@dataclass(frozen=True)
class Suite:
    name: str
    items: tuple[Statement, ...]

    @property
    def requires_neg(self) -> bool:
        return any(s.requires_neg for s in self.items)

    @property
    def requires_arrow(self) -> bool:
        return any(s.requires_arrow for s in self.items)


@dataclass(frozen=True)
class ItemResult:
    source: str
    result: SatisfactionResult


@dataclass(frozen=True)
class SuiteReport:
    algebra: str
    suite: str
    results: tuple[ItemResult, ...]

    @property
    def holds(self) -> bool:
        return all(r.result.holds for r in self.results)

    def first_failure(self) -> ItemResult | None:
        for r in self.results:
            if not r.result.holds:
                return r
        return None


def satisfies_suite(a: FiniteAlgebra, suite: Suite | str) -> SuiteReport:
    """Check every statement of a suite; signature errors fail fast."""
    if isinstance(suite, str):
        suite = get_suite(suite)
    if suite.requires_neg and not a.has_neg:
        raise SignatureError(f"{a.name}: suite {suite.name} needs a negation")
    if suite.requires_arrow and not a.has_arrow:
        raise SignatureError(f"{a.name}: suite {suite.name} needs an arrow")
    results = tuple(ItemResult(s.source, satisfies(a, s)) for s in suite.items)
    return SuiteReport(a.name, suite.name, results)


# -- suite library ----------------------------------------------------------

_SECTION_RE = re.compile(r"\[([^\]]+)\]\s*$")
_LABEL_RE = re.compile(r"([A-Za-z0-9_-]+):\s*(.*)$")


def parse_ids_text(text: str, labeled: bool = False) -> dict[str, list[tuple[str, Statement]]]:
    """Parse a .ids file into {section: [(label, statement), ...]}."""
    sections: dict[str, list[tuple[str, Statement]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1).strip()
            if current in sections:
                raise InputError(f"line {lineno}: duplicate section {current!r}")
            sections[current] = []
            continue
        if current is None:
            raise InputError(f"line {lineno}: statement before any [section]")
        label = ""
        if labeled:
            lm = _LABEL_RE.match(line)
            if lm:
                label, line = lm.group(1), lm.group(2)
        stmt = parse_statement(line)
        if not label:
            label = f"{current}-{len(sections[current]) + 1}"
        sections[current].append((label, stmt))
    return sections


def _load_ids(filename: str, labeled: bool = False):
    text = resources.files(__package__).joinpath("suites").joinpath(filename).read_text()
    return parse_ids_text(text, labeled=labeled)


def _build_suites() -> dict[str, Suite]:
    primitive = _load_ids("core.ids")
    suites: dict[str, Suite] = {
        name: Suite(name, tuple(stmt for _, stmt in items))
        for name, items in primitive.items()
    }

    def merge(name: str, *parts: str) -> None:
        items: list[Statement] = []
        for part in parts:
            for stmt in suites[part].items:
                if stmt not in items:
                    items.append(stmt)
        suites[name] = Suite(name, tuple(items))

    merge("H", "SH", "SH4")
    merge("DQDSH", "SH", "DQD")
    merge("DMSH", "DQDSH", "DM")
    merge("DPCSH", "DQDSH", "PC")
    merge("DQDStSH", "DQDSH", "St")
    merge("DQDBSH", "DQDSH", "Bo")
    merge("DMSH1", "DMSH", "L1")
    merge("DMSH2", "DMSH", "L2")
    merge("RDMSH1", "DMSH1", "R")
    merge("RDMSH2", "DMSH2", "R")
    merge("RDQDSH1", "DQDSH", "L1", "R")
    merge("RDQDStSH1", "DQDStSH", "L1", "R")
    merge("RDPCSH1", "DPCSH", "L1", "R")
    merge("RDMH1", "RDMSH1", "SH4")
    merge("RDMcmSH1", "RDMSH1", "Co")
    return suites


SUITES: dict[str, Suite] = _build_suites()


def get_suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        raise InputError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}") from None


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(SUITES))


# -- lemma groups ------------------------------------------------------------

# group name -> catalog family whose members it runs on
LEMMA_BINDINGS = {
    "dqd-basic": "all-simples",
    "regular-dm": "rdmsh1-simples",
    "stone-property": "rdmsh1-simples",
}


@dataclass(frozen=True)
class LemmaVerdict:
    algebra: str
    result: SatisfactionResult


@dataclass(frozen=True)
class LemmaItem:
    label: str
    source: str
    verdicts: tuple[LemmaVerdict, ...]

    @property
    def holds(self) -> bool:
        return all(v.result.holds for v in self.verdicts)


@dataclass(frozen=True)
class LemmaGroupReport:
    name: str
    family: str
    algebras: tuple[str, ...]
    items: tuple[LemmaItem, ...]

    @property
    def holds(self) -> bool:
        return all(item.holds for item in self.items)


def lemma_groups() -> dict[str, list[tuple[str, Statement]]]:
    return _load_ids("lemmas.ids", labeled=True)


def run_lemma_suite(groups: Iterable[str] | None = None) -> tuple[LemmaGroupReport, ...]:
    """Check every lemma group against its bound catalog family."""
    from . import catalog  # local import; catalog does not import this module

    wanted = set(groups) if groups is not None else None
    reports = []
    for name, items in lemma_groups().items():
        if wanted is not None and name not in wanted:
            continue
        family = LEMMA_BINDINGS[name]
        keys = catalog.family(family)
        checked = []
        for label, stmt in items:
            verdicts = tuple(
                LemmaVerdict(key, satisfies(catalog.get(key), stmt)) for key in keys
            )
            checked.append(LemmaItem(label, stmt.source, verdicts))
        reports.append(LemmaGroupReport(name, family, keys, tuple(checked)))
    return tuple(reports)
