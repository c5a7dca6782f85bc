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
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator, Mapping

import numpy as np

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

# A program op reads operation i of ``ops = (join, meet, arrow, neg, bot,
# top)``: (i, a, b) for the three tables, (3, a) for the negation, and
# (4,) / (5,) for the constants.
_JOIN, _MEET, _ARROW, _NEG, _BOT, _TOP = range(6)

# Assignments evaluated per step: bounds the memory a statement with many
# variables needs.
_CHUNK = 1 << 14

AtomCode = tuple[str, int, int]  # (kind, left slot, right slot)


@dataclass(frozen=True)
class Program:
    """A statement desugared to a straight-line program over integer slots.

    Slots 0..k-1 hold the variables ``names`` (sorted); op i computes
    slot k + i from earlier slots.  Equal subterms share one slot.
    """

    names: tuple[str, ...]
    code: tuple[tuple[int, ...], ...]
    premises: tuple[AtomCode, ...]
    conclusion: AtomCode
    tables: frozenset[int]  # the operations of ``ops`` that the program reads

    @property
    def reads_neg(self) -> bool:
        return _NEG in self.tables

    @property
    def reads_arrow(self) -> bool:
        return _ARROW in self.tables


def _compile(stmt: Statement) -> Program:
    names = stmt.variables()
    slots: dict[Term, int] = {Var(v): i for i, v in enumerate(names)}
    code: list[tuple[int, ...]] = []

    def slot(t: Term) -> int:
        if t not in slots:
            match t:
                case Join(l, r):
                    op = (_JOIN, slot(l), slot(r))
                case Meet(l, r):
                    op = (_MEET, slot(l), slot(r))
                case Arrow(l, r):
                    op = (_ARROW, slot(l), slot(r))
                case Neg(g):
                    op = (_NEG, slot(g))
                case Const(v):
                    op = (_TOP if v else _BOT,)
                case _:
                    raise TypeError(f"not a desugared term: {t!r}")
            slots[t] = len(names) + len(code)
            code.append(op)
        return slots[t]

    def atom(at: Identity | Atom) -> AtomCode:
        return at.kind, slot(desugar(at.lhs)), slot(desugar(at.rhs))

    if isinstance(stmt, Identity):
        premises, conclusion = (), atom(stmt)
    else:
        premises, conclusion = tuple(map(atom, stmt.premises)), atom(stmt.conclusion)
    tables = {op[0] for op in code if op[0] <= _NEG}
    if any(kind == "leq" for kind, _, _ in premises + (conclusion,)):
        tables.add(_MEET)
    return Program(names, tuple(code), premises, conclusion, frozenset(tables))


def compile_statement(stmt: Statement) -> Program:
    """The program of a statement, compiled once and cached on it."""
    # statements are immutable; this is what functools.cached_property
    # does, and it spares hashing the whole term tree on every call
    prog = stmt.__dict__.get("_program")
    if prog is None:
        prog = stmt.__dict__["_program"] = _compile(stmt)
    return prog


def _tables(prog: Program, ops) -> list:
    # converted on every call: search tables change between calls, and a
    # per-algebra cache would keep every algebra checked alive
    tabs = list(ops)
    for i in prog.tables:
        tabs[i] = np.asarray(ops[i])
    return tabs


def _slots(prog: Program, tabs, cols, batch=None) -> list:
    """The value of every slot of a program on index columns ``cols``."""
    vals = list(cols)
    for op in prog.code:
        i = op[0]
        if i == _NEG:
            vals.append(tabs[i][vals[op[1]]] if batch is None else tabs[i][batch, vals[op[1]]])
        elif i > _NEG:
            vals.append(tabs[i])  # a constant; broadcasts
        elif i == _ARROW and batch is not None:
            vals.append(tabs[i][batch, vals[op[1]], vals[op[2]]])
        else:
            vals.append(tabs[i][vals[op[1]], vals[op[2]]])
    return vals


def _verdicts(prog: Program, tabs, cols, size: int, batch=None) -> np.ndarray:
    """int8 verdicts of a program on index columns of length ``size``.

    With ``batch``, a (B, 1) index array, the arrow and negation tables
    are stacks read as ``arrow[batch, x, y]`` and ``neg[batch, x]``, and
    the verdicts have shape (B, size).
    """
    vals = _slots(prog, tabs, cols, batch)

    def atom(kind: str, a: int, b: int):
        l, r = vals[a], vals[b]
        if kind == "eq":
            v = l == r
        elif kind == "leq":
            v = tabs[_MEET][l, r] == l
        else:
            v = l != r
        # reading an unknown value (-1) leaves the atom undetermined; values
        # are >= -1, so l | r is negative exactly when one of them is -1
        return np.where((l | r) < 0, np.int8(-1), v)

    vacuous = pending = False
    for premise in prog.premises:
        p = atom(*premise)
        vacuous = vacuous | (p == 0)
        pending = pending | (p < 0)
    verdict = atom(*prog.conclusion)
    if prog.premises:
        verdict = np.where(vacuous, np.int8(1), np.where(pending, np.int8(-1), verdict))
    if batch is None:
        return verdict.reshape(size)  # a closed statement gives one 0-d verdict
    # a statement that reads neither stack gives one row for the whole batch
    return np.broadcast_to(verdict, (len(batch), size))


def _columns(n: int, k: int, start: int, stop: int) -> tuple[np.ndarray, ...]:
    if not k:
        return ()
    cols = np.unravel_index(np.arange(start, stop), (n,) * k)
    for c in cols:
        c.flags.writeable = False
    return cols


@lru_cache(maxsize=None)
def _grid(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The whole n^k grid; only asked for grids of at most one chunk."""
    return _columns(n, k, 0, n ** k)


def grid_truth(prog: Program, ops, n: int, batch=None) -> Iterator[np.ndarray]:
    """Verdicts of a compiled statement over every assignment in 0..n-1.

    ``ops`` is (join, meet, arrow, neg, bot, top).  Yields int8 arrays of
    1 (holds), 0 (fails) or -1 (undetermined: it read an unknown value,
    -1), chunk by chunk, in lexicographic assignment order (variables
    sorted by name).

    With ``batch``, an integer array of length B, ``arrow`` and ``neg``
    are stacks of shape (A, n, n) and (N, n) over the one lattice of
    ``join`` and ``meet``, algebra b of the batch is ``arrow[batch[b]]``
    with ``neg[batch[b]]``, and each grid chunk G yields one (B, G) array.
    """
    tabs = _tables(prog, ops)
    k = len(prog.names)
    total = n ** k
    lead = None if batch is None else batch[:, None]
    if total <= _CHUNK:
        yield _verdicts(prog, tabs, _grid(n, k), total, lead)
        return
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        yield _verdicts(prog, tabs, _columns(n, k, start, stop), stop - start, lead)


def stack_holds(prog: Program, ops, n: int, batch,
                unknown_holds: bool = False) -> np.ndarray:
    """For each algebra of a batch (see ``grid_truth``), whether the
    statement holds under every assignment: a bool array of length B.
    With ``unknown_holds`` an undetermined verdict counts as holding, so
    the answer is whether it fails under no assignment.  The batch is
    evaluated in slices of max(1, _CHUNK // G) algebras, G the grid
    chunk, so no block holds more than _CHUNK verdicts."""
    per = max(1, _CHUNK // min(n ** len(prog.names), _CHUNK))
    holds = np.ones(len(batch), dtype=bool)
    for lo in range(0, len(batch), per):
        for v in grid_truth(prog, ops, n, batch[lo:lo + per]):
            holds[lo:lo + per] &= ((v != 0) if unknown_holds else (v == 1)).all(axis=1)
    return holds


def table_reads(prog: Program, ops, n: int) -> list[tuple[np.ndarray, ...]]:
    """The indices each arrow op, (x, y), and negation op, (x,), reads:
    int arrays over a grid of at most one chunk.  On the padded all-unknown
    tables of the model search an index that depends on a table value is -1."""
    k = len(prog.names)
    vals = _slots(prog, _tables(prog, ops), _grid(n, k))
    return [tuple(np.broadcast_to(vals[i], (n ** k,)) for i in op[1:])
            for op in prog.code if op[0] in (_ARROW, _NEG)]


def point_truth(prog: Program, ops, cols, batch) -> np.ndarray:
    """int8 verdicts of a batch (see ``grid_truth``) in which algebra b
    is read under one assignment only: ``cols`` has one int array of
    length B per variable.  The caller bounds B."""
    return _verdicts(prog, _tables(prog, ops), [c[:, None] for c in cols], 1,
                     batch[:, None])[:, 0]


def truth(prog: Program, ops, env: Mapping[str, int]) -> int:
    """Verdict of a compiled statement under one assignment: 1, 0 or -1."""
    try:
        cols = tuple(np.array([env[name]]) for name in prog.names)
    except KeyError as e:
        raise InputError(f"unbound variable {e.args[0]!r}") from None
    return int(_verdicts(prog, _tables(prog, ops), cols, 1)[0])


def _ops(a: FiniteAlgebra):
    return (a.join, a.meet, a.arrow, a.neg, a.bot, a.top)


def holds_at(a: FiniteAlgebra, stmt: Statement, env: Mapping[str, int]) -> bool:
    """Truth of a statement under one assignment."""
    prog = compile_statement(stmt)
    _check_signature(a, f"statement {stmt.source!r}", (prog,))
    return truth(prog, _ops(a), env) == 1


def _check_signature(a: FiniteAlgebra, what: str, progs: tuple[Program, ...]) -> None:
    """Raise SignatureError when a program reads a table ``a`` lacks."""
    if not a.has_neg and any(p.reads_neg for p in progs):
        raise SignatureError(f"{a.name}: {what} needs a negation")
    if not a.has_arrow and any(p.reads_arrow for p in progs):
        raise SignatureError(f"{a.name}: {what} needs an arrow")


def satisfies(a: FiniteAlgebra, stmt: Statement) -> SatisfactionResult:
    """Exhaustively check one statement; witness is the first failure."""
    prog = compile_statement(stmt)
    _check_signature(a, f"statement {stmt.source!r}", (prog,))
    start = 0
    for verdicts in grid_truth(prog, _ops(a), a.size):
        failed = verdicts != 1
        if failed.any():
            index = start + int(failed.argmax())
            values = np.unravel_index(index, (a.size,) * len(prog.names))
            return SatisfactionResult(False, dict(zip(prog.names, map(int, values))))
        start += len(verdicts)
    return SatisfactionResult(True)


@dataclass(frozen=True)
class Suite:
    name: str
    items: tuple[Statement, ...]


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
    _check_signature(a, f"suite {suite.name}", tuple(map(compile_statement, suite.items)))
    results = tuple(ItemResult(s.source, satisfies(a, s)) for s in suite.items)
    return SuiteReport(a.name, suite.name, results)


# -- suite library ----------------------------------------------------------

_SECTION_RE = re.compile(r"\[([^\]]+)\]\s*$")
_LABEL_RE = re.compile(r"(?:([A-Za-z0-9_-]+):\s*)?(.*)$")


def parse_ids_text(text: str) -> dict[str, list[tuple[str, Statement]]]:
    """Parse a .ids file into {section: [(label, statement), ...]}; a
    label is a statement's ``label:`` prefix, else ``<section>-<position>``."""
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
        label, line = _LABEL_RE.match(line).groups()
        stmt = parse_statement(line)
        sections[current].append((label or f"{current}-{len(sections[current]) + 1}", stmt))
    return sections


def _load_ids(filename: str):
    text = resources.files(__package__).joinpath("suites").joinpath(filename).read_text()
    return parse_ids_text(text)


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
    return _load_ids("lemmas.ids")


def run_lemma_suite(groups: Iterable[str] | None = None) -> tuple[LemmaGroupReport, ...]:
    """Check every lemma group against its bound catalog family."""
    from . import catalog  # local import; catalog does not import this module

    known = lemma_groups()
    wanted = set(known) if groups is None else set(groups)
    if not wanted <= known.keys():
        unknown = ", ".join(sorted(wanted - known.keys()))
        raise InputError(f"unknown lemma group {unknown}; known: {', '.join(sorted(known))}")
    reports = []
    for name, items in known.items():
        if name not in wanted:
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
