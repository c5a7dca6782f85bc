"""Exhaustive satisfaction checking and the named identity suites.

A suite is an ordered list of identities/quasi-identities.  Primitive
suites live in ``suites/core.ids``; composites (DMSH, RDQDStSH1, ...) are
unions assembled here, and the lemma groups of ``suites/lemmas.ids`` are
parsed once per process.  Satisfaction is decided by brute force over
all assignments, reporting the first counterexample in lexicographic
assignment order (variables sorted by name).

One evaluator serves checking and the model search.  A statement
compiles to a one-row ``Program``; a suite links its statements'
programs into one program with one row per statement, shared grid
positions and shared ops, so ``satisfies_suite`` checks the whole suite
in one grid pass and reads each statement's witness off its own row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from types import MappingProxyType
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


# -- the evaluator, shared with the model search -----------------------------

# A program op reads operation i of ``ops = (join, meet, arrow, neg, bot,
# top)``: (i, a, b) for the three tables, (3, a) for the negation, and
# (4,) / (5,) for the constants.
_JOIN, _MEET, _ARROW, _NEG, _BOT, _TOP = range(6)

# Assignments evaluated per step: bounds the memory a statement with many
# variables needs.
_CHUNK = 1 << 14

AtomCode = tuple[str, int, int]  # (kind, left slot, right slot)
_KINDS = ("eq", "leq", "neq")


@dataclass(frozen=True)
class Row:
    """One statement of a program.  Its variables ``names`` (sorted) are
    grid positions 0..len(names)-1; the others are free."""

    names: tuple[str, ...]
    premises: tuple[AtomCode, ...]
    conclusion: AtomCode


@dataclass(frozen=True)
class Program:
    """Statements desugared to one straight-line program over integer slots.

    Slots 0..width-1 hold the grid positions, and each statement, a row,
    reads its variables from a prefix of them.  Op i computes slot
    width + i from earlier slots.  Ops are shared on (op, slot, slot), so
    a subterm common to several statements, such as x' or x -> 0, is
    computed once.  A statement's own program is the one-row case.
    """

    width: int
    code: tuple[tuple[int, ...], ...]
    rows: tuple[Row, ...]
    tables: frozenset[int]  # the operations of ``ops`` that the program reads

    @property
    def reads_neg(self) -> bool:
        return _NEG in self.tables

    @property
    def reads_arrow(self) -> bool:
        return _ARROW in self.tables

    @cached_property
    def _atoms(self):
        """The evaluator's layout: the left and right slots of every distinct
        atom, eq atoms first and neq atoms last (each kind in the order the
        rows use them), with the end of the eq and of the leq atoms; each
        row's conclusion atom; and (row, premise atoms) for each row that
        has premises."""
        used = dict.fromkeys(at for r in self.rows for at in (*r.premises, r.conclusion))
        atoms = sorted(used, key=lambda at: _KINDS.index(at[0]))
        index = {at: i for i, at in enumerate(atoms)}
        kinds = [at[0] for at in atoms]
        eq_end = kinds.count("eq")
        leq_end = eq_end + kinds.count("leq")
        lhs = _rows([at[1] for at in atoms])
        rhs = _rows([at[2] for at in atoms])
        conclusions = np.array([index[r.conclusion] for r in self.rows], np.intp)
        premises = tuple((i, np.array([index[p] for p in r.premises], np.intp))
                         for i, r in enumerate(self.rows) if r.premises)
        return lhs, rhs, eq_end, leq_end, conclusions, premises


def _rows(slots: list[int]):
    """An index of the slot matrix's rows ``slots``: a slice, read as a
    view, when they are consecutive (always for a lone atom), else an
    index array."""
    if slots and slots == list(range(slots[0], slots[0] + len(slots))):
        return slice(slots[0], slots[0] + len(slots))
    return np.array(slots, np.intp)


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
        row = Row(names, (), atom(stmt))
    else:
        row = Row(names, tuple(map(atom, stmt.premises)), atom(stmt.conclusion))
    tables = {op[0] for op in code if op[0] <= _NEG}
    if any(at[0] == "leq" for at in (*row.premises, row.conclusion)):
        tables.add(_MEET)
    return Program(len(names), tuple(code), (row,), frozenset(tables))


def compile_statement(stmt: Statement) -> Program:
    """The one-row program of a statement, compiled once and cached on it."""
    # statements are immutable; this is what functools.cached_property
    # does, and it spares hashing the whole term tree on every call
    prog = stmt.__dict__.get("_program")
    if prog is None:
        prog = stmt.__dict__["_program"] = _compile(stmt)
    return prog


def _link(progs: tuple[Program, ...]) -> Program:
    """One program with the rows of ``progs``.  A row's positions keep
    their numbers, and its ops are renumbered into one list shared on
    (op, slot, slot), so an op that several rows compute is computed once."""
    width = max((p.width for p in progs), default=0)
    shared: dict[tuple[int, ...], int] = {}
    rows = []
    for p in progs:
        slot = list(range(p.width))  # the row's own slots -> shared slots
        for op in p.code:
            op = (op[0], *(slot[a] for a in op[1:]))
            slot.append(shared.setdefault(op, width + len(shared)))
        (row,) = p.rows
        premises = tuple((kind, slot[a], slot[b]) for kind, a, b in row.premises)
        kind, a, b = row.conclusion
        rows.append(Row(row.names, premises, (kind, slot[a], slot[b])))
    return Program(width, tuple(shared), tuple(rows),
                   frozenset().union(*(p.tables for p in progs)))


def _tables(prog: Program, ops) -> list:
    # converted on every call: search tables change between calls (a
    # checked algebra's tables come from ``_ops`` as arrays already)
    tabs = list(ops)
    for i in prog.tables:
        tabs[i] = np.asarray(ops[i])
    return tabs


def _run(prog: Program, tabs, S: np.ndarray, batch=None) -> None:
    """Fill the op slots of ``S``, whose first ``prog.width`` rows hold the
    positions' values: row width + i is op i, evaluated elementwise.

    With ``batch``, an index array that broadcasts against the rows, the
    arrow and negation tables are stacks read as ``arrow[batch, x, y]``
    and ``neg[batch, x]``.
    """
    for r, op in enumerate(prog.code, prog.width):
        i = op[0]
        if i > _NEG:
            S[r] = tabs[i]  # a constant
        elif i == _NEG:
            S[r] = tabs[i][S[op[1]]] if batch is None else tabs[i][batch, S[op[1]]]
        elif i == _ARROW and batch is not None:
            S[r] = tabs[i][batch, S[op[1]], S[op[2]]]
        else:
            S[r] = tabs[i][S[op[1]], S[op[2]]]


def _verdicts(prog: Program, tabs, S: np.ndarray, batch=None) -> np.ndarray:
    """int8 verdicts of every row of a program, of shape (rows, *S.shape[1:]):
    1 (holds), 0 (fails) or -1 (undetermined).  ``S`` is a slot matrix
    whose position rows are filled (see ``_run``)."""
    _run(prog, tabs, S, batch)
    lhs, rhs, eq_end, leq_end, conclusions, premises = prog._atoms
    l, r = S[lhs], S[rhs]
    v = l == r
    if leq_end > eq_end:
        below = l[eq_end:leq_end]
        np.equal(tabs[_MEET][below, r[eq_end:leq_end]], below, out=v[eq_end:leq_end])
    if len(v) > leq_end:
        np.logical_not(v[leq_end:], out=v[leq_end:])
    # reading an unknown value (-1) leaves the atom undetermined; values
    # are >= -1, so l | r is negative exactly when one of them is -1
    atoms = v.view(np.int8)
    atoms[(l | r) < 0] = -1
    verdicts = atoms[conclusions]
    # a false premise makes the statement hold, an undetermined one leaves
    # it undetermined
    for i, p in premises:
        p = atoms[p]
        verdicts[i] = np.where((p == 0).any(axis=0), np.int8(1),
                               np.where((p < 0).any(axis=0), np.int8(-1), verdicts[i]))
    return verdicts


@lru_cache(maxsize=None)
def _grid(n: int, k: int) -> np.ndarray:
    """The positions of the whole n^k grid, a (k, n^k) matrix; only asked
    for grids of at most one chunk."""
    grid = np.indices((n,) * k, np.intp).reshape(k, n ** k)
    grid.flags.writeable = False
    return grid


def _chunks(prog: Program, ops, n: int, batch=None) -> Iterator[np.ndarray]:
    """The verdicts of every row over every assignment in 0..n-1 of the
    positions, chunk by chunk in lexicographic order: (rows, G) arrays, or
    (rows, B, G) with a batch (see ``grid_truth``).  One slot matrix serves
    every chunk."""
    tabs = _tables(prog, ops)
    k = prog.width
    total = n ** k
    size = min(total, _CHUNK)
    lead = None if batch is None else batch[:, None]
    S = np.empty((k + len(prog.code), *(() if batch is None else (len(batch),)), size),
                 np.intp)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        part = S[..., :stop - start]
        pos = (_grid(n, k) if total <= _CHUNK else
               np.array(np.unravel_index(np.arange(start, stop), (n,) * k), np.intp))
        part[:k] = pos if batch is None else pos[:, None]
        yield _verdicts(prog, tabs, part, lead)


def grid_truth(prog: Program, ops, n: int, batch=None) -> Iterator[np.ndarray]:
    """Verdicts of a one-statement program over every assignment in 0..n-1.

    ``ops`` is (join, meet, arrow, neg, bot, top).  Yields int8 arrays of
    1 (holds), 0 (fails) or -1 (undetermined: it read an unknown value,
    -1), chunk by chunk, in lexicographic assignment order (variables
    sorted by name).

    With ``batch``, an integer array of length B, ``arrow`` and ``neg``
    are stacks of shape (A, n, n) and (N, n) over the one lattice of
    ``join`` and ``meet``, algebra b of the batch is ``arrow[batch[b]]``
    with ``neg[batch[b]]``, and each grid chunk G yields one (B, G) array.
    """
    return (v[0] for v in _chunks(prog, ops, n, batch))


def stack_holds(prog: Program, ops, n: int, batch,
                unknown_holds: bool = False) -> np.ndarray:
    """For each algebra of a batch (see ``grid_truth``), whether the
    statement holds under every assignment: a bool array of length B.
    With ``unknown_holds`` an undetermined verdict counts as holding, so
    the answer is whether it fails under no assignment.  The batch is
    evaluated in slices of max(1, _CHUNK // G) algebras, G the grid
    chunk, so no block holds more than _CHUNK verdicts."""
    per = max(1, _CHUNK // min(n ** prog.width, _CHUNK))
    holds = np.ones(len(batch), dtype=bool)
    for lo in range(0, len(batch), per):
        for v in grid_truth(prog, ops, n, batch[lo:lo + per]):
            holds[lo:lo + per] &= ((v != 0) if unknown_holds else (v == 1)).all(axis=1)
    return holds


def table_reads(prog: Program, ops, n: int) -> list[tuple[np.ndarray, ...]]:
    """The indices each arrow op, (x, y), and negation op, (x,), reads:
    int arrays over a grid of at most one chunk.  On the padded all-unknown
    tables of the model search an index that depends on a table value is -1."""
    k = prog.width
    S = np.empty((k + len(prog.code), n ** k), np.intp)
    S[:k] = _grid(n, k)
    _run(prog, _tables(prog, ops), S)
    return [tuple(S[i] for i in op[1:]) for op in prog.code if op[0] in (_ARROW, _NEG)]


def point_truth(prog: Program, ops, cols, batch) -> np.ndarray:
    """int8 verdicts of a one-statement program on a batch (see
    ``grid_truth``) in which algebra b is read under one assignment only:
    ``cols`` has one int array of length B per variable.  The caller
    bounds B."""
    S = np.empty((prog.width + len(prog.code), len(batch)), np.intp)
    if prog.width:
        S[:prog.width] = cols
    return _verdicts(prog, _tables(prog, ops), S, batch)[0]


def truth(prog: Program, ops, env: Mapping[str, int]) -> int:
    """Verdict of a one-statement program under one assignment: 1, 0 or -1."""
    (row,) = prog.rows
    S = np.empty((prog.width + len(prog.code), 1), np.intp)
    try:
        S[:prog.width, 0] = [env[name] for name in row.names]
    except KeyError as e:
        raise InputError(f"unbound variable {e.args[0]!r}") from None
    return int(_verdicts(prog, _tables(prog, ops), S)[0, 0])


def _ops(a: FiniteAlgebra):
    """``a``'s ops, its tables as arrays, converted once and cached on it."""
    ops = a.__dict__.get("_ops")
    if ops is None:
        tables = (None if t is None else np.asarray(t) for t in (a.join, a.meet, a.arrow, a.neg))
        ops = a.__dict__["_ops"] = (*tables, a.bot, a.top)
    return ops


def _check_signature(a: FiniteAlgebra, what: str, prog: Program) -> None:
    """Raise SignatureError when a program reads a table ``a`` lacks."""
    if not a.has_neg and prog.reads_neg:
        raise SignatureError(f"{a.name}: {what} needs a negation")
    if not a.has_arrow and prog.reads_arrow:
        raise SignatureError(f"{a.name}: {what} needs an arrow")


def _results(prog: Program, a: FiniteAlgebra) -> tuple[SatisfactionResult, ...]:
    """Each row's result on ``a``, in one pass over the grid.

    A row's first failure on the n^width grid is its own first failure in
    lexicographic order with the free trailing positions at 0, so the
    leading len(names) digits of its rank are the row's witness.
    """
    if not prog.rows:
        return ()
    n, k = a.size, prog.width
    first: list[int | None] = [None] * len(prog.rows)
    start = 0
    for v in _chunks(prog, _ops(a), n):
        failed = v != 1
        for i, (hit, at) in enumerate(zip(failed.any(axis=1).tolist(),
                                          failed.argmax(axis=1).tolist())):
            if hit and first[i] is None:
                first[i] = start + at
        if None not in first:
            break
        start += v.shape[1]
    out = []
    for row, rank in zip(prog.rows, first):
        if rank is None:
            out.append(SatisfactionResult(True))
            continue
        rank //= n ** (k - len(row.names))
        values = []
        for _ in row.names:
            rank, value = divmod(rank, n)
            values.append(value)
        out.append(SatisfactionResult(False, dict(zip(row.names, reversed(values)))))
    return tuple(out)


def satisfies(a: FiniteAlgebra, stmt: Statement) -> SatisfactionResult:
    """Exhaustively check one statement; witness is the first failure."""
    prog = compile_statement(stmt)
    _check_signature(a, f"statement {stmt.source!r}", prog)
    return _results(prog, a)[0]


@dataclass(frozen=True)
class Suite:
    name: str
    items: tuple[Statement, ...]


def compile_suite(suite: Suite) -> Program:
    """The program of a suite, one row per statement, cached on it."""
    prog = suite.__dict__.get("_program")
    if prog is None:
        prog = suite.__dict__["_program"] = _link(tuple(map(compile_statement, suite.items)))
    return prog


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
    """Check every statement of a suite in one grid pass; a signature
    error fails fast."""
    if isinstance(suite, str):
        suite = get_suite(suite)
    prog = compile_suite(suite)
    _check_signature(a, f"suite {suite.name}", prog)
    results = tuple(ItemResult(s.source, r) for s, r in zip(suite.items, _results(prog, a)))
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


@lru_cache(maxsize=None)
def lemma_groups() -> Mapping[str, tuple[tuple[str, Statement], ...]]:
    """The groups of ``lemmas.ids``, parsed once: {group: ((label, statement), ...)}."""
    return MappingProxyType({name: tuple(items)
                             for name, items in _load_ids("lemmas.ids").items()})


@lru_cache(maxsize=None)
def _lemma_suite(name: str) -> Suite:
    """A lemma group as a suite, built once, so its program stays cached."""
    return Suite(name, tuple(stmt for _, stmt in lemma_groups()[name]))


def run_lemma_suite(groups: Iterable[str] | None = None) -> tuple[LemmaGroupReport, ...]:
    """Check every lemma group against its bound catalog family, in one
    grid pass per (group, algebra)."""
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
        suite = _lemma_suite(name)
        per_key = [satisfies_suite(catalog.get(key), suite).results for key in keys]
        checked = tuple(
            LemmaItem(label, stmt.source,
                      tuple(LemmaVerdict(key, res[i].result) for key, res in zip(keys, per_key)))
            for i, (label, stmt) in enumerate(items))
        reports.append(LemmaGroupReport(name, family, keys, checked))
    return tuple(reports)
