"""Exhaustive satisfaction checking and the named identity suites.

A suite is an ordered list of identities/quasi-identities.  Primitive
suites live in ``suites/core.ids``; composites (DMSH, RDQDStSH1, ...) are
unions assembled here, and the lemma groups of ``suites/lemmas.ids`` are
parsed once per process.  Satisfaction is decided by brute force over
all assignments, reporting the first counterexample in lexicographic
assignment order (variables sorted by name).

One evaluator serves checking and the model search.  One compile step
turns any tuple of statements into one ``Program`` with a row per
statement, shared grid positions and shared ops: a statement's program
is the one-row case.  ``_results`` runs a program in one grid pass and
reads each row's first failure off that row alone.

The named suites share their statements: the distinct ones are decided
once per algebra and variable count.  They form a library, grouped by
signature (whether a statement reads the arrow, the negation) and by
variable count k, one program per group, so no row is padded beyond its
own n^k grid.  A group's program is compiled the first time a named
suite needs it, and its results are kept on the algebra.  A row's result
does not depend on the rows beside it, so each witness is the one the
statement has on its own.  An ad-hoc suite (a lemma group, the stored
bases' identities, the lattice laws) is checked in one pass of its own
program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from importlib import resources
from math import prod
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
    parse_identity,
    parse_statement,
)

Statement = Identity | QuasiIdentity


@dataclass(frozen=True)
class SatisfactionResult:
    """Whether a statement holds, with the first failing assignment if not."""

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
    reads its variables, sorted, at positions 0..k-1.  Op i computes slot
    width + i from earlier slots.  Every op (op, slot, slot) has one slot,
    within a row and across rows, so a subterm that several statements
    compute, such as x' or x -> 0, is computed once.  A statement's own
    program is the one-row case.
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
        lhs = tuple(at[1] for at in atoms)
        rhs = tuple(at[2] for at in atoms)
        conclusions = np.array([index[r.conclusion] for r in self.rows], np.intp)
        premises = tuple((i, np.array([index[p] for p in r.premises], np.intp))
                         for i, r in enumerate(self.rows) if r.premises)
        return lhs, rhs, eq_end, leq_end, conclusions, premises


def _kept(make):
    """``make(owner)``, computed on the first call and kept in the owner's
    ``__dict__``: what functools.cached_property does, for immutable
    owners, and it spares hashing a whole term tree on every call."""
    key = f"_{make.__name__}"

    @wraps(make)
    def get(owner):
        value = owner.__dict__.get(key)
        if value is None:
            value = owner.__dict__[key] = make(owner)
        return value
    return get


def _compile(stmts: tuple[Statement, ...]) -> Program:
    """One program with one row per statement.  A row reads its variables,
    sorted, at positions 0..k-1, and every op (op, slot, slot) gets one
    slot, shared within and across rows."""
    width = max((len(s.variables()) for s in stmts), default=0)
    slots: dict[tuple[int, ...], int] = {}  # op -> the slot it computes

    def slot(t: Term, pos: dict[str, int]) -> int:
        match t:
            case Var(v):
                return pos[v]
            case Join(l, r):
                op = (_JOIN, slot(l, pos), slot(r, pos))
            case Meet(l, r):
                op = (_MEET, slot(l, pos), slot(r, pos))
            case Arrow(l, r):
                op = (_ARROW, slot(l, pos), slot(r, pos))
            case Neg(g):
                op = (_NEG, slot(g, pos))
            case Const(v):
                op = (_TOP if v else _BOT,)
            case _:
                raise TypeError(f"not a desugared term: {t!r}")
        return slots.setdefault(op, width + len(slots))

    rows = []
    for stmt in stmts:
        names = stmt.variables()
        pos = {v: i for i, v in enumerate(names)}

        def atom(at: Identity | Atom) -> AtomCode:
            return at.kind, slot(desugar(at.lhs), pos), slot(desugar(at.rhs), pos)

        if isinstance(stmt, Identity):
            rows.append(Row(names, (), atom(stmt)))
        else:
            rows.append(Row(names, tuple(map(atom, stmt.premises)), atom(stmt.conclusion)))
    tables = {op[0] for op in slots if op[0] <= _NEG}
    if any(at[0] == "leq" for r in rows for at in (*r.premises, r.conclusion)):
        tables.add(_MEET)
    return Program(width, tuple(slots), tuple(rows), frozenset(tables))


@_kept
def compile_statement(stmt: Statement) -> Program:
    """The one-row program of a statement, compiled once and kept on it."""
    return _compile((stmt,))


def _tables(prog: Program, ops) -> list:
    # converted on every call: search tables change between calls (a
    # checked algebra's tables come from ``_ops`` as arrays already).  Every
    # table is read as intp, the type of the positions, so no op mixes
    # integer types; the constants become numpy scalars, which have a shape
    tabs = [*ops[:_BOT], np.intp(ops[_BOT]), np.intp(ops[_TOP])]
    for i in prog.tables:
        tabs[i] = np.asarray(ops[i], np.intp)
    return tabs


def _slots(prog: Program, tabs, S, lead=None) -> list:
    """Every slot of a program: the positions ``S``, then op i's value as
    slot width + i.  A slot is an array that broadcasts against the others
    (a constant is a scalar) and keeps the shape of what it reads.

    With ``lead``, an index array that broadcasts against the positions,
    the arrow and negation tables are stacks read as ``arrow[lead, x, y]``
    and ``neg[lead, x]``: a slot that reads neither keeps the positions'
    shape, so over a batch it is computed once.  A 2-D ``lead`` is a
    batch as a column, (B, 1), over a grid chunk (see ``grid_truth``);
    there an arrow or negation op whose indices lack the batch axis reads
    one column of the batch's tables, flattened to (B, cells), per
    assignment.  Those indices are positions or lattice values, never -1,
    so the column take wraps no index around.
    """
    S = list(S)
    cols = lead is not None and lead.ndim == 2
    flat = {}
    for op in prog.code:
        i = op[0]
        if i > _NEG:
            S.append(tabs[i])  # a constant
            continue
        x = (S[op[1]],) if i == _NEG else (S[op[1]], S[op[2]])
        if lead is None or i <= _MEET:
            S.append(tabs[i][x])
        elif cols and max(a.ndim for a in x) < 2:
            if i not in flat:
                flat[i] = tabs[i][lead[:, 0]].reshape(len(lead), prod(tabs[i].shape[1:]))
            x = x[0] if i == _NEG else x[0] * tabs[i].shape[-1] + x[1]
            S.append(flat[i][:, x] if x.ndim else flat[i][:, x, None])
        else:
            S.append(tabs[i][(lead, *x)])
    return S


def _verdicts(prog: Program, tabs, S: list, shape: tuple[int, ...]) -> np.ndarray:
    """int8 verdicts of every row of a program, of shape (rows, *shape):
    1 (holds), 0 (fails) or -1 (undetermined).  ``S`` holds every slot
    (see ``_slots``), each broadcasting against ``shape``."""
    lhs, rhs, eq_end, leq_end, conclusions, premises = prog._atoms
    if len(lhs) == 1:  # read in its slots' own shape
        l, r = np.asarray(S[lhs[0]])[None], np.asarray(S[rhs[0]])[None]
    else:
        l = np.empty((len(lhs), *shape), np.intp)
        r = np.empty_like(l)
        for j, (a, b) in enumerate(zip(lhs, rhs)):
            l[j], r[j] = S[a], S[b]
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
    verdicts = atoms if len(atoms) == len(conclusions) == 1 else atoms[conclusions]
    # a false premise makes the statement hold, an undetermined one leaves
    # it undetermined
    for i, p in premises:
        p = atoms[p]
        verdicts[i] = np.where((p == 0).any(axis=0), np.int8(1),
                               np.where((p < 0).any(axis=0), np.int8(-1), verdicts[i]))
    if verdicts.shape[1:] == shape:
        return verdicts
    return np.broadcast_to(verdicts, (len(verdicts), *shape))


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
    (rows, B, G) with a batch (see ``grid_truth``)."""
    tabs = _tables(prog, ops)
    k = prog.width
    total = n ** k
    lead = None if batch is None else batch[:, None]
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        pos = (_grid(n, k) if total <= _CHUNK else
               np.unravel_index(np.arange(start, stop), (n,) * k))
        shape = (stop - start,) if batch is None else (len(batch), stop - start)
        yield _verdicts(prog, tabs, _slots(prog, tabs, pos, lead), shape)


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
    int arrays of length n^width over a grid of at most one chunk.  On the
    padded all-unknown tables of the model search an index that depends
    on a table value is -1."""
    total = n ** prog.width
    S = _slots(prog, _tables(prog, ops), _grid(n, prog.width))
    return [tuple(S[s] if S[s].ndim else np.full(total, S[s]) for s in op[1:])
            for op in prog.code if op[0] in (_ARROW, _NEG)]


def point_truth(prog: Program, ops, cols, batch) -> np.ndarray:
    """int8 verdicts of a one-statement program on a batch (see
    ``grid_truth``) in which algebra b is read under one assignment only:
    ``cols`` has one int array of length B per variable.  The caller
    bounds B."""
    tabs = _tables(prog, ops)
    return _verdicts(prog, tabs, _slots(prog, tabs, cols, batch), (len(batch),))[0]


def truth(prog: Program, ops, env: Mapping[str, int]) -> int:
    """Verdict of a one-statement program under one assignment: 1, 0 or -1."""
    (row,) = prog.rows
    try:
        pos = [env[name] for name in row.names]
    except KeyError as e:
        raise InputError(f"unbound variable {e.args[0]!r}") from None
    tabs = _tables(prog, ops)
    return int(_verdicts(prog, tabs, _slots(prog, tabs, pos), ())[0])


@_kept
def _ops(a: FiniteAlgebra):
    """``a``'s ops, its tables as arrays, converted once and kept on it."""
    tables = (None if t is None else np.asarray(t) for t in (a.join, a.meet, a.arrow, a.neg))
    return (*tables, a.bot, a.top)


def _check_signature(a: FiniteAlgebra, what: str, reads_neg: bool, reads_arrow: bool) -> None:
    """Raise SignatureError when a check reads a table ``a`` lacks."""
    if not a.has_neg and reads_neg:
        raise SignatureError(f"{a.name}: {what} needs a negation")
    if not a.has_arrow and reads_arrow:
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
    _check_signature(a, f"statement {stmt.source!r}", prog.reads_neg, prog.reads_arrow)
    return _results(prog, a)[0]


@dataclass(frozen=True)
class Suite:
    """A named tuple of statements."""

    name: str
    items: tuple[Statement, ...]


@_kept
def compile_suite(suite: Suite) -> Program:
    """The program of a suite, one row per statement, compiled once and
    kept on it."""
    return _compile(suite.items)


@dataclass(frozen=True)
class ItemResult:
    """One suite statement, by source, with its result."""

    source: str
    result: SatisfactionResult


@dataclass(frozen=True)
class SuiteReport:
    """A suite's results on one algebra, in suite order."""

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
    """Check every statement of a suite; a signature error fails fast.
    A named suite reads its statements' results off the library groups
    (see ``_named_results``), any other suite runs one grid pass."""
    if isinstance(suite, str):
        suite = get_suite(suite)
    what = f"suite {suite.name}"
    if SUITES.get(suite.name) is suite:
        reads_neg, reads_arrow, numbers = _library()[1][suite.name]
        _check_signature(a, what, reads_neg, reads_arrow)
        results = _named_results(a, numbers)
    else:
        prog = compile_suite(suite)
        _check_signature(a, what, prog.reads_neg, prog.reads_arrow)
        results = _results(prog, a)
    return SuiteReport(a.name, suite.name,
                       tuple(ItemResult(s.source, r) for s, r in zip(suite.items, results)))


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


@lru_cache(maxsize=None)
def _library() -> tuple[tuple[Statement, ...], dict[str, tuple[bool, bool, tuple[int, ...]]]]:
    """The distinct statements of ``SUITES``, numbered; and for each suite,
    whether it reads the negation, the arrow, and its statements' numbers."""
    numbers: dict[Statement, int] = {}
    suites = {}
    for name, suite in SUITES.items():
        progs = [compile_statement(stmt) for stmt in suite.items]
        suites[name] = (any(p.reads_neg for p in progs), any(p.reads_arrow for p in progs),
                        tuple(numbers.setdefault(stmt, len(numbers)) for stmt in suite.items))
    return tuple(numbers), suites


@lru_cache(maxsize=None)
def _group(key: tuple[bool, bool, int]) -> tuple[tuple[int, ...], Program]:
    """The numbers of the library statements of one group (see
    ``_group_key``), and their program: every row reads all k positions,
    so no row is padded beyond its own grid."""
    stmts = _library()[0]
    numbers = tuple(i for i, stmt in enumerate(stmts)
                    if _group_key(compile_statement(stmt)) == key)
    return numbers, _compile(tuple(stmts[i] for i in numbers))


def _group_key(prog: Program) -> tuple[bool, bool, int]:
    """A statement's library group: whether it reads the arrow, the
    negation, and its variable count."""
    return prog.reads_arrow, prog.reads_neg, prog.width


def _named_results(a: FiniteAlgebra, numbers: tuple[int, ...]) -> list[SatisfactionResult]:
    """The results of library statements on ``a``.  A statement's whole
    group is decided in one ``_results`` pass the first time a named suite
    needs it, and kept on ``a``."""
    stmts = _library()[0]
    kept = a.__dict__.get("_named")
    if kept is None:
        kept = a.__dict__["_named"] = [None] * len(stmts)
    for i in numbers:
        if kept[i] is None:
            group, prog = _group(_group_key(compile_statement(stmts[i])))
            for j, result in zip(group, _results(prog, a)):
                kept[j] = result
    return [kept[i] for i in numbers]


@lru_cache(maxsize=None)
def identity_suite(name: str, sources: tuple[str, ...]) -> Suite:
    """Identities given as text, as a suite parsed once, so its program
    stays kept: the lattice laws, and the distinct identities of the
    stored bases."""
    return Suite(name, tuple(map(parse_identity, sources)))


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
    """One lemma's result on one algebra."""

    algebra: str
    result: SatisfactionResult


@dataclass(frozen=True)
class LemmaItem:
    """One lemma, by label and source, with its verdict on each algebra."""

    label: str
    source: str
    verdicts: tuple[LemmaVerdict, ...]

    @property
    def holds(self) -> bool:
        return all(v.result.holds for v in self.verdicts)


@dataclass(frozen=True)
class LemmaGroupReport:
    """A lemma group's items on the algebras of its catalog family."""

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
