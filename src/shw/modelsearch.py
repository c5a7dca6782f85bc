"""Bounded search for algebras living on a fixed lattice.

The searcher fills in an arrow table, and a negation column when the
requirements mention ', cell by cell.  Negation cells come first, then
the arrow cells in row-major order (column-major is available for the
order-insensitivity cross-check).  Three structural requirements are
wired into the search itself:

  *  x -> x = 1           pins the diagonal,
  *  x ^ (x -> y) = x ^ y restricts cell (x, y) to {z : x ^ z = x ^ y},
  *  the two-cell instances of x ^ (y -> z) = x ^ ((x ^ y) -> (x ^ z))
     fire as soon as their later cell is assigned.

Requirements that read only the negation prune when the negation column
is complete; requirements whose arrows are all of the shape t -> 0 prune
once the first arrow column is complete.  These boundary checks evaluate
each statement once over the whole assignment grid with the compiled
evaluator of the equational module, ``equations.grid_truth``, on the
half-filled tables: unassigned cells hold -1 and every table is padded
with a row and column of -1, so reading an unknown value gives an
undetermined verdict (-1) instead of a wrong one.  A required statement
prunes on any failing assignment, a forbidden one only when it holds on
every assignment.  Everything else waits for the leaf, where every
candidate is re-verified against every statement over the whole grid
before it is emitted.  Leaves are verified in batches with the batch
axis of ``grid_truth``: the complete tables go into a buffer, stacked as
int8 arrays when it is flushed, which happens when it holds
``min(_LEAF_BATCH, limit - solutions)`` leaves, at the end of the search
and on timeout.  So the leaf that reaches the limit always ends a batch,
and the search stops at the same node as a leaf-by-leaf check.
Solutions are reported sorted by table content, so the output is
independent of the cell order; each is built as an algebra once, under
its final name.
"""

from __future__ import annotations

import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np

from . import catalog
from .algebra import FiniteAlgebra, validate_lattice
from .equations import (Statement, compile_statement, get_suite, grid_truth,
                        stack_holds)
from .errors import InputError, StructuralError
from .terms import (
    Arrow,
    Const,
    Identity,
    Meet,
    Var,
    parse_statement,
)


def parse_seconds(raw: str | float, name: str) -> float:
    """A non-negative number of seconds; ``name`` labels the error."""
    try:
        value = float(raw)
    except ValueError:
        value = -1.0
    if not value >= 0:  # also rejects nan
        raise InputError(f"{name} must be a non-negative number of "
                         f"seconds, got {raw!r}")
    return value


def default_timeout() -> float:
    """The search budget in seconds from SHW_TIMEOUT (default 300)."""
    return parse_seconds(os.environ.get("SHW_TIMEOUT", "300"), "SHW_TIMEOUT")


# -- search specification ---------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class SearchSpec:
    """What to search for: a lattice, requirements, and exclusions.

    ``require`` statements must hold in every solution; ``forbid``
    statements must fail.  The lattice is a pure reduct: no arrow, no
    negation.
    """

    lattice: FiniteAlgebra
    require: tuple[Statement, ...]
    forbid: tuple[Statement, ...] = ()
    max_solutions: int | None = None
    timeout: float | None = None  # None: SHW_TIMEOUT, default 300 s

    def __post_init__(self) -> None:
        if self.lattice.has_arrow or self.lattice.has_neg:
            raise InputError(f"{self.lattice.name}: search wants a bare "
                             "lattice; strip the operations first")
        report = validate_lattice(self.lattice)
        if not report.ok:
            raise StructuralError(
                f"{self.lattice.name}: not a bounded lattice "
                f"({report.failures[0].law})")
        if self.max_solutions is not None and self.max_solutions < 1:
            raise InputError("max_solutions must be positive")
        if self.timeout is not None:
            parse_seconds(self.timeout, "timeout")


def lattice_reduct(a: FiniteAlgebra) -> FiniteAlgebra:
    return replace(a, arrow=None, neg=None)


def build_spec(lattice: FiniteAlgebra, require, forbid=(),
               max_solutions: int | None = None,
               timeout: float | None = None) -> SearchSpec:
    """Assemble a SearchSpec from suite names, statement sources, or ASTs."""

    def stmts(spec_list) -> tuple[Statement, ...]:
        out: list[Statement] = []
        for item in spec_list:
            if isinstance(item, str):
                # a bare name can only be a suite: no statement lacks a relation
                name = item.strip()
                batch = get_suite(name).items if _NAME_RE.fullmatch(name) \
                    else (parse_statement(item),)
            else:
                batch = (item,)
            for s in batch:
                if s not in out:
                    out.append(s)
        return tuple(out)

    return SearchSpec(lattice_reduct(lattice), stmts(require), stmts(forbid),
                      max_solutions, timeout)


@dataclass(frozen=True)
class SearchResult:
    spec: SearchSpec
    solutions: tuple[FiniteAlgebra, ...]
    complete: bool
    reason: str  # "exhausted" | "timeout" | "limit"
    nodes: int
    elapsed: float


# -- statement classification ----------------------------------------------

def _is_diagonal_top(stmt: Statement) -> bool:
    match stmt:
        case Identity("eq", Arrow(Var(a), Var(b)), Const(1)) if a == b:
            return True
        case Identity("eq", Const(1), Arrow(Var(a), Var(b))) if a == b:
            return True
    return False


def _is_meet_arrow_contraction(stmt: Statement) -> bool:
    match stmt:
        case Identity("eq",
                      Meet(Var(a), Arrow(Var(b), Var(c))),
                      Meet(Var(d), Var(e))):
            return a == b == d and c == e
    return False


def _is_meet_relativization(stmt: Statement) -> bool:
    match stmt:
        case Identity("eq",
                      Meet(Var(a), Arrow(Var(b), Var(c))),
                      Meet(Var(d), Arrow(Meet(Var(e), Var(f)),
                                         Meet(Var(g), Var(h))))):
            return a == d == e == g and b == f and c == h
    return False


# -- the searcher -----------------------------------------------------------

class _TimeUp(Exception):
    pass


class _Limit(Exception):
    pass


def _padded(rows, n: int) -> list[list[int]]:
    """An n x n table with one extra row and column of -1 (unknown).

    The negation list gets one extra -1 the same way.  Unassigned search
    cells hold -1 too, and numpy reads index -1 as the padding, so every
    operation applied to an unknown value yields -1: unknown is
    absorbing, and the evaluator reports -1 for any assignment under
    which a statement reads it.  Complete algebras never hold -1.
    """
    return [list(r) + [-1] for r in rows] + [[-1] * (n + 1)]


def _prepare(spec: SearchSpec, cell_order: str):
    lat = spec.lattice
    n = lat.size
    meet = lat.meet
    everything = spec.require + spec.forbid
    need_neg = any(s.requires_neg for s in everything)
    need_arrow = any(s.requires_arrow for s in everything)

    sh_diag = any(_is_diagonal_top(s) for s in spec.require)
    sh_cand = any(_is_meet_arrow_contraction(s) for s in spec.require)
    sh_rel = [s for s in spec.require if _is_meet_relativization(s)]

    arrow = _padded([[-1] * n] * n, n) if need_arrow else None
    neg = [-1] * (n + 1) if need_neg else None
    if need_arrow and sh_diag:
        for x in range(n):
            arrow[x][x] = lat.top

    cells: list[tuple] = []
    if need_neg:
        cells += [("n", x) for x in range(n)]
    if need_arrow:
        if cell_order == "row-major":
            order = [(x, y) for x in range(n) for y in range(n)]
        elif cell_order == "column-major":
            order = [(x, y) for y in range(n) for x in range(n)]
        else:
            raise InputError(f"unknown cell order {cell_order!r}")
        cells += [("a", x, y) for x, y in order if arrow[x][y] < 0]

    cands = []
    for cell in cells:
        if cell[0] == "n":
            cands.append(list(range(n)))
        else:
            _, x, y = cell
            if sh_cand:
                cands.append([z for z in range(n) if meet[x][z] == meet[x][y]])
            else:
                cands.append(list(range(n)))

    depth_of = {cell: d for d, cell in enumerate(cells)}
    neg_boundary = n - 1 if need_neg else -1

    # two-cell instances of the relativized identity, keyed by the later cell
    buckets: dict[int, list[tuple[int, int, int, int, int]]] = {}
    if need_arrow and sh_rel:
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    my, mz = meet[x][y], meet[x][z]
                    d1 = depth_of.get(("a", y, z), -1)
                    d2 = depth_of.get(("a", my, mz), -1)
                    fire = max(d1, d2)
                    if fire >= 0:
                        buckets.setdefault(fire, []).append((x, y, z, my, mz))

    def classify(stmts):
        neg_only, star_only = [], []
        for s in stmts:
            prog = compile_statement(s)
            if s.requires_neg and not s.requires_arrow:
                neg_only.append(prog)
            elif s.requires_arrow and prog.star_only:
                star_only.append(prog)
        return neg_only, star_only

    neg_req, star_req = classify(spec.require)
    neg_forb, star_forb = classify(spec.forbid)

    star_boundary = -1
    if need_arrow and (star_req or star_forb):
        col0 = [depth_of[("a", x, 0)] for x in range(n) if ("a", x, 0) in depth_of]
        star_boundary = max(col0) if col0 else len(cells) - 1

    return {
        "lat": lat, "n": n, "meet": meet,
        "arrow": arrow, "neg": neg,
        "ops": (_padded(lat.join, n), _padded(meet, n), arrow, neg, lat.bot, lat.top),
        "cells": cells, "cands": cands,
        "buckets": buckets,
        "neg_boundary": neg_boundary, "star_boundary": star_boundary,
        "neg_req": neg_req, "neg_forb": neg_forb,
        "star_req": star_req, "star_forb": star_forb,
    }


# Complete leaves verified together: one batch of a 7-element lattice's
# 3-variable grids (343 assignments) fits in one evaluator chunk.
_LEAF_BATCH = 32


def _run(spec: SearchSpec, plan, deadline: float):
    lat, n, meet = plan["lat"], plan["n"], plan["meet"]
    arrow, neg, ops = plan["arrow"], plan["neg"], plan["ops"]
    cells, cands = plan["cells"], plan["cands"]
    buckets = plan["buckets"]
    # a leaf is its (negation, arrow) tables, None where not searched
    sols: list[tuple] = []
    leaves: list[tuple] = []  # complete, not yet verified
    nodes = 0
    limit = spec.max_solutions
    checks = ([(compile_statement(s), True) for s in spec.require]
              + [(compile_statement(s), False) for s in spec.forbid])
    join_meet = (np.asarray(lat.join), np.asarray(meet))

    def group_ok(progs, forbid: bool) -> bool:
        # a required statement prunes on any failing assignment; a
        # forbidden one only once it is determined and holds everywhere
        for prog in progs:
            if forbid:
                if all((v == 1).all() for v in grid_truth(prog, ops, n)):
                    return False
            elif any((v == 0).any() for v in grid_truth(prog, ops, n)):
                return False
        return True

    def flush() -> None:
        # every required statement holds and every forbidden one fails on
        # the whole grid; statements after the first only see survivors
        if not leaves:
            return
        negs = np.array([t[0] for t in leaves], np.int8) if neg is not None else None
        arrows = np.array([t[1] for t in leaves], np.int8) if arrow is not None else None
        stack = (*join_meet, arrows, negs, lat.bot, lat.top)
        alive = np.arange(len(leaves))
        for prog, required in checks:
            alive = alive[stack_holds(prog, stack, n, (alive, alive)) == required]
        sols.extend(leaves[i] for i in alive)
        leaves.clear()
        if limit is not None and len(sols) >= limit:
            raise _Limit

    def emit() -> None:
        n_tab = tuple(neg[:n]) if neg is not None else None
        a_tab = tuple(tuple(r[:n]) for r in arrow[:n]) if arrow is not None else None
        leaves.append((n_tab, a_tab))
        # never buffer past the limit: the leaf reaching it ends a batch,
        # so the search stops at the same node as a leaf-by-leaf check
        if len(leaves) >= (_LEAF_BATCH if limit is None
                           else min(_LEAF_BATCH, limit - len(sols))):
            flush()

    def rec(d: int) -> None:
        nonlocal nodes
        if d < 2 and time.monotonic() > deadline:
            raise _TimeUp
        if d == len(cells):
            emit()
            return
        cell = cells[d]
        for v in cands[d]:
            nodes += 1
            if nodes % 2048 == 0 and time.monotonic() > deadline:
                raise _TimeUp
            if cell[0] == "n":
                neg[cell[1]] = v
                ok = group_ok(plan["neg_req"], forbid=False)
                if ok and d == plan["neg_boundary"]:
                    ok = group_ok(plan["neg_forb"], forbid=True)
            else:
                _, x, y = cell
                arrow[x][y] = v
                ok = True
                for ix, iy, iz, my, mz in buckets.get(d, ()):
                    a1, a2 = arrow[iy][iz], arrow[my][mz]
                    if a1 >= 0 and a2 >= 0 and meet[ix][a1] != meet[ix][a2]:
                        ok = False
                        break
                if ok and d == plan["star_boundary"]:
                    ok = (group_ok(plan["star_req"], forbid=False)
                          and group_ok(plan["star_forb"], forbid=True))
            if ok:
                rec(d + 1)
        if cell[0] == "n":
            neg[cell[1]] = -1
        else:
            arrow[cell[1]][cell[2]] = -1

    timed_out = False
    limited = False
    try:
        rec(0)
        flush()
    except _TimeUp:
        timed_out = True
        flush()  # below the limit by construction, so it cannot raise
    except _Limit:
        limited = True
    return sols, nodes, timed_out, limited


def _shard_worker(payload):
    # the deadline is absolute: CLOCK_MONOTONIC is shared by the processes
    # of one machine, so every shard stops when the whole search's budget ends
    spec, cell_order, value, deadline = payload
    plan = _prepare(spec, cell_order)
    plan["cands"][0] = [value]
    return _run(spec, plan, deadline)


def _search_tables(spec: SearchSpec, cell_order: str = "row-major",
                   jobs: int = 1) -> tuple[list[tuple], bool, str, int]:
    """The search behind ``enumerate_algebras``, without building algebras.

    Returns the solutions as (negation, arrow) table tuples, None where
    not searched, sorted by table content, then complete, reason and
    nodes.
    """
    t0 = time.monotonic()
    plan = _prepare(spec, cell_order)
    deadline = t0 + (spec.timeout if spec.timeout is not None
                     else default_timeout())

    if jobs > 1 and plan["cells"]:
        first = plan["cands"][0]
        sols: list[tuple] = []
        nodes, timed_out, limited = 0, False, False
        with ProcessPoolExecutor(max_workers=min(jobs, len(first))) as pool:
            parts = pool.map(_shard_worker,
                             [(spec, cell_order, v, deadline) for v in first])
        for s, k, t, l in parts:
            sols.extend(s)
            nodes += k
            timed_out |= t
            limited |= l
        if spec.max_solutions is not None and len(sols) > spec.max_solutions:
            sols = sols[:spec.max_solutions]
            limited = True
    else:
        sols, nodes, timed_out, limited = _run(spec, plan, deadline)

    sols.sort(key=lambda t: (t[0] or (), t[1] or ()))
    if limited:
        return sols, False, "limit", nodes
    if timed_out:
        return sols, False, "timeout", nodes
    return sols, True, "exhausted", nodes


def enumerate_algebras(spec: SearchSpec, cell_order: str = "row-major",
                       jobs: int = 1) -> SearchResult:
    """All completions of the lattice satisfying the spec.

    Solutions are sorted by (negation, arrow) table content and renamed
    ``<lattice>#<index>``; the output is therefore identical for every
    cell order and shard count, which the tests exploit.
    """
    t0 = time.monotonic()
    tables, complete, reason, nodes = _search_tables(spec, cell_order, jobs)
    lat = spec.lattice
    ordered = tuple(FiniteAlgebra(f"{lat.name}#{i}", lat.elements, lat.join,
                                  lat.meet, a_tab, n_tab, lat.bot, lat.top)
                    for i, (n_tab, a_tab) in enumerate(tables))
    return SearchResult(spec, ordered, complete, reason, nodes,
                        time.monotonic() - t0)


# -- small distributive lattices up to isomorphism --------------------------

_MID_LABELS = "abcdefghijklmnop"


def _strict_orders(m: int):
    """All transitive strict orders on 0..m-1 with edges only i < j."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if all((i, k) in rel
               for (i, j) in rel for (j2, k) in rel if j2 == j):
            yield rel


def _downset_lattice(m: int, rel, max_size: int) -> FiniteAlgebra | None:
    """The downsets of a strict order, or None past ``max_size`` of them."""
    downs = []
    for s in range(1 << m):
        if all(not (s >> j & 1) or (s >> i & 1) for i, j in rel):
            downs.append(s)
            if len(downs) > max_size:
                return None
    downs.sort(key=lambda s: (bin(s).count("1"), s))
    idx = {s: i for i, s in enumerate(downs)}
    k = len(downs)
    join = tuple(tuple(idx[a | b] for b in downs) for a in downs)
    meet = tuple(tuple(idx[a & b] for b in downs) for a in downs)
    labels = ["0"] + list(_MID_LABELS[:k - 2]) + (["1"] if k > 1 else [])
    return FiniteAlgebra("lat", tuple(labels), join, meet, None, None, 0, k - 1)


def _canonical_key(a: FiniteAlgebra) -> tuple:
    n = a.size
    best = None
    for p in permutations(range(n)):
        jt = [None] * n
        mt = [None] * n
        for x in range(n):
            jr = [0] * n
            mr = [0] * n
            for y in range(n):
                jr[p[y]] = p[a.join[x][y]]
                mr[p[y]] = p[a.meet[x][y]]
            jt[p[x]] = tuple(jr)
            mt[p[x]] = tuple(mr)
        key = (tuple(jt), tuple(mt))
        if best is None or key < best:
            best = key
    return best


def bounded_distributive_lattices(max_size: int) -> tuple[FiniteAlgebra, ...]:
    """All bounded distributive lattices of size 2..max_size, one per
    isomorphism class, as downset lattices of small strict orders."""
    if not 2 <= max_size <= 6:
        raise InputError("max_size must be between 2 and 6")
    found: dict[tuple, FiniteAlgebra] = {}
    for m in range(1, max_size):
        for rel in _strict_orders(m):
            lat = _downset_lattice(m, rel, max_size)
            if lat is None:
                continue
            key = _canonical_key(lat)
            if key not in found:
                found[key] = lat
    per_size: dict[int, int] = {}
    out = []
    for key in sorted(found):
        lat = found[key]
        i = per_size.get(lat.size, 0)
        per_size[lat.size] = i + 1
        out.append(lat.rename(f"lat{lat.size}.{i}"))
    return tuple(sorted(out, key=lambda a: (a.size, a.name)))


# -- the Stone property at small sizes --------------------------------------

@dataclass(frozen=True)
class LatticeTally:
    lattice: str
    size: int
    arrows: int
    negations: int
    screened: int  # pairs passing the level-1 + regularity screen
    violations: tuple[FiniteAlgebra, ...]


@dataclass(frozen=True)
class StoneScan:
    max_size: int
    tallies: tuple[LatticeTally, ...]
    complete: bool

    @property
    def holds(self) -> bool:
        return self.complete and all(not t.violations for t in self.tallies)


def exhaustive_stone_check(max_size: int, timeout: float | None = None) -> StoneScan:
    """Confirm x* v x** = 1 on every screened algebra of size <= max_size.

    For each bounded distributive lattice up to isomorphism, combine every
    arrow satisfying the SH suite with every negation satisfying DQD + DM,
    keep the pairs passing L1 and R, and test St on each.  Neither the
    searches' solutions nor the pairs are built as algebras: the solution
    tables are stacked as int8 arrays, pair p stands for arrow p // N
    with negation p % N, N negations, and an algebra is made only for a
    violator.
    """
    if not 2 <= max_size <= 5:
        raise InputError(f"the Stone scan's max_size must be between 2 and 5, "
                         f"got {max_size}")
    l1, reg, st = (compile_statement(get_suite(name).items[0])
                   for name in ("L1", "R", "St"))
    tallies = []
    complete = True
    for lat in bounded_distributive_lattices(max_size):
        n = lat.size
        arrows, arrows_done, _, _ = _search_tables(
            build_spec(lat, ("SH",), timeout=timeout))
        negs, negs_done, _, _ = _search_tables(
            build_spec(lat, ("DQD", "DM"), timeout=timeout))
        complete &= arrows_done and negs_done
        ops = (np.asarray(lat.join), np.asarray(lat.meet),
               np.array([a for _, a in arrows], np.int8).reshape(-1, n, n),
               np.array([m for m, _ in negs], np.int8).reshape(-1, n),
               lat.bot, lat.top)
        pairs = np.arange(len(arrows) * len(negs))
        for prog in (l1, reg):
            pairs = pairs[stack_holds(prog, ops, n, divmod(pairs, len(negs)))]
        bad = []
        for p in pairs[~stack_holds(st, ops, n, divmod(pairs, len(negs)))]:
            i, j = divmod(int(p), len(negs))
            bad.append(FiniteAlgebra(f"{lat.name}#a{i}n{j}", lat.elements,
                                     lat.join, lat.meet, arrows[i][1],
                                     negs[j][0], lat.bot, lat.top))
        tallies.append(LatticeTally(lat.name, lat.size, len(arrows),
                                    len(negs), len(pairs), tuple(bad)))
    return StoneScan(max_size, tuple(tallies), complete)


# -- the level-2 counterexample hunt ----------------------------------------

@dataclass(frozen=True)
class StoneOutcome:
    status: str  # "found" | "none" | "inconclusive"
    algebra: FiniteAlgebra | None
    result: SearchResult


def find_stone_counterexample_level2(lattice: FiniteAlgebra | None = None,
                                     timeout: float | None = None,
                                     jobs: int = 1) -> StoneOutcome:
    """First algebra on the lattice with SH + DQD + DM + L2 + R but not St.

    Defaults to the seven-element double diamond.  The search runs
    column-major: every requirement beyond SH reads only the negation and
    the first arrow column, so the pruning happens at the column boundary.
    """
    if lattice is None:
        lattice = catalog.double_diamond()
    spec = build_spec(lattice, ("SH", "DQD", "DM", "L2", "R"), ("St",),
                      max_solutions=1, timeout=timeout)
    result = enumerate_algebras(spec, cell_order="column-major", jobs=jobs)
    if result.solutions:
        return StoneOutcome("found", result.solutions[0], result)
    if result.complete:
        return StoneOutcome("none", None, result)
    return StoneOutcome("inconclusive", None, result)
