"""Bounded search for algebras living on a fixed lattice.

The searcher fills in an arrow table, and a negation column when the
requirements mention ', cell by cell: negation cells first, then the
arrow cells in row-major (or column-major) order.  Unassigned cells hold
-1 and every table is padded with a row and column of -1, so reading an
unknown value gives an undetermined verdict (-1) instead of a wrong one.

The pruning is read off the compiled statements, not their spelling.
``equations.table_reads`` gives the cells each statement reads at every
assignment, an index that depends on a table value being -1.  A required
statement whose indices are all known, and whose instances have at most
one chunk of value tuples each, is ground: ``equations.point_truth``
decides each instance under every value tuple of its cells.  One-cell
instances restrict candidates, a cell left with one candidate is filled
before the search (the diagonal of x -> x = 1, 0' and 1' from DQD), and
an instance over several cells is looked up when its last cell is
assigned.  Every other statement is evaluated over the whole grid with
``equations.grid_truth``, an unknown index spanning its row, its column
or the whole negation list: a required one after each cell it may read
(it prunes on any failing assignment), a forbidden one after the last
(it prunes when it holds on every assignment), but not at the last cell,
where the leaf check decides.  A statement whose grid exceeds one
evaluator chunk is left to the leaf.

Every leaf is re-verified against every statement over the whole grid,
in batches of padded tables stacked as int8 arrays; the buffer is
flushed when it holds ``min(_LEAF_BATCH, limit - solutions)`` leaves, at
the end of the search and on timeout, so the search stops at the same
node as a leaf-by-leaf check.  Solutions are reported as their
(negation, arrow) tables sorted by content, so the output is independent
of the cell order; a result builds them as algebras only when its
``solutions`` are first read.

``count_algebras`` counts without listing: the rules and the checked
statements split the unfilled cells into connected components, and the
count is the product of the counts of the components, each searched on
its own with the other cells unknown.
"""

from __future__ import annotations

import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import permutations
from operator import itemgetter

import numpy as np

from . import catalog
from .algebra import FiniteAlgebra, validate_lattice
from .equations import (_CHUNK, Statement, compile_statement, get_suite,
                        grid_truth, point_truth, stack_holds, table_reads)
from .errors import InputError, StructuralError
from .terms import parse_statement


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
    # the solutions' (negation, arrow) tables, None where not searched,
    # sorted by content
    tables: tuple[tuple, ...]
    complete: bool
    reason: str  # "exhausted" | "timeout" | "limit"
    nodes: int
    elapsed: float

    @cached_property
    def solutions(self) -> tuple[FiniteAlgebra, ...]:
        """The tables as algebras named ``<lattice>#<index>``, built on
        first read (``cached_property`` writes the instance ``__dict__``,
        which a frozen dataclass leaves open)."""
        lat = self.spec.lattice
        return tuple(FiniteAlgebra(f"{lat.name}#{i}", lat.elements, lat.join,
                                   lat.meet, a_tab, n_tab, lat.bot, lat.top)
                     for i, (n_tab, a_tab) in enumerate(self.tables))


# -- the searcher -----------------------------------------------------------

class _TimeUp(Exception):
    pass


class _Limit(Exception):
    pass


def _padded(rows, n: int) -> list[list[int]]:
    """An n x n table with one extra row and column of -1 (unknown): numpy
    reads index -1 as the padding, so an unknown value stays unknown."""
    return [list(r) + [-1] for r in rows] + [[-1] * (n + 1)]


# A cell is an index into the search's flat list of values: negation
# cell x is x, arrow cell (x, y) is n + n * x + y.

def _reach(reads, n: int) -> set[int]:
    """Every cell a statement may read (see ``equations.table_reads``): an
    unknown index spans its row, its column or the whole negation list."""
    out: set[int] = set()
    span = range(n)
    for r in reads:
        for idx in set(zip(*(i.tolist() for i in r))):
            if len(idx) == 1:
                out.update(span if idx[0] < 0 else idx)
            else:
                out.update(n + n * x + y for x in (span if idx[0] < 0 else idx[:1])
                           for y in (span if idx[1] < 0 else idx[1:]))
    return out


def _ground(reads, n: int, total: int) -> list[tuple[int, ...]] | None:
    """The cells each of the ``total`` assignments reads, in grid order;
    None when some index depends on a table value."""
    if any((i < 0).any() for r in reads for i in r):
        return None
    ids = [r[0] if len(r) == 1 else n + n * r[0] + r[1] for r in reads]
    return [tuple(sorted(set(c)))
            for c in np.array(ids, np.intp).reshape(len(ids), total).T.tolist()]


def _instance_rules(prog, ops, n: int, ground):
    """Each ground instance's cells with a bool array over their value
    tuples, of shape (n,) * width: whether the instance holds.  One batched
    evaluator call per width, at most one chunk of algebras at a time."""
    k = prog.width
    by_width: dict[int, list[int]] = {}
    for g, cs in enumerate(ground):
        by_width.setdefault(len(cs), []).append(g)
    for w, gs in by_width.items():
        t = n ** w
        tuples = np.indices((n,) * w, np.int8).reshape(w, t).T
        per = max(1, _CHUNK // t)
        for lo in range(0, len(gs), per):
            part = gs[lo:lo + per]
            b = np.arange(len(part) * t)
            # algebra b holds one value tuple in one instance's cells and
            # -1 elsewhere, laid out as the search's values
            cells = np.array([ground[g] for g in part], np.intp).reshape(len(part), w)
            flat = np.full((len(b), n + n * n), -1, np.int8)
            flat[b[:, None], np.repeat(cells, t, axis=0)] = np.tile(tuples, (len(part), 1))
            stacks = (*ops[:2], flat[:, n:].reshape(-1, n, n), flat[:, :n], *ops[4:])
            cols = np.unravel_index(np.repeat(part, t), (n,) * k) if k else ()
            holds = point_truth(prog, stacks, cols, b) == 1
            yield from zip((ground[g] for g in part), holds.reshape(len(part), *(n,) * w))


def _passes(prog, required: bool, ops, n: int) -> bool:
    """A required statement fails nowhere, a forbidden one not everywhere."""
    if required:
        return not any((v == 0).any() for v in grid_truth(prog, ops, n))
    return not all((v == 1).all() for v in grid_truth(prog, ops, n))


def _prepare(spec: SearchSpec, cell_order: str):
    lat = spec.lattice
    n = lat.size
    progs = [compile_statement(s) for s in spec.require + spec.forbid]
    arrow = _padded([[-1] * n] * n, n) if any(p.reads_arrow for p in progs) else None
    neg = [-1] * (n + 1) if any(p.reads_neg for p in progs) else None
    cells = list(range(n)) if neg is not None else []
    if arrow is not None:
        if cell_order == "row-major":
            cells += [n + n * x + y for x in range(n) for y in range(n)]
        elif cell_order == "column-major":
            cells += [n + n * x + y for y in range(n) for x in range(n)]
        else:
            raise InputError(f"unknown cell order {cell_order!r}")
    ops = (_padded(lat.join, n), _padded(lat.meet, n), arrow, neg, lat.bot, lat.top)
    values = [-1] * (n + n * n)
    # the table entry each cell writes: (row, index)
    slot = {c: (neg, c) if c < n else (arrow[(c - n) // n], (c - n) % n) for c in cells}

    # rules: cell tuple -> whether every ground instance reading exactly
    # those cells holds, over their value tuples; the other statements are
    # checked over the grid, each with the cells it may read
    rules: dict[tuple[int, ...], np.ndarray] = {}
    grid = []
    leaf_only = False
    for stmts, required in ((spec.require, True), (spec.forbid, False)):
        for s in stmts:
            prog = compile_statement(s)
            total = n ** prog.width
            if total > _CHUNK:
                leaf_only = True  # left to the leaf
                continue
            reads = table_reads(prog, ops, n)
            ground = _ground(reads, n, total) if required else None
            if ground is not None and n ** max(map(len, ground)) <= _CHUNK:
                for cs, ok in _instance_rules(prog, ops, n, ground):
                    rules[cs] = rules[cs] & ok if cs in rules else ok
            else:
                grid.append((prog, required, _reach(reads, n)))

    # restrict candidates by the one-cell rules, fill every cell left with
    # one candidate and fold its value into the rules that read it, until
    # nothing more is filled
    cands = {c: np.ones(n, bool) for c in cells}
    while True:
        for cs, ok in rules.items():
            if len(cs) == 1:
                cands[cs[0]] &= ok
        fills = {c for c in cells if values[c] < 0 and cands[c].sum() == 1}
        if not fills:
            break
        for c in fills:
            row, i = slot[c]
            row[i] = values[c] = int(cands[c].argmax())
        folded: dict[tuple[int, ...], np.ndarray] = {}
        for cs, ok in rules.items():
            if not fills.isdisjoint(cs):
                ok = ok[tuple(slice(None) if values[c] < 0 else values[c] for c in cs)]
                cs = tuple(c for c in cs if values[c] < 0)
            folded[cs] = folded[cs] & ok if cs in folded else ok
        rules = folded
    feasible = all(ok.any() for ok in [*rules.values(), *cands.values()])

    order = [c for c in cells if values[c] < 0]
    depth_of = {c: d for d, c in enumerate(order)}
    # each rule of two or more cells is looked up once its last cell is assigned
    at_depth = [[] for _ in order]
    for cs, ok in rules.items():
        if len(cs) > 1:
            at_depth[max(map(depth_of.get, cs))].append(
                (itemgetter(*cs), frozenset(map(tuple, np.argwhere(ok).tolist()))))
    # a required statement is checked after each cell it may read, a
    # forbidden one after the last, but never at the last depth, where the
    # leaf check decides; one that reads only filled cells is checked now
    checks = [[] for _ in order]
    links = [[depth_of[c] for c in cs] for cs in rules if len(cs) > 1]
    for prog, required, reach in grid:
        ds = sorted(depth_of[c] for c in reach if c in depth_of)
        if not ds:
            feasible = feasible and _passes(prog, required, ops, n)
        for d in ds if required else ds[-1:]:
            if d < len(order) - 1:
                checks[d].append((prog, required))
        links.append(ds)
    if leaf_only:
        links.append(range(len(order)))

    # the components of the unfilled cells, as ascending depth lists: a rule
    # links its cells, a checked statement the cells it may read, and a
    # statement left to the leaf every cell
    parent = list(range(len(order)))

    def root(d: int) -> int:
        while parent[d] != d:
            parent[d] = d = parent[parent[d]]
        return d

    for ds in links:
        for d in ds[1:]:
            parent[root(d)] = root(ds[0])
    components: dict[int, list[int]] = {}
    for d in range(len(order)):
        components.setdefault(root(d), []).append(d)

    return {
        "lat": lat, "n": n,
        "arrow": arrow, "neg": neg, "values": values, "ops": ops,
        "cells": order, "slots": [slot[c] for c in order],
        "cands": [np.flatnonzero(cands[c]).tolist() for c in order],
        "rules": at_depth, "checks": checks, "feasible": feasible,
        # with no cell to fill, one empty component: its one leaf is checked
        "components": list(components.values()) or [[]],
    }


# Complete leaves verified together: one batch of a 7-element lattice's
# 3-variable grids (343 assignments) fits in one evaluator chunk.
_LEAF_BATCH = 32


def _run(spec: SearchSpec, plan, deadline: float, keep: bool = True):
    """Search the plan's cells; with ``keep`` false only count the
    solutions, and ignore ``max_solutions``."""
    lat, n = plan["lat"], plan["n"]
    arrow, neg, values, ops = plan["arrow"], plan["neg"], plan["values"], plan["ops"]
    cells, slots, cands = plan["cells"], plan["slots"], plan["cands"]
    rules, checks = plan["rules"], plan["checks"]
    # a solution is its (negation, arrow) tables, None where not searched
    sols: list[tuple] = []
    found = 0
    leaves: list[list[int]] = []  # copies of values, not yet verified
    nodes = 0
    limit = spec.max_solutions if keep else None
    leaf_checks = ([(compile_statement(s), True) for s in spec.require]
                   + [(compile_statement(s), False) for s in spec.forbid])
    join_meet = (np.asarray(ops[0]), np.asarray(ops[1]))

    def flush() -> None:
        # each statement passes as in _passes, on padded stacks like ops, so
        # a cell left unknown (by a search over one component) reads as
        # unknown; on complete leaves that is: every required statement
        # holds and every forbidden one fails on the whole grid.  Statements
        # after the first only see survivors
        nonlocal found
        if not leaves:
            return
        flat = np.array(leaves, np.int8)
        leaves.clear()
        b = len(flat)
        negs = arrows = None
        if neg is not None:
            negs = np.full((b, n + 1), -1, np.int8)
            negs[:, :n] = flat[:, :n]
        if arrow is not None:
            arrows = np.full((b, n + 1, n + 1), -1, np.int8)
            arrows[:, :n, :n] = flat[:, n:].reshape(b, n, n)
        stack = (*join_meet, arrows, negs, lat.bot, lat.top)
        alive = np.arange(b)
        for prog, required in leaf_checks:
            alive = alive[stack_holds(prog, stack, n, alive, required) == required]
        found += len(alive)
        if keep:
            k = len(alive)
            n_tabs = map(tuple, negs[alive, :n].tolist()) if neg is not None else [None] * k
            a_tabs = ([tuple(map(tuple, t)) for t in arrows[alive, :n, :n].tolist()]
                      if arrow is not None else [None] * k)
            sols.extend(zip(n_tabs, a_tabs))
        if limit is not None and found >= limit:
            raise _Limit

    def emit() -> None:
        leaves.append(values[:])
        # never buffer past the limit: the leaf reaching it ends a batch,
        # so the search stops at the same node as a leaf-by-leaf check
        if len(leaves) >= (_LEAF_BATCH if limit is None
                           else min(_LEAF_BATCH, limit - found)):
            flush()

    def rec(d: int) -> None:
        nonlocal nodes
        if d < 2 and time.monotonic() > deadline:
            raise _TimeUp
        if d == len(cells):
            emit()
            return
        cell, (row, i), looked_up, checked = cells[d], slots[d], rules[d], checks[d]
        for v in cands[d]:
            nodes += 1
            if nodes % 2048 == 0 and time.monotonic() > deadline:
                raise _TimeUp
            row[i] = values[cell] = v
            if (all(get(values) in allowed for get, allowed in looked_up)
                    and all(_passes(prog, required, ops, n)
                            for prog, required in checked)):
                rec(d + 1)
        row[i] = values[cell] = -1

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
    return sols, found, nodes, timed_out, limited


def _shard_worker(payload):
    # the deadline is absolute: CLOCK_MONOTONIC is shared by the processes
    # of one machine, so every shard stops when the whole search's budget ends
    spec, cell_order, value, deadline = payload
    plan = _prepare(spec, cell_order)
    plan["cands"][0] = [value]
    return _run(spec, plan, deadline)


def enumerate_algebras(spec: SearchSpec, cell_order: str = "row-major",
                       jobs: int = 1) -> SearchResult:
    """All completions of the lattice satisfying the spec, as tables.

    The tables are sorted by (negation, arrow) content, and the result's
    ``solutions`` names them ``<lattice>#<index>``; the output is
    therefore identical for every cell order and shard count, which the
    tests exploit.  Under ``jobs`` > 1 each candidate of the first cell is
    one shard in a process pool; an infeasible plan searches nothing.
    """
    t0 = time.monotonic()
    plan = _prepare(spec, cell_order)
    deadline = t0 + (spec.timeout if spec.timeout is not None
                     else default_timeout())
    parts = []
    if plan["feasible"] and jobs > 1 and plan["cells"]:
        first = plan["cands"][0]
        with ProcessPoolExecutor(max_workers=min(jobs, len(first))) as pool:
            parts = list(pool.map(_shard_worker,
                                  [(spec, cell_order, v, deadline) for v in first]))
    elif plan["feasible"]:
        parts = [_run(spec, plan, deadline)]

    sols: list[tuple] = []
    nodes, timed_out, limited = 0, False, False
    for s, _, k, t, l in parts:
        sols.extend(s)
        nodes += k
        timed_out |= t
        limited |= l
    if spec.max_solutions is not None and len(sols) > spec.max_solutions:
        sols = sols[:spec.max_solutions]
        limited = True
    sols.sort(key=lambda t: (t[0] or (), t[1] or ()))
    reason = "limit" if limited else "timeout" if timed_out else "exhausted"
    return SearchResult(spec, tuple(sols), reason == "exhausted", reason, nodes,
                        time.monotonic() - t0)


@dataclass(frozen=True)
class CountResult:
    spec: SearchSpec
    count: int  # exact only when complete
    complete: bool
    nodes: int
    elapsed: float


def count_algebras(spec: SearchSpec) -> CountResult:
    """The number of completions of the lattice satisfying the spec,
    without listing them.

    The unfilled cells fall into the connected components of ``_prepare``:
    no statement reads cells of two of them, so the count is the product
    of the components' counts (counting by connected components, after
    Bayardo and Pehoushek).  Each component is searched by ``_run`` on its
    own cells, the others left unknown, and its leaves are re-verified as
    every leaf is.  The search stops at a component without solutions or
    when the budget runs out; ``max_solutions`` is ignored.
    """
    t0 = time.monotonic()
    plan = _prepare(spec, "row-major")
    deadline = t0 + (spec.timeout if spec.timeout is not None
                     else default_timeout())
    count, nodes, complete = int(plan["feasible"]), 0, True
    for depths in plan["components"]:
        if not count:
            break
        part = {key: [plan[key][d] for d in depths]
                for key in ("cells", "slots", "cands", "rules", "checks")}
        _, found, k, timed_out, _ = _run(spec, {**plan, **part}, deadline, keep=False)
        count *= found
        nodes += k
        if timed_out:
            complete = False
            break
    return CountResult(spec, count, complete, nodes, time.monotonic() - t0)


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
    """The least (join, meet) table pair over all relabellings."""
    n = a.size

    def relabel(p):  # element x becomes p[x]
        inv = sorted(range(n), key=p.__getitem__)
        return tuple(tuple(tuple(p[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
                     for t in (a.join, a.meet))

    return min(map(relabel, permutations(range(n))))


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
    screened: int  # algebras of the joint SH, DQD, DM, L1, R search
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

    For each bounded distributive lattice up to isomorphism, count the
    arrows satisfying SH (``count_algebras``, no list) and search the
    negations satisfying DQD + DM, then, where there is a negation, the
    algebras satisfying SH, DQD, DM, L1 and R in one joint search, and
    test St on all of them in one batch.  A violator is named
    ``<lattice>#a<i>n<j>`` by the indices of its arrow and negation in the
    two separate solution lists; the SH arrows are listed only on a
    lattice with a violator, and if that listing runs out of time the
    scan is incomplete and the lattice's violators are not reported.
    ``timeout`` (default SHW_TIMEOUT) bounds the whole scan.
    """
    if not 2 <= max_size <= 6:
        raise InputError(f"the Stone scan's max_size must be between 2 and 6, "
                         f"got {max_size}")
    deadline = time.monotonic() + (timeout if timeout is not None else default_timeout())

    def spec(lat, require):
        return build_spec(lat, require, timeout=max(0.0, deadline - time.monotonic()))

    def search(lat, require):
        result = enumerate_algebras(spec(lat, require))
        return result.tables, result.complete

    st = compile_statement(get_suite("St").items[0])
    tallies = []
    complete = True
    for lat in bounded_distributive_lattices(max_size):
        n = lat.size
        arrows = count_algebras(spec(lat, ("SH",)))
        negs, negs_done = search(lat, ("DQD", "DM"))
        joint, joint_done = (search(lat, ("SH", "DQD", "DM", "L1", "R"))
                             if negs else ((), True))
        complete &= arrows.complete and negs_done and joint_done
        ops = (np.asarray(lat.join), np.asarray(lat.meet),
               np.array([a for _, a in joint], np.int8).reshape(-1, n, n),
               np.array([m for m, _ in joint], np.int8).reshape(-1, n),
               lat.bot, lat.top)
        fails = ~stack_holds(st, ops, n, np.arange(len(joint)))
        violations = ()
        if fails.any():
            listed, listed_done = search(lat, ("SH",))
            complete &= listed_done
            if listed_done:
                bad = sorted((listed.index((None, a)), negs.index((m, None)))
                             for (m, a), f in zip(joint, fails) if f)
                violations = tuple(FiniteAlgebra(f"{lat.name}#a{i}n{j}", lat.elements,
                                                 lat.join, lat.meet, listed[i][1],
                                                 negs[j][0], lat.bot, lat.top)
                                   for i, j in bad)
        tallies.append(LatticeTally(lat.name, lat.size, arrows.count,
                                    len(negs), len(joint), violations))
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
    column-major; the first solution in that order is the archived one.
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
