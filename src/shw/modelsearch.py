"""Bounded search for algebras living on a fixed lattice.

A partial algebra is one flat list of values, -1 where unknown: negation
cell x is x, arrow cell (x, y) is n + n * x + y.  The negation cells come
first, when a statement reads ', then the arrow cells in row-major (or
column-major) order.  ``_stacks`` pads rows of values into the
evaluator's tables with a row and column of -1, so reading an unknown
value gives an undetermined verdict, not a wrong one.

``_prepare`` reads one plan off the compiled statements, not their
spelling.  ``equations.table_reads`` gives the cells a statement reads
at every assignment.  A required statement whose instances each read
fixed cells, with at most one chunk of value tuples, is ground
(``equations.point_truth`` decides each instance): its instances over
one cell restrict candidates, a cell left with one is filled (the
diagonal of x -> x = 1, 0' and 1' from DQD), and those over the same
several cells form one rule, kept raw as the cells and a bool array over
their value tuples.  Every other statement is checked over the grid with
``equations.grid_truth``, with the cells it may read; one whose grid
exceeds a chunk is left to the leaf.  What a statement becomes is
derived once per lattice object and kept on it (``_derivation``), so the
searches on one lattice share it.

A run (``_run``) files the plan at the depths of its own cells and walks
them in one loop.  A rule becomes a table at the depth of its last cell,
from the values of its other cells to the bitmask of the values the last
cell may take.  A node ANDs its tables once, before its candidates
(forward checking, after Haralick and Elliott), and tries only those
allowed; the node count advances by candidate positions, so a candidate
ruled out still counts as a node.  A required statement is
checked after each cell it may read, a forbidden one after the last, but
not at the run's last cell: every leaf is re-verified against every
statement, in batches of ``_LEAF_BATCH`` stacked tables with
``equations.stack_holds``, and the leaf that reaches the limit ends a
batch, so the search stops at the same node as a leaf-by-leaf check.
The leaves that pass are kept as one int8 array of rows, -1 in the cells
not searched, and the result sorts them by content, so the output is
independent of the cell order; a result builds them as algebras only
when its ``solutions`` are first read.

Under ``jobs`` > 1 each shard is a run of the plan with its first cell
pinned to one value.  ``count_algebras`` lists nothing: it runs the plan
restricted (``_restrict``) to each of its connected components
(``_components``), the other cells unknown, and multiplies the counts.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import permutations, repeat
from operator import itemgetter

import numpy as np

from . import catalog
from .algebra import FiniteAlgebra, validate_lattice
from .equations import (_CHUNK, Program, Statement, _kept, _ops, compile_statement,
                        get_suite, grid_truth, point_truth, stack_holds, table_reads)
from .errors import InputError, StructuralError
from .terms import parse_statement


def parse_seconds(raw: str | float, name: str) -> float:
    """A non-negative number of seconds; ``name`` labels the error."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
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
        report = _lattice_report(self.lattice)
        if not report.ok:
            raise StructuralError(
                f"{self.lattice.name}: not a bounded distributive lattice "
                f"({report.failures[0].law})")
        if self.max_solutions is not None and self.max_solutions < 1:
            raise InputError("max_solutions must be positive")
        if self.timeout is not None:
            object.__setattr__(self, "timeout", parse_seconds(self.timeout, "timeout"))


@_kept
def _lattice_report(lat: FiniteAlgebra):
    """``validate_lattice(lat)``, run once and kept on the lattice."""
    return validate_lattice(lat)


def lattice_reduct(a: FiniteAlgebra) -> FiniteAlgebra:
    """``a`` without arrow and negation.  A bare lattice comes back as it
    is, so its searches share what is kept on it: its validation and its
    statements' derivations (see ``_derivation``)."""
    if not (a.has_arrow or a.has_neg):
        return a
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
    """The solutions a search found, as rows, and how it stopped."""

    spec: SearchSpec
    # one read-only int8 row of n + n * n values per solution, laid out as
    # a partial algebra (-1 in the cells not searched), in increasing order
    rows: np.ndarray = field(compare=False, repr=False)
    complete: bool
    reason: str  # "exhausted" | "timeout" | "limit"
    nodes: int
    elapsed: float

    @cached_property
    def solutions(self) -> tuple[FiniteAlgebra, ...]:
        """Each row as an algebra named ``<lattice>#<index>``, a table not
        searched None, built on first read (``cached_property`` writes the
        instance ``__dict__``, which a frozen dataclass leaves open)."""
        lat = self.spec.lattice
        n = lat.size
        return tuple(replace(lat, name=f"{lat.name}#{i}",
                             neg=tuple(row[:n]) if row[0] >= 0 else None,
                             arrow=(tuple(tuple(row[x:x + n]) for x in range(n, n + n * n, n))
                                    if row[n] >= 0 else None))
                     for i, row in enumerate(self.rows.tolist()))


# -- the searcher -----------------------------------------------------------

class _TimeUp(Exception):
    pass


class _Limit(Exception):
    pass


def _stacks(lat: FiniteAlgebra, values) -> tuple:
    """The evaluator's ops (join, meet, arrow, neg, bot, top): tables for
    one list of values, stacks for a 2-D array of rows of them (see
    ``equations.grid_truth``).  Every table has an extra row and column of
    -1, which numpy reads at index -1, so an unknown value stays unknown."""
    n = lat.size
    flat = np.asarray(values, np.int8)
    lead = flat.shape[:-1]
    join_meet = np.full((2, n + 1, n + 1), -1, np.intp)
    join_meet[:, :n, :n] = _ops(lat)[:2]
    rows = np.full((*lead, n + 2, n + 1), -1, np.int8)
    rows[..., :n + 1, :n] = flat.reshape(*lead, n + 1, n)
    return _as_ops(lat, rows, join_meet)


def _as_ops(lat: FiniteAlgebra, rows, join_meet) -> tuple:
    """The evaluator's ops on values read as n + 1 rows of n, padded or not:
    the negation in row 0 and arrow row x in row x + 1."""
    return (*join_meet, rows[..., 1:, :], rows[..., 0, :], lat.bot, lat.top)


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


def _instance_rules(prog, lat: FiniteAlgebra, ground):
    """Each ground instance's cells with a bool array over their value
    tuples, of shape (n,) * width (read-only): whether the instance holds.
    One batched evaluator call per width, at most one chunk of algebras at
    a time."""
    n, k = lat.size, prog.width
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
            # -1 elsewhere
            cells = np.array([ground[g] for g in part], np.intp).reshape(len(part), w)
            flat = np.full((len(b), n + n * n), -1, np.int8)
            flat[b[:, None], np.repeat(cells, t, axis=0)] = np.tile(tuples, (len(part), 1))
            cols = np.unravel_index(np.repeat(part, t), (n,) * k) if k else ()
            # unpadded: an instance reads only its own cells, none unknown
            ops = _as_ops(lat, flat.reshape(-1, n + 1, n), _ops(lat)[:2])
            holds = (point_truth(prog, ops, cols, b) == 1).reshape(len(part), *(n,) * w)
            holds.flags.writeable = False
            yield from zip((ground[g] for g in part), holds)


def _rule_table(cells: tuple[int, ...], ok: np.ndarray, last: int):
    """A rule over several cells as a table read once per search node: a
    getter over its cells but ``cells[last]``, and a dict from their values
    (one value, or a tuple of them, as the getter returns) to the int
    bitmask of the values ``cells[last]`` may take beside them, bit v for
    value v.  A missing key reads as 0, which allows none."""
    allowed: dict = {}
    for t in np.argwhere(ok).tolist():
        v = t.pop(last)
        key = t[0] if len(t) == 1 else tuple(t)
        allowed[key] = allowed.get(key, 0) | 1 << v
    return itemgetter(*cells[:last], *cells[last + 1:]), allowed


def _tries(cands: tuple[int, ...], allowed: int) -> tuple[tuple[int, int], ...]:
    """The candidates in ``allowed``, in order, as (value, step), then (-1,
    step): a step is a candidate's 1-based position in ``cands`` less that
    of the one before it (0 before the first), and the last step reaches
    ``len(cands)``.  The walk adds each step to the node count, so a
    candidate ruled out still counts as a node."""
    out, at = [], 0
    for i, v in enumerate(cands, 1):
        if allowed >> v & 1:
            out.append((v, i - at))
            at = i
    out.append((-1, len(cands) - at))
    return tuple(out)


def _passes(prog, required: bool, ops, n: int) -> bool:
    """A required statement fails nowhere, a forbidden one not everywhere."""
    if required:
        return not any((v == 0).any() for v in grid_truth(prog, ops, n))
    return not all((v == 1).all() for v in grid_truth(prog, ops, n))


@dataclass(frozen=True, eq=False)
class _Plan:
    """The filled values (-1 elsewhere), the open ``cells`` in search order
    and the ``cands`` of each, the rules of two or more cells as (cells,
    ok), the grid ``checks`` as (program, required, reach), and whether
    some statement is left to the leaf."""

    lat: FiniteAlgebra
    values: tuple[int, ...]
    cells: tuple[int, ...]
    cands: dict[int, tuple[int, ...]]
    rules: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    checks: tuple[tuple[Program, bool, frozenset[int]], ...]
    leaf_only: bool
    feasible: bool


@_kept
def _derivations(lat: FiniteAlgebra) -> dict:
    """The store of ``_derivation``, kept on the lattice."""
    return {}


def _derivation(lat: FiniteAlgebra, prog: Program, required: bool):
    """What ``_prepare`` makes of one statement on the lattice: None when
    it is left to the leaf, its ground rules as a tuple of (cells, ok), or
    its grid check (program, required, reach).  Derived once per lattice
    object, kept in a store on it keyed by (program, required), and
    shared by every search on it, so the arrays are read-only."""
    store = _derivations(lat)
    key = (prog, required)
    if key in store:
        return store[key]
    n = lat.size
    total = n ** prog.width
    derived = None
    if total <= _CHUNK:
        reads = table_reads(prog, _stacks(lat, [-1] * (n + n * n)), n)
        ground = _ground(reads, n, total) if required else None
        if ground is not None and n ** max(map(len, ground)) <= _CHUNK:
            derived = tuple(_instance_rules(prog, lat, ground))
        else:
            derived = (prog, required, frozenset(_reach(reads, n)))
    store[key] = derived
    return derived


def _prepare(spec: SearchSpec, cell_order: str) -> _Plan:
    lat = spec.lattice
    n = lat.size
    progs = [compile_statement(s) for s in spec.require + spec.forbid]
    cells = list(range(n)) if any(p.reads_neg for p in progs) else []
    if any(p.reads_arrow for p in progs):
        if cell_order == "row-major":
            cells += [n + n * x + y for x in range(n) for y in range(n)]
        elif cell_order == "column-major":
            cells += [n + n * x + y for y in range(n) for x in range(n)]
        else:
            raise InputError(f"unknown cell order {cell_order!r}")
    values = [-1] * (n + n * n)

    # rules: cell tuple -> whether every ground instance reading exactly
    # those cells holds, over their value tuples; the other statements are
    # checked over the grid, each with the cells it may read
    rules: dict[tuple[int, ...], np.ndarray] = {}
    grid = []
    leaf_only = False
    for stmts, required in ((spec.require, True), (spec.forbid, False)):
        for s in stmts:
            derived = _derivation(lat, compile_statement(s), required)
            if derived is None:
                leaf_only = True
            elif isinstance(derived[0], Program):
                grid.append(derived)
            else:
                for cs, ok in derived:
                    rules[cs] = rules[cs] & ok if cs in rules else ok

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
            values[c] = int(cands[c].argmax())
        folded: dict[tuple[int, ...], np.ndarray] = {}
        for cs, ok in rules.items():
            if not fills.isdisjoint(cs):
                ok = ok[tuple(slice(None) if values[c] < 0 else values[c] for c in cs)]
                cs = tuple(c for c in cs if values[c] < 0)
            folded[cs] = folded[cs] & ok if cs in folded else ok
        rules = folded
    order = tuple(c for c in cells if values[c] < 0)
    # infeasible, too, when a statement is both required and forbidden or
    # a checked one that reads only filled cells fails now
    feasible = (all(ok.any() for ok in [*rules.values(), *cands.values()])
                and set(spec.require).isdisjoint(spec.forbid)
                and all(_passes(prog, required, _stacks(lat, values), n)
                        for prog, required, reach in grid if reach.isdisjoint(order)))
    return _Plan(lat, tuple(values), order,
                 {c: tuple(np.flatnonzero(cands[c]).tolist()) for c in order},
                 tuple((cs, ok) for cs, ok in rules.items() if len(cs) > 1),
                 tuple(grid), leaf_only, feasible)


def _components(plan: _Plan) -> list[list[int]]:
    """The connected components of the plan's open cells, each in search
    order: a rule links its cells, a checked statement the open cells it
    may read, and a statement left to the leaf every cell.  With no open
    cell, one empty component: its one leaf is checked."""
    group = {c: {c} for c in plan.cells}
    links = [cs for cs, _ in plan.rules] + [reach for _, _, reach in plan.checks]
    for cs in links + [plan.cells] * plan.leaf_only:
        merged = set().union(*(group[c] for c in cs if c in group))
        for c in merged:
            group[c] = merged
    components: dict[int, list[int]] = {}
    for c in plan.cells:
        components.setdefault(min(group[c]), []).append(c)
    return list(components.values()) or [[]]


def _restrict(plan: _Plan, cells: list[int]) -> _Plan:
    """The plan on some of its open cells, kept in its order, with the rules
    and checks that read them; its other open cells stay unknown."""
    keep = set(cells)
    return replace(plan, cells=tuple(cells),
                   rules=tuple(r for r in plan.rules if not keep.isdisjoint(r[0])),
                   checks=tuple(c for c in plan.checks if not keep.isdisjoint(c[2])))


# Complete leaves verified together.  ``stack_holds`` slices a batch to
# its chunk anyway; a larger batch shares more of the per-flush work (the
# padding, the table selects, the slots every algebra shares), and the
# double-diamond searches stop getting faster at 256.
_LEAF_BATCH = 256


def _run(spec: SearchSpec, plan: _Plan, deadline: float, keep: bool = True):
    """Search the plan's cells; with ``keep`` false only count the
    solutions, and ignore ``max_solutions``.

    The walk is one loop over depths.  Entering a node, it ANDs the masks
    its rule tables give for the values above it with the mask of its
    candidates, once, and tries only the allowed candidates (``_tries``,
    kept per depth and mask); the node count advances by their positions,
    so a candidate ruled out still counts as a node.  The deadline is
    checked on entering depth 0 or 1 and whenever the count crosses a
    multiple of 2,048."""
    lat, n, cells = plan.lat, plan.lat.size, plan.cells
    leaf = len(cells)
    cands = [plan.cands[c] for c in cells]
    values = list(plan.values)
    # a rule is read at the depth of its last cell; a required statement is
    # checked after each cell it may read, a forbidden one after the last,
    # but never at the last depth, where the leaf check decides
    depth_of = {c: d for d, c in enumerate(cells)}
    rules: list[list] = [[] for _ in cells]
    for cs, ok in plan.rules:
        ds = [depth_of[c] for c in cs]
        last = ds.index(max(ds))
        rules[ds[last]].append(_rule_table(cs, ok, last))
    checks: list[list] = [[] for _ in cells]
    for prog, required, reach in plan.checks:
        ds = sorted(depth_of[c] for c in reach if c in depth_of)
        for d in ds if required else ds[-1:]:
            if d < leaf - 1:
                checks[d].append((prog, required))
    sols: list[np.ndarray] = []  # the rows of the leaves that passed
    found = 0
    leaves: list[list[int]] = []  # copies of values, not yet verified
    nodes = 0
    limit = spec.max_solutions if keep else None
    leaf_checks = ([(compile_statement(s), True) for s in spec.require]
                   + [(compile_statement(s), False) for s in spec.forbid])
    full = [sum(1 << v for v in vs) for vs in cands]
    memo: list[dict] = [{} for _ in cells]  # per depth: allowed mask -> _tries
    tries: list = [None] * leaf  # per depth: the open node's cursor

    def flush() -> None:
        # each statement passes as in _passes, so a cell left unknown (by a
        # search over one component) reads as unknown; on complete leaves
        # that is: every required statement holds and every forbidden one
        # fails on the whole grid.  Statements after the first only see
        # survivors
        nonlocal found
        if not leaves:
            return
        flat = np.array(leaves, np.int8)
        leaves.clear()
        stack = _stacks(lat, flat)
        alive = np.arange(len(flat))
        for prog, required in leaf_checks:
            alive = alive[stack_holds(prog, stack, n, alive, required) == required]
        found += len(alive)
        if keep:
            sols.append(flat[alive])
        if limit is not None and found >= limit:
            raise _Limit

    timed_out = limited = False
    d = 0
    try:
        while d >= 0:  # enter a node at depth d
            if d < 2 and time.monotonic() > deadline:
                raise _TimeUp
            if d == leaf:
                leaves.append(values[:])
                # never buffer past the limit: the leaf reaching it ends a
                # batch, so the search stops at the same node as a
                # leaf-by-leaf check
                if len(leaves) >= (_LEAF_BATCH if limit is None
                                   else min(_LEAF_BATCH, limit - found)):
                    flush()
                d -= 1
            else:
                allowed = full[d]
                for get, table in rules[d]:
                    allowed &= table.get(get(values), 0)
                todo = memo[d].get(allowed)
                if todo is None:
                    todo = memo[d][allowed] = _tries(cands[d], allowed)
                tries[d] = iter(todo)
            # the next candidate of the node at depth d: descend into it,
            # or past the last (-1, which clears the cell) back up
            while d >= 0:
                cell, checked = cells[d], checks[d]
                for v, step in tries[d]:
                    nodes += step
                    # the count crossed a multiple of 2,048 (a step is less)
                    if nodes & 2047 < step and time.monotonic() > deadline:
                        raise _TimeUp
                    values[cell] = v
                    if v < 0 or not checked:
                        break
                    ops = _stacks(lat, values)
                    if all(_passes(prog, required, ops, n) for prog, required in checked):
                        break
                if v >= 0:
                    d += 1
                    break
                d -= 1
        flush()
    except _TimeUp:
        timed_out = True
        flush()  # below the limit by construction, so it cannot raise
    except _Limit:
        limited = True
    return sols, found, nodes, timed_out, limited


def enumerate_algebras(spec: SearchSpec, cell_order: str = "row-major",
                       jobs: int = 1) -> SearchResult:
    """All completions of the lattice satisfying the spec, as rows.

    The runs' rows, the shards' in shard order, are cut to
    ``max_solutions`` and sorted by content, which is (negation, arrow)
    order, since a cell not searched holds -1 in every row; the result's
    ``solutions`` names them ``<lattice>#<index>``.  The output is
    therefore identical for every cell order and shard count, which the
    tests exploit.  Under ``jobs`` > 1 each candidate of the first cell is
    one shard in a process pool; an infeasible plan searches nothing.
    """
    t0 = time.monotonic()
    plan = _prepare(spec, cell_order)
    deadline = t0 + (default_timeout() if spec.timeout is None else spec.timeout)
    parts = []
    if plan.feasible and jobs > 1 and plan.cells:
        # the deadline is absolute: CLOCK_MONOTONIC is shared by the
        # processes of one machine, so every shard stops when the budget ends
        # imported here: it loads multiprocessing, which only a sharded
        # search needs
        from concurrent.futures import ProcessPoolExecutor

        first = plan.cells[0]
        shards = [replace(plan, cands={**plan.cands, first: (v,)}) for v in plan.cands[first]]
        with ProcessPoolExecutor(max_workers=min(jobs, len(shards))) as pool:
            parts = list(pool.map(_run, repeat(spec), shards, repeat(deadline)))
    elif plan.feasible:
        parts = [_run(spec, plan, deadline)]

    n = spec.lattice.size
    rows = np.concatenate([np.empty((0, n + n * n), np.int8),
                           *(a for part in parts for a in part[0])])
    nodes = sum(part[2] for part in parts)
    timed_out = any(part[3] for part in parts)
    limited = any(part[4] for part in parts)
    if spec.max_solutions is not None and len(rows) > spec.max_solutions:
        rows = rows[:spec.max_solutions]
        limited = True
    rows = rows[np.lexsort(rows.T[::-1])]
    rows.flags.writeable = False
    reason = "limit" if limited else "timeout" if timed_out else "exhausted"
    return SearchResult(spec, rows, reason == "exhausted", reason, nodes,
                        time.monotonic() - t0)


@dataclass(frozen=True)
class CountResult:
    """The number of solutions a search counted, and whether it finished."""

    spec: SearchSpec
    count: int  # exact only when complete
    complete: bool
    nodes: int
    elapsed: float


def count_algebras(spec: SearchSpec) -> CountResult:
    """The number of completions of the lattice satisfying the spec,
    without listing them.

    No rule or checked statement of the plan reads cells of two of its
    connected components (``_components``), so the count is the product of
    the components' counts (after Bayardo and Pehoushek).  Each component
    is a run of the plan restricted to its cells, the others unknown: the
    plan keeps each rule raw, the run files it at the depth of its last
    cell, and its leaves are re-verified as every leaf is.  The search
    stops at a component without solutions or when the budget runs out;
    ``max_solutions`` is ignored.
    """
    t0 = time.monotonic()
    plan = _prepare(spec, "row-major")
    deadline = t0 + (default_timeout() if spec.timeout is None else spec.timeout)
    count, nodes, complete = int(plan.feasible), 0, True
    for cells in _components(plan):
        if not count:
            break
        _, found, k, timed_out, _ = _run(spec, _restrict(plan, cells), deadline, keep=False)
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
    """The least (join, meet) table pair over all relabellings.  Only the
    (n - 1)! that label the top 0 are tried: the least join table has the
    all-zero row 0, and the join row of an element holds the top's label
    (x v 1 = 1), so row 0 is all zero only when the top is labelled 0."""
    n, top = a.size, a.top

    def relabel(rest):  # element x becomes p[x], the top 0
        p = (*rest[:top], 0, *rest[top:])
        inv = sorted(range(n), key=p.__getitem__)
        return tuple(tuple(tuple(p[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
                     for t in (a.join, a.meet))

    return min(map(relabel, permutations(range(1, n))))


def bounded_distributive_lattices(max_size: int) -> tuple[FiniteAlgebra, ...]:
    """All bounded distributive lattices of size 2..max_size, one per
    isomorphism class, as downset lattices of small strict orders."""
    if not 2 <= max_size <= 6:
        raise InputError(f"max_size must be between 2 and 6, got {max_size}")
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
        out.append(replace(lat, name=f"lat{lat.size}.{i}"))
    return tuple(sorted(out, key=lambda a: (a.size, a.name)))


# -- the Stone property at small sizes --------------------------------------

@dataclass(frozen=True)
class LatticeTally:
    """The Stone scan's counts on one lattice, and the algebras that fail St."""

    lattice: str
    size: int
    arrows: int
    negations: int
    screened: int  # algebras of the joint SH, DQD, DM, L1, R search
    violations: tuple[FiniteAlgebra, ...]


@dataclass(frozen=True)
class StoneScan:
    """The Stone scan's tallies for every lattice up to ``max_size``."""

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
    test St on its rows in one batch.  A violator is a row of the joint
    search that fails St, named ``<lattice>#<index>`` in row order like
    every search solution.
    ``timeout`` (default SHW_TIMEOUT) bounds the whole scan.
    """
    deadline = time.monotonic() + (default_timeout() if timeout is None
                                   else parse_seconds(timeout, "timeout"))

    def spec(lat, require):
        return build_spec(lat, require, timeout=max(0.0, deadline - time.monotonic()))

    def search(lat, require):
        return enumerate_algebras(spec(lat, require))

    st = compile_statement(get_suite("St").items[0])
    tallies = []
    complete = True
    for lat in bounded_distributive_lattices(max_size):
        arrows = count_algebras(spec(lat, ("SH",)))
        negs = search(lat, ("DQD", "DM"))
        # without a negation there is nothing to screen: the empty negs stand in
        joint = search(lat, ("SH", "DQD", "DM", "L1", "R")) if len(negs.rows) else negs
        complete &= arrows.complete and negs.complete and joint.complete
        k = len(joint.rows)
        fails = ~stack_holds(st, _stacks(lat, joint.rows), lat.size, np.arange(k))
        tallies.append(LatticeTally(lat.name, lat.size, arrows.count, len(negs.rows), k,
                                    tuple(joint.solutions[i] for i in np.flatnonzero(fails))))
    return StoneScan(max_size, tuple(tallies), complete)


# -- the level-2 counterexample hunt ----------------------------------------

@dataclass(frozen=True)
class StoneOutcome:
    """The level-2 hunt's verdict, its counterexample if found, and the search."""

    status: str  # "found" | "none" | "inconclusive"
    algebra: FiniteAlgebra | None
    result: SearchResult


def find_stone_counterexample_level2(lattice: FiniteAlgebra | None = None,
                                     timeout: float | None = None) -> StoneOutcome:
    """First algebra on the lattice with SH + DQD + DM + L2 + R but not St.

    Defaults to the seven-element double diamond.  The search runs
    column-major; the first solution in that order is the archived one.
    """
    if lattice is None:
        lattice = catalog.double_diamond()
    spec = build_spec(lattice, ("SH", "DQD", "DM", "L2", "R"), ("St",),
                      max_solutions=1, timeout=timeout)
    result = enumerate_algebras(spec, cell_order="column-major")
    if result.solutions:
        return StoneOutcome("found", result.solutions[0], result)
    if result.complete:
        return StoneOutcome("none", None, result)
    return StoneOutcome("inconclusive", None, result)
