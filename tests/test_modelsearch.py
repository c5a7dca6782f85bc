from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from itertools import permutations, product
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

from shw import catalog, equations, modelsearch
from shw.algebra import FiniteAlgebra, from_json_dict, to_json_dict, validate_lattice
from shw.cli import run
from shw.equations import (Program, Suite, compile_statement, get_suite, satisfies,
                           satisfies_suite, stack_holds, table_reads, truth)
from shw.errors import InputError, StructuralError
from shw.modelsearch import (
    SearchSpec,
    _components,
    _prepare,
    _restrict,
    _reach,
    _stacks,
    bounded_distributive_lattices,
    build_spec,
    count_algebras,
    default_timeout,
    enumerate_algebras,
    exhaustive_stone_check,
    find_stone_counterexample_level2,
    lattice_reduct,
)
from shw.terms import Atom, Identity, QuasiIdentity, eval_term, parse_statement
from test_terms import random_term

GOLDEN = Path(__file__).parent / "golden" / "search"


def _chain3():
    return lattice_reduct(catalog.get("L1dm"))


def _neg_arrow(r) -> tuple:
    """The (negation, arrow) tables of a search's solutions."""
    return tuple((s.neg, s.arrow) for s in r.solutions)


def test_two_chain_regeneration():
    spec = build_spec(lattice_reduct(catalog.get("2e")), ("SH",))
    r = enumerate_algebras(spec)
    assert r.complete and r.reason == "exhausted"
    assert sorted(s.arrow for s in r.solutions) == sorted(
        [catalog.get("2e").arrow, catalog.get("2bare").arrow])
    assert [s.name for s in r.solutions] == ["2e#0", "2e#1"]


def test_three_chain_regeneration_bit_for_bit():
    r = enumerate_algebras(build_spec(_chain3(), ("SH",)))
    assert len(r.solutions) == 10
    assert sorted(s.arrow for s in r.solutions) == sorted(
        catalog.get(f"L{i}dm").arrow for i in range(1, 11))


def test_cell_order_and_sharding_insensitive():
    spec = build_spec(_chain3(), ("SH",))
    rows = enumerate_algebras(spec)
    cols = enumerate_algebras(spec, cell_order="column-major")
    shards = enumerate_algebras(spec, jobs=3)
    expect = [(s.name, s.arrow) for s in rows.solutions]
    assert [(s.name, s.arrow) for s in cols.solutions] == expect
    assert [(s.name, s.arrow) for s in shards.solutions] == expect
    assert np.array_equal(cols.rows, rows.rows) and np.array_equal(shards.rows, rows.rows)


def test_solutions_are_built_on_first_read(monkeypatch):
    spec = build_spec(_chain3(), ("SH",))
    built = []
    init = FiniteAlgebra.__post_init__

    def counted(self):
        built.append(self.name)
        init(self)

    monkeypatch.setattr(FiniteAlgebra, "__post_init__", counted)
    r = enumerate_algebras(spec)
    assert built == [] and len(r.rows) == 10
    first = r.solutions
    assert built == [f"L1dm#{i}" for i in range(10)]
    assert r.solutions is first and len(built) == 10


@pytest.mark.parametrize("require,forbid,neg,arrow", [
    ("SH", "", False, True), ("DQD,DM", "", True, False),
    ("SH,DQD,DM,L2,R", "St", True, True)])
def test_rows_are_sorted_read_only_and_unknown_where_not_searched(require, forbid,
                                                                  neg, arrow):
    dd = catalog.double_diamond()
    n = dd.size
    spec = build_spec(dd, require.split(","), forbid.split(",") if forbid else (),
                      max_solutions=300)
    r = enumerate_algebras(spec)
    rows = r.rows
    assert rows.dtype == np.int8 and rows.shape[1] == n + n * n and len(rows) > 1
    as_lists = rows.tolist()
    assert all(a < b for a, b in zip(as_lists, as_lists[1:]))  # lexsort order
    assert (np.lexsort(rows.T[::-1]) == np.arange(len(rows))).all()
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    # -1 exactly in the cells not searched, which a solution never holds
    assert ((rows[:, :n] < 0) == (not neg)).all()
    assert ((rows[:, n:] < 0) == (not arrow)).all()
    assert _neg_arrow(r) == tuple(
        (tuple(row[:n]) if neg else None,
         tuple(tuple(row[n + n * x:2 * n + n * x]) for x in range(n)) if arrow else None)
        for row in as_lists)
    assert [s.name for s in r.solutions] == [f"double-diamond#{i}" for i in range(len(rows))]
    # the array takes no part in comparing or hashing a result
    assert r == replace(r, rows=rows[:0]) and hash(r) == hash(replace(r, rows=rows[:0]))



def test_a_search_of_neither_table_reads_one_solution_without_tables():
    # no statement: the lattice itself is the one solution, and its one row
    # of -1 reads as one pair of absent tables
    r = enumerate_algebras(build_spec(catalog.get("2"), (), ()))
    assert r.rows.tolist() == [[-1] * 6]
    assert [(s.name, s.neg, s.arrow) for s in r.solutions] == [("2#0", None, None)]

def test_commutative_filter_on_chain():
    r = enumerate_algebras(build_spec(_chain3(), ("SH", "Co")))
    tables = [s.arrow for s in r.solutions]
    assert tables == [catalog.get("L10dm").arrow]
    for t in tables:
        assert all(t[x][y] == t[y][x] for x in range(3) for y in range(3))


def test_solutions_reverify_independently():
    r = enumerate_algebras(build_spec(_chain3(), ("SH",)))
    for s in r.solutions:
        assert validate_lattice(s).ok
        assert satisfies_suite(s, "SH").holds


def test_mixed_requirement_sources():
    r = enumerate_algebras(build_spec(_chain3(), ("SH", "x -> y = y -> x")))
    assert len(r.solutions) == 1


def test_forbid_must_fail():
    r = enumerate_algebras(build_spec(_chain3(), ("SH",), forbid=("Co",)))
    assert len(r.solutions) == 9
    co = get_suite("Co").items[0]
    assert all(not satisfies(s, co).holds for s in r.solutions)


def test_max_solutions_limit():
    r = enumerate_algebras(build_spec(_chain3(), ("SH",), max_solutions=3))
    assert len(r.solutions) == 3
    assert not r.complete and r.reason == "limit"


def test_timeout_reports_incomplete():
    lat = lattice_reduct(catalog.double_diamond())
    r = enumerate_algebras(build_spec(lat, ("SH",), timeout=0.0))
    assert not r.complete and r.reason == "timeout"


def test_default_timeout_validates_environment(monkeypatch):
    monkeypatch.delenv("SHW_TIMEOUT", raising=False)
    assert default_timeout() == 300.0
    monkeypatch.setenv("SHW_TIMEOUT", "2.5")
    assert default_timeout() == 2.5
    for bad in ("abc", "-1", "nan", ""):
        monkeypatch.setenv("SHW_TIMEOUT", bad)
        with pytest.raises(InputError):
            default_timeout()


def test_spec_rejects_bad_input():
    with pytest.raises(InputError):
        SearchSpec(catalog.get("2e"), ())  # carries operations
    broken = catalog.double_diamond()
    rows = [list(r) for r in broken.join]
    rows[1][2] = 0  # a v b must be c
    broken = type(broken)(broken.name, broken.elements,
                          tuple(tuple(r) for r in rows), broken.meet,
                          None, None, broken.bot, broken.top)
    with pytest.raises(StructuralError):
        SearchSpec(broken, ())
    with pytest.raises(InputError):
        build_spec(_chain3(), ("SH",), max_solutions=0)


def test_spec_rejects_bad_timeout():
    for bad in (-5.0, float("nan"), float("-inf"), "abc", "", [5]):
        with pytest.raises(InputError):
            build_spec(_chain3(), ("SH",), timeout=bad)
    assert build_spec(_chain3(), ("SH",), timeout=0.0).timeout == 0.0
    # a number as text is read once, so the searches get a float
    spec = build_spec(_chain3(), ("SH",), timeout="5")
    assert spec.timeout == 5.0 and isinstance(spec.timeout, float)
    assert enumerate_algebras(spec).complete
    assert count_algebras(spec).complete


def test_lattice_inventory_up_to_iso():
    lats = bounded_distributive_lattices(5)
    sizes = [l.size for l in lats]
    assert sizes == [2, 3, 4, 4, 5, 5, 5]
    for l in lats:
        assert validate_lattice(l).ok
    with pytest.raises(InputError):
        bounded_distributive_lattices(7)


def test_distributive_lattices_up_to_size_six():
    # downset families past the size bound are skipped before labelling
    lats = bounded_distributive_lattices(6)
    assert [sum(l.size == k for l in lats) for k in range(2, 7)] == [1, 1, 2, 3, 5]
    assert all(validate_lattice(l).ok for l in lats)
    assert lats[:7] == bounded_distributive_lattices(5)


def test_canonical_key_is_the_least_over_every_relabelling():
    # the key tries only the relabellings that send the top to 0
    for lat in bounded_distributive_lattices(6):
        n = lat.size

        def relabel(p):  # element x becomes p[x]
            inv = sorted(range(n), key=p.__getitem__)
            return tuple(tuple(tuple(p[t[inv[i]][inv[j]]] for j in range(n))
                               for i in range(n)) for t in (lat.join, lat.meet))

        assert modelsearch._canonical_key(lat) == min(map(relabel, permutations(range(n)))), lat.name


def test_stone_scan_small_sizes():
    scan = exhaustive_stone_check(4)
    assert scan.complete and scan.holds
    by_name = {t.lattice: t for t in scan.tallies}
    assert set(by_name) == {"lat2.0", "lat3.0", "lat4.0", "lat4.1"}
    assert (by_name["lat2.0"].arrows, by_name["lat2.0"].screened) == (2, 2)
    assert (by_name["lat3.0"].arrows, by_name["lat3.0"].screened) == (10, 10)
    # the four-element diamond carries two involutions, the chain one
    assert by_name["lat4.0"].negations + by_name["lat4.1"].negations == 3
    assert all(not t.violations for t in scan.tallies)
    for bad in (0, 1, 7):
        with pytest.raises(InputError, match="between 2 and 6"):
            exhaustive_stone_check(bad)
    for bad in (-1.0, float("nan"), "abc", [5]):
        with pytest.raises(InputError, match="timeout must be a non-negative number"):
            exhaustive_stone_check(3, timeout=bad)
    assert exhaustive_stone_check(3, timeout="60").complete


def test_stone_scan_budget_covers_the_whole_scan(monkeypatch):
    # one deadline for the scan: each search gets what is left of it
    budgets = []

    def recorded(search):
        def call(spec, *args):
            budgets.append(spec.timeout)
            return search(spec, *args)
        return call

    for name in ("enumerate_algebras", "count_algebras"):
        monkeypatch.setattr(modelsearch, name, recorded(getattr(modelsearch, name)))
    assert exhaustive_stone_check(4, timeout=60.0).complete
    assert budgets[0] <= 60.0
    assert all(a > b for a, b in zip(budgets, budgets[1:])), budgets
    assert len(budgets) == 12  # SH count, DQD + DM and the joint search on 4 lattices


def test_stone_scan_output_is_pinned():
    # generated by the pair-by-pair scan that the stacked screen replaced
    golden = (GOLDEN.parent / "stone" / "verify-stone-5.json").read_text()
    assert run(["--json", "verify", "stone", "--max-size", "5"]).text + "\n" == golden


def test_stone_scan_output_is_pinned_at_size_6():
    # generated before each lattice kept its validation and derivations
    golden = (GOLDEN.parent / "stone" / "verify-stone-6.json").read_text()
    assert run(["--json", "verify", "stone", "--max-size", "6"]).text + "\n" == golden


def test_stone_scan_validates_each_lattice_once(monkeypatch):
    # the report is kept on the lattice: the scan's three searches on it,
    # and their specs, read it
    seen = []
    validate = modelsearch.validate_lattice
    monkeypatch.setattr(modelsearch, "validate_lattice",
                        lambda a: seen.append(a) or validate(a))
    scan = exhaustive_stone_check(6)
    assert [a.name for a in seen] == [t.lattice for t in scan.tallies]
    assert len(seen) == 12 and len(set(map(id, seen))) == 12


def test_stone_screen_violations_match_a_per_pair_check(monkeypatch):
    # a target that fails on some screened pairs drives the violation path
    target = parse_statement("x -> y = y -> x")
    suite = modelsearch.get_suite
    monkeypatch.setattr(modelsearch, "get_suite", lambda name: Suite(
        name, (target,)) if name == "St" else suite(name))
    scan = exhaustive_stone_check(4)
    l1, reg = get_suite("L1").items[0], get_suite("R").items[0]
    found = 0
    for lat, tally in zip(bounded_distributive_lattices(4), scan.tallies):
        arrows = enumerate_algebras(build_spec(lat, ("SH",))).solutions
        negs = enumerate_algebras(build_spec(lat, ("DQD", "DM"))).solutions
        screened = [alg for witharrow in arrows for withneg in negs
                    for alg in (replace(witharrow, neg=withneg.neg),)
                    if satisfies(alg, l1).holds and satisfies(alg, reg).holds]
        # named as the scan names its rows: <lattice>#<i> in (negation,
        # arrow) order
        screened.sort(key=lambda a: (a.neg, a.arrow))
        bad = [to_json_dict(replace(alg, name=f"{lat.name}#{i}"))
               for i, alg in enumerate(screened) if not satisfies(alg, target).holds]
        assert tally.screened == len(screened)
        assert [to_json_dict(v) for v in tally.violations] == bad
        found += len(bad)
    assert found >= 10 and not scan.holds, found


def test_stone_scan_at_size_six_is_pinned():
    scan = exhaustive_stone_check(6)
    assert scan.complete and scan.holds
    six = [(t.lattice, t.arrows, t.negations, t.screened, len(t.violations))
           for t in scan.tallies if t.size == 6]
    assert six == [("lat6.0", 20, 1, 20, 0), ("lat6.1", 5848, 0, 0, 0),
                   ("lat6.2", 40404, 2, 0, 0), ("lat6.3", 304660, 0, 0, 0),
                   ("lat6.4", 3390400, 1, 0, 0)]


COUNTED = (("SH", ""), ("DQD,DM", ""), ("SH,DQD,DM,L1,R", ""),
           ("SH,DQD,DM,L2,R", "St"), ("SH", "St"))


def _spec(lat, req: str, forb: str):
    return build_spec(lat, req.split(","), forb.split(",") if forb else ())


def test_count_equals_enumeration():
    for lat in bounded_distributive_lattices(5):
        for req, forb in COUNTED:
            spec = _spec(lat, req, forb)
            counted = count_algebras(spec)
            assert counted.complete, (lat.name, req, forb)
            assert counted.count == len(enumerate_algebras(spec).rows), (lat.name, req, forb)


def _chain(n: int) -> FiniteAlgebra:
    return FiniteAlgebra(f"chain{n}", tuple(map(str, range(n))),
                         tuple(tuple(max(x, y) for y in range(n)) for x in range(n)),
                         tuple(tuple(min(x, y) for y in range(n)) for x in range(n)),
                         None, None, 0, n - 1)


def test_counts_past_enumeration_are_pinned():
    # the double diamond's is the enumerated count; the chains' are the
    # products of their components' counts.  The nodes are pinned too: a
    # rule table letting extra candidates through adds nodes even where the
    # leaf check keeps the count right
    for lat, count, nodes in ((catalog.double_diamond(), 262_660, 646_044),
                              (_chain(7), 6_635_012_800, 16_036),
                              (_chain(8), 90_899_675_360_000, 125_628)):
        counted = count_algebras(build_spec(lat, ("SH",)))
        assert (counted.count, counted.complete, counted.nodes) == (count, True, nodes), lat.name


def test_count_leaf_check_is_live(monkeypatch):
    # with every tuple of the pair rules allowed, only each component's leaf
    # check, with the other components unknown, keeps the count exact; the
    # one-cell rules stay, so the cells filled and the components do too
    # (lat5.1 is left out: it takes 10 s without the pair rules).  The
    # loosened searches run on fresh lattice objects: the ones counted
    # first keep their derived rules and would never derive them again
    def lattices():
        return [lat for lat in bounded_distributive_lattices(5) if lat.name != "lat5.1"]

    want = {(lat.name, req, forb): count_algebras(_spec(lat, req, forb)).count
            for lat in lattices() for req, forb in COUNTED}
    rules = modelsearch._instance_rules
    loosened = set()
    monkeypatch.setattr(modelsearch, "_instance_rules", lambda prog, lat, ground: loosened.add(
        lat.name) or ((cs, ok if len(cs) == 1 else np.ones_like(ok))
                      for cs, ok in rules(prog, lat, ground)))
    split = 0
    lats = lattices()
    for lat in lats:
        for req, forb in COUNTED:
            spec = _spec(lat, req, forb)
            split += len(_components(_prepare(spec, "row-major"))) > 1
            assert count_algebras(spec).count == want[lat.name, req, forb], (lat.name, req, forb)
    assert split >= 10, split
    assert loosened == {lat.name for lat in lats}


def _plan_fields(plan):
    return (plan.values, plan.cells, plan.cands, [cs for cs, _ in plan.rules],
            plan.checks, plan.leaf_only, plan.feasible)


def _warm_plans_equal_cold_ones(runs):
    """Prepare each (spec, order) in turn, the lattice objects shared, and
    again on a fresh copy of its lattice; each statement is derived once
    per lattice object."""
    derived = []
    reads = modelsearch.table_reads
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelsearch, "table_reads",
                   lambda prog, *a: derived.append(prog) or reads(prog, *a))
        warm = [_prepare(spec, order) for spec, order in runs]
    for (spec, order), plan in zip(runs, warm):
        cold = _prepare(replace(spec, lattice=replace(spec.lattice)), order)
        assert _plan_fields(plan) == _plan_fields(cold), spec.lattice.name
        for (_, ok), (_, want) in zip(plan.rules, cold.rules):
            assert np.array_equal(ok, want)
    stores = {id(spec.lattice): modelsearch._derivations(spec.lattice) for spec, _ in runs}
    kept = [v for store in stores.values() for v in store.values() if v is not None]
    assert len(derived) == len(kept)
    assert not any(ok.flags.writeable for v in kept if not isinstance(v[0], Program)
                   for _, ok in v)
    return derived


def test_warm_plans_equal_cold_plans():
    # the size-6 scan's three specs on each lattice, and the benchmark's
    # two capped searches on one double-diamond object
    runs = []
    for lat in bounded_distributive_lattices(6):
        runs += [(_spec(lat, req, ""), "row-major")
                 for req in ("SH", "DQD,DM", "SH,DQD,DM,L1,R")]
    dd = replace(catalog.double_diamond())
    runs += [(build_spec(dd, ("SH", "DQD", "DM", "L2", "R"), ("St",), max_solutions=1000),
              "column-major"),
             (build_spec(dd, ("SH",), max_solutions=200), "row-major")]
    derived = _warm_plans_equal_cold_ones(runs)
    # SH, DQD and DM are derived once per lattice, not once per search
    sh = compile_statement(get_suite("SH").items[0])
    assert derived.count(sh) == 13


def test_a_statement_derives_apart_as_required_and_as_forbidden():
    # on one lattice object, x -> x = 1 required becomes ground rules and
    # forbidden a grid check, as on a fresh copy
    lat = _chain3()
    runs = [(_spec(lat, "x -> x = 1", ""), "row-major"),
            (build_spec(lat, (), ("x -> x = 1",)), "row-major")]
    _warm_plans_equal_cold_ones(runs)
    counts = [count_algebras(spec).count for spec, _ in runs]
    assert counts == [3 ** 6, 3 ** 9 - 3 ** 6]


@pytest.mark.parametrize("order", ["row-major", "column-major"])
def test_components_partition_the_plan(order):
    # the components partition the open cells, each in search order; no rule
    # and no checked statement reads two of them, and a component's
    # restriction keeps exactly the rules and checks that read its cells
    split = 0
    for lat in bounded_distributive_lattices(5):
        for req, forb in COUNTED:
            plan = _prepare(_spec(lat, req, forb), order)
            components = _components(plan)
            split += len(components) > 1
            assert sorted(sum(components, [])) == sorted(plan.cells), (lat.name, req, forb)
            which = {c: i for i, cells in enumerate(components) for c in cells}
            assert all(sorted(cells, key=plan.cells.index) == cells for cells in components)
            for cells, _ in plan.rules:
                assert len({which[c] for c in cells}) == 1, (lat.name, req, forb, cells)
            for _, _, reach in plan.checks:
                assert len({which[c] for c in reach if c in which}) <= 1, (lat.name, req, forb)
            kept_rules, kept_checks = [], []
            for cells in components:
                part = _restrict(plan, cells)
                assert part.cells == tuple(cells)
                assert all(part.cands[c] == plan.cands[c] for c in cells)
                kept_rules += part.rules
                kept_checks += part.checks
            assert sorted(map(id, kept_rules)) == sorted(map(id, plan.rules))
            assert sorted(map(id, kept_checks)) == sorted(
                id(c) for c in plan.checks if not c[2].isdisjoint(plan.cells))
    assert split >= 10, split


def _rule_table_agrees(cells, ok, last) -> None:
    """On every complete value tuple of the cells, the table read once per
    node allows the last cell's value exactly when the tuple is allowed."""
    get, table = modelsearch._rule_table(cells, ok, last)
    allowed = frozenset(map(tuple, np.argwhere(ok).tolist()))
    values = [-1] * (max(cells) + 1)
    for t in product(range(ok.shape[0]), repeat=len(cells)):
        for c, v in zip(cells, t):
            values[c] = v
        assert ((table.get(get(values), 0) >> values[cells[last]] & 1)
                == (itemgetter(*cells)(values) in allowed)), (cells, last, t)


def test_rule_tables_match_the_tuple_lookup():
    rng = np.random.default_rng(18)
    for n in range(1, 8):
        for w in range(2, 5):
            cells = tuple(sorted(rng.choice(12, w, replace=False).tolist()))
            for density in (0.0, 0.2, 0.7, 1.0):
                ok = rng.random((n,) * w) < density
                for last in range(w):
                    _rule_table_agrees(cells, ok, last)


@pytest.mark.parametrize("order", ["row-major", "column-major"])
@pytest.mark.parametrize("req,forb", [("SH,DQD,DM,L2,R", "St"), ("SH", "")])
def test_plan_rule_tables_match_the_tuple_lookup(monkeypatch, req, forb, order):
    # every rule of the double diamond's plans, filed by a run at its last
    # cell's depth; a run past its deadline files them and stops at once
    made = []
    table = modelsearch._rule_table
    monkeypatch.setattr(modelsearch, "_rule_table", lambda cells, ok, last: (
        made.append((cells, ok, last)) or table(cells, ok, last)))
    spec = _spec(catalog.double_diamond(), req, forb)
    plan = _prepare(spec, order)
    assert modelsearch._run(spec, plan, 0.0)[3]  # timed out
    monkeypatch.undo()
    depth_of = {c: d for d, c in enumerate(plan.cells)}
    assert [cells for cells, _, _ in made] == [cells for cells, _ in plan.rules]
    assert len(made) > 30
    for cells, ok, last in made:
        ds = [depth_of[c] for c in cells]
        assert ds[last] == max(ds)
        _rule_table_agrees(cells, ok, last)


def test_a_prefix_missing_from_a_rule_table_prunes():
    # 0' = 1 leaves 1' no value, and the two arrow cells after it would
    # grow 12 more nodes were a missing prefix read as any value; the leaf
    # check would still reject every such leaf
    spec = build_spec(lattice_reduct(catalog.get("2e")),
                      ("x -> x = 1", "0' = 1 => 1' = 0", "0' = 1 => 1' = 1"))
    for order in ("row-major", "column-major"):
        r = enumerate_algebras(spec, cell_order=order)
        assert (r.nodes, len(r.rows), r.complete) == (18, 8, True), order
        assert all(s.neg[0] == 0 for s in r.solutions)


def test_statement_both_required_and_forbidden_searches_nothing():
    # without the check this searches until the budget runs out
    spec = build_spec(catalog.double_diamond(), ("St",), ("St",), timeout=5.0)
    r = enumerate_algebras(spec)
    assert (r.solutions, r.complete, r.reason, r.nodes) == ((), True, "exhausted", 0)
    counted = count_algebras(spec)
    assert (counted.count, counted.complete, counted.nodes) == (0, True, 0)


def test_count_without_budget_is_incomplete():
    counted = count_algebras(build_spec(catalog.double_diamond(), ("SH",), timeout=0.0))
    assert not counted.complete


def test_level2_counterexample_found_and_archived():
    out = find_stone_counterexample_level2()
    assert out.status == "found"
    a = out.algebra
    assert satisfies_suite(a, "RDMSH2").holds
    assert not satisfies(a, get_suite("St").items[0]).holds
    assert not satisfies(a, get_suite("L1").items[0]).holds  # level exactly 2
    golden = from_json_dict(json.loads(
        (GOLDEN / "double-diamond-level2.json").read_text()))
    assert to_json_dict(a) == to_json_dict(golden)


def test_level2_absent_on_small_lattices():
    for key in ("2e", "L1dm"):
        out = find_stone_counterexample_level2(lattice_reduct(catalog.get(key)))
        assert out.status == "none" and out.result.complete


def test_level2_timeout_is_inconclusive():
    out = find_stone_counterexample_level2(timeout=0.0)
    assert out.status == "inconclusive"
    assert out.result.reason == "timeout"


def test_deadline_is_read_each_time_the_node_count_crosses_2048(monkeypatch):
    # a clock that advances 1 s per read, and a 10 s budget: the search
    # reads it at the start and on entering depths 0 and 1, so at most nine
    # reads at crossings of a multiple of 2,048 fit in the budget, and the
    # uncapped level-2 search stops below 10 x 2,048 nodes.  A ruled-out
    # candidate moves the count by its position, so a walk that reads the
    # clock only when the count lands on a multiple steps over some
    ticks = iter(range(10 ** 9))
    monkeypatch.setattr(modelsearch.time, "monotonic", lambda: float(next(ticks)))
    spec = build_spec(catalog.double_diamond(), LEVEL2[0].split(","), (LEVEL2[1],),
                      timeout=10)
    for order in ("row-major", "column-major"):
        r = enumerate_algebras(spec, order)
        assert (r.reason, r.complete) == ("timeout", False), order
        assert 2048 < r.nodes < 10 * 2048, (order, r.nodes)


# (lattice, require, forbid) -> ((nodes, solutions) row-major, column-major)
PINNED_SEARCHES = {
    ("lat2.0", "SH", ""): ((2, 2), (2, 2)),
    ("lat2.0", "DQD,DM", ""): ((0, 1), (0, 1)),
    ("lat2.0", "SH,DQD,DM,L1,R", "St"): ((0, 0), (0, 0)),
    ("lat2.0", "SH,DQD,DM,L2,R", "St"): ((0, 0), (0, 0)),
    ("lat2.0", "SH,St", ""): ((2, 2), (2, 2)),
    ("lat3.0", "SH", ""): ((22, 10), (22, 10)),
    ("lat3.0", "DQD,DM", ""): ((3, 1), (3, 1)),
    ("lat3.0", "SH,DQD,DM,L1,R", "St"): ((0, 0), (0, 0)),
    ("lat3.0", "SH,DQD,DM,L2,R", "St"): ((0, 0), (0, 0)),
    ("lat3.0", "SH,St", ""): ((22, 10), (22, 10)),
    ("lat4.0", "SH", ""): ((54, 4), (50, 4)),
    ("lat4.0", "DQD,DM", ""): ((12, 2), (12, 2)),
    ("lat4.0", "SH,DQD,DM,L1,R", "St"): ((0, 0), (0, 0)),
    ("lat4.0", "SH,DQD,DM,L2,R", "St"): ((0, 0), (0, 0)),
    ("lat4.0", "SH,St", ""): ((54, 4), (50, 4)),
    ("lat4.1", "SH", ""): ((412, 160), (474, 160)),
    ("lat4.1", "DQD,DM", ""): ((12, 1), (12, 1)),
    ("lat4.1", "SH,DQD,DM,L1,R", "St"): ((0, 0), (0, 0)),
    ("lat4.1", "SH,DQD,DM,L2,R", "St"): ((0, 0), (0, 0)),
    ("lat4.1", "SH,St", ""): ((412, 160), (474, 160)),
}


def test_pruning_node_and_solution_counts_are_pinned():
    lats = {lat.name: lat for lat in bounded_distributive_lattices(4)}
    for (name, req, forb), want in PINNED_SEARCHES.items():
        spec = build_spec(lats[name], req.split(","), forb.split(",") if forb else ())
        got = []
        for order in ("row-major", "column-major"):
            r = enumerate_algebras(spec, cell_order=order)
            assert r.complete
            got.append((r.nodes, len(r.solutions)))
        assert tuple(got) == want, (name, req, forb)


# (require, forbid, limit, order) -> ((nodes, sha256 prefix of the --json
# payload without "nodes") with one process, the same with --jobs 2); the
# hashes were taken from the search before its pruning was derived from the
# compiled statements, so they show that the solutions did not change
LEVEL2 = ("SH,DQD,DM,L2,R", "St")
PINNED_CAPPED_SEARCHES = {
    (*LEVEL2, 1, "row-major"): ((64, "f0a21977b8ecd503"), (103, "f0a21977b8ecd503")),
    (*LEVEL2, 1, "column-major"): ((64, "f0a21977b8ecd503"), (103, "f0a21977b8ecd503")),
    (*LEVEL2, 7, "row-major"): ((234, "5f1c317404f9a096"), (443, "5f1c317404f9a096")),
    (*LEVEL2, 7, "column-major"): ((331, "d2bf773ff40972e3"), (637, "d2bf773ff40972e3")),
    (*LEVEL2, 200, "row-major"): ((4427, "f2f6f4165077adee"), (8829, "f2f6f4165077adee")),
    (*LEVEL2, 200, "column-major"): ((7308, "fd9ae50fdf4634e6"), (14591, "fd9ae50fdf4634e6")),
    (*LEVEL2, 1000, "row-major"): ((17598, "6b3f0d18d740423f"), (35171, "6b3f0d18d740423f")),
    (*LEVEL2, 1000, "column-major"): ((32423, "e6814ab41c9c0d1e"), (64821, "e6814ab41c9c0d1e")),
    ("SH", "", 1, "row-major"): ((23, "fcd778b8a63f02c8"), (151, "fcd778b8a63f02c8")),
    ("SH", "", 1, "column-major"): ((23, "fcd778b8a63f02c8"), (151, "fcd778b8a63f02c8")),
    ("SH", "", 7, "row-major"): ((193, "cbb749f68b11c1a5"), (693, "cbb749f68b11c1a5")),
    ("SH", "", 7, "column-major"): ((290, "ee53e40e6188dd8c"), (1198, "ee53e40e6188dd8c")),
    ("SH", "", 200, "row-major"): ((4386, "eaeb0de428799196"), (17410, "eaeb0de428799196")),
    ("SH", "", 200, "column-major"): ((7267, "08e5101803f5d093"), (32783, "08e5101803f5d093")),
    ("SH", "", 1000, "row-major"): ((17557, "20c5cc53bc856983"), (69716, "20c5cc53bc856983")),
    ("SH", "", 1000, "column-major"): ((32382, "6430de061a865d35"), (133044, "6430de061a865d35")),
}


@pytest.mark.parametrize("case", sorted(PINNED_CAPPED_SEARCHES),
                         ids=lambda c: f"{c[0]}-{c[2]}-{c[3]}")
def test_capped_searches_stop_at_the_pinned_node(case):
    # each limit ends inside a leaf batch; the leaf reaching it must end one
    req, forb, limit, order = case
    got = []
    for jobs in ("1", "2"):
        argv = ["--json", "--jobs", jobs, "search", "--lattice", "double-diamond",
                "--require", req, "--order", order, "--limit", str(limit)]
        doc = json.loads(run(argv + (["--forbid", forb] if forb else [])).text)
        nodes = doc.pop("nodes")
        got.append((nodes, hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]))
    assert tuple(got) == PINNED_CAPPED_SEARCHES[case]


def test_leaf_batch_size_changes_nothing(monkeypatch):
    # the leaf buffer's size decides only when leaves are verified: every
    # search stops at the same node with the same solutions, and a count
    # by components is the same
    lats = {lat.name: lat for lat in bounded_distributive_lattices(5)}
    level2 = build_spec(catalog.double_diamond(), LEVEL2[0].split(","), (LEVEL2[1],),
                        max_solutions=100)
    # uncapped, this search reaches 300 leaves on lat5.2, and its leaf
    # check rejects half of them
    half_rejected = build_spec(lats["lat5.2"], ("SH", "x -> (x -> y) = x -> y"),
                               max_solutions=100)
    sh = build_spec(lats["lat5.1"], ("SH",))
    check = modelsearch.stack_holds
    leaves = kept = 0

    def counted(prog, ops, n, batch, unknown_holds=False):
        # the search keeps a required statement's leaves where it holds
        # with unknown_holds; each statement after the first sees survivors
        nonlocal leaves, kept
        holds = check(prog, ops, n, batch, unknown_holds)
        if prog is compile_statement(half_rejected.require[0]):
            leaves += len(batch)
        if prog is compile_statement(half_rejected.require[-1]):
            kept += int(holds.sum())
        return holds

    got = {}
    default = modelsearch._LEAF_BATCH
    for size in (1, 7, default):
        monkeypatch.setattr(modelsearch, "_LEAF_BATCH", size)
        with monkeypatch.context() as m:
            m.setattr(modelsearch, "stack_holds", counted)
            half = enumerate_algebras(half_rejected)
        searched = (enumerate_algebras(level2, "column-major"), half)
        counted_sh = count_algebras(sh)
        got[size] = ([(r.rows.tolist(), r.nodes, r.reason, r.complete) for r in searched],
                     (counted_sh.count, counted_sh.nodes, counted_sh.complete))
    assert got[1] == got[7] == got[default]
    assert [(len(t), reason) for t, _, reason, _ in got[default][0]] == [(100, "limit")] * 2
    assert got[default][1][::2] == (546, True)
    # over the three runs, the leaf check rejected some leaves and kept others
    assert kept == 3 * 100 and leaves > kept, (leaves, kept)


def _reference_truth(a: FiniteAlgebra, stmt, env) -> int:
    def atom(kind, lhs, rhs) -> bool:
        l, r = eval_term(a, lhs, env), eval_term(a, rhs, env)
        return {"eq": l == r, "leq": a.meet[l][r] == l, "neq": l != r}[kind]

    if isinstance(stmt, Identity):
        return int(atom(stmt.kind, stmt.lhs, stmt.rhs))
    if all(atom(p.kind, p.lhs, p.rhs) for p in stmt.premises):
        return int(atom(stmt.conclusion.kind, stmt.conclusion.lhs, stmt.conclusion.rhs))
    return 1


def _random_statement(rng: random.Random):
    t = random_term(rng, rng.randint(0, 3))
    u = random_term(rng, rng.randint(0, 3))
    kind = rng.randrange(3)
    if kind < 2:
        return Identity(("eq", "leq")[kind], t, u)
    s = random_term(rng, rng.randint(0, 2))
    return QuasiIdentity((Atom(rng.choice(("eq", "leq", "neq")), s, t),),
                         Atom("eq", t, u))


def test_truth_on_padded_partial_tables_is_sound():
    # a verdict reached on the search's half-filled tables holds for every
    # completion of the unknown cells
    rng = random.Random(4)
    determined = undetermined = 0
    for lat in bounded_distributive_lattices(4):
        n = lat.size
        cells = [("a", x, y) for x in range(n) for y in range(n)]
        cells += [("n", x) for x in range(n)]
        for _ in range(150):
            full_arrow = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            full_neg = [rng.randrange(n) for _ in range(n)]
            holes = rng.sample(cells, rng.randint(0, 3))
            # the search's flat values: negation cells, then arrow cells
            values = [-1 if ("n", x) in holes else full_neg[x] for x in range(n)]
            values += [-1 if ("a", x, y) in holes else full_arrow[x][y]
                       for x in range(n) for y in range(n)]
            ops = _stacks(lat, values)
            stmt = _random_statement(rng)
            env = {v: rng.randrange(n) for v in ("x", "y", "z")}
            verdict = truth(compile_statement(stmt), ops, env)
            if verdict < 0:
                undetermined += 1
                continue
            determined += bool(holes)
            for fill in product(range(n), repeat=len(holes)):
                a_tab = [row[:] for row in full_arrow]
                n_tab = full_neg[:]
                for cell, v in zip(holes, fill):
                    if cell[0] == "a":
                        a_tab[cell[1]][cell[2]] = v
                    else:
                        n_tab[cell[1]] = v
                alg = FiniteAlgebra("completion", lat.elements, lat.join, lat.meet,
                                    tuple(map(tuple, a_tab)), tuple(n_tab),
                                    lat.bot, lat.top)
                assert _reference_truth(alg, stmt, env) == verdict, stmt
    assert determined >= 100 and undetermined >= 50, (determined, undetermined)


def _completions(lat, require, forbid, sh_arrows) -> list[tuple]:
    """Every completion of the lattice's tables that the statements accept,
    as (negation, arrow) tuples in the search's order.  The arrow ranges
    over ``sh_arrows``, the negation over all n^n lists when a statement
    reads it."""
    n = lat.size
    arrows, negs = sh_arrows, None
    if any(compile_statement(s).reads_neg for s in require + forbid):
        every = np.array(list(product(range(n), repeat=n)), np.int8)
        arrows = np.repeat(sh_arrows, len(every), axis=0)
        negs = np.tile(every, (len(sh_arrows), 1))
    ops = (np.asarray(lat.join), np.asarray(lat.meet), arrows, negs, lat.bot, lat.top)
    keep = np.arange(len(arrows))
    for stmts, required in ((require, True), (forbid, False)):
        for s in stmts:
            keep = keep[stack_holds(compile_statement(s), ops, n, keep) == required]
    out = [(None if negs is None else tuple(negs[b].tolist()),
            tuple(map(tuple, arrows[b].tolist()))) for b in keep.tolist()]
    return tuple(sorted(out, key=lambda t: (t[0] or (), t[1])))


def _sh_arrows(lat) -> np.ndarray:
    # every table with cell (x, y) in {z : x ^ z = x ^ y}, the tables that
    # satisfy SH's first identity, filtered by the whole suite
    n, meet = lat.size, lat.meet
    cells = [[z for z in range(n) if meet[x][z] == meet[x][y]]
             for x in range(n) for y in range(n)]
    arrows = np.array(list(product(*cells)), np.int8).reshape(-1, n, n)
    ops = (np.asarray(lat.join), np.asarray(meet), arrows, None, lat.bot, lat.top)
    keep = np.arange(len(arrows))
    for s in get_suite("SH").items:
        keep = keep[stack_holds(compile_statement(s), ops, n, keep)]
    return arrows[keep]


def test_derived_pruning_matches_brute_force(monkeypatch):
    # the search's solutions equal a filter over every completion; with the
    # leaf check switched off its leaves do too, so the pruning read off
    # the compiled statements drops no solution and lets no other through
    rng = random.Random(8)
    extra = [(get_suite(name).items, ()) for name in equations._load_ids("core.ids")]
    for _ in range(24):
        s = _random_statement(rng)
        extra += [((s,), ()), ((), (s,))]
    lats = bounded_distributive_lattices(4)
    arrows = {lat.name: _sh_arrows(lat) for lat in lats}
    required: list = []

    def leaf_check_off(prog, ops, n, batch, unknown_holds=False):
        return np.full(len(batch), any(prog is p for p in required))

    checked = strays = 0
    for req, forb in extra:
        needs_neg = any(compile_statement(s).reads_neg for s in req + forb)
        for lat in lats:
            if needs_neg and lat.size > 3:
                continue
            spec = build_spec(lat, ("SH", *req), forb)
            want = _completions(lat, spec.require, spec.forbid, arrows[lat.name])
            assert _neg_arrow(enumerate_algebras(spec)) == want, (lat.name, req, forb)
            required[:] = [compile_statement(s) for s in spec.require]
            with monkeypatch.context() as m:
                m.setattr(modelsearch, "stack_holds", leaf_check_off)
                leaves = {order: _neg_arrow(enumerate_algebras(spec, order))
                          for order in ("row-major", "column-major")}
            # the search leaves its checks at the last cell to the leaf
            # check, so only there may a leaf that is no solution get through
            for order, got in leaves.items():
                stray = set(got) - set(want)
                strays += len(stray)
                assert set(want) <= set(got), (lat.name, req, forb, order)
                assert all(_fails_only_at_last_cell(spec, order, leaf)
                           for leaf in stray), (lat.name, req, forb, order)
            checked += 1
    assert checked >= 100 and strays, (checked, strays)


def _fails_only_at_last_cell(spec, order, leaf) -> bool:
    """Whether every statement a leaf fails may read the cell that the
    search assigns last, on the tables with every cell unknown."""
    lat, n = spec.lattice, spec.lattice.size
    last = _prepare(spec, order).cells[-1]
    unknown = _stacks(lat, [-1] * (n + n * n))
    alg = FiniteAlgebra("leaf", lat.elements, lat.join, lat.meet, leaf[1], leaf[0],
                        lat.bot, lat.top)
    failing = [s for s in spec.require if not satisfies(alg, s).holds]
    failing += [s for s in spec.forbid if satisfies(alg, s).holds]
    return bool(failing) and all(
        last in _reach(table_reads(compile_statement(s), unknown, n), n) for s in failing)
