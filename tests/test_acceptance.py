"""End-to-end acceptance gate.

One test per acceptance criterion, numbered; run with ``pytest -v`` to get
one pass/fail line each.  Everything here is exact (discrete math, zero
tolerance); the only budgets are wall-clock bounds on the heavier runs.
"""

from __future__ import annotations

import json
import random
import time
from functools import lru_cache
from pathlib import Path

from shw import catalog
from shw.algebra import subalgebra, to_json_dict
from shw.amalgamation import brute_force_amalgamation, enumerate_amalgams, survey
from shw.bases import verify_bases
from shw.equations import run_lemma_suite, satisfies_suite
from shw.modelsearch import (
    build_spec,
    enumerate_algebras,
    exhaustive_stone_check,
    find_stone_counterexample_level2,
    lattice_reduct,
)
from shw.structure import (
    all_subuniverses,
    classify_primality,
    congruence_lattice,
    find_morphisms,
    has_cep,
    is_simple,
    is_subdirectly_irreducible,
)
from shw.terms import desugar, eval_term, normalize, parse_term, pretty
from shw.varieties import ShapeFactor, closure, subvariety_count, verify_decomposition

from test_amalgamation import witness_holds
from test_terms import random_term

GOLDEN = Path(__file__).resolve().parent / "golden"

SIMPLES = catalog.family("all-simples")


def test_criterion_01_catalog_suite_conformance():
    t0 = time.monotonic()
    for key in SIMPLES:
        for suite in ("DQD", "St", "L1", "R"):
            assert satisfies_suite(catalog.get(key), suite).holds, (key, suite)
    for key in catalog.family("rdmsh1-simples"):
        assert satisfies_suite(catalog.get(key), "DM").holds, key
    for key in catalog.family("C10dp"):
        assert satisfies_suite(catalog.get(key), "PC").holds, key
    for key in ("D1", "D2", "D3"):
        assert satisfies_suite(catalog.get(key), "Bo").holds, key
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 1: pass  (25 simples x DQD/St/L1/R + family suites, {elapsed:.2f}s)")


def test_criterion_02_stone_on_level1_simples_and_small_lattices():
    t0 = time.monotonic()
    for key in catalog.family("rdmsh1-simples"):
        assert satisfies_suite(catalog.get(key), "St").holds, key
    scan = exhaustive_stone_check(4)
    assert scan.complete
    assert all(not t.violations for t in scan.tallies)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 2: pass  (15 simples + exhaustive size<=4 scan, {elapsed:.2f}s)")


def test_criterion_03_lemma_suites_hold_with_zero_witnesses():
    t0 = time.monotonic()
    groups = run_lemma_suite()
    assert len(groups) == 3
    for g in groups:
        assert g.holds, g.name
        for item in g.items:
            assert all(v.result.witness is None for v in item.verdicts)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 3: pass  ({sum(len(g.items) for g in groups)} statements, {elapsed:.2f}s)")


def test_criterion_04_regenerates_two_element_and_three_chain_tables():
    spec2 = build_spec(lattice_reduct(catalog.get("2")), ["SH"])
    sols2 = enumerate_algebras(spec2).solutions
    assert sorted(s.arrow for s in sols2) == sorted(
        [catalog.get("2").arrow, catalog.get("2bar").arrow])
    spec3 = build_spec(lattice_reduct(catalog.get("L1")), ["SH"])
    sols3 = enumerate_algebras(spec3).solutions
    assert sorted(s.arrow for s in sols3) == sorted(
        catalog.get(f"L{i}").arrow for i in range(1, 11))
    print("criterion 4: pass  (2 tables on the 2-chain, 10 on the 3-chain, bit-for-bit)")


@lru_cache(maxsize=1)
def _subalgebra_embeddings():
    found = []
    for key in SIMPLES:
        a = catalog.get(key)
        for universe in sorted(map(sorted, all_subuniverses(a))):
            found.append((subalgebra(a, universe), a))
    return tuple(found)


def test_criterion_05_simplicity_of_catalog_and_all_subalgebras():
    checked = 0
    for key in SIMPLES:
        a = catalog.get(key)
        assert len(congruence_lattice(a)) == 2, key
        assert is_simple(a) and is_subdirectly_irreducible(a)
        for sub, _parent in ((s, p) for s, p in _subalgebra_embeddings()
                             if p.name == key):
            assert is_simple(sub), (key, sub.name)
            assert is_simple(sub) == is_subdirectly_irreducible(sub)
            checked += 1
    assert checked >= 25
    print(f"criterion 5: pass  (25 algebras, {checked} subalgebras, 2 congruences each)")


_MUST_PASS_SLUGS = {
    "stone-collapse", "stone-collapse-heyting", "commutative-join",
    "boolean-diamonds", "arrow-top-falsum", "kleene-chains",
    "kleene-commutative",
}


def test_criterion_06_base_conformance_table():
    rows = verify_bases()
    by_slug: dict[str, list] = {}
    for r in rows:
        by_slug.setdefault(r.slug, []).append(r)
    for slug in _MUST_PASS_SLUGS:
        assert all(r.ok for r in by_slug[slug]), slug
    for r in by_slug["boolean-diamonds"]:
        assert set(r.satisfied) == {"2e", "2bare", "D1", "D2", "D3"}
    # any discrepancy must come with a finite certificate
    bad = [r for r in rows if not r.ok]
    for r in bad:
        for d in r.discrepancies:
            assert d.witness is not None or d.certificate
    assert {r.slug for r in bad} == {"arrow-exchange"}
    print(f"criterion 6: pass  ({len(rows)} rows, must-pass ok, "
          f"{len(bad)} discrepancy row(s) with certificates)")


def test_criterion_07_subvariety_counts_and_decompositions():
    t0 = time.monotonic()
    assert subvariety_count("rdqdstsh1") == 8_667_648
    assert subvariety_count("rdmsh1") == 9_504
    assert subvariety_count("rdpcsh1") == 1_360
    shapes = {
        "rdqdstsh1": ([ShapeFactor("1+B", 9), ShapeFactor("1+B", 5),
                       ShapeFactor("B", 9)], 8_667_648),
        "rdmsh1": ([ShapeFactor("1+B", 5), ShapeFactor("1+B", 3),
                    ShapeFactor("B", 5)], 9_504),
        "rdpcsh1": ([ShapeFactor("1+B", 4), ShapeFactor("1+B", 2),
                     ShapeFactor("B", 4)], 1_360),
    }
    for name, (claimed, count) in shapes.items():
        assert verify_decomposition(name, claimed, expected_count=count).ok, name
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 7: pass  (8667648 / 9504 / 1360 + shape checks, {elapsed:.2f}s)")


def test_criterion_08_congruence_extension_property():
    for key in SIMPLES:
        report = has_cep(catalog.get(key))
        assert report.ok, (key, report.failures)
    print("criterion 8: pass  (CEP on all 25, zero failures)")


def test_criterion_09_primality_partition_and_readings():
    verdicts = {k: classify_primality(catalog.get(k)) for k in SIMPLES}
    assert all(r.quasiprimal for r in verdicts.values())
    primal = {k for k, r in verdicts.items() if r.verdict == "primal"}
    assert {"2e", "2bare", "D3"} <= primal
    reading_dm = {"2e", "2bare", "D3", "L5dm", "L6dm", "L7dm", "L8dm"}
    reading_both = reading_dm | {"L5dp", "L6dp", "L7dp", "L8dp"}
    assert primal != reading_dm
    assert primal == reading_both
    semiprimal = sorted(k for k, r in verdicts.items() if r.verdict == "semiprimal")
    print(f"criterion 9: pass  (primal={sorted(primal)}, semiprimal={semiprimal}, "
          f"matching reading: dm-and-dp)")


def test_criterion_10_amalgamation_decide_vs_brute_force():
    rows = []
    variety_keys = [[k] for k in SIMPLES] + [["D1", "D2", "D3"]] + \
        [list(catalog.family("C10dm"))]
    obstructed = 0
    for gens in variety_keys:
        v = closure(gens, "rdqdstsh1")
        for row in survey(v, oracle=True):
            rows.append(row)
            assert row.consistent, (gens, row.amalgam)
            # the oracle also confirms every witness the scan found, and
            # both witnesses pass a check that shares no code with the search
            if row.decided.kind == "witness":
                brute = brute_force_amalgamation(row.amalgam, v)
                assert brute.kind == "witness", (gens, row.amalgam)
                assert witness_holds(row.amalgam, row.decided.witness), (gens, row.amalgam)
                assert witness_holds(row.amalgam, brute.witness), (gens, row.amalgam)
            else:
                assert row.brute.kind == "inconclusive", (gens, row.amalgam)
            if row.decided.kind == "obstructed":
                obstructed += 1
                assert row.decided.reasons  # certificate present
    assert len(rows) == 140
    assert obstructed == 14
    full = closure(list(SIMPLES), "rdqdstsh1")
    table = [a for a in enumerate_amalgams(full)]
    print(f"criterion 10: pass  ({len(rows)} amalgams decide==brute, "
          f"{obstructed} obstructed with certificates; "
          f"reference claim of universal AP does not match the computed table "
          f"({len(table)} amalgams over the full ambient)")


def test_criterion_11_level2_stone_counterexample_search():
    t0 = time.monotonic()
    outcome = find_stone_counterexample_level2()
    elapsed = time.monotonic() - t0
    # a completed search reporting "none" would falsify the archived model
    assert outcome.status == "found", outcome.status
    a = outcome.algebra
    for suite in ("SH", "DQD", "DM", "L2", "R"):
        assert satisfies_suite(a, suite).holds, suite
    assert not satisfies_suite(a, "St").holds
    assert not satisfies_suite(a, "L1").holds  # level exactly 2
    archived = json.loads((GOLDEN / "search" / "double-diamond-level2.json").read_text())
    assert to_json_dict(a) == archived
    print(f"criterion 11: pass  (counterexample on the 7-element lattice, "
          f"verified against the archived table, {elapsed:.2f}s)")


def test_criterion_12_parser_and_evaluator_properties():
    rng = random.Random(826)
    for _ in range(1000):
        t = random_term(rng, rng.randint(1, 5))
        assert parse_term(pretty(t)) == normalize(t)
    # desugaring soundness on every catalog simple
    for key in SIMPLES:
        a = catalog.get(key)
        for _ in range(40):
            t = random_term(rng, rng.randint(1, 4))
            env = {v: rng.randrange(a.size) for v in ("x", "y", "z")}
            assert eval_term(a, t, env) == eval_term(a, desugar(t), env)
    # evaluation commutes with every subalgebra embedding from criterion 5
    pairs = _subalgebra_embeddings()
    checked = 0
    for sub, parent in pairs:
        for m in (e for e in find_morphisms(sub, parent) if len(set(e)) == len(e)):
            for _ in range(10):
                t = random_term(rng, rng.randint(1, 4))
                env = {v: rng.randrange(sub.size) for v in ("x", "y", "z")}
                image_env = {v: m[i] for v, i in env.items()}
                assert m[eval_term(sub, t, env)] == eval_term(parent, t, image_env)
                checked += 1
    assert checked >= 250
    print(f"criterion 12: pass  (1000 roundtrips, desugaring on 25 algebras, "
          f"{checked} hom-commuting checks)")
