from __future__ import annotations

import dataclasses
import sys
from functools import lru_cache
from itertools import combinations_with_replacement, product as iproduct
from types import SimpleNamespace

import pytest

from shw import amalgamation, catalog, varieties
from shw.algebra import product, subalgebra
from shw.amalgamation import (
    Amalgam,
    Verdict,
    Witness,
    brute_force_amalgamation,
    decide_amalgamation,
    enumerate_amalgams,
    survey,
)
from shw.errors import InputError
from shw.structure import all_subuniverses, find_morphisms
from shw.varieties import AMBIENTS, closure, embeddings, homomorphisms


def _variety(*gens: str):
    return closure(gens, "rdqdstsh1")


def _embeds(source, factors, mapping) -> bool:
    """Is mapping an injective homomorphism of source into the catalog
    algebra factors[0], or into factors[0] x factors[1]?  A product is
    checked component by component against its factors' tables, its
    element i * |T2| + j being (i, j); the tables are read with plain
    loops."""
    n = source.size
    if len(mapping) != n or len(set(mapping)) != n:
        return False
    width = factors[-1].size
    comps = [mapping] if len(factors) == 1 else [[v // width for v in mapping],
                                                 [v % width for v in mapping]]
    for t, h in zip(factors, comps):
        if not all(0 <= v < t.size for v in h):
            return False
        if h[source.bot] != t.bot or h[source.top] != t.top:
            return False
        if (source.neg is None) != (t.neg is None):
            return False
        if source.neg is not None and any(h[source.neg[x]] != t.neg[h[x]]
                                          for x in range(n)):
            return False
        for s_tab, t_tab in ((source.join, t.join), (source.meet, t.meet),
                             (source.arrow, t.arrow)):
            for x in range(n):
                for y in range(n):
                    if h[s_tab[x][y]] != t_tab[h[x]][h[y]]:
                        return False
    return True


def witness_holds(am, w) -> bool:
    """Are both maps of the witness embeddings into its target, and do
    they agree on the base: f(into_left(x)) == g(into_right(x))?  Checked
    on the mapping tuples and the catalog tables, with no code of
    ``shw.structure`` or ``shw.varieties``."""
    factors = [catalog.get(key) for key in w.target.split(" x ")]
    f, g = w.from_left, w.from_right
    return (_embeds(catalog.get(am.left), factors, f)
            and _embeds(catalog.get(am.right), factors, g)
            and all(f[i] == g[j] for i, j in zip(am.into_left, am.into_right)))


def _find(ams, base, left, right):
    hits = [a for a in ams if (a.base, a.left, a.right) == (base, left, right)]
    assert hits, f"no amalgam ({base}; {left}, {right})"
    return hits


def test_two_element_variety_has_one_amalgam():
    v = _variety("2e")
    ams = enumerate_amalgams(v)
    assert len(ams) == 1
    a = ams[0]
    assert (a.base, a.left, a.right) == ("2e", "2e", "2e")
    assert a.into_left == (0, 1) and a.into_right == (0, 1)
    verdict = decide_amalgamation(a, v)
    assert verdict.kind == "witness" and verdict.witness.target == "2e"
    assert brute_force_amalgamation(a, v).kind == "witness"


def test_rigid_chain_only_degenerate_amalgam():
    # L5dm has no proper subalgebra and no nontrivial automorphism, so the
    # singleton variety admits exactly the identity amalgam
    v = _variety("L5dm")
    assert v.members() == ("L5dm",)
    ams = enumerate_amalgams(v)
    assert len(ams) == 1
    assert ams[0].into_left == (0, 1, 2)


def test_enumeration_dedups_by_base_automorphism():
    # D1 has one nontrivial automorphism (the coatom swap); the four
    # embedding pairs D1 => D1 collapse to two orbits
    v = _variety("D1")
    assert v.members() == ("2bare", "D1")
    ams = enumerate_amalgams(v)
    assert len(ams) == 6
    self_ams = _find(ams, "D1", "D1", "D1")
    assert sorted(a.into_right for a in self_ams) == [
        (0, 1, 2, 3),
        (0, 1, 3, 2),
    ]
    for a in self_ams:
        assert a.into_left == (0, 1, 2, 3)


def test_mixed_variety_enumeration():
    v = _variety("L1dm", "D2")
    assert v.members() == ("2e", "L1dm", "D2")
    ams = enumerate_amalgams(v)
    assert len(ams) == 12
    _find(ams, "2e", "L1dm", "D2")


def test_identity_witness():
    v = _variety("L1dm")
    a = _find(enumerate_amalgams(v), "2e", "L1dm", "L1dm")[0]
    verdict = decide_amalgamation(a, v)
    assert verdict.kind == "witness"
    w = verdict.witness
    assert w.target == "L1dm"
    assert w.from_left == (0, 1, 2) and w.from_right == (0, 1, 2)
    assert witness_holds(a, w)


def test_inclusion_witness():
    v = _variety("D2")
    a = _find(enumerate_amalgams(v), "2e", "2e", "D2")[0]
    verdict = decide_amalgamation(a, v)
    assert verdict.kind == "witness"
    w = verdict.witness
    assert w.target == "D2"
    assert w.from_left == (0, 1)          # 2e into {0,1} of D2
    assert w.from_right == (0, 1, 2, 3)   # identity on D2
    assert witness_holds(a, w)


def test_incompatible_chains_are_obstructed():
    v = _variety("L1dm", "L2dm")
    a = _find(enumerate_amalgams(v), "2e", "L1dm", "L2dm")[0]
    verdict = decide_amalgamation(a, v)
    assert verdict.kind == "obstructed"
    assert verdict.reasons == (
        ("2e", "no embedding of L1dm"),
        ("L1dm", "no embedding of L2dm"),
        ("L2dm", "no embedding of L1dm"),
    )
    # the oracle cannot refute, only fail to find
    assert brute_force_amalgamation(a, v).kind == "inconclusive"


C10DM_OBSTRUCTED = {
    ("2e", "L1dm", "L2dm"), ("2e", "L1dm", "L3dm"), ("2e", "L1dm", "L4dm"),
    ("2e", "L2dm", "L1dm"), ("2e", "L2dm", "L3dm"), ("2e", "L2dm", "L4dm"),
    ("2e", "L3dm", "L1dm"), ("2e", "L3dm", "L2dm"), ("2e", "L3dm", "L4dm"),
    ("2e", "L4dm", "L1dm"), ("2e", "L4dm", "L2dm"), ("2e", "L4dm", "L3dm"),
    ("2bare", "L9dm", "L10dm"), ("2bare", "L10dm", "L9dm"),
}


def _brute_agrees(row, v) -> bool:
    """The oracle finds a valid extension exactly where the scan does,
    and the scan's witness is valid."""
    brute = row.brute or brute_force_amalgamation(row.amalgam, v)
    if row.decided.kind == "witness":
        return (witness_holds(row.amalgam, row.decided.witness)
                and brute.kind == "witness" and witness_holds(row.amalgam, brute.witness))
    return brute.kind == "inconclusive"


def test_c10dm_survey():
    v = _variety(*catalog.family("C10dm"))
    rows = survey(v, oracle=True)
    assert len(rows) == 44
    obstructed = {
        (r.amalgam.base, r.amalgam.left, r.amalgam.right)
        for r in rows if r.decided.kind == "obstructed"
    }
    assert obstructed == C10DM_OBSTRUCTED
    for r in rows:
        assert r.consistent and _brute_agrees(r, v)
        assert (r.brute is None) == (r.decided.kind == "witness")
        if r.decided.kind == "witness":
            assert r.decided.witness.target in v.members()
    assert sum(r.decided.kind != "witness" for r in rows) == 14


def test_singleton_varieties_decide_and_brute_agree():
    total = 0
    for key in catalog.family("all-simples"):
        v = _variety(key)
        rows = survey(v)
        total += len(rows)
        assert all(r.consistent and _brute_agrees(r, v) for r in rows)
        # singleton-generated subvarieties all amalgamate
        assert all(r.decided.kind == "witness" for r in rows)
    assert total == 96 - 13  # diamond variety contributes the rest


def test_diamond_variety_has_ap():
    v = _variety("D1", "D2", "D3")
    rows = survey(v)
    assert len(rows) == 13
    assert all(r.consistent and _brute_agrees(r, v)
               and r.decided.kind == "witness" for r in rows)


def test_survey_runs_the_oracle_only_on_obstructed_rows():
    v = _variety("L1dm", "L2dm")
    plain, checked = survey(v), survey(v, oracle=True)
    assert [r.decided for r in plain] == [r.decided for r in checked]
    assert all(r.brute is None for r in plain)
    assert [r.brute is not None for r in checked] == [
        r.decided.kind == "obstructed" for r in checked]
    assert all(r.consistent for r in plain + checked)
    # an oracle that finds what the scan ruled out is a contradiction
    r = next(r for r in checked if r.brute is not None)
    found = Verdict("witness")
    assert not dataclasses.replace(r, brute=found).consistent


def test_full_ambient_verdict_table():
    v = _variety(*catalog.family("all-simples"))
    ams = enumerate_amalgams(v)
    assert len(ams) == 161
    obstructed = [a for a in ams if decide_amalgamation(a, v).kind != "witness"]
    assert len(obstructed) == 92


def test_tampered_witness_fails_validation():
    v = _variety("D2")
    a = _find(enumerate_amalgams(v), "2e", "2e", "D2")[0]
    w = decide_amalgamation(a, v).witness
    flipped = Witness(w.target, w.from_left, (1, 0, 2, 3))
    assert witness_holds(a, w) and not witness_holds(a, flipped)
    # a projection of 2e x 2e preserves every operation but is not one-to-one
    two = catalog.get("2e")
    square = product(two, two)
    assert _embeds(square, [two, two], (0, 1, 2, 3))
    assert not _embeds(square, [two], (0, 0, 1, 1))


def _ambient_surveys():
    """The varieties `amalgam check --all-subvarieties-of A` surveys, in
    its order, for A = rdqdstsh1, rdmsh1 and rdpcsh1."""
    return [_variety(*gens) for amb in ("rdqdstsh1", "rdmsh1", "rdpcsh1")
            for keys in (AMBIENTS[amb].keys,)
            for gens in [(k,) for k in keys] + [keys]]


@lru_cache(maxsize=None)
def _plain_embeddings(skey: str, tkey: str) -> list[tuple[int, ...]]:
    """Every embedding of the catalog algebra skey into tkey, sorted: each
    map of the elements tried with ``_embeds``'s plain loops."""
    s, t = catalog.get(skey), catalog.get(tkey)
    return [m for m in iproduct(range(t.size), repeat=s.size) if _embeds(s, [t], m)]


def _first_agreeing_pair(am, tkey: str) -> tuple:
    """The first pair (f, g), in sorted order, of embeddings of the left
    and right algebras into tkey with f(into_left(x)) == g(into_right(x))."""
    for f in _plain_embeddings(am.left, tkey):
        for g in _plain_embeddings(am.right, tkey):
            if all(f[i] == g[j] for i, j in zip(am.into_left, am.into_right)):
                return f, g
    return None


def test_every_surveyed_witness_passes_the_independent_check():
    # the scan's witness on each witness row, and the oracle's witness
    # for the same amalgam; obstructed rows stay without one.  The scan's
    # witness is also the first agreeing pair of embeddings into its target
    surveys, checked = _ambient_surveys(), 0
    assert len(surveys) == 26 + 16 + 13
    for v in surveys:
        for r in survey(v, oracle=True):
            if r.decided.kind != "witness":
                assert r.brute.kind == "inconclusive", r.amalgam
                continue
            w = r.decided.witness
            assert (w.from_left, w.from_right) == \
                _first_agreeing_pair(r.amalgam, w.target), r.amalgam
            brute = brute_force_amalgamation(r.amalgam, v)
            assert brute.kind == "witness", r.amalgam
            for w in (r.decided.witness, brute.witness):
                assert witness_holds(r.amalgam, w), (r.amalgam, w)
                checked += 1
    assert checked == 616


def test_membership_precondition():
    v = _variety("L1dm")
    a = _find(enumerate_amalgams(_variety("D2")), "2e", "2e", "D2")[0]
    for procedure in (decide_amalgamation, brute_force_amalgamation):
        with pytest.raises(InputError, match="D2 is not in the variety"):
            procedure(a, v)


@lru_cache(maxsize=None)
def _injective(a, b) -> list[tuple[int, ...]]:
    """The embeddings of a into b, as the search of b finds them."""
    return [m for m in find_morphisms(a, b) if len(set(m)) == len(m)]


def test_product_embeddings_are_injective_pairings_of_factor_homomorphisms(
        monkeypatch):
    # the embeddings derived from the factor homomorphisms, against the
    # search of the built product they replace
    members = AMBIENTS["rdqdstsh1"].keys
    nonempty = 0
    for t1, t2 in combinations_with_replacement(members, 2):
        big = product(catalog.get(t1), catalog.get(t2))
        for s in members:
            got = embeddings(s, t1, t2)
            want = _injective(catalog.get(s), big)
            assert list(got) == want, (s, t1, t2)
            nonempty += bool(want)
    assert nonempty == 99
    # into one key, the embeddings are the injective homomorphisms
    for s in catalog.keys():
        for t in catalog.keys():
            want = _injective(catalog.get(s), catalog.get(t))
            assert list(embeddings(s, t)) == want, (s, t)
    # a non-simple source: the homomorphisms out of 2e x 2e are the two
    # projections onto 2e, not embeddings, and they pair into the identity
    # and the swap of 2e x 2e
    square = product(catalog.get("2e"), catalog.get("2e"))
    monkeypatch.setitem(catalog._CATALOG, "2e^2", square)
    monkeypatch.setattr(varieties, "homomorphisms", homomorphisms.__wrapped__)
    assert varieties.homomorphisms("2e^2", "2e") == ((0, 0, 1, 1), (0, 1, 0, 1))
    got = list(embeddings.__wrapped__("2e^2", "2e", "2e"))
    assert got == [(0, 1, 2, 3), (0, 2, 1, 3)]
    assert got == _injective(square, square)


def test_oracle_needs_both_pairings_injective(monkeypatch):
    # every side of a catalog amalgam is simple, so its homomorphisms are
    # one-to-one and the oracle's injectivity tests never decide; here the
    # right side is 2e^2 = 2e x 2e, over 2e by the diagonal.  Into 2e its
    # homomorphisms are the two projections: each agrees with the identity
    # of 2e on the base, but no target before 2e^2 itself takes 2e^2 one
    # to one
    square = product(catalog.get("2e"), catalog.get("2e"))
    monkeypatch.setitem(catalog._CATALOG, "2e^2", square)
    homs = lru_cache(maxsize=None)(homomorphisms.__wrapped__)
    monkeypatch.setattr(varieties, "homomorphisms", homs)
    monkeypatch.setattr(amalgamation, "homomorphisms", homs)
    monkeypatch.setattr(amalgamation, "embeddings",
                        lru_cache(maxsize=None)(embeddings.__wrapped__))
    am = Amalgam("2e", "2e", "2e^2", (0, 1), (0, 3))
    got = brute_force_amalgamation(am, SimpleNamespace(members=lambda: ("2e", "2e^2")))
    assert got.kind == "witness" and got.witness.target == "2e^2"
    assert witness_holds(am, got.witness)


def test_oracle_builds_no_product_without_a_witness(monkeypatch):
    # every amalgam the survey hands the oracle is obstructed, and comes
    # back empty; no product is built, in any module that holds
    # ``algebra.product``
    built = []
    for name, module in list(sys.modules.items()):
        if name.startswith("shw") and getattr(module, "product", None) is product:
            monkeypatch.setattr(module, "product",
                                lambda *a: built.append(a) or product(*a))
    varieties.homomorphisms.cache_clear()
    varieties.embeddings.cache_clear()
    rows = survey(_variety(*AMBIENTS["rdqdstsh1"].keys), oracle=True)
    assert sum(r.brute is not None for r in rows) == 92
    assert all(r.consistent for r in rows)
    assert built == []


def _reference_oracle(am, v, candidates: dict) -> tuple:
    """The oracle as a search of every subalgebra of every product, for
    embeddings of the left and right algebras that agree on the base:
    (kind, target, left mapping, right mapping), with ``candidates``
    memoising each product's subalgebras."""
    members = v.members()
    n = len(am.into_left)
    left, right = catalog.get(am.left), catalog.get(am.right)
    for keys in [(k,) for k in members] + list(
            combinations_with_replacement(members, 2)):
        if keys not in candidates:
            factors = [catalog.get(k) for k in keys]
            big = factors[0] if len(keys) == 1 else product(*factors)
            candidates[keys] = [subalgebra(big, s) if len(s) != big.size else big
                                for s in all_subuniverses(big)]
        for cand in candidates[keys]:
            gs = _injective(right, cand)
            for f in _injective(left, cand):
                agree = [g for g in gs if all(g[am.into_right[x]] == f[am.into_left[x]]
                                              for x in range(n))]
                if agree:
                    return "witness", cand.name, f, agree[0]
    return "inconclusive", None, None, None


def test_oracle_matches_a_fixed_search_on_every_surveyed_amalgam():
    # every amalgam of `amalgam check --all-subvarieties-of A`, witness
    # rows included: the survey only hands the oracle obstructed rows,
    # which never come back found
    varieties = {v.bits: v for v in _ambient_surveys()}
    candidates: dict = {}
    kinds = []
    for v in varieties.values():
        for am in enumerate_amalgams(v):
            got = brute_force_amalgamation(am, v)
            w = got.witness
            assert (got.kind, w and w.target, w and w.from_left,
                    w and w.from_right) == _reference_oracle(am, v, candidates)
            kinds.append(got.kind)
    assert kinds.count("witness") > 0 and kinds.count("inconclusive") > 0
