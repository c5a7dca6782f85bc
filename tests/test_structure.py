from __future__ import annotations

from itertools import combinations_with_replacement
from itertools import product as iproduct

import numpy as np
import pytest

from shw import catalog
from shw.algebra import FiniteAlgebra, product, subalgebra
from shw.errors import InputError
from shw.modelsearch import bounded_distributive_lattices, lattice_reduct
from shw.structure import (
    CepReport,
    Morphism,
    all_subalgebras,
    all_subuniverses,
    automorphisms,
    classify_primality,
    congruence_join,
    congruence_lattice,
    congruence_meet,
    find_morphisms,
    has_cep,
    is_congruence,
    is_directly_indecomposable,
    is_simple,
    is_subdirectly_irreducible,
    principal_congruence,
    restrict_partition,
    subuniverse_closure,
)


def all_partitions(n):
    """Every partition of range(n) in normalized block form (oracle helper)."""
    if n == 0:
        yield ()
        return
    for rest in all_partitions(n - 1):
        k = max(rest) + 1 if rest else 0
        for blk in range(k + 1):
            yield rest + (blk,)


def brute_congruences(a: FiniteAlgebra):
    return sorted(p for p in all_partitions(a.size) if is_congruence(a, p))


def test_subuniverse_closure_from_constants():
    l1 = catalog.get("L1dm")
    assert subuniverse_closure(l1) == frozenset({0, 2})  # 0 -> 1 = 1 stays boolean
    l5 = catalog.get("L5dm")
    assert subuniverse_closure(l5) == frozenset({0, 1, 2})  # 0 -> 1 = a generates
    with pytest.raises(InputError):
        subuniverse_closure(l1, [7])


def test_all_subuniverses_l6dp_only_whole():
    subs = all_subuniverses(catalog.get("L6dp"))
    assert subs == [frozenset({0, 1, 2})]


def test_all_subuniverses_sorted_and_closed():
    d2 = catalog.get("D2")
    subs = all_subuniverses(d2)
    assert subs == sorted(subs, key=lambda s: (len(s), sorted(s)))
    for s in subs:
        assert subuniverse_closure(d2, s) == s
    assert frozenset({0, 1}) in subs and frozenset(range(4)) in subs


def _fixpoint_subuniverses(a):
    """Every subuniverse, each closed from scratch by applying every
    operation to every pair until nothing new appears (oracle helper)."""
    def close(s):
        s = set(s) | {a.bot, a.top}
        while True:
            new = {t[x][y] for t in a.binary_tables for x in s for y in s}
            if a.neg is not None:
                new |= {a.neg[x] for x in s}
            if new <= s:
                return frozenset(s)
            s |= new

    found = {close(())}
    frontier = list(found)
    while frontier:
        s = frontier.pop()
        for x in set(range(a.size)) - s:
            t = close(s | {x})
            if t not in found:
                found.add(t)
                frontier.append(t)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def test_all_subuniverses_matches_a_from_scratch_fixpoint():
    simples = [catalog.get(k) for k in catalog.family("all-simples")]
    algebras = [catalog.get(k) for k in catalog.keys()]
    algebras += [product(a, b) for a, b in combinations_with_replacement(simples, 2)]
    for a in algebras:
        assert all_subuniverses(a) == _fixpoint_subuniverses(a), a.name


def test_subalgebra_of_s1_member_is_two():
    l1 = catalog.get("L1dm")
    two = subalgebra(l1, [0, 2])
    e2 = catalog.get("2e")
    assert two.size == e2.size
    assert [m for m in find_morphisms(two, e2) if m.is_injective]


def test_find_morphisms_none_between_incompatible_chains():
    assert find_morphisms(catalog.get("L1dm"), catalog.get("L2dm")) == []


def test_find_morphisms_embedding_2e():
    embs = [m for m in find_morphisms(catalog.get("2e"), catalog.get("L3dm"))
            if m.is_injective]
    assert [m.mapping for m in embs] == [(0, 2)]
    assert all(m.check() for m in embs)


def _checked_maps(a, b, fixed=None) -> list[tuple[int, ...]]:
    """Every map a -> b that preserves both constants and every operation,
    by brute force over all of them (``fixed``: element -> image, the
    others free), in lexicographic order.  One numpy comparison per
    operation decides every candidate map at once; nothing here is shared
    with the library's own preservation check."""
    assert (a.has_arrow, a.has_neg) == (b.has_arrow, b.has_neg)
    free = [range(b.size) if fixed is None or x not in fixed else (fixed[x],)
            for x in range(a.size)]
    maps = np.array(list(iproduct(*free)), dtype=np.intp)
    ok = (maps[:, a.bot] == b.bot) & (maps[:, a.top] == b.top)
    for ta, tb in zip(a.binary_tables, b.binary_tables):
        # h(x op y) against h(x) op h(y), for every x and y of every map
        ta, tb = np.asarray(ta), np.asarray(tb)
        ok &= (maps[:, ta] == tb[maps[:, :, None], maps[:, None, :]]).all(axis=(1, 2))
    if a.neg is not None:
        ok &= (maps[:, np.asarray(a.neg)] == np.asarray(b.neg)[maps]).all(axis=1)
    return [tuple(int(v) for v in m) for m in maps[ok]]


def test_find_morphisms_matches_brute_force():
    # the search against a numpy oracle over every map: every pair of
    # catalog keys of one signature with at most 256 maps, and a product
    # of two simples as the target, as the amalgam oracle builds them
    algebras = [catalog.get(k) for k in catalog.keys()]
    target = product(catalog.get("2e"), catalog.get("L1dm"))
    pairs = [(a, b) for a in algebras for b in [*algebras, target]
             if (a.has_arrow, a.has_neg) == (b.has_arrow, b.has_neg)
             and b.size ** a.size <= 256]
    found = 0
    for a, b in pairs:
        got = [m.mapping for m in find_morphisms(a, b)]
        assert got == _checked_maps(a, b), (a.name, b.name)
        found += bool(got)
    assert (len(pairs), found) == (791, 98), (len(pairs), found)
    # the double diamond's endomorphisms: 0 and 1 are fixed, 7^5 maps
    dd = catalog.double_diamond()
    got = [m.mapping for m in find_morphisms(dd, dd)]
    assert got == _checked_maps(dd, dd, {dd.bot: dd.bot, dd.top: dd.top})
    assert len(got) == 36


def test_automorphisms_are_the_injective_endomorphisms():
    # the permutation candidates against the homomorphism candidates,
    # mappings and order alike: every catalog entry, every bounded
    # distributive lattice of size <= 6 and the 8-element Boolean lattice
    two = lattice_reduct(catalog.get("2"))
    algebras = [catalog.get(k) for k in catalog.keys()]
    algebras += bounded_distributive_lattices(6)
    algebras.append(product(product(two, two), two))
    for a in algebras:
        injective = [m.mapping for m in find_morphisms(a, a) if m.is_injective]
        assert [m.mapping for m in automorphisms(a)] == injective, a.name
    assert len(automorphisms(algebras[-1])) == 6


def test_automorphism_groups():
    # the a <-> b swap preserves the D1/D2 tables, D3 is rigid
    assert [m.mapping for m in automorphisms(catalog.get("D1"))] == [
        (0, 1, 2, 3), (0, 1, 3, 2)]
    assert len(automorphisms(catalog.get("D2"))) == 2
    assert len(automorphisms(catalog.get("D3"))) == 1
    assert len(automorphisms(catalog.get("L4dm"))) == 1


def test_morphism_check_rejects_bad_map():
    l1 = catalog.get("L1dm")
    assert not Morphism(l1, l1, (0, 0, 2)).check()  # collapses a without congruence


def test_morphism_check_needs_both_constants():
    # a constant map of a bare lattice preserves join and meet, not 0 and 1
    two = lattice_reduct(catalog.get("2"))
    for v in (two.bot, two.top):
        m = Morphism(two, two, (v, v))
        assert all(m(t[x][y]) == t[m(x)][m(y)] for t in two.binary_tables
                   for x in range(2) for y in range(2))
        assert not m.check()


@pytest.mark.parametrize("key", ["2e", "L1dm", "L7dp", "D1", "D2", "D3"])
def test_congruence_lattice_matches_brute_force(key):
    a = catalog.get(key)
    assert congruence_lattice(a) == brute_congruences(a)


def test_congruence_lattice_of_square_matches_brute_force():
    sq = product(catalog.get("L1dm"), catalog.get("L1dm"))
    cons = congruence_lattice(sq)
    assert cons == brute_congruences(sq)
    # exactly the four congruences of a product of two simple factors
    assert len(cons) == 4
    left = tuple(i // 3 for i in range(9))   # kernel of first projection
    right = tuple(i % 3 for i in range(9))
    assert _norm(left) in cons and _norm(right) in cons


def _norm(p):
    seen = {}
    return tuple(seen.setdefault(b, len(seen)) for b in p)


def test_principal_congruence_collapses_simple():
    d3 = catalog.get("D3")
    for x in range(4):
        for y in range(x + 1, 4):
            assert principal_congruence(d3, x, y) == (0, 0, 0, 0)


def test_congruence_join_meet():
    sq = product(catalog.get("2e"), catalog.get("2e"))
    cons = congruence_lattice(sq)
    delta = tuple(range(4))
    nabla = (0,) * 4
    nontrivial = [p for p in cons if p not in (delta, nabla)]
    p, q = nontrivial
    assert congruence_meet(p, q) == delta
    assert congruence_join(sq, p, q) == nabla


def test_simplicity_and_si_agree_on_catalog_and_subalgebras():
    for key in catalog.family("all-simples"):
        a = catalog.get(key)
        assert is_simple(a)
        assert is_subdirectly_irreducible(a)
        for b in all_subalgebras(a):
            assert is_simple(b) == is_subdirectly_irreducible(b)
            assert is_simple(b)  # all subalgebras of catalog simples are simple


def test_trivial_algebra_not_simple():
    one = FiniteAlgebra("one", ("0",), ((0,),), ((0,),), ((0,),), (0,), 0, 0)
    assert not is_simple(one)
    assert not is_subdirectly_irreducible(one)
    assert not is_directly_indecomposable(one)


def test_is_simple_agrees_with_the_congruence_count():
    # the principal-congruence test against the whole congruence lattice
    checked = simple = 0
    for key in catalog.keys():
        a = catalog.get(key)
        for b in (a, *all_subalgebras(a)):
            assert is_simple(b) == (len(congruence_lattice(b)) == 2), (key, b.name)
            checked += 1
            simple += is_simple(b)
    assert checked > 100 and 0 < simple < checked, (checked, simple)


def test_direct_indecomposability():
    assert is_directly_indecomposable(catalog.get("D1"))
    sq = product(catalog.get("L1dm"), catalog.get("2e"))
    assert not is_directly_indecomposable(sq)


def test_restrict_partition():
    assert restrict_partition((0, 1, 2, 2), [0, 3]) == (0, 1)
    assert restrict_partition((0, 0, 1), [0, 1]) == (0, 0)


def test_cep_for_all_catalog_simples():
    for key in catalog.family("all-simples"):
        r = has_cep(catalog.get(key))
        assert isinstance(r, CepReport) and r.ok, (key, r.failures)


def test_primality_classification():
    assert classify_primality(catalog.get("2e")).verdict == "primal"
    assert classify_primality(catalog.get("2bare")).verdict == "primal"
    assert classify_primality(catalog.get("D3")).verdict == "primal"
    assert classify_primality(catalog.get("L6dm")).verdict == "primal"
    assert classify_primality(catalog.get("L1dm")).verdict == "semiprimal"
    assert classify_primality(catalog.get("L9dp")).verdict == "semiprimal"
    d1 = classify_primality(catalog.get("D1"))
    assert d1.verdict == "quasiprimal"
    # the a <-> b automorphism shows up as a non-identity internal iso
    assert any(not iso.is_identity for iso in d1.internal_isos)
    assert d1.automorphism_count == 2


def test_primality_requires_simple():
    sq = product(catalog.get("2e"), catalog.get("2e"))
    with pytest.raises(InputError):
        classify_primality(sq)


def test_internal_isos_of_semiprimal_are_identities():
    r = classify_primality(catalog.get("L2dm"))
    assert r.verdict == "semiprimal"
    assert r.internal_isos and all(iso.is_identity for iso in r.internal_isos)
