from __future__ import annotations

import pytest

from shw import bases, catalog, equations
from shw.bases import (
    BASE_ENTRIES,
    BaseEntry,
    check_entry,
    get_entry,
    verify_bases,
)
from shw.errors import InputError
from shw.varieties import get_ambient


def rows_for(slug):
    return list(check_entry(get_entry(slug)))


def test_ambient_keys():
    assert get_ambient("rdmsh1").keys == catalog.family("rdmsh1-simples")
    assert get_ambient("rdmh1").keys == ("2e", "L1dm", "D2")
    assert get_ambient("rdmcmsh1").keys == ("2bare", "L10dm", "D1")
    with pytest.raises(InputError):
        get_ambient("nope")
    assert {e.ambient for e in BASE_ENTRIES} <= {"rdmsh1", "rdmh1", "rdmcmsh1"}
    with pytest.raises(InputError, match="'L2dm' is not in ambient rdmh1"):
        check_entry(BaseEntry("foreign", "rdmh1", ("L2dm",), ((),)))


def test_every_entry_with_multiple_bases_agrees_across_alternatives():
    for entry in BASE_ENTRIES:
        rows = check_entry(entry)
        sats = {r.satisfied for r in rows}
        if entry.slug == "arrow-exchange":
            continue  # known discrepancy, pinned below
        assert len(sats) == 1, entry.slug


def test_stone_collapse_entries():
    for r in rows_for("stone-collapse"):
        assert r.ok
        assert set(r.satisfied) == set(catalog.family("rdmsh1-simples"))
    for r in rows_for("stone-collapse-heyting"):
        assert r.ok and set(r.satisfied) == {"2e", "L1dm", "D2"}
    (r,) = rows_for("commutative-join")
    assert r.ok and set(r.satisfied) == {"2bare", "L10dm", "D1"}


def test_boolean_diamonds_all_three_bases():
    rows = rows_for("boolean-diamonds")
    assert len(rows) == 3
    for r in rows:
        assert r.ok
        assert set(r.satisfied) == {"2e", "2bare", "D1", "D2", "D3"}


def test_arrow_top_falsum():
    (r,) = rows_for("arrow-top-falsum")
    assert r.ok
    assert set(r.satisfied) == {"2bare", "L9dm", "L10dm"}


def test_kleene_entries():
    (r,) = rows_for("kleene-chains")
    assert r.ok
    assert set(r.satisfied) == {"2e", "2bare"} | set(catalog.family("C10dm"))
    (r,) = rows_for("kleene-commutative")
    assert r.ok and set(r.satisfied) == {"2bare", "L10dm"}


def test_heyting_and_commutative_diamond_four_bases_each():
    rows = rows_for("heyting-diamond")
    assert len(rows) == 4
    for r in rows:
        assert r.ok and set(r.satisfied) == {"2e", "D2"}
    rows = rows_for("commutative-diamond")
    assert len(rows) == 4
    for r in rows:
        assert r.ok and set(r.satisfied) == {"2bare", "D1"}


def test_arrow_exchange_known_discrepancy_is_pinned():
    # The claimed generator set does not match what the identity carves out:
    # L3dm fails the exchange law and L9dm satisfies it.  The row must carry
    # finite witnesses for both directions.
    (r,) = rows_for("arrow-exchange")
    assert not r.ok
    kinds = {(d.algebra, d.kind) for d in r.discrepancies}
    assert kinds == {("L3dm", "fails-but-inside"), ("L9dm", "satisfies-but-outside")}
    l3 = next(d for d in r.discrepancies if d.algebra == "L3dm")
    assert l3.witness == {"x": "0", "y": "a", "z": "0"}
    l9 = next(d for d in r.discrepancies if d.algebra == "L9dm")
    assert "no embedding" in l9.certificate
    # everything else in the library checks out
    assert all(row.ok for row in verify_bases() if row.slug != "arrow-exchange")


def test_expected_sets_are_is_closures():
    for entry in BASE_ENTRIES:
        for row in check_entry(entry):
            # expected set always contains the generators and their subalgebras
            assert set(entry.generators) <= set(row.expected)
            if "D1" in entry.generators:
                assert "2bare" in row.expected
            if "D2" in entry.generators:
                assert "2e" in row.expected


def test_every_ambient_key_of_the_bases_has_both_tables():
    # the stored identities are decided as one suite, which reads both
    for entry in BASE_ENTRIES:
        for key in get_ambient(entry.ambient).keys:
            a = catalog.get(key)
            assert a.has_arrow and a.has_neg, (entry.slug, key)


def test_each_stored_identity_is_decided_once_per_key(monkeypatch):
    rows = verify_bases()  # builds the ambients, closures and algebras
    bases._key_results.cache_clear()
    passes = []
    results = equations._results

    def counted(prog, a):
        passes.append((prog, a.name))
        return results(prog, a)

    monkeypatch.setattr(equations, "_results", counted)
    assert verify_bases() == rows
    keys = {k for e in BASE_ENTRIES for k in get_ambient(e.ambient).keys}
    assert len(keys) == 15
    assert sorted(name for _, name in passes) == sorted(keys)
    assert len({id(prog) for prog, _ in passes}) == 1
    assert {len(prog.rows) for prog, _ in passes} == {22}  # the distinct identities
    passes.clear()
    assert verify_bases() == rows and passes == []


def test_get_entry():
    assert get_entry("boolean-diamonds").generators == ("D1", "D2", "D3")
    with pytest.raises(InputError):
        get_entry("missing")
