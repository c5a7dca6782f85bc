"""Subvariety lattices over a fixed ambient list of simple algebras.

In a discriminator-generated setting, subvarieties correspond one-to-one
with sets of simples closed under "embeds into a member".  A subvariety
is therefore represented as a bitset over the ambient key list, and the
subvarieties are counted as the down-sets of the embeddability order.
Embeddability is read off one cached search, ``homomorphisms``, whose
maps are mapping tuples; ``embeddings`` keeps its injective maps into a
key and pairs them into a product of two keys without building it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import prod
from typing import Iterable, Sequence

from . import catalog, structure
from .equations import satisfies_suite
from .errors import InputError


@dataclass(frozen=True)
class Ambient:
    """A named universe of simple algebras, in catalog-family order.

    ``keys`` are the members of the catalog family, or, with a marker
    suite, those members that satisfy it; the filter runs on first use.
    """

    name: str
    family: str
    marker: str | None = None

    @cached_property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for k in catalog.family(self.family) if self.marker is None
                     or satisfies_suite(catalog.get(k), self.marker).holds)

    def bit(self, key: str) -> int:
        try:
            return self.keys.index(key)
        except ValueError:
            raise InputError(f"{key!r} is not in ambient {self.name}") from None


AMBIENTS: dict[str, Ambient] = {a.name: a for a in (
    Ambient("rdqdstsh1", "all-simples"),
    Ambient("rdmsh1", "rdmsh1-simples"),
    Ambient("rdpcsh1", "rdpcsh1-simples"),
    Ambient("rdmh1", "rdmsh1-simples", "SH4"),       # the Heyting members
    Ambient("rdmcmsh1", "rdmsh1-simples", "Co"),     # the commutative members
)}


def get_ambient(name: str) -> Ambient:
    try:
        return AMBIENTS[name]
    except KeyError:
        raise InputError(f"unknown ambient {name!r}; known: {', '.join(sorted(AMBIENTS))}") from None


@lru_cache(maxsize=None)
def _is_simple_key(key: str) -> bool:
    return structure.is_simple(catalog.get(key))


@lru_cache(maxsize=None)
def homomorphisms(skey: str, tkey: str) -> tuple[tuple[int, ...], ...]:
    """The sorted mapping tuples of every homomorphism of the catalog
    algebra skey into tkey: the one morphism search of the amalgam layer.
    Out of a simple algebra these are embeddings, but the oracle, which
    pairs them into embeddings of products, must not assume simplicity."""
    return tuple(structure.find_morphisms(catalog.get(skey), catalog.get(tkey)))


def injective_pairing(f: Sequence[int], g: Sequence[int]) -> bool:
    """Is x -> (f(x), g(x)) one-to-one?  With f = g: is f?"""
    return len(set(zip(f, g))) == len(f)


@lru_cache(maxsize=None)
def embeddings(skey: str, *tkeys: str) -> tuple[tuple[int, ...], ...]:
    """The sorted mapping tuples of every embedding of the catalog algebra
    skey into one catalog key or the product of two, read off
    ``homomorphisms``: the injective ones into a key, and the injective
    pairings <h1, h2> into T1 x T2, at h1(x) * |T2| + h2(x) as in
    ``algebra.product``.  No product is built."""
    if len(tkeys) == 1:
        return tuple(h for h in homomorphisms(skey, *tkeys) if injective_pairing(h, h))
    width = catalog.get(tkeys[1]).size
    return tuple(sorted(tuple(x * width + y for x, y in zip(h1, h2))
                        for h1 in homomorphisms(skey, tkeys[0])
                        for h2 in homomorphisms(skey, tkeys[1])
                        if injective_pairing(h1, h2)))


def embeddable(skey: str, tkey: str) -> bool:
    """Does the catalog algebra skey embed into tkey?"""
    return bool(embeddings(skey, tkey))


@dataclass(frozen=True)
class ClosedSimpleSet:
    """A subvariety, as the closed set of simples it contains."""

    ambient: str
    bits: int

    def members(self) -> tuple[str, ...]:
        """The member keys in the ambient's order, built once per set."""
        return self._members

    @cached_property
    def _members(self) -> tuple[str, ...]:
        amb = get_ambient(self.ambient)
        return tuple(k for i, k in enumerate(amb.keys) if self.bits >> i & 1)

    def __contains__(self, key: str) -> bool:
        return bool(self.bits >> get_ambient(self.ambient).bit(key) & 1)

    def __len__(self) -> int:
        return bin(self.bits).count("1")


def in_variety(key: str, generators: Sequence[str]) -> bool:
    """Membership of one simple in the variety generated by other simples."""
    for k in (key, *generators):
        if not _is_simple_key(k):
            raise InputError(f"{k!r} is not simple")
    return any(embeddable(key, g) for g in generators)


def closure(keys: Iterable[str], ambient: str) -> ClosedSimpleSet:
    """Close a generator set under embeddability within the named ambient."""
    amb = get_ambient(ambient)
    below = _order_masks(amb)[0]
    bits = 0
    for g in keys:
        i = amb.bit(g)  # raises for foreign keys
        bits |= 1 << i | below[i]
    return ClosedSimpleSet(amb.name, bits)


def is_closure(keys: Iterable[str], ambient: str) -> bool:
    """Is the given set already closed under embeddability?"""
    given = frozenset(keys)
    return set(closure(given, ambient).members()) == given


def join(v: ClosedSimpleSet, w: ClosedSimpleSet) -> ClosedSimpleSet:
    _same_ambient(v, w)
    # union of closed sets is closed: membership only looks downward
    return ClosedSimpleSet(v.ambient, v.bits | w.bits)


def meet(v: ClosedSimpleSet, w: ClosedSimpleSet) -> ClosedSimpleSet:
    _same_ambient(v, w)
    return ClosedSimpleSet(v.ambient, v.bits & w.bits)


def _same_ambient(v: ClosedSimpleSet, w: ClosedSimpleSet) -> None:
    if v.ambient != w.ambient:
        raise InputError(f"ambient mismatch: {v.ambient} vs {w.ambient}")


@lru_cache(maxsize=None)
def _order_masks(amb: Ambient) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Strict embeddability as bitmasks over the ambient's keys: ``below[j]``
    holds the other keys that embed into key j, ``above[i]`` its converse."""
    below = tuple(sum(1 << i for i, ki in enumerate(amb.keys)
                      if i != j and embeddable(ki, kj))
                  for j, kj in enumerate(amb.keys))
    return below, _converse(below)


def _converse(rows: Sequence[int]) -> tuple[int, ...]:
    """The converse relation: bit j of row i is bit i of ``rows[j]``."""
    return tuple(sum(1 << j for j, r in enumerate(rows) if r >> i & 1)
                 for i in range(len(rows)))


def down_set_count(below: Sequence[int]) -> int:
    """Count the subsets of range(len(below)) that hold, with each j, every
    i in the bitmask ``below[j]``: the down-sets of its transitive closure.
    A remaining set that comparability does not connect counts as one
    component times the rest; a connected one branches on its most
    comparable member x: out, with all above it, or in, with all below it.
    Counts are memoised on the remaining-set mask."""
    n, down = len(below), list(below)
    for k in range(n):  # Warshall's transitive closure, on bitmask rows
        down = [d | down[k] if d >> k & 1 else d for d in down]
    up = _converse(down)
    near = [d | u for d, u in zip(down, up)]

    @lru_cache(maxsize=None)
    def count(s: int) -> int:
        if not s:
            return 1
        members = [i for i in range(n) if s >> i & 1]
        comp, grown = 0, 1 << members[0]
        while grown != comp:  # grow the component of the first member
            comp = grown
            for i in members:
                if comp >> i & 1:
                    grown |= near[i] & s
        if comp != s:
            return count(comp) * count(s & ~comp)
        x = max(members, key=lambda i: (near[i] & s).bit_count())
        return count(s & ~(up[x] | 1 << x)) + count(s & ~(down[x] | 1 << x))

    return count((1 << n) - 1)


def subvariety_count(ambient: str) -> int:
    """Count the subvarieties: the down-sets of embeddability."""
    return down_set_count(_order_masks(get_ambient(ambient))[0])


# -- decomposition into pointed/free blocks ----------------------------------

@dataclass(frozen=True)
class ShapeFactor:
    """One factor of a product decomposition of the subvariety lattice.

    kind "1+B": a pointed block (a common least member below `atoms`
    incomparable others); kind "B": a block of isolated members.
    """

    kind: str  # "1+B" or "B"
    atoms: int

    def cardinality(self) -> int:
        if self.kind == "1+B":
            return (1 << self.atoms) + 1
        return 1 << self.atoms


@dataclass(frozen=True)
class DecompositionReport:
    """The product shape of an ambient's subvariety lattice, or why none."""

    ambient: str
    ok: bool
    factors: tuple[ShapeFactor, ...]
    groups: tuple[tuple[str, tuple[str, ...]], ...]  # (root key, members above it)
    free: tuple[str, ...]
    detail: str = ""

    def cardinality(self) -> int:
        return prod(f.cardinality() for f in self.factors)


def decompose(ambient: str) -> DecompositionReport:
    """Derive the product shape of the subvariety lattice from embeddings.

    Expects the embeddability order to consist of minimal "roots" sitting
    below otherwise incomparable members, plus isolated members; anything
    else is reported as a failure with the offending pair.
    """
    amb = get_ambient(ambient)
    keys = amb.keys

    def fail(detail: str) -> DecompositionReport:
        return DecompositionReport(amb.name, False, (), (), (), detail)

    below, above = _order_masks(amb)
    for j, k in enumerate(keys):
        if below[j] & above[j]:
            return fail(f"mutual embedding involving {k}")

    roots = [k for j, k in enumerate(keys) if not below[j]]
    groups: dict[str, list[str]] = {}
    for j, k in enumerate(keys):
        if below[j]:
            under = [key for i, key in enumerate(keys) if below[j] >> i & 1]
            if len(under) != 1 or under[0] not in roots:
                return fail(f"{k} sits above {under}, not a single root")
            groups.setdefault(under[0], []).append(k)
    free = tuple(k for k in roots if k not in groups)
    factors = tuple(ShapeFactor("1+B", len(groups[r])) for r in sorted(groups))
    if free:
        factors += (ShapeFactor("B", len(free)),)
    return DecompositionReport(
        amb.name, True, factors,
        tuple((r, tuple(groups[r])) for r in sorted(groups)), free)


def verify_decomposition(ambient: str,
                         claimed: Sequence[ShapeFactor],
                         expected_count: int | None = None) -> DecompositionReport:
    """Check a claimed shape (as a multiset of factors) against the
    computed decomposition, optionally also against an expected count."""
    report = decompose(ambient)
    if not report.ok:
        return report
    shape_key = lambda f: (f.kind, f.atoms)
    if sorted(report.factors, key=shape_key) != sorted(claimed, key=shape_key):
        return replace(report, ok=False,
                       detail=f"claimed {tuple(claimed)} but computed {report.factors}")
    if expected_count is not None and report.cardinality() != expected_count:
        return replace(report, ok=False,
                       detail=f"shape gives {report.cardinality()}, expected {expected_count}")
    return report
