"""Subvariety lattices over a fixed ambient list of simple algebras.

In a discriminator-generated setting, subvarieties correspond one-to-one
with sets of simples closed under "embeds into a member".  A subvariety
is therefore represented as a bitset over the ambient key list, and the
whole subvariety lattice can be counted by scanning all bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import catalog, structure
from .algebra import FiniteAlgebra, product, subalgebra
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
        keys = catalog.family(self.family)
        if self.marker is None:
            return keys
        return tuple(k for k in keys
                     if satisfies_suite(catalog.get(k), self.marker).holds)

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
def product_candidates(keys: tuple[str, ...]) -> tuple[FiniteAlgebra, ...]:
    """A product of one or two catalog simples together with all its
    subalgebras, in ``all_subuniverses`` order (the product itself last)."""
    if len(keys) == 1:
        big = catalog.get(keys[0])
    else:
        big = product(catalog.get(keys[0]), catalog.get(keys[1]))
    subs = structure.all_subuniverses(big)
    return tuple(subalgebra(big, s) if len(s) != big.size else big for s in subs)


@lru_cache(maxsize=None)
def embeddings(skey: str, target: str | tuple[tuple[str, ...], int]
               ) -> tuple[structure.Morphism, ...]:
    """Every embedding of the catalog algebra skey into the target, sorted
    by mapping tuple.

    The target is a catalog key, or ``(keys, i)`` for the i-th algebra of
    ``product_candidates(keys)``.  This is the one embedding cache: the
    decision procedure, the subvariety scans and the brute-force oracle
    share it.
    """
    if isinstance(target, str):
        big = catalog.get(target)
    else:
        keys, i = target
        big = product_candidates(keys)[i]
    return tuple(structure.find_morphisms(catalog.get(skey), big, "embedding"))


def embeddable(skey: str, tkey: str) -> bool:
    """Does the catalog algebra skey embed into tkey?"""
    return bool(embeddings(skey, tkey))


@dataclass(frozen=True)
class ClosedSimpleSet:
    """A subvariety, as the closed set of simples it contains."""

    ambient: str
    bits: int

    def members(self) -> tuple[str, ...]:
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


def closure(keys: Iterable[str], ambient: str | Ambient) -> ClosedSimpleSet:
    """Close a generator set under embeddability within the ambient."""
    amb = ambient if isinstance(ambient, Ambient) else get_ambient(ambient)
    gens = tuple(keys)
    for g in gens:
        amb.bit(g)  # raises for foreign keys
    bits = 0
    for i, k in enumerate(amb.keys):
        if any(embeddable(k, g) for g in gens):
            bits |= 1 << i
    return ClosedSimpleSet(amb.name, bits)


def is_closure(keys: Iterable[str], ambient: str | Ambient) -> bool:
    """Is the given set already closed under embeddability?"""
    amb = ambient if isinstance(ambient, Ambient) else get_ambient(ambient)
    given = frozenset(keys)
    return set(closure(given, amb).members()) == given


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


def _requirement_masks(amb: Ambient) -> dict[int, int]:
    """For each required-set mask, the mask of keys that require it.

    Key j requires every strictly-embeddable key i to be present; keys
    sharing the same requirement are grouped so the bitset scan only
    evaluates a handful of distinct implications.
    """
    grouped: dict[int, int] = {}
    for j, kj in enumerate(amb.keys):
        req = 0
        for i, ki in enumerate(amb.keys):
            if i != j and embeddable(ki, kj):
                req |= 1 << i
        if req:
            grouped[req] = grouped.get(req, 0) | 1 << j
    return grouped


_CHUNK_BITS = 22  # bitsets scanned per numpy pass: 2^22


def subvariety_count(ambient: str | Ambient) -> int:
    """Count closed bitsets by scanning all 2^n of them (numpy, chunked)."""
    amb = ambient if isinstance(ambient, Ambient) else get_ambient(ambient)
    n = len(amb.keys)
    grouped = _requirement_masks(amb)
    total = 0
    chunk = 1 << min(_CHUNK_BITS, n)
    dtype = np.uint32 if n <= 32 else np.uint64
    for base in range(0, 1 << n, chunk):
        ids = np.arange(base, base + chunk, dtype=dtype)
        ok = np.ones(chunk, dtype=bool)
        for req, who in grouped.items():
            triggered = (ids & dtype(who)) != 0
            satisfied = (ids & dtype(req)) == dtype(req)
            ok &= ~triggered | satisfied
        total += int(ok.sum())
    return total


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
    ambient: str
    ok: bool
    factors: tuple[ShapeFactor, ...]
    groups: tuple[tuple[str, tuple[str, ...]], ...]  # (root key, members above it)
    free: tuple[str, ...]
    detail: str = ""

    def cardinality(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.cardinality()
        return out


def decompose(ambient: str | Ambient) -> DecompositionReport:
    """Derive the product shape of the subvariety lattice from embeddings.

    Expects the embeddability order to consist of minimal "roots" sitting
    below otherwise incomparable members, plus isolated members; anything
    else is reported as a failure with the offending pair.
    """
    amb = ambient if isinstance(ambient, Ambient) else get_ambient(ambient)
    keys = amb.keys

    def fail(detail: str) -> DecompositionReport:
        return DecompositionReport(amb.name, False, (), (), (), detail)

    below: dict[str, list[str]] = {}
    for k in keys:
        below[k] = [other for other in keys if other != k and embeddable(other, k)]
        if any(embeddable(k, other) and embeddable(other, k)
               for other in keys if other != k):
            return fail(f"mutual embedding involving {k}")

    roots = [k for k in keys if not below[k]]
    groups: dict[str, list[str]] = {}
    for k in keys:
        if below[k]:
            if len(below[k]) != 1 or below[k][0] not in roots:
                return fail(f"{k} sits above {below[k]}, not a single root")
            groups.setdefault(below[k][0], []).append(k)
    free = tuple(k for k in roots if k not in groups)
    factors = tuple(ShapeFactor("1+B", len(groups[r])) for r in sorted(groups))
    if free:
        factors += (ShapeFactor("B", len(free)),)
    return DecompositionReport(
        amb.name, True, factors,
        tuple((r, tuple(groups[r])) for r in sorted(groups)), free)


def verify_decomposition(ambient: str | Ambient,
                         claimed: Sequence[ShapeFactor],
                         expected_count: int | None = None) -> DecompositionReport:
    """Check a claimed shape (as a multiset of factors) against the
    computed decomposition, optionally also against the bitset count."""
    report = decompose(ambient)
    if not report.ok:
        return report
    shape_key = lambda f: (f.kind, f.atoms)
    if sorted(report.factors, key=shape_key) != sorted(claimed, key=shape_key):
        return DecompositionReport(
            report.ambient, False, report.factors, report.groups, report.free,
            f"claimed {tuple(claimed)} but computed {report.factors}")
    if expected_count is not None and report.cardinality() != expected_count:
        return DecompositionReport(
            report.ambient, False, report.factors, report.groups, report.free,
            f"shape gives {report.cardinality()}, expected {expected_count}")
    return report
