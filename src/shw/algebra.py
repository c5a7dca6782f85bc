"""Finite bounded lattices with an arrow operation and optional dual negation.

An algebra here is a finite set with binary join, meet, arrow, an optional
unary negation, and designated bottom/top elements.  Operation tables are
stored row-major over element indices.  Everything is immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .errors import InputError, SignatureError, StructuralError

Row = tuple[int, ...]
Table = tuple[Row, ...]

# Negation schemes for expanding a bare algebra, keyed by scheme name.
# Values map element labels to element labels; expansion fails if the
# base algebra has elements the scheme does not cover.
NEG_SCHEMES: dict[str, dict[str, str]] = {
    "e": {"0": "1", "1": "0"},
    "dp": {"0": "1", "1": "0", "a": "1"},
    "dm": {"0": "1", "1": "0", "a": "a"},
    "dmorgan4": {"0": "1", "1": "0", "a": "a", "b": "b"},
}


def _int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):  # a bool is no JSON integer
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _as_table(rows: Sequence[Sequence[int]]) -> Table:
    return tuple(tuple(_int(v) for v in row) for row in rows)


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra (universe, join, meet, arrow, neg, 0, 1).

    ``arrow`` and ``neg`` may be absent: a bare bounded lattice omits both,
    an unexpanded algebra omits ``neg``.  Structural validity (square
    tables, in-range entries, distinct labels) is enforced at construction;
    lattice laws are checked separately by :func:`validate_lattice`.
    """

    name: str
    elements: tuple[str, ...]
    join: Table
    meet: Table
    arrow: Table | None
    neg: tuple[int, ...] | None
    bot: int
    top: int

    def __post_init__(self) -> None:
        n = len(self.elements)
        if n == 0:
            raise StructuralError(f"{self.name}: empty universe")
        if len(set(self.elements)) != n:
            raise StructuralError(f"{self.name}: duplicate element labels")
        for opname, table in (("join", self.join), ("meet", self.meet), ("arrow", self.arrow)):
            if table is None:
                continue
            if len(table) != n or any(len(row) != n for row in table):
                raise StructuralError(f"{self.name}: {opname} table is not {n}x{n}")
            for row in table:
                for v in row:
                    if not 0 <= v < n:
                        raise StructuralError(f"{self.name}: {opname} entry {v} out of range")
        if self.neg is not None:
            if len(self.neg) != n:
                raise StructuralError(f"{self.name}: neg table has wrong length")
            if any(not 0 <= v < n for v in self.neg):
                raise StructuralError(f"{self.name}: neg entry out of range")
        for c in (self.bot, self.top):
            if not 0 <= c < n:
                raise StructuralError(f"{self.name}: constant index {c} out of range")

    # -- basic accessors -------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def has_arrow(self) -> bool:
        return self.arrow is not None

    @property
    def has_neg(self) -> bool:
        return self.neg is not None

    @property
    def binary_tables(self) -> tuple[Table, ...]:
        """The join, meet and (when present) arrow tables."""
        return tuple(t for t in (self.join, self.meet, self.arrow) if t is not None)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise InputError(f"{self.name}: no element labeled {label!r}") from None


@dataclass(frozen=True)
class LawFailure:
    """A lattice law that fails, with the assignment that breaks it."""

    law: str
    witness: dict[str, str]  # variable -> element label


@dataclass(frozen=True)
class ValidationReport:
    """The lattice laws one algebra fails; ok when none."""

    name: str
    failures: tuple[LawFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


# The bounded distributive lattice laws as (name, identity), in report
# order; validate_lattice checks them as one statement suite.
_LATTICE_LAWS = (
    ("join-commutative", "x v y = y v x"),
    ("meet-commutative", "x ^ y = y ^ x"),
    ("join-associative", "(x v y) v z = x v (y v z)"),
    ("meet-associative", "(x ^ y) ^ z = x ^ (y ^ z)"),
    ("join-idempotent", "x v x = x"),
    ("meet-idempotent", "x ^ x = x"),
    ("absorption-join", "x v (x ^ y) = x"),
    ("absorption-meet", "x ^ (x v y) = x"),
    ("bottom-unit", "x v 0 = x"),
    ("top-unit", "x ^ 1 = x"),
    ("meet-distributes", "x ^ (y v z) = (x ^ y) v (x ^ z)"),
    ("join-distributes", "x v (y ^ z) = (x v y) ^ (x v z)"),
)


def validate_lattice(a: FiniteAlgebra) -> ValidationReport:
    """Check the bounded distributive lattice laws exhaustively, as one suite.

    Returns one failure per law, with the first witness in lexicographic
    assignment order.  Structural problems raise instead (see
    FiniteAlgebra.__post_init__).
    """
    from .equations import identity_suite, satisfies_suite  # it imports this module

    laws = identity_suite("lattice", tuple(src for _, src in _LATTICE_LAWS))
    results = satisfies_suite(a, laws).results
    return ValidationReport(a.name, tuple(
        LawFailure(law, item.result.witness_labels(a))
        for (law, _), item in zip(_LATTICE_LAWS, results) if not item.result.holds))


def expand(base: FiniteAlgebra, scheme: str) -> FiniteAlgebra:
    """Attach a negation table to a bare algebra by named scheme.

    The input is never mutated.  Fails if the base already carries a
    negation, the scheme is unknown, or the scheme does not cover every
    element of the base.
    """
    if base.neg is not None:
        raise InputError(f"{base.name}: already has a negation")
    if scheme not in NEG_SCHEMES:
        raise InputError(f"unknown negation scheme {scheme!r}")
    mapping = NEG_SCHEMES[scheme]
    neg = []
    for lbl in base.elements:
        if lbl not in mapping:
            raise InputError(f"scheme {scheme!r} does not cover element {lbl!r} of {base.name}")
        neg.append(base.index(mapping[lbl]))
    return replace(base, name=f"{base.name}{scheme}" if scheme != "dmorgan4" else base.name,
                   neg=tuple(neg))


def lattice_from_covers(name: str, labels: Sequence[str],
                        covers: Iterable[tuple[str, str]]) -> FiniteAlgebra:
    """Build a bare lattice (no arrow, no neg) from its covering pairs.

    ``covers`` lists (lower, upper) pairs.  Joins and meets must exist and
    be unique, otherwise the input is rejected.
    """
    labels = tuple(labels)
    n = len(labels)
    idx = {lbl: i for i, lbl in enumerate(labels)}
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in covers:
        leq[idx[lo]][idx[hi]] = True
    # transitive closure
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise InputError(f"{name}: cover relation has a cycle through "
                                 f"{labels[i]} and {labels[j]}")

    def bound(x: int, y: int, upper: bool) -> int:
        if upper:
            cands = [z for z in range(n) if leq[x][z] and leq[y][z]]
            best = [z for z in cands if all(leq[z][w] for w in cands)]
        else:
            cands = [z for z in range(n) if leq[z][x] and leq[z][y]]
            best = [z for z in cands if all(leq[w][z] for w in cands)]
        if len(best) != 1:
            kind = "join" if upper else "meet"
            raise InputError(f"{name}: no unique {kind} for {labels[x]}, {labels[y]}")
        return best[0]

    join = tuple(tuple(bound(i, j, True) for j in range(n)) for i in range(n))
    meet = tuple(tuple(bound(i, j, False) for j in range(n)) for i in range(n))
    bots = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if len(bots) != 1 or len(tops) != 1:
        raise InputError(f"{name}: missing bottom or top")
    return FiniteAlgebra(name, labels, join, meet, None, None, bots[0], tops[0])


def product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product with componentwise operations.

    Both factors must agree on which operations they carry.
    """
    if a.has_arrow != b.has_arrow or a.has_neg != b.has_neg:
        raise SignatureError(f"cannot form product of {a.name} and {b.name}: "
                             "signatures differ")
    nb = b.size
    labels = tuple(f"({la},{lb})" for la in a.elements for lb in b.elements)

    def pairs(xs: Sequence[int], ys: Sequence[int]) -> tuple[int, ...]:
        # element (u, v) of the product is u * |B| + v
        return tuple(u * nb + v for u in xs for v in ys)

    def combine(ta: Table, tb: Table) -> Table:
        return tuple(pairs(row_a, row_b) for row_a in ta for row_b in tb)

    arrow = combine(a.arrow, b.arrow) if a.has_arrow else None
    neg = pairs(a.neg, b.neg) if a.has_neg else None
    return FiniteAlgebra(f"{a.name} x {b.name}", labels, combine(a.join, b.join),
                         combine(a.meet, b.meet), arrow, neg,
                         a.bot * nb + b.bot, a.top * nb + b.top)


def subalgebra(a: FiniteAlgebra, universe: Iterable[int]) -> FiniteAlgebra:
    """The induced algebra on a subuniverse, with dense re-indexing.

    The caller is responsible for closure; a non-closed subset raises.
    """
    keep = sorted(set(universe))
    pos = {v: i for i, v in enumerate(keep)}
    if a.bot not in pos or a.top not in pos:
        raise InputError(f"{a.name}: subset does not contain the constants")

    def restrict(table: Table | None) -> Table | None:
        if table is None:
            return None
        rows = []
        for x in keep:
            row = []
            for y in keep:
                v = table[x][y]
                if v not in pos:
                    raise InputError(f"{a.name}: subset not closed "
                                     f"({a.elements[x]}, {a.elements[y]} -> {a.elements[v]})")
                row.append(pos[v])
            rows.append(tuple(row))
        return tuple(rows)

    neg = None
    if a.neg is not None:
        neg = []
        for x in keep:
            v = a.neg[x]
            if v not in pos:
                raise InputError(f"{a.name}: subset not closed under negation")
            neg.append(pos[v])
        neg = tuple(neg)
    labels = tuple(a.elements[x] for x in keep)
    return FiniteAlgebra(f"{a.name}|{{{','.join(labels)}}}", labels, restrict(a.join),
                         restrict(a.meet), restrict(a.arrow), neg, pos[a.bot], pos[a.top])


# -- JSON round-trip ------------------------------------------------------

def to_json_dict(a: FiniteAlgebra) -> dict:
    d: dict = {
        "name": a.name,
        "elements": list(a.elements),
        "join": [list(r) for r in a.join],
        "meet": [list(r) for r in a.meet],
        "bot": a.bot,
        "top": a.top,
    }
    if a.arrow is not None:
        d["arrow"] = [list(r) for r in a.arrow]
    if a.neg is not None:
        d["neg"] = list(a.neg)
    return d


def from_json_dict(d: Mapping) -> FiniteAlgebra:
    try:
        name, elements = d["name"], d["elements"]
        if not isinstance(name, str):
            raise TypeError(f"name must be a string, got {name!r}")
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise TypeError(f"elements must be a list of strings, got {elements!r}")
        join = _as_table(d["join"])
        meet = _as_table(d["meet"])
        bot = _int(d["bot"])
        top = _int(d["top"])
        arrow = _as_table(d["arrow"]) if "arrow" in d else None
        neg = tuple(map(_int, d["neg"])) if "neg" in d else None
    except (KeyError, TypeError, ValueError) as e:
        raise StructuralError(f"malformed algebra object: {e}") from None
    return FiniteAlgebra(name, tuple(elements), join, meet, arrow, neg, bot, top)


def loads(text: str) -> FiniteAlgebra:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructuralError(f"invalid JSON: {e}") from None
    return from_json_dict(d)
