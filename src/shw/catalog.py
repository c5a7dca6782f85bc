"""The built-in catalog of small simple algebras.

Two two-element algebras (2 and 2bar, differing in the value of 0 -> 1),
the ten three-element chains L1..L10, and three four-element diamonds
D1..D3.  Chains are expanded with the dm (fixed middle) and dp (middle
mapped to top) negation schemes; the two-element algebras with e; the
diamonds with the four-element De Morgan scheme.  Arrow tables are written
label-wise, one row per left argument, in element order.
"""

from __future__ import annotations

from .algebra import (
    FiniteAlgebra,
    expand,
    lattice_from_covers,
)
from .errors import InputError

CHAIN2 = ("0", "1")
CHAIN3 = ("0", "a", "1")
DIAMOND = ("0", "1", "a", "b")

# arrow tables, rows and columns in element order
_ARROWS_2 = {
    "2": ("1 1",
          "0 1"),
    "2bar": ("1 0",
             "0 1"),
}

_ARROWS_3 = {
    "L1": ("1 1 1",
           "0 1 1",
           "0 a 1"),
    "L2": ("1 a 1",
           "0 1 1",
           "0 a 1"),
    "L3": ("1 1 1",
           "0 1 a",
           "0 a 1"),
    "L4": ("1 a 1",
           "0 1 a",
           "0 a 1"),
    "L5": ("1 a a",
           "0 1 1",
           "0 a 1"),
    "L6": ("1 1 a",
           "0 1 1",
           "0 a 1"),
    "L7": ("1 a a",
           "0 1 a",
           "0 a 1"),
    "L8": ("1 1 a",
           "0 1 a",
           "0 a 1"),
    "L9": ("1 0 0",
           "0 1 1",
           "0 a 1"),
    "L10": ("1 0 0",
            "0 1 a",
            "0 a 1"),
}

_ARROWS_4 = {
    "D1": ("1 0 b a",
           "0 1 a b",
           "b a 1 0",
           "a b 0 1"),
    "D2": ("1 1 1 1",
           "0 1 a b",
           "b 1 1 b",
           "a 1 a 1"),
    "D3": ("1 a 1 a",
           "0 1 a b",
           "b a 1 0",
           "a 1 a 1"),
}


def _parse_arrow(elements: tuple[str, ...], rows: tuple[str, ...]):
    idx = {lbl: i for i, lbl in enumerate(elements)}
    return tuple(tuple(idx[lbl] for lbl in row.split()) for row in rows)


def _chain(labels: tuple[str, ...], name: str) -> FiniteAlgebra:
    n = len(labels)
    join = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    meet = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    return FiniteAlgebra(name, labels, join, meet, None, None, 0, n - 1)


def _with_arrow(base: FiniteAlgebra, rows: tuple[str, ...], name: str) -> FiniteAlgebra:
    from dataclasses import replace

    return replace(base, name=name, arrow=_parse_arrow(base.elements, rows))


def _build_catalog() -> dict[str, FiniteAlgebra]:
    algebras: dict[str, FiniteAlgebra] = {}

    c2 = _chain(CHAIN2, "c2")
    for name, rows in _ARROWS_2.items():
        algebras[name] = _with_arrow(c2, rows, name)
    c3 = _chain(CHAIN3, "c3")
    for name, rows in _ARROWS_3.items():
        algebras[name] = _with_arrow(c3, rows, name)

    diamond = lattice_from_covers("d4", DIAMOND,
                                  [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    for name, rows in _ARROWS_4.items():
        algebras[name] = _with_arrow(diamond, rows, name)

    for name in ("2", "2bar"):
        algebras[name + "e"] = expand(algebras[name], "e")
    for i in range(1, 11):
        algebras[f"L{i}dm"] = expand(algebras[f"L{i}"], "dm")
        algebras[f"L{i}dp"] = expand(algebras[f"L{i}"], "dp")
    for name in ("D1", "D2", "D3"):
        algebras[name] = expand(algebras[name], "dmorgan4")

    algebras["double-diamond"] = lattice_from_covers(
        "double-diamond", ("0", "a", "b", "c", "d", "e", "1"),
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
         ("c", "d"), ("c", "e"), ("d", "1"), ("e", "1")])
    return algebras


_CATALOG = _build_catalog()

_C10DM = tuple(f"L{i}dm" for i in range(1, 11))
_C10DP = tuple(f"L{i}dp" for i in range(1, 11))

# Families of catalog keys.  The three blocks S1/S2/S3 partition the
# simples by the value of 0 -> 1 (top, bottom, middle respectively),
# which controls what proper subalgebras exist.
_FAMILIES: dict[str, tuple[str, ...]] = {
    "C10dm": _C10DM,
    "C10dp": _C10DP,
    "C20": _C10DM + _C10DP,
    "all-simples": ("2e", "2bare") + _C10DM + _C10DP + ("D1", "D2", "D3"),
    "rdmsh1-simples": ("2e", "2bare") + _C10DM + ("D1", "D2", "D3"),
    "rdpcsh1-simples": ("2e", "2bare") + _C10DP,
    "S1": ("L1dm", "L2dm", "L3dm", "L4dm", "L1dp", "L2dp", "L3dp", "L4dp", "D2"),
    "S2": ("L9dm", "L10dm", "L9dp", "L10dp", "D1"),
    "S3": ("L5dm", "L6dm", "L7dm", "L8dm", "L5dp", "L6dp", "L7dp", "L8dp", "D3"),
}


def keys() -> tuple[str, ...]:
    """All catalog keys, bare algebras and lattices included."""
    return tuple(_CATALOG)


def get(key: str) -> FiniteAlgebra:
    try:
        return _CATALOG[key]
    except KeyError:
        raise InputError(f"unknown catalog key {key!r}") from None


def family(name: str) -> tuple[str, ...]:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise InputError(f"unknown family {name!r}; known: {', '.join(sorted(_FAMILIES))}") from None


def double_diamond() -> FiniteAlgebra:
    """The seven-element lattice of two stacked diamonds (no arrow, no neg)."""
    return get("double-diamond")
