"""Library of equational bases for subvarieties, with conformance checking.

Each entry claims: within a given ambient set of simples, the algebras
satisfying the listed identities are exactly the members of the variety
generated by the listed generators (equivalently, the algebras embeddable
into a generator).  Several entries offer alternative bases for the same
variety.  ``verify_bases`` recomputes both sides of every claim and
reports witnesses for any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import catalog, varieties
from .equations import Suite, satisfies_suite
from .errors import InputError
from .terms import parse_identity


@dataclass(frozen=True)
class BaseEntry:
    slug: str
    ambient: str  # "rdmsh1" | "rdmh1" | "rdmcmsh1"
    generators: tuple[str, ...]
    bases: tuple[tuple[str, ...], ...]  # alternative bases, each a tuple of identities
    note: str = ""


_CONTRAPOSITION = "x -> y = y* -> x*"
_JOIN_DISTRIBUTES_ARROW = "x v (y -> z) = (x v y) -> (x v z)"
_ARROW_TOP = "x v (x -> y) = x v ((x -> y) -> 1)"
_STARNEG_IS_STARSTAR = "x*' = x**"
_UNIT_COMPLEMENTED = "(0 -> 1) v (0 -> 1)* = 1"
_UNIT_DENSE = "(0 -> 1)** = 1"
_JOIN_ARROW_CONTRACT = "x v (y -> x) = (x v y) -> x"
_COVER_EXCHANGE = "y v (y -> (x v y)) = (0 -> x) v (x -> y)"
_STAR_OF_ARROW = "x v (y -> (y -> x)*) = x v y v (y -> x)"
_LADDER = "((x v (x -> y*)) -> (x -> y*)) v x v y* = 1"
_KLEENE = "x ^ x' <= y v y'"

BASE_ENTRIES: tuple[BaseEntry, ...] = (
    BaseEntry("stone-collapse", "rdmsh1",
              catalog.family("C10dm") + ("D1", "D2", "D3"),
              ((), ("x* v x** = 1",)),
              note="adding the Stone identity does not cut the variety down"),
    BaseEntry("stone-collapse-heyting", "rdmh1",
              ("L1dm", "D2"),
              ((), ("x* v x** = 1",))),
    BaseEntry("commutative-join", "rdmcmsh1",
              ("L10dm", "D1"),
              ((),)),
    BaseEntry("pseudo-commutative", "rdmsh1",
              ("L9dm", "L10dm", "D1"),
              (("(x -> y)* = (y -> x)*",),)),
    BaseEntry("star-commutative", "rdmsh1",
              ("L9dm", "L10dm", "D1"),
              (("x* -> y* = y* -> x*",),)),
    BaseEntry("plus-starnegstar-fixpoint", "rdmsh1",
              ("L1dm", "L2dm", "L3dm", "L4dm", "D2", "D3"),
              (("(0 -> 1)+ -> (0 -> 1)*'* = 0 -> 1",),)),
    BaseEntry("boolean-diamonds", "rdmsh1",
              ("D1", "D2", "D3"),
              ((_CONTRAPOSITION,),
               (_JOIN_DISTRIBUTES_ARROW,),
               ("((x v (x -> y*)) -> (x -> y*)) v (x v y*) = 1",))),
    BaseEntry("star-contraposition", "rdmsh1",
              ("L1dm", "L2dm", "L5dm", "L6dm", "L9dm", "D1", "D2", "D3"),
              (("x -> y* = y -> x*",),)),
    BaseEntry("arrow-top-absorption", "rdmsh1",
              ("L7dm", "L8dm", "L9dm", "L10dm", "D1", "D2", "D3"),
              ((_ARROW_TOP,),)),
    BaseEntry("arrow-top-dense", "rdmsh1",
              ("L7dm", "L8dm", "D2"),
              ((_ARROW_TOP, _UNIT_DENSE),)),
    BaseEntry("arrow-top-starneg", "rdmsh1",
              ("2e", "L7dm", "L8dm", "L9dm", "L10dm"),
              ((_ARROW_TOP, _STARNEG_IS_STARSTAR),)),
    BaseEntry("arrow-top-complemented", "rdmsh1",
              ("2e", "L9dm", "L10dm"),
              ((_ARROW_TOP, _STARNEG_IS_STARSTAR, _UNIT_COMPLEMENTED),)),
    BaseEntry("arrow-top-falsum", "rdmsh1",
              ("L9dm", "L10dm"),
              ((_ARROW_TOP, _STARNEG_IS_STARSTAR, "(0 -> 1)* = 1"),)),
    BaseEntry("starneg-dense-chains", "rdmsh1",
              tuple(f"L{i}dm" for i in range(1, 9)),
              ((_STARNEG_IS_STARSTAR, _UNIT_DENSE),)),
    BaseEntry("complemented-dense", "rdmsh1",
              ("L1dm", "L2dm", "L3dm", "L4dm", "D2"),
              ((_UNIT_COMPLEMENTED, _UNIT_DENSE),)),
    BaseEntry("join-arrow-contraction", "rdmsh1",
              ("L1dm", "L3dm", "D1", "D2", "D3"),
              ((_JOIN_ARROW_CONTRACT, _UNIT_COMPLEMENTED),)),
    BaseEntry("join-arrow-contraction-dense", "rdmsh1",
              ("L1dm", "L3dm", "D2"),
              ((_JOIN_ARROW_CONTRACT, _UNIT_DENSE, _UNIT_COMPLEMENTED),)),
    BaseEntry("join-cover-exchange", "rdmsh1",
              ("L1dm", "L2dm", "L8dm", "D1", "D2", "D3"),
              ((_COVER_EXCHANGE,),)),
    BaseEntry("nested-arrow-join", "rdmsh1",
              ("L8dm", "D1", "D2", "D3"),
              (("x v (y -> (0 -> (y -> x))) = x v y v (y -> x)",),)),
    BaseEntry("heyting-diamond", "rdmh1",
              ("D2",),
              (("y -> (0 -> (y -> x)) = y v (y -> x)",),
               (_JOIN_DISTRIBUTES_ARROW,),
               (_STAR_OF_ARROW,),
               (_LADDER,))),
    BaseEntry("commutative-diamond", "rdmcmsh1",
              ("D1",),
              ((_COVER_EXCHANGE,),
               (_STAR_OF_ARROW,),
               (_LADDER,),
               (_JOIN_DISTRIBUTES_ARROW,))),
    BaseEntry("arrow-exchange", "rdmsh1",
              ("L1dm", "L2dm", "L3dm", "D1", "D2", "D3"),
              (("x -> (y -> z) = y -> (x -> z)",),)),
    BaseEntry("kleene-chains", "rdmsh1",
              catalog.family("C10dm"),
              ((_KLEENE,),)),
    BaseEntry("kleene-commutative", "rdmsh1",
              ("L10dm",),
              ((_KLEENE, "x -> y = y -> x"),)),
)

_BY_SLUG = {e.slug: e for e in BASE_ENTRIES}


def get_entry(slug: str) -> BaseEntry:
    try:
        return _BY_SLUG[slug]
    except KeyError:
        raise InputError(f"unknown base entry {slug!r}") from None


@dataclass(frozen=True)
class Discrepancy:
    algebra: str
    kind: str  # "satisfies-but-outside" | "fails-but-inside"
    identity: str | None = None
    witness: dict[str, str] | None = None
    certificate: str = ""


@dataclass(frozen=True)
class BaseConformance:
    slug: str
    base_index: int
    identities: tuple[str, ...]
    ambient: str
    generators: tuple[str, ...]
    expected: tuple[str, ...]
    satisfied: tuple[str, ...]
    discrepancies: tuple[Discrepancy, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@lru_cache(maxsize=None)
def _parsed(base: tuple[str, ...]) -> Suite:
    """A base as a suite, parsed once, so its program stays cached."""
    return Suite(f"base {' ; '.join(base)}", tuple(map(parse_identity, base)))


def check_entry(entry: BaseEntry) -> tuple[BaseConformance, ...]:
    amb = varieties.get_ambient(entry.ambient)
    keys = amb.keys
    expected = varieties.closure(entry.generators, amb).members()
    out = []
    for bi, base in enumerate(entry.bases):
        suite = _parsed(base)
        satisfied = []
        first_failure: dict[str, tuple[str, dict[str, str]]] = {}
        for k in keys:
            a = catalog.get(k)
            failure = satisfies_suite(a, suite).first_failure()
            if failure is None:
                satisfied.append(k)
            else:
                first_failure[k] = (failure.source, failure.result.witness_labels(a))
        discrepancies = []
        for k in keys:
            if k in satisfied and k not in expected:
                cert = ("exhaustive search found no embedding of "
                        f"{k} into any of: {', '.join(entry.generators)}")
                discrepancies.append(Discrepancy(k, "satisfies-but-outside",
                                                 certificate=cert))
            elif k not in satisfied and k in expected:
                src, witness = first_failure[k]
                discrepancies.append(Discrepancy(
                    k, "fails-but-inside", src, witness,
                    certificate=f"fails {src!r} at {witness}"))
        out.append(BaseConformance(
            entry.slug, bi, base, entry.ambient, entry.generators,
            expected, tuple(satisfied), tuple(discrepancies)))
    return tuple(out)


def verify_bases(slugs: tuple[str, ...] | None = None) -> tuple[BaseConformance, ...]:
    """Check every entry (or those of ``slugs``)."""
    entries = BASE_ENTRIES if slugs is None else tuple(get_entry(s) for s in slugs)
    return tuple(row for e in entries for row in check_entry(e))
