"""Amalgamation instances and verdicts within a subvariety.

An amalgam is a pair of embeddings i: A -> B, j: A -> C between simples of
the variety.  ``decide_amalgamation`` scans the simples of the variety for
a common extension; since homomorphisms out of simples that separate 0 and
1 are automatically embeddings, a product amalgamates iff one of its
factors does, so scanning simples is a complete decision procedure.
``brute_force_amalgamation`` ignores that reduction and searches the
simples and the products of two simples directly; it is the independent
cross-check, and can only answer "found" or "inconclusive".  A subalgebra
of a product need not be searched: an extension into it, composed with
the inclusion, is an extension into the product.  Nor is the product
built to be searched: by its universal property, an embedding into
T1 x T2 is an injective pairing <h1, h2> of homomorphisms into the
factors, and two such pairings agree on the base iff their components
do.  So the oracle decides every target from the homomorphisms into
single members, ``varieties.homomorphisms``, which are not assumed to
be embeddings, and builds a product only as its witness's target.
That cache is the one morphism search of this layer: the embeddings
that the decision procedure, the base automorphisms and the witnesses
read, ``varieties.embeddings``, are its injective maps and pairings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, product

from . import catalog
from .errors import InputError
from .structure import Morphism
from .varieties import ClosedSimpleSet, embeddings, homomorphisms, injective_pairing


@dataclass(frozen=True)
class Amalgam:
    """A V-formation: embeddings of a base into a left and a right algebra."""

    base: str
    left: str
    right: str
    into_left: Morphism   # base -> left
    into_right: Morphism  # base -> right


@dataclass(frozen=True)
class Witness:
    """Embeddings of an amalgam's two sides into a target, agreeing on the base."""

    target: str
    from_left: Morphism
    from_right: Morphism


@dataclass(frozen=True)
class Verdict:
    """An amalgam's decision: a witness, obstructed (with reasons) or inconclusive."""

    kind: str  # "witness" | "obstructed" | "inconclusive"
    witness: Witness | None = None
    reasons: tuple[tuple[str, str], ...] = ()  # (candidate, why it failed)


def _compose(outer: Morphism, inner: Morphism) -> tuple[int, ...]:
    return tuple(outer.mapping[v] for v in inner.mapping)


def _extension(am: Amalgam, *keys: str) -> Witness | None:
    """The first pair (f, g) of embeddings of the left and right algebras
    into the target ``embeddings`` names by keys, in sorted order, that
    agrees on the base."""
    n = am.into_left.source.size
    for f in embeddings(am.left, *keys):
        for g in embeddings(am.right, *keys):
            if all(f(am.into_left(x)) == g(am.into_right(x)) for x in range(n)):
                return Witness(f.target.name, f, g)
    return None


def enumerate_amalgams(variety: ClosedSimpleSet) -> list[Amalgam]:
    """All amalgams over the variety, up to automorphisms of the base.

    Pairs (i, j) and (i a, j a) for an automorphism a of the base give the
    same amalgamation problem, so only the lexicographically least pair of
    each orbit is kept.  The self-embeddings of a finite algebra are its
    automorphisms.
    """
    members = variety.members()
    out: list[Amalgam] = []
    for base in members:
        auts = embeddings(base, base)
        for left in members:
            embs_l = embeddings(base, left)
            if not embs_l:
                continue
            for right in members:
                embs_r = embeddings(base, right)
                if not embs_r:
                    continue
                seen = set()
                for i in embs_l:
                    for j in embs_r:
                        orbit = min((_compose(i, a), _compose(j, a)) for a in auts)
                        if orbit in seen:
                            continue
                        seen.add(orbit)
                        src = catalog.get(base)
                        out.append(Amalgam(
                            base, left, right,
                            Morphism(src, catalog.get(left), orbit[0]),
                            Morphism(src, catalog.get(right), orbit[1])))
    return out


def _check_members(am: Amalgam, variety: ClosedSimpleSet) -> tuple[str, ...]:
    """The members of the variety, once the amalgam's three algebras are
    known to be among them."""
    members = variety.members()
    for key in (am.base, am.left, am.right):
        if key not in members:
            raise InputError(f"{key} is not in the variety")
    return members


def decide_amalgamation(am: Amalgam, variety: ClosedSimpleSet) -> Verdict:
    """Search the simples of the variety for a common extension."""
    members = _check_members(am, variety)
    reasons = []
    for key in members:
        if not embeddings(am.left, key):
            reasons.append((key, f"no embedding of {am.left}"))
        elif not embeddings(am.right, key):
            reasons.append((key, f"no embedding of {am.right}"))
        elif witness := _extension(am, key):
            return Verdict("witness", witness)
        else:
            reasons.append((key, "no pair of embeddings agrees on the base"))
    return Verdict("obstructed", reasons=tuple(reasons))


def _cones(am: Amalgam, key: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs (h, k) of homomorphisms of the left and right algebras
    into key that agree on the base, in sorted order."""
    by_base: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for k in homomorphisms(am.right, key):
        by_base.setdefault(tuple(k[v] for v in am.into_right.mapping), []).append(k)
    return [(h, k) for h in homomorphisms(am.left, key)
            for k in by_base.get(tuple(h[v] for v in am.into_left.mapping), ())]


def brute_force_amalgamation(am: Amalgam, variety: ClosedSimpleSet) -> Verdict:
    """Search every simple of the variety, then every product of two.

    Targets are scanned in a fixed order: single members first, then
    pairs.  A target T1 x T2 has an extension iff one cone into each
    factor pairs into two embeddings; a single T iff one of its cones
    has both maps injective.  Only members with a cone can take part, so
    the others are skipped.  The first target that has an extension is
    built, and its first pair (f, g) of embeddings, in sorted order, that
    agrees on the base is the witness.  A miss is reported as
    "inconclusive", never as a refutation.
    """
    cones = {key: _cones(am, key) for key in _check_members(am, variety)}
    live = [key for key, cs in cones.items() if cs]
    for keys in chain(((key,) for key in live), combinations_with_replacement(live, 2)):
        if len(keys) == 1:
            pairs = zip(cones[keys[0]], cones[keys[0]])  # one cone, both roles
        else:
            pairs = product(cones[keys[0]], cones[keys[1]])
        if any(injective_pairing(h1, h2) and injective_pairing(k1, k2)
               for (h1, k1), (h2, k2) in pairs):
            return Verdict("witness", _extension(am, *keys))
    return Verdict("inconclusive")


@dataclass(frozen=True)
class SurveyRow:
    """One amalgam's decided verdict, and the oracle's where it ran."""

    amalgam: Amalgam
    decided: Verdict
    brute: Verdict | None = None  # the oracle, run on obstructed rows only

    @property
    def consistent(self) -> bool:
        """No contradiction between the two procedures.

        The scan is a decision procedure; brute force can only confirm a
        witness or come back empty.  A row is consistent unless the
        oracle, which runs on obstructed rows only, found an extension the
        scan ruled out.  A witness is built by ``_extension`` from
        embeddings that agree on the base, so it is not re-checked here.
        """
        return self.brute is None or self.brute.kind == "inconclusive"


def survey(variety: ClosedSimpleSet, oracle: bool = False) -> list[SurveyRow]:
    """Decide every amalgam of the variety, in enumeration order.

    With ``oracle``, every obstructed amalgam is also handed to the
    brute-force search over products of at most two simples.  Witness rows
    are not handed to the oracle: it could only find a witness too.
    """
    rows = []
    for am in enumerate_amalgams(variety):
        decided = decide_amalgamation(am, variety)
        brute = None
        if oracle and decided.kind != "witness":
            brute = brute_force_amalgamation(am, variety)
        rows.append(SurveyRow(am, decided, brute))
    return rows
