"""Structural analysis: subuniverses, morphisms, congruences, primality.

Everything here is exhaustive search over small finite algebras.  Results
come back in canonical orders (subuniverses by size then membership,
maps sorted) so reports are reproducible.  A map is what the search
yields: the tuple of the images of the elements.  Subuniverses
grow as int bitmasks, each new element ORing its row of the algebra's
pair images over the members.  Principal congruences come from pair
propagation, each pair's images computed once per algebra; joins are
plain equivalence joins, since Con(A) is a sublattice of the
equivalences of A.  Every map is decided by one preservation check,
``_preserves``: the search runs it over one of two candidate sets, every
map that fixes 0 and 1 (homomorphisms, whose injective members are the
embeddings) or every permutation that fixes 0 and 1 (automorphisms), and
the internal isomorphisms of ``classify_primality`` are tested with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, permutations, product as iproduct
from typing import Callable, Iterable, Sequence

from .algebra import FiniteAlgebra, product, subalgebra
from .equations import _kept
from .errors import InputError

Partition = tuple[int, ...]


# -- subuniverses ------------------------------------------------------------

def _bits(s: int) -> list[int]:
    """The members of the bitmask s, ascending."""
    return [x for x in range(s.bit_length()) if s >> x & 1]


@_kept
def _pair_images(a: FiniteAlgebra) -> list[list[int]]:
    """``[x][y]``: the bitmask of every binary operation applied to (x, y)
    and to (y, x); the diagonal ``[x][x]`` also holds x's negation."""
    one = [[0] * a.size for _ in range(a.size)]  # x op y, over the operations
    for t in a.binary_tables:
        one = [[m | 1 << v for m, v in zip(ms, row)] for ms, row in zip(one, t)]
    images = [[u | v for u, v in zip(row, col)] for row, col in zip(one, zip(*one))]
    if a.neg is not None:
        for x in range(a.size):
            images[x][x] |= 1 << a.neg[x]
    return images


def subuniverse_closure(a: FiniteAlgebra, seed: Iterable[int] = ()) -> frozenset[int]:
    """Smallest subuniverse containing the seed (and the constants)."""
    members = {a.bot, a.top} | set(seed)
    for x in members:
        if not 0 <= x < a.size:
            raise InputError(f"{a.name}: seed element {x} out of range")
    return frozenset(_bits(_close(a, 0, members)))


def _close(a: FiniteAlgebra, closed: int, new: Iterable[int]) -> int:
    """The smallest subuniverse holding the subuniverse ``closed`` (a
    bitmask) and the distinct elements ``new`` outside it.

    An element leaves the queue combined with itself (its diagonal holds its
    negation) and every done member, then is done, and what it produces is
    queued; the members of ``closed`` are done from the start.  So each pair
    is combined once the later of the two is done.
    """
    images = _pair_images(a)
    done = _bits(closed)
    queue = list(new)
    members = closed | sum(1 << x for x in queue)
    while queue:
        x = queue.pop()
        done.append(x)
        row = images[x]
        produced = 0
        for y in done:
            produced |= row[y]
        if fresh := produced & ~members:
            members |= fresh
            queue += _bits(fresh)
    return members


def all_subuniverses(a: FiniteAlgebra) -> list[frozenset[int]]:
    """Every subuniverse, sorted by size then by sorted membership.

    Found by growing: close the constants, then repeatedly extend each
    known subuniverse s by one missing generator x.  Every subuniverse is
    the closure of finitely many generators, so the walk reaches all of
    them.  Pairs inside s already close, so only x seeds the growth.
    """
    first = _close(a, 0, {a.bot, a.top})
    seen = {first}
    queue = [first]
    while queue:
        s = queue.pop()
        for x in range(a.size):
            if not s >> x & 1:
                t = _close(a, s, [x])
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
    return [frozenset(m) for m in sorted(map(_bits, seen), key=lambda m: (len(m), m))]


def all_subalgebras(a: FiniteAlgebra) -> list[FiniteAlgebra]:
    return [subalgebra(a, s) for s in all_subuniverses(a)]


# -- morphisms ----------------------------------------------------------------

def _preserves(a: FiniteAlgebra, b: FiniteAlgebra, m: Sequence[int]) -> bool:
    """Whether the map x -> m[x] from a to b preserves both constants and
    every operation of a."""
    if m[a.bot] != b.bot or m[a.top] != b.top:
        return False
    for x in range(a.size):
        for y in range(a.size):
            if m[a.join[x][y]] != b.join[m[x]][m[y]]:
                return False
            if m[a.meet[x][y]] != b.meet[m[x]][m[y]]:
                return False
            if a.arrow is not None:
                if b.arrow is None or m[a.arrow[x][y]] != b.arrow[m[x]][m[y]]:
                    return False
    if a.neg is not None:
        if b.neg is None:
            return False
        if any(m[a.neg[x]] != b.neg[m[x]] for x in range(a.size)):
            return False
    return True


def find_morphisms(a: FiniteAlgebra, b: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Every homomorphism a -> b, as the image of each element, sorted; the
    embeddings are the injective ones.

    Tries each of the |B|^(|A|-2) maps that send 0 and 1 to 0 and 1, in
    lexicographic order, and keeps those that preserve every operation.
    """
    if a.has_arrow != b.has_arrow or a.has_neg != b.has_neg:
        return []
    choices = [(b.bot,) if x == a.bot else (b.top,) if x == a.top else range(b.size)
               for x in range(a.size)]
    return [m for m in iproduct(*choices) if _preserves(a, b, m)]


def automorphisms(a: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Every automorphism of a, as the image of each element, sorted.

    Tries each of the (|A|-2)! permutations that fix 0 and 1, in
    lexicographic order, and keeps those that preserve every operation.
    """
    free = [x for x in range(a.size) if x not in (a.bot, a.top)]
    maps = (tuple(dict(zip(free, perm)).get(x, x) for x in range(a.size))
            for perm in permutations(free))
    return [m for m in maps if _preserves(a, a, m)]


# -- congruences ---------------------------------------------------------------

def _normalize(parent: Sequence[int]) -> Partition:
    # canonical block numbering by first occurrence
    relabel: dict[int, int] = {}
    out = []
    for x in range(len(parent)):
        r = parent[x]
        if r not in relabel:
            relabel[r] = len(relabel)
        out.append(relabel[r])
    return tuple(out)


def _classes(n: int, pairs: Iterable[tuple[int, int]],
             images: Callable[[int, int], Iterable] = lambda x, y: ()) -> Partition:
    """The blocks of the equivalence on range(n) generated by ``pairs``
    and by the images of every pair that joins two blocks (each join
    relabels one block)."""
    block = list(range(n))
    queue = list(pairs)
    while queue:
        x, y = queue.pop()
        bx, by = block[x], block[y]
        if bx != by:
            block = [by if b == bx else b for b in block]
            queue += images(x, y)
    return _normalize(block)


def _saturate(a: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Smallest congruence identifying the given pairs, by pair propagation:
    a pair (x, y) that joins two blocks pushes the pairs u != v of the
    negations of x and y and of each binary operation on them and any fixed
    element, on either side; computed on a pair's first use, kept on a."""
    kept = a.__dict__.setdefault("_translates", {})

    def translates(x: int, y: int) -> tuple[tuple[int, int], ...]:
        if (x, y) not in kept:
            tables, n = a.binary_tables, range(a.size)
            images = {(t[x][c], t[y][c]) for t in tables for c in n}
            images |= {(t[c][x], t[c][y]) for t in tables for c in n}
            if a.neg is not None:
                images.add((a.neg[x], a.neg[y]))
            kept[x, y] = tuple((u, v) for u, v in images if u != v)
        return kept[x, y]
    return _classes(a.size, pairs, translates)


def principal_congruence(a: FiniteAlgebra, x: int, y: int) -> Partition:
    return _saturate(a, [(x, y)])


def _partition_pairs(p: Partition) -> list[tuple[int, int]]:
    rep: dict[int, int] = {}
    pairs = []
    for x, blk in enumerate(p):
        if blk in rep:
            pairs.append((rep[blk], x))
        else:
            rep[blk] = x
    return pairs


def congruence_join(a: FiniteAlgebra, p: Partition, q: Partition) -> Partition:
    """The join of two congruences of a: the equivalence join of p and q,
    since Con(a) is a sublattice of the equivalence lattice."""
    return _classes(a.size, _partition_pairs(p) + _partition_pairs(q))


def congruence_meet(p: Partition, q: Partition) -> Partition:
    return _normalize([p[x] * (max(q) + 1) + q[x] for x in range(len(p))])


def congruence_lattice(a: FiniteAlgebra) -> list[Partition]:
    """All congruences: join-closure of the principal ones, plus identity."""
    delta = tuple(range(a.size))
    found = {delta}
    for x, y in combinations(range(a.size), 2):
        found.add(principal_congruence(a, x, y))
    frontier = list(found)
    while frontier:
        p = frontier.pop()
        for q in list(found):
            j = congruence_join(a, p, q)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found)


def is_congruence(a: FiniteAlgebra, p: Partition) -> bool:
    """Independent compatibility check, used as a test oracle."""
    if len(p) != a.size:
        return False
    tables = a.binary_tables
    for x in range(a.size):
        for y in range(a.size):
            if p[x] != p[y]:
                continue
            if a.neg is not None and p[a.neg[x]] != p[a.neg[y]]:
                return False
            for t in tables:
                for c in range(a.size):
                    if p[t[x][c]] != p[t[y][c]] or p[t[c][x]] != p[t[c][y]]:
                        return False
    return True


def is_simple(a: FiniteAlgebra) -> bool:
    """Exactly two congruences (so one-element algebras are not simple):
    every principal congruence Cg(x, y) with x != y is total, checked up
    to the first that is not."""
    nabla = (0,) * a.size
    return a.size > 1 and all(principal_congruence(a, x, y) == nabla
                              for x, y in combinations(range(a.size), 2))


def is_subdirectly_irreducible(a: FiniteAlgebra) -> bool:
    delta = tuple(range(a.size))
    nontrivial = [p for p in congruence_lattice(a) if p != delta]
    if not nontrivial:
        return False
    monolith = nontrivial[0]
    for p in nontrivial[1:]:
        monolith = congruence_meet(monolith, p)
    return monolith != delta


def _composes_to_all(p: Partition, q: Partition) -> bool:
    # p o q covers every pair iff every p-block meets every q-block
    blocks_p = max(p) + 1
    blocks_q = max(q) + 1
    meets = set(zip(p, q))
    return len(meets) == blocks_p * blocks_q


def is_directly_indecomposable(a: FiniteAlgebra) -> bool:
    """No pair of complementary permuting factor congruences.

    One-element algebras are excluded (empty product).
    """
    if a.size == 1:
        return False
    delta = tuple(range(a.size))
    nabla = (0,) * a.size
    cons = [p for p in congruence_lattice(a) if p not in (delta, nabla)]
    for p, q in combinations(cons, 2):
        if congruence_meet(p, q) == delta and (_composes_to_all(p, q)
                                               or _composes_to_all(q, p)):
            return False
    return True


def restrict_partition(p: Partition, subset: Sequence[int]) -> Partition:
    """Induced partition on a subuniverse (given as sorted indices)."""
    return _normalize([p[x] for x in subset])


@dataclass(frozen=True)
class CepFailure:
    """A congruence of a subalgebra that no congruence of the whole restricts to."""

    subuniverse: tuple[str, ...]
    partition: Partition


@dataclass(frozen=True)
class CepReport:
    """The congruence extension failures of one algebra; ok when there are none."""

    algebra: str
    failures: tuple[CepFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def has_cep(a: FiniteAlgebra) -> CepReport:
    """Congruence extension: every congruence of every subalgebra is the
    restriction of a congruence of the whole algebra."""
    available = congruence_lattice(a)
    failures = []
    for s in all_subuniverses(a):
        sub = sorted(s)
        b = subalgebra(a, sub)
        restrictions = {restrict_partition(p, sub) for p in available}
        for q in congruence_lattice(b):
            if q not in restrictions:
                failures.append(CepFailure(tuple(a.elements[x] for x in sub), q))
    return CepReport(a.name, tuple(failures))


# -- primality ----------------------------------------------------------------

@dataclass(frozen=True)
class PrimalityReport:
    """The primality verdict of one algebra, with the counts it was read from."""

    algebra: str
    verdict: str  # "primal" | "semiprimal" | "quasiprimal" | "not-quasiprimal"
    square_subuniverses: int
    internal_isos: tuple[tuple[tuple[int, int], ...], ...]  # (x, image) pairs
    proper_subuniverses: int
    automorphism_count: int
    bad_subuniverse: tuple[tuple[int, int], ...] | None = None

    @property
    def quasiprimal(self) -> bool:
        return self.verdict != "not-quasiprimal"


def classify_primality(a: FiniteAlgebra) -> PrimalityReport:
    """Classify a simple algebra by the subuniverses of its square.

    Quasiprimal: every subuniverse of a x a is either a product of two
    subuniverses or the graph of an isomorphism between subalgebras, and
    every subalgebra is simple.  Semiprimal: quasiprimal with only
    identity internal isomorphisms.  Primal: semiprimal with no proper
    subalgebra and no nontrivial automorphism.
    """
    if not is_simple(a):
        raise InputError(f"{a.name}: primality classification needs a simple algebra")
    n = a.size
    square = product(a, a)
    isos: list[tuple[tuple[int, int], ...]] = []
    bad: tuple[tuple[int, int], ...] | None = None
    subs2 = all_subuniverses(square)
    for s in subs2:
        pairs = sorted(divmod(v, n) for v in s)
        dom = sorted({p for p, _ in pairs})
        cod = sorted({q for _, q in pairs})
        if len(pairs) == len(dom) * len(cod):
            continue  # full product of its projections
        functional = len(dom) == len(pairs) and len(cod) == len(pairs)
        # dom is a projection of a subuniverse, hence itself closed
        if functional and _preserves(subalgebra(a, dom), a,
                                     [q for _, q in pairs]):
            isos.append(tuple(pairs))
            continue
        if bad is None:
            bad = tuple(pairs)
    subs = all_subuniverses(a)
    all_sub_simple = all(is_simple(subalgebra(a, s)) for s in subs)
    autos = automorphisms(a)
    report = PrimalityReport(
        algebra=a.name,
        verdict="not-quasiprimal",
        square_subuniverses=len(subs2),
        internal_isos=tuple(isos),
        proper_subuniverses=len(subs) - 1,
        automorphism_count=len(autos),
        bad_subuniverse=bad,
    )
    if bad is not None or not all_sub_simple:
        return report
    verdict = "quasiprimal"
    if all(x == y for iso in isos for x, y in iso):
        verdict = "semiprimal"
        if len(subs) == 1 and len(autos) == 1:
            verdict = "primal"
    return replace(report, verdict=verdict)


# the two readings of which chain expansions should be primal
_PRIMAL_READINGS = {
    "dm-only": ("2e", "2bare", "D3", "L5dm", "L6dm", "L7dm", "L8dm"),
    "dm-and-dp": ("2e", "2bare", "D3", "L5dm", "L6dm", "L7dm", "L8dm",
                  "L5dp", "L6dp", "L7dp", "L8dp"),
}


@dataclass(frozen=True)
class PrimalityCensus:
    """Primality verdicts of some algebras, read against each primal reading."""

    verdicts: dict[str, str]  # algebra name -> verdict, in the given order
    primal: tuple[str, ...]
    readings: dict[str, tuple[tuple[str, ...], bool]]  # name -> (set, equals primal)
    all_quasiprimal: bool
    ok: bool


def primality_census(algebras: Iterable[FiniteAlgebra]) -> PrimalityCensus:
    """Classify each simple algebra and read the primal ones against
    ``_PRIMAL_READINGS``.  The census passes when every algebra is
    quasiprimal and 2e, 2bare and D3 are primal."""
    verdicts = {a.name: classify_primality(a).verdict for a in algebras}
    primal = tuple(k for k, v in verdicts.items() if v == "primal")
    readings = {name: (keys, set(keys) == set(primal))
                for name, keys in _PRIMAL_READINGS.items()}
    all_quasi = all(v != "not-quasiprimal" for v in verdicts.values())
    ok = all_quasi and {"2e", "2bare", "D3"} <= set(primal)
    return PrimalityCensus(verdicts, primal, readings, all_quasi, ok)
