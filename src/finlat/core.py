"""Finite lattices presented by cover relations.

Every other module in the package (chain covers, grids, retractions, fork
extensions, the brute-force oracle) consumes the ``FiniteLattice`` values
built here.  Element identifiers are opaque strings; internal indices are
assigned by sorted identifier order, so all derived structure is
reproducible across runs.  Lattice values are immutable after construction
and safe for concurrent reads.  The order comes from Kahn's topological
sort, and `_rows` builds the join and meet tables row by row from the
rows of covers; the tables take O(n²) memory, so a lattice has at most
`MAX_ELEMENTS` (1,024) elements.  Covers are index masks; `upper_covers` and
`lower_covers` read the ids off them on demand.  Every module walks a mask
with `_bits`: a shared tuple from two 256-entry byte tables below 2^16,
and a lazy low-bit generator from 2^16 up.  Whether a subset is a
sublattice is decided here alone, by `_closed_mask`, so a caller checks a
subset once, and `_induced` builds the sublattice from that mask only
where it is read: a homomorphism onto a sublattice builds its target when
it is first read.  On a closed mask the ambient's tables hold the
sublattice's order, joins and meets, so `_grid_shape` reads its
join-irreducibles and its boolean or grid shape without building it; the
whole lattice is the full mask, so `grid_factor_sizes`, `retract_onto`'s
eligibility and `checks.subgrid` share that one decision.  Likewise
`is_semimodular` and `lattice_length` are the full-mask case of
`_semimodular_on` and `_length_on`, which `checks.cover01` runs on the
upper-cover masks that `_covers_within` reads within a closed mask.

Derived invariants (distributivity, semimodularity, slimness, the join-
and meet-irreducibles, the length, the grid factor sizes, in `chains`
the order dimension and the grid coordinates, in `retractions` the
certified same-dimension and bump witnesses and in `oracle` the
cover-degree order) are memoised per lattice in its private ``_memo``
dict.  An entry is computed from the immutable tables, so a second
writer stores an equal value: the writes are idempotent and reads stay
safe.  Entries are immutable or copied at the API edge, and none
references its lattice, so a lattice sits in no reference cycle.  One
entry grows:
`retractions.retract_onto` keeps a dict from each closed mask asked of
the lattice to the target's shape and its checked retraction as an index
tuple, so it holds ints and tuples only, at most one item per distinct
closed mask asked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, repeat
from math import prod
from operator import and_, itemgetter

__all__ = [
    "MAX_ELEMENTS",
    "LatticeError",
    "CycleDetected",
    "NonReducedCovers",
    "NotALattice",
    "NotASublattice",
    "FiniteLattice",
    "build_lattice",
    "join_irreducibles",
    "lattice_length",
    "is_distributive",
    "is_semimodular",
    "is_boolean",
    "is_slim",
    "grid_factor_sizes",
    "PropertyReport",
    "classify_properties",
    "Cell",
    "four_cells",
    "check_sublattice",
    "induced_lattice",
]


# The join and meet tables hold n² entries each.
MAX_ELEMENTS = 1024


class LatticeError(Exception):
    """Base class for all domain errors raised by this package."""


class CycleDetected(LatticeError):
    """The declared cover relation contains a directed cycle."""


class NonReducedCovers(LatticeError):
    """A declared cover is already implied by a chain of other covers."""


class NotALattice(LatticeError):
    """Some pair of elements has no unique join or meet."""

    def __init__(self, pair: tuple[str, str], message: str | None = None):
        self.pair = pair
        super().__init__(message or f"pair {pair!r} has no unique join or meet")


class NotASublattice(LatticeError):
    """A subset is not closed under the ambient join and meet."""


def _walk_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Bit positions of each byte, ascending, and the same positions plus 8.
_BYTE_BITS = tuple(tuple(_walk_bits(b)) for b in range(256))
_HIGH_BYTE_BITS = tuple(tuple(i + 8 for i in bits) for bits in _BYTE_BITS)


def _bits(mask: int):
    """The set bit positions of mask, ascending.

    Below 2^16 this is a shared tuple: one lookup in a 256-entry table of
    byte positions, or the concatenation of the low byte's entry and the
    high byte's, offset by 8.  Resuming a generator for each bit costs more
    than the work done per bit on such short masks, which are 96.2 % of the
    calls in the timed items of the `retract-sweep` and `certify-search`
    benchmark workloads and all of them on `enumerate`.  From 2^16 up the
    walk stays a lazy generator: on `cli-corpus` (C120, the 10x10 grid,
    bump grids of 162–240 elements) only 31 % of the masks are short, and
    a `_bits` returning a list for every mask made its wall time 5–8 %
    worse, since lazy consumers such as `chains._max_matching` then built
    whole successor lists.  Callers take ``iter`` before ``next``.
    """
    if mask < 256:
        return _BYTE_BITS[mask]
    if mask < 65536:
        return _BYTE_BITS[mask & 255] + _HIGH_BYTE_BITS[mask >> 8]
    return _walk_bits(mask)


def _covers_within(up, mask: int) -> list[int]:
    """Each index's upper-cover mask in an up-set encoded order restricted to mask, 0 off it.

    The upper covers of i are its strict up-set within mask minus the strict
    up-sets of the members of that set.
    """
    ucov = [0] * len(up)
    for i in _bits(mask):
        above = up[i] & mask & ~(1 << i)
        covers = above
        for j in _bits(above):
            covers &= ~up[j] | 1 << j
        ucov[i] = covers
    return ucov


def _rows(order, lower, upper, up, down) -> list[tuple[int, ...]] | None:
    """The join table, one row per element, or None if some join is missing.

    ``order`` lists each element after its lower covers; the meet table is
    this with order, covers and masks reversed.  The bottom's row is the
    identity.  If x has lower covers a ≠ b, then x = a ∨ b and row_x =
    row_a ∘ row_b.  If x has one lower cover c, then x ∨ y = x ∨ (c ∨ y):
    row_x = t ∘ row_c, t(w) = x ∨ w looked up by mask for the w ≥ c not
    above x.  Where those are many, x ∨ y is the least member of up(x)
    above y if up(x) is a chain over few elements, else looked up.  By
    induction along ``order`` every join exists iff no lookup misses, and a
    finite poset with a least element and all joins is a lattice (Davey &
    Priestley, *Introduction to Lattices and Order*, ch. 2).
    """
    n = len(up)
    ident = tuple(range(n))
    by_up = dict(zip(up, ident))
    rows = [ident] * n
    for x in order:
        lc = lower[x]
        if lc & (lc - 1):
            a = lc.bit_length() - 1
            rows[x] = itemgetter(*rows[(lc ^ 1 << a).bit_length() - 1])(rows[a])
        elif lc:
            c, up_x = lc.bit_length() - 1, up[x]
            rest = up[c] & ~up_x
            if rest.bit_count() * 2 <= n:
                t = list(ident)
                while rest:
                    w = rest.bit_length() - 1
                    rest ^= 1 << w
                    t[w] = by_up.get(up_x & up[w])
                    if t[w] is None:
                        return None
                rows[x] = itemgetter(*rows[c])(t)
                continue
            chain, z, cost = [], x, 0
            while upper[z] and not upper[z] & (upper[z] - 1) and cost * 2 <= n:
                chain.append(z)
                cost += down[z].bit_count()
                z = upper[z].bit_length() - 1
            if upper[z] or cost * 2 > n:
                row = tuple(map(by_up.get, map(and_, repeat(up_x), up)))
                if None in row:
                    return None
            else:
                row = [z] * n
                for u in reversed(chain):
                    for y in _bits(down[u]):
                        row[y] = u
            rows[x] = tuple(row)
    return rows


class FiniteLattice:
    """A finite lattice given by its covering relation.

    The order is the reflexive-transitive closure of the covers.  Join and
    meet tables are materialized eagerly, row by row in topological order,
    so at most `MAX_ELEMENTS` elements are accepted, and construction fails
    unless every pair has a unique least upper and greatest lower bound.
    Declared covers must be transitively reduced; malformed input is
    rejected rather than repaired.
    """

    __slots__ = (
        "elements",
        "covers",
        "bottom",
        "top",
        "_index",
        "_up",
        "_down",
        "_join",
        "_meet",
        "_ucov",
        "_lcov",
        "_memo",
    )

    def __init__(self, elements, covers):
        ids = list(elements)
        _check_cap(len(ids))
        if not ids:
            raise LatticeError("a lattice needs at least one element")
        if len(set(ids)) != len(ids):
            raise LatticeError("element identifiers must be distinct")
        self.elements = tuple(sorted(ids))
        index = {e: i for i, e in enumerate(self.elements)}
        self._index = index
        n = len(self.elements)

        cover_pairs = set()
        ucov = [0] * n
        lcov = [0] * n
        for lo, hi in covers:
            if lo not in index or hi not in index:
                raise LatticeError(f"cover ({lo!r}, {hi!r}) mentions an undeclared element")
            if lo == hi:
                raise CycleDetected(f"cover ({lo!r}, {hi!r}) is a self-loop")
            cover_pairs.add((lo, hi))
            ucov[index[lo]] |= 1 << index[hi]
            lcov[index[hi]] |= 1 << index[lo]
        self.covers = frozenset(cover_pairs)
        self._ucov = tuple(ucov)
        self._lcov = tuple(lcov)

        # Kahn's order, lower-cover counts being the in-degrees, reaches each element
        # with its down-set whole; i ≺ j is implied if another lower cover of j is above i.
        indegree = list(map(int.bit_count, lcov))
        order = [i for i in range(n) if not lcov[i]]
        down = [1 << i for i in range(n)]
        implied = 0
        for i in order:
            uc, down_i = ucov[i], down[i]
            while uc:
                j = uc.bit_length() - 1
                uc ^= 1 << j
                implied |= down_i & lcov[j] ^ 1 << i
                down[j] |= down_i
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
        if len(order) < n:
            raise CycleDetected("cover relation contains a cycle")
        up = [1 << i for i in range(n)]
        for i in reversed(order):
            uc, up_i = ucov[i], up[i]
            while uc:
                j = uc.bit_length() - 1
                uc ^= 1 << j
                up_i |= up[j]
            up[i] = up_i
        self._up = tuple(up)
        self._down = tuple(down)

        # Declared covers must be exactly the transitive reduction.
        if implied:
            for lo, hi in cover_pairs:
                i, j = index[lo], index[hi]
                if up[i] & down[j] & ~(1 << i) & ~(1 << j):
                    raise NonReducedCovers(f"cover ({lo!r}, {hi!r}) is implied transitively")

        for masks in (lcov, ucov):  # the sources, then the sinks
            extremes = [i for i in range(n) if not masks[i]][:2]
            if len(extremes) > 1:
                raise NotALattice((self.elements[extremes[0]], self.elements[extremes[1]]))
        self.bottom, self.top = self.elements[order[0]], self.elements[order[-1]]

        # up(i ∨ j) == up(i) & up(j) and down(i ∧ j) == down(i) & down(j) where
        # these exist.  On a miss in `_rows`, the pair scan names the first pair.
        join = _rows(order, lcov, ucov, up, down)
        meet = join and _rows(order[::-1], ucov, lcov, down, up)
        if not meet:
            ups, downs = set(up), set(down)
            for i, j in combinations(range(n), 2):
                if up[i] & up[j] not in ups or down[i] & down[j] not in downs:
                    raise NotALattice((self.elements[i], self.elements[j]))
        self._join = tuple(join)
        self._meet = tuple(meet)
        self._memo = {}

    # -- structural accessors -------------------------------------------------

    def index(self, x: str) -> int:
        return self._index[x]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self._index[x]] >> self._index[y] & 1)

    def covered_by(self, x: str, y: str) -> bool:
        """True iff y covers x."""
        return bool(self._ucov[self._index[x]] >> self._index[y] & 1)

    def join(self, x: str, y: str) -> str:
        return self.elements[self._join[self._index[x]][self._index[y]]]

    def meet(self, x: str, y: str) -> str:
        return self.elements[self._meet[self._index[x]][self._index[y]]]

    def meet_all(self, xs) -> str:
        out = self._index[self.top]
        for x in xs:
            out = self._meet[out][self._index[x]]
        return self.elements[out]

    def upper_covers(self, x: str) -> tuple[str, ...]:
        return tuple(self.elements[j] for j in _bits(self._ucov[self._index[x]]))

    def lower_covers(self, x: str) -> tuple[str, ...]:
        return tuple(self.elements[j] for j in _bits(self._lcov[self._index[x]]))

    def interval(self, lo: str, hi: str) -> tuple[str, ...]:
        mask = self._up[self._index[lo]] & self._down[self._index[hi]]
        return tuple(self.elements[j] for j in _bits(mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.elements == other.elements and self.covers == other.covers

    def __hash__(self) -> int:
        return hash((self.elements, self.covers))

    def __repr__(self) -> str:
        return f"<FiniteLattice |L|={len(self.elements)} length={lattice_length(self)}>"


def build_lattice(elements, covers) -> FiniteLattice:
    """Validate a presentation and return the lattice it generates.

    ``elements`` is a sequence of distinct identifier strings; ``covers`` a
    set of (lower, upper) pairs that must already be transitively reduced.
    """
    return FiniteLattice(elements, covers)


def _memoised(fn):
    """Compute ``fn(lattice)`` once per lattice and keep it in ``lattice._memo``.

    The value must not reference the lattice and must be immutable, or be
    copied by the caller before it leaves the package.  The one exception
    is not made here: `retractions.retract_onto` keeps a growing dict, at
    most one item per distinct closed mask asked of that lattice.
    """

    @functools.wraps(fn)
    def memoised(lattice):
        memo = lattice._memo
        if fn not in memo:
            memo[fn] = fn(lattice)
        return memo[fn]

    return memoised


@_memoised
def _jmask(lattice: FiniteLattice) -> int:
    """Index mask of the elements with exactly one lower cover."""
    mask = 0
    for i, lc in enumerate(lattice._lcov):
        if lc and not lc & (lc - 1):
            mask |= 1 << i
    return mask


@_memoised
def _mmask(lattice: FiniteLattice) -> int:
    """Index mask of the elements with exactly one upper cover."""
    mask = 0
    for i, uc in enumerate(lattice._ucov):
        if uc and not uc & (uc - 1):
            mask |= 1 << i
    return mask


@_memoised
def join_irreducibles(lattice: FiniteLattice) -> tuple[str, ...]:
    """All non-bottom elements with exactly one lower cover, sorted."""
    return tuple(lattice.elements[i] for i in _bits(_jmask(lattice)))


@_memoised
def lattice_length(lattice: FiniteLattice) -> int:
    """Length of a longest maximal chain: `_length_on` the lattice's own cover masks."""
    return _length_on(lattice, lattice._ucov)


def _length_on(lattice: FiniteLattice, ucov) -> int:
    """Length of the sublattice on a closed mask whose upper-cover masks, 0 off it, are ucov:
    a longest path in those covers, taken in order of down-set size."""
    dist = [0] * len(ucov)
    for i in sorted(range(len(ucov)), key=lambda i: lattice._down[i].bit_count()):
        for j in _bits(ucov[i]):
            if dist[i] + 1 > dist[j]:
                dist[j] = dist[i] + 1
    return max(dist)


@_memoised
def is_distributive(lattice: FiniteLattice) -> bool:
    """True iff x ↦ J(x), the join-irreducibles below x, preserves joins.

    The map is injective and preserves meets in every finite lattice, so it
    preserves joins exactly when it embeds the lattice into the power set
    of J, that is, when the lattice is distributive (Davey & Priestley,
    *Introduction to Lattices and Order*, ch. 5).  One mask compare per
    pair: O(n²) in place of the O(n³) distributive law.
    """
    jmask = _jmask(lattice)
    jd = [down & jmask for down in lattice._down]
    for x, row in enumerate(lattice._join):
        jx = jd[x]
        for y in range(x + 1, len(jd)):
            if jd[row[y]] != jx | jd[y]:
                return False
    return True


@_memoised
def is_semimodular(lattice: FiniteLattice) -> bool:
    """True iff Birkhoff's covering condition holds: a ∧ b ≺ a, b implies a, b ≺ a ∨ b.

    If a and b both cover x then a ∧ b = x, so the premises are exactly
    the pairs of distinct upper covers of one element, and the check is
    that their join covers both, read off the cover masks.  In a lattice
    of finite length, and so in every finite one, the condition is
    equivalent to semimodularity, x ≺ y implying x ∨ z ⪯ y ∨ z
    (G. Grätzer, *Lattice Theory: Foundation*, Birkhäuser 2011, the
    section on semimodular lattices; M. Stern, *Semimodular Lattices*,
    CUP 1999).  `_semimodular_on` on the lattice's own cover masks.
    """
    return _semimodular_on(lattice, lattice._ucov)


def _semimodular_on(lattice: FiniteLattice, ucov) -> bool:
    """Birkhoff's condition on the upper-cover masks ``ucov`` of a closed mask, in
    O(Σₓ deg⁺(x)²) integer operations, where deg⁺(x) is the number of upper covers of x."""
    join = lattice._join
    for uc in ucov:
        if not uc & (uc - 1):
            continue
        covers = list(_bits(uc))
        for k, a in enumerate(covers):
            join_a, ucov_a = join[a], ucov[a]
            for b in covers[k + 1 :]:
                d = join_a[b]
                if not (ucov_a >> d & 1 and ucov[b] >> d & 1):
                    return False
    return True


def is_boolean(lattice: FiniteLattice) -> bool:
    """True iff the lattice has 2^|J| elements.

    x ↦ J(x), the join-irreducibles below x, embeds every finite lattice
    in the down-sets of J, so this holds iff it is onto the power set of
    J: the lattice is the power set of its atoms.  No distributivity scan.
    """
    return len(lattice) == 1 << _jmask(lattice).bit_count()


@_memoised
def is_slim(lattice: FiniteLattice) -> bool:
    """True iff the join-irreducibles contain no 3-element antichain.

    J has one exactly when some incomparable pair a, b of J has a common
    incomparable c in J: one AND of incomparability masks per pair.
    """
    jmask = _jmask(lattice)
    up, down = lattice._up, lattice._down
    inc = {a: jmask & ~(up[a] | down[a]) for a in _bits(jmask)}
    for a, inc_a in inc.items():
        for b in _bits(inc_a):
            if inc_a & inc[b]:
                return False
    return True


@_memoised
def grid_factor_sizes(lattice: FiniteLattice) -> tuple[int, ...] | None:
    """Factor sizes if the lattice is a direct product of nontrivial chains.

    The chain sizes, each ≥ 2 and sorted descending, or None: the
    `_grid_shape` of the full mask, with no distributivity scan.
    """
    return _grid_shape(lattice, (1 << len(lattice)) - 1)


def _grid_shape(lattice: FiniteLattice, mask: int) -> tuple[int, ...] | None:
    """Chain factor sizes, sorted descending, of the sublattice on a closed mask, or None.

    The full mask is ``lattice`` itself, with its memoised `_jmask`; any
    other mask reads J with `_sub_jmask`, and the order off ``lattice``'s
    masks, which on the mask are the sublattice's.  x ↦ J(x) embeds every
    finite lattice in the down-sets of J, so 2^|J| elements means boolean,
    decided before any comparability mask is built; otherwise J splits
    into pairwise incomparable chains iff the distinct comparability masks
    are disjoint, and the product check holds iff the embedding is onto.
    Exact on any lattice, distributive or not.  A shape is boolean iff it
    is ``()`` or its first, largest, factor is 2.
    """
    size = mask.bit_count()
    jmask = _jmask(lattice) if size == len(lattice.elements) else _sub_jmask(lattice, mask)
    k = jmask.bit_count()
    if size == 1 << k:
        return (2,) * k
    up, down = lattice._up, lattice._down
    components = {jmask & (up[a] | down[a]) for a in _bits(jmask)}
    if sum(c.bit_count() for c in components) != k:
        return None
    sizes = tuple(sorted((c.bit_count() + 1 for c in components), reverse=True))
    return sizes if prod(sizes) == size else None


@dataclass(frozen=True)
class PropertyReport:
    """Structural classification of one lattice."""

    distributive: bool
    semimodular: bool
    boolean: bool
    slim: bool
    length: int
    join_irreducible_count: int


def classify_properties(lattice: FiniteLattice) -> PropertyReport:
    """Compute the standard predicates by their direct definitions."""
    distributive = is_distributive(lattice)
    report = PropertyReport(
        distributive=distributive,
        semimodular=is_semimodular(lattice),
        boolean=is_boolean(lattice),
        slim=is_slim(lattice),
        length=lattice_length(lattice),
        join_irreducible_count=len(join_irreducibles(lattice)),
    )
    # Sanity: these implications are theorems; a violation means a bug here.
    if report.boolean and not report.distributive:
        raise LatticeError("boolean lattice misclassified as non-distributive")
    if report.distributive and not report.semimodular:
        raise LatticeError("distributive lattice misclassified as non-semimodular")
    if report.distributive and report.length != report.join_irreducible_count:
        raise LatticeError("distributive length law violated")
    return report


@dataclass(frozen=True)
class Cell:
    """A cover-preserving four-element boolean sublattice.

    The left/right labels follow canonical element order here; the planar
    modules maintain their own orientation.
    """

    bottom: str
    left: str
    right: str
    top: str


def four_cells(lattice: FiniteLattice) -> tuple[Cell, ...]:
    """All 4-cells: a ≺ b, c ≺ d with b ∧ c = a and b ∨ c = d."""
    cells = []
    for a in lattice.elements:
        ups = lattice.upper_covers(a)
        for b, c in combinations(sorted(ups), 2):
            d = lattice.join(b, c)
            if (
                lattice.covered_by(b, d)
                and lattice.covered_by(c, d)
                and lattice.meet(b, c) == a
            ):
                cells.append(Cell(a, b, c, d))
    return tuple(cells)


def _check_cap(n: int) -> None:
    """Refuse a lattice of n elements when n exceeds `MAX_ELEMENTS`."""
    if n > MAX_ELEMENTS:
        raise LatticeError(f"{n} elements exceed the limit of {MAX_ELEMENTS}")


def _closed_mask(lattice: FiniteLattice, subset) -> int:
    """Index mask of the subset if it is nonempty and closed under join and meet, else 0."""
    index, mask = lattice._index, 0
    for x in subset:
        i = index.get(x)
        if i is None:
            return 0
        mask |= 1 << i
    members = list(_bits(mask))
    for k, i in enumerate(members):
        join_i, meet_i = lattice._join[i], lattice._meet[i]
        for j in members[k:]:
            if not (mask >> join_i[j] & 1 and mask >> meet_i[j] & 1):
                return 0
    return mask


def _sublattice_mask(lattice: FiniteLattice, subset) -> int:
    """`_closed_mask`, raising `NotASublattice` where it gives 0."""
    mask = _closed_mask(lattice, subset)
    if not mask:
        raise NotASublattice(f"{sorted(subset)!r} is not a sublattice")
    return mask


def _sub_jmask(lattice: FiniteLattice, mask: int) -> int:
    """Index mask of the join-irreducibles of the sublattice on a closed mask.

    A member i is join-irreducible in the sublattice S iff the members of S
    strictly below it are not empty and their join, the ambient's since S
    is closed, is not i.  An element that is join-irreducible in the
    ambient may not be in S, and the other way round.
    """
    down, join = lattice._down, lattice._join
    jmask = 0
    for i in _bits(mask):
        below = down[i] & mask & ~(1 << i)
        if below:
            members = iter(_bits(below))
            j = next(members)
            for k in members:
                j = join[j][k]
            if j != i:
                jmask |= 1 << i
    return jmask


def _induced(lattice: FiniteLattice, mask: int) -> FiniteLattice:
    """The sublattice on the indices of a mask already known to be closed."""
    ids = lattice.elements
    covers = [(ids[i], ids[j]) for i, uc in enumerate(_covers_within(lattice._up, mask)) for j in _bits(uc)]
    return FiniteLattice([ids[i] for i in _bits(mask)], covers)


def check_sublattice(lattice: FiniteLattice, subset) -> bool:
    """True iff the subset is nonempty and closed under join and meet."""
    return bool(_closed_mask(lattice, subset))


def induced_lattice(lattice: FiniteLattice, subset) -> FiniteLattice:
    """The sublattice on a closed subset, with its own cover relation."""
    return _induced(lattice, _sublattice_mask(lattice, subset))
