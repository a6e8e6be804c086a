"""Brute-force ground truth: searches, equation systems, and enumeration.

Everything here certifies or refutes by exhaustion.  Retractions are found
(or ruled out) by backtracking with join/meet forcing; equation systems
follow the parameterized old/new rules and are solved independently of the
retraction search, so the two routes can be compared (congruence
generation lives in `morphisms` and is re-exported here).  Both run on
index arrays: the search on the lattice's integer `_join`/`_meet` rows, the
solver on integer equation slots built straight from those rows, with
element ids only in the values they return.  An equation system is kept
in one form, the solver's index, each unknown's codes read off its own
join and meet rows; a solution is checked once, by the homomorphism it
induces.  Each public entry checks its subset once, through `core`, and
passes the mask to `_search` or `_equation_system`, which take a closed
mask and check it no more; `checks` calls those two straight on the masks
of `_sublattice_masks`.  The target of a retraction is built from that
mask (an equation system keeps it for the retraction a solution induces).
One driver, `_backtrack`, runs the retraction search, the solver and
`find_embedding` on an explicit stack, and one join/meet forcing
propagator, `_forcing`, serves the retraction search and `find_embedding`.
`find_embedding` first compares lengths and skips the search when the
source is longer than the target, which no embedding allows.  The
cover-degree order that both searches filter for their variables is
memoised per lattice.
Every search here keeps its choices on a stack, so its depth is not
bounded by the interpreter's recursion limit and a call leaves no
reference cycles.
Isomorphism is decided by individualisation–refinement on the `_twins`
quotients of the two cover digraphs, and every positive answer is checked
as an explicit bijection.  Small lattices are enumerated over canonical
posets from one generator, which carries each poset's down-sets for the
Birkhoff-dual enumerator of distributive lattices to prune by, key and
build from.  Both are ordered by `canonical_key`, an exact key found by
branch and bound over the classes of the `_refine` the isomorphism test
uses; it is their order, not that test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

from .core import (
    FiniteLattice,
    LatticeError,
    NotALattice,
    _bits,
    _covers_within,
    _memoised,
    _sublattice_mask,
    build_lattice,
    is_distributive,
    is_semimodular,
    is_slim,
    lattice_length,
)
from .morphisms import Homomorphism, NotAHomomorphism, _check_onto, congruence_generated_by

__all__ = [
    "NotProper",
    "CeilingExceeded",
    "search_retraction",
    "EquationSystem",
    "Assignment",
    "build_equation_system",
    "solve_equation_system",
    "induced_homomorphism",
    "congruence_generated_by",
    "all_sublattices",
    "find_embedding",
    "is_isomorphic",
    "canonical_key",
    "enumerate_small_lattices",
    "enumerate_distributive_lattices",
    "bruteforce_lattices",
]


class NotProper(LatticeError):
    """Equation systems need at least one new element."""


class CeilingExceeded(LatticeError):
    """The enumeration ceiling protects against runaway generation."""


# ---------------------------------------------------------------------------
# retraction search
# ---------------------------------------------------------------------------


def _backtrack(order, values, val, assigned, propagate, leaf) -> int:
    """Depth-first search over the slots in `order`, on an explicit stack.

    ``val[x] == -1`` marks an open slot; ``assigned`` lists the assigned
    slots in the order they were assigned.  At each open slot, in order,
    the values are tried in order: the slot is assigned, then
    ``propagate(x, trail)`` assigns what that forces, appending each forced
    slot to the trail and to ``assigned``, and returns False on a conflict.
    A trail is undone before the next value of its slot is tried.
    ``leaf()`` runs at every complete assignment and returns True to stop.
    Returns the number of values tried.
    """
    nodes = 0
    stack: list[list] = []  # frames: [position in order, next value, trail]
    pos = 0
    while True:
        while pos < len(order) and val[order[pos]] != -1:
            pos += 1
        if pos < len(order):
            stack.append([pos, 0, ()])
        elif leaf():
            return nodes
        while stack:
            frame = stack[-1]
            for z in frame[2]:
                val[z] = -1
                assigned.pop()
            if frame[1] == len(values):
                stack.pop()
                continue
            x = order[frame[0]]
            val[x] = values[frame[1]]
            assigned.append(x)
            frame[1] += 1
            frame[2] = trail = [x]
            nodes += 1
            if propagate(x, trail):
                pos = frame[0] + 1
                break
        else:
            return nodes


@_memoised
def _degree_order(lattice: FiniteLattice) -> tuple[int, ...]:
    """Element indices by decreasing cover degree (upper plus lower covers), ties by index."""
    degree = [up.bit_count() + down.bit_count() for up, down in zip(lattice._ucov, lattice._lcov)]
    return tuple(sorted(range(len(degree)), key=lambda i: (-degree[i], i)))


def _forcing(source: FiniteLattice, target: FiniteLattice, f, assigned, injective: bool):
    """The join/meet forcing propagator both searches run on `_backtrack`.

    ``f`` maps source indices to target indices, -1 marking an open slot, and
    ``assigned`` lists the mapped slots.  Once x and y are both mapped, the
    images of x ∨ y and x ∧ y are forced to f(x) ∨ f(y) and f(x) ∧ f(y) in
    the target; a forced slot that already holds another image is a
    conflict, and so, when `injective`, is f(x) = f(y).  Every pair is
    checked when the later of its two slots is mapped, so a complete
    assignment that survives is a homomorphism (an embedding when
    `injective`).  Returns ``propagate(x, trail)`` in `_backtrack`'s form.
    """
    s_join, s_meet = source._join, source._meet
    t_join, t_meet = target._join, target._meet

    def propagate(i: int, trail: list[int]) -> bool:
        queue = [i]
        while queue:
            x = queue.pop()
            fx = f[x]
            sj, sm, tj, tm = s_join[x], s_meet[x], t_join[fx], t_meet[fx]
            # Slots forced during this walk join it; checking them against x early
            # changes no outcome, since the closure is a fixpoint.
            for y in assigned:
                if y == x:
                    continue
                fy = f[y]
                if injective and fy == fx:
                    return False
                z, t = sj[y], tj[fy]
                if f[z] == -1:
                    f[z] = t
                    trail.append(z)
                    assigned.append(z)
                    queue.append(z)
                elif f[z] != t:
                    return False
                z, t = sm[y], tm[fy]
                if f[z] == -1:
                    f[z] = t
                    trail.append(z)
                    assigned.append(z)
                    queue.append(z)
                elif f[z] != t:
                    return False
        return True

    return propagate


def _search(lattice: FiniteLattice, mask: int, count_all: bool):
    """Backtracking over maps from the new elements into a closed mask.

    ``mask`` must be closed under join and meet; it is not checked again.
    Assignments are propagated by `_forcing` within the lattice.  Variables
    are taken in decreasing cover-degree order, values in canonical element
    order.  Returns (first retraction or None, count, nodes); the first map
    is checked on the lattice's own tables, as a map onto the mask, and its
    target and id mapping are built on first read.
    """
    n = len(lattice)
    sub_idx = list(_bits(mask))
    f = [-1] * n
    for i in sub_idx:
        f[i] = i
    assigned = list(sub_idx)

    variables = [i for i in _degree_order(lattice) if not mask >> i & 1]

    count = 0
    first: list[int] | None = None

    def leaf() -> bool:
        nonlocal count, first
        count += 1
        if first is None:
            first = list(f)
        return not count_all

    propagate = _forcing(lattice, lattice, f, assigned, injective=False)
    nodes = _backtrack(variables, sub_idx, f, assigned, propagate, leaf)
    if first is None:
        return None, count, nodes
    _check_onto(lattice, first, mask)
    return Homomorphism._onto_sublattice(lattice, first, mask), count, nodes


def search_retraction(lattice: FiniteLattice, sub) -> tuple[Homomorphism | None, int]:
    """First retraction onto a sublattice (verified) plus nodes explored.

    Raises `NotASublattice` unless ``sub`` is a sublattice.
    """
    hom, _, nodes = _search(lattice, _sublattice_mask(lattice, sub), count_all=False)
    return hom, nodes


# ---------------------------------------------------------------------------
# equation systems
# ---------------------------------------------------------------------------


class EquationSystem:
    """The join/meet equation system of a sublattice inside an ambient lattice.

    One join and one meet equation is emitted for every ordered pair with at
    least one new element; the old/new pattern of the operands and of the
    computed value decides which slots are parameters and which are
    unknowns.  Substituting each new element for its own unknown always
    satisfies the system inside the ambient lattice.

    Equations are slot codes: parameter e is slot index(e) and unknown x is
    slot n + index(x), so a value array starting as
    ``list(range(n)) + [-1] * n`` evaluates every term, and each code is
    ``(table, left, right, result)`` with the ambient's join or meet table.
    Only `_equation_system` builds one, from a closed sublattice mask.
    ``unknowns`` is read off that mask in index order.
    ``_by_unknown`` is the system's one form, the index the solver reads:
    under each unknown slot, the codes with ``left <= right`` that have it
    as an operand, in system order; a code with ``left > right`` says what
    its mirror image does, since the tables are symmetric.  A solution is
    checked by `induced_homomorphism`, not against the codes.
    """

    def __init__(self, ambient: FiniteLattice, mask: int, by_unknown: dict):
        self.ambient, self._mask, self._by_unknown = ambient, mask, by_unknown
        self.unknowns = tuple(x for i, x in enumerate(ambient.elements) if not mask >> i & 1)


@dataclass(frozen=True)
class Assignment:
    """A solution: one sublattice element per unknown."""

    values: dict[str, str]


def _slots(n: int, mask: int) -> list[int]:
    """Slot of each element index: itself when in mask, else n plus itself."""
    return [i if mask >> i & 1 else n + i for i in range(n)]


def build_equation_system(lattice: FiniteLattice, sub) -> EquationSystem:
    """The equation system of a sublattice, checked once; see `_equation_system`."""
    return _equation_system(lattice, _sublattice_mask(lattice, sub))


def _equation_system(lattice: FiniteLattice, mask: int) -> EquationSystem:
    """Emit the equations for all ordered pairs touching a new element.

    ``mask`` must be closed under join and meet; it is not checked again,
    and `NotProper` is raised when it is full.  The equations go straight
    onto integer slots from the join and meet rows, so with every slot
    holding its own element each code reads a table entry against itself
    and holds; the tests assert it.  Only the solver's index is built: for
    the unknown u at index i, its join and meet rows are read once through
    the slots, giving (slot k, u) for k < i, then (u, slot k) for each
    unknown k >= i, then (slot k, u) for each parameter k > i.  That is the
    order in which the codes with ``left <= right`` touching u come in
    system order, so the forcing order of the solver does not depend on how
    the index was built.
    """
    n = len(lattice)
    if mask == (1 << n) - 1:
        raise NotProper("the sublattice must be proper")

    join, meet = lattice._join, lattice._meet
    slot = _slots(n, mask)
    by_unknown: dict[int, list[tuple]] = {}
    for i, u in enumerate(slot):
        if u < n:
            continue
        joins, meets = join[i], meet[i]
        codes = []
        for k in range(i):
            s = slot[k]
            codes += (join, s, u, slot[joins[k]]), (meet, s, u, slot[meets[k]])
        for k in range(i, n):
            s = slot[k]
            if s >= n:
                codes += (join, u, s, slot[joins[k]]), (meet, u, s, slot[meets[k]])
        for k in range(i + 1, n):
            s = slot[k]
            if s < n:
                codes += (join, s, u, slot[joins[k]]), (meet, s, u, slot[meets[k]])
        by_unknown[u] = codes
    return EquationSystem(lattice, mask, by_unknown)


def solve_equation_system(system: EquationSystem, mode: str = "first"):
    """Solve over the sublattice by backtracking with forcing.

    Equations whose operand slots are fully assigned force (or check) their
    result slot.  Unknowns are taken in decreasing cover-degree order,
    values in canonical element order, on the integer slots of the system.
    mode="first" returns an Assignment or None; mode="count" returns the
    number of solutions.  A leaf is reached only when every code under
    every unknown has been forced or checked, so the first solution is not
    checked against the system again; the tests do that.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    lat = system.ambient
    n = len(lat)
    by_unknown = system._by_unknown
    mask = system._mask
    unknowns = [n + i for i in _degree_order(lat) if not mask >> i & 1]
    values = list(_bits(mask))
    val = list(range(n)) + [-1] * n
    assigned: list[int] = []
    count = 0
    first: dict[str, str] | None = None

    def propagate(x: int, trail: list[int]) -> bool:
        queue = [x]
        while queue:
            for table, left, right, result in by_unknown[queue.pop()]:
                a, b = val[left], val[right]
                if a < 0 or b < 0:
                    continue
                value = table[a][b]
                have = val[result]
                if have < 0:
                    val[result] = value
                    trail.append(result)
                    assigned.append(result)
                    queue.append(result)
                elif have != value:
                    return False
        return True

    def leaf() -> bool:
        nonlocal count, first
        count += 1
        if first is None:
            first = {lat.elements[x - n]: lat.elements[val[x]] for x in assigned}
        return mode == "first"

    _backtrack(unknowns, values, val, assigned, propagate, leaf)
    if mode == "count":
        return count
    if first is None:
        return None
    return Assignment(first)


def induced_homomorphism(system: EquationSystem, assignment: Assignment) -> Homomorphism:
    """The retraction determined by a solution: identity on old, values on new.

    Its target is the sublattice on the system's mask, checked when the
    system was, and built only when it is read.  The map's own check is the
    solution's: it checks every join and meet on the ambient's tables, the
    system's equations among them, while those of two old elements hold
    since the sublattice is closed and fixed; a value outside the
    sublattice is an image outside the target.
    """
    values = assignment.values
    if values.keys() != set(system.unknowns):
        raise LatticeError("assignment does not satisfy the system")
    lat = system.ambient
    index = lat._index
    g = [index.get(values.get(x, x)) for x in lat.elements]
    try:
        if None in g:
            raise NotAHomomorphism("an image is not an element")
        _check_onto(lat, g, system._mask)
    except NotAHomomorphism as exc:
        raise LatticeError("assignment does not satisfy the system") from exc
    return Homomorphism._onto_sublattice(lat, g, system._mask)


# ---------------------------------------------------------------------------
# sublattice and embedding enumeration
# ---------------------------------------------------------------------------


def all_sublattices(lattice: FiniteLattice):
    """All nonempty subsets closed under join and meet, by next-closure.

    Yields frozensets of identifiers in lectic order over canonical indices.
    """
    for mask in _sublattice_masks(lattice):
        yield _mask_to_set(lattice, mask)


def _sublattice_masks(lattice: FiniteLattice):
    """The index masks of `all_sublattices`, in the same order."""
    n = len(lattice)
    join = lattice._join
    meet = lattice._meet

    def closure(mask: int) -> int:
        while True:
            new = mask
            items = list(_bits(mask))
            for ii, i in enumerate(items):
                for j in items[ii:]:
                    new |= 1 << join[i][j]
                    new |= 1 << meet[i][j]
            if new == mask:
                return mask
            mask = new

    full = (1 << n) - 1
    current = closure(0)
    if current:
        yield current
    while current != full:
        for i in range(n - 1, -1, -1):
            if current >> i & 1:
                continue
            candidate = closure((current & ((1 << i) - 1)) | 1 << i)
            if not candidate & ((1 << i) - 1) & ~current:
                current = candidate
                break
        else:  # pragma: no cover - next-closure always terminates at full
            return
        yield current


def _mask_to_set(lattice: FiniteLattice, mask: int) -> frozenset[str]:
    return frozenset(lattice.elements[i] for i in _bits(mask))


def find_embedding(small: FiniteLattice, big: FiniteLattice) -> dict[str, str] | None:
    """First injective homomorphism in canonical search order, or None.

    Elements are mapped bottom-up, by down-set size and then id, onto big's
    elements in canonical order, with `_forcing` from small to big on
    `_backtrack`.  An element that is the join or meet of two mapped ones
    has a forced image, so branching happens only where nothing is forced.
    Forcing never removes an embedding, so the first one found is the
    lexicographically first in that order; its keys follow the same order.
    An embedding is an order embedding, so it maps a longest chain of small
    onto a chain of big of the same length: when small is longer than big,
    None is returned without a search.
    """
    if lattice_length(small) > lattice_length(big):
        return None
    n = len(small)
    order = sorted(range(n), key=lambda i: (small._down[i].bit_count(), small.elements[i]))
    f = [-1] * n
    assigned: list[int] = []
    propagate = _forcing(small, big, f, assigned, injective=True)
    _backtrack(order, range(len(big)), f, assigned, propagate, lambda: True)
    if -1 in f:
        return None
    return {small.elements[i]: big.elements[f[i]] for i in order}


# ---------------------------------------------------------------------------
# isomorphism and canonical forms
# ---------------------------------------------------------------------------


def _twins(up, down) -> list[int]:
    """Twin class of each vertex, numbered in order of first member.

    ``up`` and ``down`` are out- and in-neighbour masks.  Two vertices are
    twins when they have the same out- and in-neighbours besides themselves
    and the same self-loop bit: twins are never adjacent, and swapping two of
    them is an automorphism that fixes every other vertex.
    """
    number: dict[tuple[int, int, int], int] = {}
    keys = ((u & ~(1 << v), d & ~(1 << v), u >> v & 1) for v, (u, d) in enumerate(zip(up, down)))
    return [number.setdefault(k, len(number)) for k in keys]


def _digraph_canonical_key(n: int, adj: tuple[int, ...]) -> tuple:
    """Minimum adjacency encoding over invariant-respecting permutations.

    Vertices are coloured by `_refine`, starting from the rank of their
    (out-degree, in-degree) pair, so classes are numbered by colours alone
    and never by vertex labels.  Every concatenation of one permutation per
    class, in class order, is encoded as rows of out-neighbour positions,
    and the least encoding wins.  It is found by branch and bound on an
    explicit stack (McKay & Piperno, arXiv:1301.1493): a vertex alone in its
    class has a fixed position; the others are filled in order, least
    partial row first, trying only the least free member of each `_twins`
    class (twins share a colour, and the subtrees of two free twins are
    mirror images under their swap).  A row with m unplaced out-neighbours,
    all due at or after the next open position q, is at least
    ``partial + ((1 << m) - 1 << q)``; a branch whose rows before q bound a
    tuple above the best so far is cut.  Leading rows exact and equal to the
    best are not compared again.
    """
    up = [list(_bits(adj[v])) for v in range(n)]
    down: list[list[int]] = [[] for _ in range(n)]
    into = [0] * n  # in-neighbour masks
    for v in range(n):
        for w in up[v]:
            down[w].append(v)
            into[w] |= 1 << v
    degrees = [(len(ups), len(downs)) for ups, downs in zip(up, down)]
    rank = {d: r for r, d in enumerate(sorted(set(degrees)))}
    colour = _refine(up, down, [rank[d] for d in degrees])
    classes: list[list[int]] = [[] for _ in range(len(set(colour)))]
    for v in range(n):
        classes[colour[v]].append(v)

    order = [cls for cls in classes for _ in cls]  # the class that fills each position
    at = [cls[0] if len(cls) == 1 else -1 for cls in order]  # the vertex at each position
    row = [0] * n  # by vertex: bits of the positions of its placed out-neighbours
    for p, v in enumerate(at):
        if v >= 0:
            for u in down[v]:
                row[u] |= 1 << p
    slots = [p for p, v in enumerate(at) if v < 0]  # the open positions, filled in order
    if not slots:
        return (n, tuple([row[v] for v in at]))
    twin = _twins(adj, into)
    after = [n] * n  # by vertex: its next twin in index order, n after the last
    first: dict[int, int] = {}  # by twin class: its least member
    for v in range(n - 1, -1, -1):
        after[v], first[twin[v]] = first.get(twin[v], n), v
    ready = [first[c] == v for v, c in enumerate(twin)] + [False]  # free, earlier twins placed

    degree = [len(up[cls[0]]) for cls in order]  # by position: a class shares its out-degree
    best = (1 << n,) * n  # above every encoding
    limit = slots[1:] + [n]  # the next open position after each
    exact = [0] * (len(slots) + 1)  # leading rows known exact and equal to best
    rank_of = row.__getitem__  # candidates are tried smallest partial row first
    untried = [sorted(filter(ready.__getitem__, order[slots[0]]), key=rank_of, reverse=True)]
    untried += [[] for _ in slots[1:]]
    t = 0
    while t >= 0:
        p = slots[t]
        v = at[p]
        if v >= 0:
            for u in down[v]:
                row[u] ^= 1 << p
            at[p], ready[v], ready[after[v]] = -1, True, False
        if not untried[t]:
            t -= 1
            continue
        v = at[p] = untried[t].pop()
        ready[v], ready[after[v]] = False, True
        for u in down[v]:
            row[u] |= 1 << p
        q, i = limit[t], exact[t]
        while i < q and row[at[i]] == best[i] and row[at[i]].bit_count() == degree[i]:
            i += 1
        exact[t + 1] = i
        while i < q:
            r = row[at[i]]
            r += (1 << degree[i] - r.bit_count()) - 1 << q
            if r != best[i]:
                break
            i += 1
        if i < q and r > best[i]:
            continue
        if t + 1 < len(slots):
            t += 1
            untried[t] = sorted(filter(ready.__getitem__, order[slots[t]]), key=rank_of, reverse=True)
        elif i < q:
            best = tuple([row[v] for v in at])
    return (n, best)


def canonical_key(lattice: FiniteLattice) -> tuple:
    """Exact isomorphism-invariant key of the cover digraph.

    The minimum adjacency encoding over all orderings that respect the
    refined vertex colours, found by `_digraph_canonical_key`'s branch and
    bound.  Orderings that differ by a swap of twins tie and are tried once,
    so M_k visits one leaf; other automorphic ties are not cut.  It fixes the
    output order of both enumerators, so its values must never change.
    Isomorphism tests go through `is_isomorphic` instead.
    """
    return _digraph_canonical_key(len(lattice), tuple(lattice._ucov))


def _refine(up: list[list[int]], down: list[list[int]], colour: list[int]) -> list[int]:
    """Coarsest equitable refinement of a colouring numbered 0..c-1.

    Each round a vertex's new colour is (its colour, the sorted colours of
    its upper covers, the sorted colours of its lower covers), numbered in
    sorted order, so the numbering depends only on colours and never on
    vertex labels.  Stops, returning the colouring as it stands, once it is
    discrete or a round adds no class (its renumbering is then the identity).
    """
    classes = len(set(colour))
    while classes < len(colour):
        of = colour.__getitem__
        signature = [
            (c, tuple(sorted(map(of, ups))), tuple(sorted(map(of, downs))))
            for c, ups, downs in zip(colour, up, down)
        ]
        distinct = sorted(set(signature))
        if len(distinct) == classes:
            break
        number = {sig: i for i, sig in enumerate(distinct)}
        colour = [number[sig] for sig in signature]
        classes = len(distinct)
    return colour


def is_isomorphic(a: FiniteLattice, b: FiniteLattice) -> bool:
    """Whether the cover digraphs of a and b are isomorphic.

    Individualisation–refinement in the style of McKay & Piperno,
    "Practical graph isomorphism II" (2014), run on the twin quotients of
    the two graphs: one vertex per `_twins` class, coloured by the class
    size, with vertices 0..m-1 for a's classes and m..2m-1 for b's and one
    shared numbering; without twins these are the two graphs themselves.
    After refinement, differing colour histograms refute the branch; an
    all-singleton colouring gives the only candidate class bijection, which
    is lifted to elements, the members of each class in index order, and
    checked cover by cover, so a True is always certified.  Otherwise one
    vertex of a in the smallest non-singleton cell (lowest colour first) is
    given a fresh colour together with each vertex of b in that cell in
    turn.  The search runs on an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit.
    """
    n = len(a)
    if n != len(b) or len(a.covers) != len(b.covers):
        return False
    members: list[list[int]] = []  # by quotient vertex: its elements, in index order
    up: list[list[int]] = []
    down: list[list[int]] = []
    for lattice in (a, b):
        twin = _twins(lattice._ucov, lattice._lcov)
        offset, classes = len(members), [[] for _ in range(max(twin) + 1)]
        for v, c in enumerate(twin):
            classes[c].append(v)
        members += classes
        firsts = [cls[0] for cls in classes]
        mask = sum(1 << v for v in firsts)  # each neighbour class once, by its first member
        up += [[twin[w] + offset for w in _bits(lattice._ucov[v] & mask)] for v in firsts]
        down += [[twin[w] + offset for w in _bits(lattice._lcov[v] & mask)] for v in firsts]
    m = len(classes)  # b's class count; a's is the offset of b's first class
    if offset != m:
        return False

    sizes = sorted({len(cls) for cls in members})
    colour = _refine(up, down, [sizes.index(len(cls)) for cls in members])
    # frames: (colouring, individualised vertex of a, untried vertices of b)
    stack: list[tuple[list[int], int, list[int]]] = []
    while True:
        if sorted(colour[:m]) == sorted(colour[m:]):
            size = [0] * (max(colour) + 1)
            for c in colour[:m]:
                size[c] += 1
            cells = [(s, c) for c, s in enumerate(size) if s > 1]
            if not cells:
                image = {colour[w]: members[w] for w in range(m, 2 * m)}
                phi = {v: w for c in range(m) for v, w in zip(members[c], image[colour[c]])}
                b_up = b._ucov  # b has as many covers as a, so it has no others
                if all(b_up[phi[v]] >> phi[w] & 1 for v, ups in enumerate(a._ucov) for w in _bits(ups)):
                    return True
            else:
                target = min(cells)[1]
                v = colour.index(target)
                candidates = [w for w in range(2 * m - 1, m - 1, -1) if colour[w] == target]
                stack.append((colour, v, candidates))
        while stack and not stack[-1][2]:
            stack.pop()
        if not stack:
            return False
        base, v, candidates = stack[-1]
        colour = list(base)
        colour[v] = colour[candidates.pop()] = max(base) + 1
        colour = _refine(up, down, colour)


# ---------------------------------------------------------------------------
# enumeration of small lattices
# ---------------------------------------------------------------------------


def _canonical_posets_upto(max_size: int, max_downsets: int | None = None):
    """Pairwise non-isomorphic posets by size, each with its down-sets.

    Yields, for each size up to max_size, the (poset, down-sets) pairs: up-set
    masks in linear-extension order, and ascending down-set masks.  The new
    maximal element k over an ideal D adds d | 1 << k for each parent down-set
    d ⊇ D, so only the level being extended is held.  With `max_downsets`,
    posets with more are dropped: an element only adds down-sets.
    """
    level: list[tuple[tuple[int, ...], list[int]]] = [((), [0])]
    for size in range(max_size):
        yield level
        bit = 1 << size
        seen: dict[tuple, tuple[tuple[int, ...], list[int]]] = {}
        for poset, downsets in level:
            for ideal in downsets:
                above = [d | bit for d in downsets if d & ideal == ideal]
                if max_downsets is not None and len(downsets) + len(above) > max_downsets:
                    continue
                ext = tuple([leq | bit if ideal >> i & 1 else leq for i, leq in enumerate(poset)] + [bit])
                key = _digraph_canonical_key(size + 1, ext)
                if key not in seen:
                    seen[key] = (ext, downsets + above)
        level = [seen[k] for k in sorted(seen)]
    yield level


def _poset_bounded_lattice(leq: tuple[int, ...]) -> FiniteLattice | None:
    """The lattice P ∪ {0,1}, or None when some pair of P lacks a unique bound."""
    k = len(leq)
    top = 1 << (k + 1)
    # index 0 is the new bottom, P follows shifted by one, k + 1 is the new top
    up = [2 * top - 1] + [leq_i << 1 | top for leq_i in leq] + [top]
    width = len(str(k + 1))
    ids = [f"{v:0{width}d}" for v in range(k + 2)]
    covers = [(ids[i], ids[j]) for i, uc in enumerate(_covers_within(up, 2 * top - 1)) for j in _bits(uc)]
    try:
        return build_lattice(ids, covers)
    except NotALattice:
        return None


_FILTERS = {
    "distributive": is_distributive,
    "semimodular": is_semimodular,
    "slim": is_slim,
}


def enumerate_small_lattices(max_size: int, filters=(), ceiling: int = 8):
    """Pairwise non-isomorphic lattices up to max_size, in deterministic order.

    A lattice with n ≥ 2 elements is the bounded extension of the poset of
    its non-extremal elements, so generation runs over canonical posets of
    size n - 2 having unique minimal upper and maximal lower bounds
    pairwise.  Optional filters: "distributive", "semimodular", "slim".
    """
    if max_size > ceiling:
        raise CeilingExceeded(f"requested {max_size}, ceiling is {ceiling}")
    predicates = []
    for name in filters:
        if name not in _FILTERS:
            raise LatticeError(f"unknown filter {name!r}")
        predicates.append(_FILTERS[name])

    def emit(lattice: FiniteLattice):
        return all(p(lattice) for p in predicates)

    if max_size >= 1:
        singleton = build_lattice(["0"], [])
        if emit(singleton):
            yield singleton
    if max_size < 2:
        return
    for poset, _ in chain.from_iterable(_canonical_posets_upto(max_size - 2)):
        lattice = _poset_bounded_lattice(poset)
        if lattice is not None and emit(lattice):
            yield lattice


def bruteforce_lattices(max_size: int):
    """Second, independent generation strategy for the cross-check.

    Enumerates every labeled cover relation over {0, ..., n-1} in which the
    labels form a linear extension and each non-bottom element has a lower
    cover, keeps the ones that build a lattice, and rejects isomorphs by
    canonical key.  Exponential, so only usable for very small sizes.
    """
    yield build_lattice(["0"], [])
    for n in range(2, max_size + 1):
        ids = [f"{i}" for i in range(n)]
        seen = set()
        lower_choices = []
        for j in range(1, n):
            subsets = [
                [i for i in range(j) if mask >> i & 1]
                for mask in range(1, 1 << j)
            ]
            lower_choices.append(subsets)
        for combo in product(*lower_choices):
            covers = [
                (ids[i], ids[j + 1]) for j, lows in enumerate(combo) for i in lows
            ]
            try:
                lattice = build_lattice(ids, covers)
            except LatticeError:
                continue
            key = canonical_key(lattice)
            if key not in seen:
                seen.add(key)
                yield lattice


def enumerate_distributive_lattices(max_size: int):
    """Distributive lattices up to max_size, via Birkhoff duality.

    Takes the canonical posets with at most max_size down-sets (so at most
    max_size - 1 elements) and emits the lattice of down-sets of each.
    Distinct posets give non-isomorphic lattices, so no lattice-level
    isomorph rejection is needed.  Only each lattice's cover masks and
    `canonical_key`, taken on them, are kept (the ids are zero-padded
    positions, so the masks are in its index order); it is built when yielded.
    """
    if max_size < 1:
        return
    entries = []
    posets = chain.from_iterable(_canonical_posets_upto(max_size - 1, max_downsets=max_size))
    for poset, downsets in posets:
        masks = sorted(downsets, key=lambda m: (m.bit_count(), m))
        index = {m: i for i, m in enumerate(masks)}
        bits = [1 << b for b in range(len(poset))]
        ucov = [sum(1 << index[m | b] for b in bits if not m & b and m | b in index) for m in masks]
        entries.append((_digraph_canonical_key(len(masks), tuple(ucov)), ucov))
    entries.sort(key=lambda entry: entry[0])
    for (size, _), ucov in entries:
        width = len(str(size))
        ids = [f"{i:0{width}d}" for i in range(size)]
        yield build_lattice(ids, [(ids[i], ids[j]) for i, up in enumerate(ucov) for j in _bits(up)])
