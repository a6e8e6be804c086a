"""Brute-force ground truth: searches, equation systems, and enumeration.

Everything here certifies or refutes by exhaustion.  Retractions are found
(or ruled out) by backtracking with join/meet forcing; equation systems
follow the parameterized old/new rules and are solved independently of the
retraction search, so the two routes can be compared; congruences are
generated by closing under translations.  Isomorphism is decided by
individualisation–refinement on the two cover digraphs, and every positive
answer is checked as an explicit bijection.  Small lattices are enumerated
up to isomorphism over canonical posets, with a Birkhoff-dual generator for
distributive ones that lists down-sets in one pass over a linear extension;
both enumerators are ordered by `canonical_key`, an exact but exponential
key that serves as their sort order, not as the isomorphism test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .core import (
    FiniteLattice,
    LatticeError,
    build_lattice,
    check_sublattice,
    induced_lattice,
    is_distributive,
    is_semimodular,
    is_slim,
)
from .retractions import Congruence, Homomorphism

__all__ = [
    "NotASublatticeHere",
    "NotProper",
    "CeilingExceeded",
    "exists_retraction",
    "search_retraction",
    "Term",
    "Equation",
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


class NotASublatticeHere(LatticeError):
    """Raised when a search is asked to fix a set that is not a sublattice."""


class NotProper(LatticeError):
    """Equation systems need at least one new element."""


class CeilingExceeded(LatticeError):
    """The enumeration ceiling protects against runaway generation."""


# ---------------------------------------------------------------------------
# retraction search
# ---------------------------------------------------------------------------


def _search(lattice: FiniteLattice, sub: set[str], count_all: bool):
    """Backtracking over maps from the new elements into the sublattice.

    Assignments are propagated through the join and meet tables: once both
    arguments of a pair are mapped, the image of their join and meet is
    forced.  Variables are taken in decreasing cover-degree order, values in
    canonical element order.  Returns (first mapping or None, count, nodes).
    """
    n = len(lattice)
    idx = lattice.index
    join = lattice._join
    meet = lattice._meet
    sub_idx = sorted(idx(x) for x in sub)
    in_sub = [False] * n
    for i in sub_idx:
        in_sub[i] = True

    f = [-1] * n
    for i in sub_idx:
        f[i] = i
    assigned = list(sub_idx)

    degree = [
        len(lattice.upper_covers(x)) + len(lattice.lower_covers(x))
        for x in lattice.elements
    ]
    variables = sorted(
        (i for i in range(n) if not in_sub[i]), key=lambda i: (-degree[i], i)
    )

    nodes = 0
    count = 0
    first: list[int] | None = None

    def propagate(i: int, trail: list[int]) -> bool:
        queue = [i]
        while queue:
            x = queue.pop()
            fx = f[x]
            for y in list(assigned):
                if y == x:
                    continue
                fy = f[y]
                for table in (join, meet):
                    z = table[x][y]
                    t = table[fx][fy]
                    if f[z] == -1:
                        f[z] = t
                        trail.append(z)
                        assigned.append(z)
                        queue.append(z)
                    elif f[z] != t:
                        return False
        return True

    def undo(trail: list[int]):
        for z in trail:
            f[z] = -1
            assigned.pop()

    def solve(pos: int) -> bool:
        nonlocal nodes, count, first
        while pos < len(variables) and f[variables[pos]] != -1:
            pos += 1
        if pos == len(variables):
            count += 1
            if first is None:
                first = list(f)
            return not count_all
        x = variables[pos]
        for v in sub_idx:
            nodes += 1
            f[x] = v
            assigned.append(x)
            trail = [x]
            if propagate(x, trail) and solve(pos + 1):
                return True
            undo(trail)
        return False

    solve(0)
    mapping = None
    if first is not None:
        mapping = {
            lattice.elements[i]: lattice.elements[first[i]] for i in range(n)
        }
    return mapping, count, nodes


def search_retraction(lattice: FiniteLattice, sub) -> tuple[Homomorphism | None, int]:
    """First retraction onto a sublattice (verified) plus nodes explored."""
    sub = set(sub)
    if not check_sublattice(lattice, sub):
        raise NotASublatticeHere(f"{sorted(sub)!r} is not a sublattice")
    mapping, _, nodes = _search(lattice, sub, count_all=False)
    if mapping is None:
        return None, nodes
    hom = Homomorphism(lattice, induced_lattice(lattice, sub), mapping)
    return hom, nodes


def exists_retraction(lattice: FiniteLattice, sub, mode: str = "first"):
    """Search for retractions onto a sublattice.

    mode="first" returns a verified Homomorphism or None; mode="count"
    returns the exact number of retractions.
    """
    sub = set(sub)
    if not check_sublattice(lattice, sub):
        raise NotASublatticeHere(f"{sorted(sub)!r} is not a sublattice")
    if mode == "first":
        hom, _ = search_retraction(lattice, sub)
        return hom
    if mode == "count":
        _, count, _ = _search(lattice, sub, count_all=True)
        return count
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# equation systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One side of an equation: a parameter from the sublattice or an unknown."""

    kind: str  # "param" | "unknown"
    element: str


@dataclass(frozen=True)
class Equation:
    """op(left, right) ≈ result, with each slot a parameter or an unknown."""

    op: str  # "join" | "meet"
    left: Term
    right: Term
    result: Term


@dataclass(frozen=True)
class EquationSystem:
    """The join/meet equation system of a sublattice inside an ambient lattice.

    One join and one meet equation is emitted for every ordered pair with at
    least one new element; the old/new pattern of the operands and of the
    computed value decides which slots are parameters and which are
    unknowns.  Substituting each new element for its own unknown always
    satisfies the system inside the ambient lattice.
    """

    ambient: FiniteLattice
    sub: frozenset[str]
    unknowns: tuple[str, ...]
    equations: tuple[Equation, ...]


@dataclass(frozen=True)
class Assignment:
    """A solution: one sublattice element per unknown."""

    values: dict[str, str]


def build_equation_system(lattice: FiniteLattice, sub) -> EquationSystem:
    """Emit the equations for all ordered pairs touching a new element."""
    sub = frozenset(sub)
    if not check_sublattice(lattice, sub):
        raise NotASublatticeHere(f"{sorted(sub)!r} is not a sublattice")
    if sub == frozenset(lattice.elements):
        raise NotProper("the sublattice must be proper")

    def term(e: str) -> Term:
        return Term("param" if e in sub else "unknown", e)

    new = tuple(x for x in lattice.elements if x not in sub)
    equations = []
    for a in lattice.elements:
        for b in lattice.elements:
            if a in sub and b in sub:
                continue
            equations.append(
                Equation("join", term(a), term(b), term(lattice.join(a, b)))
            )
            equations.append(
                Equation("meet", term(a), term(b), term(lattice.meet(a, b)))
            )
    system = EquationSystem(lattice, sub, new, tuple(equations))
    identity = Assignment({x: x for x in new})
    if not _satisfies(system, identity, ambient=True):  # pragma: no cover
        raise LatticeError("identity substitution failed; system is malformed")
    return system


def _satisfies(system: EquationSystem, assignment: Assignment, ambient: bool = False) -> bool:
    """Check an assignment; values may range over the ambient when asked."""
    lat = system.ambient
    values = assignment.values
    if set(values) != set(system.unknowns):
        return False
    if not ambient and not all(v in system.sub for v in values.values()):
        return False

    def ev(t: Term) -> str:
        return t.element if t.kind == "param" else values[t.element]

    for eq in system.equations:
        op = lat.join if eq.op == "join" else lat.meet
        if op(ev(eq.left), ev(eq.right)) != ev(eq.result):
            return False
    return True


def solve_equation_system(system: EquationSystem, mode: str = "first"):
    """Solve over the sublattice by backtracking with forcing.

    Equations whose operand slots are fully assigned force (or check) their
    result slot.  mode="first" returns an Assignment or None; mode="count"
    returns the number of solutions.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    lat = system.ambient
    unknowns = list(system.unknowns)
    degree = {
        x: len(lat.upper_covers(x)) + len(lat.lower_covers(x)) for x in unknowns
    }
    unknowns.sort(key=lambda x: (-degree[x], x))
    values = sorted(system.sub)

    by_unknown: dict[str, list[Equation]] = {x: [] for x in unknowns}
    for eq in system.equations:
        mentioned = {
            t.element for t in (eq.left, eq.right, eq.result) if t.kind == "unknown"
        }
        for x in mentioned:
            by_unknown[x].append(eq)

    assignment: dict[str, str] = {}
    count = 0
    first: dict[str, str] | None = None

    def ev(t: Term) -> str | None:
        if t.kind == "param":
            return t.element
        return assignment.get(t.element)

    def propagate(x: str, trail: list[str]) -> bool:
        queue = [x]
        while queue:
            cur = queue.pop()
            for eq in by_unknown[cur]:
                left, right = ev(eq.left), ev(eq.right)
                if left is None or right is None:
                    continue
                value = (lat.join if eq.op == "join" else lat.meet)(left, right)
                res = ev(eq.result)
                if res is None:
                    assignment[eq.result.element] = value
                    trail.append(eq.result.element)
                    queue.append(eq.result.element)
                elif res != value:
                    return False
        return True

    def solve(pos: int) -> bool:
        nonlocal count, first
        while pos < len(unknowns) and unknowns[pos] in assignment:
            pos += 1
        if pos == len(unknowns):
            count += 1
            if first is None:
                first = dict(assignment)
            return mode == "first"
        x = unknowns[pos]
        for v in values:
            assignment[x] = v
            trail = [x]
            if propagate(x, trail) and solve(pos + 1):
                return True
            for y in trail:
                del assignment[y]
        return False

    solve(0)
    if mode == "count":
        return count
    if first is None:
        return None
    result = Assignment(first)
    if not _satisfies(system, result):  # pragma: no cover - forced by search
        raise LatticeError("search returned a non-solution")
    return result


def induced_homomorphism(system: EquationSystem, assignment: Assignment) -> Homomorphism:
    """The retraction determined by a solution: identity on old, values on new."""
    if not _satisfies(system, assignment):
        raise LatticeError("assignment does not satisfy the system")
    lat = system.ambient
    mapping = {
        x: (x if x in system.sub else assignment.values[x]) for x in lat.elements
    }
    return Homomorphism(lat, induced_lattice(lat, system.sub), mapping)


# ---------------------------------------------------------------------------
# congruence generation
# ---------------------------------------------------------------------------


def congruence_generated_by(lattice: FiniteLattice, pairs) -> Congruence:
    """Least congruence containing the pairs.

    Union-find closure under join and meet translations: whenever two
    elements merge, their joins and meets with every element merge too.
    """
    parent = {x: x for x in lattice.elements}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work: list[tuple[str, str]] = []

    def union(a: str, b: str):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            work.append((a, b))

    for a, b in pairs:
        union(a, b)
    while work:
        a, b = work.pop()
        for z in lattice.elements:
            union(lattice.join(a, z), lattice.join(b, z))
            union(lattice.meet(a, z), lattice.meet(b, z))

    blocks: dict[str, set[str]] = {}
    for x in lattice.elements:
        blocks.setdefault(find(x), set()).add(x)
    return Congruence(lattice, tuple(frozenset(b) for b in blocks.values()))


# ---------------------------------------------------------------------------
# sublattice and embedding enumeration
# ---------------------------------------------------------------------------


def all_sublattices(lattice: FiniteLattice):
    """All nonempty subsets closed under join and meet, by next-closure.

    Yields frozensets of identifiers in lectic order over canonical indices.
    """
    n = len(lattice)
    join = lattice._join
    meet = lattice._meet

    def closure(mask: int) -> int:
        while True:
            new = mask
            items = list(_mask_bits(mask))
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
        yield _mask_to_set(lattice, current)
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
        yield _mask_to_set(lattice, current)


def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_to_set(lattice: FiniteLattice, mask: int) -> frozenset[str]:
    return frozenset(lattice.elements[i] for i in _mask_bits(mask))


def find_embedding(small: FiniteLattice, big: FiniteLattice) -> dict[str, str] | None:
    """First injective homomorphism in canonical search order, or None.

    Elements are processed bottom-up; an element that is the join of two
    earlier ones has a forced image, so branching happens only on the
    bottom and the join-irreducibles.
    """
    order = sorted(
        small.elements, key=lambda x: (len(small.down_set(x)), x)
    )
    position = {x: i for i, x in enumerate(order)}
    forced: dict[str, tuple[str, str]] = {}
    for x in small.elements:
        below = [y for y in small.elements if small.lt(y, x)]
        for a in below:
            for b in below:
                if (
                    small.join(a, b) == x
                    and position[a] < position[x]
                    and position[b] < position[x]
                ):
                    forced[x] = (a, b)
                    break
            if x in forced:
                break

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(x: str) -> bool:
        # pairs involving x, and pairs whose join or meet lands on x: together
        # these verify every constraint once its last participant is mapped
        fx = mapping[x]
        for y, fy in mapping.items():
            if y == x:
                continue
            jxy = small.join(x, y)
            mxy = small.meet(x, y)
            if jxy in mapping and big.join(fx, fy) != mapping[jxy]:
                return False
            if mxy in mapping and big.meet(fx, fy) != mapping[mxy]:
                return False
        for a, fa in mapping.items():
            for b, fb in mapping.items():
                if small.join(a, b) == x and big.join(fa, fb) != fx:
                    return False
                if small.meet(a, b) == x and big.meet(fa, fb) != fx:
                    return False
        return True

    def solve(pos: int) -> bool:
        if pos == len(order):
            return True
        x = order[pos]
        if x in forced:
            a, b = forced[x]
            candidates = [big.join(mapping[a], mapping[b])]
        else:
            candidates = list(big.elements)
        for v in candidates:
            if v in used:
                continue
            mapping[x] = v
            used.add(v)
            if consistent(x) and solve(pos + 1):
                return True
            del mapping[x]
            used.discard(v)
        return False

    if solve(0):
        return dict(mapping)
    return None


# ---------------------------------------------------------------------------
# isomorphism and canonical forms
# ---------------------------------------------------------------------------

_canon_cache: dict[tuple, tuple] = {}


def _digraph_canonical_key(n: int, adj: tuple[int, ...]) -> tuple:
    """Minimum adjacency encoding over invariant-respecting permutations."""
    cache_key = (n, adj)
    hit = _canon_cache.get(cache_key)
    if hit is not None:
        return hit

    radj = [0] * n
    for i in range(n):
        for j in _mask_bits(adj[i]):
            radj[j] |= 1 << i
    color = [
        (bin(adj[i]).count("1"), bin(radj[i]).count("1")) for i in range(n)
    ]
    for _ in range(n):
        sig = []
        for i in range(n):
            out_cols = tuple(sorted(color[j] for j in _mask_bits(adj[i])))
            in_cols = tuple(sorted(color[j] for j in _mask_bits(radj[i])))
            sig.append((color[i], out_cols, in_cols))
        if len(set(sig)) == len(set(color)):
            color = sig
            break
        color = sig

    classes: dict[tuple, list[int]] = {}
    for i, c in enumerate(sorted(range(n), key=lambda i: (color[i], i))):
        classes.setdefault(color[c], []).append(c)
    ordered = sorted(classes.items())

    best: tuple | None = None
    perms_per_class = [list(permutations(members)) for _, members in ordered]

    def rec(class_idx: int, placement: list[int]):
        nonlocal best
        if class_idx == len(perms_per_class):
            pos = {v: i for i, v in enumerate(placement)}
            encoded = []
            for v in placement:
                row = 0
                for j in _mask_bits(adj[v]):
                    row |= 1 << pos[j]
                encoded.append(row)
            key = tuple(encoded)
            if best is None or key < best:
                best = key
            return
        for perm in perms_per_class[class_idx]:
            rec(class_idx + 1, placement + list(perm))

    rec(0, [])
    assert best is not None
    result = (n, best)
    _canon_cache[cache_key] = result
    return result


def canonical_key(lattice: FiniteLattice) -> tuple:
    """Exact isomorphism-invariant key of the cover digraph.

    The minimum adjacency encoding over all orderings that respect the
    refined vertex colours.  It is exponential in the size of the colour
    classes (4!·6!·4! orderings for B4), and it fixes the output order of
    both enumerators, so its values must never change.  Isomorphism tests
    go through `is_isomorphic` instead.
    """
    n = len(lattice)
    adj = tuple(lattice._ucov)
    return _digraph_canonical_key(n, adj)


def _refine(up: list[list[int]], down: list[list[int]], colour: list[int]) -> list[int]:
    """Coarsest equitable refinement of a colouring numbered 0..c-1.

    Each round a vertex's new colour is (its colour, the sorted colours of
    its upper covers, the sorted colours of its lower covers), numbered in
    sorted order, so the numbering depends only on colours and never on
    vertex labels.  Stops when the number of classes stops growing.
    """
    classes = len(set(colour))
    while True:
        signature = [
            (
                colour[v],
                tuple(sorted([colour[w] for w in up[v]])),
                tuple(sorted([colour[w] for w in down[v]])),
            )
            for v in range(len(colour))
        ]
        number = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        colour = [number[sig] for sig in signature]
        if len(number) == classes:
            return colour
        classes = len(number)


def is_isomorphic(a: FiniteLattice, b: FiniteLattice) -> bool:
    """Whether the cover digraphs of a and b are isomorphic.

    Individualisation–refinement in the style of McKay & Piperno,
    "Practical graph isomorphism II" (2014), run directly on the two graphs:
    vertices 0..n-1 are a's elements and n..2n-1 are b's, coloured with one
    shared numbering.  After refinement, differing colour histograms refute
    the branch; an all-singleton colouring gives the only candidate
    bijection, which is checked cover by cover, so a True is always
    certified.  Otherwise one vertex of a in the smallest non-singleton cell
    (lowest colour first) is given a fresh colour together with each vertex
    of b in that cell in turn.  The search runs on an explicit stack, so its
    depth is not bounded by the interpreter's recursion limit.
    """
    n = len(a)
    if n != len(b) or len(a.covers) != len(b.covers):
        return False
    up: list[list[int]] = []
    down: list[list[int]] = []
    for offset, lattice in ((0, a), (n, b)):
        up += [[w + offset for w in _mask_bits(m)] for m in lattice._ucov]
        down += [[w + offset for w in _mask_bits(m)] for m in lattice._lcov]

    colour = _refine(up, down, [0] * (2 * n))
    # frames: (colouring, individualised vertex of a, untried vertices of b)
    stack: list[tuple[list[int], int, list[int]]] = []
    while True:
        if sorted(colour[:n]) == sorted(colour[n:]):
            size = [0] * (max(colour) + 1)
            for c in colour[:n]:
                size[c] += 1
            cells = [(s, c) for c, s in enumerate(size) if s > 1]
            if not cells:
                image = {colour[w]: w - n for w in range(n, 2 * n)}
                phi = [image[colour[v]] for v in range(n)]
                if all(
                    {phi[w] for w in up[v]} == {w - n for w in up[n + phi[v]]}
                    for v in range(n)
                ):
                    return True
            else:
                target = min(cells)[1]
                v = colour.index(target)
                candidates = [w for w in range(2 * n - 1, n - 1, -1) if colour[w] == target]
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


def _downsets(leq: tuple[int, ...], limit: int | None = None) -> list[int]:
    """Masks of all down-sets of an up-set encoded poset, in ascending order.

    Index order is a linear extension (elements are only ever added as
    maximal), so the down-sets containing i are exactly those of elements
    0..i-1 that contain everything strictly below i, plus i.  Stops early,
    with more than `limit` masks, once the count exceeds `limit`: a poset
    has at least as many down-sets as any of its prefixes.
    """
    masks = [0]
    for i in range(len(leq)):
        below = leq_down(leq, i) & ~(1 << i)
        masks += [m | 1 << i for m in masks if below & ~m == 0]
        if limit is not None and len(masks) > limit:
            break
    return masks


def _poset_extensions(leq: tuple[int, ...]):
    """All posets obtained by adding one new maximal element over an ideal."""
    k = len(leq)
    for ideal in _downsets(leq):
        new = list(leq)
        for i in _mask_bits(ideal):
            new[i] |= 1 << k
        new.append(1 << k)
        yield tuple(new)


def leq_down(leq: tuple[int, ...], i: int) -> int:
    """Mask of elements below i (inclusive) in an up-set encoded poset."""
    down = 0
    for j in range(len(leq)):
        if leq[j] >> i & 1:
            down |= 1 << j
    return down


def _canonical_posets_upto(max_size: int) -> list[list[tuple[int, ...]]]:
    """Pairwise non-isomorphic posets by size, as tuples of up-set masks."""
    by_size: list[list[tuple[int, ...]]] = [[()]]
    for size in range(max_size):
        seen: dict[tuple, tuple[int, ...]] = {}
        for poset in by_size[size]:
            for ext in _poset_extensions(poset):
                key = _digraph_canonical_key(size + 1, ext)
                if key not in seen:
                    seen[key] = ext
        by_size.append([seen[k] for k in sorted(seen)])
    return by_size


def _poset_bounded_lattice(leq: tuple[int, ...]) -> FiniteLattice | None:
    """The lattice P ∪ {0,1} when unique bounds exist pairwise in P."""
    k = len(leq)
    for i in range(k):
        for j in range(i + 1, k):
            uppers = leq[i] & leq[j]
            minimal = [
                u for u in _mask_bits(uppers) if leq_down(leq, u) & uppers == 1 << u
            ]
            if len(minimal) > 1:
                return None
            downs = leq_down(leq, i) & leq_down(leq, j)
            maximal = [d for d in _mask_bits(downs) if leq[d] & downs == 1 << d]
            if len(maximal) > 1:
                return None
    width = len(str(k + 1))
    ids = [f"{v:0{width}d}" for v in range(k + 2)]
    bottom, top = ids[0], ids[-1]
    covers = []
    for i in range(k):
        if leq_down(leq, i) == 1 << i:
            covers.append((bottom, ids[i + 1]))
        if leq[i] == 1 << i:
            covers.append((ids[i + 1], top))
        for j in _mask_bits(leq[i] & ~(1 << i)):
            if not any(
                leq[i] >> z & 1 and leq[z] >> j & 1
                for z in _mask_bits(leq[i] & ~(1 << i) & ~(1 << j))
            ):
                covers.append((ids[i + 1], ids[j + 1]))
    if k == 0:
        covers.append((bottom, top))
    return build_lattice(ids, covers)


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
    posets = _canonical_posets_upto(max_size - 2)
    for size in range(0, max_size - 1):
        for poset in posets[size]:
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
    from itertools import product as iter_product

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
        for combo in iter_product(*lower_choices):
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

    Generates posets with at most max_size down-sets (pruned during
    extension, since adding an element only adds down-sets) and emits the
    lattice of down-sets of each.  Distinct posets give non-isomorphic
    lattices, so no lattice-level isomorph rejection is needed.
    """
    if max_size < 1:
        return

    frontier: list[tuple[int, ...]] = [()]
    seen_keys = {_digraph_canonical_key(0, ())}
    all_posets: list[tuple[int, ...]] = [()]
    while frontier:
        next_frontier = []
        for poset in frontier:
            for ext in _poset_extensions(poset):
                if len(_downsets(ext, max_size)) > max_size:
                    continue
                key = _digraph_canonical_key(len(ext), ext)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                next_frontier.append(ext)
                all_posets.append(ext)
        frontier = next_frontier

    produced = []
    for poset in all_posets:
        masks = sorted(_downsets(poset), key=lambda m: (bin(m).count("1"), m))
        width = len(str(len(masks)))
        ids = {m: f"{i:0{width}d}" for i, m in enumerate(masks)}
        covers = []
        for m in masks:
            for m2 in masks:
                diff = m2 & ~m
                if m | m2 == m2 and diff and bin(diff).count("1") == 1:
                    covers.append((ids[m], ids[m2]))
        produced.append(build_lattice(list(ids.values()), covers))
    produced.sort(key=lambda lat: (len(lat), canonical_key(lat)))
    yield from produced
