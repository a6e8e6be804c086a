"""Slim semimodular lattices: planar structure, forks, and non-retract witnesses.

A slim semimodular lattice is carried together with a left-to-right order
on the upper covers of every element, which is what a planar diagram
contributes combinatorially; the order of lower covers is read off the
4-cells.  Forks are added to 4-cells: a new element is hung under the
cell's top and two legs descend through the maximal sequences of cells to
the lower left and lower right, inserting one new element on each traversed
edge.  Slim rectangular lattices are replayed from fork scripts over grids.

The witness construction shows a slim semimodular lattice with at least
two elements is never an absolute retract: it embeds the lattice into a
slim rectangular extension built inside a member of the S7 family with
more inner coatoms than the lattice has elements, and exhaustive search
confirms that no retraction onto the embedded copy exists.  The kernel
argument behind the search result (collapsing any two inner coatoms
collapses them all into the top's block, by Grätzer's Swing Lemma) is also
verified directly, on the block labels of generated congruences.  Two
distinct coatoms c, d join to the top, so θ(c, d) = θ(c ∧ d, 1), and
θ(x, 1) ⊆ θ(y, 1) whenever y ≤ x: a closure for one pair per maximal
pairwise meet covers every pair.

Oriented lattices are read-only and keep their oriented 4-cells, indexed by
top and side.  Grids and forks are not validated again: a fork on an oriented
4-cell of a slim semimodular lattice gives one again, one unit longer (Czédli
and Schmidt, 2012).  S7 family members are built once per process, each by
one fork of the member before it, and shared by every witness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .core import (
    MAX_ELEMENTS,
    Cell,
    FiniteLattice,
    LatticeError,
    build_lattice,
    four_cells,
    is_semimodular,
    is_slim,
    lattice_length,
)
from .grids import make_grid
from .morphisms import Homomorphism, NotAHomomorphism, _congruence_labels
from .oracle import find_embedding, search_retraction

__all__ = [
    "NotA4Cell",
    "ValidationFailed",
    "TooSmall",
    "NoRectangularExtensionFound",
    "OrientedLattice",
    "ForkRecord",
    "oriented_grid",
    "add_fork",
    "inner_coatoms",
    "s7_family",
    "ForkScript",
    "build_slim_rectangular",
    "find_rectangular_extension",
    "WitnessReport",
    "build_witness",
]


class NotA4Cell(LatticeError):
    pass


class ValidationFailed(LatticeError):
    """A fork or replay produced an inconsistent planar structure."""


class TooSmall(LatticeError):
    """The witness construction needs at least two elements."""


class NoRectangularExtensionFound(LatticeError):
    """Bounded search found no slim rectangular extension."""


@dataclass(frozen=True)
class ForkRecord:
    """New elements of one fork: the middle element and the two legs, top-down."""

    mid: str
    left_leg: tuple[str, ...]
    right_leg: tuple[str, ...]


class OrientedLattice:
    """A slim semimodular lattice with a planar left-to-right cover order.

    ``up[x]`` lists the upper covers of x from left to right, the one stored
    orientation.  Each pair of neighbouring upper covers spans a 4-cell, and
    those cells are exactly the cover-preserving boolean quadruples of the
    lattice, each a face.  So does each pair of neighbouring lower covers
    (Grätzer and Knapp, 2007): ``down[x]``, the lower covers of x from left
    to right, is read off the cells under x, which are indexed by (top,
    left side) and (top, right side).  The constructor checks all of this,
    and that a given ``down`` is that order; grids and forks are built by
    `_trusted`, unchecked.  `cells` returns the oriented cells.  Instances
    are read-only.
    """

    def __init__(self, lattice, up, down, fresh: int | None = None, last_fork: ForkRecord | None = None):
        if fresh is None:  # fork names start past every f<k> among the ids
            ids = lattice.elements
            fresh = max((int(x[1:]) + 1 for x in ids if x[:1] == "f" and x[1:].isdecimal()), default=0)
        self._keep(lattice, up, fresh, last_fork)
        self._validate(down)

    @classmethod
    def _trusted(cls, lattice, up, fresh: int = 0, last_fork: ForkRecord | None = None):
        """An instance on upper cover orders that a construction keeps valid, unchecked."""
        ol = cls.__new__(cls)
        ol._keep(lattice, up, fresh, last_fork)
        ol._index(ol._cells_from_up())
        return ol

    def _keep(self, lattice, up, fresh, last_fork) -> None:
        self.lattice = lattice
        self.up = {x: tuple(v) for x, v in up.items()}
        self._fresh = fresh
        self.last_fork = last_fork

    def _index(self, cells: tuple[Cell, ...]) -> None:
        self._cells = cells
        self._by_left = {(c.top, c.left): c for c in cells}
        self._by_right = {(c.top, c.right): c for c in cells}

    def _validate(self, down) -> None:
        lat = self.lattice
        if set(self.up) != set(lat.elements) or set(down) != set(lat.elements):
            raise ValidationFailed("cover orders do not match the element set")
        for x in lat.elements:
            for side, order, covers in (("upper", self.up[x], lat.upper_covers(x)),
                                        ("lower", down[x], lat.lower_covers(x))):
                if set(order) != set(covers) or len(order) != len(covers):
                    raise ValidationFailed(f"{side} covers of {x!r} disagree with the lattice")
        if not is_slim(lat):
            raise ValidationFailed("lattice is not slim")
        if not is_semimodular(lat):
            raise ValidationFailed("lattice is not semimodular")
        cells = self._cells_from_up()
        plain = {(c.bottom, frozenset((c.left, c.right)), c.top) for c in four_cells(lat)}
        if {(c.bottom, frozenset((c.left, c.right)), c.top) for c in cells} != plain:
            raise ValidationFailed("planar cells disagree with the 4-cells")
        self._index(cells)  # the cells under each x are now a path on its lower covers
        if self.down != {x: tuple(v) for x, v in down.items()}:
            raise ValidationFailed("cells read off upper and lower covers are oriented apart")
        for c in cells:  # a face: its sides are the innermost covers of its left and right
            for x, i in ((c.left, -1), (c.right, 0)):
                if (self.down[x][i], self.up[x][i]) != (c.bottom, c.top):
                    raise ValidationFailed(f"{c!r} is not a face of the planar order")

    def cells(self) -> tuple[Cell, ...]:
        """All 4-cells, oriented: neighbouring upper covers span left and right."""
        return self._cells

    def _cells_from_up(self) -> tuple[Cell, ...]:
        lat = self.lattice
        out = []
        for a in lat.elements:
            ups = self.up[a]
            for b, c in zip(ups, ups[1:]):
                d = lat.join(b, c)
                if lat.covered_by(b, d) and lat.covered_by(c, d) and lat.meet(b, c) == a:
                    out.append(Cell(a, b, c, d))
        return tuple(out)

    @cached_property
    def down(self) -> dict[str, tuple[str, ...]]:
        """The lower covers of each element from left to right, read off the cells."""
        return {x: self._lower(x) for x in self.up}

    def _lower(self, x: str) -> tuple[str, ...]:
        """The lower covers of x from left to right: from the one that is no
        cell's right side, step to the right side of the cell it is left of."""
        lows = self.lattice.lower_covers(x)
        if len(lows) < 2:
            return lows
        order = [next(b for b in lows if (x, b) not in self._by_right)]
        while (cell := self._by_left.get((x, order[-1]))) is not None:
            order.append(cell.right)
        return tuple(order)

    def cell_at(self, top: str, left: str) -> Cell:
        cell = self._by_left.get((top, left))
        if cell is None:
            raise NotA4Cell(f"no 4-cell with top {top!r} and left {left!r}")
        return cell

    def _boundary(self, i: int) -> tuple[str, ...]:
        chain = [self.lattice.bottom]
        while chain[-1] != self.lattice.top:
            chain.append(self.up[chain[-1]][i])
        return tuple(chain)

    def left_boundary(self) -> tuple[str, ...]:
        return self._boundary(0)

    def right_boundary(self) -> tuple[str, ...]:
        return self._boundary(-1)

    def __repr__(self) -> str:
        return f"<OrientedLattice |L|={len(self.lattice)}>"


def oriented_grid(m: int, n: int) -> OrientedLattice:
    """The m-by-n grid with its planar orientation, built without validation.

    Drawn with the first coordinate ascending to the upper left, so the
    left element of each cell is the one with the larger first coordinate.
    Only the upper covers are ordered here; the lower orders follow from
    the cells, with (i, j - 1) left of (i - 1, j) under (i, j).
    """
    if m < 1 or n < 1:
        raise LatticeError("grid parameters must be at least 1")
    grid = make_grid((m + 1, n + 1))
    up: dict[str, list[str]] = {}
    for x in grid.lattice.elements:
        i, j = grid.coords(x)
        up[x] = [grid.id_of((k, l)) for k, l in ((i + 1, j), (i, j + 1)) if k <= m and l <= n]
    return OrientedLattice._trusted(grid.lattice, up)


def _walk(ol: OrientedLattice, cell: Cell, side: int) -> list[tuple[str, str]]:
    """Edges of the maximal descending cell sequence to the lower left (side -1) or right (+1).

    The next cell on the left is the one under the current left side whose
    right side is the current bottom, and dually on the right.
    """
    edges = []
    cur: Cell | None = cell
    while cur is not None:
        upper = cur.left if side < 0 else cur.right
        edges.append((cur.bottom, upper))
        cur = (ol._by_right if side < 0 else ol._by_left).get((upper, cur.bottom))
    return edges


def add_fork(ol: OrientedLattice, cell: Cell) -> OrientedLattice:
    """Add a fork to a 4-cell and return the extended oriented lattice.

    The new middle element is covered by the cell's top; each leg inserts
    one new element on every edge of the descending cell sequence on its
    side, each covered by the previously added one.  Only the upper cover
    orders are edited; the lower orders follow from the new cells.  The
    result is slim, semimodular and one unit longer, and so it is not
    validated again: only the cell (looked up in the cell index), the legs
    (which may not cross), the new lattice and its element count are
    checked.
    """
    if ol._by_left.get((cell.top, cell.left)) != cell:
        raise NotA4Cell(f"{cell!r} is not an oriented 4-cell of the lattice")

    left_edges = _walk(ol, cell, -1)
    right_edges = _walk(ol, cell, 1)
    all_edges = left_edges + right_edges
    if len(set(all_edges)) != len(all_edges):
        raise ValidationFailed("fork legs crossed the same edge")

    # numbered mid first, then the left leg, then the right leg
    fresh = ol._fresh + 1 + len(all_edges)
    mid, *names = (f"f{k}" for k in range(ol._fresh, fresh))
    left_names, right_names = names[: len(left_edges)], names[len(left_edges):]

    up = {x: list(v) for x, v in ol.up.items()}
    up[mid] = [cell.top]
    for leg, edges, left in ((left_names, left_edges, True), (right_names, right_edges, False)):
        prev = mid
        for name, (p, q) in zip(leg, edges):
            up[p][up[p].index(q)] = name
            up[name] = [q, prev] if left else [prev, q]
            prev = name

    covers = [(x, y) for x, ups in up.items() for y in ups]
    try:
        new_lattice = build_lattice(list(up), covers)
    except LatticeError as exc:
        raise ValidationFailed(f"fork produced an invalid lattice: {exc}") from exc
    if len(new_lattice) != len(ol.lattice) + 1 + len(all_edges):
        raise ValidationFailed("fork produced an unexpected element count")
    record = ForkRecord(mid, tuple(left_names), tuple(right_names))
    return OrientedLattice._trusted(new_lattice, up, fresh, record)


def inner_coatoms(ol: OrientedLattice) -> tuple[str, ...]:
    """Coatoms off the boundary chains, from left to right."""
    boundary = set(ol.left_boundary()) | set(ol.right_boundary())
    return tuple(c for c in ol._lower(ol.lattice.top) if c not in boundary)


# Members of the S7 family by index, each built once per process.
_S7: dict[int, OrientedLattice] = {}


def s7_family(i: int) -> OrientedLattice:
    """The i-th member of the S7 family.

    Member 1 adds a fork to the only 4-cell of the four-element boolean
    lattice, and member j + 1 forks the rightmost 4-cell of member j that
    contains the top.  Member i is slim rectangular, has exactly i inner
    coatoms, and has length i + 2; both counts are checked on every member
    as it is built.  Each member is built once, by one fork of the member
    before it, and is retained for the life of the process and shared by
    every caller, so it is read-only.  Member i has (i + 2)(i + 3)/2 + 1
    elements, so an index whose member would pass `MAX_ELEMENTS` is refused
    before any member is built.
    """
    if i < 1:
        raise LatticeError("the family is indexed from 1")
    size = (i + 2) * (i + 3) // 2 + 1
    if size > MAX_ELEMENTS:
        raise ValidationFailed(
            f"S7 member {i} has {size} elements, over the limit of {MAX_ELEMENTS}"
        )
    built = i
    while built and built not in _S7:
        built -= 1
    ol = _S7[built] if built else oriented_grid(1, 1)
    for j in range(built + 1, i + 1):
        top = ol.lattice.top
        ol = add_fork(ol, [cell for cell in ol.cells() if cell.top == top][-1])
        if len(inner_coatoms(ol)) != j:  # pragma: no cover - construction invariant
            raise ValidationFailed("inner coatom count is off")
        if lattice_length(ol.lattice) != j + 2:  # pragma: no cover
            raise ValidationFailed("length is off")
        ol = _S7.setdefault(j, ol)
    return ol


@dataclass(frozen=True)
class ForkScript:
    """A slim rectangular recipe: base grid sizes plus fork cell selectors.

    Each step names the 4-cell of the current lattice to fork by its top
    and left elements.
    """

    base_sizes: tuple[int, int]
    steps: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if len(self.base_sizes) != 2 or any(s < 2 for s in self.base_sizes):
            raise LatticeError(f"bad base grid sizes {self.base_sizes!r}")

    def to_jsonable(self) -> dict:
        return {
            "base_sizes": list(self.base_sizes),
            "steps": [list(step) for step in self.steps],
        }

    @classmethod
    def from_jsonable(cls, data) -> "ForkScript":
        if not isinstance(data, dict):
            raise LatticeError("fork script must be an object with base_sizes and steps")
        base = data.get("base_sizes")
        if not (
            isinstance(base, list)
            and len(base) == 2
            and all(isinstance(s, int) and not isinstance(s, bool) for s in base)
        ):
            raise LatticeError(f"base_sizes must be a list of two integers, got {base!r}")
        steps = data.get("steps", [])
        if not isinstance(steps, list) or not all(
            isinstance(step, list) and len(step) == 2 and all(isinstance(e, str) for e in step)
            for step in steps
        ):
            raise LatticeError(f"steps must be a list of [top, left] string pairs, got {steps!r}")
        return cls(tuple(base), tuple(tuple(step) for step in steps))


def build_slim_rectangular(script: ForkScript) -> OrientedLattice:
    """Replay a fork script from its base grid; every prefix is validated."""
    ol = oriented_grid(script.base_sizes[0] - 1, script.base_sizes[1] - 1)
    for top, left in script.steps:
        ol = add_fork(ol, ol.cell_at(top, left))
    return ol


def find_rectangular_extension(
    lattice: FiniteLattice, max_size: int | None = None, max_forks: int = 3
) -> tuple[ForkScript, OrientedLattice, dict[str, str]]:
    """Best-first bounded search for a slim rectangular lattice containing the input.

    Fork scripts over all base grids within the size bound are visited in
    order of (result size, base grid, fork count, steps) from a heap, and a
    candidate is built only when it is popped.  Its children are pushed
    with sizes read off its descending cell walks, the count `add_fork`
    checks; a fork only adds elements, so the pop order is the sorted order
    of all candidates, and the first one the input embeds into wins.  No
    candidate has more than `MAX_ELEMENTS` elements, since none larger can
    be built, so a larger `max_size` costs no more than that cap.
    Returns the script, the replayed lattice, and the embedding.
    """
    if max_size is None:
        max_size = max(14, len(lattice) + 8)
    bound = min(max_size, MAX_ELEMENTS)
    bases = sorted(
        ((m, n) for m in range(1, bound // 2) for n in range(1, bound // (m + 1))),
        key=lambda mn: ((mn[0] + 1) * (mn[1] + 1), mn),
    )
    # (size, base index, fork count, steps) is unique, so entries never
    # compare their parent lattice or cell; the sorted list is a heap.
    heap = [((m + 1) * (n + 1), i, 0, (), None, None) for i, (m, n) in enumerate(bases)]
    while heap:
        size, base_index, forks, steps, parent, cell = heapq.heappop(heap)
        m, n = bases[base_index]
        ol = oriented_grid(m, n) if parent is None else add_fork(parent, cell)
        if size >= len(lattice):
            embedding = find_embedding(lattice, ol.lattice)
            if embedding is not None:
                return ForkScript((m + 1, n + 1), steps), ol, embedding
        if forks < max_forks and size + 3 <= bound:
            for c in ol.cells():
                grown = size + 1 + len(_walk(ol, c, -1)) + len(_walk(ol, c, 1))
                if grown <= bound:
                    key = (grown, base_index, forks + 1, steps + ((c.top, c.left),))
                    heapq.heappush(heap, (*key, ol, c))
    raise NoRectangularExtensionFound(
        f"no slim rectangular extension within {max_size} elements and {max_forks} forks"
    )


def _interval_iso(
    base: OrientedLattice,
    ambient: OrientedLattice,
    lo: str,
    hi: str,
    mirrored: bool,
) -> dict[str, str] | None:
    """Orientation iso from a base grid onto the interval [lo, hi], if any."""
    members = set(ambient.lattice.interval(lo, hi))
    if len(members) != len(base.lattice):
        return None

    def axis(ol: OrientedLattice, start: str, side: int, within=None) -> list[str]:
        chain = [start]
        while True:
            ups = ol.up[chain[-1]]
            if within is not None:
                ups = tuple(u for u in ups if u in within)
            if len(ups) < 2:
                return chain
            chain.append(ups[0] if side == 0 else ups[-1])

    base_left = axis(base, base.lattice.bottom, 0)
    base_right = axis(base, base.lattice.bottom, 1)
    amb_left = axis(ambient, lo, 0, members)
    amb_right = axis(ambient, lo, 1, members)
    if mirrored:
        amb_left, amb_right = amb_right, amb_left
    if len(base_left) != len(amb_left) or len(base_right) != len(amb_right):
        return None

    mapping: dict[str, str] = {}
    for bl, al in zip(base_left, amb_left):
        for br, ar in zip(base_right, amb_right):
            mapping[base.lattice.join(bl, br)] = ambient.lattice.join(al, ar)
    if not _check_interval_iso(base, ambient, lo, hi, mapping, mirrored):
        return None
    return mapping


def _check_interval_iso(
    src: OrientedLattice,
    ambient: OrientedLattice,
    lo: str,
    hi: str,
    mapping: dict[str, str],
    mirrored: bool,
) -> bool:
    members = set(ambient.lattice.interval(lo, hi))
    if set(mapping) != set(src.lattice.elements) or set(mapping.values()) != members:
        return False
    try:
        Homomorphism(src.lattice, ambient.lattice, mapping)
    except NotAHomomorphism:
        return False
    for x in src.lattice.elements:
        image_ups = [mapping[u] for u in src.up[x]]
        amb_ups = [u for u in ambient.up[mapping[x]] if u in members]
        if mirrored:
            amb_ups = list(reversed(amb_ups))
        if image_ups != amb_ups:
            return False
    return True


@dataclass(frozen=True)
class WitnessReport:
    """Everything the non-retract construction produced.

    ``extension`` is the slim rectangular lattice built around the input;
    ``embedded_copy`` locates the isomorphic copy whose retract status was
    refuted by exhaustive search.  ``congruence_trace`` lists every inner
    coatom pair, each verified to collapse every inner coatom into the
    top's block: directly, on the union-find labels of the congruence it
    generates (no `Congruence` is built), or through a checked pair whose
    meet lies above its own, whose congruence is contained in its own.
    """

    source: FiniteLattice
    script: ForkScript
    rectangular: OrientedLattice
    m: int
    n: int
    t: int
    extension: OrientedLattice
    embedded_copy: dict[str, str]
    inner_coatoms: tuple[str, ...]
    coatom_meet: str
    retraction_found: bool
    search_nodes: int
    congruence_trace: tuple[tuple[str, str], ...]


def build_witness(
    lattice: FiniteLattice,
    script: ForkScript | None = None,
    max_size: int | None = None,
) -> WitnessReport:
    """Construct an extension of a slim semimodular lattice with no retraction.

    With the input embedded in a slim rectangular lattice built from an
    m-by-n grid, pick the least t with m+n+1 <= t and |L| < t, fork the
    t-th S7 family member's grid interval below its (m+1)-st inner coatom
    in the same way, and locate the embedded copy there.  Exhaustive search
    certifies that no retraction onto the copy exists, and the congruence
    argument for that fact is verified on the labels of the congruence
    generated by one inner coatom pair per maximal pairwise meet, whose
    merges are all forced by the pair; every other pair's meet lies below
    one of these, so its congruence contains a checked one.  An S7 index
    over the element cap is refused before a given script is built, and a
    given script is built once, by the replay, whose rectangle the input
    is then embedded in.
    """
    if not (is_slim(lattice) and is_semimodular(lattice)):
        raise LatticeError("witness construction needs a slim semimodular lattice")
    if len(lattice) < 2:
        raise TooSmall("the one-element lattice is an absolute retract")

    given = script is not None
    if not given:
        script, _, embedding = find_rectangular_extension(lattice, max_size=max_size)

    m = script.base_sizes[0] - 1
    n = script.base_sizes[1] - 1
    t = max(m + n + 1, len(lattice) + 1)
    # t depends only on the base sizes, so the cap is checked before any grid is built
    ambient = s7_family(t)
    coats = inner_coatoms(ambient)
    meet_of_coats = ambient.lattice.meet_all(coats)
    anchor = coats[m]

    base = oriented_grid(m, n)
    psi: dict[str, str] | None = None
    mirrored = False
    for lo in sorted(ambient.lattice.interval(meet_of_coats, anchor)):
        for flip in (False, True):
            psi = _interval_iso(base, ambient, lo, anchor, flip)
            if psi is not None:
                mirrored = flip
                break
        if psi is not None:
            break
    if psi is None:  # pragma: no cover - the family always contains the grid
        raise ValidationFailed("no grid interval found below the anchor coatom")
    lo = psi[base.lattice.bottom]

    current_rect = base
    extension = ambient
    for top, left in script.steps:
        cell = current_rect.cell_at(top, left)
        sides = (cell.right, cell.left) if mirrored else (cell.left, cell.right)
        target_cell = Cell(psi[cell.bottom], *(psi[x] for x in sides), psi[cell.top])
        new_rect = add_fork(current_rect, cell)
        new_ext = add_fork(extension, target_cell)
        rec_r = new_rect.last_fork
        rec_k = new_ext.last_fork
        assert rec_r is not None and rec_k is not None
        psi[rec_r.mid] = rec_k.mid
        leg_pairs = (
            (rec_r.left_leg, rec_k.right_leg if mirrored else rec_k.left_leg),
            (rec_r.right_leg, rec_k.left_leg if mirrored else rec_k.right_leg),
        )
        for r_leg, k_leg in leg_pairs:
            if len(k_leg) < len(r_leg):
                raise ValidationFailed("mirrored fork leg is shorter than expected")
            for rx, kx in zip(r_leg, k_leg):
                psi[rx] = kx
        current_rect, extension = new_rect, new_ext
        if not _check_interval_iso(current_rect, extension, lo, anchor, psi, mirrored):
            raise ValidationFailed("replayed interval drifted from the rectangular lattice")
    if given:
        embedding = find_embedding(lattice, current_rect.lattice)
        if embedding is None:
            raise NoRectangularExtensionFound(
                "the provided script does not contain the lattice"
            )

    copy = {x: psi[embedding[x]] for x in lattice.elements}
    found, nodes = search_retraction(extension.lattice, set(copy.values()))
    if found is not None:  # pragma: no cover - contradicts the construction
        raise ValidationFailed("a retraction onto the embedded copy exists")

    final_coats = inner_coatoms(extension)
    ext = extension.lattice
    top = ext.index(ext.top)
    coat_indices = [ext.index(c) for c in final_coats]
    # θ(c, d) = θ(c ∧ d, 1) shrinks as c ∧ d grows, so one pair per maximal
    # pairwise meet stands for every pair
    pair_by_meet: dict[int, tuple[int, int]] = {}
    for i, ci in enumerate(coat_indices):
        for cj in coat_indices[i + 1:]:
            pair_by_meet.setdefault(ext._meet[ci][cj], (ci, cj))
    meets = sum(1 << x for x in pair_by_meet)
    for x, pair in pair_by_meet.items():
        if ext._up[x] & meets != 1 << x:
            continue
        label = _congruence_labels(ext, [pair])
        if any(label[c] != label[top] for c in coat_indices):
            raise ValidationFailed("collapsing two inner coatoms did not collapse all")
    trace = [(c, d) for i, c in enumerate(final_coats) for d in final_coats[i + 1:]]

    return WitnessReport(
        source=lattice,
        script=script,
        rectangular=current_rect,
        m=m,
        n=n,
        t=t,
        extension=extension,
        embedded_copy=copy,
        inner_coatoms=final_coats,
        coatom_meet=extension.lattice.meet_all(final_coats),
        retraction_found=found is not None,
        search_nodes=nodes,
        congruence_trace=tuple(trace),
    )
