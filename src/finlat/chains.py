"""Chain covers, order dimension, and grid embeddings.

Width and minimum chain covers are computed by Dilworth's route on an
order given by up-set masks and restricted to an index mask, so the same
code serves a lattice and a bare poset: a maximum bipartite matching on
the strict order gives a minimum path cover, and the Koenig vertex cover
turns into a maximum antichain certifying optimality.  Ids appear only in
`min_chain_cover`, the public wrapper.  For a finite distributive lattice
the order dimension is the width of its join-irreducibles, and the chains
of a minimum cover of them, each with the bottom prepended, give a
cover-preserving {0,1}-embedding of equal length into a grid, read off
the down-set masks.  The dimension and the elements' grid coordinates are
memoised on the lattice (see `core`) and share one memoised cover of the
join-irreducibles; `retractions` builds its witnesses off the coordinates.
The matching reads successors off the up-masks only as it needs them, so
a long chain costs about one successor per element, not every comparable
pair.  Each `grid_embed` call certifies its own map by
`morphisms._cover01_embedding`.  An input that already is the grid's
presentation (its elements and covers) is adopted as the target's
lattice, not built a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .core import (
    FiniteLattice,
    LatticeError,
    _bits,
    _jmask,
    _memoised,
    is_distributive,
)
from .grids import Grid, make_grid
from .morphisms import _cover01_embedding

__all__ = [
    "NotDistributive",
    "TrivialLattice",
    "ChainDecomposition",
    "min_chain_cover",
    "order_dimension",
    "GridEmbedding",
    "grid_embed",
]


class NotDistributive(LatticeError):
    pass


class TrivialLattice(LatticeError):
    """The one-element lattice has no dimension here."""


@dataclass(frozen=True)
class ChainDecomposition:
    """A minimum cover of a subposet of a lattice by chains.

    ``chains`` are strictly increasing element sequences whose union is the
    covered subposet; ``antichain`` is a maximum antichain of the same
    size, the certificate of optimality.
    """

    lattice: FiniteLattice
    elements: frozenset[str]
    chains: tuple[tuple[str, ...], ...]
    antichain: tuple[str, ...]

    def __post_init__(self):
        up, index = self.lattice._up, self.lattice._index
        covered = set()
        for chain in self.chains:
            for a, b in zip(chain, chain[1:]):
                if a == b or not up[index[a]] >> index[b] & 1:
                    raise LatticeError(f"chain {chain!r} is not strictly increasing")
            covered.update(chain)
        if covered != set(self.elements):
            raise LatticeError("chains do not cover the subposet exactly")
        for x, y in combinations(self.antichain, 2):
            if up[index[x]] >> index[y] & 1 or up[index[y]] >> index[x] & 1:
                raise LatticeError("certificate is not an antichain")


def _max_matching(elems: list[int], succs) -> dict[int, int]:
    """Maximum matching u -> v over pairs with v in succs(u), by augmenting paths.

    Each augmenting path is a depth-first search on an explicit stack of
    [u, remaining successors of u, v tried from u] frames; ``succs(u)`` is
    iterated only as far as the search goes.
    """
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}

    for root in elems:
        seen: set[int] = set()
        stack = [[root, iter(succs(root)), None]]
        while stack:
            frame = stack[-1]
            for v in frame[1]:
                if v in seen:
                    continue
                seen.add(v)
                frame[2] = v
                if v not in match_right:  # flip the augmenting path
                    for u, _, w in stack:
                        match_left[u] = w
                        match_right[w] = u
                    stack = []
                else:
                    u = match_right[v]
                    stack.append([u, iter(succs(u)), None])
                break
            else:
                stack.pop()
    return match_left


def _chain_cover(up, mask: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """A minimum chain cover of the indices in mask, and a maximum antichain.

    ``up[i]`` is the up-set mask of i, i included.  The chains partition
    mask and are sorted by their least index; the antichain, in index
    order, has one member per chain (Dilworth, via Koenig duality on the
    matching).  Successors are read off the up-masks as the matching asks
    for them, in ascending index order, so no list of comparable pairs is
    built.
    """
    elems = list(_bits(mask))

    def succs(i: int):
        return _bits(up[i] & mask & ~(1 << i))

    match_left = _max_matching(elems, succs)
    match_right = {v: u for u, v in match_left.items()}

    chains = []
    for start in elems:
        if start in match_right:
            continue
        chain = [start]
        while chain[-1] in match_left:
            chain.append(match_left[chain[-1]])
        chains.append(tuple(chain))
    chains.sort(key=min)

    # Koenig: alternating reachability from unmatched left vertices.
    reach_left = {u for u in elems if u not in match_left}
    reach_right: set[int] = set()
    frontier = list(reach_left)
    while frontier:
        u = frontier.pop()
        for v in succs(u):
            if v not in reach_right:
                reach_right.add(v)
                w = match_right.get(v)
                if w is not None and w not in reach_left:
                    reach_left.add(w)
                    frontier.append(w)
    antichain = tuple(x for x in elems if x in reach_left and x not in reach_right)
    if len(antichain) != len(chains):
        raise LatticeError("matching duality failed")  # pragma: no cover
    return chains, antichain


def min_chain_cover(lattice: FiniteLattice, subset) -> ChainDecomposition:
    """A minimum chain cover of a subposet, with a maximum antichain certificate.

    The number of chains equals the width of the subposet (Dilworth); the
    attached antichain has the same size, via Koenig duality on the
    matching.  Chains are ordered by their smallest member identifier.
    """
    elems = sorted(set(subset))
    if not elems:
        raise LatticeError("cannot cover an empty subposet")
    for x in elems:
        if x not in lattice:
            raise LatticeError(f"{x!r} is not an element of the lattice")
    # Index order is sorted-id order, so index chains sort like id chains.
    ids = lattice.elements
    chains, antichain = _chain_cover(lattice._up, sum(1 << lattice.index(x) for x in elems))
    return ChainDecomposition(
        lattice=lattice,
        elements=frozenset(elems),
        chains=tuple(tuple(ids[i] for i in chain) for chain in chains),
        antichain=tuple(ids[i] for i in antichain),
    )


@_memoised
def _ji_chains(lattice: FiniteLattice) -> tuple[tuple[int, ...], ...]:
    """The chains of a minimum cover of the join-irreducibles, as indices."""
    return tuple(_chain_cover(lattice._up, _jmask(lattice))[0])


@_memoised
def order_dimension(lattice: FiniteLattice) -> int:
    """Order dimension of a finite distributive lattice: width of Ji."""
    if len(lattice) < 2:
        raise TrivialLattice("order dimension needs at least two elements")
    if not is_distributive(lattice):
        raise NotDistributive("order dimension is only computed for distributive lattices")
    return len(_ji_chains(lattice))


@dataclass(frozen=True)
class GridEmbedding:
    """A cover-preserving {0,1}-embedding of a distributive lattice into a grid.

    ``coordinate_chains`` hold the source-side chains E_i^+: the i-th chain
    of a minimum cover of the join-irreducibles, with the bottom prepended.
    The chains of a matching cover are pairwise disjoint, so they already
    are the disjoint E_i of the construction.  The i-th coordinate of φ(x)
    is the largest element of E_i^+ below x.
    """

    source: FiniteLattice
    target: Grid
    mapping: dict[str, str]
    coordinate_chains: tuple[tuple[str, ...], ...]


def grid_embed(lattice: FiniteLattice) -> GridEmbedding:
    """Embed a distributive lattice into a grid of its dimension and length.

    The map sends x to (x_1, ..., x_n) where x_i is the largest element of
    E_i^+ ∩ ↓x; it is injective, preserves joins, meets, bottom, top, and
    covers, and the target has the same length as the source.  Each call
    checks the join law and the cover-{0,1} certificate of its own map.
    An input that already is the grid's presentation becomes the target's
    lattice, not a second equal copy.
    """
    if len(lattice) < 2:
        raise TrivialLattice("cannot embed the one-element lattice")
    if not is_distributive(lattice):
        raise NotDistributive("grid embedding needs a distributive lattice")
    ids, join = lattice.elements, lattice._join
    e_plus, coords = _grid_coordinates(lattice)
    for x, c in enumerate(coords):
        # x is recovered as the join of its coordinates, taken in the source.
        if reduce(lambda a, b: join[a][b], [chain[k] for chain, k in zip(e_plus, c)]) != x:
            raise LatticeError("coordinate join law failed")
    target = make_grid(tuple(map(len, e_plus)), lattice)
    mapping = {x: target.id_of(c) for x, c in zip(ids, coords)}
    _cover01_embedding(lattice, target.lattice, mapping)
    chains = tuple(tuple(ids[i] for i in chain) for chain in e_plus)
    return GridEmbedding(source=lattice, target=target, mapping=mapping, coordinate_chains=chains)


@_memoised
def _grid_coordinates(lattice: FiniteLattice):
    """(E_i^+ chains, the grid coordinates of every element), both by index.

    The lattice must be distributive with at least two elements; the
    coordinates are those of the embedding into the grid whose factor
    sizes are the chain lengths.
    """
    bottom = lattice.index(lattice.bottom)
    e_plus = tuple((bottom, *chain) for chain in _ji_chains(lattice))
    # E_i^+ ∩ ↓x is a prefix of the chain E_i^+, so its largest element
    # has index |E_i^+ ∩ ↓x| - 1.
    chain_masks = [sum(1 << i for i in chain) for chain in e_plus]
    coords = tuple(
        tuple((down & m).bit_count() - 1 for m in chain_masks) for down in lattice._down
    )
    return e_plus, coords

