"""Chain covers, order dimension, and grid embeddings.

Width and minimum chain covers are computed by Dilworth's route: a maximum
bipartite matching on the strict order gives a minimum path cover, and the
Koenig vertex cover turns into a maximum antichain certifying optimality.
For a finite distributive lattice the order dimension is the width of its
join-irreducibles, and the canonical chains of that width produce a
cover-preserving {0,1}-embedding into a grid of equal length.  Both are
memoised on the lattice (see `core`); the embedding is validated once, on
the first call, and each call returns a fresh `GridEmbedding`.  For a
grid's own lattice the memo keeps the factor sizes, not the grid, so no
grid sits in a reference cycle through its lattice's memo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FiniteLattice,
    LatticeError,
    _bits,
    _memoised,
    is_distributive,
    join_irreducibles,
    lattice_length,
)
from .grids import Grid, make_grid
from .morphisms import Homomorphism

__all__ = [
    "NotDistributive",
    "TrivialLattice",
    "EmptyChainProduced",
    "ChainDecomposition",
    "min_chain_cover",
    "disjointify_chains",
    "order_dimension",
    "GridEmbedding",
    "grid_embed",
]


class NotDistributive(LatticeError):
    pass


class TrivialLattice(LatticeError):
    """The one-element lattice has no dimension here."""


class EmptyChainProduced(LatticeError):
    """Disjointification emptied a chain; the input cover was not minimum."""


@dataclass(frozen=True)
class ChainDecomposition:
    """A cover of a subposet of a lattice by chains.

    ``chains`` are strictly increasing element sequences whose union is the
    covered subposet.  A maximum antichain of matching size may be attached
    as an optimality certificate.
    """

    lattice: FiniteLattice
    elements: frozenset[str]
    chains: tuple[tuple[str, ...], ...]
    antichain: tuple[str, ...] | None = None

    def __post_init__(self):
        covered = set()
        for chain in self.chains:
            for a, b in zip(chain, chain[1:]):
                if not self.lattice.lt(a, b):
                    raise LatticeError(f"chain {chain!r} is not strictly increasing")
            covered.update(chain)
        if covered != set(self.elements):
            raise LatticeError("chains do not cover the subposet exactly")
        if self.antichain is not None:
            for i, x in enumerate(self.antichain):
                for y in self.antichain[i + 1 :]:
                    if self.lattice.leq(x, y) or self.lattice.leq(y, x):
                        raise LatticeError("certificate is not an antichain")


def _max_matching(elems: list[str], succs: dict[str, list[str]]) -> dict[str, str]:
    """Maximum matching u -> v over pairs with v in succs[u], by augmenting paths.

    Each augmenting path is a depth-first search on an explicit stack of
    [u, remaining successors of u, v tried from u] frames.
    """
    match_left: dict[str, str] = {}
    match_right: dict[str, str] = {}

    for root in elems:
        seen: set[str] = set()
        stack = [[root, iter(succs[root]), None]]
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
                    stack.append([u, iter(succs[u]), None])
                break
            else:
                stack.pop()
    return match_left


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
    # Index order is sorted-id order, so each list is sorted like elems.
    ids, up = lattice.elements, lattice._up
    indices = [lattice.index(x) for x in elems]
    subset_mask = sum(1 << i for i in indices)
    succs = {
        u: [ids[j] for j in _bits(up[i] & subset_mask & ~(1 << i))]
        for u, i in zip(elems, indices)
    }
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
    chains.sort(key=lambda c: min(c))

    # Koenig: alternating reachability from unmatched left vertices.
    reach_left = {u for u in elems if u not in match_left}
    reach_right: set[str] = set()
    frontier = list(reach_left)
    while frontier:
        u = frontier.pop()
        for v in succs[u]:
            if v not in reach_right:
                reach_right.add(v)
                w = match_right.get(v)
                if w is not None and w not in reach_left:
                    reach_left.add(w)
                    frontier.append(w)
    antichain = tuple(
        sorted(x for x in elems if x in reach_left and x not in reach_right)
    )
    if len(antichain) != len(chains):
        raise LatticeError("matching duality failed")  # pragma: no cover
    return ChainDecomposition(
        lattice=lattice,
        elements=frozenset(elems),
        chains=tuple(chains),
        antichain=antichain,
    )


def disjointify_chains(decomposition: ChainDecomposition) -> ChainDecomposition:
    """Subtract each chain's predecessors: E_i = C_i minus (C_1 ∪ ... ∪ C_{i-1}).

    Prefix unions are preserved and the results are pairwise disjoint.  An
    empty E_i signals that the input was not a minimum cover.
    """
    seen: set[str] = set()
    new_chains = []
    for i, chain in enumerate(decomposition.chains):
        trimmed = tuple(x for x in chain if x not in seen)
        if not trimmed:
            raise EmptyChainProduced(f"chain {i + 1} became empty")
        seen.update(chain)
        new_chains.append(trimmed)
    return ChainDecomposition(
        lattice=decomposition.lattice,
        elements=decomposition.elements,
        chains=tuple(new_chains),
        antichain=decomposition.antichain,
    )


@_memoised
def order_dimension(lattice: FiniteLattice) -> int:
    """Order dimension of a finite distributive lattice: width of Ji."""
    if len(lattice) < 2:
        raise TrivialLattice("order dimension needs at least two elements")
    if not is_distributive(lattice):
        raise NotDistributive("order dimension is only computed for distributive lattices")
    return len(min_chain_cover(lattice, join_irreducibles(lattice)).chains)


@dataclass(frozen=True)
class GridEmbedding:
    """A cover-preserving {0,1}-embedding of a distributive lattice into a grid.

    ``coordinate_chains`` hold the source-side chains E_i^+ (each one is the
    disjointified chain E_i with the bottom prepended); the i-th coordinate
    of φ(x) is the largest element of E_i^+ below x.
    """

    source: FiniteLattice
    target: Grid
    mapping: dict[str, str]
    coordinate_chains: tuple[tuple[str, ...], ...]


def grid_embed(lattice: FiniteLattice) -> GridEmbedding:
    """Embed a distributive lattice into a grid of its dimension and length.

    The map sends x to (x_1, ..., x_n) where x_i is the largest element of
    E_i^+ ∩ ↓x; it is injective, preserves joins, meets, bottom, top, and
    covers, and the target has the same length as the source.
    """
    if len(lattice) < 2:
        raise TrivialLattice("cannot embed the one-element lattice")
    if not is_distributive(lattice):
        raise NotDistributive("grid embedding needs a distributive lattice")
    target, mapping, e_plus = _grid_embedding_parts(lattice)
    return GridEmbedding(
        source=lattice,
        target=make_grid(target) if isinstance(target, tuple) else target,
        mapping=dict(mapping),
        coordinate_chains=e_plus,
    )


@_memoised
def _grid_embedding_parts(lattice: FiniteLattice):
    """(target grid, mapping, coordinate chains), validated; never the lattice.

    When the target grid's lattice is the input itself, the grid would
    reference its own lattice's memo, so its factor sizes stand in for it.
    """
    ji = join_irreducibles(lattice)
    cover = min_chain_cover(lattice, ji)
    disjoint = disjointify_chains(cover)
    e_plus = tuple((lattice.bottom,) + chain for chain in disjoint.chains)
    target = make_grid(tuple(len(chain) for chain in e_plus))

    # E_i^+ ∩ ↓x is a prefix of the chain E_i^+, so its largest element
    # has index |E_i^+ ∩ ↓x| - 1.
    chain_masks = [sum(1 << lattice.index(e) for e in chain) for chain in e_plus]
    mapping = {
        x: target.id_of([(down & m).bit_count() - 1 for m in chain_masks])
        for x, down in zip(lattice.elements, lattice._down)
    }
    _validate_embedding(lattice, target, mapping, e_plus)
    if target.lattice is lattice:
        return target.factor_sizes, mapping, e_plus
    return target, mapping, e_plus


def _validate_embedding(lattice, target, mapping, e_plus):
    embedding = Homomorphism(lattice, target.lattice, mapping)  # checks joins and meets
    if not embedding.injective:
        raise LatticeError("grid embedding is not injective")
    for x in lattice.elements:
        # x is recovered as the join of its coordinates, taken in the source.
        top_of = [
            max(i for i, e in enumerate(chain) if lattice.leq(e, x))
            for chain in e_plus
        ]
        recovered = lattice.join_all(chain[k] for chain, k in zip(e_plus, top_of))
        if recovered != x:
            raise LatticeError("coordinate join law failed")
    if not embedding.preserves_bounds:
        raise LatticeError("grid embedding does not preserve bounds")
    if not embedding.cover_preserving:
        raise LatticeError("grid embedding does not preserve covers")
    if lattice_length(lattice) != lattice_length(target.lattice):
        raise LatticeError("grid embedding changed the length")
