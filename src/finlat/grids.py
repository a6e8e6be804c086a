"""Products of nontrivial finite chains and their structure maps.

A grid is kept together with its canonical chains (the principal ideals
below the maximal join-irreducible of each axis).  The module provides the
canonical-joinand decomposition, recovery of the defining subchains of a
full-dimensional grid sublattice, and the length-preserving embedding of
a non-boolean grid into a grid of one dimension higher.  Recovery runs on
a closed mask (`_subgrid_chains`, which `checks.subgrid` calls directly).

`make_grid` interns grids by factor sizes in a weak table: while some
caller holds a grid, every request for its shape returns that one grid, so
lattices of one grid shape share one witness lattice and its memoised
invariants.  A grid leaves the table when its last holder drops it, so
the table never outgrows what callers keep alive.  The grid embedding
passes its input along, and a grid built while none of its shape is live
adopts it as its lattice when it has the grid's own elements and covers,
rather than build an equal copy; a live grid is returned as it is.  The
bump rule acts on coordinate tuples and is written once: `dimension_bump`
applies it to a grid's own points and certifies each call's map, and the
classifier in `retractions` applies it to the coordinates of a grid
embedding.
"""

from __future__ import annotations

import operator
import weakref
from math import prod

from .core import (
    FiniteLattice,
    LatticeError,
    _bits,
    _check_cap,
    _closed_mask,
    build_lattice,
)
from .morphisms import _cover01_embedding

__all__ = [
    "TrivialFactor",
    "NotASubgrid",
    "BooleanInput",
    "Grid",
    "make_grid",
    "canonical_joinands",
    "recover_subgrid_chains",
    "dimension_bump",
]


class TrivialFactor(LatticeError):
    """A grid factor must have at least two elements."""


class NotASubgrid(LatticeError):
    """The subset is not a grid sublattice of full dimension."""


class BooleanInput(LatticeError):
    """Dimension bump needs some factor of size at least three."""


def _integral(sizes) -> tuple[int, ...]:
    """The sizes as a tuple of ints, refusing any that is not integral (2.5, "3")."""
    out = []
    for s in sizes:
        try:
            out.append(operator.index(s))
        except TypeError:
            raise LatticeError(f"grid factor size {s!r} is not an integer") from None
    return tuple(out)


def _coord_id(coords: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in coords)


class Grid:
    """An n-dimensional grid: the product of n nontrivial finite chains.

    Elements of the underlying lattice are coordinate tuples rendered as
    comma-joined identifier strings, e.g. ``"2,0"`` in a 2-dimensional grid.
    """

    __slots__ = ("factor_sizes", "lattice", "canonical_chains", "_coords", "__weakref__")

    def __init__(self, factor_sizes: tuple[int, ...], _adopt: FiniteLattice | None = None):
        self.factor_sizes = _integral(factor_sizes)
        if not self.factor_sizes:
            raise TrivialFactor("a grid needs at least one factor")
        if any(s < 2 for s in self.factor_sizes):
            raise TrivialFactor(f"factor sizes {self.factor_sizes!r} include a trivial chain")
        _check_cap(prod(self.factor_sizes))  # before any element id is built

        coords_list: list[tuple[int, ...]] = [()]
        for s in self.factor_sizes:
            coords_list = [c + (k,) for c in coords_list for k in range(s)]
        elements = [_coord_id(c) for c in coords_list]
        self._coords = dict(zip(elements, coords_list))

        # coords_list is in row-major order, so stepping one up along an
        # axis moves the index by that axis's stride.
        strides = [prod(self.factor_sizes[axis + 1 :]) for axis in range(len(self.factor_sizes))]
        covers = [
            (x, elements[i + stride])
            for i, (c, x) in enumerate(zip(coords_list, elements))
            for k, s, stride in zip(c, self.factor_sizes, strides)
            if k + 1 < s
        ]
        if _adopt is not None and len(_adopt) == len(elements) and _adopt.covers == frozenset(covers):
            self.lattice = _adopt
        else:
            self.lattice = build_lattice(elements, covers)
        self.canonical_chains = tuple(
            tuple(elements[k * stride] for k in range(s))
            for s, stride in zip(self.factor_sizes, strides)
        )

    @property
    def dimension(self) -> int:
        return len(self.factor_sizes)

    def coords(self, x: str) -> tuple[int, ...]:
        return self._coords[x]

    def id_of(self, coords) -> str:
        x = _coord_id(tuple(coords))
        if x not in self._coords:
            raise LatticeError(f"coordinates {coords!r} outside the grid")
        return x

    def __repr__(self) -> str:
        return f"<Grid {'x'.join(str(s) for s in self.factor_sizes)}>"


# Live grids by factor sizes; an entry goes when its grid is collected.
_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def make_grid(sizes, _adopt: FiniteLattice | None = None) -> Grid:
    """The grid with the given factor sizes (each at least 2), built once per
    shape while some caller holds it.

    ``_adopt`` is a lattice that may already be the grid's presentation, with
    the same elements and covers.  If it is and no grid of that shape is
    live, the grid built holds it as its lattice rather than an equal copy;
    a live grid is returned as it is.
    """
    key = _integral(sizes)
    grid = _GRIDS.get(key)
    if grid is None:
        grid = Grid(key, _adopt)
        grid = _GRIDS.setdefault(grid.factor_sizes, grid)
    return grid


def canonical_joinands(grid: Grid, x: str) -> tuple[str, ...]:
    """The unique decomposition x = x1 ∨ ... ∨ xn along the canonical chains.

    The i-th joinand is x ∧ (top of the i-th canonical chain).
    """
    return tuple(
        grid.lattice.meet(x, chain[-1]) for chain in grid.canonical_chains
    )


def recover_subgrid_chains(grid: Grid, subset) -> tuple[tuple[str, ...], ...]:
    """Recover the defining subchains of a full-dimensional grid sublattice.

    For a sublattice L that is a grid of the same dimension as the ambient
    grid, the j-th chain is { x_j : x in L } drawn from the j-th canonical
    chain, and L is exactly the product of these chains.  L always lies in
    that product, so it equals the product iff the sizes agree.  A trivial
    chain or a size mismatch means the subset was not such a sublattice.
    """
    mask = _closed_mask(grid.lattice, subset)
    if not mask:
        raise NotASubgrid("subset is not a sublattice")
    chains = zip(grid.canonical_chains, _subgrid_chains(grid, mask))
    return tuple(tuple(x for x in c if m >> grid.lattice.index(x) & 1) for c, m in chains)


def _subgrid_chains(grid: Grid, mask: int) -> list[int]:
    """`recover_subgrid_chains` on a closed mask: chain j is the mask of the
    x_j = x ∧ (top of the j-th canonical chain) for x in L."""
    chains = []
    for j, canonical in enumerate(grid.canonical_chains):
        meet = grid.lattice._meet[grid.lattice.index(canonical[-1])]
        chain = sum({1 << meet[i] for i in _bits(mask)})
        if not chain & (chain - 1):
            raise NotASubgrid(f"recovered chain {j} is trivial")
        chains.append(chain)
    if prod(c.bit_count() for c in chains) != mask.bit_count():
        raise NotASubgrid("membership formula does not reproduce the subset")
    return chains


def dimension_bump(grid: Grid) -> tuple[Grid, dict[str, str]]:
    """Embed a non-boolean grid into a grid of one higher dimension, keeping length.

    The first factor of size at least three, with top coatom q, is split
    into the two-element chain {q, top} and the ideal below q; the embedding
    sends elements with small split-coordinate via (x, ...) ↦ (q, x, ...) and
    the rest via (x, ...) ↦ (x, q, ...), and the two parts agree on the
    overlap.  The image is the union of the ideal below (q, q, 1, ..., 1)
    and the filter above (q, q, 0, ..., 0) inside the larger grid, which the
    tests check.  Each call certifies its own map by
    `morphisms._cover01_embedding`; the bumped grid is interned by `make_grid`.
    """
    ids = grid.lattice.elements
    sizes, coords = _bump_coords(grid.factor_sizes, map(grid.coords, ids))
    bumped = make_grid(sizes)
    mapping = {x: bumped.id_of(c) for x, c in zip(ids, coords)}
    _cover01_embedding(grid.lattice, bumped.lattice, mapping)
    return bumped, mapping


def _bump_coords(sizes: tuple[int, ...], coords):
    """(bumped factor sizes, bumped coordinates) of the bump rule.

    The split axis is the first factor of size at least three and q the
    index of its coatom; each coordinate tuple of ``coords``, a point of the
    grid of the given sizes, is mapped into the grid of the bumped sizes.
    """
    split = next((j for j, s in enumerate(sizes) if s >= 3), None)
    if split is None:
        raise BooleanInput("every factor is a two-element chain")
    s = sizes[split]
    q = s - 2  # index of the coatom of the split factor
    new_sizes = sizes[:split] + (2, s - 1) + sizes[split + 1 :]
    bumped = [
        c[:split] + ((0, c[split]) if c[split] <= q else (1, q)) + c[split + 1 :]
        for c in coords
    ]
    return new_sizes, bumped
