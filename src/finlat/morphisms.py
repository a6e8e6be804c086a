"""Verified lattice homomorphisms and congruences.

A `Homomorphism` checks join and meet preservation over all pairs when it
is built, and a `Congruence` checks that its partition is compatible with
join and meet.  `congruence_generated_by` closes a set of pairs under
translations.  The module depends on `core` only, so every other module
can build and verify maps.
"""

from __future__ import annotations

from functools import cached_property

from .core import FiniteLattice, LatticeError

__all__ = [
    "NotAHomomorphism",
    "NotACongruence",
    "Homomorphism",
    "Congruence",
    "congruence_generated_by",
]


class NotAHomomorphism(LatticeError):
    pass


class NotACongruence(LatticeError):
    pass


class Homomorphism:
    """A verified lattice homomorphism between two finite lattices.

    Join and meet preservation is checked over all pairs at construction.
    The derived flags (bound preservation, cover preservation, injectivity,
    surjectivity) are computed on demand and cached.
    """

    def __init__(self, source: FiniteLattice, target: FiniteLattice, mapping: dict[str, str]):
        if set(mapping) != set(source.elements):
            raise NotAHomomorphism("mapping is not total on the source")
        for v in mapping.values():
            if v not in target:
                raise NotAHomomorphism(f"image {v!r} is outside the target")
        for x in source.elements:
            for y in source.elements:
                if mapping[source.join(x, y)] != target.join(mapping[x], mapping[y]):
                    raise NotAHomomorphism(f"join of ({x!r}, {y!r}) is not preserved")
                if mapping[source.meet(x, y)] != target.meet(mapping[x], mapping[y]):
                    raise NotAHomomorphism(f"meet of ({x!r}, {y!r}) is not preserved")
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    @cached_property
    def preserves_bounds(self) -> bool:
        return (
            self.mapping[self.source.bottom] == self.target.bottom
            and self.mapping[self.source.top] == self.target.top
        )

    @cached_property
    def cover_preserving(self) -> bool:
        return all(
            self.target.covered_by(self.mapping[lo], self.mapping[hi])
            for lo, hi in self.source.covers
        )

    @cached_property
    def injective(self) -> bool:
        return len(set(self.mapping.values())) == len(self.source)

    @cached_property
    def surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.elements)

    def fixes(self, subset) -> bool:
        return all(self.mapping[x] == x for x in subset)

    def is_retraction(self) -> bool:
        """True iff the target is a sublattice of the source fixed pointwise."""
        return (
            all(t in self.source for t in self.target.elements)
            and self.fixes(self.target.elements)
        )

    def kernel(self) -> "Congruence":
        fibers: dict[str, set[str]] = {}
        for x, v in self.mapping.items():
            fibers.setdefault(v, set()).add(x)
        blocks = tuple(
            frozenset(b) for b in sorted(fibers.values(), key=lambda b: min(b))
        )
        return Congruence(self.source, blocks)

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """The composite self ∘ inner."""
        if inner.target is not self.source and set(inner.target.elements) != set(
            self.source.elements
        ):
            raise NotAHomomorphism("composition domains do not match")
        return Homomorphism(
            inner.source,
            self.target,
            {x: self.mapping[v] for x, v in inner.mapping.items()},
        )

    def __repr__(self) -> str:
        return f"<Homomorphism {len(self.source)}->{len(self.target)}>"


class Congruence:
    """A partition of a lattice compatible with join and meet.

    Compatibility is verified at construction.  It implies that every block
    is a convex sublattice, which the tests check separately.
    """

    def __init__(self, lattice: FiniteLattice, blocks):
        blocks = tuple(frozenset(b) for b in blocks)
        seen: set[str] = set()
        for b in blocks:
            if not b:
                raise NotACongruence("empty block")
            if b & seen:
                raise NotACongruence("blocks overlap")
            seen |= b
        if seen != set(lattice.elements):
            raise NotACongruence("blocks do not partition the lattice")
        self.lattice = lattice
        self.blocks = tuple(sorted(blocks, key=min))
        self._block_of = {x: i for i, b in enumerate(self.blocks) for x in b}
        self._validate()

    def _validate(self):
        lat = self.lattice
        of = self._block_of
        for block in self.blocks:
            rep = min(block)
            for other in block:
                if other == rep:
                    continue
                for z in lat.elements:
                    if of[lat.join(rep, z)] != of[lat.join(other, z)]:
                        raise NotACongruence("partition is not join-compatible")
                    if of[lat.meet(rep, z)] != of[lat.meet(other, z)]:
                        raise NotACongruence("partition is not meet-compatible")

    def block_of(self, x: str) -> frozenset[str]:
        return self.blocks[self._block_of[x]]

    def related(self, x: str, y: str) -> bool:
        return self._block_of[x] == self._block_of[y]

    def block_count(self) -> int:
        return len(self.blocks)

    def intersect(self, other: "Congruence") -> "Congruence":
        """Common refinement with another congruence of the same lattice."""
        pieces: dict[tuple[int, int], set[str]] = {}
        for x in self.lattice.elements:
            key = (self._block_of[x], other._block_of[x])
            pieces.setdefault(key, set()).add(x)
        return Congruence(self.lattice, tuple(frozenset(p) for p in pieces.values()))

    def restrict(self, subset) -> tuple[frozenset[str], ...]:
        """Nonempty traces of the blocks on a subset."""
        subset = set(subset)
        out = [b & subset for b in self.blocks]
        return tuple(b for b in out if b)

    def is_diagonal_on(self, subset) -> bool:
        return all(len(b) == 1 for b in self.restrict(subset))

    def __repr__(self) -> str:
        return f"<Congruence {self.block_count()} blocks on {len(self.lattice)} elements>"


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
