"""Verified lattice homomorphisms, congruences and the cover-{0,1} report.

A `Homomorphism` checks join and meet preservation over all pairs when it
is built, on the target's tables; one onto a sublattice of its own source
(a found or constructed retraction) is built from a closed index mask and
an index map that `_check_onto` has checked on the source's tables, which
on a closed mask hold the sublattice's joins and meets, and builds its
target, id mapping and target-index map only when they are first read.
The check and the wrapper are apart, so `retractions` checks a map once
and wraps it again on every call.  A `Congruence` checks that its
partition is compatible with join and meet over all columns, except a
homomorphism's kernel, which is one by theorem and is built by
`Congruence._of_labels` unchecked.
`_congruence_labels` closes a set of index pairs under translations by
the join- and meet-irreducibles only, which generate all translations,
and returns the block label of each element; `congruence_generated_by`
turns those labels into a validated `Congruence` for `checks` and the
public API, while `slim`'s congruence trace reads the labels directly.
`check_cover01` reports the three flags of the cover-{0,1} lemma for a
map between semimodular lattices, `Cover01Report.all_hold` is the one
place their conjunction is written, and `_cover01_embedding` the one
certificate check that raises on it.  Element ids appear only at the
API edge: every check runs on index arrays, the map as a list of target
(or, onto a sublattice, source) indices and a partition as the block
index of each element, compared against the lattice's integer
`_join`/`_meet` tables and cover masks.  A map's check gathers through
its index list once per call and compares each row whole; it walks the
rows pair by pair only when a row fails, to name the first failing pair.
The module depends on `core` only, so every other module can build and
verify maps and certify them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .core import (
    FiniteLattice,
    LatticeError,
    _bits,
    _induced,
    _jmask,
    _mmask,
    check_sublattice,
    is_semimodular,
    lattice_length,
)

__all__ = [
    "NotAHomomorphism",
    "NotACongruence",
    "NotSemimodular",
    "Homomorphism",
    "Congruence",
    "Cover01Report",
    "check_cover01",
    "congruence_generated_by",
]


class NotAHomomorphism(LatticeError):
    pass


class NotACongruence(LatticeError):
    pass


class NotSemimodular(LatticeError):
    pass


class Homomorphism:
    """A verified lattice homomorphism between two finite lattices.

    Join and meet preservation is checked over all pairs at construction,
    on the target's tables.  The derived flags (bound preservation, cover
    preservation, injectivity) are read off the same index map on demand
    and cached.

    `_onto_sublattice` wraps a homomorphism onto a sublattice of its own
    source from a closed index mask and the source index of each image,
    once `_check_onto` has checked them on the source's tables, which on a
    closed mask hold the sublattice's joins and meets.  Such a homomorphism
    builds ``target``, ``mapping`` and the target-index map only when they
    are first read; `is_retraction`, `fixes`, `kernel` and the repr answer
    from the mask and the index map alone.
    """

    # The closed mask of the target inside the source, and each element's
    # image as a source index, for a homomorphism from `_onto_sublattice`.
    _mask: int | None = None

    def __init__(self, source: FiniteLattice, target: FiniteLattice, mapping: dict[str, str]):
        if set(mapping) != set(source.elements):
            raise NotAHomomorphism("mapping is not total on the source")
        for v in mapping.values():
            if v not in target:
                raise NotAHomomorphism(f"image {v!r} is outside the target")
        f = [target._index[mapping[x]] for x in source.elements]
        _check_rows(source, target, f)
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._f = f

    @classmethod
    def _onto_sublattice(cls, source: FiniteLattice, g, mask: int) -> "Homomorphism":
        """The homomorphism onto the sublattice on ``mask``, sending i to g[i], unchecked.

        ``g`` must have passed `_check_onto` for ``mask``; it is kept, not
        copied, so a caller that keeps ``g`` passes a tuple.
        """
        hom = cls.__new__(cls)
        hom.source = source
        hom._mask = mask
        hom._g = g
        return hom

    @cached_property
    def target(self) -> FiniteLattice:
        return _induced(self.source, self._mask)

    @cached_property
    def mapping(self) -> dict[str, str]:
        ids = self.source.elements
        return {x: ids[v] for x, v in zip(ids, self._g)}

    @cached_property
    def _f(self) -> list[int]:
        # The target's indices follow the source's order on the mask.
        mask = self._mask
        return [(mask & ((1 << v) - 1)).bit_count() for v in self._g]

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    @cached_property
    def preserves_bounds(self) -> bool:
        s, t, f = self.source, self.target, self._f
        return f[s.index(s.bottom)] == t.index(t.bottom) and f[s.index(s.top)] == t.index(t.top)

    @cached_property
    def cover_preserving(self) -> bool:
        ucov, f = self.target._ucov, self._f
        return all(
            ucov[f[i]] >> f[j] & 1 for i, row in enumerate(self.source._ucov) for j in _bits(row)
        )

    @cached_property
    def injective(self) -> bool:
        return len(set(self._f)) == len(self._f)

    def fixes(self, subset) -> bool:
        if self._mask is None:
            return all(self.mapping[x] == x for x in subset)
        index, g = self.source._index, self._g
        return all(g[index[x]] == index[x] for x in subset)

    def is_retraction(self) -> bool:
        """True iff the target is a sublattice of the source fixed pointwise.

        With the target fixed, closure under the source's operations forces
        the target's order to be the induced one.  A target on a closed
        mask is such a sublattice already, so only the fixed points are
        read.
        """
        if self._mask is None:
            elements = self.target.elements
            return check_sublattice(self.source, elements) and self.fixes(elements)
        g = self._g
        return all(g[i] == i for i in _bits(self._mask))

    def kernel(self) -> "Congruence":
        """The partition of the source into fibers, grouped by image index.

        The kernel of a verified homomorphism is a congruence, so its
        compatibility is not checked again; the tests compare it with the
        validated `Congruence` of the same fibers.
        """
        # Fibers are numbered by their least element index, which is the
        # least id, so the blocks come out sorted as `Congruence` keeps them.
        number: dict[int, int] = {}
        of = [number.setdefault(v, len(number)) for v in self._f]
        return Congruence._of_labels(self.source, of)

    def __repr__(self) -> str:
        size = len(self.target) if self._mask is None else self._mask.bit_count()
        return f"<Homomorphism {len(self.source)}->{size}>"


def _check_onto(source: FiniteLattice, g, mask: int) -> None:
    """Raise `NotAHomomorphism` unless i ↦ g[i] is a homomorphism onto the mask.

    ``mask`` must be closed under the source's join and meet.  The checks
    are the constructor's, on source indices: every image lies in the
    mask, and every join and meet row is preserved.
    """
    ids = source.elements
    if len(g) != len(ids):
        raise NotAHomomorphism("mapping is not total on the source")
    for v in g:
        if not mask >> v & 1:
            raise NotAHomomorphism(f"image {ids[v]!r} is outside the target")
    _check_rows(source, source, g)


def _check_rows(source: FiniteLattice, target: FiniteLattice, f) -> None:
    """Raise `NotAHomomorphism` unless f preserves every join and meet.

    f[i] is the target index of the i-th source element; row i of the
    source tables, read through f, must equal row f[i] of the target
    tables read at f.  One gather of f serves every row, and each row is
    compared whole, as a list: a tuple built from a map is over-allocated
    and shrunk, and CPython keeps up to 2,000 freed tuples of each length,
    so shrunk tuples would stay held.  A one-element source always
    passes.  Only a failing comparison walks the rows, to name the first
    failing pair.
    """
    image, at_f = f.__getitem__, itemgetter(*f)
    if len(f) == 1 or all(
        list(map(image, s_row)) == list(at_f(t_row))
        for s, t in ((source._join, target._join), (source._meet, target._meet))
        for s_row, t_row in zip(s, map(t.__getitem__, f))
    ):
        return
    ids = source.elements
    for i, (s_join, s_meet) in enumerate(zip(source._join, source._meet)):
        t_join, t_meet = target._join[f[i]], target._meet[f[i]]
        for j, fj in enumerate(f):
            if f[s_join[j]] != t_join[fj]:
                raise NotAHomomorphism(f"join of ({ids[i]!r}, {ids[j]!r}) is not preserved")
            if f[s_meet[j]] != t_meet[fj]:
                raise NotAHomomorphism(f"meet of ({ids[i]!r}, {ids[j]!r}) is not preserved")


@dataclass(frozen=True)
class Cover01Report:
    """Flags relating cover-{0,1} preservation, injectivity, and length."""

    is_cover01: bool
    is_embedding: bool
    lengths_equal: bool

    @property
    def all_hold(self) -> bool:
        """The map is a cover-{0,1} embedding of equal length."""
        return self.is_cover01 and self.is_embedding and self.lengths_equal


def check_cover01(f: Homomorphism) -> Cover01Report:
    """Report whether f preserves 0, 1, and covers, is injective, and keeps length.

    For semimodular source and target, the cover-{0,1} lemma says the
    first flag holds exactly when the other two do.  The report does not
    enforce it: `checks.embedding` compares the flags, `checks.cover01` the
    same flags read off a sublattice's mask, and each names the map that
    breaks the lemma.  The semimodularity precondition costs O(Σₓ deg⁺(x)²)
    per lattice, over the pairs of upper covers of each element, and is
    memoised.
    """
    if not is_semimodular(f.source) or not is_semimodular(f.target):
        raise NotSemimodular("cover-{0,1} report needs semimodular source and target")
    return Cover01Report(
        is_cover01=f.preserves_bounds and f.cover_preserving,
        is_embedding=f.injective,
        lengths_equal=lattice_length(f.source) == lattice_length(f.target),
    )


def _cover01_embedding(source: FiniteLattice, target: FiniteLattice, mapping) -> Cover01Report:
    """The report of the map, which must be a cover-{0,1} embedding of equal length.

    The one certificate check of the grid embedding, the dimension bump and
    the classifier's witnesses; raises `LatticeError` when a flag fails.
    """
    report = check_cover01(Homomorphism(source, target, mapping))
    if not report.all_hold:
        raise LatticeError("map is not a cover-{0,1} embedding of equal length")
    return report


class Congruence:
    """A partition of a lattice compatible with join and meet.

    ``blocks`` are frozensets of element ids sorted by least member.
    Inside, ``_of[i]`` is the position of the block holding element index
    i, and compatibility is verified at construction on index arrays: the
    join and meet rows of every block member, read through ``_of``, must
    equal those of the block's least member.  Compatibility implies that
    every block is a convex sublattice, which the tests check separately.
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
        index = lattice._index
        of = [0] * len(lattice)
        for k, b in enumerate(self.blocks):
            for x in b:
                of[index[x]] = k
        self._of = of
        self._validate()

    @classmethod
    def _of_labels(cls, lattice: FiniteLattice, of: list[int]) -> "Congruence":
        """The partition with element index i in block of[i], not validated.

        For a partition known to be a congruence; blocks must be numbered
        0, 1, ... in the order of their least element indices.
        """
        members: list[list[str]] = [[] for _ in range(max(of) + 1)]
        for x, k in zip(lattice.elements, of):
            members[k].append(x)
        congruence = cls.__new__(cls)
        congruence.lattice = lattice
        congruence.blocks = tuple(map(frozenset, members))
        congruence._of = of
        return congruence

    def _validate(self):
        lat = self.lattice
        index = lat._index
        block = self._of.__getitem__
        for members in self.blocks:
            if len(members) == 1:
                continue
            # Element indices follow sorted ids, so the least id has the least index.
            rep = index[min(members)]
            rep_joins = list(map(block, lat._join[rep]))
            rep_meets = list(map(block, lat._meet[rep]))
            for other in members:
                i = index[other]
                if i == rep:
                    continue
                joins = list(map(block, lat._join[i]))
                meets = list(map(block, lat._meet[i]))
                if joins == rep_joins and meets == rep_meets:
                    continue
                for z in range(len(lat)):
                    if joins[z] != rep_joins[z]:
                        raise NotACongruence("partition is not join-compatible")
                    if meets[z] != rep_meets[z]:
                        raise NotACongruence("partition is not meet-compatible")

    def block_of(self, x: str) -> frozenset[str]:
        return self.blocks[self._of[self.lattice._index[x]]]

    def block_count(self) -> int:
        return len(self.blocks)

    def intersect(self, other: "Congruence") -> "Congruence":
        """Common refinement with another congruence of the same lattice."""
        if other.lattice != self.lattice:
            raise NotACongruence("congruences of different lattices do not intersect")
        pieces: dict[tuple[int, int], set[str]] = {}
        for i, x in enumerate(self.lattice.elements):
            pieces.setdefault((self._of[i], other._of[i]), set()).add(x)
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
    """Least congruence containing ``pairs``, an iterable of element id pairs.

    The pairs go to `_congruence_labels` as index pairs, and its labels
    become the blocks of a `Congruence`, which checks them again over full
    rows.
    """
    index = lattice._index
    label = _congruence_labels(lattice, [(index[a], index[b]) for a, b in pairs])
    blocks: dict[int, set[str]] = {}
    for i, x in enumerate(lattice.elements):
        blocks.setdefault(label[i], set()).add(x)
    return Congruence(lattice, tuple(frozenset(b) for b in blocks.values()))


def _congruence_labels(lattice: FiniteLattice, pairs) -> list[int]:
    """Block labels of the least congruence containing ``pairs`` of element indices.

    Union by size, where ``label[i]`` always names the block of i, closed
    under translations: whenever two elements a and b merge, their join
    rows are walked side by side at the join-irreducible columns and their
    meet rows at the meet-irreducible columns, and every pair in different
    blocks is merged in turn.  Every translation x ↦ x ∨ z is a composite
    of translations by the join-irreducibles below z (x ∨ 0 = x), and
    dually for meets, so a partition closed under those columns is closed
    under all of them and the closure is the same least congruence as over
    full rows (R. Freese, "Computing congruences efficiently", Algebra
    Universalis 59, 2008).  Each merge is forced by one already made, so
    the labels never relate more than that congruence does; the result is
    not checked here.
    """
    walks = (
        (lattice._join, tuple(_bits(_jmask(lattice)))),
        (lattice._meet, tuple(_bits(_mmask(lattice)))),
    )
    label = list(range(len(lattice)))
    members: list[list[int]] = [[i] for i in range(len(lattice))]
    work: list[tuple[int, int]] = []

    def merge(a: int, b: int):
        keep, drop = label[a], label[b]
        if keep == drop:
            return
        if len(members[keep]) < len(members[drop]):
            keep, drop = drop, keep
        for i in members[drop]:
            label[i] = keep
        members[keep] += members[drop]
        members[drop] = []
        work.append((a, b))

    for a, b in pairs:
        merge(a, b)
    while work:
        a, b = work.pop()
        for table, columns in walks:
            row_a, row_b = table[a], table[b]
            for z in columns:
                x, y = row_a[z], row_b[z]
                if label[x] != label[y]:
                    merge(x, y)
    return label
