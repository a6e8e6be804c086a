"""Retraction constructions and the absolute-retract classifier.

Two closed forms build every retraction, both inside the ambient lattice.
The upper map sends x to the least member of the sublattice at or above
x ∧ t, where t is the sublattice's top.  On a chain this is the least
member at or above x, or else the largest member; on a grid sublattice of
full dimension it is that rule on every coordinate, so its kernel is the
intersection of the kernels of the chain-wise projections; it also gives
the identity and the constant map onto one element.  The prime map
retracts a distributive lattice onto a boolean sublattice by sending x to
the member whose join-irreducibles agree with those of x on one chosen
prime per atom; the kernel is the intersection of the two-block
congruences of those prime ideals.  `retract_onto` is the one public
entry to both; the tests compare each map with a reference built from
those congruences.  It reads the target's shape once off its closed mask
(`core._grid_shape`), both to decide eligibility and to choose the map,
and builds both maps on the ambient's tables, so no sublattice is built
unless the result's target is read.  A map depends on the lattice and the
target's mask only, never on the class, so each checked map is kept in the
lattice's memo by mask, while eligibility is decided again on every call.
A classifier decides whether a lattice is an absolute retract for the
class of finite distributive lattices of bounded dimension, and in the
negative case builds a proper cover-preserving {0,1}-extension of equal
length as a refutation witness, certified by `morphisms._cover01_embedding`
and optionally confirmed by exhaustive search.  The witness is the grid
of the lattice's grid coordinates, or one dimension up, the grid their
bump gives: only that grid is built, only its map is certified, and the
witness, its certificate and its search count are memoised on the input,
so every class that asks the same lattice for the same witness reads
one certified witness.  The cover-{0,1} report lives in `morphisms`; this
module re-exports it with `NotSemimodular`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .core import (
    FiniteLattice,
    LatticeError,
    _bits,
    _grid_shape,
    _jmask,
    _memoised,
    _sublattice_mask,
    grid_factor_sizes,
    is_distributive,
    is_semimodular,
    is_slim,
)
from .chains import _grid_coordinates, order_dimension
from .grids import _bump_coords, make_grid
from .morphisms import (
    Congruence,
    Cover01Report,
    Homomorphism,
    NotACongruence,
    NotAHomomorphism,
    NotSemimodular,
    _check_onto,
    _cover01_embedding,
    check_cover01,
)
from .oracle import search_retraction
from .slim import build_witness

__all__ = [
    "NotAHomomorphism",
    "NotACongruence",
    "NotSemimodular",
    "NotEligible",
    "NotInClass",
    "Homomorphism",
    "Congruence",
    "Cover01Report",
    "check_cover01",
    "retract_onto",
    "ClassId",
    "Verdict",
    "WitnessCertificate",
    "classify_absolute_retract",
]


# The largest witness that `classify_absolute_retract` confirms by search.
_ORACLE_BOUND = 60


class NotEligible(LatticeError):
    """The target is neither boolean nor a grid of the class dimension."""


class NotInClass(LatticeError):
    pass


def _upper_map(lattice: FiniteLattice, mask: int) -> tuple[int, ...]:
    """x ↦ the least member of the sublattice S at or above x ∧ t, t = top of S.

    S is given by its index mask, and so is the image of each element index.
    The image of x is the meet of the members in the up-set of x ∧ t, which
    lies in S because S is closed under meets.
    """
    join, meet, up = lattice._join, lattice._meet, lattice._up
    t = reduce(lambda a, b: join[a][b], _bits(mask))
    return tuple(
        reduce(lambda a, b: meet[a][b], _bits(up[meet[i][t]] & mask)) for i in range(len(lattice))
    )


def _prime_map(lattice: FiniteLattice, mask: int) -> tuple[int, ...]:
    """Schmid's prime-ideal map of a distributive lattice onto a boolean sublattice.

    The boolean sublattice S is given by its closed index mask.  Walks a
    maximal chain of S built greedily through its atoms in canonical
    order; for each step picks the least join-irreducible p of the
    lattice with p below the upper endpoint but not the lower one.  With P
    the set of these primes, x maps to the member d with J(d) ∩ P =
    J(x) ∩ P, where J(x) is the set of join-irreducibles below x.  The
    kernel is the intersection of the two-block congruences of the prime
    ideals {x : p not below x}, which has exactly |S| blocks.  S's bottom,
    its atoms and the joins along the chain are read off the lattice's
    tables, which on a closed mask hold those of S, and images are given as
    element indices of ``lattice``.
    """
    join, meet, up, down = lattice._join, lattice._meet, lattice._up, lattice._down
    bottom = reduce(lambda a, b: meet[a][b], _bits(mask))
    above = up[bottom] & mask & ~(1 << bottom)
    # Index order is sorted-id order: the atoms of S come in canonical
    # order, and the lowest bit is the least p.
    chain = [bottom]
    for a in _bits(above):
        if down[a] & above == 1 << a:
            chain.append(join[chain[-1]][a])

    jmask = _jmask(lattice)
    primes = 0
    for lower, upper in zip(chain, chain[1:]):
        candidates = down[upper] & ~down[lower] & jmask
        primes |= candidates & -candidates
    rep = {down[i] & primes: i for i in _bits(mask)}
    return tuple(rep[dx & primes] for dx in down)


@dataclass(frozen=True)
class ClassId:
    """A class of lattices an absolute-retract question is asked in.

    ``kind`` is one of ``dfin`` (finite distributive lattices of dimension
    at most n, all homomorphisms), ``dcov`` (same objects, cover-{0,1}
    morphisms), or ``sps`` (slim semimodular lattices).  ``n`` is the
    dimension bound; None marks the unbounded case.
    """

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("dfin", "dcov", "sps"):
            raise LatticeError(f"unknown class kind {self.kind!r}")
        if self.kind == "sps" and self.n is not None:
            raise LatticeError(f"class {self.kind!r} takes no dimension bound")
        if self.n is not None and self.n < 1:
            raise LatticeError("dimension bound must be at least 1")

    @classmethod
    def dfin(cls, n: int | None) -> "ClassId":
        return cls("dfin", n)

    @classmethod
    def parse(cls, text: str) -> "ClassId":
        kind, colon, arg = text.partition(":")
        if kind == "sps":
            if colon:  # "sps:" too, which would print back as "sps"
                raise LatticeError(f"class {kind!r} takes no argument")
            return cls(kind)
        if kind in ("dfin", "dcov"):
            if arg == "omega":
                return cls(kind, None)
            # int() alone would also take '_', spaces, signs and non-ASCII digits.
            if not (arg.isascii() and arg.isdigit()):
                raise LatticeError(f"bad dimension {arg!r} in class {text!r}")
            return cls(kind, int(arg))
        raise LatticeError(f"unknown class {text!r}")

    def __str__(self) -> str:
        if self.kind == "sps":
            return self.kind
        return f"{self.kind}:{'omega' if self.n is None else self.n}"


def _check_membership(lattice: FiniteLattice, cls: ClassId):
    if cls.kind == "sps":
        if not (is_slim(lattice) and is_semimodular(lattice)):
            raise NotInClass("lattice is not slim semimodular")
        return
    if not is_distributive(lattice):
        raise NotInClass("lattice is not distributive")
    if cls.n is not None and len(lattice) >= 2 and order_dimension(lattice) > cls.n:
        raise NotInClass(f"dimension exceeds {cls.n}")


def _qualifies(cls: ClassId, shape: tuple[int, ...] | None) -> bool:
    """Positive side of the distributive classes, on a `core._grid_shape` shape:
    boolean (``()`` or a largest factor of 2) or a grid of the class dimension."""
    return shape is not None and (not shape or shape[0] == 2 or len(shape) == cls.n)


def retract_onto(lattice: FiniteLattice, subset, cls: ClassId) -> Homomorphism:
    """Build a retraction of a class member onto an eligible sublattice.

    The whole lattice is always eligible.  Otherwise the slim semimodular
    class admits only one-element targets, and the distributive classes
    boolean targets and grids of the class dimension.  A proper boolean
    target gets the prime map, every other target the upper map
    x ↦ least member at or above x ∧ t, both computed in the ambient
    lattice.  One `core._grid_shape` of the target's closed mask decides
    eligibility and the map; both maps are index tuples checked on the
    ambient's tables, and the result builds its target lattice only when it
    is first read.  The map depends on the lattice and the mask alone, so
    the shape and the checked map are kept in the lattice's memo, keyed by
    the mask; every call still checks membership, closure and eligibility
    for its own class, and wraps the kept map in a new result.
    """
    _check_membership(lattice, cls)
    mask = _sublattice_mask(lattice, subset)
    size = mask.bit_count()
    proper = size < len(lattice)
    if cls.kind == "sps" and proper and size != 1:
        raise NotEligible("only one-element sublattices are eligible in this class")
    made = lattice._memo.setdefault(retract_onto, {})
    shape, g = made.get(mask) or (_grid_shape(lattice, mask), None)
    if cls.kind != "sps" and proper and not _qualifies(cls, shape):
        raise NotEligible("target is neither boolean nor a grid of the class dimension")
    if g is not None:
        return Homomorphism._onto_sublattice(lattice, g, mask)
    # A one-element target is boolean: both maps are the constant map.
    boolean = proper and (not shape or shape[0] == 2)
    g = (_prime_map if boolean else _upper_map)(lattice, mask)
    _check_onto(lattice, g, mask)
    result = Homomorphism._onto_sublattice(lattice, g, mask)
    if not result.is_retraction():  # pragma: no cover - verified construction
        raise LatticeError("constructed map is not a retraction")
    made[mask] = shape, g
    return result


@dataclass(frozen=True)
class WitnessCertificate:
    """Evidence that a proper extension admits no retraction.

    The inclusion being a proper cover-preserving {0,1}-embedding of equal
    length already rules out a retraction (such a retraction would be an
    isomorphism); ``oracle_confirmed`` records an additional exhaustive
    search when the witness is small enough.
    """

    proper: bool
    cover01: Cover01Report
    oracle_confirmed: bool | None


@dataclass(frozen=True)
class Verdict:
    """Outcome of the absolute-retract classification."""

    lattice: FiniteLattice
    class_id: ClassId
    is_absolute_retract: bool
    case: str | None = None
    witness: FiniteLattice | None = None
    embedding: dict[str, str] | None = None
    certificate: WitnessCertificate | None = None
    search_nodes: int | None = None


def _certify(
    lattice: FiniteLattice, witness: FiniteLattice, mapping: dict[str, str]
) -> tuple[WitnessCertificate, int | None]:
    """The certificate of the inclusion L → witness, and the nodes of its search.

    The certificate is returned only when the inclusion is proper,
    cover-{0,1}, injective and of equal length; for witnesses of at most
    `_ORACLE_BOUND` elements an exhaustive search for a retraction onto the
    image is run as confirmation, and its node count is returned.
    """
    report = _cover01_embedding(lattice, witness, mapping)
    if len(witness) <= len(lattice):  # pragma: no cover
        raise LatticeError("witness construction failed to be a proper cover-{0,1} extension")
    confirmed: bool | None = None
    nodes: int | None = None
    if len(witness) <= _ORACLE_BOUND:
        image = {mapping[x] for x in lattice.elements}
        found, nodes = search_retraction(witness, image)
        confirmed = found is None
        if not confirmed:  # pragma: no cover - impossible mathematically
            raise LatticeError("oracle found a retraction onto a refuted witness")
    return WitnessCertificate(True, report, confirmed), nodes


def _grid_witness(lattice: FiniteLattice, sizes, coords):
    """(grid G of the given sizes, the map of L's elements to coords in G,
    its certificate, its search nodes).

    G is larger than L and the certificate holds flags only, so the value
    never references L; `classify_absolute_retract` copies the map.
    """
    grid = make_grid(sizes)
    mapping = {x: grid.id_of(c) for x, c in zip(lattice.elements, coords)}
    return grid, mapping, *_certify(lattice, grid.lattice, mapping)


@_memoised
def _same_dimension_witness(lattice: FiniteLattice):
    """`_grid_witness` on the grid embedding's own coordinates.

    The grid never holds L: an L that is a grid of the class dimension is
    positive and gets no witness.
    """
    e_plus, coords = _grid_coordinates(lattice)
    return _grid_witness(lattice, tuple(map(len, e_plus)), coords)


@_memoised
def _bump_witness(lattice: FiniteLattice):
    """`_grid_witness` on the grid embedding's coordinates after the bump.

    The bump rule is applied to the coordinates, so the grid of L's own
    dimension is never built, and only the composite map is certified.
    """
    e_plus, coords = _grid_coordinates(lattice)
    return _grid_witness(lattice, *_bump_coords(tuple(map(len, e_plus)), coords))


def classify_absolute_retract(lattice: FiniteLattice, cls: ClassId) -> Verdict:
    """Decide absolute-retract status in a class, with a constructive refutation.

    Positive exactly for boolean lattices and, when the class carries a
    finite dimension n, for n-dimensional grids.  Otherwise a proper
    extension witness is built: the grid embedding target when dimensions
    already agree, or else a dimension bump of that target.  (A boolean
    grid target would make the lattice boolean, which is positive.)
    `_certify` certifies the inclusion.  Neither witness depends on the
    class, so each is built and certified once per lattice: every class
    that asks for it reads the same witness, certificate and search nodes.
    """
    _check_membership(lattice, cls)

    if cls.kind == "sps":
        if len(lattice) == 1:
            return Verdict(lattice, cls, True, case="singleton")
        report = build_witness(lattice)
        return Verdict(
            lattice,
            cls,
            False,
            case="sps-witness",
            witness=report.extension.lattice,
            embedding=dict(report.embedded_copy),
            certificate=None,
            search_nodes=report.search_nodes,
        )

    if _qualifies(cls, grid_factor_sizes(lattice)):
        return Verdict(lattice, cls, True)

    # |lattice| >= 2 here: the singleton is boolean and already returned.
    n = cls.n
    if n is None or order_dimension(lattice) < n:
        case, witness = "dimension-bump", _bump_witness
    else:
        case, witness = "same-dimension", _same_dimension_witness
    grid, mapping, certificate, nodes = witness(lattice)
    return Verdict(
        lattice,
        cls,
        False,
        case=case,
        witness=grid.lattice,
        embedding=dict(mapping),
        certificate=certificate,
        search_nodes=nodes,
    )
