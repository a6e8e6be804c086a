"""Named exhaustive checks: one source for `oracle-verify` and the acceptance tests.

Each check takes its inputs as plain arguments (a size bound, a random
generator, or the ambient lattices or grid sizes to sweep) and returns a
list of `Result` triples.  A failing result's detail names the first input
that broke it.  `SUITES` binds every check to the bounds of ``finlat
oracle-verify --suite NAME --max-size N``; the acceptance tests call the
same functions with their own bounds.  Every sweep over sublattices reads
each one as a closed mask from `oracle._sublattice_masks` and passes it
straight to the retraction search and the equation system, which check no
closure again: ids appear only in a failure line or a kernel's argument.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from . import chains, core, grids, oracle, slim
from .morphisms import Homomorphism, NotSemimodular, check_cover01, congruence_generated_by

__all__ = [
    "Result", "SUITES", "congruence_bound", "cover01", "embedding", "forks", "generation",
    "grid_facts", "proposition", "retraction_kernels", "subgrid", "swing",
]


class Result(NamedTuple):
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], detail: str) -> Result:
    """Passed iff nothing failed; a failure's detail names the first one."""
    if not failures:
        return Result(name, True, detail)
    return Result(name, False, f"{detail.rstrip()}; first failure: {failures[0]}")


def _show(lattice: core.FiniteLattice) -> str:
    covers = ", ".join(f"{lo}<{hi}" for lo, hi in sorted(lattice.covers))
    return f"the {len(lattice)}-element lattice [{covers}]"


def _pair(lattice: core.FiniteLattice, mask: int) -> str:
    return f"sublattice {sorted(oracle._mask_to_set(lattice, mask))} of {_show(lattice)}"


def proposition(size: int) -> list[Result]:
    """On every proper sublattice of every lattice with at most `size`
    elements, the equation system is solvable exactly when a retraction
    exists, and each solution induces a retraction."""
    pairs = 0
    bad: list[str] = []
    for big in oracle.enumerate_small_lattices(size):
        for mask in oracle._sublattice_masks(big):
            if mask.bit_count() == len(big):
                continue
            pairs += 1
            system = oracle._equation_system(big, mask)
            solved = oracle.solve_equation_system(system)
            hom = oracle._search(big, mask, count_all=False)[0]
            if (solved is None) != (hom is None) or (
                solved is not None
                and not oracle.induced_homomorphism(system, solved).is_retraction()
            ):
                bad.append(_pair(big, mask))
    detail = f"{pairs} proper sublattice pairs up to size {size}, {len(bad)} disagreements"
    return [_result("equation-system-vs-retraction", bad, detail)]


def grid_facts(size: int) -> list[Result]:
    """An (m+1)x(n+1) grid has m*n 4-cells (m, n <= 4), and every
    distributive lattice with at most `size` elements has length |J(L)|."""
    cells = [
        f"the {m + 1}x{n + 1} grid"
        for m in range(1, 5)
        for n in range(1, 5)
        if len(core.four_cells(grids.make_grid((m + 1, n + 1)).lattice)) != m * n
    ]
    total = 0
    off: list[str] = []
    for lat in oracle.enumerate_small_lattices(size, filters=("distributive",)):
        total += 1
        if core.lattice_length(lat) != len(core.join_irreducibles(lat)):
            off.append(_show(lat))
    detail = f"length equals join-irreducible count on {total} lattices, {len(off)} violations"
    return [
        # the trailing space keeps the report byte-identical to earlier versions
        _result("grid-cell-count", cells, "m*n cells on all grids up to 4x4 "),
        _result("distributive-length-law", off, detail),
    ]


def embedding(size: int) -> list[Result]:
    """Every distributive lattice with 2..`size` elements embeds into its grid
    by a cover-{0,1} embedding of equal length."""
    total = 0
    bad: list[str] = []
    for lat in oracle.enumerate_small_lattices(size, filters=("distributive",)):
        if len(lat) < 2:
            continue
        total += 1
        emb = chains.grid_embed(lat)
        if not check_cover01(Homomorphism(lat, emb.target.lattice, emb.mapping)).all_hold:
            bad.append(_show(lat))
    detail = f"{total} distributive lattices embedded, {len(bad)} failures"
    return [_result("grid-embedding-cover01", bad, detail)]


def _inclusion_flags(big: core.FiniteLattice, mask: int, ucov, length: int) -> tuple[bool, bool]:
    """(cover-{0,1}, equal length) of the inclusion of a closed mask, with covers ``ucov``,
    into ``big`` of the given length.  An inclusion is an embedding; it is cover-{0,1}
    iff both bounds are in the mask and every cover within it is an ambient cover."""
    bounds = 1 << big.index(big.bottom) | 1 << big.index(big.top)
    is_cover01 = mask & bounds == bounds and not any(c & ~u for c, u in zip(ucov, big._ucov))
    return is_cover01, core._length_on(big, ucov) == length


def cover01(ambients) -> list[Result]:
    """The cover-{0,1} lemma on every semimodular sublattice of each ambient
    lattice: an inclusion is cover-{0,1} iff it is an embedding of equal
    length, and a proper cover-{0,1} extension admits no retraction."""
    searched = 0
    bad: list[str] = []
    for big in ambients:
        if not core.is_semimodular(big):
            raise NotSemimodular("cover-{0,1} report needs semimodular source and target")
        length = core._length_on(big, big._ucov)  # read as each sublattice's is
        for mask in oracle._sublattice_masks(big):
            ucov = core._covers_within(big._up, mask)
            if not core._semimodular_on(big, ucov):
                continue
            is_cover01, lengths_equal = _inclusion_flags(big, mask, ucov, length)
            if is_cover01 != lengths_equal:
                bad.append(_pair(big, mask))
            if is_cover01 and mask.bit_count() < len(big):
                searched += 1
                if oracle._search(big, mask, count_all=False)[0] is not None:
                    bad.append(_pair(big, mask))
    detail = f"inclusion flags consistent; {searched} proper cover-01 extensions admit no retraction"
    return [_result("cover01-lemma", bad, detail)]


def forks(rng: random.Random) -> list[Result]:
    """Forking the boolean square gives S7, and in 100 random rounds of one to
    three forks over small grids every fork keeps the lattice slim and
    semimodular and adds one to its length."""
    square = slim.oriented_grid(1, 1)
    first = slim.add_fork(square, square.cells()[0]).lattice
    s7 = core.build_lattice(
        ["0", "u", "v", "l", "m", "r", "1"],
        [("0", "u"), ("0", "v"), ("u", "l"), ("u", "m"), ("v", "m"), ("v", "r"),
         ("l", "1"), ("m", "1"), ("r", "1")],
    )
    not_s7 = [] if len(first) == 7 and oracle.is_isomorphic(first, s7) else [_show(first)]
    replays = 0
    bad: list[str] = []
    for round_ in range(100):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        ol = slim.oriented_grid(m, n)
        for _ in range(rng.randint(1, 3)):
            cells = ol.cells()
            before = core.lattice_length(ol.lattice)
            ol = slim.add_fork(ol, cells[rng.randrange(len(cells))])
            replays += 1
            lat = ol.lattice
            if not (
                core.is_slim(lat)
                and core.is_semimodular(lat)
                and core.lattice_length(lat) == before + 1
            ):
                bad.append(f"round {round_} on the {m + 1}x{n + 1} grid, giving {_show(lat)}")
    return [
        _result(
            "fork-on-boolean-square",
            not_s7,
            "forking the 4-element boolean lattice gives the 7-element S7",
        ),
        _result("fork-replays", bad, f"{replays} fork steps revalidated"),
    ]


def swing(t_max: int) -> list[Result]:
    """In each S7-family member with t <= `t_max` inner coatoms, collapsing
    any two of them collapses all of them into the top block."""
    bad: list[str] = []
    for t in range(1, t_max + 1):
        member = slim.s7_family(t)
        coats = slim.inner_coatoms(member)
        if len(coats) != t:
            bad.append(f"t={t} has {len(coats)} inner coatoms")
            continue
        for a, b in combinations(coats, 2):
            theta = congruence_generated_by(member.lattice, [(a, b)])
            if not set(coats) <= theta.block_of(member.lattice.top):
                bad.append(f"t={t}, inner coatoms {a}, {b}")
    detail = f"collapsing two inner coatoms collapses all of them into the top block (t <= {t_max})"
    return [_result("swing-congruence-step", bad, detail)]


def subgrid(grid_sizes) -> list[Result]:
    """Every sublattice of each grid that is a grid of the same dimension is
    recovered exactly from its subchains by the membership formula, read
    per axis as the union of the fibers of the chain's canonical joinands."""
    tested = 0
    bad: list[str] = []
    for sizes in grid_sizes:
        grid = grids.make_grid(sizes)
        lat = grid.lattice
        full = (1 << len(lat)) - 1
        # fibers[j][c]: the mask of the elements whose j-th canonical joinand is c
        fibers = [[0] * len(lat) for _ in grid.canonical_chains]
        for i, x in enumerate(lat.elements):
            for fiber, joinand in zip(fibers, grids.canonical_joinands(grid, x)):
                fiber[lat.index(joinand)] |= 1 << i
        for mask in oracle._sublattice_masks(lat):
            if mask.bit_count() < 2:
                continue
            # every subchain with two or more elements is a 1-dimensional grid
            if grid.dimension > 1:
                factors = core._grid_shape(lat, mask)
                if factors is None or len(factors) != grid.dimension:
                    continue
            tested += 1
            try:
                members = full
                for fiber, chain in zip(fibers, grids._subgrid_chains(grid, mask)):
                    members &= sum(fiber[c] for c in core._bits(chain))  # fibers are disjoint
            except grids.NotASubgrid:
                members = None
            if members != mask:
                sub = sorted(oracle._mask_to_set(lat, mask))
                bad.append(f"sublattice {sub} of the {'x'.join(map(str, sizes))} grid")
    detail = f"{tested} full-dimension grid sublattices recovered, {len(bad)} failures"
    return [_result("subgrid-recovery", bad, detail)]


def generation(size: int) -> list[Result]:
    """Both lattice generators, and both distributive routes, agree up to `size`."""
    counts_a = [0] * (size + 1)
    for lat in oracle.enumerate_small_lattices(size):
        counts_a[len(lat)] += 1
    counts_b = [0] * (size + 1)
    for lat in oracle.bruteforce_lattices(size):
        counts_b[len(lat)] += 1
    sizes_off = [f"size {k}: {a} against {b}" for k, (a, b) in enumerate(zip(counts_a, counts_b)) if a != b]
    dist_a = sum(1 for _ in oracle.enumerate_small_lattices(size, filters=("distributive",)))
    dist_b = sum(1 for _ in oracle.enumerate_distributive_lattices(size))
    return [
        _result(
            "generation-strategies-agree",
            sizes_off,
            f"per-size counts {counts_a[1:]} from both strategies",
        ),
        _result(
            "distributive-enumerators-agree",
            [] if dist_a == dist_b else [f"{dist_a} against {dist_b}"],
            f"{dist_a} distributive lattices up to size {size} from both routes",
        ),
    ]


def retraction_kernels(size: int) -> list[Result]:
    """The kernel of every retraction found is a congruence that is diagonal
    on the sublattice, over all lattices with at most `size` elements."""
    total = 0
    bad: list[str] = []
    for big in oracle.enumerate_small_lattices(size):
        for mask in oracle._sublattice_masks(big):
            hom = oracle._search(big, mask, count_all=False)[0]
            if hom is None:
                continue
            total += 1
            if not hom.kernel().is_diagonal_on(oracle._mask_to_set(big, mask)):
                bad.append(_pair(big, mask))
    detail = f"{total} retraction kernels are congruences with diagonal restriction"
    return [_result("retraction-kernels", bad, detail)]


def congruence_bound(size: int, rng: random.Random) -> list[Result]:
    """On 50 random pairs of principal congruences of lattices with at most
    `size` elements, the intersection has at most the product of the block counts."""
    lattices = list(oracle.enumerate_small_lattices(size))
    bad: list[str] = []
    for _ in range(50):
        lat = lattices[rng.randrange(len(lattices))]
        elems = lat.elements
        pair1 = (elems[rng.randrange(len(elems))], elems[rng.randrange(len(elems))])
        pair2 = (elems[rng.randrange(len(elems))], elems[rng.randrange(len(elems))])
        theta1 = congruence_generated_by(lat, [pair1])
        theta2 = congruence_generated_by(lat, [pair2])
        if theta1.intersect(theta2).block_count() > theta1.block_count() * theta2.block_count():
            bad.append(f"pairs {pair1}, {pair2} of {_show(lat)}")
    detail = "intersections stay within the product of the block counts (50 samples)"
    return [_result("congruence-intersection-bound", bad, detail)]


# The oracle-verify suites: each maps (--max-size, the shared rng) to results.
SUITES = {
    "congruence-bound": lambda size, rng: congruence_bound(min(size, 6), rng),
    "cover01": lambda size, rng: cover01(
        oracle.enumerate_small_lattices(min(size, 6), filters=("semimodular",))
    ),
    "embedding": lambda size, rng: embedding(min(size, 6)),
    "forks": lambda size, rng: forks(rng),
    "generation": lambda size, rng: generation(min(size, 6)),
    "grid-facts": lambda size, rng: grid_facts(min(size, 7)),
    "proposition": lambda size, rng: proposition(min(size, 6)),
    "retraction-kernels": lambda size, rng: retraction_kernels(min(size, 5)),
    "subgrid": lambda size, rng: subgrid([(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 4), (2, 2, 3)]),
    "swing": lambda size, rng: swing(4),
}
