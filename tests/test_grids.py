import gc
import random
import weakref
from collections import Counter
from functools import reduce
from itertools import combinations
from math import prod

import pytest

from finlat import (
    BooleanInput,
    ClassId,
    Homomorphism,
    LatticeError,
    NotASubgrid,
    NotInClass,
    TrivialFactor,
    all_sublattices,
    build_lattice,
    canonical_joinands,
    check_cover01,
    check_sublattice,
    classify_absolute_retract,
    classify_properties,
    dimension_bump,
    enumerate_distributive_lattices,
    four_cells,
    grid_embed,
    join_irreducibles,
    lattice_length,
    make_grid,
    recover_subgrid_chains,
)
import finlat.grids as grids
from finlat.grids import Grid
from tests.conftest import REFERENCE_GRID_SIZES


def test_make_grid_cube():
    grid = make_grid((2, 2, 2))
    assert classify_properties(grid.lattice).boolean
    assert len(grid.canonical_chains) == 3


def test_make_grid_32():
    grid = make_grid((3, 2))
    assert len(grid.lattice) == 6
    assert lattice_length(grid.lattice) == 3
    assert len(four_cells(grid.lattice)) == 2


def test_make_grid_rejects_trivial_factor():
    with pytest.raises(TrivialFactor):
        make_grid((1, 3))


def test_grid_ji_matches_canonical_chains():
    for sizes in [(2, 2), (3, 2), (4, 3), (2, 2, 2), (3, 2, 2)]:
        grid = make_grid(sizes)
        ji = set(join_irreducibles(grid.lattice))
        chain_union = set()
        for chain in grid.canonical_chains:
            chain_union |= set(chain[1:])
        assert ji == chain_union
        assert len(ji) == sum(s - 1 for s in sizes)
        assert lattice_length(grid.lattice) == len(ji)


def test_canonical_joinands_32():
    grid = make_grid((3, 2))
    assert canonical_joinands(grid, "1,1") == ("1,0", "0,1")
    assert canonical_joinands(grid, "0,0") == ("0,0", "0,0")


def test_canonical_joinands_reassemble():
    for sizes in [(2, 2), (3, 2), (3, 3), (4, 3), (2, 2, 2), (3, 3, 2), (6, 6)]:
        grid = make_grid(sizes)
        assert len(grid.lattice) <= 36
        for x in grid.lattice.elements:
            joinands = canonical_joinands(grid, x)
            assert reduce(grid.lattice.join, joinands) == x
            for chain, joinand in zip(grid.canonical_chains, joinands):
                assert joinand in chain


def test_canonical_joinands_give_product_isomorphism():
    grid = make_grid((3, 3))
    seen = set()
    for x in grid.lattice.elements:
        seen.add(canonical_joinands(grid, x))
    assert len(seen) == len(grid.lattice)
    for x in grid.lattice.elements:
        for y in grid.lattice.elements:
            jx, jy = canonical_joinands(grid, x), canonical_joinands(grid, y)
            joined = tuple(
                grid.lattice.join(a, b) for a, b in zip(jx, jy)
            )
            assert joined == canonical_joinands(grid, grid.lattice.join(x, y))


def test_recover_subgrid_chains():
    grid = make_grid((3, 3))
    chains = recover_subgrid_chains(grid, {"0,0", "2,0", "0,1", "2,1"})
    assert chains == (("0,0", "2,0"), ("0,0", "0,1"))


def test_recover_full_grid():
    grid = make_grid((3, 2))
    assert recover_subgrid_chains(grid, grid.lattice.elements) == grid.canonical_chains


def test_recover_rejects_chain():
    grid = make_grid((3, 3))
    with pytest.raises(NotASubgrid):
        recover_subgrid_chains(grid, {"0,0", "1,1", "2,2"})
    with pytest.raises(NotASubgrid):
        recover_subgrid_chains(grid, {"0,0", "1,0", "2,0"})


def test_recover_membership_formula_small_grids():
    # every equal-dimension grid sublattice of grids up to 16 elements
    from finlat import all_sublattices, grid_factor_sizes, induced_lattice

    for sizes in [(2, 2), (3, 2), (4, 2), (3, 3), (2, 2, 2), (4, 4)]:
        grid = make_grid(sizes)
        if len(grid.lattice) > 16:
            continue
        for sub in all_sublattices(grid.lattice):
            factors = grid_factor_sizes(induced_lattice(grid.lattice, sub))
            if factors is None or len(factors) != grid.dimension:
                continue
            chains = recover_subgrid_chains(grid, sub)
            members = {
                x
                for x in grid.lattice.elements
                if all(
                    canonical_joinands(grid, x)[j] in set(chains[j])
                    for j in range(grid.dimension)
                )
            }
            assert members == set(sub)


def _reference_recover_subgrid_chains(grid, subset):
    """The former `recover_subgrid_chains`, on canonical joinands."""
    elems = set(subset)
    if not check_sublattice(grid.lattice, elems):
        raise NotASubgrid("subset is not a sublattice")
    joinands = {x: canonical_joinands(grid, x) for x in elems}
    n = grid.dimension
    chains = []
    for j in range(n):
        members = {joinands[x][j] for x in elems}
        chain = tuple(sorted(members, key=lambda c: grid.coords(c)[j]))
        if len(chain) < 2:
            raise NotASubgrid(f"recovered chain {j} is trivial")
        chains.append(chain)
    chain_sets = [set(c) for c in chains]
    reproduced = {
        x
        for x in grid.lattice.elements
        if all(
            canonical_joinands(grid, x)[j] in chain_sets[j] for j in range(n)
        )
    }
    if reproduced != elems:
        raise NotASubgrid("membership formula does not reproduce the subset")
    return tuple(chains)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotASubgrid as error:
        return type(error), str(error)


def test_recover_subgrid_chains_matches_reference():
    rng = random.Random(20261018)
    messages = Counter()
    for sizes in REFERENCE_GRID_SIZES:
        grid = make_grid(sizes)
        elems = grid.lattice.elements
        subsets = list(all_sublattices(grid.lattice))
        subsets += [{x for x in elems if rng.random() < 0.5} for _ in range(50)]
        for subset in subsets:
            expected = _outcome(_reference_recover_subgrid_chains, grid, subset)
            assert _outcome(recover_subgrid_chains, grid, subset) == expected, (sizes, subset)
            messages[expected[1].split()[0] if expected[0] is NotASubgrid else "chains"] += 1
    # both successes and each of the three errors occur
    assert set(messages) == {"chains", "subset", "recovered", "membership"}, messages


def _coordinate_recover_subgrid_chains(grid, subset):
    """The former `recover_subgrid_chains`, on coordinate sets."""
    elems = set(subset)
    if not check_sublattice(grid.lattice, elems):
        raise NotASubgrid("subset is not a sublattice")
    chains = []
    for j, canonical in enumerate(grid.canonical_chains):
        values = sorted({grid.coords(x)[j] for x in elems})
        if len(values) < 2:
            raise NotASubgrid(f"recovered chain {j} is trivial")
        chains.append(tuple(canonical[k] for k in values))
    if prod(map(len, chains)) != len(elems):
        raise NotASubgrid("membership formula does not reproduce the subset")
    return tuple(chains)


def test_recover_subgrid_chains_matches_the_coordinate_reference():
    """Every subset of five small grids and of the 11-element chain, and
    every product of subchains of the 11x2 grid: there "10,0" sorts before
    "2,0", so index order is not chain order."""
    cases = []
    for sizes in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (11,)]:
        grid = make_grid(sizes)
        elems = grid.lattice.elements
        cases += [
            (grid, {x for k, x in enumerate(elems) if bits >> k & 1}) for bits in range(1 << len(elems))
        ]
    grid = make_grid((11, 2))
    cases += [
        (grid, {grid.id_of((i, k)) for i in chain for k in (0, 1)})
        for size in range(2, 12)
        for chain in combinations(range(11), size)
    ]
    assert len(cases) == 16 + 64 + 512 + 256 + 4096 + 2048 + 2036
    outcomes = Counter()
    for grid, subset in cases:
        expected = _outcome(_coordinate_recover_subgrid_chains, grid, subset)
        assert _outcome(recover_subgrid_chains, grid, subset) == expected, (grid, subset)
        outcomes[expected[1].split()[0] if expected[0] is NotASubgrid else "chains"] += 1
    # both successes and each of the three errors occur
    assert set(outcomes) == {"chains", "subset", "recovered", "membership"}, outcomes


def test_dimension_bump_c3():
    bumped, mapping = dimension_bump(make_grid((3,)))
    assert bumped.factor_sizes == (2, 2)
    image = {mapping[x] for x in ("0", "1", "2")}
    assert image == {"0,0", "0,1", "1,1"}


def test_dimension_bump_c4():
    bumped, mapping = dimension_bump(make_grid((4,)))
    assert bumped.factor_sizes == (2, 3)
    assert lattice_length(bumped.lattice) == 3


def test_dimension_bump_rejects_boolean():
    with pytest.raises(BooleanInput):
        dimension_bump(make_grid((2, 2)))


_BUMP_SHAPES = [(3,), (4,), (3, 2), (4, 3), (3, 2, 2), (2, 3)]


def test_dimension_bump_cover01_and_size():
    for sizes in _BUMP_SHAPES:
        grid = make_grid(sizes)
        bumped, mapping = dimension_bump(grid)
        hom = Homomorphism(grid.lattice, bumped.lattice, mapping)
        report = check_cover01(hom)
        assert report.is_cover01 and report.is_embedding and report.lengths_equal
        split = next(j for j, s in enumerate(sizes) if s >= 3)
        expected = 2 * (sizes[split] - 1)
        for j, s in enumerate(sizes):
            if j != split:
                expected *= s
        assert len(bumped.lattice) == expected


def test_dimension_bump_image_is_ideal_filter_gluing():
    """The embedded copy is the union of an ideal and a filter of the big
    grid: the ideal below and the filter above the two corners that are 0
    on the split axis, the split factor's coatom index q on the next axis,
    and every other coordinate at its top or at its bottom."""
    for sizes in _BUMP_SHAPES:
        bumped, mapping = dimension_bump(make_grid(sizes))
        lat = bumped.lattice
        split = next(j for j, s in enumerate(sizes) if s >= 3)
        q = sizes[split] - 2

        def corner(rest):
            return bumped.id_of(
                0 if i == split else q if i == split + 1 else rest(s)
                for i, s in enumerate(bumped.factor_sizes)
            )

        ideal_part = set(lat.interval(lat.bottom, corner(lambda s: s - 1)))
        filter_part = set(lat.interval(corner(lambda s: 0), lat.top))
        assert set(mapping.values()) == ideal_part | filter_part, sizes


def test_make_grid_interns_while_held():
    first = make_grid((6, 5, 2))
    assert make_grid([6, 5, 2]) is first
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is None
    assert make_grid((6, 5, 2)).factor_sizes == (6, 5, 2)


@pytest.mark.parametrize("sizes", [(2, 2), (3, 3), (4,), (2, 2, 2)])
def test_grid_embed_of_a_grid_leaves_no_cycle(sizes):
    grid = make_grid(sizes)
    for _ in range(2):
        assert grid_embed(grid.lattice).target is grid
    ref = weakref.ref(grid)
    gc.disable()
    try:
        del grid
        assert ref() is None
    finally:
        gc.enable()
    assert grid_embed(make_grid(sizes).lattice).target.factor_sizes == sizes


@pytest.mark.parametrize("sizes", [(4,), (3, 3), (2, 2, 2)])
def test_grid_embed_adopts_an_input_that_is_the_grid_presentation(sizes):
    """An input with the grid's own elements and covers is the target's
    lattice, whether or not a grid of that shape is live, and its memo
    keeps no grid: the adopted grid goes with its last holder."""
    live = make_grid(sizes)
    copy = build_lattice(live.lattice.elements, live.lattice.covers)
    for _ in range(2):
        target = grid_embed(copy).target
        assert target.lattice is copy and target.factor_sizes == sizes
    assert make_grid(sizes) is live
    del live
    gc.collect()
    target = grid_embed(copy).target
    assert target.lattice is copy and make_grid(sizes) is target
    ref = weakref.ref(target)
    gc.disable()
    try:
        del target
        assert ref() is None
    finally:
        gc.enable()
    relabelled = build_lattice(
        [f"x{x}" for x in copy.elements], [(f"x{a}", f"x{b}") for a, b in copy.covers]
    )
    assert grid_embed(relabelled).target.lattice == copy


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((1, 3), "factor sizes (1, 3) include a trivial chain"),
        ([3, 0], "factor sizes (3, 0) include a trivial chain"),
        ((), "a grid needs at least one factor"),
    ],
)
def test_make_grid_keeps_invalid_size_errors(sizes, message):
    for _ in range(2):
        with pytest.raises(TrivialFactor) as info:
            make_grid(sizes)
        assert str(info.value) == message


@pytest.mark.parametrize("sizes, bad", [((2.5, 3), "2.5"), ((3, 2.0), "2.0"), (("3", 2), "'3'")])
def test_make_grid_refuses_a_non_integral_size_before_building_ids(monkeypatch, sizes, bad):
    """`int()` would have read 2.5 as 2 and built the 2x3 grid."""
    built = []
    real = grids._coord_id
    monkeypatch.setattr(grids, "_coord_id", lambda coords: built.append(coords) or real(coords))
    held = make_grid((3, 2))  # (3, 2.0) == (3, 2), so the live 3x2 grid must not answer it
    built.clear()
    with pytest.raises(LatticeError) as info:
        make_grid(sizes)
    assert str(info.value) == f"grid factor size {bad} is not an integer"
    assert built == [] and held.factor_sizes == (3, 2)


def test_make_grid_refuses_an_oversized_shape_before_building_ids(monkeypatch):
    built = []
    real = grids._coord_id
    monkeypatch.setattr(grids, "_coord_id", lambda coords: built.append(coords) or real(coords))
    with pytest.raises(LatticeError) as info:
        make_grid((400, 400))
    assert str(info.value) == "160000 elements exceed the limit of 1024"
    assert built == []


def test_dimension_bump_gives_fresh_mappings_into_the_interned_grid(monkeypatch):
    """Each call certifies and returns a map of its own; while the bumped
    grid is held, every call bumps into that one interned grid."""
    certified = []
    real = grids._cover01_embedding
    monkeypatch.setattr(grids, "_cover01_embedding", lambda *args: certified.append(args) or real(*args))
    grid = Grid((4, 3))
    bumped, first = dimension_bump(grid)
    first["0,0"] = "mutated"
    again, second = dimension_bump(grid)
    assert again is bumped
    assert second is not first and second["0,0"] == "0,0,0"
    assert second == dimension_bump(grid)[1]
    assert len(certified) == 3
    assert bumped.lattice == Grid((2, 3, 3)).lattice
    for _ in range(2):
        with pytest.raises(BooleanInput, match="every factor is a two-element chain"):
            dimension_bump(make_grid((2, 2)))
    assert len(certified) == 3


def _grid_sizes_of(lattice):
    """Factor sizes read back from a grid lattice's coordinate ids."""
    coords = [tuple(map(int, x.split(","))) for x in lattice.elements]
    return tuple(max(axis) + 1 for axis in zip(*coords))


def test_classify_witnesses_are_the_shared_grids():
    # the classes of the retract-sweep benchmark workload
    classes = [ClassId.dfin(1), ClassId.dfin(2), ClassId.dfin(3), ClassId.dfin(None)]
    witnesses = 0
    for lattice in enumerate_distributive_lattices(8):
        for cls in classes:
            try:
                verdict = classify_absolute_retract(lattice, cls)
            except NotInClass:
                continue
            if verdict.is_absolute_retract:
                continue
            sizes = _grid_sizes_of(verdict.witness)
            assert verdict.witness == Grid(sizes).lattice
            assert verdict.witness is make_grid(sizes).lattice
            witnesses += 1
    assert witnesses == 94
