import random
from collections import Counter

import pytest

from finlat import (
    BooleanInput,
    Homomorphism,
    NotASubgrid,
    TrivialFactor,
    all_sublattices,
    canonical_joinands,
    check_cover01,
    check_sublattice,
    classify_properties,
    dimension_bump,
    four_cells,
    join_irreducibles,
    lattice_length,
    make_grid,
    recover_subgrid_chains,
)
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
            assert grid.lattice.join_all(joinands) == x
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


def test_dimension_bump_cover01_and_size():
    for sizes in [(3,), (4,), (3, 2), (4, 3), (3, 2, 2), (2, 3)]:
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
    # the embedded copy is the union of an ideal and a filter of the big grid
    grid = make_grid((3,))
    bumped, mapping = dimension_bump(grid)
    lat = bumped.lattice
    ideal_part = lat.down_set("0,1")
    filter_part = lat.up_set("0,1")
    image = set(mapping.values())
    assert image == ideal_part | filter_part
