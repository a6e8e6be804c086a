from collections import Counter
from itertools import product

import pytest

from finlat import (
    ClassId,
    Congruence,
    Homomorphism,
    LatticeError,
    NotEligible,
    NotInClass,
    all_sublattices,
    boolean_retraction,
    build_lattice,
    chain_retraction,
    check_cover01,
    check_sublattice,
    classify_absolute_retract,
    enumerate_distributive_lattices,
    exists_retraction,
    grid_retraction,
    induced_lattice,
    is_boolean,
    is_distributive,
    is_isomorphic,
    join_irreducibles,
    make_grid,
    recover_subgrid_chains,
    retract_onto,
)
import finlat.retractions as retractions
from finlat.chains import NotDistributive
from finlat.retractions import EmptySubset, NotAChain, NotBooleanSublattice, NotSemimodular
from tests.conftest import REFERENCE_GRID_SIZES


def test_homomorphism_verifies_pairs(c3, b2):
    with pytest.raises(retractions.NotAHomomorphism):
        Homomorphism(b2, b2, {x: b2.bottom if x != b2.top else b2.top for x in b2.elements})


def test_congruence_rejects_incompatible(b2):
    with pytest.raises(retractions.NotACongruence):
        Congruence(b2, (frozenset({"0,0", "1,1"}), frozenset({"0,1", "1,0"})))


def test_check_cover01_identity(b2):
    hom = Homomorphism(b2, b2, {x: x for x in b2.elements})
    report = check_cover01(hom)
    assert report.is_cover01 and report.is_embedding and report.lengths_equal


def test_check_cover01_c3_into_b2(c3, b2):
    mapping = {"0": "0,0", "a": "1,0", "1": "1,1"}
    report = check_cover01(Homomorphism(c3, b2, mapping))
    assert report.is_cover01


def test_check_cover01_c2_into_c3(c2, c3):
    report = check_cover01(Homomorphism(c2, c3, {"0": "0", "1": "1"}))
    assert not report.is_cover01
    assert report.is_embedding and not report.lengths_equal


def test_check_cover01_rejects_nonsemimodular(c2):
    n5 = build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("0", "b"), ("c", "1"), ("b", "1")],
    )
    hom = Homomorphism(c2, n5, {"0": "0", "1": "1"})
    with pytest.raises(NotSemimodular):
        check_cover01(hom)


def test_chain_retraction_c4(c4):
    hom = chain_retraction(c4, {"a", "1"})
    assert hom.mapping == {"0": "a", "a": "a", "b": "1", "1": "1"}
    # idempotent and fixing the subchain
    for x in c4.elements:
        assert hom.mapping[hom.mapping[x]] == hom.mapping[x]


def test_chain_retraction_identity(c4):
    hom = chain_retraction(c4, c4.elements)
    assert all(hom.mapping[x] == x for x in c4.elements)


def test_chain_retraction_singleton(c4):
    hom = chain_retraction(c4, {"0"})
    assert set(hom.mapping.values()) == {"0"}


def test_chain_retraction_errors(c4, b2):
    with pytest.raises(NotAChain):
        chain_retraction(b2, {"0,0"})
    with pytest.raises(EmptySubset):
        chain_retraction(c4, set())


def test_grid_retraction_c3xc3(grid33):
    target = {f"{i},{j}" for i in (0, 2) for j in (0, 1, 2)}
    hom = grid_retraction(grid33, target)
    for j in range(3):
        assert hom.mapping[f"1,{j}"] == f"2,{j}"
    for x in target:
        assert hom.mapping[x] == x
    # kernel of the retraction restricts to the diagonal
    assert hom.kernel().is_diagonal_on(target)


def test_grid_retraction_identity(grid33):
    hom = grid_retraction(grid33, grid33.lattice.elements)
    assert all(hom.mapping[x] == x for x in grid33.lattice.elements)


def test_grid_retraction_rejects_chain(grid33):
    from finlat import NotASubgrid

    with pytest.raises(NotASubgrid):
        grid_retraction(grid33, {"0,0", "1,1", "2,2"})


def test_boolean_retraction_grid32(grid32):
    target = {"0,0", "1,0", "0,1", "1,1"}
    hom = boolean_retraction(grid32.lattice, target)
    assert hom.mapping["2,0"] == "1,0"
    assert hom.mapping["2,1"] == "1,1"
    assert all(hom.mapping[x] == x for x in target)


def test_boolean_retraction_two_element(d5):
    hom = boolean_retraction(d5, {"0", "t"})
    blocks = hom.kernel().blocks
    assert len(blocks) == 2


def test_boolean_retraction_singleton(grid32):
    hom = boolean_retraction(grid32.lattice, {"1,0"})
    assert set(hom.mapping.values()) == {"1,0"}


def test_boolean_retraction_rejects_s7(s7):
    with pytest.raises(NotDistributive):
        boolean_retraction(s7, {"0", "1"})


def test_boolean_retraction_rejects_non_boolean(grid32):
    from finlat.retractions import NotBooleanSublattice

    with pytest.raises(NotBooleanSublattice):
        boolean_retraction(grid32.lattice, {"0,0", "1,0", "2,0"})


def test_retract_onto_d5_boolean_part(d5):
    hom = retract_onto(d5, {"0", "p", "q", "1"}, ClassId.dfin(2))
    assert hom.mapping["t"] == "1"
    assert hom.is_retraction()


def test_retract_onto_identity(d5):
    hom = retract_onto(d5, set(d5.elements), ClassId.dfin(2))
    assert all(hom.mapping[x] == x for x in d5.elements)


def test_retract_onto_grid_sublattice(grid32):
    target = {"0,0", "2,0", "0,1", "2,1"}
    hom = retract_onto(grid32.lattice, target, ClassId.dfin(2))
    assert hom.is_retraction()
    # independent check by exhaustive verification of the homomorphism law
    lat = grid32.lattice
    for x, y in product(lat.elements, repeat=2):
        assert hom.mapping[lat.join(x, y)] == lat.join(hom.mapping[x], hom.mapping[y])


def test_retract_onto_rejects_ineligible(grid33):
    # a 3-chain is neither boolean nor a 2-dimensional grid
    with pytest.raises(NotEligible):
        retract_onto(grid33.lattice, {"0,0", "1,1", "2,2"}, ClassId.dfin(2))


def test_classid_parse_roundtrip():
    assert str(ClassId.parse("dfin:2")) == "dfin:2"
    assert str(ClassId.parse("dfin:omega")) == "dfin:omega"
    assert str(ClassId.parse("dcov:3")) == "dcov:3"
    assert ClassId.parse("dfin:omega").n is None
    with pytest.raises(LatticeError):
        ClassId.parse("dfin:0")
    with pytest.raises(LatticeError):
        ClassId.parse("nonsense:1")


def test_classify_positive_cases(c3, b3):
    assert classify_absolute_retract(b3, ClassId.dfin(None)).is_absolute_retract
    assert classify_absolute_retract(c3, ClassId.dfin(1)).is_absolute_retract
    assert classify_absolute_retract(b3, ClassId.dall()).is_absolute_retract
    singleton = build_lattice(["x"], [])
    assert classify_absolute_retract(singleton, ClassId.dfin(2)).is_absolute_retract


def test_classify_c3_in_dimension_two(c3, b2):
    verdict = classify_absolute_retract(c3, ClassId.dfin(2))
    assert not verdict.is_absolute_retract
    assert is_isomorphic(verdict.witness, b2)
    assert verdict.certificate.proper
    assert verdict.certificate.cover01.is_cover01
    assert verdict.certificate.oracle_confirmed is True
    # independent exhaustive proof: every map of the missing atom fails
    image = {verdict.embedding[x] for x in c3.elements}
    assert exists_retraction(verdict.witness, image) is None


def test_classify_d5_same_dimension(d5, grid32):
    verdict = classify_absolute_retract(d5, ClassId.dfin(2))
    assert not verdict.is_absolute_retract
    assert verdict.case == "same-dimension"
    assert is_isomorphic(verdict.witness, grid32.lattice)
    assert verdict.certificate.oracle_confirmed is True


def test_classify_dcov_matches_dfin(c3, d5):
    from finlat import order_dimension

    for lat in (c3, d5):
        for n in (1, 2, 3):
            if order_dimension(lat) > n:
                with pytest.raises(NotInClass):
                    classify_absolute_retract(lat, ClassId.dfin(n))
                continue
            a = classify_absolute_retract(lat, ClassId.dfin(n)).is_absolute_retract
            b = classify_absolute_retract(lat, ClassId.dcov(n)).is_absolute_retract
            assert a == b


def test_classify_rejects_wrong_class(s7, b3):
    with pytest.raises(NotInClass):
        classify_absolute_retract(s7, ClassId.dfin(2))
    with pytest.raises(NotInClass):
        classify_absolute_retract(b3, ClassId.dfin(2))  # dimension 3 > 2


def test_classify_sps_singleton():
    singleton = build_lattice(["x"], [])
    verdict = classify_absolute_retract(singleton, ClassId.sps())
    assert verdict.is_absolute_retract


def test_classify_sps_negative(c2):
    verdict = classify_absolute_retract(c2, ClassId.sps())
    assert not verdict.is_absolute_retract
    assert verdict.witness is not None
    image = set(verdict.embedding.values())
    assert exists_retraction(verdict.witness, image) is None


def test_retraction_composition_is_idempotent(grid33):
    target = {f"{i},{j}" for i in (0, 2) for j in (0, 2)}
    hom = grid_retraction(grid33, target)
    composed = {x: hom.mapping[hom.mapping[x]] for x in grid33.lattice.elements}
    assert composed == hom.mapping


def test_congruence_intersection_block_bound(grid33):
    lat = grid33.lattice
    theta1 = Homomorphism(
        lat, induced_lattice(lat, {"0,0", "2,2"}),
        {x: "0,0" if lat.leq(x, "0,2") else "2,2" for x in lat.elements},
    )
    # build two-block congruences directly and intersect
    a = Congruence(lat, (frozenset(lat.down_set("0,2")), frozenset(lat.elements) - lat.down_set("0,2")))
    b = Congruence(lat, (frozenset(lat.down_set("2,0")), frozenset(lat.elements) - lat.down_set("2,0")))
    meet = a.intersect(b)
    assert meet.block_count() <= a.block_count() * b.block_count()


# -- the closed forms against the congruence pipelines they replaced


def _reference_retraction_from_congruence(lattice, subset, theta):
    """The former `_retraction_from_congruence`: x maps to the subset element in its block."""
    if theta.block_count() != len(subset):
        raise LatticeError("congruence block count does not match the sublattice")
    if not theta.is_diagonal_on(subset):
        raise LatticeError("congruence is not diagonal on the sublattice")
    rep = {}
    for d in subset:
        rep[theta.block_of(d)] = d
    if len(rep) != len(subset):
        raise LatticeError("some block misses the sublattice")
    mapping = {x: rep[theta.block_of(x)] for x in lattice.elements}
    return Homomorphism(lattice, induced_lattice(lattice, subset), mapping)


def _reference_grid_retraction(grid, subset):
    """The former `grid_retraction`: intersect the kernels of the axis
    projections composed with the chain retractions onto the subchains."""
    subset = set(subset)
    chains = recover_subgrid_chains(grid, subset)
    theta = None
    for axis, target_chain in enumerate(chains):
        axis_lat = induced_lattice(grid.lattice, grid.canonical_chains[axis])
        g = chain_retraction(axis_lat, target_chain)
        top = grid.canonical_chains[axis][-1]
        pi = {x: grid.lattice.meet(x, top) for x in grid.lattice.elements}
        # each projection is a homomorphism onto its axis chain
        assert Homomorphism(grid.lattice, axis_lat, pi).surjective
        f_axis = Homomorphism(
            grid.lattice, g.target, {x: g.mapping[pi[x]] for x in grid.lattice.elements}
        )
        kernel = f_axis.kernel()
        theta = kernel if theta is None else theta.intersect(kernel)
    return _reference_retraction_from_congruence(grid.lattice, subset, theta)


def _reference_boolean_retraction(lattice, subset):
    """The former `boolean_retraction`: intersect the two-block congruences
    of one prime ideal per step of a maximal chain of the sublattice."""
    if not is_distributive(lattice):
        raise NotDistributive("boolean retraction needs a distributive ambient lattice")
    subset = set(subset)
    if not check_sublattice(lattice, subset):
        raise NotBooleanSublattice("subset is not a sublattice")
    sub = induced_lattice(lattice, subset)
    if not is_boolean(sub):
        raise NotBooleanSublattice("subset is not a boolean sublattice")

    sub_atoms = sorted(sub.upper_covers(sub.bottom))
    chain = [sub.bottom]
    for a in sub_atoms:
        chain.append(sub.join(chain[-1], a))

    ji = join_irreducibles(lattice)
    theta = Congruence(lattice, (frozenset(lattice.elements),))
    for lower, upper in zip(chain, chain[1:]):
        p = next(
            p for p in ji if lattice.leq(p, upper) and not lattice.leq(p, lower)
        )
        ideal = frozenset(x for x in lattice.elements if not lattice.leq(p, x))
        two_block = Congruence(
            lattice, (ideal, frozenset(lattice.elements) - ideal)
        )
        theta = theta.intersect(two_block)
    return _reference_retraction_from_congruence(lattice, subset, theta)


def _outcome(fn, *args):
    """The mapping items in order and the target, or the error type and message."""
    try:
        hom = fn(*args)
    except LatticeError as error:
        return type(error), str(error)
    return list(hom.mapping.items()), hom.target


def test_grid_and_boolean_retractions_match_congruence_references():
    counts = Counter()
    for sizes in REFERENCE_GRID_SIZES:
        grid = make_grid(sizes)
        for subset in all_sublattices(grid.lattice):
            for fn, reference, arg in (
                (grid_retraction, _reference_grid_retraction, grid),
                (boolean_retraction, _reference_boolean_retraction, grid.lattice),
            ):
                expected = _outcome(reference, arg, subset)
                assert _outcome(fn, arg, subset) == expected, (fn.__name__, sizes, subset)
                counts[fn.__name__, isinstance(expected[0], list)] += 1
    for lattice in enumerate_distributive_lattices(9):
        for subset in all_sublattices(lattice):
            expected = _outcome(_reference_boolean_retraction, lattice, subset)
            assert _outcome(boolean_retraction, lattice, subset) == expected, (
                lattice.elements, sorted(lattice.covers), subset
            )
            counts["boolean_retraction", isinstance(expected[0], list)] += 1
    # (name, succeeded): both closed forms are compared on successes and errors
    assert counts == {
        ("grid_retraction", True): 203,
        ("grid_retraction", False): 3825,
        ("boolean_retraction", True): 2712,
        ("boolean_retraction", False): 13044,
    }
