import dataclasses
import gc
import random
import weakref
from collections import Counter
from itertools import combinations, product

import pytest

from finlat import (
    ClassId,
    Congruence,
    Cover01Report,
    Homomorphism,
    LatticeError,
    NotEligible,
    NotInClass,
    all_sublattices,
    build_lattice,
    check_cover01,
    check_sublattice,
    classify_absolute_retract,
    dimension_bump,
    enumerate_distributive_lattices,
    enumerate_small_lattices,
    grid_embed,
    grid_factor_sizes,
    induced_lattice,
    is_boolean,
    is_distributive,
    is_isomorphic,
    is_semimodular,
    is_slim,
    join_irreducibles,
    lattice_length,
    make_grid,
    recover_subgrid_chains,
    retract_onto,
    search_retraction,
)
import finlat.chains as chains
import finlat.core as core
import finlat.grids as grids
import finlat.morphisms as morphisms
import finlat.retractions as retractions
from finlat.chains import NotDistributive
from finlat.core import NotASublattice, _sublattice_mask
from finlat.retractions import (
    NotSemimodular,
    _check_membership,
    _prime_map,
    _upper_map,
)
from tests.conftest import REFERENCE_GRID_SIZES, _leaves_no_cycles


def test_homomorphism_verifies_pairs(c3, b2):
    with pytest.raises(retractions.NotAHomomorphism):
        Homomorphism(b2, b2, {x: b2.bottom if x != b2.top else b2.top for x in b2.elements})


def test_is_retraction_needs_a_sublattice_target(b2):
    # The atoms of B2 fixed by the first projection: a homomorphism onto a
    # chain whose order the source does not induce, since the atoms' join
    # and meet fall outside it.
    atoms = build_lattice(["0,1", "1,0"], [("0,1", "1,0")])
    mapping = {"0,0": "0,1", "0,1": "0,1", "1,0": "1,0", "1,1": "1,0"}
    hom = Homomorphism(b2, atoms, mapping)
    assert hom.fixes(atoms.elements)
    assert not hom.is_retraction()
    edge = induced_lattice(b2, {"0,0", "1,0"})
    assert Homomorphism(b2, edge, {x: "0,0" if x[0] == "0" else "1,0" for x in b2}).is_retraction()


def test_congruence_rejects_incompatible(b2):
    with pytest.raises(retractions.NotACongruence):
        Congruence(b2, (frozenset({"0,0", "1,1"}), frozenset({"0,1", "1,0"})))


def test_check_cover01_identity(b2):
    hom = Homomorphism(b2, b2, {x: x for x in b2.elements})
    report = check_cover01(hom)
    assert report.is_cover01 and report.is_embedding and report.lengths_equal
    assert [Cover01Report(*flags).all_hold for flags in product((True, False), repeat=3)] == [
        True, False, False, False, False, False, False, False
    ]


def test_check_cover01_c3_into_b2(c3, b2):
    mapping = {"0": "0,0", "a": "1,0", "1": "1,1"}
    report = check_cover01(Homomorphism(c3, b2, mapping))
    assert report.is_cover01


def test_check_cover01_c2_into_c3(c2, c3):
    report = check_cover01(Homomorphism(c2, c3, {"0": "0", "1": "1"}))
    assert not report.is_cover01
    assert report.is_embedding and not report.lengths_equal
    assert not report.all_hold


def test_check_cover01_rejects_nonsemimodular(c2):
    from finlat import checks

    n5 = build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("0", "b"), ("c", "1"), ("b", "1")],
    )
    hom = Homomorphism(c2, n5, {"0": "0", "1": "1"})
    with pytest.raises(NotSemimodular):
        check_cover01(hom)
    with pytest.raises(NotSemimodular):
        checks.cover01([c2, n5])


# -- chain, grid and boolean targets of `retract_onto`, each in a class it qualifies for


def _mapping(lattice, g, mask):
    """An index map onto the sublattice on a mask, read as ids."""
    return Homomorphism._onto_sublattice(lattice, g, mask).mapping


def test_chain_retraction_c4(c4):
    mask = _sublattice_mask(c4, {"a", "1"})
    upper = _mapping(c4, _upper_map(c4, mask), mask)
    assert upper == {"0": "a", "a": "a", "b": "1", "1": "1"}
    # a two-element target is boolean, so `retract_onto` takes the prime map:
    # the least prime below 1 and not below a is 1 itself, so b joins a
    hom = retract_onto(c4, {"a", "1"}, ClassId.dfin(1))
    assert hom.mapping == {"0": "a", "a": "a", "b": "a", "1": "1"}
    assert hom.mapping == _mapping(c4, _prime_map(c4, mask), mask)
    # both are idempotent and fix the subchain
    for mapping in (upper, hom.mapping):
        for x in c4.elements:
            assert mapping[mapping[x]] == mapping[x]


def test_chain_retraction_identity(c4):
    hom = retract_onto(c4, c4.elements, ClassId.dfin(1))
    assert all(hom.mapping[x] == x for x in c4.elements)


def test_chain_retraction_singleton(c4):
    hom = retract_onto(c4, {"0"}, ClassId.dfin(1))
    assert set(hom.mapping.values()) == {"0"}


def test_chain_retraction_errors(c3, b2):
    with pytest.raises(NotInClass):
        retract_onto(b2, {"0,0"}, ClassId.dfin(1))  # dimension 2 > 1
    for subset in (set(), {"x"}):
        with pytest.raises(NotASublattice):
            retract_onto(c3, subset, ClassId.dfin(1))


def test_grid_retraction_c3xc3(grid33):
    target = {f"{i},{j}" for i in (0, 2) for j in (0, 1, 2)}
    hom = retract_onto(grid33.lattice, target, ClassId.dfin(2))
    for j in range(3):
        assert hom.mapping[f"1,{j}"] == f"2,{j}"
    for x in target:
        assert hom.mapping[x] == x
    # kernel of the retraction restricts to the diagonal
    assert hom.kernel().is_diagonal_on(target)


def test_grid_retraction_identity(grid33):
    hom = retract_onto(grid33.lattice, grid33.lattice.elements, ClassId.dfin(2))
    assert all(hom.mapping[x] == x for x in grid33.lattice.elements)


def test_boolean_retraction_grid32(grid32):
    target = {"0,0", "1,0", "0,1", "1,1"}
    hom = retract_onto(grid32.lattice, target, ClassId.dfin(2))
    assert hom.mapping["2,0"] == "1,0"
    assert hom.mapping["2,1"] == "1,1"
    assert all(hom.mapping[x] == x for x in target)


def test_boolean_retraction_two_element(d5):
    hom = retract_onto(d5, {"0", "t"}, ClassId.dfin(2))
    blocks = hom.kernel().blocks
    assert len(blocks) == 2


def test_boolean_retraction_singleton(grid32):
    hom = retract_onto(grid32.lattice, {"1,0"}, ClassId.dfin(2))
    assert set(hom.mapping.values()) == {"1,0"}


def test_boolean_retraction_rejects_s7(s7):
    for cls in (ClassId.dfin(2), ClassId.dfin(None)):
        with pytest.raises(NotInClass):
            retract_onto(s7, {"0", "1"}, cls)  # S7 is not distributive


def test_boolean_retraction_rejects_non_boolean(grid32):
    # a 3-chain is neither boolean nor a 2-dimensional grid
    with pytest.raises(NotEligible):
        retract_onto(grid32.lattice, {"0,0", "1,0", "2,0"}, ClassId.dfin(2))


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


def test_grid_retraction_rejects_chain(grid33):
    # the diagonal chain is no grid of any other class dimension either
    for text in ("dfin:3", "dfin:omega", "dcov:2", "dcov:omega"):
        with pytest.raises(NotEligible):
            retract_onto(grid33.lattice, {"0,0", "1,1", "2,2"}, ClassId.parse(text))


def test_classid_parse_roundtrip():
    assert str(ClassId.parse("dfin:2")) == "dfin:2"
    assert str(ClassId.parse("dfin:omega")) == "dfin:omega"
    assert str(ClassId.parse("dcov:3")) == "dcov:3"
    assert ClassId.parse("dfin:omega").n is None
    with pytest.raises(LatticeError):
        ClassId.parse("dfin:0")
    with pytest.raises(LatticeError):
        ClassId.parse("nonsense:1")
    with pytest.raises(LatticeError):
        ClassId.parse("dall")


def test_cover01_check_names_the_pair_that_breaks_the_lemma(monkeypatch):
    """With sizes standing in for lengths, a proper inclusion is cover-{0,1}
    yet never of equal length: the check fails and names the pair."""
    from finlat import checks

    # every member but the top has an upper cover within the mask
    monkeypatch.setattr(core, "_length_on", lambda lattice, ucov: sum(map(bool, ucov)) + 1)
    [result] = checks.cover01(enumerate_small_lattices(5, filters=("semimodular",)))
    assert not result.passed
    assert "first failure: sublattice ['0', '2', '3'] of the 4-element lattice" in result.detail


def test_embedding_check_fails_on_a_map_with_two_images_swapped(monkeypatch):
    """The embedding check reads the map's image on the grid, not
    `grid_embed`'s own certificate: swapping the images of the bottom and
    the top keeps the image set, yet the check fails and names the lattice."""
    from finlat import checks

    real = checks.chains.grid_embed

    def swapped(lattice):
        emb = real(lattice)
        mapping = dict(emb.mapping)
        mapping[lattice.bottom], mapping[lattice.top] = mapping[lattice.top], mapping[lattice.bottom]
        return dataclasses.replace(emb, mapping=mapping)

    [result] = checks.embedding(4)
    assert result.passed
    monkeypatch.setattr(checks.chains, "grid_embed", swapped)
    [result] = checks.embedding(4)
    assert not result.passed
    assert result.detail == (
        "4 distributive lattices embedded, 4 failures; first failure: the 2-element lattice [0<1]"
    )


def test_cover01_and_subgrid_checks_build_no_lattice(monkeypatch):
    """Both checks read each sublattice off its closed mask: with the
    ambients and grids built beforehand, neither builds a lattice."""
    from finlat import checks

    ambients = list(enumerate_small_lattices(6, filters=("semimodular",)))
    held = [make_grid(sizes) for sizes in ((2, 2), (2, 3), (3, 3), (2, 2, 2))]
    built = []
    real = core.FiniteLattice.__init__
    monkeypatch.setattr(
        core.FiniteLattice, "__init__", lambda self, *args: built.append(args) or real(self, *args)
    )
    [cover01] = checks.cover01(ambients)
    [subgrid] = checks.subgrid([grid.factor_sizes for grid in held])
    assert cover01.passed and subgrid.passed
    assert built == []


def test_sublattice_checks_test_no_closure_again(monkeypatch):
    """The proposition, retraction-kernel and cover-{0,1} checks walk closed
    masks and pass them straight to the equation system and the retraction
    search, so with every input built beforehand no subset is tested for
    closure."""
    from finlat import checks

    ambients = list(enumerate_small_lattices(6, filters=("semimodular",)))
    calls = []
    real = core._closed_mask
    monkeypatch.setattr(
        core, "_closed_mask", lambda *args: calls.append(args) or real(*args)
    )
    results = checks.proposition(5) + checks.retraction_kernels(5) + checks.cover01(ambients)
    assert all(result.passed for result in results)
    assert calls == []


def test_negative_verdicts_bump_or_keep_the_dimension():
    """The grid target of a distributive lattice is boolean only when the
    lattice is, and boolean lattices are positive, so every refutation is a
    dimension bump or a same-dimension grid."""
    classes = [ClassId.parse(c) for c in ("dfin:1", "dfin:2", "dfin:3", "dfin:omega", "dcov:2")]
    cases = set()
    for lattice in enumerate_distributive_lattices(12):
        if len(lattice) >= 2:
            assert is_boolean(grid_embed(lattice).target.lattice) == is_boolean(lattice)
        for cls in classes:
            try:
                verdict = classify_absolute_retract(lattice, cls)
            except NotInClass:
                continue
            if not verdict.is_absolute_retract:
                cases.add(verdict.case)
    assert cases == {"dimension-bump", "same-dimension"}


def _reference_bump(grid):
    """The bump rule written out: the first factor of size s >= 3 splits
    into a two-element chain and one of s - 1, at its coatom q = s - 2."""
    split = next(j for j, s in enumerate(grid.factor_sizes) if s >= 3)
    q = grid.factor_sizes[split] - 2
    mapping = {}
    for x in grid.lattice.elements:
        c = grid.coords(x)
        head = (0, c[split]) if c[split] <= q else (1, q)
        mapping[x] = ",".join(map(str, c[:split] + head + c[split + 1 :]))
    sizes = grid.factor_sizes
    return sizes[:split] + (2, sizes[split] - 1) + sizes[split + 1 :], mapping


def test_bump_witness_is_the_embedding_followed_by_the_bump():
    """The witness composed on coordinates is the grid embedding followed
    by `dimension_bump` of its target: the same grid, the same map."""
    lattices = [lat for lat in enumerate_distributive_lattices(10) if not is_boolean(lat)]
    c40 = [f"c{i:02d}" for i in range(40)]
    lattices.append(build_lattice(c40, list(zip(c40, c40[1:]))))
    g3333 = make_grid((3, 3, 3, 3)).lattice
    lattices.append(build_lattice(g3333.elements, g3333.covers))  # its own memo
    assert len(lattices) == 107  # 105 with at most 10 elements, C40 and 3x3x3x3
    for lattice in lattices:
        emb = grid_embed(lattice)
        bumped, bump_map = dimension_bump(emb.target)
        assert (bumped.factor_sizes, bump_map) == _reference_bump(emb.target)
        verdict = classify_absolute_retract(lattice, ClassId.dfin(None))
        assert verdict.case == "dimension-bump"
        assert verdict.witness == bumped.lattice
        assert verdict.embedding == {x: bump_map[v] for x, v in emb.mapping.items()}
        assert verdict.certificate.proper and verdict.certificate.cover01.all_hold


def test_bump_witness_builds_and_checks_only_the_final_map(monkeypatch, c5):
    """Classify neither embeds the lattice in its grid nor bumps a grid, and
    builds no grid of the input's shape: it checks one extension, the final
    map, once per lattice, and the witness is memoised on the input."""
    g33 = make_grid((3, 3)).lattice
    inputs = {(5,): lambda: build_lattice(c5.elements, c5.covers),
              (3, 3): lambda: build_lattice(g33.elements, g33.covers)}
    omega = ClassId.dfin(None)
    expected = {shape: classify_absolute_retract(make(), omega) for shape, make in inputs.items()}

    def refuse(*args):
        raise AssertionError("an intermediate map was built")

    built, checked = [], []

    class RecordedGrid(grids.Grid):
        def __init__(self, sizes, *adopt):
            built.append(tuple(sizes))
            super().__init__(sizes, *adopt)

    real = retractions._cover01_embedding
    monkeypatch.setattr(retractions, "_cover01_embedding", lambda *a: checked.append(a) or real(*a))
    monkeypatch.setattr(chains, "grid_embed", refuse)
    monkeypatch.setattr(grids, "dimension_bump", refuse)
    monkeypatch.setattr(grids, "_GRIDS", weakref.WeakValueDictionary())
    monkeypatch.setattr(grids, "Grid", RecordedGrid)
    for shape, make in inputs.items():
        lattice = make()
        built.clear()
        checked.clear()
        assert classify_absolute_retract(lattice, omega) == expected[shape]
        assert shape not in built and built and len(checked) == 1
        built.clear()
        checked.clear()
        assert classify_absolute_retract(lattice, omega) == expected[shape]
        assert built == [] and checked == []


def test_same_dimension_witness_is_certified_once_per_lattice(monkeypatch):
    """Once `dfin:n` gives a same-dimension verdict, `dcov:n` on the same
    lattice reads the memoised witness: it builds no `Homomorphism`, runs no
    search, and returns the verdict of `dfin:n` but for its class."""

    def refuse(*args, **kwargs):
        raise AssertionError("the same-dimension witness was certified again")

    cases = 0
    for lattice in enumerate_distributive_lattices(10):
        for n in (1, 2, 3):
            first = _fresh(lattice)
            try:
                verdict = classify_absolute_retract(first, ClassId.parse(f"dfin:{n}"))
            except NotInClass:
                continue
            if verdict.case != "same-dimension":
                continue
            dcov = ClassId.parse(f"dcov:{n}")
            with monkeypatch.context() as m:
                m.setattr(morphisms.Homomorphism, "__init__", refuse)
                m.setattr(retractions, "search_retraction", refuse)
                again = classify_absolute_retract(first, dcov)
            assert again.class_id == dcov
            assert dataclasses.replace(again, class_id=verdict.class_id) == verdict
            assert again.embedding is not verdict.embedding
            cases += 1
    assert cases == 93


def test_classify_positive_cases(c3, b3):
    assert classify_absolute_retract(b3, ClassId.dfin(None)).is_absolute_retract
    assert classify_absolute_retract(c3, ClassId.dfin(1)).is_absolute_retract
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
    assert search_retraction(verdict.witness, image)[0] is None


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
            b = classify_absolute_retract(lat, ClassId("dcov", n)).is_absolute_retract
            assert a == b


def test_classify_rejects_wrong_class(s7, b3):
    with pytest.raises(NotInClass):
        classify_absolute_retract(s7, ClassId.dfin(2))
    with pytest.raises(NotInClass):
        classify_absolute_retract(b3, ClassId.dfin(2))  # dimension 3 > 2


def test_classify_sps_singleton():
    singleton = build_lattice(["x"], [])
    verdict = classify_absolute_retract(singleton, ClassId.parse("sps"))
    assert verdict.is_absolute_retract


def test_classify_sps_negative(c2):
    verdict = classify_absolute_retract(c2, ClassId.parse("sps"))
    assert not verdict.is_absolute_retract
    assert verdict.witness is not None
    image = set(verdict.embedding.values())
    assert search_retraction(verdict.witness, image)[0] is None


def test_retraction_composition_is_idempotent(grid33):
    target = {f"{i},{j}" for i in (0, 2) for j in (0, 2)}
    hom = retract_onto(grid33.lattice, target, ClassId.dfin(2))
    composed = {x: hom.mapping[hom.mapping[x]] for x in grid33.lattice.elements}
    assert composed == hom.mapping


def test_congruence_intersection_block_bound(grid33):
    lat = grid33.lattice
    theta1 = Homomorphism(
        lat, induced_lattice(lat, {"0,0", "2,2"}),
        {x: "0,0" if lat.leq(x, "0,2") else "2,2" for x in lat.elements},
    )
    # build two-block congruences directly and intersect
    ideals = [frozenset(lat.interval(lat.bottom, x)) for x in ("0,2", "2,0")]
    a, b = (Congruence(lat, (ideal, frozenset(lat.elements) - ideal)) for ideal in ideals)
    meet = a.intersect(b)
    assert meet.block_count() <= a.block_count() * b.block_count()


# -- the closed forms against the congruence pipelines and loops they replaced


def _reference_chain_retraction(chain, subset):
    """The former `chain_retraction`: x maps to the least member at or above
    it, found by a loop over the members, or else to the largest member."""
    if lattice_length(chain) != len(chain) - 1:
        raise LatticeError("chain retraction needs a chain")
    subset = set(subset)
    if not subset:
        raise LatticeError("cannot retract onto the empty set")
    for e in subset:
        if e not in chain:
            raise LatticeError(f"{e!r} is not an element of the chain")
    members = sorted(subset, key=lambda e: chain._down[chain.index(e)].bit_count())
    mapping = {}
    for x in chain.elements:
        img = members[-1]
        for e in members:
            if chain.leq(x, e):
                img = e
                break
        mapping[x] = img
    return Homomorphism(chain, induced_lattice(chain, subset), mapping)


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
        g = _reference_chain_retraction(axis_lat, target_chain)
        top = grid.canonical_chains[axis][-1]
        pi = {x: grid.lattice.meet(x, top) for x in grid.lattice.elements}
        # each projection is a homomorphism onto its axis chain
        projection = Homomorphism(grid.lattice, axis_lat, pi)
        assert set(projection.mapping.values()) == set(axis_lat.elements)
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
        raise LatticeError("subset is not a sublattice")
    sub = induced_lattice(lattice, subset)
    if not is_boolean(sub):
        raise LatticeError("subset is not a boolean sublattice")

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
    """`_upper_map` on every sublattice the grid reference retracts onto, and
    `_prime_map` on every one the boolean reference retracts onto."""
    counts = Counter()

    def compare(name, reference, arg, lattice, subset):
        try:
            expected = reference(arg, subset)
        except LatticeError:
            return
        mask = _sublattice_mask(lattice, subset)
        if name == "upper":
            got = _mapping(lattice, _upper_map(lattice, mask), mask)
        else:
            got = _mapping(lattice, _prime_map(lattice, mask), mask)
        where = (name, lattice.elements, sorted(lattice.covers), subset)
        assert list(got.items()) == list(expected.mapping.items()), where
        counts[name] += 1

    for sizes in REFERENCE_GRID_SIZES:
        grid = make_grid(sizes)
        for subset in all_sublattices(grid.lattice):
            compare("upper", _reference_grid_retraction, grid, grid.lattice, subset)
            compare("prime", _reference_boolean_retraction, grid.lattice, grid.lattice, subset)
    for lattice in enumerate_distributive_lattices(9):
        for subset in all_sublattices(lattice):
            compare("prime", _reference_boolean_retraction, lattice, lattice, subset)
    # successes only: where a reference raises there is no map to compare
    assert counts == {"upper": 203, "prime": 2712}


def _chain(n):
    ids = [f"c{i}" for i in range(n)]
    return build_lattice(ids, list(zip(ids, ids[1:])))


def test_chain_retraction_matches_member_loop_reference():
    total = 0
    for n in range(2, 11):
        chain = _chain(n)
        for k in range(1, n + 1):
            for subset in combinations(chain.elements, k):
                expected = _reference_chain_retraction(chain, subset).mapping
                mask = _sublattice_mask(chain, subset)
                got = _mapping(chain, _upper_map(chain, mask), mask)
                assert list(got.items()) == list(expected.items()), subset
                total += 1
    assert total == 2035


def _reference_retract_onto(lattice, subset, cls):
    """The former `retract_onto`: embed the ambient lattice into a grid,
    retract there by the grid or boolean construction, and pull the map
    back.  Both steps use the congruence references."""
    _check_membership(lattice, cls)
    subset = set(subset)
    if not check_sublattice(lattice, subset):
        raise NotASublattice(f"{sorted(subset)!r} is not a sublattice")
    if subset == set(lattice.elements):
        return Homomorphism(lattice, lattice, {x: x for x in lattice.elements})
    if cls.kind == "sps":
        if len(subset) != 1:
            raise NotEligible("only one-element sublattices are eligible in this class")
        d = next(iter(subset))
        return Homomorphism(
            lattice, induced_lattice(lattice, subset), {x: d for x in lattice.elements}
        )
    sub = induced_lattice(lattice, subset)
    factors = grid_factor_sizes(sub) if cls.n is not None else None
    if not (is_boolean(sub) or factors is not None and len(factors) == cls.n):
        raise NotEligible("target is neither boolean nor a grid of the class dimension")
    emb = grid_embed(lattice)
    image = {emb.mapping[d] for d in subset}
    if is_boolean(sub):
        inner = _reference_boolean_retraction(emb.target.lattice, image)
    else:
        inner = _reference_grid_retraction(emb.target, image)
    back = {v: k for k, v in emb.mapping.items()}
    mapping = {x: back[inner.mapping[emb.mapping[x]]] for x in lattice.elements}
    result = Homomorphism(lattice, sub, mapping)
    assert result.is_retraction()
    return result


def test_retract_onto_matches_grid_embedding_reference():
    """`retract_onto`, which decides on the target's mask, gives the map,
    target and refusal of the reference that builds the target, and a
    kernel equal to the validated congruence of its fibers."""
    cases = [
        (lattice, subset, ClassId.parse(text))
        for lattice in enumerate_distributive_lattices(8)
        for subset in all_sublattices(lattice)
        for text in ("dfin:1", "dfin:2", "dfin:3", "dfin:omega", "dcov:2", "sps")
    ]
    sps = ClassId.parse("sps")
    for lattice in enumerate_small_lattices(7):
        if is_slim(lattice) and is_semimodular(lattice):
            cases += [(lattice, {x}, sps) for x in lattice.elements]
            cases.append((lattice, set(lattice.elements), sps))
    counts = Counter()
    for lattice, subset, cls in cases:
        expected = _outcome(_reference_retract_onto, lattice, subset, cls)
        where = (lattice.elements, sorted(lattice.covers), sorted(subset), str(cls))
        try:
            hom = retract_onto(lattice, subset, cls)
        except LatticeError as error:
            assert (type(error), str(error)) == expected, where
            counts["error"] += 1
            continue
        assert isinstance(expected[0], list) and hom.is_retraction(), where
        fibers = {}
        for x, v in hom.mapping.items():
            fibers.setdefault(v, set()).add(x)
        assert hom.kernel().blocks == Congruence(lattice, fibers.values()).blocks, where
        got = list(hom.mapping.items()), hom.target
        if cls.kind != "sps" and 1 < len(subset) < len(lattice) and is_boolean(expected[1]):
            assert hom.mapping == _reference_boolean_retraction(lattice, subset).mapping, where
            assert hom.target == expected[1], where
            counts["boolean", got == expected] += 1
        else:
            assert got == expected, where
            counts["sps" if cls.kind == "sps" else "other"] += 1
    # ("boolean", same map as the reference): proper boolean targets with at
    # least two elements may get a different prime, hence a different map.
    assert counts == {
        "error": 17479,
        "other": 1503,
        "sps": 405,
        ("boolean", True): 2075,
        ("boolean", False): 780,
    }


def test_retract_onto_builds_no_lattice_until_the_target_is_read(monkeypatch, c4, d5, grid33):
    """With no lattice buildable, `retract_onto` still answers for boolean,
    chain, grid, whole and one-element targets; the first read of a target
    then builds one lattice."""
    lat33 = grid33.lattice
    cases = [
        (lat33, {"0,0", "1,0", "0,1", "1,1"}, ClassId.dfin(2)),
        (d5, {"0", "p", "q", "1"}, ClassId.dfin(None)),
        (c4, {"0", "a", "1"}, ClassId.dfin(1)),
        (lat33, {f"{i},{j}" for i in (0, 2) for j in (0, 1, 2)}, ClassId.dfin(2)),
        (d5, set(d5.elements), ClassId.dfin(2)),
        (c4, {"b"}, ClassId.dfin(1)),
        (c4, {"b"}, ClassId.parse("sps")),
    ]

    def refuse(*args):
        raise AssertionError("a lattice was built")

    with monkeypatch.context() as patch:
        for module in (core, morphisms, retractions):
            if hasattr(module, "_induced"):
                patch.setattr(module, "_induced", refuse)
        patch.setattr(core.FiniteLattice, "__init__", refuse)
        homs = [retract_onto(lattice, subset, cls) for lattice, subset, cls in cases]
        for hom, (lattice, subset, cls) in zip(homs, cases):
            assert hom.is_retraction() and hom.fixes(subset)
            assert set(hom.mapping.values()) == subset

    built = []
    real = core.FiniteLattice.__init__
    monkeypatch.setattr(
        core.FiniteLattice, "__init__", lambda self, *args: built.append(args) or real(self, *args)
    )
    for hom, (lattice, subset, cls) in zip(homs, cases):
        del built[:]
        target = hom.target
        assert len(built) == 1 and hom.target is target and len(built) == 1
        assert target == induced_lattice(lattice, subset)


# -- the per-lattice memos of `retract_onto` and `classify_absolute_retract`

_MEMO_CLASSES = [
    ClassId.parse(text)
    for text in (
        "dfin:1", "dfin:2", "dfin:3", "dfin:omega", "dcov:1", "dcov:2", "dcov:3", "dcov:omega",
        "sps",
    )
]


def _fresh(lattice):
    """An equal lattice with an empty memo."""
    return build_lattice(lattice.elements, lattice.covers)


def _retraction(lattice, sub, cls):
    """The retraction's id map, which fixes its target, or the refusal's type and text."""
    try:
        hom = retract_onto(lattice, sub, cls)
    except LatticeError as error:
        return type(error), str(error)
    assert hom.is_retraction()
    return list(hom.mapping.items())


def test_retract_onto_decides_eligibility_on_every_call():
    """One lattice asked for every closed mask in every class, in a shuffled
    class order per mask, answers as a copy whose memo is emptied before
    each call does: a kept map never carries one class's eligibility into
    another."""
    rng = random.Random(32)
    counts = Counter()
    for lattice in enumerate_distributive_lattices(8):
        cold = _fresh(lattice)
        for sub in all_sublattices(lattice):
            for cls in rng.sample(_MEMO_CLASSES, len(_MEMO_CLASSES)):
                got = _retraction(lattice, sub, cls)
                cold._memo.clear()
                where = (lattice.elements, sorted(lattice.covers), sorted(sub), str(cls))
                assert got == _retraction(cold, sub, cls), where
                counts[got[0].__name__ if isinstance(got, tuple) else "retraction"] += 1
    assert counts == {"retraction": 7075, "NotEligible": 19491, "NotInClass": 6581}

    # A 3x2 grid is eligible in dimension 2 and not in dimension 3, after
    # its map is kept; asked again in dimension 2, it is the same map.
    lattice = _fresh(make_grid((4, 2)).lattice)
    target = {f"{i},{j}" for i in range(3) for j in range(2)}
    first = retract_onto(lattice, target, ClassId.dfin(2))
    assert core._grid_shape(lattice, _sublattice_mask(lattice, target)) == (3, 2)
    assert _sublattice_mask(lattice, target) in lattice._memo[retract_onto]
    with pytest.raises(NotEligible, match="neither boolean nor a grid of the class dimension"):
        retract_onto(lattice, target, ClassId.dfin(3))
    again = retract_onto(lattice, target, ClassId.dfin(2))
    assert again is not first and again.mapping == first.mapping and again.is_retraction()


def _verdict_fields(lattice, cls):
    """Every field a verdict certifies, or the refusal's type and text."""
    try:
        verdict = classify_absolute_retract(lattice, cls)
    except LatticeError as error:
        return type(error), str(error)
    witness, cert = verdict.witness, verdict.certificate
    return (
        verdict.is_absolute_retract,
        verdict.case,
        witness and (witness.elements, witness.covers),
        verdict.embedding,
        cert and (cert.proper, cert.cover01, cert.oracle_confirmed),
        verdict.search_nodes,
    )


def test_warm_verdicts_equal_cold_ones():
    """Every class of every distributive lattice with at most 8 elements,
    asked twice of one lattice, gets the verdict of a fresh copy: the
    witness kept for one class is certified as if built for each."""
    counts = Counter()
    for lattice in enumerate_distributive_lattices(8):
        for _ in range(2):
            for cls in _MEMO_CLASSES:
                warm = _verdict_fields(lattice, cls)
                assert warm == _verdict_fields(_fresh(lattice), cls), (lattice.elements, str(cls))
                counts[warm[1] if isinstance(warm[0], bool) else warm[0].__name__] += 1
    # Each of the two passes: 42 positive, 140 bumps, 48 same-dimension
    # witnesses, 34 slim semimodular witnesses and one singleton.
    assert counts == {
        None: 84,
        "dimension-bump": 280,
        "same-dimension": 96,
        "sps-witness": 68,
        "singleton": 2,
        "NotInClass": 118,
    }


class _Referable(core.FiniteLattice):
    """A lattice a weak reference can point to."""

    __slots__ = ("__weakref__",)


def _fill_memos(lattice):
    """Ask every closed mask and every verdict of the lattice in every class."""
    for sub in all_sublattices(lattice):
        for cls in _MEMO_CLASSES:
            try:
                retract_onto(lattice, sub, cls)
            except LatticeError:
                pass
    for cls in _MEMO_CLASSES:
        try:
            classify_absolute_retract(lattice, cls)
        except NotInClass:
            pass


@pytest.mark.parametrize("sizes", [(4,), (3, 2), (4, 2), (2, 2, 2), pytest.param(None, id="d5")])
def test_filled_memos_leave_no_cycles_and_free_the_lattice(sizes, request):
    """The kept maps and witnesses hold no reference to their lattice: calls
    that fill the memos of a fresh lattice leave nothing to the collector,
    and the lattice goes with its last reference.  ``None`` stands for D5,
    distributive of dimension 2 but no grid, so only it keeps a
    same-dimension witness."""
    grid = make_grid(sizes).lattice if sizes else request.getfixturevalue("d5")
    assert _leaves_no_cycles(lambda: _fill_memos(_fresh(grid))) == 0
    lattice = _Referable(grid.elements, grid.covers)
    _fill_memos(lattice)
    assert lattice._memo[retract_onto]
    assert sizes == (2, 2, 2) or retractions._bump_witness.__wrapped__ in lattice._memo
    assert (retractions._same_dimension_witness.__wrapped__ in lattice._memo) == (sizes is None)
    ref = weakref.ref(lattice)
    gc.disable()
    try:
        del lattice
        assert ref() is None
    finally:
        gc.enable()
