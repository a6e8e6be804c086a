import pytest

from finlat import chains
from finlat import (
    ChainDecomposition,
    EmptyChainProduced,
    NotDistributive,
    TrivialLattice,
    build_lattice,
    disjointify_chains,
    enumerate_small_lattices,
    grid_embed,
    is_distributive,
    join_irreducibles,
    lattice_length,
    min_chain_cover,
    order_dimension,
)


def antichain_poset():
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


def test_min_cover_antichain():
    lat = antichain_poset()
    cover = min_chain_cover(lat, {"a", "b", "c"})
    assert len(cover.chains) == 3
    assert all(len(c) == 1 for c in cover.chains)
    assert len(cover.antichain) == 3


def test_min_cover_chain(c5):
    cover = min_chain_cover(c5, c5.elements)
    assert len(cover.chains) == 1
    assert cover.antichain is not None and len(cover.antichain) == 1


def test_min_cover_ji_of_d5(d5):
    cover = min_chain_cover(d5, join_irreducibles(d5))
    assert len(cover.chains) == 2
    assert sorted(map(len, cover.chains)) == [1, 2]
    # duality: certificate matches the chain count exactly
    assert len(cover.antichain) == 2


def test_disjointify_overlapping(d5):
    decomposition = ChainDecomposition(
        lattice=d5,
        elements=frozenset({"p", "q", "t"}),
        chains=(("p", "t"), ("q", "t")),
    )
    out = disjointify_chains(decomposition)
    assert out.chains == (("p", "t"), ("q",))


def test_disjointify_prefix_unions(d5):
    decomposition = ChainDecomposition(
        lattice=d5,
        elements=frozenset({"p", "q", "t"}),
        chains=(("q", "t"), ("p", "t")),
    )
    out = disjointify_chains(decomposition)
    for i in range(1, len(out.chains) + 1):
        before = set().union(*decomposition.chains[:i])
        after = set().union(*out.chains[:i])
        assert before == after


def test_disjointify_disjoint_input_unchanged(c5):
    decomposition = min_chain_cover(c5, {"a", "b"})
    assert disjointify_chains(decomposition).chains == decomposition.chains


def test_disjointify_duplicate_chain_errors(c3):
    decomposition = ChainDecomposition(
        lattice=c3, elements=frozenset({"a"}), chains=(("a",), ("a",))
    )
    with pytest.raises(EmptyChainProduced):
        disjointify_chains(decomposition)


def test_order_dimension(c5, b3, grid32, s7, c2):
    assert order_dimension(c5) == 1
    assert order_dimension(b3) == 3
    assert order_dimension(grid32.lattice) == 2
    assert order_dimension(c2) == 1
    with pytest.raises(NotDistributive):
        order_dimension(s7)
    with pytest.raises(TrivialLattice):
        order_dimension(build_lattice(["x"], []))


def test_grid_embed_d5(d5):
    emb = grid_embed(d5)
    assert emb.target.factor_sizes == (3, 2)
    assert emb.mapping == {
        "0": "0,0", "p": "1,0", "q": "0,1", "1": "1,1", "t": "2,1",
    }
    assert emb.coordinate_chains == (("0", "p", "t"), ("0", "q"))


def test_grid_embed_memo_is_isolated_from_callers(d5):
    first = grid_embed(d5)
    expected = dict(first.mapping)
    first.mapping["t"] = first.mapping["0"]
    first.mapping.pop("p")
    again = grid_embed(d5)
    assert again.mapping == expected
    assert again.mapping is not first.mapping
    assert again.source is d5


def test_grid_embed_validates_once_per_lattice(monkeypatch):
    calls = []
    validate = chains._validate_embedding
    monkeypatch.setattr(
        chains, "_validate_embedding", lambda *args: calls.append(args) or validate(*args)
    )
    fresh = build_lattice(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    results = [grid_embed(fresh) for _ in range(3)]
    assert len(calls) == 1
    assert all(r.mapping == results[0].mapping for r in results)
    twin = build_lattice(fresh.elements, fresh.covers)  # equal, but its own memo
    assert grid_embed(twin).mapping == results[0].mapping
    assert len(calls) == 2


def _reference_max_matching(elems, lt):
    """The former recursive `_max_matching`."""
    succs = {u: [v for v in elems if lt(u, v)] for u in elems}
    match_left = {}
    match_right = {}

    def augment(u, seen):
        for v in succs[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or augment(match_right[v], seen):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    for u in elems:
        augment(u, set())
    return match_left


def test_max_matching_matches_recursive_reference():
    count = 0
    for lat in enumerate_small_lattices(8):
        for subset in (lat.elements, join_irreducibles(lat), lat.elements[::2]):
            elems = sorted(subset)
            succs = {u: [v for v in elems if lat.lt(u, v)] for u in elems}
            got = chains._max_matching(elems, succs)
            expected = _reference_max_matching(elems, lat.lt)
            assert list(got.items()) == list(expected.items()), (lat.elements, elems)
            count += len(got)
    assert count > 1000


def test_grid_embed_grid_is_bijective(grid32):
    emb = grid_embed(grid32.lattice)
    assert sorted(emb.target.factor_sizes) == [2, 3]
    assert len(set(emb.mapping.values())) == len(grid32.lattice)
    assert len(emb.target.lattice) == len(grid32.lattice)


def test_grid_embed_rejects_s7(s7):
    with pytest.raises(NotDistributive):
        grid_embed(s7)


def test_grid_embed_invariants_over_enumeration():
    for lat in enumerate_small_lattices(8, filters=("distributive",)):
        if len(lat) < 2:
            continue
        emb = grid_embed(lat)
        dst = emb.target.lattice
        mapping = emb.mapping
        # injective, join/meet preserving, bounds, covers, equal length
        assert len(set(mapping.values())) == len(lat)
        for x in lat.elements:
            for y in lat.elements:
                assert mapping[lat.join(x, y)] == dst.join(mapping[x], mapping[y])
                assert mapping[lat.meet(x, y)] == dst.meet(mapping[x], mapping[y])
        assert mapping[lat.bottom] == dst.bottom
        assert mapping[lat.top] == dst.top
        for lo, hi in lat.covers:
            assert dst.covered_by(mapping[lo], mapping[hi])
        assert lattice_length(lat) == lattice_length(dst)
        # every element is the join of its coordinate chain entries
        for x in lat.elements:
            joinands = [
                max((e for e in chain if lat.leq(e, x)), key=lambda e: sum(
                    lat.leq(other, e) for other in chain
                ))
                for chain in emb.coordinate_chains
            ]
            assert lat.join_all(joinands) == x


def test_min_cover_duality_over_enumeration():
    for lat in enumerate_small_lattices(6):
        if not is_distributive(lat) or len(lat) < 2:
            continue
        ji = join_irreducibles(lat)
        cover = min_chain_cover(lat, ji)
        assert len(cover.antichain) == len(cover.chains)
