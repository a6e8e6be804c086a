from functools import reduce
from itertools import chain, combinations

import pytest

from finlat import chains, oracle
from finlat import (
    LatticeError,
    NotDistributive,
    TrivialLattice,
    build_lattice,
    enumerate_distributive_lattices,
    enumerate_small_lattices,
    grid_embed,
    is_distributive,
    join_irreducibles,
    lattice_length,
    make_grid,
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


def test_grid_embed_validates_once_per_call(monkeypatch):
    """`grid_embed` keeps no memo: each call certifies its own map once, and
    the calls return equal mappings that are each their own dict."""
    calls = []
    real = chains._cover01_embedding
    monkeypatch.setattr(chains, "_cover01_embedding", lambda *args: calls.append(args) or real(*args))
    fresh = build_lattice(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    results = [grid_embed(fresh) for _ in range(3)]
    assert len(calls) == 3
    assert all(r.mapping == results[0].mapping for r in results)
    assert len({id(r.mapping) for r in results}) == 3
    twin = build_lattice(fresh.elements, fresh.covers)  # equal, but its own memo
    assert grid_embed(twin).mapping == results[0].mapping
    assert len(calls) == 4


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
            succs = {u: [v for v in elems if u != v and lat.leq(u, v)] for u in elems}
            got = chains._max_matching(elems, succs.__getitem__)
            expected = _reference_max_matching(elems, lambda u, v: u != v and lat.leq(u, v))
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
            assert reduce(lat.join, joinands, lat.bottom) == x


def test_min_cover_duality_over_enumeration():
    for lat in enumerate_small_lattices(6):
        if not is_distributive(lat) or len(lat) < 2:
            continue
        ji = join_irreducibles(lat)
        cover = min_chain_cover(lat, ji)
        assert len(cover.antichain) == len(cover.chains)


def _brute_force_width(up, n):
    """Size of a largest antichain, by scanning subsets from the largest down."""
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if all(not up[i] >> j & 1 and not up[j] >> i & 1 for i, j in combinations(subset, 2)):
                return size
    return 0


def test_chain_cover_on_bare_posets_matches_brute_force_width():
    """The index cover runs on up-set masks alone: every poset with at most
    7 points gets as many chains as its width, the chains partition it, and
    the antichain certificate has one member per chain."""
    posets = 0
    for poset, _ in chain.from_iterable(oracle._canonical_posets_upto(7)):
        n = len(poset)
        if not n:
            continue
        posets += 1
        covers, antichain = chains._chain_cover(poset, (1 << n) - 1)
        assert len(covers) == _brute_force_width(poset, n) == len(antichain), poset
        assert sorted(chain.from_iterable(covers)) == list(range(n)), poset
        assert [min(c) for c in covers] == sorted(min(c) for c in covers)
        for c in covers:
            assert all(a != b and poset[a] >> b & 1 for a, b in zip(c, c[1:])), poset
        for a, b in combinations(antichain, 2):
            assert not poset[a] >> b & 1 and not poset[b] >> a & 1, poset
    assert posets == 1 + 2 + 5 + 16 + 63 + 318 + 2045  # OEIS A000112


def _reference_min_chain_cover(lattice, subset):
    """The former id-keyed cover: matching on string ids under the strict order."""
    elems = sorted(subset)
    succs = {u: [v for v in elems if u != v and lattice.leq(u, v)] for u in elems}
    match_left = chains._max_matching(elems, succs.__getitem__)
    match_right = {v: u for u, v in match_left.items()}
    covers = []
    for start in elems:
        if start in match_right:
            continue
        c = [start]
        while c[-1] in match_left:
            c.append(match_left[c[-1]])
        covers.append(tuple(c))
    return sorted(covers, key=min)


def _reference_disjointify(covers):
    """The former `disjointify_chains`: E_i = C_i minus C_1, ..., C_{i-1}."""
    seen, out = set(), []
    for i, c in enumerate(covers):
        trimmed = tuple(x for x in c if x not in seen)
        if not trimmed:
            raise LatticeError(f"chain {i + 1} became empty")
        seen.update(c)
        out.append(trimmed)
    return out


def _reference_grid_embedding(lattice):
    """The former string route: cover, disjointify, then the id mapping."""
    cover = _reference_min_chain_cover(lattice, join_irreducibles(lattice))
    disjoint = _reference_disjointify(cover)
    e_plus = tuple((lattice.bottom,) + c for c in disjoint)
    target = make_grid(tuple(len(c) for c in e_plus))
    mapping = {
        x: target.id_of([max(k for k, e in enumerate(c) if lattice.leq(e, x)) for c in e_plus])
        for x in lattice.elements
    }
    return target.factor_sizes, e_plus, mapping


def test_grid_embed_matches_former_string_route():
    """On every distributive lattice with at most 14 elements the index route
    gives the same grid, coordinate chains and mapping as the string route,
    and the coordinate chains keep what disjointification promised: they
    are pairwise disjoint apart from the bottom, and each prefix covers what
    the same prefix of the minimum chain cover covers."""
    count = 0
    for lattice in enumerate_distributive_lattices(14):
        if len(lattice) < 2:
            continue
        count += 1
        emb = grid_embed(lattice)
        sizes, e_plus, mapping = _reference_grid_embedding(lattice)
        assert emb.target.factor_sizes == sizes
        assert emb.coordinate_chains == e_plus
        assert emb.mapping == mapping
        bottom = lattice.bottom
        members = [x for c in emb.coordinate_chains for x in c if x != bottom]
        assert len(members) == len(set(members))
        assert all(c[0] == bottom for c in emb.coordinate_chains)
        cover = min_chain_cover(lattice, join_irreducibles(lattice)).chains
        for i in range(1, len(cover) + 1):
            before = set().union(*cover[:i])
            after = set().union(*emb.coordinate_chains[:i]) - {bottom}
            assert before == after
    assert count == 1105 - 1
