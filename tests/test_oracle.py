import random
import sys
import tracemalloc
import types
from collections import namedtuple
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from finlat import (
    Assignment,
    CeilingExceeded,
    Homomorphism,
    LatticeError,
    NotASublattice,
    NotProper,
    all_sublattices,
    build_equation_system,
    build_lattice,
    check_sublattice,
    classify_properties,
    congruence_generated_by,
    enumerate_distributive_lattices,
    enumerate_small_lattices,
    find_embedding,
    induced_homomorphism,
    induced_lattice,
    is_isomorphic,
    make_grid,
    search_retraction,
    slim,
    solve_equation_system,
)
from finlat.core import _bits
from finlat.oracle import (
    _canonical_posets_upto,
    _degree_order,
    _digraph_canonical_key,
    canonical_key,
)
from tests.conftest import (
    S7_COVERS,
    S7_ELEMENTS,
    _leaves_no_cycles,
    count_retractions,
    homomorphism_fields,
    partition_meet,
)


def brute_force_retractions(lattice, sub):
    """Independent oracle: try every map of the complement, no pruning."""
    sub = sorted(sub)
    rest = [x for x in lattice.elements if x not in sub]
    found = []
    for images in product(sub, repeat=len(rest)):
        mapping = dict(zip(rest, images))
        mapping.update({x: x for x in sub})
        ok = True
        for x in lattice.elements:
            for y in lattice.elements:
                if mapping[lattice.join(x, y)] != lattice.join(mapping[x], mapping[y]):
                    ok = False
                    break
                if mapping[lattice.meet(x, y)] != lattice.meet(mapping[x], mapping[y]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(mapping)
    return found


def test_exists_retraction_chain_counts(c3):
    assert count_retractions(c3, {"0", "1"}) == 2
    assert len(brute_force_retractions(c3, {"0", "1"})) == 2


def test_exists_retraction_none_on_square(b2):
    chain = {"0,0", "1,0", "1,1"}
    assert search_retraction(b2, chain)[0] is None
    assert brute_force_retractions(b2, chain) == []


def test_exists_retraction_identity(b2):
    assert count_retractions(b2, set(b2.elements)) == 1


def test_exists_retraction_matches_brute_force_everywhere():
    for lattice in enumerate_small_lattices(5):
        for sub in all_sublattices(lattice):
            expected = len(brute_force_retractions(lattice, sub))
            assert count_retractions(lattice, sub) == expected


def test_exists_retraction_rejects_non_sublattice(b2):
    subset = ["0,1", "1,0", "0,0"]
    message = "['0,0', '0,1', '1,0'] is not a sublattice"
    for call in (
        search_retraction,
        build_equation_system,
        induced_lattice,
    ):
        with pytest.raises(NotASublattice) as info:
            call(b2, subset)
        assert type(info.value) is NotASublattice and str(info.value) == message


def test_search_retraction_returns_verified(c4):
    hom, nodes = search_retraction(c4, {"0", "1"})
    assert hom is not None and hom.is_retraction()
    assert nodes >= 1


def test_equation_system_counts(c3):
    system = build_equation_system(c3, {"0", "1"})
    reference = _reference_build_equation_system(c3, {"0", "1"})
    assert system.unknowns == ("a",)
    # the system keeps the slots, not its equations
    assert vars(system).keys() == {"ambient", "_mask", "_slot", "unknowns"}
    # 5 ordered pairs touch the single new element, 2 operations each; its
    # row gives the 3 with it on the left
    assert len(reference.codes) == 10
    read = _solver_equations(system)
    assert read == _reference_rows(reference)
    assert [len(codes) for codes in read.values()] == [6]
    assert solve_equation_system(system, mode="count") == 2


def test_equation_system_b2_over_chain(b2):
    system = build_equation_system(b2, {"0,0", "1,0", "1,1"})
    assert len(system.unknowns) == 1
    # the system pins the unknown against the off-chain atom: x ∨ p ≈ 1, x ∧ p ≈ 0;
    # parameter e is slot index(e) and unknown x is slot n + index(x)
    n = len(b2)
    x, p = n + b2.index("0,1"), b2.index("1,0")
    reference = _reference_build_equation_system(b2, {"0,0", "1,0", "1,1"})
    assert system._slot == [b2.index("0,0"), x, p, b2.index("1,1")]
    read = _solver_equations(system)
    assert read == _reference_rows(reference)
    # read off x's row as (x, p)
    codes = {(table is b2._join, left, right): result for table, left, right, result in read[x]}
    assert codes[True, x, p] == b2.index("1,1")
    assert codes[False, x, p] == b2.index("0,0")
    assert solve_equation_system(system) is None


def test_equation_identity_substitution_is_checked(b2):
    system = build_equation_system(b2, {"0,0", "1,0", "1,1"})
    codes = _reference_build_equation_system(b2, {"0,0", "1,0", "1,1"}).codes
    n = len(b2)
    assert _holds(codes, list(range(n)) * 2)
    # the unknown 0,1 sent to 0,0 breaks 0,1 ∨ 1,0 ≈ 1,1
    moved = list(range(n)) * 2
    moved[n + b2.index("0,1")] = b2.index("0,0")
    assert not _holds(codes, moved)
    # neither that nor the identity, which leaves the sublattice, is a solution
    for value in ("0,0", "0,1"):
        with pytest.raises(LatticeError, match="^assignment does not satisfy the system$"):
            induced_homomorphism(system, Assignment({"0,1": value}))


def test_equation_system_rejects_full_sublattice(c3):
    with pytest.raises(NotProper):
        build_equation_system(c3, set(c3.elements))


def test_induced_homomorphism_is_retraction(c3):
    system = build_equation_system(c3, {"0", "1"})
    assignment = solve_equation_system(system)
    hom = induced_homomorphism(system, assignment)
    assert hom.is_retraction()


def test_proposition_equivalence_small():
    """Solvability in the sublattice coincides with retraction existence."""
    for lattice in enumerate_small_lattices(5):
        for sub in all_sublattices(lattice):
            if sub == frozenset(lattice.elements):
                continue
            system = build_equation_system(lattice, sub)
            solution = solve_equation_system(system)
            retraction = search_retraction(lattice, sub)[0]
            assert (solution is None) == (retraction is None)
            if solution is not None:
                assert induced_homomorphism(system, solution).is_retraction()
            if retraction is not None:
                values = Assignment({
                    x: retraction.mapping[x] for x in system.unknowns
                })
                assert induced_homomorphism(system, values).is_retraction()


def test_congruence_generated_trivial(c3):
    theta = congruence_generated_by(c3, [])
    assert theta.block_count() == len(c3)


def test_congruence_generated_chain(c3):
    theta = congruence_generated_by(c3, [("0", "a")])
    assert theta.block_of("0") == frozenset({"0", "a"})
    assert theta.block_of("1") == frozenset({"1"})


def test_congruence_generated_s7_family():
    from finlat import inner_coatoms, s7_family

    member = s7_family(2)
    a1, a2 = inner_coatoms(member)
    theta = congruence_generated_by(member.lattice, [(a1, a2)])
    top_block = theta.block_of(member.lattice.top)
    assert {a1, a2, member.lattice.top} <= top_block


def test_kernel_of_retraction_is_diagonal(b2, grid33):
    for lattice, sub in [
        (b2, {"0,0", "1,1"}),
        (grid33.lattice, {"0,0", "2,0", "0,2", "2,2"}),
    ]:
        hom = search_retraction(lattice, sub)[0]
        assert hom is not None
        kernel = hom.kernel()
        assert kernel.is_diagonal_on(sub)


def test_all_sublattices_of_b2(b2):
    subs = list(all_sublattices(b2))
    assert len(set(subs)) == len(subs)
    # independent count: closed subsets by direct scan
    expected = 0
    elems = b2.elements
    for mask in range(1, 1 << len(elems)):
        subset = {elems[i] for i in range(len(elems)) if mask >> i & 1}
        if check_sublattice(b2, subset):
            expected += 1
    assert len(subs) == expected


def test_find_embedding_chain_into_grid(c3):
    grid = make_grid((2, 2)).lattice
    mapping = find_embedding(c3, grid)
    assert mapping is not None
    assert len(set(mapping.values())) == 3
    for x in c3.elements:
        for y in c3.elements:
            assert mapping[c3.join(x, y)] == grid.join(mapping[x], mapping[y])
            assert mapping[c3.meet(x, y)] == grid.meet(mapping[x], mapping[y])


def test_find_embedding_rejects_impossible(b3, b2):
    assert find_embedding(b3, b2) is None


def test_find_embedding_refuses_a_longer_lattice_without_search(b3, monkeypatch):
    def search(*args):
        raise AssertionError("searched for an embedding of a longer lattice")

    monkeypatch.setattr("finlat.oracle._backtrack", search)
    assert find_embedding(_chain(5), b3) is None


def test_degree_order_is_memoised_per_lattice(b3, s7):
    for lattice in (b3, s7):
        order = _degree_order(lattice)
        assert order is _degree_order(lattice)
        ids = lattice.elements
        degree = {x: len(lattice.upper_covers(x)) + len(lattice.lower_covers(x)) for x in ids}
        assert [ids[i] for i in order] == sorted(ids, key=lambda x: (-degree[x], x))


def brute_force_embedding_exists(small, big):
    for images in permutations(big.elements, len(small.elements)):
        mapping = dict(zip(small.elements, images))
        if all(
            mapping[small.join(x, y)] == big.join(mapping[x], mapping[y])
            and mapping[small.meet(x, y)] == big.meet(mapping[x], mapping[y])
            for x in small.elements
            for y in small.elements
        ):
            return True
    return False


def test_find_embedding_sound_and_complete():
    smalls = [lat for lat in enumerate_small_lattices(4)]
    bigs = [lat for lat in enumerate_small_lattices(6) if len(lat) >= 4]
    for small in smalls:
        for big in bigs:
            mapping = find_embedding(small, big)
            if mapping is None:
                assert not brute_force_embedding_exists(small, big), (small, big)
            else:
                assert len(set(mapping.values())) == len(small)
                for x in small.elements:
                    for y in small.elements:
                        assert mapping[small.join(x, y)] == big.join(
                            mapping[x], mapping[y]
                        )
                        assert mapping[small.meet(x, y)] == big.meet(
                            mapping[x], mapping[y]
                        )


def _reference_find_embedding(small, big):
    """The former recursive `find_embedding`, with the same forcing and checks."""
    order = sorted(small.elements, key=lambda x: (len(small.interval(small.bottom, x)), x))
    position = {x: i for i, x in enumerate(order)}
    forced = {}
    for x in small.elements:
        below = [y for y in small.elements if y != x and small.leq(y, x)]
        pair = next(
            ((a, b) for a in below for b in below
             if small.join(a, b) == x and position[a] < position[x] and position[b] < position[x]),
            None,
        )
        if pair is not None:
            forced[x] = pair
    mapping = {}

    def consistent(x):
        fx = mapping[x]
        for y, fy in mapping.items():
            if y != x:
                for op, big_op in ((small.join, big.join), (small.meet, big.meet)):
                    z = op(x, y)
                    if z in mapping and big_op(fx, fy) != mapping[z]:
                        return False
        return all(
            (small.join(a, b) != x or big.join(fa, fb) == fx)
            and (small.meet(a, b) != x or big.meet(fa, fb) == fx)
            for a, fa in mapping.items()
            for b, fb in mapping.items()
        )

    def solve(pos):
        if pos == len(order):
            return True
        x = order[pos]
        if x in forced:
            candidates = [big.join(mapping[forced[x][0]], mapping[forced[x][1]])]
        else:
            candidates = list(big.elements)
        for v in candidates:
            if v in mapping.values():
                continue
            mapping[x] = v
            if consistent(x) and solve(pos + 1):
                return True
            del mapping[x]
        return False

    return dict(mapping) if solve(0) else None


def _matches_reference_embedding(small, big) -> bool:
    """Asserts the same first embedding, keys in the same order; returns whether one exists."""
    got = find_embedding(small, big)
    expected = _reference_find_embedding(small, big)
    assert got == expected
    if got is None:
        return False
    assert list(got.items()) == list(expected.items())
    return True


def test_find_embedding_matches_reference(monkeypatch):
    lattices = list(enumerate_small_lattices(6))
    found = sum(
        _matches_reference_embedding(small, big) for small in lattices[:10] for big in lattices
    )
    assert 0 < found < 250

    # Every candidate find_rectangular_extension tries for the slim semimodular
    # lattices with at most 6 elements; each search stops at its first embedding.
    candidates = []

    def recording(small, big):
        candidates.append((small, big))
        return find_embedding(small, big)

    monkeypatch.setattr(slim, "find_embedding", recording)
    slims = list(enumerate_small_lattices(6, filters=("slim", "semimodular")))
    for lattice in slims:
        slim.find_rectangular_extension(lattice)
    monkeypatch.undo()
    assert len(candidates) > len(slims)
    assert sum(_matches_reference_embedding(small, big) for small, big in candidates) == len(slims)


def test_enumeration_counts():
    counts = {}
    for lattice in enumerate_small_lattices(8):
        counts[len(lattice)] = counts.get(len(lattice), 0) + 1
    assert [counts[i] for i in range(1, 9)] == [1, 1, 1, 2, 5, 15, 53, 222]


def test_enumeration_size_four_gives_five_lattices():
    assert sum(1 for _ in enumerate_small_lattices(4)) == 5


def test_enumeration_size_one_is_singleton():
    lattices = list(enumerate_small_lattices(1))
    assert len(lattices) == 1 and len(lattices[0]) == 1


def test_generation_agrees_with_independent_strategy():
    """Cross-check against a second generator over labeled cover relations."""
    from finlat.oracle import bruteforce_lattices

    by_size_a: dict[int, int] = {}
    for lattice in enumerate_small_lattices(6):
        by_size_a[len(lattice)] = by_size_a.get(len(lattice), 0) + 1
    by_size_b: dict[int, int] = {}
    for lattice in bruteforce_lattices(6):
        by_size_b[len(lattice)] = by_size_b.get(len(lattice), 0) + 1
    assert by_size_a == by_size_b


def test_enumeration_ceiling():
    with pytest.raises(CeilingExceeded):
        list(enumerate_small_lattices(9))
    # ceiling can be raised explicitly
    gen = enumerate_small_lattices(9, ceiling=9)
    next(gen)


def test_enumeration_deterministic():
    a = [tuple(l.elements) + tuple(sorted(l.covers)) for l in enumerate_small_lattices(6)]
    b = [tuple(l.elements) + tuple(sorted(l.covers)) for l in enumerate_small_lattices(6)]
    assert a == b


def test_enumeration_pairwise_nonisomorphic():
    seen = list(enumerate_small_lattices(6))
    for i, first in enumerate(seen):
        for second in seen[i + 1 :]:
            if len(first) == len(second):
                assert not is_isomorphic(first, second)


def test_enumeration_filters():
    for lattice in enumerate_small_lattices(5, filters=("distributive",)):
        report = classify_properties(lattice)
        assert report.distributive
        assert report.length == report.join_irreducible_count


def test_distributive_enumerator_matches_filtered():
    by_size_a: dict[int, int] = {}
    for lattice in enumerate_small_lattices(8, filters=("distributive",)):
        by_size_a[len(lattice)] = by_size_a.get(len(lattice), 0) + 1
    by_size_b: dict[int, int] = {}
    for lattice in enumerate_distributive_lattices(8):
        assert classify_properties(lattice).distributive
        by_size_b[len(lattice)] = by_size_b.get(len(lattice), 0) + 1
    assert by_size_a == by_size_b


def test_distributive_enumerator_reaches_ten():
    counts: dict[int, int] = {}
    for lattice in enumerate_distributive_lattices(10):
        counts[len(lattice)] = counts.get(len(lattice), 0) + 1
    assert [counts[i] for i in range(1, 11)] == [1, 1, 1, 2, 3, 5, 8, 15, 26, 47]


_SMALL = list(enumerate_small_lattices(6))


@st.composite
def lattice_with_pairs(draw):
    lattice = draw(st.sampled_from(_SMALL))
    elements = st.sampled_from(lattice.elements)
    pair1 = (draw(elements), draw(elements))
    pair2 = (draw(elements), draw(elements))
    return lattice, pair1, pair2


@given(lattice_with_pairs())
@settings(max_examples=60, deadline=None)
def test_congruence_blocks_are_convex_sublattices(case):
    # Congruence checks compatibility only; convexity is the theorem tested here.
    lattice, pair1, pair2 = case
    theta1 = congruence_generated_by(lattice, [pair1])
    theta2 = congruence_generated_by(lattice, [pair2])
    congruences = [theta1, partition_meet(theta1, theta2)]
    a, b = pair2
    interval = lattice.interval(lattice.meet(a, b), lattice.join(a, b))
    retraction = search_retraction(lattice, interval)[0]
    if retraction is not None:
        congruences.append(retraction.kernel())
    for theta in congruences:
        for block in theta.blocks:
            for x in block:
                for y in block:
                    assert lattice.join(x, y) in block
                    assert lattice.meet(x, y) in block
                    for z in lattice.interval(x, y):
                        assert z in block


def relabelled(lattice, rng):
    """A copy under a random renaming, so the sorted element order changes."""
    names = [f"x{i}" for i in range(len(lattice))]
    rng.shuffle(names)
    rename = dict(zip(lattice.elements, names))
    return build_lattice(names, [(rename[lo], rename[hi]) for lo, hi in lattice.covers])


def m_lattice(k):
    """M_k: a bottom, k pairwise incomparable atoms and a top."""
    atoms = [f"a{i}" for i in range(k)]
    return build_lattice(
        ["0", "1", *atoms], [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    )


def cycle_lattice(lengths):
    """Height 3, with the atoms and coatoms joined by disjoint even cycles.

    Every atom has two upper covers and every coatom two lower covers, so
    colour refinement alone cannot tell two such lattices apart.
    """
    covers = []
    start = 0
    for length in lengths:
        for j in range(length):
            atom, coatom = f"a{start + j}", f"c{start + j}"
            covers += [("0", atom), (coatom, "1")]
            covers += [(atom, coatom), (atom, f"c{start + (j + 1) % length}")]
        start += length
    elements = {x for cover in covers for x in cover}
    return build_lattice(sorted(elements), covers)


def test_is_isomorphic_agrees_with_canonical_key():
    rng = random.Random(2)
    lattices = list(enumerate_small_lattices(6))
    copies = [relabelled(lattice, rng) for lattice in lattices]
    for first in lattices:
        for second in lattices + copies:
            same_key = canonical_key(first) == canonical_key(second)
            assert is_isomorphic(first, second) == same_key, (first, second)


def _cover_digraph(lattice):
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(lattice.elements)
    graph.add_edges_from(lattice.covers)
    return graph


def _vf2_isomorphic(a, b):
    nx = pytest.importorskip("networkx")
    # plain VF2: VF2++ takes seconds on each non-isomorphic pair of the
    # 20-element cycle lattices, which VF2 settles in milliseconds
    return nx.is_isomorphic(_cover_digraph(a), _cover_digraph(b))


def test_is_isomorphic_agrees_with_vf2_on_relabelled_witnesses():
    pytest.importorskip("networkx")
    rng = random.Random(3)
    named = [make_grid((2,) * 4).lattice, make_grid((2,) * 5).lattice]
    named += [m_lattice(k) for k in range(5, 11)]
    named += [make_grid((3, 3, 3)).lattice, build_lattice(S7_ELEMENTS, S7_COVERS)]
    named += [cycle_lattice((3, 3, 3)), cycle_lattice((5, 4))]
    for lattice in named:
        copy = relabelled(lattice, rng)
        assert is_isomorphic(lattice, copy) is True
        assert _vf2_isomorphic(lattice, copy)


def test_is_isomorphic_agrees_with_vf2_on_lookalike_pairs():
    """Equal size and cover count, so only the search can tell them apart."""
    pytest.importorskip("networkx")
    groups: dict[tuple[int, int], list] = {}
    cycles = [cycle_lattice(lengths) for lengths in ((9,), (6, 3), (5, 4), (3, 3, 3))]
    for lattice in [*enumerate_small_lattices(7), *enumerate_distributive_lattices(12), *cycles]:
        groups.setdefault((len(lattice), len(lattice.covers)), []).append(lattice)
    pairs = 0
    for group in groups.values():
        for first, second in combinations(group, 2):
            assert is_isomorphic(first, second) == _vf2_isomorphic(first, second)
            pairs += 1
    assert pairs > 1000


def _blow_up(lattice, x, copies):
    """The lattice with x, which has one lower and one upper cover, replaced by that many twins."""
    twins = [f"{x}.{i}" for i in range(copies)]
    (low,) = [lo for lo, hi in lattice.covers if hi == x]
    (high,) = [hi for lo, hi in lattice.covers if lo == x]
    covers = [cover for cover in lattice.covers if x not in cover]
    covers += [(low, t) for t in twins] + [(t, high) for t in twins]
    return build_lattice([e for e in lattice.elements if e != x] + twins, covers)


def test_is_isomorphic_agrees_with_vf2_on_twin_blow_ups():
    """Blow-ups of one lattice at different elements share a twin quotient, so
    only the class sizes and the lifted bijection can tell them apart."""
    nx = pytest.importorskip("networkx")
    groups: dict[tuple[int, int], list] = {}
    for lattice in enumerate_small_lattices(7):
        for i, x in enumerate(lattice.elements):
            if lattice._ucov[i].bit_count() == lattice._lcov[i].bit_count() == 1:
                for copies in (2, 3):
                    blown = _blow_up(lattice, x, copies)
                    groups.setdefault((len(blown), len(blown.covers)), []).append(blown)
    pairs = isomorphic = 0
    for group in groups.values():
        graphs = [_cover_digraph(lattice) for lattice in group]
        for (first, g), (second, h) in combinations(zip(group, graphs), 2):
            same = nx.vf2pp_is_isomorphic(g, h)
            assert is_isomorphic(first, second) == same, (first.covers, second.covers)
            pairs += 1
            isomorphic += same
    assert sum(map(len, groups.values())) == 520
    assert (pairs, isomorphic) == (16560, 413)


def _reference_digraph_canonical_key(n, adj):
    """The former `_digraph_canonical_key`: tuple colours refined inline, a recursive walk."""
    radj = [0] * n
    for i in range(n):
        for j in _bits(adj[i]):
            radj[j] |= 1 << i
    color = [
        (bin(adj[i]).count("1"), bin(radj[i]).count("1")) for i in range(n)
    ]
    for _ in range(n):
        sig = []
        for i in range(n):
            out_cols = tuple(sorted(color[j] for j in _bits(adj[i])))
            in_cols = tuple(sorted(color[j] for j in _bits(radj[i])))
            sig.append((color[i], out_cols, in_cols))
        if len(set(sig)) == len(set(color)):
            color = sig
            break
        color = sig

    classes: dict[tuple, list[int]] = {}
    for i, c in enumerate(sorted(range(n), key=lambda i: (color[i], i))):
        classes.setdefault(color[c], []).append(c)
    ordered = sorted(classes.items())

    best: tuple | None = None
    perms_per_class = [list(permutations(members)) for _, members in ordered]

    def rec(class_idx: int, placement: list[int]):
        nonlocal best
        if class_idx == len(perms_per_class):
            pos = {v: i for i, v in enumerate(placement)}
            encoded = []
            for v in placement:
                row = 0
                for j in _bits(adj[v]):
                    row |= 1 << pos[j]
                encoded.append(row)
            key = tuple(encoded)
            if best is None or key < best:
                best = key
            return
        for perm in perms_per_class[class_idx]:
            rec(class_idx + 1, placement + list(perm))

    rec(0, [])
    assert best is not None
    return (n, best)


def test_digraph_canonical_key_matches_reference():
    inputs = [(len(leq), leq) for level in _canonical_posets_upto(7) for leq, _ in level]
    inputs += [
        (len(lattice), tuple(lattice._ucov))
        for lattice in [*enumerate_small_lattices(8), *enumerate_distributive_lattices(12)]
    ]
    assert len(inputs) == 3093
    for n, adj in inputs:
        assert _digraph_canonical_key(n, adj) == _reference_digraph_canonical_key(n, adj), adj


def test_digraph_canonical_key_matches_reference_on_larger_classes():
    """The named witnesses; 2x3x3 and M7 are larger than any enumerated lattice here."""
    named = [make_grid((2, 2, 3)).lattice, make_grid((2, 3, 3)).lattice, m_lattice(6), m_lattice(7)]
    for lattice in [*named, build_lattice(S7_ELEMENTS, S7_COVERS)]:
        n, adj = len(lattice), tuple(lattice._ucov)
        assert _digraph_canonical_key(n, adj) == _reference_digraph_canonical_key(n, adj), lattice


def _permuted(adj, perm):
    """The digraph with vertex v renamed perm[v]."""
    moved = [0] * len(adj)
    for v, out in enumerate(adj):
        moved[perm[v]] = _union(1 << perm[w] for w in _bits(out))
    return tuple(moved)


@pytest.mark.parametrize(
    "adj",
    [
        (21, 42, 4, 8, 16, 32),  # up-set masks of the poset 0 < 2, 4 and 1 < 3, 5
        (6, 40, 80, 128, 128, 128, 128, 0),  # covers of 0 < 1, 2; 1 < 3, 5; 2 < 4, 6; 3, 4, 5, 6 < 7
    ],
)
def test_digraph_canonical_key_tries_one_of_twins_only(adj):
    """Vertices 2 to 5 of the poset (3 to 6 of the lattice) share their colour and
    their out-neighbours, but only pairs of them share their in-neighbours too."""
    n = len(adj)
    key = _reference_digraph_canonical_key(n, adj)
    for perm in permutations(range(1, n - 1)):
        assert _digraph_canonical_key(n, _permuted(adj, (0, *perm, n - 1))) == key, perm


# canonical_key(B4), computed once by the former search over all 4!·6!·4!
# orderings of its colour classes; the reference is too slow to run on it in a test.
B4_KEY = (16, (0, 1, 1, 1, 1, 6, 10, 12, 18, 20, 24, 224, 800, 1344, 1664, 30720))


@pytest.mark.parametrize("k", [3, 50, 1000])
def test_canonical_key_of_m_k_has_its_closed_form(k):
    """The top's row comes first, then the k atoms' and the bottom's; the atoms are twins."""
    lattice = m_lattice(k)
    key = (k + 2, (0,) + (1,) * k + (((1 << k) - 1) << 1,))
    assert canonical_key(lattice) == key
    assert canonical_key(relabelled(lattice, random.Random(k))) == key


def test_canonical_key_of_b4_is_pinned_and_b5_is_reached():
    assert canonical_key(make_grid((2,) * 4).lattice) == B4_KEY
    b5 = make_grid((2,) * 5).lattice
    key = canonical_key(b5)
    assert key[0] == 32 and len(key[1]) == 32
    assert canonical_key(relabelled(b5, random.Random(5))) == key


@st.composite
def relabelled_posets(draw):
    """An up-set encoded poset on at most 8 points and a relabelling of it."""
    n = draw(st.integers(0, 8))
    down = []  # each point's down-set: itself and the down-sets of random earlier points
    for j in range(n):
        below = draw(st.integers(0, (1 << j) - 1))
        down.append(1 << j | _union(down[i] for i in _bits(below)))
    leq = tuple(_union(1 << j for j in range(n) if down[j] >> i & 1) for i in range(n))
    perm = draw(st.permutations(range(n)))
    moved = [0] * n
    for i in range(n):
        moved[perm[i]] = _union(1 << perm[j] for j in _bits(leq[i]))
    return n, leq, tuple(moved)


def _union(masks):
    total = 0
    for mask in masks:
        total |= mask
    return total


@given(relabelled_posets())
@settings(max_examples=100, deadline=None)
def test_digraph_canonical_key_is_invariant_and_matches_reference(case):
    n, leq, moved = case
    key = _digraph_canonical_key(n, leq)
    assert _digraph_canonical_key(n, moved) == key
    assert _reference_digraph_canonical_key(n, leq) == key


def test_is_isomorphic_deep_search_has_no_recursion_limit():
    """M_1000's atoms are twins, so its search runs on a three-vertex quotient."""
    lattice = m_lattice(1000)
    assert is_isomorphic(lattice, relabelled(lattice, random.Random(4)))


def petals(k):
    """0 < a_i < b_i < 1 for each of k petals: no two elements are twins."""
    covers = [c for i in range(k) for c in (("0", f"a{i}"), (f"a{i}", f"b{i}"), (f"b{i}", "1"))]
    return build_lattice(["0", "1", *(f"{x}{i}" for i in range(k) for x in "ab")], covers)


def _depth() -> int:
    """Number of frames on the stack, the caller's included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_is_isomorphic_deep_twin_free_search_has_no_recursion_limit():
    """100 twin-free petals need about a hundred nested individualisations."""
    lattice = petals(100)
    copy = relabelled(lattice, random.Random(6))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 50)
    try:
        assert is_isomorphic(lattice, copy)
    finally:
        sys.setrecursionlimit(limit)


def leq_down(leq: tuple[int, ...], i: int) -> int:
    """Mask of elements below i (inclusive) in an up-set encoded poset."""
    down = 0
    for j in range(len(leq)):
        if leq[j] >> i & 1:
            down |= 1 << j
    return down


def _downsets_by_scan(leq):
    """Reference: every subset of the poset that is closed downwards."""
    return [
        m
        for m in range(1 << len(leq))
        if all(leq_down(leq, i) & ~m == 0 for i in range(len(leq)) if m >> i & 1)
    ]


def test_downsets_match_subset_scan():
    """The down-sets each poset carries from its parent are all of its down-sets, in order."""
    for level in _canonical_posets_upto(7):
        for leq, downsets in level:
            assert downsets == _downsets_by_scan(leq)


def test_downsets_limit_cuts_off_exactly_when_count_exceeds():
    """With `max_downsets`, exactly the posets with at most that many down-sets are kept."""
    levels = list(_canonical_posets_upto(5))
    for limit in range(1, 2 ** 5 + 2):
        for full, cut in zip(levels, _canonical_posets_upto(5, max_downsets=limit)):
            assert cut == [(leq, downsets) for leq, downsets in full if len(downsets) <= limit]


# ---------------------------------------------------------------------------
# equation systems on integer slots against the former string implementation
# ---------------------------------------------------------------------------


# The reference solver's string form: each slot a parameter or an unknown.
_Term = namedtuple("_Term", "kind element")
_Equation = namedtuple("_Equation", "op left right result")


def _reference_build_equation_system(lattice, sub):
    """The former string-keyed `build_equation_system`, with each equation
    in the reference solver's string form and as the slot code
    (table, left, right, result) that the system stores: parameter e is
    slot index(e), unknown x is slot n + index(x)."""
    sub = frozenset(sub)
    n = len(lattice)

    def term(e):
        return _Term("param" if e in sub else "unknown", e)

    def slot(e):
        return lattice.index(e) if e in sub else n + lattice.index(e)

    new = tuple(x for x in lattice.elements if x not in sub)
    equations, codes = [], []
    for a in lattice.elements:
        for b in lattice.elements:
            if a in sub and b in sub:
                continue
            for op, table, value in (
                ("join", lattice._join, lattice.join(a, b)),
                ("meet", lattice._meet, lattice.meet(a, b)),
            ):
                equations.append(_Equation(op, term(a), term(b), term(value)))
                codes.append((table, slot(a), slot(b), slot(value)))
    return types.SimpleNamespace(ambient=lattice, sub=sub, unknowns=new, equations=equations, codes=codes)


def _holds(codes, val):
    """Whether every code holds when slot s takes the element index ``val[s]``."""
    return all(table[val[left]][val[right]] == val[result] for table, left, right, result in codes)


def _solver_equations(system):
    """The equations the solver reads, derived from the system's slots and
    the ambient's rows: under the slot u of the unknown at index i, for
    every k in index order, the join and then the meet code
    (table, u, slot k, slot of i op k)."""
    lattice = system.ambient
    n = len(lattice)
    slot = system._slot
    read = {}
    for i, u in enumerate(slot):
        if u >= n:
            read[u] = [
                (table, u, s, slot[table[i][k]])
                for k, s in enumerate(slot)
                for table in (lattice._join, lattice._meet)
            ]
    return read


def _reference_rows(reference):
    """The reference codes with an unknown on the left, in system order
    under that unknown.  Every code has an unknown operand and the system
    holds both orders of each pair, so each code or its mirror image, which
    the symmetric tables make the same equation, is filed."""
    lattice = reference.ambient
    n = len(lattice)
    filed = {n + lattice.index(x): [] for x in reference.unknowns}
    for code in reference.codes:
        if code[1] in filed:
            filed[code[1]].append(code)
    assert all(code[1] in filed or code[2] in filed for code in reference.codes)
    return filed


def _reference_satisfies(reference, values):
    """Whether an assignment gives every unknown, and nothing else, a
    sublattice element, and the substitution satisfies every reference code."""
    lattice = reference.ambient
    if set(values) != set(reference.unknowns) or not set(values.values()) <= reference.sub:
        return False
    n = len(lattice)
    val = list(range(n)) + [-1] * n
    for x, v in values.items():
        val[n + lattice.index(x)] = lattice.index(v)
    return _holds(reference.codes, val)


def _reference_solve_equation_system(system, mode="first"):
    """The former string-keyed recursive solver; returns the first values dict or the count."""
    lat = system.ambient
    unknowns = sorted(
        system.unknowns,
        key=lambda x: (-(len(lat.upper_covers(x)) + len(lat.lower_covers(x))), x),
    )
    values = sorted(system.sub)
    by_unknown = {x: [] for x in unknowns}
    for eq in system.equations:
        for x in {t.element for t in (eq.left, eq.right, eq.result) if t.kind == "unknown"}:
            by_unknown[x].append(eq)
    assignment = {}
    found = []

    def ev(t):
        return t.element if t.kind == "param" else assignment.get(t.element)

    def propagate(x, trail):
        queue = [x]
        while queue:
            for eq in by_unknown[queue.pop()]:
                left, right = ev(eq.left), ev(eq.right)
                if left is None or right is None:
                    continue
                value = (lat.join if eq.op == "join" else lat.meet)(left, right)
                res = ev(eq.result)
                if res is None:
                    assignment[eq.result.element] = value
                    trail.append(eq.result.element)
                    queue.append(eq.result.element)
                elif res != value:
                    return False
        return True

    def solve(pos):
        while pos < len(unknowns) and unknowns[pos] in assignment:
            pos += 1
        if pos == len(unknowns):
            found.append(dict(assignment))
            return mode == "first"
        x = unknowns[pos]
        for v in values:
            assignment[x] = v
            trail = [x]
            if propagate(x, trail) and solve(pos + 1):
                return True
            for y in trail:
                del assignment[y]
        return False

    solve(0)
    if mode == "count":
        return len(found)
    return found[0] if found else None


def test_equation_systems_match_reference():
    pairs = 0
    for lattice in enumerate_small_lattices(6):
        for sub in all_sublattices(lattice):
            if len(sub) == len(lattice):
                continue
            system = build_equation_system(lattice, sub)
            reference = _reference_build_equation_system(lattice, sub)
            assert _holds(reference.codes, list(range(len(lattice))) * 2)
            assert system.unknowns == reference.unknowns
            assert _solver_equations(system) == _reference_rows(reference)
            assert system.ambient == reference.ambient
            assert {lattice.elements[i] for i in _bits(system._mask)} == reference.sub
            solution = solve_equation_system(system)
            expected = _reference_solve_equation_system(reference)
            if expected is None:
                assert solution is None
            else:
                assert list(solution.values.items()) == list(expected.items())
            count = solve_equation_system(system, mode="count")
            assert count == _reference_solve_equation_system(reference, mode="count")
            assert count == count_retractions(lattice, sub)
            pairs += 1
    assert pairs == 767


def test_solver_rows_are_the_reference_codes_and_solutions_satisfy_them():
    """The solver reads each unknown's equations off its join and meet rows
    through the slots, with no index: for each unknown, in order, they are
    exactly the reference codes with that unknown on the left.  The solver
    does not re-check its solutions, so every one is checked against all
    reference codes, and its induced map must accept it."""
    pairs = solved = 0
    for lattice in enumerate_small_lattices(6):
        for sub in all_sublattices(lattice):
            if len(sub) == len(lattice):
                continue
            system = build_equation_system(lattice, sub)
            reference = _reference_build_equation_system(lattice, sub)
            assert list(_solver_equations(system).items()) == list(_reference_rows(reference).items())
            solution = solve_equation_system(system)
            if solution is not None:
                assert _reference_satisfies(reference, solution.values)
                assert induced_homomorphism(system, solution).is_retraction()
                solved += 1
            pairs += 1
    assert (pairs, solved) == (767, 497)


def _mutated_assignments(lattice, sub, unknowns, solution):
    """The first solution, if any, and the constant map to the least
    sublattice element, each also with its first unknown dropped, with an
    extra key on an old element, with its first unknown fixed (a value
    outside the sublattice), and with that value moved to the next
    sublattice element."""
    olds = sorted(sub, key=lattice.index)
    bases = [{x: olds[0] for x in unknowns}]
    if solution is not None:
        bases.insert(0, solution.values)
    x = unknowns[0]
    for base in bases:
        yield base
        yield {y: v for y, v in base.items() if y != x}
        yield {**base, olds[0]: olds[0]}
        yield {**base, x: x}
        yield {**base, x: olds[(olds.index(base[x]) + 1) % len(olds)]}


def test_induced_homomorphism_accepts_exactly_the_solutions():
    """`induced_homomorphism` checks an assignment once, through the map it
    induces; it must accept exactly the assignments whose substitution
    satisfies every reference code, and refuse the rest with one error."""
    tried = accepted = 0
    for lattice in enumerate_small_lattices(6):
        for sub in all_sublattices(lattice):
            if len(sub) == len(lattice):
                continue
            system = build_equation_system(lattice, sub)
            reference = _reference_build_equation_system(lattice, sub)
            solution = solve_equation_system(system)
            for values in _mutated_assignments(lattice, sub, system.unknowns, solution):
                tried += 1
                if _reference_satisfies(reference, values):
                    hom = induced_homomorphism(system, Assignment(values))
                    assert hom.is_retraction() and hom.fixes(sub)
                    assert all(hom(x) == v for x, v in values.items())
                    accepted += 1
                else:
                    with pytest.raises(
                        LatticeError, match="^assignment does not satisfy the system$"
                    ):
                        induced_homomorphism(system, Assignment(values))
    assert (tried, accepted) == (6320, 997)


def test_induced_homomorphisms_equal_the_eager_route():
    """On the 767 proper sublattice pairs of the lattices with at most 6
    elements, every assignment `induced_homomorphism` accepts gives the map
    the public constructor builds on a freshly induced target, field for
    field, and every one it refuses is refused there too."""
    pairs = accepted = 0
    for lattice in enumerate_small_lattices(6):
        for sub in all_sublattices(lattice):
            if len(sub) == len(lattice):
                continue
            pairs += 1
            system = build_equation_system(lattice, sub)
            target = induced_lattice(lattice, sub)
            solution = solve_equation_system(system)
            for values in _mutated_assignments(lattice, sub, system.unknowns, solution):
                if values.keys() != set(system.unknowns):
                    continue
                mapping = {x: values.get(x, x) for x in lattice.elements}
                try:
                    eager = Homomorphism(lattice, target, mapping)
                except LatticeError:
                    with pytest.raises(LatticeError):
                        induced_homomorphism(system, Assignment(values))
                    continue
                hom = induced_homomorphism(system, Assignment(values))
                assert hom.is_retraction() and "target" not in vars(hom)
                accepted += 1
                assert homomorphism_fields(hom) == homomorphism_fields(eager)
    assert pairs == 767 and accepted == 997


def _chain(n):
    ids = [f"c{i:04d}" for i in range(n)]
    return build_lattice(ids, list(zip(ids, ids[1:])))


def test_equation_system_memory_is_linear():
    """On a 400-element chain over its bounds, building and solving the
    system stays under 5 MB: it keeps O(n) state, where an index of the
    2n equations of each of the 398 unknowns would need tens of MB."""
    chain = _chain(400)
    ends = {chain.bottom, chain.top}
    tracemalloc.start()
    try:
        solution = solve_equation_system(build_equation_system(chain, ends))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solution is not None and set(solution.values.values()) <= ends
    assert peak < 5 << 20


def test_searches_run_under_a_low_recursion_limit():
    """A 150-element chain needs 148 nested choices; the searches keep no frames for them."""
    chain = _chain(150)
    ends = {chain.bottom, chain.top}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 60)
    try:
        solution = solve_equation_system(build_equation_system(chain, ends))
        hom, nodes = search_retraction(chain, ends)
    finally:
        sys.setrecursionlimit(limit)
    assert solution is not None and set(solution.values.values()) <= ends
    assert hom is not None and hom.is_retraction()
    assert nodes == 148


def _largest_slim_case():
    lattice = [
        lat for lat in enumerate_small_lattices(7, filters=("slim", "semimodular"))
        if len(lat) == 7
    ][-1]
    sub = next(
        sub for sub in all_sublattices(lattice)
        if 2 < len(sub) < len(lattice) and search_retraction(lattice, sub)[0] is not None
    )
    return lattice, sub


@pytest.mark.parametrize(
    "name",
    [
        "search_retraction",
        "equation_system",
        "find_embedding",
        "congruence_generated_by",
        "kernel",
        "build_witness",
        "canonical_key",
        "enumerate_distributive_lattices",
        "grid_embed",
        "order_dimension",
    ],
)
def test_certification_calls_leave_no_reference_cycles(name):
    from finlat import Homomorphism, build_witness, grid_embed, order_dimension

    lattice, sub = _largest_slim_case()
    small = induced_lattice(lattice, sub)
    mapping = search_retraction(lattice, sub)[0].mapping
    a, b = sorted(set(lattice.elements) - sub)[:1] + sorted(sub)[:1]
    b3 = make_grid((2, 2, 2)).lattice
    calls = {
        "search_retraction": lambda: search_retraction(lattice, sub),
        "equation_system": lambda: solve_equation_system(build_equation_system(lattice, sub)),
        "find_embedding": lambda: find_embedding(small, lattice),
        "congruence_generated_by": lambda: congruence_generated_by(lattice, [(a, b)]),
        "kernel": lambda: Homomorphism(lattice, small, mapping).kernel(),
        "build_witness": lambda: build_witness(lattice),
        "canonical_key": lambda: canonical_key(b3),
        "enumerate_distributive_lattices": lambda: list(enumerate_distributive_lattices(8)),
        # b3 is fresh, so these compute and memoise inside the measured call
        "grid_embed": lambda: grid_embed(b3),
        "order_dimension": lambda: order_dimension(b3),
    }
    assert _leaves_no_cycles(calls[name]) == 0
