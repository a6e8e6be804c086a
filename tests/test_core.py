import random
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from finlat import (
    MAX_ELEMENTS,
    Cell,
    CycleDetected,
    Homomorphism,
    LatticeError,
    NonReducedCovers,
    NotALattice,
    NotASublattice,
    add_fork,
    all_sublattices,
    build_lattice,
    check_cover01,
    check_sublattice,
    classify_properties,
    enumerate_distributive_lattices,
    enumerate_small_lattices,
    four_cells,
    grid_factor_sizes,
    induced_lattice,
    is_boolean,
    is_distributive,
    is_semimodular,
    is_slim,
    join_irreducibles,
    lattice_length,
    make_grid,
    oriented_grid,
    s7_family,
)
from finlat.checks import _inclusion_flags
from finlat.core import (
    _bits,
    _covers_within,
    _grid_shape,
    _length_on,
    _semimodular_on,
    _sub_jmask,
    _sublattice_mask,
)


def test_build_chain(c3):
    assert c3.bottom == "0"
    assert c3.top == "1"
    assert c3.join("0", "a") == "a"
    assert c3.meet("a", "1") == "a"


def test_build_rejects_two_maximal_elements():
    with pytest.raises(NotALattice) as info:
        build_lattice(["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert info.value.pair == ("a", "b")


def test_build_rejects_cycles():
    with pytest.raises(CycleDetected):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


def test_build_rejects_transitive_cover():
    with pytest.raises(NonReducedCovers):
        build_lattice(["0", "a", "1"], [("0", "a"), ("a", "1"), ("0", "1")])


def test_build_rejects_unknown_endpoint():
    with pytest.raises(Exception):
        build_lattice(["0", "1"], [("0", "x")])


def test_build_canonical_s7(s7):
    assert len(s7) == 7
    assert s7.bottom == "0"
    assert s7.top == "1"


def test_join_irreducibles_cube(b3):
    # atoms of the cube, independently: elements covering the bottom
    atoms = {x for x in b3.elements if b3.lower_covers(x) == (b3.bottom,)}
    assert set(join_irreducibles(b3)) == atoms
    assert len(atoms) == 3


def test_join_irreducibles_chain(c5):
    assert join_irreducibles(c5) == ("1", "a", "b", "c")


def test_join_irreducibles_s7(s7):
    # independent oracle: count lower covers off the raw cover list
    lower = {x: [lo for lo, hi in s7.covers if hi == x] for x in s7.elements}
    expected = {x for x in s7.elements if x != "0" and len(lower[x]) == 1}
    assert expected == {"u", "v", "l", "r"}
    assert set(join_irreducibles(s7)) == expected


def test_classify_s7(s7):
    report = classify_properties(s7)
    assert report.semimodular
    assert report.slim
    assert not report.distributive
    assert report.length == 3
    assert report.join_irreducible_count == 4


def test_classify_cube(b3):
    report = classify_properties(b3)
    assert report.distributive
    assert report.boolean
    assert not report.slim
    assert report.length == 3


def test_classify_grid32(grid32):
    report = classify_properties(grid32.lattice)
    assert report.distributive
    assert not report.boolean
    assert report.slim
    assert report.length == 3
    assert report.join_irreducible_count == 3


def test_four_cells_b2(b2):
    assert len(four_cells(b2)) == 1


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)])
def test_four_cells_grid_count(m, n):
    grid = make_grid((m + 1, n + 1))
    assert len(four_cells(grid.lattice)) == m * n


def test_four_cells_s7(s7):
    # independent oracle: scan all quadruples
    expected = set()
    for a, b, c, d in [
        (a, b, c, d)
        for a in s7.elements
        for b in s7.elements
        for c in s7.elements
        for d in s7.elements
        if b < c
    ]:
        if (
            s7.covered_by(a, b) and s7.covered_by(a, c)
            and s7.covered_by(b, d) and s7.covered_by(c, d)
            and s7.meet(b, c) == a and s7.join(b, c) == d
        ):
            expected.add((a, frozenset((b, c)), d))
    got = {(c.bottom, frozenset((c.left, c.right)), c.top) for c in four_cells(s7)}
    assert got == expected
    assert len(got) == 3


def test_check_sublattice(grid32):
    lat = grid32.lattice
    assert check_sublattice(lat, {"0,0", "1,0", "0,1", "1,1"})
    assert not check_sublattice(lat, {"0,0", "2,0", "0,1"})
    assert check_sublattice(lat, lat.elements)
    assert not check_sublattice(lat, set())


def test_induced_lattice_rejects_open_subset(grid32):
    with pytest.raises(NotASublattice):
        induced_lattice(grid32.lattice, {"0,0", "2,0", "0,1"})


def test_grid_factor_sizes(c5, b3, s7, grid32):
    assert grid_factor_sizes(c5) == (5,)
    assert grid_factor_sizes(b3) == (2, 2, 2)
    assert grid_factor_sizes(grid32.lattice) == (3, 2)
    assert grid_factor_sizes(s7) is None


def test_grid_factor_sizes_non_grid(d5):
    assert grid_factor_sizes(d5) is None


_SMALL = list(enumerate_small_lattices(6))


@st.composite
def lattice_and_elements(draw, k=3):
    lat = draw(st.sampled_from(_SMALL))
    elems = [draw(st.sampled_from(lat.elements)) for _ in range(k)]
    return lat, elems


@given(lattice_and_elements())
@settings(max_examples=200, deadline=None)
def test_absorption_and_associativity(case):
    lat, (x, y, z) = case
    assert lat.join(x, lat.meet(x, y)) == x
    assert lat.meet(x, lat.join(x, y)) == x
    assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))
    assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))


@given(st.sampled_from(_SMALL))
@settings(max_examples=60, deadline=None)
def test_distributive_length_law(lat):
    report = classify_properties(lat)
    if report.distributive:
        assert report.length == report.join_irreducible_count


def test_boolean_implies_power_of_two():
    for lat in _SMALL:
        report = classify_properties(lat)
        if report.boolean:
            atom_count = len(lat.upper_covers(lat.bottom))
            assert len(lat) == 2 ** atom_count


def test_cell_orientation_is_canonical(b2):
    (cell,) = four_cells(b2)
    assert cell == Cell("0,0", "0,1", "1,0", "1,1")


def test_absorption_associativity_exhaustive_to_eight():
    # exhaustive over every lattice with at most 8 elements
    for lat in enumerate_small_lattices(8):
        elems = lat.elements
        for x in elems:
            for y in elems:
                assert lat.join(x, lat.meet(x, y)) == x
                assert lat.meet(x, lat.join(x, y)) == x
                for z in elems:
                    assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))
                    assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))


# -- the construction kernel against the DFS closure and per-pair scan it replaced


def _bit_list(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _reference_tables(elements, covers):
    """The former constructor: DFS closure and a least-element scan per pair.

    Returns (up, down, join, meet, bottom, top) in sorted-identifier indices,
    or raises exactly what the former constructor raised.
    """
    ids = list(elements)
    if not ids:
        raise LatticeError("a lattice needs at least one element")
    if len(set(ids)) != len(ids):
        raise LatticeError("element identifiers must be distinct")
    elems = tuple(sorted(ids))
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    cover_pairs = set()
    for lo, hi in covers:
        if lo not in index or hi not in index:
            raise LatticeError(f"cover ({lo!r}, {hi!r}) mentions an undeclared element")
        if lo == hi:
            raise CycleDetected(f"cover ({lo!r}, {hi!r}) is a self-loop")
        cover_pairs.add((lo, hi))
    ucov = [0] * n
    for lo, hi in cover_pairs:
        ucov[index[lo]] |= 1 << index[hi]

    up = [0] * n
    state = [0] * n  # 0 new, 1 on stack, 2 done

    def close(i):
        state[i] = 1
        acc = 1 << i
        for j in _bit_list(ucov[i]):
            if state[j] == 1:
                raise CycleDetected("cover relation contains a cycle")
            if state[j] == 0:
                close(j)
            acc |= up[j]
        up[i] = acc
        state[i] = 2

    for i in range(n):
        if state[i] == 0:
            close(i)
    down = [0] * n
    for i in range(n):
        for j in _bit_list(up[i]):
            down[j] |= 1 << i

    for lo, hi in cover_pairs:
        i, j = index[lo], index[hi]
        if up[i] & down[j] & ~(1 << i) & ~(1 << j):
            raise NonReducedCovers(f"cover ({lo!r}, {hi!r}) is implied transitively")
    bottoms = [i for i in range(n) if down[i] == 1 << i]
    tops = [i for i in range(n) if up[i] == 1 << i]
    if len(bottoms) > 1:
        raise NotALattice((elems[bottoms[0]], elems[bottoms[1]]))
    if len(tops) > 1:
        raise NotALattice((elems[tops[0]], elems[tops[1]]))

    join = [[i if i == j else None for j in range(n)] for i in range(n)]
    meet = [[i if i == j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            common = up[i] & up[j]
            least = [k for k in _bit_list(common) if down[k] & common == 1 << k]
            if len(least) != 1:
                raise NotALattice((elems[i], elems[j]))
            join[i][j] = join[j][i] = least[0]
            common = down[i] & down[j]
            greatest = [k for k in _bit_list(common) if up[k] & common == 1 << k]
            if len(greatest) != 1:
                raise NotALattice((elems[i], elems[j]))
            meet[i][j] = meet[j][i] = greatest[0]
    return (
        tuple(up),
        tuple(down),
        tuple(map(tuple, join)),
        tuple(map(tuple, meet)),
        elems[bottoms[0]],
        elems[tops[0]],
    )


def _outcome(build, elements, covers):
    try:
        return build(elements, covers)
    except LatticeError as exc:
        return type(exc), str(exc)


def _kernel_tables(elements, covers):
    lat = build_lattice(elements, covers)
    return lat._up, lat._down, lat._join, lat._meet, lat.bottom, lat.top


def _random_presentation(rng):
    """Element names and covers: random orders, reductions, cycles, self-loops."""
    n = rng.randint(1, 8)
    names = rng.sample("abcdefghijklmnop", n)
    order = rng.sample(names, n)  # covers run upwards in this order
    density = rng.random()
    covers = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    kind = rng.randrange(4)
    if kind == 1 and covers:  # keep only the transitive reduction
        above = {x: {hi for lo, hi in covers if lo == x} for x in order}
        for x in reversed(order):
            for y in list(above[x]):
                above[x] |= above[y]
        covers = [
            (lo, hi) for lo, hi in covers
            if not any(hi in above[z] for z in above[lo] if z != hi)
        ]
    elif kind == 2 and covers:  # close a cycle
        lo, hi = rng.choice(covers)
        covers.append((hi, order[0]) if rng.random() < 0.5 else (hi, lo))
    elif kind == 3 and rng.random() < 0.1:
        x = rng.choice(names)
        covers.append((x, x))
    rng.shuffle(covers)
    return names, covers


def test_kernel_matches_former_constructor_on_random_presentations():
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(4000):
        names, covers = _random_presentation(rng)
        expected = _outcome(_reference_tables, names, covers)
        assert _outcome(_kernel_tables, names, covers) == expected, (names, covers)
        seen[expected[0] if isinstance(expected[0], type) else "lattice"] += 1
    # every branch of the constructor is exercised
    assert {CycleDetected, NonReducedCovers, NotALattice, "lattice"} <= set(seen)
    assert min(seen.values()) >= 100, seen


def test_kernel_matches_former_constructor_on_lattices():
    rng = random.Random(7)
    for lat in enumerate_small_lattices(8):
        names = [f"x{i}" for i in range(len(lat))]
        rng.shuffle(names)
        rename = dict(zip(lat.elements, names))
        covers = [(rename[lo], rename[hi]) for lo, hi in sorted(lat.covers)]
        assert _kernel_tables(names, covers) == _reference_tables(names, covers)


def _m_k(k):
    atoms = [f"a{i}" for i in range(k)]
    return ["0", "1", *atoms], [c for a in atoms for c in (("0", a), (a, "1"))]


def _petals(k):
    """0 < a_i < b_i < 1 for each of k petals."""
    covers = [c for i in range(k) for c in (("0", f"a{i}"), (f"a{i}", f"b{i}"), (f"b{i}", "1"))]
    return ["0", "1", *(f"{x}{i}" for i in range(k) for x in "ab")], covers


def _chain(n):
    ids = [f"c{i}" for i in range(n)]
    return ids, list(zip(ids, ids[1:]))


def _presentation(lattice):
    return list(lattice.elements), sorted(lattice.covers)


def _product(first, second):
    (xs, x_covers), (ys, y_covers) = first, second
    covers = [(f"{lo}|{y}", f"{hi}|{y}") for lo, hi in x_covers for y in ys]
    covers += [(f"{x}|{lo}", f"{x}|{hi}") for x in xs for lo, hi in y_covers]
    return [f"{x}|{y}" for x in xs for y in ys], covers


def _row_rule_shapes():
    """The shapes the row rules of `core._rows` branch on: M_k (wide rows under the
    top), petals (wide rows under a chain), chains (one lookup per row), grids whose
    sorted ids are not a linear extension, S7 members and M_4 × C_3."""
    shapes = [_m_k(k) for k in (1, 2, 3, 5, 13, 40)]
    shapes += [_petals(k) for k in (1, 2, 7, 20)]
    shapes += [_chain(n) for n in (9, 17, 40)]
    shapes += [_presentation(make_grid(sizes).lattice) for sizes in ((2, 12), (3, 11))]
    shapes += [_presentation(s7_family(i).lattice) for i in range(1, 7)]
    shapes.append(_product(_m_k(4), _chain(3)))
    return shapes


def test_kernel_matches_former_constructor_on_row_rule_shapes():
    """Each shape relabelled, and non-lattices made from it: one extra cover to a new
    element (a second maximal, then a second minimal element) and, where two
    incomparable elements join below the top, a new element over both under the top,
    so that their join is missing and the pair scan names the first failing pair."""
    rng = random.Random(31)
    misses = 0
    for elements, covers in _row_rule_shapes():
        names = [f"x{i}" for i in range(len(elements))]
        rng.shuffle(names)
        rename = dict(zip(elements, names))
        covers = [(rename[lo], rename[hi]) for lo, hi in covers]
        assert _kernel_tables(names, covers) == _reference_tables(names, covers), names
        lat = build_lattice(names, covers)
        extended = names + ["x"]
        non_lattices = [
            covers + [(rng.choice([x for x in names if x != lat.top]), "x")],
            covers + [("x", rng.choice([x for x in names if x != lat.bottom]))],
        ]
        pairs = [
            (p, q) for p, q in combinations(names, 2)
            if not lat.leq(p, q) and not lat.leq(q, p) and lat.join(p, q) != lat.top
        ]
        if pairs:
            p, q = rng.choice(pairs)
            non_lattices.append(covers + [(p, "x"), (q, "x"), ("x", lat.top)])
            misses += 1
        for broken in non_lattices:
            expected = _outcome(_reference_tables, extended, broken)
            assert expected[0] is NotALattice, expected
            assert _outcome(_kernel_tables, extended, broken) == expected
    assert misses == 9  # the grids, the S7 members and M_4 × C_3
    for k in (3, 10):  # a bowtie a, b < c, d among k more atoms: the rows of a and b are looked up whole
        names, covers = _m_k(k)
        names += ["a", "b", "c", "d"]
        covers += [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
        expected = _outcome(_reference_tables, names, covers)
        assert expected[0] is NotALattice, expected
        assert _outcome(_kernel_tables, names, covers) == expected


def test_tables_at_the_element_cap_match_closed_forms():
    """B10 (1,024 elements) and the 1,000-element chain, with ids whose sorted order is
    not a linear extension: joins and meets are bitwise or and and of the subsets, and
    the max and min of the chain positions."""
    flip = tuple(m ^ 1 for m in range(1024))  # the subset m has index m ^ 1, and back
    ids = [format(i, "010b") for i in flip]
    covers = [(ids[m], ids[m | 1 << b]) for m in range(1024) for b in range(10) if not m >> b & 1]
    lat = build_lattice(ids, covers)
    assert (lat.index(lat.bottom), lat.index(lat.top)) == (flip[0], flip[1023])
    assert lat._join == tuple(itemgetter(*map(flip[i].__or__, flip))(flip) for i in range(1024))
    assert lat._meet == tuple(itemgetter(*map(flip[i].__and__, flip))(flip) for i in range(1024))

    n = 1000
    ids = [f"{n - 1 - p:04d}" for p in range(n)]  # position p has index n - 1 - p
    lat = build_lattice(ids, list(zip(ids, ids[1:])))
    assert (lat.bottom, lat.top) == ("0999", "0000")
    assert lat._join == tuple(tuple(range(i)) + (i,) * (n - i) for i in range(n))
    assert lat._meet == tuple((i,) * i + tuple(range(i, n)) for i in range(n))


def _reference_induced_covers(lattice, subset):
    """The former `induced_lattice` reduction, by the strict order over all triples."""
    elems = sorted(subset, key=lattice.index)
    return {
        (x, y)
        for x in elems
        for y in elems
        if x != y and lattice.leq(x, y)
        and not any(x != z != y and lattice.leq(x, z) and lattice.leq(z, y) for z in elems)
    }


def test_induced_lattice_matches_lt_reduction():
    ambients = list(enumerate_small_lattices(6))
    ambients += [make_grid((3, 3)).lattice, make_grid((2, 2, 3)).lattice]
    count = 0
    for lat in ambients:
        for sub in all_sublattices(lat):
            induced = induced_lattice(lat, sub)
            assert induced.elements == tuple(sorted(sub))
            assert induced.covers == _reference_induced_covers(lat, sub)
            count += 1
    assert count > 1000


def test_element_cap():
    def chain(n):
        ids = [f"{i:04d}" for i in range(n)]
        return ids, list(zip(ids, ids[1:]))

    lat = build_lattice(*chain(MAX_ELEMENTS))
    assert len(lat) == MAX_ELEMENTS == 1024
    assert lat.join("0000", "1023") == "1023"
    assert lat.meet("0100", "0900") == "0100"
    with pytest.raises(LatticeError, match="1025 elements exceed the limit of 1024"):
        build_lattice(*chain(MAX_ELEMENTS + 1))


# -- the invariants kernel against the scans it replaced


def _reference_is_distributive(lattice):
    """The former `is_distributive`: x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z) over all triples."""
    n = len(lattice)
    join = lattice._join
    meet = lattice._meet
    for x in range(n):
        mx = meet[x]
        for y in range(n):
            mxy = mx[y]
            jy = join[y]
            for z in range(n):
                if mx[jy[z]] != join[mxy][mx[z]]:
                    return False
    return True


def _reference_is_slim(lattice):
    """The former `is_slim`: no three pairwise incomparable join-irreducibles."""
    ji = [
        x for x in lattice.elements
        if x != lattice.bottom and len(lattice.lower_covers(x)) == 1
    ]
    for a, b, c in combinations(ji, 3):
        if (
            not lattice.leq(a, b) and not lattice.leq(b, a)
            and not lattice.leq(a, c) and not lattice.leq(c, a)
            and not lattice.leq(b, c) and not lattice.leq(c, b)
        ):
            return False
    return True


def _reference_is_boolean(lattice):
    """The former `is_boolean`: the joins of the atom subsets form a power set."""
    ats = lattice.upper_covers(lattice.bottom)
    k = len(ats)
    if len(lattice) != 1 << k:
        return False
    of_subset = {}
    for r in range(k + 1):
        for sub in combinations(ats, r):
            v = reduce(lattice.join, sub, lattice.bottom)
            key = frozenset(sub)
            if v in of_subset.values():
                return False
            of_subset[key] = v
    items = list(of_subset.items())
    for s1, v1 in items:
        for s2, v2 in items:
            if lattice.meet(v1, v2) != of_subset[s1 & s2]:
                return False
    return True


def _reference_grid_factor_sizes(lattice):
    """The former `grid_factor_sizes`: components of J by comparability search."""
    if not _reference_is_distributive(lattice):
        return None
    remaining = set(join_irreducibles(lattice))
    components = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for y in list(remaining - comp):
                if lattice.leq(x, y) or lattice.leq(y, x):
                    comp.add(y)
                    frontier.append(y)
        remaining -= comp
        components.append(comp)
    for comp in components:
        for a, b in combinations(comp, 2):
            if not lattice.leq(a, b) and not lattice.leq(b, a):
                return None
    return tuple(sorted((len(c) + 1 for c in components), reverse=True))


def _kernel_cases():
    """All 300 lattices with at most 8 elements, the lattices among seeded
    random presentations, relabelled distributive lattices with at most 12
    elements, and the 3x3x3 and 4x4x4x2 grids."""
    cases = list(enumerate_small_lattices(8))
    rng = random.Random(20261018)
    for _ in range(4000):
        outcome = _outcome(build_lattice, *_random_presentation(rng))
        if not isinstance(outcome, tuple):
            cases.append(outcome)
    for lat in enumerate_distributive_lattices(12):
        names = [f"y{i}" for i in range(len(lat))]
        rng.shuffle(names)
        rename = dict(zip(lat.elements, names))
        cases.append(build_lattice(names, [(rename[lo], rename[hi]) for lo, hi in lat.covers]))
    cases += [make_grid((3, 3, 3)).lattice, make_grid((4, 4, 4, 2)).lattice]
    return cases


def test_invariants_kernel_matches_reference_scans():
    cases = _kernel_cases()
    outcomes = Counter()
    for lat in cases:
        expected = (
            _reference_is_distributive(lat),
            _reference_is_slim(lat),
            _reference_grid_factor_sizes(lat),
            _reference_is_boolean(lat),
        )
        got = (is_distributive(lat), is_slim(lat), grid_factor_sizes(lat), is_boolean(lat))
        assert got == expected, (lat.elements, sorted(lat.covers))
        outcomes[expected[:2]] += 1
        outcomes["grid"] += expected[2] is not None
        outcomes["boolean", len(lat) > 2] += expected[3]
        # lattices of 2^k elements that are not boolean: the size alone does not decide
        outcomes["2^k, not boolean"] += not expected[3] and len(lat) & (len(lat) - 1) == 0
    # 300 small lattices, 900 from random presentations, 342 distributive, 2 grids
    assert len(cases) == 1544
    # every combination of verdicts occurs
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(outcomes)
    assert outcomes["grid"] > 50
    assert outcomes["boolean", True] >= 8 and outcomes["2^k, not boolean"] > 100


def _reference_is_semimodular(lattice):
    """The former `is_semimodular`: x ≺ y implies x ∨ z ⪯ y ∨ z, over all covers and z."""
    n = len(lattice)
    join = lattice._join
    ucov = lattice._ucov
    for lo, hi in lattice.covers:
        i, j = lattice.index(lo), lattice.index(hi)
        for z in range(n):
            a, b = join[i][z], join[j][z]
            if a != b and not ucov[a] >> b & 1:
                return False
    return True


def _dual(lattice):
    return build_lattice(lattice.elements, [(hi, lo) for lo, hi in lattice.covers])


def _forked(rng, m, n, forks):
    """The lattice `gen-slim --grid MxN` builds from a fork script whose
    steps fork cells drawn at random from the current lattice."""
    ol = oriented_grid(m, n)
    for _ in range(forks):
        ol = add_fork(ol, rng.choice(ol.cells()))
    return ol.lattice


def test_semimodularity_by_covering_condition_matches_reference():
    small = list(enumerate_small_lattices(8))
    grids = [
        make_grid(sizes).lattice
        for sizes in [(m, n) for m in range(2, 6) for n in range(2, m + 1)] + [(2, 2, 2, 2)]
    ]
    rng = random.Random(17)
    forked = [
        _forked(rng, m, n, k) for m, n, k in [(1, 1, 1), (2, 1, 2), (2, 2, 3), (3, 2, 3), (3, 3, 4)]
    ]
    cases = small + [_dual(lat) for lat in small] + grids + forked
    cases += [s7_family(i).lattice for i in range(1, 9)]
    outcomes = Counter()
    for lat in cases:
        expected = _reference_is_semimodular(lat)
        assert is_semimodular(lat) == expected, (lat.elements, sorted(lat.covers))
        outcomes[expected] += 1
    # 72 of the 300 small lattices are semimodular.  5 of those (S7 among
    # them) are not modular, so their duals are lower but not upper
    # semimodular; those duals are among the 300 too, and flip back.
    flips = Counter(
        (_reference_is_semimodular(lat), _reference_is_semimodular(_dual(lat))) for lat in small
    )
    assert len(cases) == 300 + 300 + 11 + 5 + 8
    assert flips[True, False] == flips[False, True] == 5
    assert outcomes == {True: 72 + 72 + 11 + 5 + 8, False: 228 + 228}
    assert all(is_semimodular(lat) for lat in grids + forked)


def _reference_check_sublattice(lattice, subset):
    """The former `check_sublattice`, on string `join`/`meet` calls."""
    elems = set(subset)
    if not elems:
        return False
    for x in elems:
        if x not in lattice:
            return False
    for x in elems:
        for y in elems:
            if lattice.join(x, y) not in elems or lattice.meet(x, y) not in elems:
                return False
    return True


def test_check_sublattice_matches_string_version():
    count = Counter()
    for lat in enumerate_small_lattices(6):
        elems = lat.elements
        for mask in range(1 << len(elems)):
            subset = [x for i, x in enumerate(elems) if mask >> i & 1]
            for candidate in (subset, subset + ["foreign"]):
                expected = _reference_check_sublattice(lat, candidate)
                assert check_sublattice(lat, candidate) == expected, (elems, candidate)
                count[expected] += 1
    assert count[True] > 500 and count[False] > 1000


def test_sublattice_invariants_on_the_mask_match_the_built_sublattice():
    """`_sub_jmask` is the J of the induced sublattice, and the mask's
    booleanness, chain factors, semimodularity and length are the public
    predicates' answers on it, for every sublattice of every lattice with
    at most 7 elements, distributive or not.  Where both are semimodular,
    the inclusion's flags read off the mask are `check_cover01`'s on the
    built inclusion, which is an embedding."""
    count = Counter()
    inclusions = Counter()
    for lat in enumerate_small_lattices(7):
        for sub in all_sublattices(lat):
            induced = induced_lattice(lat, sub)
            mask = _sublattice_mask(lat, sub)
            jmask = _sub_jmask(lat, mask)
            assert tuple(lat.elements[i] for i in _bits(jmask)) == join_irreducibles(induced)
            size = mask.bit_count()
            assert (size == 1 << jmask.bit_count()) == is_boolean(induced), sub
            factors = _grid_shape(lat, mask)
            assert factors == grid_factor_sizes(induced), sub
            ucov = _covers_within(lat._up, mask)
            assert _semimodular_on(lat, ucov) == is_semimodular(induced), sub
            assert _length_on(lat, ucov) == lattice_length(induced), sub
            if is_semimodular(induced) and is_semimodular(lat):
                report = check_cover01(Homomorphism(induced, lat, {x: x for x in sub}))
                assert report.is_embedding
                flags = _inclusion_flags(lat, mask, ucov, lattice_length(lat))
                assert flags == (report.is_cover01, report.lengths_equal), sub
                inclusions[flags] += 1
            count[is_distributive(induced), factors is not None] += 1
    # For 290 of the 398 non-distributive sublattices J splits into chains
    # all the same, and only the size check gives None.
    assert count == {(True, True): 3885, (True, False): 244, (False, False): 398}
    # the cover-{0,1} lemma: the flag pairs are all equal
    assert inclusions == {(False, False): 1623, (True, True): 216}
