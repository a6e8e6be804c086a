import functools
import itertools
import sys

import pytest

from finlat import (
    MAX_ELEMENTS,
    Cell,
    LatticeError,
    ForkScript,
    NoRectangularExtensionFound,
    NotA4Cell,
    TooSmall,
    ValidationFailed,
    add_fork,
    build_lattice,
    build_slim_rectangular,
    build_witness,
    classify_properties,
    enumerate_small_lattices,
    find_embedding,
    find_rectangular_extension,
    four_cells,
    inner_coatoms,
    is_isomorphic,
    lattice_length,
    make_grid,
    oriented_grid,
    s7_family,
    slim,
)


def test_fork_on_boolean_square_gives_s7(s7):
    base = oriented_grid(1, 1)
    forked = add_fork(base, base.cells()[0])
    assert len(forked.lattice) == 7
    assert is_isomorphic(forked.lattice, s7)
    record = forked.last_fork
    assert len(record.left_leg) == 1 and len(record.right_leg) == 1


def test_fork_on_grid32_upper_cell():
    base = oriented_grid(2, 1)
    cell = next(c for c in base.cells() if c.top == base.lattice.top)
    forked = add_fork(base, cell)
    assert len(forked.lattice) == 10
    legs = sorted((len(forked.last_fork.left_leg), len(forked.last_fork.right_leg)))
    assert legs == [1, 2]
    report = classify_properties(forked.lattice)
    assert report.slim and report.semimodular
    assert report.length == 4


def test_fork_preserves_structure_and_increases_cells():
    ol = oriented_grid(2, 2)
    for _ in range(3):
        cells_before = len(four_cells(ol.lattice))
        length_before = lattice_length(ol.lattice)
        ol = add_fork(ol, ol.cells()[0])
        report = classify_properties(ol.lattice)
        assert report.slim and report.semimodular
        assert lattice_length(ol.lattice) == length_before + 1
        assert len(four_cells(ol.lattice)) > cells_before


def test_fork_rejects_non_cell():
    base = oriented_grid(1, 1)
    with pytest.raises(NotA4Cell):
        add_fork(base, Cell("0,0", "1,0", "0,1", "0,1"))


def test_s7_family_counts():
    sizes = {1: 7, 2: 11, 3: 16}
    for i, expected in sizes.items():
        member = s7_family(i)
        assert len(member.lattice) == expected
        assert len(inner_coatoms(member)) == i
        assert lattice_length(member.lattice) == i + 2
        report = classify_properties(member.lattice)
        assert report.slim and report.semimodular


def test_s7_family_refuses_members_over_the_cap_before_forking(monkeypatch):
    """Member i has (i + 2)(i + 3)/2 + 1 elements; one over `MAX_ELEMENTS`
    is refused by that count, before any fork is added."""
    for i in range(1, 13):
        assert len(s7_family(i).lattice) == (i + 2) * (i + 3) // 2 + 1

    def no_fork(ol, cell):
        raise AssertionError("add_fork called for a member over the cap")

    monkeypatch.setattr(slim, "add_fork", no_fork)
    for i in (43, 10**9):
        with pytest.raises(ValidationFailed, match=f"over the limit of {MAX_ELEMENTS}"):
            s7_family(i)


def test_witness_refuses_an_over_the_cap_script_before_building_it(monkeypatch, c3, s7):
    """The S7 index t = max(m + n + 1, |L| + 1) is read off the script's base
    sizes, so a script whose member is over the cap builds no grid.  S7 does
    not embed in any grid, yet the cap is what it reports."""

    def no_grid(m, n):
        raise AssertionError("oriented_grid called for an over-the-cap script")

    monkeypatch.setattr(slim, "oriented_grid", no_grid)
    for lattice in (c3, s7):
        with pytest.raises(ValidationFailed, match=f"over the limit of {MAX_ELEMENTS}"):
            build_witness(lattice, script=ForkScript((2, 500)))


def _reference_s7_family(i):
    """A fresh fork loop from the boolean square."""
    ol = oriented_grid(1, 1)
    for _ in range(i):
        top = ol.lattice.top
        ol = add_fork(ol, [cell for cell in ol.cells() if cell.top == top][-1])
    return ol


def test_s7_family_builds_each_member_once_by_one_fork(monkeypatch):
    forks = []

    def counting_fork(ol, cell):
        forks.append(cell)
        return add_fork(ol, cell)

    monkeypatch.setattr(slim, "_S7", {})
    monkeypatch.setattr(slim, "add_fork", counting_fork)
    for i in (5, 2, 8, 1):
        member = s7_family(i)
        expected = _reference_s7_family(i)
        assert member.lattice.elements == expected.lattice.elements
        assert member.lattice.covers == expected.lattice.covers
        assert member.up == expected.up and member.down == expected.down
        assert member._fresh == expected._fresh
        assert member.last_fork == expected.last_fork
        assert member.cells() == expected.cells()
        assert s7_family(i) is member
    assert len(forks) == 8
    assert sorted(slim._S7) == list(range(1, 9))


def test_oriented_cells_are_kept_from_validation():
    for ol in (oriented_grid(2, 1), s7_family(3), build_slim_rectangular(ForkScript((3, 2), (("2,1", "2,0"),)))):
        assert ol.cells() is ol.cells()
        assert ol.cells() == ol._cells_from_up()


def _orders(ol):
    return {x: list(v) for x, v in ol.up.items()}, {x: list(v) for x, v in ol.down.items()}


def _reverse_up_1_1(up, down):
    up["1,1"].reverse()


def _reverse_up_0_0(up, down):
    up["0,0"].reverse()


def _reverse_top_cell(up, down):
    up["1,1"].reverse()
    down["2,2"].reverse()


@pytest.mark.parametrize(
    "reverse, message",
    [
        (_reverse_up_1_1, "oriented apart"),
        (_reverse_up_0_0, "oriented apart"),
        # upper and lower covers agree on the top cell, but it is no face
        (_reverse_top_cell, "not a face"),
    ],
)
def test_constructor_refuses_a_reversed_cover_order(reverse, message):
    grid = oriented_grid(2, 2)
    up, down = _orders(grid)
    slim.OrientedLattice(grid.lattice, up, down)
    reverse(up, down)
    with pytest.raises(ValidationFailed, match=message):
        slim.OrientedLattice(grid.lattice, up, down)


def _orientations(lattice):
    """Every choice of a left-to-right order on the upper and on the lower covers of each element."""
    slots = [(x, side) for x in lattice.elements for side in ("up", "down")]
    orders = [
        itertools.permutations(lattice.upper_covers(x) if side == "up" else lattice.lower_covers(x))
        for x, side in slots
    ]
    for choice in itertools.product(*orders):
        up, down = {}, {}
        for (x, side), order in zip(slots, choice):
            (up if side == "up" else down)[x] = order
        yield up, down


def test_every_orientation_the_constructor_accepts_forks_soundly():
    """Of all cover orders on each slim semimodular lattice with 2-7
    elements and on `oriented_grid(2, 2)`, the constructor accepts those of
    a planar diagram, and a fork on any cell of an accepted one is one unit
    longer and accepted again with the same cells."""
    lattices = [lat for lat in enumerate_small_lattices(7, filters=("slim", "semimodular")) if len(lat) >= 2]
    accepted = {}
    for lattice in [*lattices, oriented_grid(2, 2).lattice]:
        oriented = []
        for up, down in _orientations(lattice):
            try:
                oriented.append(slim.OrientedLattice(lattice, up, down))
            except ValidationFailed:
                continue
            # the lower orders read off the cells are the ones given
            assert oriented[-1].down == down
        accepted[lattice] = len(oriented)
        for ol in oriented:
            for cell in ol.cells():
                forked = add_fork(ol, cell)
                assert lattice_length(forked.lattice) == lattice_length(lattice) + 1
                assert forked.down == _reference_fork_down(ol, ol.down, cell, forked.last_fork)
                checked = slim.OrientedLattice(forked.lattice, forked.up, forked.down)
                assert checked.cells() == forked.cells()
    # A chain has one orientation, and a diagram and its mirror image are
    # two.  The glued sum of two squares has two diagrams, one per flip of
    # the upper square.
    assert sorted(accepted.values()) == [1] * 6 + [2] * 15 + [4]
    assert accepted[oriented_grid(2, 2).lattice] == 2


def _trusted_corpus(monkeypatch):
    """Every grid and fork built, unvalidated, for a fixed corpus, as
    (parent, grid sizes or forked cell, result) triples: `oriented_grid(m, n)`
    for m, n <= 4, every fork two deep over those with m, n <= 3, S7 members
    1-12, and every candidate `find_rectangular_extension` pops for the slim
    semimodular lattices with 2-7 elements."""
    built = []
    real_grid, real_fork = slim.oriented_grid, slim.add_fork

    def grid(m, n):
        built.append((None, (m, n), real_grid(m, n)))
        return built[-1][2]

    def fork(ol, cell):
        built.append((ol, cell, real_fork(ol, cell)))
        return built[-1][2]

    monkeypatch.setattr(slim, "oriented_grid", grid)
    monkeypatch.setattr(slim, "add_fork", fork)
    monkeypatch.setattr(slim, "_S7", {})
    for m in range(1, 5):
        for n in range(1, 5):
            base = grid(m, n)
            for cell in base.cells() if m <= 3 and n <= 3 else ():
                once = fork(base, cell)
                for again in once.cells():
                    fork(once, again)
    slim.s7_family(12)
    for lattice in enumerate_small_lattices(7, filters=("slim", "semimodular")):
        if len(lattice) >= 2:
            slim.find_rectangular_extension(lattice)
    return built


@pytest.fixture(scope="module")
def trusted_corpus():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _trusted_corpus(monkeypatch)


def test_grids_and_forks_pass_the_constructor_they_skip(trusted_corpus):
    """Grids and forks are built without `_validate`, on the strength of the
    fork theorem; here each one of a fixed corpus is put through the public
    constructor, which must find the same oriented cells, and each fork
    must add one unit of length and the elements its legs name."""
    built = trusted_corpus
    forks = 0
    for parent, _, ol in built:
        checked = slim.OrientedLattice(ol.lattice, ol.up, ol.down, ol._fresh, ol.last_fork)
        assert checked.cells() == ol.cells()
        if parent is not None:
            forks += 1
            record = ol.last_fork
            assert lattice_length(ol.lattice) == lattice_length(parent.lattice) + 1
            assert len(ol.lattice) == len(parent.lattice) + 1 + len(record.left_leg) + len(record.right_leg)
    assert (len(built) - forks, forks) == (105, 419)


def _reference_grid_down(m, n):
    """The grid rule for lower orders: under (i, j), (i, j - 1) is left of (i - 1, j)."""
    grid = make_grid((m + 1, n + 1))
    down = {}
    for x in grid.lattice.elements:
        i, j = grid.coords(x)
        down[x] = tuple(grid.id_of(y) for y in ((i, j - 1), (i - 1, j)) if min(y) >= 0)
    return down


def _reference_walk(lattice, down, cell, side):
    """A descending cell walk by lower orders: the next cell on the left is
    spanned by the current bottom and its left neighbour under the current
    left side, and dually on the right."""
    edges, cur = [], cell
    while True:
        upper = cur.left if side < 0 else cur.right
        edges.append((cur.bottom, upper))
        lows = down[upper]
        pos = lows.index(cur.bottom) + side
        if not 0 <= pos < len(lows):
            return edges
        pair = (lows[pos], cur.bottom) if side < 0 else (cur.bottom, lows[pos])
        cur = Cell(lattice.meet(*pair), *pair, upper)


def _reference_fork_down(parent, parent_down, cell, record):
    """The fork rule for lower orders: the middle element goes between the
    cell's sides under its top and has the two first leg elements below it;
    each leg element takes the place of its edge's bottom under the edge's
    top, has that bottom below it, and goes below the leg element above it
    on the leg's side."""
    down = {x: list(v) for x, v in parent_down.items()}
    down[cell.top].insert(down[cell.top].index(cell.right), record.mid)
    down[record.mid] = [record.left_leg[0], record.right_leg[0]]
    for leg, side in ((record.left_leg, -1), (record.right_leg, 1)):
        edges = _reference_walk(parent.lattice, parent_down, cell, side)
        assert len(edges) == len(leg)
        prev = record.mid
        for name, (p, q) in zip(leg, edges):
            down[q][down[q].index(p)] = name
            down[name] = [p]
            if prev != record.mid:
                down[prev].insert(0 if side < 0 else 1, name)
            prev = name
    return {x: tuple(v) for x, v in down.items()}


def test_lower_orders_follow_the_grid_and_fork_rules(trusted_corpus):
    """Only upper cover orders are stored; the lower orders read off the
    cells, on first use, are those the grid and fork rules give, on every
    grid and fork of the corpus."""
    grid = oriented_grid(3, 2)
    forked = add_fork(grid, grid.cells()[-1])
    for ol in (grid, forked, add_fork(forked, forked.cells()[0])):
        inner_coatoms(ol)
        assert "down" not in vars(ol)
        assert ol.down is ol.down and "down" in vars(ol)
    reference = {}
    for parent, how, ol in trusted_corpus:
        if parent is None:
            reference[id(ol)] = _reference_grid_down(*how)
        else:
            reference[id(ol)] = _reference_fork_down(parent, reference[id(parent)], how, ol.last_fork)
        assert ol.down == reference[id(ol)]
        assert list(ol.down) == list(ol.up)


def _rebuilt(ol, names):
    """`ol` through the public constructor, with its ids renamed and the default `fresh`."""
    def name(x):
        return names.get(x, x)

    lattice = build_lattice([name(x) for x in ol.lattice.elements], [(name(x), name(y)) for x, y in ol.lattice.covers])
    up, down = ({name(x): [name(y) for y in v] for x, v in order.items()} for order in (ol.up, ol.down))
    return slim.OrientedLattice(lattice, up, down)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_public_lattices_with_fork_names_fork_past_them(i):
    """An S7 member's own ids are `f0`, `f1`, ...; rebuilt through the
    public constructor, every cell forks, one unit longer, into a lattice
    the constructor accepts again."""
    ol = _rebuilt(s7_family(i), {})
    for cell in ol.cells():
        forked = add_fork(ol, cell)
        assert lattice_length(forked.lattice) == lattice_length(ol.lattice) + 1
        assert slim.OrientedLattice(forked.lattice, forked.up, forked.down).cells() == forked.cells()


def test_fork_names_start_past_every_f_id():
    ol = _rebuilt(oriented_grid(1, 1), {"0,0": "f007", "1,0": "f2", "0,1": "f²", "1,1": "f"})
    forked = add_fork(ol, ol.cells()[0])
    assert forked.last_fork == slim.ForkRecord("f8", ("f9",), ("f10",))
    assert len(forked.lattice) == 7


def test_s7_family_coatom_meet_below_all():
    member = s7_family(3)
    coats = inner_coatoms(member)
    meet = member.lattice.meet_all(coats)
    for a in coats:
        assert member.lattice.leq(meet, a)
    # the interval below the second inner coatom contains a boolean square
    interval = member.lattice.interval(meet, coats[1])
    square = make_grid((2, 2)).lattice
    from finlat import find_embedding, induced_lattice

    assert find_embedding(square, induced_lattice(member.lattice, interval)) is not None


def test_build_slim_rectangular_zero_steps():
    ol = build_slim_rectangular(ForkScript((3, 2)))
    assert is_isomorphic(ol.lattice, make_grid((3, 2)).lattice)


def test_build_slim_rectangular_one_step(s7):
    ol = build_slim_rectangular(ForkScript((2, 2), (("1,1", "1,0"),)))
    assert is_isomorphic(ol.lattice, s7)


def test_build_slim_rectangular_upper_cell_of_32():
    ol = build_slim_rectangular(ForkScript((3, 2), (("2,1", "2,0"),)))
    assert len(ol.lattice) == 10
    report = classify_properties(ol.lattice)
    assert report.slim and report.semimodular and report.length == 4


def test_fork_script_roundtrip():
    script = ForkScript((3, 2), (("2,1", "2,0"),))
    assert ForkScript.from_jsonable(script.to_jsonable()) == script


def test_find_rectangular_extension_c2(c2):
    script, rect, embedding = find_rectangular_extension(c2)
    assert script.base_sizes == (2, 2)
    assert script.steps == ()
    assert set(embedding) == {"0", "1"}


def test_find_rectangular_extension_s7(s7):
    script, rect, embedding = find_rectangular_extension(s7)
    assert len(rect.lattice) == 7
    assert len(script.steps) == 1


def test_find_rectangular_extension_bound():
    big = make_grid((4, 4)).lattice
    with pytest.raises(NoRectangularExtensionFound):
        find_rectangular_extension(big, max_size=6)


def _reference_candidates(max_size, max_forks):
    """The former search's base grids and its sorted list of every fork-script candidate."""
    bases = sorted(
        ((m, n) for m in range(1, max_size) for n in range(1, max_size) if (m + 1) * (n + 1) <= max_size),
        key=lambda mn: ((mn[0] + 1) * (mn[1] + 1), mn),
    )
    candidates = []

    def grow(ol, base_index, steps):
        candidates.append((len(ol.lattice), base_index, len(steps), steps, ol))
        if len(steps) >= max_forks:
            return
        for cell in ol.cells():
            if len(ol.lattice) + 3 <= max_size:
                extended = add_fork(ol, cell)
                if len(extended.lattice) <= max_size:
                    grow(extended, base_index, steps + ((cell.top, cell.left),))

    for base_index, (m, n) in enumerate(bases):
        grow(oriented_grid(m, n), base_index, ())
    candidates.sort(key=lambda c: c[:4])
    return bases, candidates


def _reference_rectangular_extension(lattice, max_size=None, max_forks=3, candidates=_reference_candidates):
    """The former `find_rectangular_extension`: build every candidate, sort, then test in order."""
    if max_size is None:
        max_size = max(14, len(lattice) + 8)
    bases, ordered = candidates(max_size, max_forks)
    for size, base_index, _, steps, ol in ordered:
        embedding = find_embedding(lattice, ol.lattice) if size >= len(lattice) else None
        if embedding is not None:
            m, n = bases[base_index]
            return ForkScript((m + 1, n + 1), steps), ol, embedding
    raise NoRectangularExtensionFound(
        f"no slim rectangular extension within {max_size} elements and {max_forks} forks"
    )


def _extension_outcome(find, lattice, **bounds):
    try:
        script, ol, embedding = find(lattice, **bounds)
    except LatticeError as exc:
        return type(exc), str(exc)
    planar = (ol.lattice.elements, ol.lattice.covers, ol.up, ol.down, ol.last_fork)
    return script, planar, list(embedding.items())


def test_find_rectangular_extension_matches_reference(monkeypatch):
    bounds = ({}, {"max_forks": 0}, {"max_forks": 1}, {"max_forks": 2}, {"max_size": 9})
    cases = [
        (lattice, bound)
        for lattice in enumerate_small_lattices(7, filters=("slim", "semimodular"))
        if len(lattice) >= 2
        for bound in bounds
    ]
    # the smallest extension of this one takes two forks
    cases += [(s7_family(2).lattice, bound) for bound in bounds[:4]]

    # Both searches build through these wrappers, which record the script
    # of every lattice they return, so each find_embedding call is logged
    # as (script, candidate size).
    scripts = {}  # id(lattice) -> (lattice, script); holding the lattice keeps ids unique
    calls = []
    real_grid, real_fork, real_embed = oriented_grid, add_fork, find_embedding

    def grid(m, n):
        ol = real_grid(m, n)
        scripts[id(ol.lattice)] = (ol.lattice, ((m + 1, n + 1), ()))
        return ol

    def fork(ol, cell):
        grown = real_fork(ol, cell)
        base, steps = scripts[id(ol.lattice)][1]
        scripts[id(grown.lattice)] = (grown.lattice, (base, steps + ((cell.top, cell.left),)))
        return grown

    def embed(small, big):
        calls.append((scripts[id(big)][1], len(big)))
        return real_embed(small, big)

    for module in (slim, sys.modules[__name__]):
        monkeypatch.setattr(module, "oriented_grid", grid)
        monkeypatch.setattr(module, "add_fork", fork)
        monkeypatch.setattr(module, "find_embedding", embed)
    # The reference's candidate list does not depend on the input lattice.
    memo = functools.cache(_reference_candidates)

    outcomes = set()
    for lattice, bound in cases:
        got = _extension_outcome(find_rectangular_extension, lattice, **bound)
        got_calls = calls[:]
        calls.clear()
        expected = _extension_outcome(_reference_rectangular_extension, lattice, candidates=memo, **bound)
        assert got == expected, (lattice.elements, bound)
        assert got_calls == calls, (lattice.elements, bound)
        calls.clear()
        outcomes.add(len(got[0].steps) if isinstance(got[0], ForkScript) else "none")
    assert {0, 1, 2, "none"} <= outcomes


def test_find_rectangular_extension_builds_candidates_lazily(monkeypatch, c2):
    two_forks = s7_family(2).lattice
    forked, tested = [], set()
    real_fork, real_embed = add_fork, find_embedding

    def counting(ol, cell):
        forked.append(real_fork(ol, cell))
        return forked[-1]

    def embed(small, big):
        tested.add(id(big))
        return real_embed(small, big)

    monkeypatch.setattr(slim, "add_fork", counting)
    monkeypatch.setattr(slim, "find_embedding", embed)
    # C2 embeds in the first base grid, so nothing is forked.
    find_rectangular_extension(c2)
    assert forked == []
    find_rectangular_extension(two_forks)
    # A fork is built only when it is next in line: each one at least as
    # large as the input is tested at once, smaller ones only grow children.
    assert all(id(ol.lattice) in tested for ol in forked if len(ol.lattice) >= len(two_forks))
    lazy = len(forked)
    forked.clear()
    monkeypatch.setattr(sys.modules[__name__], "add_fork", counting)
    _reference_rectangular_extension(two_forks)
    assert 0 < lazy < len(forked)


def test_witness_c2_exact(c2):
    report = build_witness(c2)
    assert (report.m, report.n, report.t) == (1, 1, 3)
    assert report.extension.lattice == s7_family(3).lattice
    assert not report.retraction_found
    assert report.search_nodes > 0
    assert len(report.inner_coatoms) == 3


def test_witness_b2_minimality_rule(b2):
    report = build_witness(b2)
    assert report.t == 5
    assert report.script.steps == ()
    assert report.extension.lattice == s7_family(5).lattice


def test_witness_rejects_singleton():
    singleton = build_lattice(["x"], [])
    with pytest.raises(TooSmall):
        build_witness(singleton)


def test_witness_embedded_copy_is_isomorphic_sublattice(c3):
    from finlat import check_sublattice, induced_lattice

    report = build_witness(c3)
    image = set(report.embedded_copy.values())
    assert check_sublattice(report.extension.lattice, image)
    assert is_isomorphic(induced_lattice(report.extension.lattice, image), c3)


def test_witness_with_provided_script(c2):
    report = build_witness(c2, script=ForkScript((2, 2)))
    assert report.t == 3
    assert not report.retraction_found


def test_witness_builds_a_given_script_once(monkeypatch, c2, c4):
    """A given script is built only by the replay: a bad step is refused
    with the error `build_slim_rectangular` gives, and a rectangle that
    does not contain the input with the same error as before."""
    bad = ForkScript((2, 2), (("1,1", "1,0"), ("9,9", "0,0")))
    with pytest.raises(NotA4Cell) as expected:
        build_slim_rectangular(bad)

    def no_rebuild(script):
        raise AssertionError("a given script was built twice")

    monkeypatch.setattr(slim, "build_slim_rectangular", no_rebuild)
    with pytest.raises(NotA4Cell) as got:
        build_witness(c2, script=bad)
    assert str(got.value) == str(expected.value)
    with pytest.raises(
        NoRectangularExtensionFound, match="^the provided script does not contain the lattice$"
    ):
        build_witness(c4, script=ForkScript((2, 2)))
    assert build_witness(c2, script=ForkScript((2, 2), bad.steps[:1])).t == 3


def test_witness_with_mirrored_forks(s7):
    report = build_witness(s7)
    assert report.t == 8
    assert len(report.script.steps) == 1
    assert not report.retraction_found
    # one replayed fork grew the family member by its legs and middle element
    assert len(report.extension.lattice) > len(s7_family(8).lattice)


def test_witness_congruence_trace_covers_all_pairs(c3):
    report = build_witness(c3)
    t = report.t
    assert len(report.congruence_trace) == t * (t - 1) // 2


@pytest.mark.parametrize("name", ["c2", "c3", "b2", "s7"])
def test_witness_trace_closes_fewer_pairs_and_still_checks(monkeypatch, request, name):
    """The trace closes one pair per maximal pairwise meet of the inner
    coatoms, fewer than it lists; with every closure left diagonal the
    witness is refused, so the pairs it does close are checked."""
    lattice = request.getfixturevalue(name)
    closed = []
    labels = slim._congruence_labels
    monkeypatch.setattr(slim, "_congruence_labels", lambda lat, pairs: closed.append(pairs) or labels(lat, pairs))
    report = build_witness(lattice)
    assert 0 < len(closed) < len(report.congruence_trace)
    monkeypatch.setattr(slim, "_congruence_labels", lambda lat, pairs: list(range(len(lat))))
    with pytest.raises(ValidationFailed, match="did not collapse all"):
        build_witness(lattice)


def test_all_small_slim_semimodular_have_witnesses():
    for lattice in enumerate_small_lattices(5, filters=("slim", "semimodular")):
        if len(lattice) < 2:
            continue
        report = build_witness(lattice)
        assert not report.retraction_found
        assert report.t >= len(lattice) + 1 or report.t >= report.m + report.n + 1
