"""Differential tests: the index-array morphism kernel against the former
string implementations, kept here as `_reference_*`."""

import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest

import finlat.core as core
import finlat.morphisms as morphisms
import finlat.oracle as oracle
import finlat.retractions as retractions
from finlat import (
    ClassId,
    Congruence,
    ForkScript,
    Homomorphism,
    all_sublattices,
    build_lattice,
    build_witness,
    classify_absolute_retract,
    congruence_generated_by,
    enumerate_distributive_lattices,
    enumerate_small_lattices,
    induced_lattice,
    oriented_grid,
    s7_family,
    search_retraction,
)
from finlat.checks import retraction_kernels
from finlat.core import _sublattice_mask
from finlat.morphisms import NotACongruence, NotAHomomorphism, _check_onto, _congruence_labels
from tests.conftest import homomorphism_fields

LATTICES = list(enumerate_small_lattices(6))


def _reference_homomorphism(source, target, mapping):
    """The former string-keyed check of `Homomorphism.__init__`, returning
    the former derived flags of an accepted map."""
    if set(mapping) != set(source.elements):
        raise NotAHomomorphism("mapping is not total on the source")
    for v in mapping.values():
        if v not in target:
            raise NotAHomomorphism(f"image {v!r} is outside the target")
    for x in source.elements:
        for y in source.elements:
            if mapping[source.join(x, y)] != target.join(mapping[x], mapping[y]):
                raise NotAHomomorphism(f"join of ({x!r}, {y!r}) is not preserved")
            if mapping[source.meet(x, y)] != target.meet(mapping[x], mapping[y]):
                raise NotAHomomorphism(f"meet of ({x!r}, {y!r}) is not preserved")
    # the former id-level flags: bounds, covers, injectivity
    return (
        mapping[source.bottom] == target.bottom and mapping[source.top] == target.top,
        all(target.covered_by(mapping[lo], mapping[hi]) for lo, hi in source.covers),
        len(set(mapping.values())) == len(source),
    )


def _reference_congruence(lattice, blocks):
    """The former string-keyed `Congruence.__init__` and `_validate`; returns the blocks."""
    blocks = tuple(frozenset(b) for b in blocks)
    seen = set()
    for b in blocks:
        if not b:
            raise NotACongruence("empty block")
        if b & seen:
            raise NotACongruence("blocks overlap")
        seen |= b
    if seen != set(lattice.elements):
        raise NotACongruence("blocks do not partition the lattice")
    blocks = tuple(sorted(blocks, key=min))
    of = {x: i for i, b in enumerate(blocks) for x in b}
    for block in blocks:
        rep = min(block)
        for other in block:
            if other == rep:
                continue
            for z in lattice.elements:
                if of[lattice.join(rep, z)] != of[lattice.join(other, z)]:
                    raise NotACongruence("partition is not join-compatible")
                if of[lattice.meet(rep, z)] != of[lattice.meet(other, z)]:
                    raise NotACongruence("partition is not meet-compatible")
    return blocks


def _reference_congruence_generated_by(lattice, pairs):
    """The former string-keyed union-find closure; returns the blocks."""
    parent = {x: x for x in lattice.elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = []

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            work.append((a, b))

    for a, b in pairs:
        union(a, b)
    while work:
        a, b = work.pop()
        for z in lattice.elements:
            union(lattice.join(a, z), lattice.join(b, z))
            union(lattice.meet(a, z), lattice.meet(b, z))
    blocks = {}
    for x in lattice.elements:
        blocks.setdefault(find(x), set()).add(x)
    return _reference_congruence(lattice, tuple(frozenset(b) for b in blocks.values()))


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _retraction_maps():
    """(lattice, sublattice, mapping) for a retraction onto every retract of every lattice."""
    out = []
    for lattice in LATTICES:
        for sub in all_sublattices(lattice):
            hom, _ = search_retraction(lattice, sub)
            if hom is not None:
                out.append((lattice, hom.target, hom.mapping))
    return out


def _homomorphism_cases(rng):
    cases = [(lat, sub, mapping) for lat, sub, mapping in _retraction_maps()]
    for source, target, mapping in list(cases):
        # one changed image: usually breaks a pair, sometimes the first one
        x = rng.choice(source.elements)
        cases.append((source, target, {**mapping, x: rng.choice(target.elements)}))
    for source in LATTICES:
        for target in LATTICES:
            constant = rng.choice(target.elements)
            cases.append((source, target, {x: constant for x in source.elements}))
            for _ in range(3):
                cases.append((source, target, {x: rng.choice(target.elements) for x in source.elements}))
            order = sorted(target.elements, key=lambda e: len(target.interval(target.bottom, e)))
            cases.append((source, target, {
                x: order[min(len(order) - 1, len(source.interval(source.bottom, x)) - 1)] for x in source.elements
            }))
    source, target = LATTICES[5], LATTICES[7]
    total = {x: target.bottom for x in source.elements}
    cases.append((source, target, {x: v for x, v in total.items() if x != source.top}))
    cases.append((source, target, {**total, source.top: "not-an-element"}))
    return cases


def _flags(f):
    return f.preserves_bounds, f.cover_preserving, f.injective


def test_homomorphism_matches_reference():
    rng = random.Random(20261018)
    cases = _homomorphism_cases(rng)
    accepted = 0
    messages = set()
    flags = set()
    for source, target, mapping in cases:
        expected = _outcome(lambda: _reference_homomorphism(source, target, mapping))
        got = _outcome(lambda: _flags(Homomorphism(source, target, mapping)))
        assert got == expected, (source.elements, target.elements, mapping)
        accepted += expected[0] == "ok"
        messages.add(expected[1].split(" ")[0] if expected[0] != "ok" else "ok")
        flags.add(expected[1] if expected[0] == "ok" else None)
    assert len(cases) > 3000
    assert 500 < accepted < len(cases) - 1000
    assert {"ok", "join", "meet", "mapping", "image"} <= messages
    assert len(flags - {None}) == 6


def _partition_cases(rng):
    cases = []
    for lattice in LATTICES:
        elements = list(lattice.elements)
        for _ in range(12):
            k = rng.randint(1, len(elements))
            labels = {x: rng.randrange(k) for x in elements}
            blocks = {}
            for x in elements:
                blocks.setdefault(labels[x], set()).add(x)
            cases.append((lattice, list(blocks.values())))
        cases.append((lattice, [{x} for x in elements]))
        cases.append((lattice, [set(elements), set()]))
        cases.append((lattice, [set(elements), {elements[0]}]))
        cases.append((lattice, [set(elements[1:])]))
    for lattice, _, mapping in _retraction_maps():
        fibers = {}
        for x, v in mapping.items():
            fibers.setdefault(v, set()).add(x)
        blocks = [frozenset(b) for b in fibers.values()]
        cases.append((lattice, blocks))
        # move one element into another block
        if len(blocks) > 1:
            src, dst = rng.sample(range(len(blocks)), 2)
            x = rng.choice(sorted(blocks[src]))
            moved = [set(b) for b in blocks]
            moved[src].discard(x)
            moved[dst].add(x)
            cases.append((lattice, [b for b in moved if b]))
    return cases


def test_congruence_matches_reference():
    rng = random.Random(7)
    cases = _partition_cases(rng)
    outcomes = set()
    for lattice, blocks in cases:
        expected = _outcome(lambda: _reference_congruence(lattice, blocks))
        got = _outcome(lambda: Congruence(lattice, blocks).blocks)
        assert got == expected, (lattice.elements, blocks)
        if expected[0] == "ok":
            assert [list(b) for b in got[1]] == [list(b) for b in expected[1]]
        outcomes.add(expected[1] if expected[0] != "ok" else "ok")
    assert outcomes == {
        "ok",
        "empty block",
        "blocks overlap",
        "blocks do not partition the lattice",
        "partition is not join-compatible",
        "partition is not meet-compatible",
    }


def test_congruence_generated_by_matches_reference():
    rng = random.Random(11)
    calls = 0
    for lattice in LATTICES:
        elements = lattice.elements
        for _ in range(15):
            pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(rng.randint(0, 3))]
            expected = _reference_congruence_generated_by(lattice, pairs)
            got = congruence_generated_by(lattice, pairs).blocks
            assert got == expected, (elements, pairs)
            assert [list(b) for b in got] == [list(b) for b in expected]
            calls += 1
    assert calls == 15 * len(LATTICES)


def test_principal_congruences_match_reference():
    """Every principal congruence of lattices with many irreducibles and few."""
    lattices = [s7_family(i).lattice for i in range(1, 5)]
    lattices += list(enumerate_distributive_lattices(8))
    calls = 0
    for lattice in lattices:
        elements = lattice.elements
        for i, a in enumerate(elements):
            for b in elements[i + 1 :]:
                got = congruence_generated_by(lattice, [(a, b)]).blocks
                assert got == _reference_congruence_generated_by(lattice, [(a, b)]), (a, b)
                calls += 1
    assert calls == 1136


def test_witness_trace_labels_match_validated_congruences(s7, b2):
    """The congruence trace of `build_witness` reads `_congruence_labels`
    and builds no `Congruence`.  For every trace pair of the 21 slim
    semimodular lattices with 2 to 7 elements, S7, and B2 inside a forked
    3x3 grid, the label blocks are the blocks of the validated congruence,
    and for inputs of at most 5 elements also those of the reference
    closure over full rows."""
    slim_sm = enumerate_small_lattices(7, filters=("slim", "semimodular"))
    small = [lat for lat in slim_sm if len(lat) >= 2]
    assert len(small) == 21
    cell = oriented_grid(3, 3).cells()[4]
    forked = ForkScript((4, 4), ((cell.top, cell.left),))
    cases = [(lat, None) for lat in small] + [(s7, None), (b2, forked)]
    pairs = referenced = 0
    for lattice, script in cases:
        report = build_witness(lattice, script=script)
        ext = report.extension.lattice
        coats = report.inner_coatoms
        assert len(report.congruence_trace) == len(coats) * (len(coats) - 1) // 2
        for a, b in report.congruence_trace:
            label = _congruence_labels(ext, [(ext.index(a), ext.index(b))])
            blocks: dict[int, set[str]] = {}
            for i, x in enumerate(ext.elements):
                blocks.setdefault(label[i], set()).add(x)
            got = tuple(sorted(map(frozenset, blocks.values()), key=min))
            assert got == congruence_generated_by(ext, [(a, b)]).blocks, (a, b)
            assert set(coats) <= next(blk for blk in got if ext.top in blk)
            if len(lattice) <= 5:
                assert got == _reference_congruence_generated_by(ext, [(a, b)]), (a, b)
                referenced += 1
            pairs += 1
    assert (pairs, referenced) == (480, 95)


@pytest.mark.parametrize("pairs", [[("0", "nowhere")], [("nowhere", "0")]])
def test_congruence_generated_by_unknown_element_is_a_key_error(pairs):
    lattice = LATTICES[2]
    with pytest.raises(KeyError) as expected:
        _reference_congruence_generated_by(lattice, pairs)
    with pytest.raises(KeyError) as got:
        congruence_generated_by(lattice, pairs)
    assert got.value.args == expected.value.args


def test_kernel_and_intersection_match_reference():
    for lattice, sub, mapping in _retraction_maps():
        kernel = Homomorphism(lattice, sub, mapping).kernel()
        fibers = {}
        for x, v in mapping.items():
            fibers.setdefault(v, set()).add(x)
        assert kernel.blocks == _reference_congruence(lattice, fibers.values())
        for x in lattice.elements:
            assert kernel.block_of(x) == next(b for b in kernel.blocks if x in b)
            assert kernel.block_of(x) == kernel.block_of(mapping[x])
        full = Congruence(lattice, [set(lattice.elements)])
        assert kernel.intersect(full).blocks == kernel.blocks


def test_intersect_refuses_congruences_of_another_lattice(c2, c3, c4, b2):
    """Only congruences of one lattice intersect: not C3 with C2 either
    way round, nor a chain with the square on the same four ids."""
    square = build_lattice(c4.elements, [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert square.elements == c4.elements and square != c4
    for left, right in ((c3, c2), (c2, c3), (c4, square), (square, c4)):
        theta = Congruence(left, [set(left.elements)])
        diagonal = Congruence(right, [{x} for x in right.elements])
        with pytest.raises(NotACongruence, match="different lattices"):
            theta.intersect(diagonal)
    same = build_lattice(c3.elements, c3.covers)
    theta = Congruence(same, [set(same.elements)])
    assert theta.intersect(Congruence(c3, [{x} for x in c3.elements])).block_count() == 3


# -- homomorphisms onto a sublattice, built from an index map and a closed mask


def test_found_retractions_equal_the_eager_route():
    """On all 4,449 proper sublattice pairs of the lattices with at most 7
    elements, a found retraction answers its mask-read queries without a
    target, and equals the same map built eagerly on every public field."""
    pairs = found = 0
    for lattice in enumerate_small_lattices(7):
        for sub in all_sublattices(lattice):
            if len(sub) == len(lattice):
                continue
            pairs += 1
            hom, _ = search_retraction(lattice, sub)
            if hom is None:
                continue
            found += 1
            assert (hom.is_retraction(), hom.fixes(sub), repr(hom)) == (
                True, True, f"<Homomorphism {len(lattice)}->{len(sub)}>"
            )
            hom.kernel()
            assert "target" not in vars(hom) and "mapping" not in vars(hom)
            eager = Homomorphism(lattice, induced_lattice(lattice, sub), hom.mapping)
            assert homomorphism_fields(hom) == homomorphism_fields(eager), (lattice.covers, sub)
    assert (pairs, found) == (4449, 2251)


def test_check_holds_no_table_copy():
    """Checking the identity of the 500-element chain, whose tables hold
    250,000 entries each, stays under 1 MB of memory above those tables;
    a check that copied both tables into lists would need about 4 MB."""
    ids = [f"{i:03d}" for i in range(500)]
    chain = build_lattice(ids, list(zip(ids, ids[1:])))
    identity = {x: x for x in ids}
    tracemalloc.start()
    try:
        Homomorphism(chain, chain, identity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _index_maps(lattice):
    """Every map of the lattice into itself, as index tuples."""
    return product(range(len(lattice)), repeat=len(lattice))


def _checked_onto(lattice, g, mask):
    _check_onto(lattice, g, mask)
    return Homomorphism._onto_sublattice(lattice, g, mask)


def test_onto_sublattice_refuses_and_accepts_as_the_constructor():
    """Every map of a lattice with at most 4 elements into itself, against
    every sublattice: the private check refuses with the constructor's error,
    or accepts and the private wrapper has the constructor's fields, `fixes`
    and `is_retraction` included."""
    outcomes = Counter()
    for lattice in enumerate_small_lattices(4):
        ids = lattice.elements
        for sub in all_sublattices(lattice):
            mask = _sublattice_mask(lattice, sub)
            target = induced_lattice(lattice, sub)
            for g in _index_maps(lattice):
                mapping = {x: ids[v] for x, v in zip(ids, g)}
                expected = _outcome(lambda: Homomorphism(lattice, target, mapping))
                got = _outcome(lambda: _checked_onto(lattice, g, mask))
                assert got[0] == expected[0] and (got[0] == "ok" or got == expected), (ids, sub, g)
                if got[0] == "ok":
                    hom, eager = got[1], expected[1]
                    assert hom.fixes(sub) == eager.fixes(sub)
                    assert homomorphism_fields(hom) == homomorphism_fields(eager), (ids, sub, g)
                    outcomes["retraction" if eager.is_retraction() else "homomorphism"] += 1
                else:
                    outcomes[expected[1].split(" ")[0]] += 1
    assert set(outcomes) == {"retraction", "homomorphism", "image", "join", "meet"}


def test_search_kernels_keep_the_id_fibers():
    """The kernel of every retraction `checks.retraction_kernels` visits at
    its suite bound has the blocks that grouping ids by image gave, and
    equals, block for block, the validated `Congruence` of those fibers:
    `kernel()` skips that check, which the theorem makes redundant."""
    total = 0
    for lattice in enumerate_small_lattices(5):
        for sub in all_sublattices(lattice):
            hom = search_retraction(lattice, sub)[0]
            if hom is None:
                continue
            total += 1
            fibers = {}
            for x, v in hom.mapping.items():
                fibers.setdefault(v, set()).add(x)
            expected = tuple(frozenset(b) for b in sorted(fibers.values(), key=min))
            kernel = hom.kernel()
            assert kernel.blocks == expected
            validated = Congruence(lattice, fibers.values())
            assert (kernel.blocks, kernel._of) == (validated.blocks, validated._of)
    assert retraction_kernels(5)[0].detail.startswith(f"{total} retraction kernels")


def test_found_retractions_build_their_target_once_when_read(monkeypatch, b3, d5):
    """With no lattice buildable, a search and classify's confirming search
    still answer; the first read of a target then builds one lattice, and a
    second read none."""
    sub = {"0,0,0", "1,0,0", "0,1,0", "1,1,0"}
    expected = classify_absolute_retract(d5, ClassId.dfin(None))
    assert expected.certificate.oracle_confirmed is True

    def refuse(*args):
        raise AssertionError("a lattice was built")

    with monkeypatch.context() as patch:
        for module in (core, morphisms, oracle, retractions):
            if hasattr(module, "_induced"):
                patch.setattr(module, "_induced", refuse)
        patch.setattr(core.FiniteLattice, "__init__", refuse)
        hom, _ = search_retraction(b3, sub)
        assert hom.is_retraction() and hom.fixes(sub)
        assert hom.kernel().is_diagonal_on(sub)
        assert set(hom.mapping.values()) == sub
        assert classify_absolute_retract(d5, ClassId.dfin(None)) == expected

    built = []
    real = core.FiniteLattice.__init__
    monkeypatch.setattr(
        core.FiniteLattice, "__init__", lambda self, *args: built.append(args) or real(self, *args)
    )
    target = hom.target
    assert len(built) == 1
    assert hom.target is target and len(built) == 1
    assert target == induced_lattice(b3, sub)
