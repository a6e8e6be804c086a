"""The library workloads: retract-sweep, certify-search and enumerate.

Each workload function takes the seed and a size table and returns a
:class:`Workload`: the timed items, and a check that turns their results
into a list of failures.  The size tables also carry the expected counts
the checks gate on, so a reduced table can drive the smoke test.  The
seed only shuffles item order or relabels inputs; every count is the same
for every seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import finlat


@dataclass
class Item:
    """One timed call; ``expect`` is whatever its check needs."""

    kind: str
    name: str
    call: Callable[[], object]
    expect: object = None


@dataclass
class Workload:
    items: list[Item]
    # Maps (item, value) pairs of the items that returned to failure messages.
    check: Callable[[list[tuple[Item, object]]], list[str]]
    # Untimed inputs that must yield a report; see cli_corpus.
    probes: list[Item] = field(default_factory=list)


def gate(failures: list[str], sizes: dict, key: str, got):
    """Compare a count with ``sizes[key]``; every ``expect_*`` entry is one gate."""
    if sizes[key] != got:
        failures.append(f"gate {key}: expected {sizes[key]}, got {got}")


# ---------------------------------------------------------------------------
# retract-sweep
# ---------------------------------------------------------------------------

CLASSES = [finlat.ClassId.dfin(1), finlat.ClassId.dfin(2), finlat.ClassId.dfin(3), finlat.ClassId.dfin(None)]


def _dimension(lattice) -> int:
    return 0 if len(lattice) == 1 else finlat.order_dimension(lattice)


def _qualifies(lattice, n) -> bool:
    """The positive side of the classification: boolean, or an n-dimensional grid."""
    if finlat.is_boolean(lattice):
        return True
    factors = finlat.grid_factor_sizes(lattice) if n is not None else None
    return factors is not None and len(factors) == n


def _eligible_classes(lattice):
    dim = _dimension(lattice)
    return [cls for cls in CLASSES if cls.n is None or dim <= cls.n]


def _retract(ambient, sub, cls) -> bool:
    return finlat.retract_onto(ambient, sub, cls).is_retraction()


def _classify(lattice, cls) -> str:
    verdict = finlat.classify_absolute_retract(lattice, cls)
    return "absolute-retract" if verdict.is_absolute_retract else verdict.case


def retract_sweep(seed: int, sizes: dict) -> Workload:
    ambients = list(finlat.enumerate_distributive_lattices(sizes["retract_max"]))
    items = []
    for a, ambient in enumerate(ambients):
        for sub in finlat.all_sublattices(ambient):
            if len(sub) > sizes["sub_max"]:
                continue
            sub_lattice = finlat.induced_lattice(ambient, sub)
            for cls in _eligible_classes(ambient):
                if _qualifies(sub_lattice, cls.n):
                    name = f"retract_onto(D{a}, {sorted(sub)}, {cls})"
                    items.append(Item("retract", name, partial(_retract, ambient, sub, cls)))
    for c, lattice in enumerate(finlat.enumerate_distributive_lattices(sizes["classify_max"])):
        for cls in _eligible_classes(lattice):
            name = f"classify_absolute_retract(D{c}, {cls})"
            items.append(Item("classify", name, partial(_classify, lattice, cls)))
    random.Random(seed).shuffle(items)

    def check(results):
        failures = [f"{item.name} returned a non-retraction" for item, ok in results if item.kind == "retract" and not ok]
        gate(failures, sizes, "expect_lattices", len(ambients))
        gate(failures, sizes, "expect_retractions", sum(1 for item, ok in results if item.kind == "retract" and ok))
        gate(failures, sizes, "expect_verdicts", dict(Counter(case for item, case in results if item.kind == "classify")))
        return failures

    return Workload(items, check)


# ---------------------------------------------------------------------------
# certify-search
# ---------------------------------------------------------------------------


def _both_routes(ambient, sub) -> tuple[bool, bool]:
    """(the two routes agree, a retraction exists)."""
    solution = finlat.solve_equation_system(finlat.build_equation_system(ambient, sub))
    hom, _ = finlat.search_retraction(ambient, sub)
    return (solution is None) == (hom is None), hom is not None


def _witness(lattice) -> bool:
    return finlat.build_witness(lattice).retraction_found


def certify_search(seed: int, sizes: dict) -> Workload:
    lattices = list(finlat.enumerate_small_lattices(sizes["max_size"]))
    items = []
    for a, ambient in enumerate(lattices):
        for sub in finlat.all_sublattices(ambient):
            if len(sub) < len(ambient):
                name = f"retraction onto {sorted(sub)} of L{a}"
                items.append(Item("pair", name, partial(_both_routes, ambient, sub)))
    pairs = len(items)
    slims = [
        lattice
        for lattice in finlat.enumerate_small_lattices(sizes["max_size"], filters=("slim", "semimodular"))
        if len(lattice) >= 2
    ]
    items += [Item("witness", f"build_witness(S{s})", partial(_witness, lat)) for s, lat in enumerate(slims)]
    random.Random(seed).shuffle(items)

    def check(results):
        routes = [(item, value) for item, value in results if item.kind == "pair"]
        failures = [f"{item.name}: equation system and search disagree" for item, (agree, _) in routes if not agree]
        failures += [f"{item.name} found a retraction" for item, found in results
                     if item.kind == "witness" and found is not False]
        gate(failures, sizes, "expect_lattices", len(lattices))
        gate(failures, sizes, "expect_pairs", pairs)
        gate(failures, sizes, "expect_retractable", sum(exists for _, (_, exists) in routes))
        gate(failures, sizes, "expect_slim", len(slims))
        return failures

    return Workload(items, check)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

# Unlabelled distributive lattices (OEIS A006982) and lattices (A006966) by size.
A006982 = (1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151)
A006966 = (1, 1, 1, 2, 5, 15, 53, 222, 1078)


def _m(k: int):
    """The height-2 lattice with k atoms."""
    atoms = [f"a{i}" for i in range(k)]
    return finlat.build_lattice(["0", "1", *atoms], [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def _relabelled(lattice, copies: int, rng):
    """Copies under seeded relabellings whose cover digraphs, on element
    positions in sorted order, differ from each other and from the
    original's, so no copy can reuse a cached canonical key.
    """
    n = len(lattice)
    position = {e: i for i, e in enumerate(lattice.elements)}
    seen = {frozenset((position[lo], position[hi]) for lo, hi in lattice.covers)}
    found = []
    while len(found) < copies:
        order = list(range(n))
        rng.shuffle(order)
        new = {e: order[position[e]] for e in lattice.elements}
        digraph = frozenset((new[lo], new[hi]) for lo, hi in lattice.covers)
        if digraph not in seen:
            seen.add(digraph)
            ids = {e: f"v{new[e]:02d}" for e in lattice.elements}
            found.append(finlat.build_lattice(ids.values(), [(ids[lo], ids[hi]) for lo, hi in lattice.covers]))
    return found


def _size_counts(enumeration, max_size: int) -> tuple[int, ...]:
    counts = Counter(len(lattice) for lattice in enumeration)
    return tuple(counts[n] for n in range(1, max_size + 1))


def enumerate_workload(seed: int, sizes: dict) -> Workload:
    rng = random.Random(seed)
    named = {
        "B3": finlat.make_grid((2, 2, 2)).lattice,
        "B4": finlat.make_grid((2, 2, 2, 2)).lattice,
        **{f"M{k}": _m(k) for k in range(5, 9)},
    }
    d_max, s_max = sizes["distributive_max"], sizes["small_max"]
    items = [
        Item("distributive", f"enumerate_distributive_lattices({d_max})",
             lambda: _size_counts(finlat.enumerate_distributive_lattices(d_max), d_max)),
        Item("small", f"enumerate_small_lattices({s_max})",
             lambda: _size_counts(finlat.enumerate_small_lattices(s_max), s_max)),
    ]
    for name, copies in sizes["isomorphic"].items():
        lattice = named[name]
        for k, copy in enumerate(_relabelled(lattice, copies, rng)):
            items.append(Item("iso", f"is_isomorphic({name}, relabelled {name} #{k})",
                              partial(finlat.is_isomorphic, lattice, copy)))

    def check(results):
        failures = [f"{item.name} is False" for item, same in results if item.kind == "iso" and same is not True]
        by_kind = {item.kind: value for item, value in results}
        gate(failures, sizes, "expect_distributive_counts", by_kind.get("distributive"))
        gate(failures, sizes, "expect_small_counts", by_kind.get("small"))
        return failures

    return Workload(items, check)


# Full sizes and the counts they must produce at the seed commit, plus the
# reduced sizes the smoke test runs.
SIZES = {
    "retract-sweep": {
        "full": {
            "retract_max": 8, "sub_max": 8, "classify_max": 10, "expect_lattices": 36, "expect_retractions": 3313,
            "expect_verdicts": {"absolute-retract": 25, "dimension-bump": 211, "same-dimension": 93},
        },
        "smoke": {
            "retract_max": 5, "sub_max": 4, "classify_max": 6, "expect_lattices": 8, "expect_retractions": 281,
            "expect_verdicts": {"absolute-retract": 16, "dimension-bump": 24, "same-dimension": 5},
        },
    },
    "certify-search": {
        "full": {"max_size": 7, "expect_lattices": 78, "expect_pairs": 4449, "expect_retractable": 2251, "expect_slim": 21},
        "smoke": {"max_size": 5, "expect_lattices": 10, "expect_pairs": 150, "expect_retractable": 120, "expect_slim": 7},
    },
    "enumerate": {
        "full": {
            "distributive_max": 11, "expect_distributive_counts": A006982[:11],
            "small_max": 8, "expect_small_counts": A006966[:8],
            # 109 items, sized so that the median latency is the middle of
            # the 40 M5 tests and the 90th percentile the middle of the 12
            # M7 tests: each percentile is then a median over like calls,
            # not an order statistic between unrelated ones.
            "isomorphic": {"B3": 35, "M5": 40, "M6": 18, "M7": 12, "M8": 1, "B4": 1},
        },
        "smoke": {
            "distributive_max": 7, "expect_distributive_counts": A006982[:7],
            "small_max": 6, "expect_small_counts": A006966[:6],
            "isomorphic": {"B3": 2, "M5": 2},
        },
    },
}

WORKLOADS = {
    "retract-sweep": retract_sweep,
    "certify-search": certify_search,
    "enumerate": enumerate_workload,
}
