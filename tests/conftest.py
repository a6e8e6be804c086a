import gc

import pytest

from finlat import build_lattice, make_grid
from finlat.core import _sublattice_mask
from finlat.oracle import _search

# Grids whose every sublattice the closed-form retractions and subgrid
# recovery are compared on against their congruence-built references.
REFERENCE_GRID_SIZES = [
    (2, 2), (3, 2), (4, 2), (3, 3), (2, 2, 2), (4, 3), (2, 2, 3), (4, 4), (2, 2, 2, 2),
]

def homomorphism_fields(hom):
    """Every public field of a homomorphism, the target's tables included."""
    target = hom.target
    return (
        (target.elements, target.covers, target._join, target._meet),
        hom.mapping,
        hom.preserves_bounds,
        hom.cover_preserving,
        hom.injective,
        hom.is_retraction(),
        hom.kernel().blocks,
        repr(hom),
    )


def count_retractions(lattice, sub):
    """The exact number of retractions onto a sublattice, by the oracle's search."""
    return _search(lattice, _sublattice_mask(lattice, sub), count_all=True)[1]


def _leaves_no_cycles(call) -> int:
    """Objects the collector finds unreachable after one call, run with the collector off.

    One call first warms any lazy set-up, so the count is that of every later call.
    """
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


S7_ELEMENTS = ["0", "u", "v", "l", "m", "r", "1"]
S7_COVERS = [
    ("0", "u"), ("0", "v"), ("u", "l"), ("u", "m"), ("v", "m"), ("v", "r"),
    ("l", "1"), ("m", "1"), ("r", "1"),
]


@pytest.fixture
def c2():
    return build_lattice(["0", "1"], [("0", "1")])


@pytest.fixture
def c3():
    return build_lattice(["0", "a", "1"], [("0", "a"), ("a", "1")])


@pytest.fixture
def c4():
    return build_lattice(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])


@pytest.fixture
def c5():
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "c"), ("c", "1")],
    )


@pytest.fixture
def b2():
    return make_grid((2, 2)).lattice


@pytest.fixture
def b3():
    return make_grid((2, 2, 2)).lattice


@pytest.fixture
def s7():
    return build_lattice(S7_ELEMENTS, S7_COVERS)


@pytest.fixture
def d5():
    """The four-element boolean lattice with a new top."""
    return build_lattice(
        ["0", "p", "q", "1", "t"],
        [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1"), ("1", "t")],
    )


@pytest.fixture
def grid32():
    return make_grid((3, 2))


@pytest.fixture
def grid33():
    return make_grid((3, 3))
