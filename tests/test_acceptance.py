"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact (combinatorial equality, zero-discrepancy counts);
there are no numeric tolerances to calibrate.  Criteria 1 and 5-9 run the
checks of `finlat.checks`, the code behind `finlat oracle-verify`, with
larger bounds than the command line uses.
"""

import random
from itertools import chain

import pytest

from finlat import (
    ClassId,
    build_lattice,
    build_witness,
    checks,
    classify_absolute_retract,
    enumerate_distributive_lattices,
    enumerate_small_lattices,
    grid_factor_sizes,
    order_dimension,
    retract_onto,
    s7_family,
    search_retraction,
)
from finlat.core import _grid_shape
from finlat.oracle import _mask_to_set, _sublattice_masks
from finlat.retractions import _qualifies

CLASSES = [ClassId.dfin(1), ClassId.dfin(2), ClassId.dfin(3), ClassId.dfin(None)]


def _report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


def _assert_passed(criterion: str, results):
    """Assert every finlat.checks result and print its line."""
    for name, passed, detail in results:
        assert passed, f"{criterion}, {name}: {detail}"
        _report(criterion, f"{name}: {detail}")


@pytest.fixture(scope="module")
def distributive_upto_10():
    return list(enumerate_distributive_lattices(10))


def _dimension(lattice):
    return 0 if len(lattice) == 1 else order_dimension(lattice)


def test_criterion_1_equation_system_matches_retractions():
    _assert_passed("criterion 1", checks.proposition(6))  # |B| <= 6


def test_criterion_2_positive_direction(distributive_upto_10):
    built = 0
    for ambient in distributive_upto_10:
        ambient_dim = _dimension(ambient)
        for mask in _sublattice_masks(ambient):
            if mask.bit_count() > 8:
                continue
            shape = _grid_shape(ambient, mask)  # the eligibility retract_onto decides
            sub = _mask_to_set(ambient, mask)
            for cls in CLASSES:
                if cls.n is not None and ambient_dim > cls.n:
                    continue  # the extension is not in the class
                if not _qualifies(cls, shape):
                    continue
                hom = retract_onto(ambient, sub, cls)
                assert hom.is_retraction(), (ambient, sub, cls)
                built += 1
    # A change to eligibility that narrows the sweep changes this count.
    assert built == 15849
    _report(
        "criterion 2",
        f"{built} constructed retractions verified as homomorphisms fixing the sublattice",
    )


def test_criterion_3_negative_direction():
    refuted = 0
    for lattice in enumerate_distributive_lattices(8):
        lattice_dim = _dimension(lattice)
        for cls in CLASSES:
            if cls.n is not None and lattice_dim > cls.n:
                continue
            if _qualifies(cls, grid_factor_sizes(lattice)):
                continue
            verdict = classify_absolute_retract(lattice, cls)
            assert not verdict.is_absolute_retract
            cert = verdict.certificate
            assert cert.proper and cert.cover01.is_cover01 and cert.cover01.lengths_equal
            image = {verdict.embedding[x] for x in lattice.elements}
            assert search_retraction(verdict.witness, image)[0] is None, (lattice, cls)
            refuted += 1
    assert refuted == 94
    _report(
        "criterion 3",
        f"{refuted} witnesses are proper cover-01 equal-length extensions with no retraction",
    )


def test_criterion_4_slim_semimodular_witnesses():
    checked = 0
    for lattice in enumerate_small_lattices(6, filters=("slim", "semimodular")):
        if len(lattice) < 2:
            continue
        report = build_witness(lattice)
        assert report.retraction_found is False
        checked += 1
    two_chain = build_lattice(["0", "1"], [("0", "1")])
    report = build_witness(two_chain)
    assert report.t == 3
    assert report.extension.lattice == s7_family(3).lattice
    _report(
        "criterion 4",
        f"{checked} slim semimodular lattices (2 <= |L| <= 6) refuted; C2 witness is the t=3 family member",
    )


def test_criterion_5_fork_ground_truth():
    # 100 rounds of one to three forks: at least 100 fork steps
    _assert_passed("criterion 5", checks.forks(random.Random(20260810)))


def test_criterion_6_grid_facts():
    _assert_passed("criterion 6", checks.grid_facts(8))  # distributive lattices <= 8


# every factor tuple (ascending, each factor >= 2) of a grid with at most 16 elements
GRIDS_UPTO_16 = (
    [(k,) for k in range(2, 17)]
    + [(a, b) for a in range(2, 5) for b in range(a, 16 // a + 1)]
    + [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 2, 2)]
)


def test_criterion_7_subgrid_recovery():
    assert len(GRIDS_UPTO_16) == 30
    _assert_passed("criterion 7", checks.subgrid(GRIDS_UPTO_16))


def test_criterion_8_swing_step():
    _assert_passed("criterion 8", checks.swing(4))  # t <= 4


def test_criterion_9_cover01_lemma(distributive_upto_10):
    # inclusions among distributive (hence semimodular) lattices up to 10,
    # then general semimodular pairs from the small enumeration up to 8
    ambients = chain(distributive_upto_10, enumerate_small_lattices(8, filters=("semimodular",)))
    _assert_passed("criterion 9", checks.cover01(ambients))
