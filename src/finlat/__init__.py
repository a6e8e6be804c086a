"""finlat: finite lattice computations.

Validated finite lattices, chain covers and order dimension, grids and
their structure maps, retraction constructions with an absolute-retract
classifier, fork extensions of slim semimodular lattices, and a
brute-force oracle that certifies everything by exhaustion.
"""

from .core import (
    MAX_ELEMENTS,
    Cell,
    CycleDetected,
    FiniteLattice,
    LatticeError,
    NonReducedCovers,
    NotALattice,
    NotASublattice,
    PropertyReport,
    build_lattice,
    check_sublattice,
    classify_properties,
    four_cells,
    grid_factor_sizes,
    induced_lattice,
    is_boolean,
    is_distributive,
    is_semimodular,
    is_slim,
    join_irreducibles,
    lattice_length,
)
from .chains import (
    ChainDecomposition,
    GridEmbedding,
    NotDistributive,
    TrivialLattice,
    grid_embed,
    min_chain_cover,
    order_dimension,
)
from .grids import (
    BooleanInput,
    Grid,
    NotASubgrid,
    TrivialFactor,
    canonical_joinands,
    dimension_bump,
    make_grid,
    recover_subgrid_chains,
)
from .morphisms import Congruence, Homomorphism, congruence_generated_by
from .retractions import (
    ClassId,
    Cover01Report,
    NotEligible,
    NotInClass,
    Verdict,
    WitnessCertificate,
    check_cover01,
    classify_absolute_retract,
    retract_onto,
)
from .oracle import (
    Assignment,
    CeilingExceeded,
    EquationSystem,
    NotProper,
    all_sublattices,
    build_equation_system,
    enumerate_distributive_lattices,
    enumerate_small_lattices,
    find_embedding,
    induced_homomorphism,
    is_isomorphic,
    search_retraction,
    solve_equation_system,
)
from .slim import (
    ForkRecord,
    ForkScript,
    NoRectangularExtensionFound,
    NotA4Cell,
    OrientedLattice,
    TooSmall,
    ValidationFailed,
    WitnessReport,
    add_fork,
    build_slim_rectangular,
    build_witness,
    find_rectangular_extension,
    inner_coatoms,
    oriented_grid,
    s7_family,
)

__version__ = "0.1.0"
