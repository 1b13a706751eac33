"""Growth, folding, and mapping-torus toolkit for free-group maps.

The pieces, bottom up: reduced words and cyclic words (``words``),
folded subgroup graphs (``folding``), endomorphisms and certified
automorphisms (``automorphisms``), certified and heuristic growth
classification (``growth``), the free-by-cyclic mapping torus and its
fiber intersections (``mapping_torus``), graphs of groups fixed by a
map and the induced torus splittings (``splittings``), Cayley balls
and a divergence probe (``geometry``), plus a CLI (``cli``).
"""

from .automorphisms import (
    Automorphism,
    Endomorphism,
    NotInvariantError,
    NotSurjectiveError,
    certify_automorphism,
    compose,
    identity_automorphism,
    inner_automorphism,
    parse_automorphism,
    parse_endomorphism,
    power as map_power,
    restrict,
)
from .folding import (
    StallingsGraph,
    double_coset_contains,
    full_group,
    intersect,
    is_invariant,
    stallings_graph,
    subgroup_equal,
    trivial_subgroup,
    witnessed_graph,
)
from .geometry import (
    BallGraph,
    BudgetExceededError,
    DivergenceReport,
    cayley_ball,
    divergence_estimate,
    free_times_z_ball_size,
)
from .growth import (
    Certificate,
    GrowthParams,
    GrowthReport,
    classify_growth,
    length_sequence,
    no_cancellation_certificate,
    scc_polynomial_degree,
    spectral_radius,
    transition_matrix,
)
from .mapping_torus import (
    FiberIntersection,
    TorusElement,
    TorusGroup,
    UnstabilizedError,
    fiber_intersection,
    torus_group,
)
from .splittings import (
    FixedSplittingWitness,
    GogEdge,
    GogVertex,
    GraphOfGroups,
    Hierarchy,
    HierarchyNode,
    SplittingViolation,
    TorusSplitting,
    hierarchy_depth,
    induce_hierarchy,
    induce_torus_splitting,
    is_complete,
    parse_hierarchy,
    parse_splitting,
    validate_hierarchy,
    validate_splitting,
    verify_fixed,
)
from .words import (
    Basis,
    BasisMismatchError,
    CyclicWord,
    VerificationError,
    Word,
    WordSyntaxError,
    basis,
    cyclic_reduce,
    cyclic_word,
    translation_length,
)

__version__ = "0.1.0"
