"""Exact graph-invariant toolkit and verification harness.

Library layers:

- graphs / codec / generators / corpus: types, formats, families, exhaustive
  small-graph enumeration
- invariants / treedepth / coloring: exact solvers with independently
  checkable certificates
- certify: the certificate validators, which import no solver
- minors / holes / homomorphism: shallow topological minors, chordless-cycle
  machinery, digraph homomorphism dualities
- suites / cli: the claim-verification harness and its command-line front end
"""

from .errors import (
    BudgetError,
    ChiboundError,
    ParameterError,
    ParseError,
    SizeCapError,
    ValidationError,
    WalkLoopError,
)
from .graphs import (
    Digraph,
    Graph,
    acyclic_orientation,
    blow_up,
    disjoint_union,
    induced_subgraph,
    is_connected,
    orientations,
    power,
    subdivide_exact,
)
from .codec import (
    parse_digraph,
    parse_graph,
    serialize_digraph,
    serialize_graph,
)
from .generators import SplitMix64, generate, mycielskian
from .invariants import (
    InvariantResult,
    average_degree,
    biclique_number,
    clique_number,
    degeneracy,
    max_degree,
)
from .treedepth import EliminationForest
from .coloring import (
    Coloring,
    chi_p,
    chromatic_number,
    product_chi_p_coloring,
    subdivision_chi_p_coloring,
    tree_depth,
    tree_depth_at_most,
    uniform_subdivision_coloring,
)
from .minors import (
    TopoMinorEmbedding,
    chi_TM,
    enumerate_ITM_exact,
    find_subdivided_clique,
    find_topo_embedding,
    is_induced_exact_subdivision,
    omega_TM,
)
from .holes import (
    count_holes,
    enumerate_holes,
    is_even_hole_free,
    verify_hole_density,
)
from .homomorphism import (
    DualityReport,
    homomorphism,
    symmetric_digraph,
    transitive_tournament,
    verify_restricted_dual,
    walk_power,
)
from .certify import (
    validate_coloring,
    validate_elimination_forest,
    validate_topo_embedding,
)
from .suites import SuiteSpec, VerificationReport, run_all, run_suite

__version__ = "0.1.0"
