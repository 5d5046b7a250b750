"""infowalk: two-party protocols as random walks over input distributions.

Protocol trees, transcript laws, information/concealed-information costs,
the buzzer construction for AND with its stability potential, set
disjointness built from one-sided AND blocks, trivial-measure detection,
and the cost-maximization / error-tradeoff experiments.
"""

__version__ = "0.1.0"

from .distributions import (  # noqa: F401
    Decomposition,
    EntropyProfile,
    JointDistribution,
    ProductDistribution,
    binary_entropy,
    entropy_profile,
    odot,
    symmetric_decomposition,
    truncated_entropy,
)
from .errors import (  # noqa: F401
    DecompositionError,
    DecompositionMismatchError,
    DistributionError,
    InfowalkError,
    ParseError,
    PreconditionError,
    ProtocolError,
    ResourceCapError,
    ShapeMismatchError,
    UndefinedProductError,
)
from .protocol import (  # noqa: F401
    ALICE,
    BOB,
    ErrorReport,
    Internal,
    Leaf,
    ProtocolTree,
    Task,
    WalkStep,
    apply_signal,
    evaluate_error,
    evaluate_error_law,
    mix_with_abort,
    tree_from_json,
    tree_to_json,
    walk,
)
from .infocost import (  # noqa: F401
    CostReport,
    TranscriptLaw,
    cost_report,
    external_ic,
    internal_ic,
    law_of,
    pretend_step,
    sim,
)
from .and_protocols import (  # noqa: F401
    AND_TABLE,
    BuzzerLeafLaw,
    GridWalkSpec,
    buzzer_grid_tree,
    buzzer_leaf_law,
    complete_to_zero_error,
    flip_transform,
    flip_tree,
    grid_law_kolmogorov,
    grid_leaf_law,
    ic_and_zero,
    one_sided_and,
    potential_of_tree,
    potential_phi_closed,
    sim_and_zero,
    sim_and_zero_d2p,
)
from .disjointness import (  # noqa: F401
    DisjAudit,
    DisjBoundCurve,
    DisjBoundPoint,
    DisjInstance,
    HARDEST_ZERO_DIAG_PRIOR,
    disj_bound_curve,
    disj_error_audit,
    disj_ic_exact,
    disj_protocol,
    disj_table,
)
from .trivial import (  # noqa: F401
    Block,
    is_structurally_external_trivial,
    is_structurally_internal_trivial,
    trivial_witness_protocol,
)
from .optimize import (  # noqa: F401
    FULL_SUPPORT,
    OptResult,
    RefinementStep,
    TradeoffPoint,
    XorPoint,
    XorSearchResult,
    ZERO_AT_11,
    and_tradeoff_curve,
    maximize_ic_and,
    xor_diag_prior,
    xor_external_experiment,
    xor_floor_search,
)
