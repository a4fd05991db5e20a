"""rankagg: aggregating rankings submitted over partial evaluable sets.

The library classifies evaluability profiles (who can rank what) by the
cycle structure of the co-evaluation graph, provides two deterministic
aggregation rules whose guarantees depend on that structure, verifies rule
axioms by exhaustive enumeration at desk scale, and censuses profile spaces
exactly.
"""

from .aggregators import (
    AggregationResult,
    MaximalCycleFamily,
    aggregate_delegation,
    aggregate_unanimity,
    default_tiebreak,
    delegation_relation,
    maximal_cycle_family,
    pair_delegates,
    unanimity_relation,
)
from .census import (
    CensusBudgetError,
    CensusReport,
    census_brute,
    census_symmetric,
    dp_proportion,
    dp_proportion_grid,
    evaluable_masks,
    evaluable_set_count,
    format_proportion,
    render_grid,
)
from .conditions import (
    DP,
    IP,
    PP,
    ConditionViolationError,
    CycleCoverCheck,
    CyclicRankings,
    ProfileClassification,
    SpanningCycleCheck,
    check_cycle_cover,
    check_spanning_cycle_free,
    classify,
    cyclic_rankings,
    maximal_cyclic_sets,
)
from .profiles import (
    EvaluabilityProfile,
    ProfileError,
    UnionGraph,
    build_profile,
    build_union_graph,
    complete_individuals,
    validate_rankings,
)
from .properties import (
    AXIOM_IDS,
    AxiomVerdict,
    BudgetExceededError,
    Counterexample,
    PropertyReport,
    enumerate_rankings,
    make_rule,
    ranking_space_size,
    replay,
    verify_rule,
)
from .relations import (
    CyclicRelationError,
    RankingProfile,
    StrictDigraph,
    WeakOrder,
    enumerate_weak_orders,
    is_acyclic,
    linear_extension,
    ordered_bell,
    strict_part,
    weak_orders_on,
)

__version__ = "0.1.0"
