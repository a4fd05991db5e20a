"""The two constructive aggregation rules.

Each rule's constraint relation is defined once, as a packed row per
(individual, weak order) in the layout of ``relations.pack``: a mask
expression on the order's packed relation (``relations.mask_relation``). An
aggregate combines the rows of the submitted orders into one packed
constraint and extends it, returning that packed int as its
``StrictDigraph``, and ``properties.verify_rule`` combines the same rows over
every weak order, so aggregation and the exhaustive checks run one definition.

``aggregate_unanimity`` extends the unanimity relation: pair (a, b) is
constrained exactly when everyone who evaluates both strictly agrees. It is
the AND of the ``unanimity_row`` of each submitted order, kept to the
commonly evaluated pairs. The constraint is acyclic whenever the profile
passes the cycle-cover check, and any deterministic linear extension of it
is transitive and Pareto-consistent.

``aggregate_delegation`` decides every commonly evaluated pair through a
single designated individual. Pairs inside a maximal cyclic node set
(including its chords) are delegated to that set's dictator, an individual
who evaluates the whole set; remaining pairs go to the first common evaluator
in input order. Ties of the designated individual fall through to a global
linear tiebreak. The relation is the OR of the ``delegation_row`` of each
submitted order: the order's strict arcs and, on its ties, the tiebreak's,
kept to both arcs of each pair delegated to that individual. Because each
pair's outcome depends only on one fixed individual's restriction to that
pair, the rule is independent of irrelevant alternatives, and its constraint
relation is always acyclic under cycle cover.

Every arbitrary choice is pinned (first eligible individual, smallest
maximal set containing the smallest uncovered node, input-order tiebreak), so
both rules are functions: identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conditions import ConditionViolationError, check_cycle_cover, maximal_cyclic_sets
from .profiles import EvaluabilityProfile, build_union_graph, validate_rankings
from .relations import (
    RankingProfile,
    StrictDigraph,
    WeakOrder,
    is_acyclic,  # unused here, as is linear_extension; bench/tracing.py BINDINGS rebinds both
    linear_extension,
    mask_relation,
    pack,
    packed_linear_extension,
    strictly_above,
)


@dataclass(frozen=True)
class MaximalCycleFamily:
    """Maximal cyclic node sets covering every cycle-touched node.

    ``sets`` are pairwise non-nested node masks, and ``dictators[x]`` is an
    individual whose evaluable set contains ``sets[x]``.
    """

    sets: tuple[int, ...]
    dictators: tuple[int, ...]


@dataclass(frozen=True)
class AggregationResult:
    """Constraint relation, the returned order, and the degenerate flag.

    ``degenerate`` is set when the constraint was cyclic and the fallback
    all-indifferent order was returned; no axiom is promised on that branch.
    """

    constraint: StrictDigraph
    order: WeakOrder
    degenerate: bool


def default_tiebreak(profile: EvaluabilityProfile) -> WeakOrder:
    """Linear tiebreak in alternative input order."""
    return WeakOrder.from_ranking(range(profile.n_alts))


def check_tiebreak(profile: EvaluabilityProfile, tiebreak: WeakOrder | None) -> WeakOrder:
    if tiebreak is None:
        return default_tiebreak(profile)
    if not tiebreak.is_linear or tiebreak.ground != profile.full_mask:
        raise ValueError("tiebreak must be a linear order on all alternatives")
    return tiebreak


def unanimity_row(order: WeakOrder, mask: int, n: int) -> int:
    """One individual's part of the packed unanimity relation.

    The individual evaluates ``mask`` and ranks it by ``order``. Arc (a, b)
    is set unless they evaluate both and do not strictly prefer a to b, so
    the AND over individuals keeps exactly the unanimous strict preferences.
    """
    full = (1 << n) - 1
    above = strictly_above(order, n)
    # an evaluated node b keeps only the nodes ranked above it or unranked
    return pack([full & ~mask | above[b] if mask >> b & 1 else full for b in range(n)], n)


def packed_unanimity(profile: EvaluabilityProfile, rankings: RankingProfile) -> int:
    """The packed unanimity relation of ``rankings``, once they are checked
    against the profile."""
    validate_rankings(profile, rankings)
    n = profile.n_alts
    packed = profile.common_pairs
    for order, mask in zip(rankings.orders, profile.evaluable):
        packed &= unanimity_row(order, mask, n)
    return packed


def unanimity_relation(profile: EvaluabilityProfile, rankings: RankingProfile) -> StrictDigraph:
    """Arc (a, b) iff some individual evaluates both and all such individuals
    strictly prefer a to b."""
    return StrictDigraph(profile.full_mask, packed_unanimity(profile, rankings))


def _extend(profile: EvaluabilityProfile, packed: int, tiebreak: WeakOrder) -> AggregationResult:
    """The aggregate of a packed constraint, degenerate when it is cyclic."""
    constraint = StrictDigraph(profile.full_mask, packed)
    order = packed_linear_extension(packed, profile.n_alts, tiebreak)
    return AggregationResult(constraint, order or WeakOrder((profile.full_mask,)), order is None)


def aggregate_unanimity(
    profile: EvaluabilityProfile,
    rankings: RankingProfile,
    tiebreak: WeakOrder | None = None,
) -> AggregationResult:
    """Extend the unanimity relation to a linear order.

    When the unanimity relation is cyclic (possible only if the cycle-cover
    check fails), returns the all-indifferent order flagged degenerate.
    """
    tb = check_tiebreak(profile, tiebreak)
    return _extend(profile, packed_unanimity(profile, rankings), tb)


def maximal_cycle_family(profile: EvaluabilityProfile) -> MaximalCycleFamily:
    """Deterministic family of maximal cyclic sets with per-set dictators.

    Repeatedly picks the smallest (bitmask order) maximal cyclic set
    containing the smallest not-yet-covered node that lies on some cycle.
    Distinct maximal sets are never nested, and under cycle cover their node
    sets pairwise share at most one node. Raises ConditionViolationError when
    the cycle-cover check fails, carrying the uncovered cycle.
    """
    maximal = maximal_cyclic_sets(build_union_graph(profile))
    # every cyclic set lies in a maximal one, so cover holds exactly when
    # each maximal cyclic set lies inside some evaluable set
    if not all(any(m & ~c == 0 for c in profile.evaluable) for m in maximal):
        raise ConditionViolationError(
            "cycle cover fails; no dictator exists for some cycle",
            cycle=check_cycle_cover(profile).uncovered_cycle,
        )
    cycle_nodes = 0
    for m in maximal:
        cycle_nodes |= m
    sets: list[int] = []
    dictators: list[int] = []
    covered = 0
    while cycle_nodes & ~covered:
        lowest = cycle_nodes & ~covered
        node_bit = lowest & -lowest
        chosen = min(m for m in maximal if m & node_bit)
        sets.append(chosen)
        dictators.append(next(v for v, c in enumerate(profile.evaluable) if chosen & ~c == 0))
        covered |= chosen
    return MaximalCycleFamily(tuple(sets), tuple(dictators))


def pair_delegates(
    profile: EvaluabilityProfile, family: MaximalCycleFamily
) -> dict[tuple[int, int], int]:
    """Designated individual for every commonly evaluated pair (a < b).

    Pairs inside a family set go to its dictator; under cycle cover the
    containing set is unique because set intersections have at most one node.
    Every other pair with a common evaluator goes to the first one in input
    order. The map depends only on the profile and family, never on submitted
    rankings, which is what makes the delegation rule independent of
    irrelevant alternatives.
    """
    owners = tuple(zip(family.sets, family.dictators))
    return {
        (a, b): next((v for s, v in owners if ((1 << a) | (1 << b)) & ~s == 0), evaluators[0])
        for a, b, evaluators in profile.shared_pairs
    }


def delegated_pairs(
    profile: EvaluabilityProfile, delegates: dict[tuple[int, int], int]
) -> list[int]:
    """Per individual, both packed arcs of each pair delegated to them."""
    n = profile.n_alts
    own = [0] * len(profile.evaluable)
    for (a, b), v in delegates.items():
        own[v] |= 1 << b * n + a | 1 << a * n + b
    return own


def delegation_row(order: WeakOrder, own: int, tiebreak: WeakOrder, n: int) -> int:
    """One individual's part of the packed delegation relation: of the arcs
    ``own``, those ``order`` ranks strictly and, on its ties, those of
    ``tiebreak``. Every pair has one delegate, so the rows of a ranking
    profile have disjoint bits."""
    above, below = mask_relation(order, n)
    tb = pack(strictly_above(tiebreak, n), n)
    return own & (above | tb & ~(above | below))


def _packed_delegation(
    profile: EvaluabilityProfile, rankings: RankingProfile, fam: MaximalCycleFamily, tb: WeakOrder
) -> int:
    """The packed delegation relation of ``rankings``, once they are checked
    against the profile: the sum of the disjoint rows."""
    validate_rankings(profile, rankings)
    own = delegated_pairs(profile, pair_delegates(profile, fam))
    return sum(delegation_row(o, p, tb, profile.n_alts) for o, p in zip(rankings.orders, own))


def delegation_relation(
    profile: EvaluabilityProfile,
    rankings: RankingProfile,
    family: MaximalCycleFamily,
    tiebreak: WeakOrder | None = None,
) -> StrictDigraph:
    """One arc per commonly evaluated pair, decided by the designated
    individual with ties resolved by the global tiebreak."""
    packed = _packed_delegation(profile, rankings, family, check_tiebreak(profile, tiebreak))
    return StrictDigraph(profile.full_mask, packed)


def aggregate_delegation(
    profile: EvaluabilityProfile,
    rankings: RankingProfile,
    tiebreak: WeakOrder | None = None,
) -> AggregationResult:
    """Extend the delegation relation to a linear order.

    Requires the cycle-cover check to hold (the family construction raises
    otherwise). The constraint is acyclic under cycle cover; the degenerate
    branch is kept for defensive completeness only.
    """
    tb = check_tiebreak(profile, tiebreak)
    packed = _packed_delegation(profile, rankings, maximal_cycle_family(profile), tb)
    return _extend(profile, packed, tb)
