import itertools

import pytest

from rankagg import relations
from rankagg.aggregators import (
    aggregate_delegation,
    aggregate_unanimity,
    delegated_pairs,
    delegation_relation,
    delegation_row,
    maximal_cycle_family,
    pair_delegates,
    unanimity_relation,
    unanimity_row,
)
from rankagg.census import evaluable_masks
from rankagg.conditions import ConditionViolationError, check_cycle_cover, classify, cyclic_rankings
from rankagg.profiles import ProfileError, build_profile
from rankagg.relations import (
    RankingProfile,
    WeakOrder,
    bits,
    mask_of,
    strict_part,
    weak_orders_on,
)

from helpers import (
    all_profiles_masks,
    as_sequence,
    common_evaluators,
    extends,
    profile_from_masks,
    reference_delegated_pairs,
    reference_delegation_row,
    reference_unanimity_row,
)

EXAMPLE_ARCS = frozenset({
    (1, 3), (1, 0), (1, 2), (3, 0), (3, 2),
    (0, 2), (4, 5), (4, 3), (5, 3), (6, 5),
})


@pytest.fixture
def example():
    return build_profile(
        ["a1", "a2", "a3", "a4", "a5", "a6", "a7"],
        ["v1", "v2", "v3"],
        {
            "v1": ["a1", "a2", "a3", "a4"],
            "v2": ["a4", "a5", "a6"],
            "v3": ["a6", "a7"],
        },
    )


@pytest.fixture
def example_rankings():
    return RankingProfile((
        WeakOrder.from_ranking([1, 3, 0, 2]),  # a2, a4, a1, a3
        WeakOrder.from_ranking([4, 5, 3]),     # a5, a6, a4
        WeakOrder.from_ranking([6, 5]),        # a7, a6
    ))


def _all_complete(n, orders):
    names = [f"a{i}" for i in range(n)]
    profile = build_profile(
        names, [f"v{i}" for i in range(len(orders))],
        {f"v{i}": names for i in range(len(orders))},
    )
    return profile, RankingProfile(tuple(WeakOrder.from_ranking(o) for o in orders))


# -- unanimity relation ------------------------------------------------------


def test_example_unanimity_arcs(example, example_rankings):
    # every commonly evaluated pair has exactly one evaluator here
    assert unanimity_relation(example, example_rankings).arcs == EXAMPLE_ARCS


def test_opposite_complete_orders_cancel():
    profile, rankings = _all_complete(3, [(0, 1, 2), (2, 1, 0), (0, 1, 2)])
    assert unanimity_relation(profile, rankings).arcs == frozenset()


def test_shared_order_is_reproduced():
    profile, rankings = _all_complete(3, [(2, 0, 1)] * 3)
    got = unanimity_relation(profile, rankings)
    assert got.arcs == strict_part(WeakOrder.from_ranking((2, 0, 1))).arcs


def test_mismatched_grounds_rejected(example):
    bad = RankingProfile((
        WeakOrder.from_ranking([1, 3, 0]),
        WeakOrder.from_ranking([4, 5, 3]),
        WeakOrder.from_ranking([6, 5]),
    ))
    with pytest.raises(ProfileError):
        unanimity_relation(example, bad)


# -- unanimity extension rule ------------------------------------------------


def test_example_unanimity_aggregate(example, example_rankings):
    result = aggregate_unanimity(example, example_rankings)
    assert not result.degenerate
    assert extends(result.order, result.constraint)
    assert as_sequence(result.order) == (1, 4, 6, 5, 3, 0, 2)


def test_unanimous_profile_returns_shared_order():
    profile, rankings = _all_complete(3, [(2, 0, 1)] * 3)
    result = aggregate_unanimity(profile, rankings)
    assert as_sequence(result.order) == (2, 0, 1)


def test_cycle_witness_degenerates_unanimity_rule():
    peer = build_profile(
        ["1", "2", "3"], ["1", "2", "3"],
        {"1": ["2", "3"], "2": ["1", "3"], "3": ["1", "2"]},
    )
    witness = cyclic_rankings(peer, classify(peer).cycle_cover.uncovered_cycle)
    result = aggregate_unanimity(peer, witness.rankings)
    assert result.degenerate
    assert result.order.tiers == (0b111,)


def test_degenerate_unanimity_aggregate_searches_no_cycle(monkeypatch):
    # the cyclic constraint is refused by the packed extension alone
    peer = build_profile(
        ["1", "2", "3"], ["1", "2", "3"],
        {"1": ["2", "3"], "2": ["1", "3"], "3": ["1", "2"]},
    )
    witness = cyclic_rankings(peer, classify(peer).cycle_cover.uncovered_cycle)

    def refuse(digraph):
        raise AssertionError("the aggregate searched for a cycle")

    monkeypatch.setattr(relations, "is_acyclic", refuse)
    result = aggregate_unanimity(peer, witness.rankings)
    assert result.degenerate
    assert result.order.tiers == (0b111,)
    assert result.constraint == unanimity_relation(peer, witness.rankings)


# -- maximal cycle family ----------------------------------------------------


def test_example_family(example):
    family = maximal_cycle_family(example)
    assert family.sets == (mask_of([0, 1, 2, 3]), mask_of([3, 4, 5]))
    assert family.dictators == (0, 1)


def test_family_of_acyclic_graph_is_empty():
    profile = build_profile(
        ["a", "b", "c"], ["v1", "v2", "v3"],
        {"v1": ["a", "b"], "v2": ["b", "c"], "v3": ["a", "b"]},
    )
    family = maximal_cycle_family(profile)
    assert family.sets == ()


def test_family_of_complete_individual_profile_spans_everything():
    profile = build_profile(
        ["a", "b", "c"], ["v1", "v2", "v3"],
        {"v1": ["a", "b"], "v2": ["a", "b", "c"], "v3": ["b", "c"]},
    )
    family = maximal_cycle_family(profile)
    assert family.sets == (0b111,)
    assert family.dictators == (1,)


def test_family_requires_cycle_cover():
    peer = build_profile(
        ["1", "2", "3"], ["1", "2", "3"],
        {"1": ["2", "3"], "2": ["1", "3"], "3": ["1", "2"]},
    )
    with pytest.raises(ConditionViolationError) as err:
        maximal_cycle_family(peer)
    assert err.value.cycle == (0, 1, 2)


def _family_invariants(profile):
    from rankagg.profiles import build_union_graph
    from rankagg.conditions import maximal_cyclic_sets

    family = maximal_cycle_family(profile)
    maximal = set(maximal_cyclic_sets(build_union_graph(profile)))
    cycle_nodes = 0
    for m in maximal:
        cycle_nodes |= m
    # (i) pairwise non-nested, (ii) together they cover every cycle node
    for x, y in itertools.combinations(family.sets, 2):
        assert x & ~y and y & ~x
    covered = 0
    for m in family.sets:
        assert m in maximal
        covered |= m
    assert covered == cycle_nodes
    # dictators cover their sets
    for m, v in zip(family.sets, family.dictators):
        assert m & ~profile.evaluable[v] == 0
    # node overlaps of at most one, so no two cycles can share an edge
    for x, y in itertools.combinations(family.sets, 2):
        assert (x & y).bit_count() <= 1
        clique_x = {frozenset(p) for p in itertools.combinations(sorted(bits(x)), 2)}
        clique_y = {frozenset(p) for p in itertools.combinations(sorted(bits(y)), 2)}
        assert not clique_x & clique_y


def test_family_invariants_exhaustive_small(example):
    _family_invariants(example)
    for n_alts, n_inds in ((3, 3), (4, 3)):
        for masks in all_profiles_masks(n_alts, n_inds):
            profile = profile_from_masks(n_alts, masks)
            if check_cycle_cover(profile).holds:
                _family_invariants(profile)


# -- pair delegation ---------------------------------------------------------


def test_example_delegation_map(example):
    family = maximal_cycle_family(example)
    delegates = pair_delegates(example, family)
    within_first = {(a, b) for a, b in itertools.combinations(range(4), 2)}
    for pair in within_first:
        assert delegates[pair] == 0
    for pair in ((3, 4), (3, 5), (4, 5)):
        assert delegates[pair] == 1
    assert delegates[(5, 6)] == 2
    assert (0, 6) not in delegates


def test_delegation_totality():
    for n_alts, n_inds in ((3, 3), (4, 3)):
        for masks in all_profiles_masks(n_alts, n_inds):
            profile = profile_from_masks(n_alts, masks)
            if not check_cycle_cover(profile).holds:
                continue
            delegates = pair_delegates(profile, maximal_cycle_family(profile))
            for a, b in itertools.combinations(range(profile.n_alts), 2):
                shared = common_evaluators(profile, a, b)
                if shared:
                    v = delegates[(a, b)]
                    assert v in shared
                else:
                    assert (a, b) not in delegates


# -- delegation relation and rule --------------------------------------------


def test_example_delegation_arcs(example, example_rankings):
    family = maximal_cycle_family(example)
    got = delegation_relation(example, example_rankings, family)
    assert got.arcs == EXAMPLE_ARCS


def test_indifferent_dictator_falls_to_tiebreak(example):
    rankings = RankingProfile((
        WeakOrder((mask_of([0, 1, 2, 3]),)),  # v1 fully indifferent
        WeakOrder.from_ranking([4, 5, 3]),
        WeakOrder.from_ranking([6, 5]),
    ))
    family = maximal_cycle_family(example)
    got = delegation_relation(example, rankings, family)
    for a, b in itertools.combinations(range(4), 2):
        assert (a, b) in got.arcs  # input-order tiebreak


def test_no_common_evaluator_pair_has_no_arc(example, example_rankings):
    family = maximal_cycle_family(example)
    got = delegation_relation(example, example_rankings, family)
    for a, b in ((0, 6), (1, 6), (2, 6), (0, 4), (3, 6)):
        assert (a, b) not in got.arcs and (b, a) not in got.arcs


def test_example_delegation_aggregate(example, example_rankings):
    result = aggregate_delegation(example, example_rankings)
    assert not result.degenerate
    assert result.constraint.arcs == EXAMPLE_ARCS
    assert extends(result.order, result.constraint)
    assert as_sequence(result.order) == (1, 4, 6, 5, 3, 0, 2)
    # a hand-picked alternative sequence is another valid extension
    assert extends(WeakOrder.from_ranking([1, 4, 6, 5, 3, 0, 2]), result.constraint)


def test_delegation_rule_on_impossible_profile_raises():
    peer = build_profile(
        ["1", "2", "3"], ["1", "2", "3"],
        {"1": ["2", "3"], "2": ["1", "3"], "3": ["1", "2"]},
    )
    rankings = RankingProfile((
        WeakOrder.from_ranking([1, 2]),
        WeakOrder.from_ranking([0, 2]),
        WeakOrder.from_ranking([0, 1]),
    ))
    with pytest.raises(ConditionViolationError):
        aggregate_delegation(peer, rankings)


def test_complete_dictator_always_reproduced_at_three_alternatives():
    profile = build_profile(
        ["a", "b", "c"], ["v1", "v2", "v3"],
        {"v1": ["a", "b", "c"], "v2": ["a", "b"], "v3": ["b", "c"]},
    )
    family = maximal_cycle_family(profile)
    assert family.sets == (0b111,) and family.dictators == (0,)
    spaces = [weak_orders_on(m) for m in profile.evaluable]
    for combo in itertools.product(*spaces):
        rankings = RankingProfile(combo)
        result = aggregate_delegation(profile, rankings)
        ranks = result.order.ranks
        chief = rankings.orders[0]
        for a, b in itertools.combinations(range(3), 2):
            if chief.prefers(a, b):
                assert ranks[a] < ranks[b]
            elif chief.prefers(b, a):
                assert ranks[b] < ranks[a]


def test_all_indifferent_rankings_follow_tiebreak(example):
    rankings = RankingProfile((
        WeakOrder((example.evaluable[0],)),
        WeakOrder((example.evaluable[1],)),
        WeakOrder((example.evaluable[2],)),
    ))
    result = aggregate_delegation(example, rankings)
    assert not result.degenerate
    # with everyone indifferent, every decided pair follows the tiebreak,
    # so the extension is the tiebreak order itself
    assert as_sequence(result.order) == tuple(range(7))
    rerun = aggregate_delegation(example, rankings)
    assert rerun == result


def test_reversed_tiebreak_changes_only_undetermined_pairs(example, example_rankings):
    reverse = WeakOrder.from_ranking(range(6, -1, -1))
    result = aggregate_delegation(example, example_rankings, tiebreak=reverse)
    assert result.constraint.arcs == EXAMPLE_ARCS  # linear inputs: no ties to break
    assert extends(result.order, result.constraint)


# -- cross-rule containment ---------------------------------------------------


def test_unanimity_contained_in_delegation():
    for masks in all_profiles_masks(3, 3):
        profile = profile_from_masks(3, masks)
        if not check_cycle_cover(profile).holds:
            continue
        family = maximal_cycle_family(profile)
        spaces = [weak_orders_on(m) for m in profile.evaluable]
        for combo in itertools.product(*spaces):
            rankings = RankingProfile(combo)
            star = unanimity_relation(profile, rankings)
            dstar = delegation_relation(profile, rankings, family)
            assert star.arcs <= dstar.arcs
            # hence any delegation output extends the unanimity constraint
            out = aggregate_delegation(profile, rankings)
            assert extends(out.order, star)


# -- packed rows against their loop references ---------------------------------

TIEBREAKS = {"identity": tuple(range(5)), "reversed": tuple(range(4, -1, -1))}


def both_arcs(pairs, n):
    return sum(1 << b * n + a | 1 << a * n + b for a, b in pairs)


@pytest.mark.parametrize("tiebreak", TIEBREAKS.values(), ids=TIEBREAKS.keys())
def test_rows_equal_the_loops_on_every_weak_order_of_five_alternatives(tiebreak):
    n = 5
    tb = WeakOrder.from_ranking(tiebreak)
    for mask in evaluable_masks(n):
        pairs = list(itertools.combinations(bits(mask), 2))
        for order in weak_orders_on(mask):
            assert unanimity_row(order, mask, n) == reference_unanimity_row(order, mask, n)
            expected = reference_delegation_row(order, pairs, tb, n)
            assert delegation_row(order, both_arcs(pairs, n), tb, n) == expected


@pytest.mark.parametrize("tiebreak", TIEBREAKS.values(), ids=TIEBREAKS.keys())
def test_delegation_rows_equal_the_loops_on_every_four_three_delegate_map(tiebreak):
    n = 4
    tb = WeakOrder.from_ranking(x for x in tiebreak if x < n)
    checked = 0
    for masks in itertools.combinations_with_replacement(evaluable_masks(n), 3):
        profile = profile_from_masks(n, masks)
        if not check_cycle_cover(profile).holds:
            continue
        delegates = pair_delegates(profile, maximal_cycle_family(profile))
        own = delegated_pairs(profile, delegates)
        pairs = reference_delegated_pairs(profile, delegates)
        assert own == [both_arcs(p, n) for p in pairs]
        for v, mask in enumerate(profile.evaluable):
            for order in weak_orders_on(mask):
                expected = reference_delegation_row(order, pairs[v], tb, n)
                assert delegation_row(order, own[v], tb, n) == expected
        checked += 1
    assert checked == 218  # of the 286 multisets, 68 are IP
