import itertools
import random
from collections import Counter

import pytest

from rankagg import conditions
from rankagg.census import evaluable_masks
from rankagg.conditions import (
    DP,
    IP,
    PP,
    ConditionViolationError,
    check_cycle_cover,
    check_spanning_cycle_free,
    classify,
    cyclic_rankings,
    maximal_cyclic_sets,
)
from rankagg.profiles import (
    ProfileError,
    build_profile,
    build_union_graph,
    complete_individuals,
)
from rankagg.relations import bits, is_acyclic, mask_of
from rankagg.aggregators import unanimity_relation

from helpers import (
    all_profiles_masks,
    as_sequence,
    distinct_clique_families,
    first_spanning_cycle,
    has_edge,
    is_cyclic_subset,
    naive_cycle_cover,
    naive_hamiltonian,
    profile_from_masks,
    random_profile,
)


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
def peer_rating():
    return build_profile(
        ["1", "2", "3"],
        ["1", "2", "3"],
        {"1": ["2", "3"], "2": ["1", "3"], "3": ["1", "2"]},
    )


def _complete_profile(n=3):
    names = [f"a{i}" for i in range(n)]
    return build_profile(
        names, ["v1", "v2", "v3"],
        {"v1": names, "v2": names[:2], "v3": names[-2:]},
    )


# -- cyclic subsets ----------------------------------------------------------


def test_example_clique_subset_is_cyclic(example):
    graph = build_union_graph(example)
    assert is_cyclic_subset(graph, mask_of([0, 1, 2, 3]))


def test_two_element_subsets_are_never_cyclic(example):
    graph = build_union_graph(example)
    assert not is_cyclic_subset(graph, mask_of([5, 6]))


def test_chorded_four_cycle_is_cyclic():
    profile = build_profile(
        ["1", "2", "3", "4"], ["u", "w", "x"],
        {"u": ["1", "2", "3"], "w": ["1", "3", "4"], "x": ["1", "2", "3"]},
    )
    graph = build_union_graph(profile)
    # edges 12, 23, 34, 41 close a cycle through all four nodes
    assert is_cyclic_subset(graph, 0b1111)


def test_maximal_cyclic_sets_example(example):
    graph = build_union_graph(example)
    assert maximal_cyclic_sets(graph) == (mask_of([0, 1, 2, 3]), mask_of([3, 4, 5]))


# -- cycle cover -------------------------------------------------------------


def test_complete_individual_implies_cover():
    result = check_cycle_cover(_complete_profile())
    assert result.holds


def test_peer_rating_cover_fails_with_triangle(peer_rating):
    result = check_cycle_cover(peer_rating)
    assert not result.holds
    assert result.uncovered_cycle == (0, 1, 2)


def test_example_cover_certificate(example):
    result = check_cycle_cover(example)
    assert result.holds
    assert result.certificate == ((mask_of([0, 1, 2, 3]), 0), (mask_of([3, 4, 5]), 1))


def test_uncovered_cycle_witness_revalidates(peer_rating):
    result = check_cycle_cover(peer_rating)
    graph = build_union_graph(peer_rating)
    cycle = result.uncovered_cycle
    for i, a in enumerate(cycle):
        assert has_edge(graph, a, cycle[(i + 1) % len(cycle)])
    covered = mask_of(cycle)
    assert not any(covered & ~c == 0 for c in peer_rating.evaluable)


# -- spanning cycle ----------------------------------------------------------


def test_complete_profile_has_spanning_cycle():
    result = check_spanning_cycle_free(_complete_profile())
    assert not result.holds
    assert result.cycle is not None


def test_example_is_spanning_cycle_free(example):
    assert check_spanning_cycle_free(example).holds


def test_forest_profile_is_spanning_cycle_free():
    profile = build_profile(
        ["a", "b", "c"], ["v1", "v2", "v3"],
        {"v1": ["a", "b"], "v2": ["b", "c"], "v3": ["a", "b"]},
    )
    assert check_spanning_cycle_free(profile).holds


def test_spanning_cycle_matches_permutation_oracle():
    rng = random.Random(42)
    for _ in range(300):
        profile = random_profile(rng, rng.choice([3, 4, 5]))
        graph = build_union_graph(profile)
        got = check_spanning_cycle_free(profile)
        assert got.holds != naive_hamiltonian(graph.adjacency, profile.n_alts)
        if got.cycle is not None:
            for i, a in enumerate(got.cycle):
                assert has_edge(graph, a, got.cycle[(i + 1) % len(got.cycle)])
            assert mask_of(got.cycle) == graph.nodes


# -- classification ----------------------------------------------------------


def test_three_two_sets_profile_is_impossible():
    profile = build_profile(
        ["a", "b", "c"], ["v1", "v2", "v3"],
        {"v1": ["a", "b"], "v2": ["a", "c"], "v3": ["b", "c"]},
    )
    assert classify(profile).verdict == IP


def test_complete_individual_profile_is_dictatorship():
    clf = classify(_complete_profile())
    assert clf.verdict == DP
    assert clf.complete_individual == 0


def test_example_is_possible(example):
    clf = classify(example)
    assert clf.verdict == PP
    assert clf.complete_individual is None
    assert check_spanning_cycle_free(example).holds


def test_two_clique_regression_is_impossible():
    # every induced cycle is covered, but the chorded 4-cycle is not;
    # screening induced cycles only would wrongly report coverage here
    profile = build_profile(
        ["1", "2", "3", "4"], ["u", "w", "x"],
        {"u": ["1", "2", "3"], "w": ["1", "3", "4"], "x": ["1", "2", "3"]},
    )
    triangles = [m for m in maximal_cyclic_sets(build_union_graph(profile)) if m.bit_count() == 3]
    for triangle in triangles:
        assert any(triangle & ~c == 0 for c in profile.evaluable)
    clf = classify(profile)
    assert clf.verdict == IP
    assert mask_of(clf.cycle_cover.uncovered_cycle) == 0b1111


def test_classification_truth_table_across_enumerated_spaces():
    # DP exactly when a complete individual exists
    for n_alts, n_inds in ((3, 3), (3, 4), (4, 3)):
        for masks in all_profiles_masks(n_alts, n_inds):
            profile = profile_from_masks(n_alts, masks)
            clf = classify(profile)
            assert (clf.verdict == DP) == bool(complete_individuals(profile))


def _classified_as_the_search_decides(profile):
    """Check ``classify`` against the spanning-cycle search: IP when cover
    fails, DP when it holds and the graph has a spanning cycle (witnessed by
    the first complete individual), PP when both checks hold."""
    clf = classify(profile)
    if not clf.cycle_cover.holds:
        assert clf.verdict == IP and clf.complete_individual is None
    elif check_spanning_cycle_free(profile).holds:
        assert clf.verdict == PP and clf.complete_individual is None
        assert complete_individuals(profile) == ()
    else:
        assert clf.verdict == DP
        assert complete_individuals(profile)[:1] == (clf.complete_individual,)
    return clf.verdict


def test_classify_matches_spanning_search_on_every_small_multiset():
    verdicts = Counter(
        _classified_as_the_search_decides(profile_from_masks(n_alts, masks))
        for n_alts, n_inds in ((3, 3), (4, 3), (4, 4), (5, 3))
        for masks in itertools.combinations_with_replacement(evaluable_masks(n_alts), n_inds)
    )
    assert verdicts == {IP: 1850, DP: 713, PP: 2020}


def test_dp_certificate_equals_the_cover_sweep_on_every_small_multiset():
    # a complete individual decides DP with no sweep; its one-set certificate
    # is the one the sweep would give
    checked = 0
    for n_alts, n_inds in ((3, 3), (4, 3), (4, 4), (5, 3)):
        for masks in itertools.combinations_with_replacement(evaluable_masks(n_alts), n_inds):
            profile = profile_from_masks(n_alts, masks)
            clf = classify(profile)
            if clf.verdict == DP:
                assert clf.cycle_cover == check_cycle_cover(profile)
                checked += 1
    assert checked == 713


def test_classify_decides_dp_without_a_cover_sweep(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("classify swept for cycle cover")

    monkeypatch.setattr(conditions, "check_cycle_cover", refuse)
    clf = classify(profile_from_masks(6, (0b000111, 0b111111, 0b111000, 0b111111)))
    assert (clf.verdict, clf.complete_individual) == (DP, 1)
    assert clf.cycle_cover.certificate == ((0b111111, 1),)


def _theorem_sample(rng, n_alts):
    """Evaluable masks of one random profile: incomplete random sets with
    sizes drawn uniformly (mostly IP), or the blocks of a random hyperforest with some
    subsets inside them (PP), with a complete individual added (DP)."""
    kind = rng.randrange(3)
    if kind == 0:
        return tuple(
            mask_of(rng.sample(range(n_alts), rng.randint(2, n_alts - 1)))
            for _ in range(rng.randint(3, 6))
        )
    order = rng.sample(range(n_alts), n_alts)
    sets, placed = [], []
    while len(placed) < n_alts:
        new = order[len(placed): len(placed) + rng.randint(1, 4)]
        # each block meets the earlier ones in at most one node
        members = new + ([rng.choice(placed)] if placed and rng.random() < 0.8 else [])
        if len(members) >= 2:
            sets.append(mask_of(members))
            if len(members) > 2 and rng.random() < 0.5:
                sets.append(mask_of(rng.sample(members, rng.randint(2, len(members) - 1))))
        placed += new
    if kind == 2:
        sets.insert(rng.randrange(len(sets) + 1), (1 << n_alts) - 1)
    return tuple(sets) or ((1 << n_alts) - 1,)


def test_classify_matches_spanning_search_on_random_profiles():
    rng = random.Random(2025)
    verdicts = Counter()
    for _ in range(1000):
        n_alts = rng.randint(6, 9)
        profile = profile_from_masks(n_alts, _theorem_sample(rng, n_alts))
        verdicts[_classified_as_the_search_decides(profile)] += 1
    assert all(verdicts[v] >= 100 for v in (IP, DP, PP)), verdicts


def test_classify_runs_no_spanning_cycle_search(monkeypatch, example):
    def refuse(*args, **kwargs):
        raise AssertionError("classify searched for a spanning cycle")

    monkeypatch.setattr(conditions, "_spanning_cycle_witness", refuse)
    monkeypatch.setattr(conditions, "check_spanning_cycle_free", refuse)
    assert classify(example).verdict == PP
    clf = classify(_complete_profile(6))
    assert (clf.verdict, clf.complete_individual) == (DP, 0)


def test_acyclic_graph_profiles_classify_possible():
    for n_alts, n_inds in ((3, 3), (3, 4), (4, 3)):
        for masks in all_profiles_masks(n_alts, n_inds):
            profile = profile_from_masks(n_alts, masks)
            if not maximal_cyclic_sets(build_union_graph(profile)):
                assert classify(profile).verdict == PP


def test_cover_matches_naive_oracle_small():
    for n_alts in (3, 4):
        for family in distinct_clique_families(n_alts, 3):
            profile = profile_from_masks(n_alts, family)
            assert check_cycle_cover(profile).holds == naive_cycle_cover(profile)[0]


# -- cyclic rankings witness -------------------------------------------------


def test_peer_rating_witness_rankings(peer_rating):
    witness = cyclic_rankings(peer_rating, (0, 1, 2))
    assert witness.pivots == (0, 1, 2)
    # expected: 3 over 2, 1 over 3, 2 over 1
    assert as_sequence(witness.rankings.orders[0]) == (2, 1)
    assert as_sequence(witness.rankings.orders[1]) == (0, 2)
    assert as_sequence(witness.rankings.orders[2]) == (1, 0)
    constraint = unanimity_relation(peer_rating, witness.rankings)
    assert constraint.arcs == {(1, 0), (2, 1), (0, 2)}
    acyclic, cycle = is_acyclic(constraint)
    assert not acyclic and cycle is not None


def test_witness_restrictions_follow_rotations(peer_rating):
    witness = cyclic_rankings(peer_rating, (0, 1, 2))
    cycle = witness.cycle
    for v, order in enumerate(witness.rankings.orders):
        pivot = witness.pivots[v]
        rotation = [cycle[(pivot - k) % len(cycle)] for k in range(len(cycle))]
        expected = [a for a in rotation if (peer_rating.evaluable[v] >> a) & 1]
        kept = [a for a in as_sequence(order) if a in set(cycle)]
        assert kept == expected


def test_witness_forces_unanimity_against_cycle_direction():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        profile = random_profile(rng, rng.choice([3, 4, 5]))
        cover = check_cycle_cover(profile)
        if cover.holds:
            continue
        checked += 1
        witness = cyclic_rankings(profile, cover.uncovered_cycle)
        cycle = witness.cycle
        ev = profile.evaluator_masks
        for i, a in enumerate(cycle):
            b = cycle[(i + 1) % len(cycle)]
            for v in bits(ev[a] & ev[b]):
                assert witness.rankings.orders[v].prefers(b, a)
        constraint = unanimity_relation(profile, witness.rankings)
        assert not is_acyclic(constraint)[0]
    assert checked > 50


def test_covered_cycle_rejected(example):
    with pytest.raises(ConditionViolationError, match="covered"):
        cyclic_rankings(example, (0, 1, 2))


def test_malformed_cycle_rejected(example):
    with pytest.raises(ProfileError):
        cyclic_rankings(example, (0, 1))
    with pytest.raises(ProfileError):
        cyclic_rankings(example, (0, 1, 1))
    with pytest.raises(ProfileError):
        # a1 and a7 share no evaluator, so this is not a graph cycle
        cyclic_rankings(example, (0, 6, 1))


def _all_graphs(n):
    """Every simple graph on ``n`` nodes as an adjacency tuple."""
    edges = list(itertools.combinations(range(n), 2))
    for chosen in range(1 << len(edges)):
        adj = [0] * n
        for i, (a, b) in enumerate(edges):
            if chosen >> i & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        yield tuple(adj)


def test_spanning_cycle_witness_is_the_first_cycle_on_every_small_graph():
    for n in range(1, 6):
        for adj in _all_graphs(n):
            for mask in range(1 << n):
                expected = first_spanning_cycle(adj, mask)
                assert conditions._spanning_cycle_witness(adj, mask) == expected, (adj, mask)
                assert conditions._spanning_cycle_exists(adj, mask) == (expected is not None)


def test_spanning_cycle_witness_is_the_first_cycle_on_seeded_larger_graphs():
    rng = random.Random(26)
    found = 0
    for n in (6, 7, 8):
        for _ in range(25):
            density = rng.choice((0.4, 0.6, 0.8))
            adj = [0] * n
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < density:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
            adj = tuple(adj)
            for mask in [(1 << n) - 1] + [rng.randrange(1 << n) for _ in range(4)]:
                expected = first_spanning_cycle(adj, mask)
                found += expected is not None
                assert conditions._spanning_cycle_witness(adj, mask) == expected, (adj, mask)
    assert found  # the sample holds cycles, not only refusals
