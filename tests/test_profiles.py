import itertools
import random

import pytest

from rankagg.profiles import (
    EvaluabilityProfile,
    ProfileError,
    build_profile,
    build_union_graph,
    complete_individuals,
    validate_rankings,
)
from rankagg.census import evaluable_masks
from rankagg.relations import RankingProfile, WeakOrder, bits, pack

from helpers import (
    clique_edges,
    common_evaluators,
    evaluators_of,
    graph_edges,
    graph_is_complete,
    is_nontrivial,
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


# -- validation --------------------------------------------------------------


def test_example_profile_is_valid(example):
    assert example.n_alts == 7
    assert example.evaluable == (0b0001111, 0b0111000, 0b1100000)


def test_peer_rating_is_valid(peer_rating):
    assert peer_rating.evaluable == (0b110, 0b101, 0b011)


def test_singleton_evaluable_set_rejected():
    with pytest.raises(ProfileError, match="v2"):
        build_profile(
            ["a", "b", "c"], ["v1", "v2", "v3"],
            {"v1": ["a", "b"], "v2": ["a"], "v3": ["b", "c"]},
        )


def test_too_few_alternatives_rejected():
    with pytest.raises(ProfileError):
        build_profile(["a", "b"], ["v1", "v2", "v3"], {v: ["a", "b"] for v in ("v1", "v2", "v3")})


def test_too_few_individuals_rejected():
    with pytest.raises(ProfileError):
        build_profile(["a", "b", "c"], ["v1", "v2"], {"v1": ["a", "b"], "v2": ["b", "c"]})


def test_unknown_alternative_rejected():
    with pytest.raises(ProfileError, match="zzz"):
        build_profile(
            ["a", "b", "c"], ["v1", "v2", "v3"],
            {"v1": ["a", "zzz"], "v2": ["a", "b"], "v3": ["b", "c"]},
        )


def test_duplicate_ids_rejected():
    with pytest.raises(ProfileError):
        build_profile(["a", "a", "b"], ["v1", "v2", "v3"], {})
    with pytest.raises(ProfileError):
        build_profile(
            ["a", "b", "c"], ["v1", "v1", "v2"],
            {"v1": ["a", "b"], "v2": ["b", "c"]},
        )


def test_missing_evaluable_entry_rejected():
    with pytest.raises(ProfileError, match="v3"):
        build_profile(
            ["a", "b", "c"], ["v1", "v2", "v3"],
            {"v1": ["a", "b"], "v2": ["b", "c"]},
        )


# -- evaluator queries -------------------------------------------------------


def test_evaluators_of_example(example):
    assert evaluators_of(example, example.alt_index["a4"]) == (0, 1)
    a1, a7 = example.alt_index["a1"], example.alt_index["a7"]
    assert common_evaluators(example, a1, a7) == ()


def test_all_complete_profile_evaluators():
    profile = build_profile(
        ["a", "b", "c"], ["v1", "v2", "v3"],
        {v: ["a", "b", "c"] for v in ("v1", "v2", "v3")},
    )
    for a in range(3):
        assert evaluators_of(profile, a) == (0, 1, 2)


def test_unknown_alternative_index_rejected(example):
    with pytest.raises(ProfileError):
        evaluators_of(example, 9)


# -- union graph -------------------------------------------------------------


def test_example_union_graph_edges(example):
    graph = build_union_graph(example)
    assert len(graph_edges(graph)) == 10
    clique = {(a, b) for a, b in itertools.combinations(range(4), 2)}
    triangle = {(3, 4), (3, 5), (4, 5)}
    assert graph_edges(graph) == frozenset(clique | triangle | {(5, 6)})


def test_complete_individual_gives_complete_graph():
    profile = build_profile(
        ["a", "b", "c", "d"], ["v1", "v2", "v3"],
        {"v1": ["a", "b", "c", "d"], "v2": ["a", "b"], "v3": ["c", "d"]},
    )
    assert graph_is_complete(build_union_graph(profile))


def test_two_clique_union():
    profile = build_profile(
        ["1", "2", "3", "4"], ["u", "w", "x"],
        {"u": ["1", "2", "3"], "w": ["1", "3", "4"], "x": ["1", "2", "3"]},
    )
    graph = build_union_graph(profile)
    assert graph_edges(graph) == frozenset({(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)})


def test_clique_edges_reconstruction(example):
    graph = build_union_graph(example)
    union = set()
    for v in range(example.n_inds):
        edges = clique_edges(example, v)
        members = sorted(bits(example.evaluable[v]))
        assert edges == {(a, b) for a, b in itertools.combinations(members, 2)}
        union |= edges
    assert frozenset(union) == graph_edges(graph)


# -- completeness and nontriviality ------------------------------------------


def test_example_has_no_complete_individual(example):
    assert complete_individuals(example) == ()
    assert not is_nontrivial(example)


def test_peer_rating_nontrivial_without_complete(peer_rating):
    assert complete_individuals(peer_rating) == ()
    assert is_nontrivial(peer_rating)


def test_explicit_complete_individual():
    profile = build_profile(
        ["a", "b", "c"], ["v1", "v2", "v3"],
        {"v1": ["a", "b"], "v2": ["a", "b", "c"], "v3": ["b", "c"]},
    )
    assert complete_individuals(profile) == (1,)
    assert is_nontrivial(profile)


def test_nontrivial_agrees_with_pairwise_common_evaluators():
    rng = random.Random(20240811)
    for _ in range(200):
        profile = random_profile(rng, rng.choice([3, 4, 5]))
        pairwise = all(
            common_evaluators(profile, a, b)
            for a, b in itertools.combinations(range(profile.n_alts), 2)
        )
        assert is_nontrivial(profile) == pairwise


def test_edge_monotonicity_under_shrinking():
    rng = random.Random(987)
    for _ in range(200):
        profile = random_profile(rng, 5)
        masks = list(profile.evaluable)
        v = rng.randrange(len(masks))
        removable = [a for a in bits(masks[v]) if masks[v].bit_count() > 2]
        if not removable:
            continue
        smaller_mask = masks[v] & ~(1 << rng.choice(removable))
        smaller = EvaluabilityProfile(
            profile.alternatives, profile.individuals,
            tuple(smaller_mask if i == v else m for i, m in enumerate(masks)),
        )
        assert graph_edges(build_union_graph(smaller)) <= graph_edges(build_union_graph(profile))


# -- rankings validation -----------------------------------------------------


def test_validate_rankings_accepts_matching_grounds(example):
    rankings = RankingProfile((
        WeakOrder.from_ranking([1, 3, 0, 2]),
        WeakOrder.from_ranking([4, 5, 3]),
        WeakOrder.from_ranking([6, 5]),
    ))
    validate_rankings(example, rankings)


def test_validate_rankings_rejects_wrong_ground(example):
    rankings = RankingProfile((
        WeakOrder.from_ranking([1, 3, 0, 2]),
        WeakOrder.from_ranking([4, 5]),  # missing a4
        WeakOrder.from_ranking([6, 5]),
    ))
    with pytest.raises(ProfileError, match="v2"):
        validate_rankings(example, rankings)


def test_validate_rankings_rejects_wrong_count(example):
    with pytest.raises(ProfileError):
        validate_rankings(example, RankingProfile((WeakOrder.from_ranking([0, 1]),)))


def _assert_pairs_match_oracles(profile):
    n = profile.n_alts
    expected = tuple(
        (a, b, common_evaluators(profile, a, b))
        for a, b in itertools.combinations(range(n), 2)
        if common_evaluators(profile, a, b)
    )
    assert profile.shared_pairs == expected
    assert profile.common_pairs == pack(build_union_graph(profile).adjacency, n)


def test_shared_and_common_pairs_match_the_oracles_on_every_four_three_multiset():
    for masks in itertools.combinations_with_replacement(evaluable_masks(4), 3):
        _assert_pairs_match_oracles(
            EvaluabilityProfile(("a", "b", "c", "d"), ("v1", "v2", "v3"), masks)
        )


def test_shared_and_common_pairs_match_the_oracles_on_random_profiles():
    rng = random.Random(26)
    for _ in range(200):
        _assert_pairs_match_oracles(random_profile(rng, rng.randint(3, 9), rng.randint(3, 6)))
