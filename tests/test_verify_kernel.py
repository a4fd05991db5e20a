"""Differential tests of the builtin rules and the compiled verify kernel.

Each builtin rule is verified three ways and the reports must be equal: as
compiled by ``make_rule``, as a plain callable (the closure path of the same
sweep), and by ``reference_verify`` run on ``reference_rule``, which checks
the axioms on explicit arc sets of the rule's frozenset definition. On every
ranking profile the rule closures, ``unanimity_relation`` and
``delegation_relation`` must also equal those definitions. Every (3, 3)
multiset profile and a seeded sample of larger profiles run by default; the
wider samples are marked slow. The sweep's memos are checked for exactness
at a one-entry bound and for doing each piece of work once per distinct value.
"""

import itertools
import json
import random
from importlib import resources

import pytest

from rankagg import properties
from rankagg.aggregators import (
    default_tiebreak,
    delegation_relation,
    maximal_cycle_family,
    pair_delegates,
    unanimity_relation,
)
from rankagg.cli import parse_profile_document
from rankagg.conditions import check_cycle_cover
from rankagg.profiles import build_profile
from rankagg.properties import (
    BudgetExceededError,
    enumerate_rankings,
    make_rule,
    ranking_space_size,
    verify_rule,
)
from rankagg.relations import WeakOrder, extension_mask_relation, weak_orders_on

from helpers import (
    profile_from_masks,
    random_profile,
    reference_delegation_arcs,
    reference_rule,
    reference_unanimity_arcs,
    reference_verify,
)

RULES = ("fstar", "fstarstar", "majority", "constant", "dictatorship")


def _tiebreaks(n_alts):
    return (None, WeakOrder.from_ranking(reversed(range(n_alts))))


def _assert_paths_agree(profile):
    covered = check_cycle_cover(profile).holds
    rule_ids = [r for r in RULES if covered or r != "fstarstar"]
    for tiebreak in _tiebreaks(profile.n_alts):
        for rule_id in rule_ids:
            rule = make_rule(rule_id, profile, tiebreak)
            compiled = verify_rule(rule, profile)
            called = verify_rule(lambda rankings: rule(rankings), profile)
            reference = reference_verify(reference_rule(rule_id, profile, tiebreak), profile)
            assert compiled == called == reference, (profile.evaluable, rule_id, tiebreak)


def _assert_definitions_agree(profile):
    """Relations and rule closures equal their frozenset definitions on
    every ranking profile."""
    family = maximal_cycle_family(profile) if check_cycle_cover(profile).holds else None
    delegates = pair_delegates(profile, family) if family is not None else None
    rule_ids = [r for r in RULES if family is not None or r != "fstarstar"]
    for tiebreak in _tiebreaks(profile.n_alts):
        tb = tiebreak if tiebreak is not None else default_tiebreak(profile)
        rules = [make_rule(r, profile, tiebreak) for r in rule_ids]
        references = [reference_rule(r, profile, tiebreak) for r in rule_ids]
        for rankings in enumerate_rankings(profile):
            if tiebreak is None:
                got = unanimity_relation(profile, rankings)
                assert got == reference_unanimity_arcs(profile, rankings), rankings
            if family is not None:
                got = delegation_relation(profile, rankings, family, tiebreak)
                assert got == reference_delegation_arcs(rankings, delegates, tb), rankings
            for rule_id, rule, reference in zip(rule_ids, rules, references):
                assert rule(rankings) == reference(rankings), (rule_id, rankings)


def _sampled_profiles(seed, count, max_space):
    rng = random.Random(seed)
    found = 0
    while found < count:
        profile = random_profile(rng, rng.choice((4, 5)), rng.choice((3, 4)))
        if ranking_space_size(profile) <= max_space:
            found += 1
            yield profile


def _three_by_three_multisets():
    masks = [m for m in range(8) if bin(m).count("1") >= 2]
    for combo in itertools.combinations_with_replacement(masks, 3):
        yield profile_from_masks(3, combo)


def test_kernel_matches_reference_on_every_three_by_three_multiset():
    for profile in _three_by_three_multisets():
        _assert_paths_agree(profile)


def test_kernel_matches_reference_on_sampled_profiles():
    for profile in _sampled_profiles(seed=6, count=6, max_space=1000):
        _assert_paths_agree(profile)


def test_definitions_match_reference_on_every_three_by_three_multiset():
    for profile in _three_by_three_multisets():
        _assert_definitions_agree(profile)


def test_definitions_match_reference_on_sampled_profiles():
    for profile in _sampled_profiles(seed=6, count=6, max_space=1000):
        _assert_definitions_agree(profile)


def test_kernel_matches_reference_with_one_entry_memos(monkeypatch):
    # every memo is emptied before each insertion, so each lookup after a
    # different value misses and the clearing path runs constantly
    monkeypatch.setattr(properties, "_MEMO_LIMIT", 1)
    for profile in _three_by_three_multisets():
        _assert_paths_agree(profile)


def _golden_profile():
    document = json.loads(
        resources.files("rankagg").joinpath("golden", "example_profile.json").read_text()
    )
    return parse_profile_document(document)


def test_fstarstar_extends_each_distinct_constraint_once(monkeypatch):
    profile = _golden_profile()
    family = maximal_cycle_family(profile)
    constraints = {
        delegation_relation(profile, rankings, family)
        for rankings in enumerate_rankings(profile)
    }
    calls = []

    def counting(constraint, n, tiebreak):
        calls.append(constraint)
        return extension_mask_relation(constraint, n, tiebreak)

    monkeypatch.setattr(properties, "extension_mask_relation", counting)
    report = verify_rule(make_rule("fstarstar", profile), profile)
    assert report.profile_space_size == 2925
    assert len(calls) == len(set(calls)) == len(constraints) == 288


def test_tv_is_checked_once_per_distinct_output(monkeypatch):
    profile = _golden_profile()
    outputs = {make_rule("fstar", profile)(r) for r in enumerate_rankings(profile)}
    first_tv_triple = properties._first_tv_triple
    calls = []

    def counting(above):
        calls.append(tuple(above))
        return first_tv_triple(above)

    monkeypatch.setattr(properties, "_first_tv_triple", counting)
    report = verify_rule(make_rule("fstar", profile), profile)
    assert report.verdict("tv").passed
    assert len(calls) == len(set(calls)) == len(outputs) == 288


def test_budget_refusal_enumerates_no_weak_order():
    letters = list("abcdefgh")
    profile = build_profile(
        letters, ["v1", "v2", "v3"], {"v1": letters, "v2": ["a", "b"], "v3": ["c", "d"]}
    )
    for rule_id in ("fstar", "fstarstar", "constant", "majority", "dictatorship:v1"):
        before = weak_orders_on.cache_info()
        rule = make_rule(rule_id, profile)
        with pytest.raises(BudgetExceededError):
            verify_rule(rule, profile, budget=10)
        # no weak_orders_on call at all, so no 8-element entry either
        assert weak_orders_on.cache_info().misses == before.misses, rule_id


def test_kernel_rejects_a_rule_compiled_for_another_profile():
    first = profile_from_masks(3, (0b011, 0b110, 0b111))
    second = profile_from_masks(3, (0b011, 0b101, 0b111))
    rule = make_rule("fstar", first)
    # the closure validates its input, so the foreign profile is refused
    # instead of being swept with the first profile's rows
    with pytest.raises(ValueError):
        verify_rule(rule, second)


def test_threads_below_one_rejected():
    profile = profile_from_masks(3, (0b011, 0b110, 0b111))
    with pytest.raises(ValueError):
        verify_rule(make_rule("fstar", profile), profile, threads=0)


@pytest.mark.slow
def test_kernel_matches_reference_on_wider_sample():
    for profile in _sampled_profiles(seed=60, count=60, max_space=3000):
        _assert_paths_agree(profile)
