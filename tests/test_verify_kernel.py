"""Differential tests of the compiled verify kernel.

Each builtin rule is verified three ways and the reports must be equal: as
compiled by ``make_rule``, as a plain callable (the closure path of the same
sweep), and by ``reference_verify``, which checks the axioms on explicit arc
sets. Every (3, 3) multiset profile and a seeded sample of larger profiles
run by default; the wider samples are marked slow.
"""

import itertools
import random

import pytest

from rankagg.conditions import check_cycle_cover
from rankagg.properties import make_rule, ranking_space_size, verify_rule
from rankagg.relations import WeakOrder

from helpers import profile_from_masks, random_profile, reference_verify

RULES = ("fstar", "fstarstar", "majority", "constant", "dictatorship")


def _tiebreaks(n_alts):
    return (None, WeakOrder.from_ranking(reversed(range(n_alts))))


def _assert_paths_agree(profile):
    covered = check_cycle_cover(profile).holds
    for rule_id in RULES:
        if rule_id == "fstarstar" and not covered:
            continue
        for tiebreak in _tiebreaks(profile.n_alts):
            rule = make_rule(rule_id, profile, tiebreak)
            compiled = verify_rule(rule, profile)
            called = verify_rule(lambda rankings: rule(rankings), profile)
            reference = reference_verify(rule, profile)
            assert compiled == called == reference, (profile.evaluable, rule_id, tiebreak)


def _sampled_profiles(seed, count, max_space):
    rng = random.Random(seed)
    found = 0
    while found < count:
        profile = random_profile(rng, rng.choice((4, 5)), rng.choice((3, 4)))
        if ranking_space_size(profile) <= max_space:
            found += 1
            yield profile


def test_kernel_matches_reference_on_every_three_by_three_multiset():
    masks = [m for m in range(8) if bin(m).count("1") >= 2]
    for combo in itertools.combinations_with_replacement(masks, 3):
        _assert_paths_agree(profile_from_masks(3, combo))


def test_kernel_matches_reference_on_sampled_profiles():
    for profile in _sampled_profiles(seed=6, count=6, max_space=1000):
        _assert_paths_agree(profile)


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
