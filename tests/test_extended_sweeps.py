"""Extended exhaustive sweeps over the four-alternative, three-individual
space. These repeat the acceptance-style checks on a space of about three
million ranking profiles, so they are marked slow and excluded from the
default run (`pytest -m slow` executes them).
"""

import itertools

import pytest

from rankagg.aggregators import (
    default_tiebreak,
    delegated_pairs,
    delegation_row,
    maximal_cycle_family,
    pair_delegates,
    unanimity_row,
)
from rankagg.conditions import DP, PP, check_cycle_cover, classify
from rankagg.profiles import complete_individuals
from rankagg.properties import make_rule, verify_rule
from rankagg.relations import extension_mask_relation, weak_orders_on

from helpers import all_profiles_masks, profile_from_masks

pytestmark = pytest.mark.slow


def test_delegation_axioms_across_four_alternative_space():
    for masks in all_profiles_masks(4, 3):
        profile = profile_from_masks(4, masks)
        clf = classify(profile)
        if not clf.cycle_cover.holds:
            continue
        rule = make_rule("fstarstar", profile)
        report = verify_rule(rule, profile, ("tv", "pc", "iia", "nd"))
        for axiom in ("tv", "pc", "iia"):
            assert report.verdict(axiom).passed, (masks, axiom)
        nd = report.verdict("nd")
        if clf.verdict == PP:
            assert nd.passed, masks
        else:
            assert clf.verdict == DP
            assert not nd.passed, masks
            assert nd.counterexample.individual in complete_individuals(profile)


def test_constraint_acyclicity_across_four_alternative_space():
    # the packed constraints the aggregates extend: the AND of the unanimity
    # rows and the OR of the delegation rows of every ranking profile
    for masks in all_profiles_masks(4, 3):
        profile = profile_from_masks(4, masks)
        if not check_cycle_cover(profile).holds:
            continue
        n = profile.n_alts
        tiebreak = default_tiebreak(profile)
        sequence = tuple(range(n))
        own = delegated_pairs(profile, pair_delegates(profile, maximal_cycle_family(profile)))
        rows = [
            [
                (unanimity_row(order, mask, n), delegation_row(order, own[v], tiebreak, n))
                for order in weak_orders_on(mask)
            ]
            for v, mask in enumerate(profile.evaluable)
        ]
        for combo in itertools.product(*rows):
            unanimity = profile.common_pairs
            delegation = 0
            for u, d in combo:
                unanimity &= u
                delegation |= d
            assert extension_mask_relation(unanimity, n, sequence) is not None
            assert extension_mask_relation(delegation, n, sequence) is not None
