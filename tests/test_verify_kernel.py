"""Differential tests of the builtin rules and the compiled verify kernel.

Each builtin rule is verified three ways and the reports must be equal: as
compiled by ``make_rule``, as a plain callable (the closure path of the same
sweep), and by ``reference_verify`` run on ``reference_rule``, which checks
the axioms on explicit arc sets of the rule's frozenset definition. On every
ranking profile the rule closures, ``unanimity_relation`` and
``delegation_relation`` must also equal those definitions, and the two
aggregates must be degenerate exactly when ``reference_linear_extension``
refuses their constraint and return its order otherwise. Every (3, 3)
multiset profile and a seeded sample of larger profiles run by default; the
wider samples are marked slow. The sweep's memos are checked for exactness
at a one-entry bound and for doing each piece of work once per distinct value.
Rules that break iia on one chosen pair and profile check that the sweep's
per-class iia shortcuts report the plain check's first counterexample, and a
rule that drops one individual on the last profile checks the nd shortcut.
"""

import inspect
import itertools
import json
import random
import sys
from importlib import resources

import pytest

from rankagg import properties
from rankagg.aggregators import (
    aggregate_delegation,
    aggregate_unanimity,
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
from rankagg.relations import (
    CyclicRelationError,
    RankingProfile,
    StrictDigraph,
    WeakOrder,
    extension_mask_relation,
    strict_part,
    weak_orders_on,
)

from helpers import (
    profile_from_masks,
    random_profile,
    reference_delegation_arcs,
    reference_linear_extension,
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


def _assert_extends(result, constraint, tiebreak):
    """``result`` is degenerate exactly when the reference extension of
    ``constraint`` is refused, and carries the reference order otherwise."""
    assert result.constraint == constraint
    try:
        order = reference_linear_extension(constraint, tiebreak)
    except CyclicRelationError:
        assert result.degenerate and result.order == WeakOrder((constraint.ground,))
    else:
        assert not result.degenerate and result.order == order


def _assert_definitions_agree(profile):
    """Relations, aggregates and rule closures equal their frozenset
    definitions on every ranking profile."""
    family = maximal_cycle_family(profile) if check_cycle_cover(profile).holds else None
    delegates = pair_delegates(profile, family) if family is not None else None
    rule_ids = [r for r in RULES if family is not None or r != "fstarstar"]
    for tiebreak in _tiebreaks(profile.n_alts):
        tb = tiebreak if tiebreak is not None else default_tiebreak(profile)
        rules = [make_rule(r, profile, tiebreak) for r in rule_ids]
        references = [reference_rule(r, profile, tiebreak) for r in rule_ids]
        for rankings in enumerate_rankings(profile):
            unanimity = reference_unanimity_arcs(profile, rankings)
            if tiebreak is None:
                assert unanimity_relation(profile, rankings) == unanimity, rankings
            _assert_extends(aggregate_unanimity(profile, rankings, tiebreak), unanimity, tb)
            if family is not None:
                delegation = reference_delegation_arcs(rankings, delegates, tb)
                got = delegation_relation(profile, rankings, family, tiebreak)
                assert got == delegation, rankings
                result = aggregate_delegation(profile, rankings, tiebreak)
                _assert_extends(result, delegation, tb)
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


def _line_runs(function, marker, call, *args):
    """``call(*args)`` and how often the line of ``function`` that contains
    ``marker`` ran during it."""
    lines, start = inspect.getsourcelines(function)
    (target,) = [start + k for k, line in enumerate(lines) if marker in line]
    runs = 0

    def local(frame, event, arg):
        nonlocal runs
        if event == "line" and frame.f_lineno == target:
            runs += 1
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is function.__code__ else None)
    try:
        result = call(*args)
    finally:
        sys.settrace(None)
    return result, runs


def test_tv_and_nc_run_once_per_distinct_output_when_asked_alone(monkeypatch):
    profile = _golden_profile()
    outputs = {make_rule("fstar", profile)(r) for r in enumerate_rankings(profile)}
    first_tv_triple = properties._first_tv_triple
    calls = []

    def counting(above):
        calls.append(tuple(above))
        return first_tv_triple(above)

    monkeypatch.setattr(properties, "_first_tv_triple", counting)
    for axiom in ("tv", "nc"):
        calls.clear()
        rule = make_rule("fstar", profile)
        report, nc_runs = _line_runs(
            properties._sweep, "seen_above |= packed_above", verify_rule, rule, profile, (axiom,)
        )
        assert report.verdict(axiom).passed
        assert len(calls) == len(set(calls)) == (len(outputs) if axiom == "tv" else 0)
        assert nc_runs == (len(outputs) if axiom == "nc" else 0)
    assert len(outputs) == 288


# pp-6 of the verify fixture: the last individual (v4) evaluates (3, 5) and
# (4, 5) alone and shares (3, 4) with v3; v1 and v2 alone evaluate the pairs
# inside {0, 1, 2} and (2, 3). Enumeration position k has v4's order at k % 13
# and prefix k // 13, and v1's order at k // 117.
_PP6 = (0b000111, 0b001100, 0b011000, 0b111000)


def _flipped(profile, flips, base="fstarstar"):
    """The ``base`` rule, except that each pair in ``flips`` gets another
    outcome on the ranking profiles at the given enumeration positions: a
    strict outcome is reversed and a tie becomes a strict one."""
    rule = make_rule(base, profile)
    position = {rankings: k for k, rankings in enumerate(enumerate_rankings(profile))}

    def flipped(rankings):
        arcs = set(rule(rankings).arcs)
        k = position[rankings]
        for (a, b), positions in flips.items():
            if k in positions:
                if arcs & {(a, b), (b, a)}:
                    arcs ^= {(a, b), (b, a)}
                else:
                    arcs.add((a, b))
        return StrictDigraph.from_arcs(profile.full_mask, arcs)

    return flipped


@pytest.mark.parametrize(
    "base, flips, pair",
    [
        # a pair v4 does not evaluate, on a whole late prefix: constant within
        # the prefix, against the outcome of an earlier prefix with v1's order
        ("fstarstar", {(0, 1): range(1300, 1313)}, (0, 1)),
        # the same kind of pair on one profile, where majority ties it on
        # the rest of the prefix: only the variation within the prefix shows
        # it, since the AND over the prefix still reads a tie
        ("majority", {(1, 2): {13 * 3 + 5}}, (1, 2)),
        # a pair only v4 evaluates, first broken in a later prefix
        ("fstarstar", {(4, 5): {13 * 50 + 7}}, (4, 5)),
        # the pair v4 shares with v3
        ("fstarstar", {(3, 4): {13 * 40 + 2}}, (3, 4)),
        # a pair only v4 evaluates, broken for v4's last order in every
        # prefix: only the first prefix's check shows it, against an earlier
        # order of v4 with the same vote
        ("fstarstar", {(3, 5): range(12, 1521, 13)}, (3, 5)),
        # the shared pair is caught inside the prefix, before the end-of-prefix
        # check catches the earlier break of a pair v4 does not evaluate
        ("fstarstar", {(2, 3): {13 * 60 + 5}, (3, 4): {13 * 60 + 8}}, (2, 3)),
    ],
)
@pytest.mark.parametrize("memo_limit", [None, 1])
def test_iia_rerun_reports_the_first_counterexample(monkeypatch, base, flips, pair, memo_limit):
    profile = profile_from_masks(6, _PP6)
    rule = _flipped(profile, flips, base)
    expected = reference_verify(rule, profile)
    if memo_limit is not None:
        monkeypatch.setattr(properties, "_MEMO_LIMIT", memo_limit)
    report = verify_rule(rule, profile)
    assert report.verdict("iia").counterexample.pair == pair
    assert report == expected


def test_unbroken_rules_pass_iia_on_pp6():
    profile = profile_from_masks(6, _PP6)
    for base in ("fstarstar", "majority"):
        assert verify_rule(_flipped(profile, {}, base), profile).verdict("iia").passed


def _last_profile(profile):
    return RankingProfile(tuple(weak_orders_on(m)[-1] for m in profile.evaluable))


def test_nd_mask_sees_a_preference_dropped_on_the_last_profile():
    # no two individuals share a pair, so the union of all strict
    # preferences is asymmetric; on the last profile (every order linear)
    # v1, who is outside the innermost loop, is left out
    profile = profile_from_masks(4, (0b0111, 0b1100, 0b1001))
    last = _last_profile(profile)

    def union(rankings):
        voters = (1, 2) if rankings == last else (0, 1, 2)
        arcs = frozenset().union(*(strict_part(rankings.orders[v]).arcs for v in voters))
        return StrictDigraph.from_arcs(profile.full_mask, arcs)

    report = verify_rule(union, profile)
    assert report.quasi_dictators == (1, 2)
    assert report == reference_verify(union, profile)


def test_nd_mask_sees_a_dictator_give_way_on_the_last_profile():
    profile = profile_from_masks(3, (0b111, 0b011, 0b110))
    last = _last_profile(profile)
    chief = make_rule("dictatorship", profile)

    def rule(rankings):
        if rankings == last:
            return StrictDigraph.from_arcs(profile.full_mask, ())
        return chief(rankings)

    report = verify_rule(rule, profile)
    assert report.verdict("nd").passed and 0 not in report.quasi_dictators
    assert report == reference_verify(rule, profile)
    assert verify_rule(chief, profile).verdict("nd").counterexample.individual == 0


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


def test_closure_path_rejects_a_digraph_on_fewer_alternatives():
    # the packed layout depends on the ground, so a digraph on the first two
    # of three alternatives would be read with the wrong row width
    profile = profile_from_masks(3, (0b011, 0b110, 0b111))

    def partial(rankings):
        return StrictDigraph.from_arcs(0b011, {(0, 1)})

    with pytest.raises(ValueError, match="all alternatives"):
        verify_rule(partial, profile)


@pytest.mark.slow
def test_kernel_matches_reference_on_wider_sample():
    for profile in _sampled_profiles(seed=60, count=60, max_space=3000):
        _assert_paths_agree(profile)
