import pytest

from rankagg.profiles import build_profile
from rankagg.properties import (
    BudgetExceededError,
    enumerate_rankings,
    make_rule,
    ranking_space_size,
    replay,
    verify_rule,
)
from rankagg.relations import WeakOrder

from helpers import (
    all_profiles_masks,
    check_iia,
    check_nonconstancy,
    check_nondictatorship,
    check_pareto,
    check_transitivity,
    check_weak_pareto,
    profile_from_masks,
    quasi_dictators,
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
def all_complete():
    names = ["a", "b", "c"]
    return build_profile(
        names, ["v1", "v2", "v3"], {v: names for v in ("v1", "v2", "v3")}
    )


@pytest.fixture
def dp_profile():
    return build_profile(
        ["a", "b", "c"], ["v1", "v2", "v3"],
        {"v1": ["a", "b", "c"], "v2": ["a", "b"], "v3": ["b", "c"]},
    )


@pytest.fixture
def pp_star():
    # star around the first alternative; no cycles at all
    return build_profile(
        ["a", "b", "c"], ["v1", "v2", "v3"],
        {"v1": ["a", "b"], "v2": ["a", "c"], "v3": ["a", "b"]},
    )


def test_space_size_counts(example, all_complete):
    assert ranking_space_size(example) == 75 * 13 * 3 == 2925
    assert ranking_space_size(all_complete) == 13**3
    assert sum(1 for _ in enumerate_rankings(all_complete)) == 13**3


def test_budget_guard(all_complete):
    rule = make_rule("fstarstar", all_complete)
    with pytest.raises(BudgetExceededError) as err:
        verify_rule(rule, all_complete, budget=100)
    assert err.value.required == 13**3


def test_fstarstar_closure_builds_delegates_once(example, monkeypatch):
    import rankagg.aggregators as aggregators
    import rankagg.properties as properties

    calls = []
    original = aggregators.pair_delegates

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(aggregators, "pair_delegates", counting)
    monkeypatch.setattr(properties, "pair_delegates", counting)
    rule = make_rule("fstarstar", example)
    outputs = [rule(rankings) for _, rankings in zip(range(40), enumerate_rankings(example))]
    assert len(outputs) == 40
    assert len(calls) == 1


# -- transitivity ------------------------------------------------------------


def test_majority_fails_transitivity_on_three_complete(all_complete):
    verdict = check_transitivity(make_rule("majority", all_complete), all_complete)
    assert not verdict.passed
    ce = verdict.counterexample
    assert replay(make_rule("majority", all_complete), all_complete, ce)


def test_unanimity_rule_outputs_are_transitive(pp_star):
    assert check_transitivity(make_rule("fstar", pp_star), pp_star).passed


def test_unanimity_rule_transitive_on_every_covered_profile():
    from rankagg.conditions import check_cycle_cover

    for masks in all_profiles_masks(3, 3):
        profile = profile_from_masks(3, masks)
        if not check_cycle_cover(profile).holds:
            continue
        assert check_transitivity(make_rule("fstar", profile), profile).passed


# -- pareto ------------------------------------------------------------------


def test_constant_rule_fails_pareto(pp_star):
    rule = make_rule("constant", pp_star)
    verdict = check_pareto(rule, pp_star)
    assert not verdict.passed
    assert replay(rule, pp_star, verdict.counterexample)


def test_delegation_rule_passes_pareto_on_dp(dp_profile):
    assert check_pareto(make_rule("fstarstar", dp_profile), dp_profile).passed


def test_weak_pareto_weaker_than_pareto(pp_star):
    # unanimity rule satisfies both on this profile
    rule = make_rule("fstar", pp_star)
    assert check_pareto(rule, pp_star).passed
    assert check_weak_pareto(rule, pp_star).passed


# -- iia ----------------------------------------------------------------------


def test_dictatorship_rule_passes_iia(dp_profile):
    assert check_iia(make_rule("dictatorship:v1", dp_profile), dp_profile).passed


def test_unanimity_rule_fails_iia_somewhere_at_three_alternatives():
    # the extension re-ranks unconstrained pairs using global context, which
    # some possible profile exposes
    from rankagg.conditions import PP, classify

    failures = []
    for masks in all_profiles_masks(3, 3):
        profile = profile_from_masks(3, masks)
        if classify(profile).verdict != PP:
            continue
        rule = make_rule("fstar", profile)
        verdict = check_iia(rule, profile)
        if not verdict.passed:
            failures.append((profile, verdict.counterexample))
    assert failures
    profile, ce = failures[0]
    assert replay(make_rule("fstar", profile), profile, ce)


def test_frozen_iia_counterexample_for_unanimity_rule(pp_star):
    rule = make_rule("fstar", pp_star)
    first = (
        WeakOrder.from_ranking([0, 1]),  # a over b
        WeakOrder.from_ranking([0, 2]),  # a over c
        WeakOrder.from_ranking([1, 0]),  # b over a
    )
    second = (first[0], WeakOrder.from_ranking([2, 0]), first[2])
    from rankagg.relations import RankingProfile

    out_first = rule(RankingProfile(first))
    out_second = rule(RankingProfile(second))
    assert (0, 1) in out_first.arcs
    assert (1, 0) in out_second.arcs


def test_delegation_rule_passes_iia_on_dp(dp_profile):
    assert check_iia(make_rule("fstarstar", dp_profile), dp_profile).passed


# -- non-constancy -----------------------------------------------------------


def test_constant_rule_fails_nonconstancy_on_every_pair(pp_star):
    rule = make_rule("constant", pp_star)
    verdict = check_nonconstancy(rule, pp_star)
    assert not verdict.passed
    assert replay(rule, pp_star, verdict.counterexample)


def test_delegation_rule_passes_nonconstancy(pp_star):
    assert check_nonconstancy(make_rule("fstarstar", pp_star), pp_star).passed


# -- non-dictatorship --------------------------------------------------------


def test_delegation_rule_dictator_on_dp(dp_profile):
    rule = make_rule("fstarstar", dp_profile)
    verdict = check_nondictatorship(rule, dp_profile)
    assert not verdict.passed
    assert verdict.counterexample.individual == 0
    assert quasi_dictators(rule, dp_profile) == (0,)
    assert replay(rule, dp_profile, verdict.counterexample)


def test_nd_passes_without_complete_individual(pp_star):
    rule = make_rule("fstarstar", pp_star)
    assert check_nondictatorship(rule, pp_star).passed


def test_quasi_dictatorship_requires_every_profile(all_complete):
    # majority reproduces nobody on all profiles: any single individual is
    # outvoted somewhere
    rule = make_rule("majority", all_complete)
    assert quasi_dictators(rule, all_complete) == ()


# -- metatest and report plumbing ---------------------------------------------


def test_pareto_implies_weak_pareto_and_nonconstancy(example, dp_profile, pp_star):
    for profile in (example, dp_profile, pp_star):
        for rule_id in ("fstar", "fstarstar", "constant", "majority", "dictatorship"):
            rule = make_rule(rule_id, profile)
            report = verify_rule(rule, profile, ("pc", "wpc", "nc"))
            if report.verdict("pc").passed:
                assert report.verdict("wpc").passed
                assert report.verdict("nc").passed


def test_report_orders_axioms_as_requested(pp_star):
    rule = make_rule("fstarstar", pp_star)
    report = verify_rule(rule, pp_star, ("nd", "tv"))
    assert [v.axiom for v in report.axioms] == ["nd", "tv"]
    assert report.quasi_dictators is not None


def test_unknown_axiom_rejected(pp_star):
    with pytest.raises(ValueError):
        verify_rule(make_rule("fstar", pp_star), pp_star, ("zz",))


def test_unknown_rule_rejected(pp_star):
    with pytest.raises(ValueError):
        make_rule("borda", pp_star)


def test_impossible_profiles_break_every_pareto_claimant():
    # on a profile whose cycle cover fails, the rotation witness forces any
    # rule to give up either the Pareto criterion on some adjacent pair or
    # the transitivity of its output
    from rankagg.conditions import check_cycle_cover, cyclic_rankings
    from rankagg.relations import bits

    def weakly_transitive(arcs, n):
        members = range(n)
        return all(
            (z, x) not in arcs
            for x in members
            for y in members
            if y != x and (y, x) not in arcs
            for z in members
            if z not in (x, y) and (z, y) not in arcs
        )

    for masks in all_profiles_masks(3, 3):
        profile = profile_from_masks(3, masks)
        cover = check_cycle_cover(profile)
        if cover.holds:
            continue
        witness = cyclic_rankings(profile, cover.uncovered_cycle)
        for rule_id in ("fstar", "majority"):
            rule = make_rule(rule_id, profile)
            arcs = rule(witness.rankings).arcs
            cycle = witness.cycle
            ev = profile.evaluator_masks
            pareto_violations = []
            for i, a in enumerate(cycle):
                b = cycle[(i + 1) % len(cycle)]
                unanimous = all(
                    witness.rankings.orders[v].prefers(b, a)
                    for v in bits(ev[a] & ev[b])
                )
                assert unanimous
                if (b, a) not in arcs:
                    pareto_violations.append((b, a))
            assert pareto_violations or not weakly_transitive(arcs, profile.n_alts), rule_id


def test_all_counterexamples_replay(all_complete):
    for rule_id in ("constant", "majority"):
        rule = make_rule(rule_id, all_complete)
        report = verify_rule(rule, all_complete)
        for verdict in report.axioms:
            if not verdict.passed:
                assert replay(rule, all_complete, verdict.counterexample), (
                    rule_id,
                    verdict.axiom,
                )
