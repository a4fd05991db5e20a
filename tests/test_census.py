import dataclasses
import itertools
import time
from fractions import Fraction

import pytest

from rankagg import census
from rankagg.census import (
    CensusBudgetError,
    census_brute,
    census_symmetric,
    dp_proportion,
    dp_proportion_grid,
    evaluable_masks,
    evaluable_set_count,
    format_proportion,
    render_grid,
    support_weight,
    total_digits,
)
from rankagg.cli import main
from rankagg.conditions import DP, classify
from rankagg.profiles import EvaluabilityProfile

from helpers import all_profiles_masks, profile_from_masks


@pytest.mark.parametrize("n,expected", [(3, 4), (4, 11), (5, 26)])
def test_evaluable_set_count(n, expected):
    assert evaluable_set_count(n) == expected
    assert len(evaluable_masks(n)) == expected


def test_evaluable_set_count_rejects_small_n():
    with pytest.raises(ValueError):
        evaluable_set_count(2)


def test_dp_proportion_exact_values():
    assert dp_proportion(3, 3) == Fraction(37, 64)
    assert dp_proportion(5, 15) == 1 - Fraction(25, 26) ** 15
    assert format_proportion(dp_proportion(5, 15)) == "0.44"
    assert format_proportion(dp_proportion(3, 3)) == "0.58"


def test_dp_proportion_nine_alternatives_three_individuals():
    # exact value 754507/126506008, about 0.0059642; two decimals give 0.01
    value = dp_proportion(9, 3)
    assert value == Fraction(754507, 126506008)
    assert format_proportion(value) == "0.01"


def test_census_three_by_three():
    report = census_brute(3, 3)
    assert (report.ip, report.dp, report.pp) == (6, 37, 21)
    assert report.total == 64


def test_census_three_alts_four_inds():
    report = census_brute(3, 4)
    assert (report.ip, report.dp, report.pp) == (36, 175, 45)
    assert report.total == 256


def test_census_four_alts_three_inds():
    # recounted three independent ways; see also the parity argument below
    report = census_brute(4, 3)
    assert (report.ip, report.dp, report.pp) == (372, 331, 628)
    assert report.total == 1331


def test_four_alt_ip_count_is_divisible_by_three():
    # a profile whose three evaluable sets coincide covers every cycle, so
    # labeled IP counts are sums of weights 3 and 6 only
    report = census_brute(4, 3)
    assert report.ip % 3 == 0


def test_dp_count_identity():
    # complete-individual counting: total minus assignments avoiding the full set
    for n_alts, n_inds in ((3, 3), (3, 4), (4, 3), (3, 6)):
        report = census_brute(n_alts, n_inds)
        sets = evaluable_set_count(n_alts)
        assert report.dp == sets**n_inds - (sets - 1) ** n_inds
        assert Fraction(report.dp, report.total) == dp_proportion(n_alts, n_inds)
        assert report.ip + report.dp + report.pp == report.total


def test_symmetric_census_matches_brute():
    # every size whose labeled space has at most 20,000 profiles
    for n_alts, n_inds in ((3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (5, 3)):
        brute = census_brute(n_alts, n_inds)
        symmetric = census_symmetric(n_alts, n_inds)
        assert (symmetric.ip, symmetric.dp, symmetric.pp) == (brute.ip, brute.dp, brute.pp)
        assert symmetric.total == brute.total
        assert symmetric.method == "symmetric" and brute.method == "brute"


def test_symmetric_census_memoizes_nothing(monkeypatch):
    # every antichain is a distinct profile, so a verdict cache never hits
    brute = census_brute(4, 4)

    class Refused:
        def __init__(self, *args):
            raise AssertionError("the symmetric census built a verdict cache")

    monkeypatch.setattr(census, "_VerdictCache", Refused)
    symmetric = census_symmetric(4, 4)
    assert (symmetric.ip, symmetric.dp, symmetric.pp) == (brute.ip, brute.dp, brute.pp)
    with pytest.raises(AssertionError):
        census_brute(3, 3)


@pytest.mark.slow
@pytest.mark.parametrize("n_alts,n_inds", [(5, 4), (4, 6)])
def test_maximal_support_census_equals_brute_large(n_alts, n_inds):
    brute = census_brute(n_alts, n_inds)
    symmetric = census_symmetric(n_alts, n_inds)
    assert (symmetric.ip, symmetric.dp, symmetric.pp) == (brute.ip, brute.dp, brute.pp)


@pytest.mark.parametrize("n_inds", range(3, 9))
def test_maximal_support_census_closed_forms(n_inds):
    report = census_symmetric(5, n_inds)
    sets = evaluable_set_count(5)
    assert report.total == sets**n_inds
    assert report.dp == sets**n_inds - (sets - 1) ** n_inds
    assert report.ip + report.dp + report.pp == report.total


def test_support_weight_by_hand():
    # A = {a1a2a3, a1a4} over 4 alternatives: below a1a2a3 lie a1a2, a1a3,
    # a2a3 and itself, below a1a4 only itself, so d_A = 5; triples over those
    # 5 sets that use both members: 5^3 - 2 * 4^3 + 3^3 = 24
    members = (0b0111, 0b1001)
    down = [s for s in evaluable_masks(4) if any(s & ~m == 0 for m in members)]
    assert len(down) == 5
    assert support_weight(2, 5, 3) == 24
    direct = sum(
        1
        for combo in itertools.product(down, repeat=3)
        if set(members) <= set(combo)
    )
    assert direct == 24
    # more members than individuals: no profile has this support
    assert support_weight(4, 6, 3) == 0


def test_budget_guard():
    with pytest.raises(CensusBudgetError) as err:
        census_brute(3, 4, budget=100)
    assert err.value.required == 256


def test_symmetric_budget_counts_antichains():
    # 4x6 has 113 antichains of at most 6 evaluable sets, far fewer than
    # its 11^6 labeled profiles
    assert census_symmetric(4, 6, budget=113).total == 11**6
    with pytest.raises(CensusBudgetError) as err:
        census_symmetric(4, 6, budget=112)
    assert err.value.required == 113
    assert "antichains" in str(err.value)


def test_symmetric_census_refuses_fourteen_alternatives_before_any_table(capsys):
    start = time.perf_counter()
    code = main(["census", "--method", "symmetric", "--alts", "14", "--inds", "3"])
    elapsed = time.perf_counter() - start
    assert code == 4
    assert "antichains" in capsys.readouterr().err
    assert elapsed < 1.0


@pytest.mark.parametrize("n_alts,n_inds", [(3, 3), (4, 3), (4, 6), (5, 3), (5, 4)])
def test_symmetric_census_runs_at_a_budget_of_its_antichain_count(n_alts, n_inds):
    # the closed-form refusal never fires where the counted walk fits
    below, above = census._support_order(evaluable_masks(n_alts))
    walked = sum(1 for _ in census._antichains(below, above, n_inds))
    report = census_symmetric(n_alts, n_inds, budget=walked)
    assert report.total == evaluable_set_count(n_alts) ** n_inds
    with pytest.raises(CensusBudgetError):
        census_symmetric(n_alts, n_inds, budget=walked - 1)


@pytest.mark.parametrize("n_alts,n_inds", [(3, 3), (4, 3), (4, 6), (5, 3)])
def test_antichain_walk_yields_every_antichain_once_with_its_down_set(n_alts, n_inds):
    masks = evaluable_masks(n_alts)
    below, above = census._support_order(masks)
    walked = list(census._antichains(below, above, n_inds))

    def incomparable(i, j):
        return masks[i] & ~masks[j] and masks[j] & ~masks[i]

    expected = {
        members
        for size in range(1, n_inds + 1)
        for members in itertools.combinations(range(len(masks)), size)
        if all(incomparable(i, j) for i, j in itertools.combinations(members, 2))
    }
    assert len(walked) == len(expected)
    assert {members for members, _ in walked} == expected
    for members, down in walked:
        assert down == sum(
            1 << j for j, m in enumerate(masks) if any(m & ~masks[i] == 0 for i in members)
        )


def test_brute_census_refuses_before_listing_masks(monkeypatch):
    def refuse(n_alts):
        raise AssertionError("the brute census listed the evaluable sets")

    monkeypatch.setattr(census, "evaluable_masks", refuse)
    with pytest.raises(CensusBudgetError) as err:
        census_brute(13, 3)
    assert err.value.required == evaluable_set_count(13) ** 3


def test_brute_census_far_over_budget_builds_no_count():
    # building 11^(10^7) alone takes about 11 s
    start = time.perf_counter()
    with pytest.raises(CensusBudgetError) as err:
        census_brute(4, 10**7)
    assert time.perf_counter() - start < 1.0
    assert err.value.required == 10413927
    assert "10413927-digit" in str(err.value)


@pytest.mark.parametrize("n_alts", range(3, 13))
def test_total_digits_match_the_printed_count(n_alts):
    sets = evaluable_set_count(n_alts)
    for n_inds in range(1, 400):
        assert total_digits(n_alts, n_inds) == len(str(sets**n_inds)), n_inds


def test_total_digits_match_the_printed_count_from_the_log_of_two():
    # from 64 alternatives on the estimate uses n_alts * log10(2), not S
    for n_alts in (64, 65, 100, 1000, 3322):
        sets = evaluable_set_count(n_alts)
        for n_inds in range(1, 41):
            digits = total_digits(n_alts, n_inds)
            assert 10 ** (digits - 1) <= sets**n_inds < 10**digits, (n_alts, n_inds)


@pytest.mark.parametrize(
    "n_alts,n_inds,digits",
    [
        # n_inds * log10(S) lies within 1e-6 of an integer: 314794.9999998
        # and 195758.0000003, so the exact count decides
        (6, 179281, 314795),
        (3, 325147, 195759),
    ],
)
def test_total_digits_near_a_power_of_ten(n_alts, n_inds, digits):
    count = evaluable_set_count(n_alts) ** n_inds
    assert 10 ** (digits - 1) <= count < 10**digits
    assert total_digits(n_alts, n_inds) == digits


@pytest.mark.parametrize("n_alts,n_inds", [(3, 3), (3, 4), (4, 3), (4, 4), (4, 6), (4, 40)])
def test_symmetric_census_classifies_profiles_of_at_most_three_padded_sets(
    monkeypatch, n_alts, n_inds
):
    expected = census_symmetric(n_alts, n_inds)
    sizes = []

    def recording(profile):
        sizes.append((profile.n_inds, len(set(profile.evaluable))))
        return classify(profile)

    monkeypatch.setattr(census, "classify", recording)
    assert census_symmetric(n_alts, n_inds) == expected
    assert sizes and all(n <= max(3, members) for n, members in sizes)
    if n_inds <= 4:
        assert expected == dataclasses.replace(census_brute(n_alts, n_inds), method="symmetric")


def test_enlarging_preserves_dictatorship_verdict():
    # adding alternatives to someone's set keeps the complete individual,
    # so a DP profile stays DP
    checked = 0
    for masks in all_profiles_masks(3, 3):
        profile = profile_from_masks(3, masks)
        if classify(profile).verdict != DP:
            continue
        for v in range(3):
            missing = profile.full_mask & ~masks[v]
            if not missing:
                continue
            low = missing & -missing
            grown = tuple(
                m | low if i == v else m for i, m in enumerate(masks)
            )
            bigger = EvaluabilityProfile(
                profile.alternatives, profile.individuals, grown
            )
            assert classify(bigger).verdict == DP
            checked += 1
    assert checked > 0


def test_grid_text_rows():
    text = render_grid()
    lines = text.strip().split("\n")
    assert len(lines) == 5
    assert lines[1].split() == ["3", "0.58", "0.82", "0.92", "0.97", "0.99", "0.99", "1.00", "1.00", "1.00"]
    assert lines[2].split() == ["5", "0.11", "0.21", "0.30", "0.38", "0.44", "0.51", "0.56", "0.61", "0.65"]
    assert lines[3].split() == ["7", "0.02", "0.05", "0.07", "0.10", "0.12", "0.14", "0.16", "0.18", "0.20"]
    assert lines[4].split() == ["9", "0.01", "0.01", "0.02", "0.02", "0.03", "0.04", "0.04", "0.05", "0.05"]


def test_grid_cells_are_exact_fractions():
    grid = dp_proportion_grid()
    assert len(grid) == 36
    assert grid[(3, 6)] == 1 - Fraction(3, 4) ** 6
    assert format_proportion(grid[(3, 6)]) == "0.82"
    assert format_proportion(grid[(7, 27)]) == "0.20"
    # rendering artifact: strictly below one, shown as 1.00 at two decimals
    assert grid[(3, 21)] < 1
    assert format_proportion(grid[(3, 21)]) == "1.00"
