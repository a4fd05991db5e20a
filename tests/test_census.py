import itertools
import json
import time
from collections import Counter
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

from helpers import (
    all_profiles_masks,
    antichain_census,
    antichains,
    profile_from_masks,
    support_order,
)


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
    for n_alts, n_inds in ((3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (4, 3), (4, 4), (5, 3)):
        brute = census_brute(n_alts, n_inds)
        symmetric = census_symmetric(n_alts, n_inds)
        assert (symmetric.ip, symmetric.dp, symmetric.pp) == (brute.ip, brute.dp, brute.pp)
        assert symmetric.total == brute.total
        assert symmetric.method == "symmetric" and brute.method == "brute"


def test_symmetric_census_memoizes_nothing(monkeypatch):
    # the symmetric census classifies no profile, so it needs no verdict cache
    brute = census_brute(4, 4)

    class Refused:
        def __init__(self, *args):
            raise AssertionError("the symmetric census built a verdict cache")

    def refuse(profile):
        raise AssertionError("the symmetric census classified a profile")

    monkeypatch.setattr(census, "_VerdictCache", Refused)
    monkeypatch.setattr(census, "classify", refuse)
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


def test_symmetric_budget_counts_table_cells():
    # the hyperforest rows grow with the alternatives, so the last row is the
    # largest; the first row over the budget is refused with its cell count
    assert [len(census._hyperforests(n, 10**9)) for n in range(1, 7)] == [1, 2, 4, 7, 12, 19]
    assert census_symmetric(6, 3, budget=19).total == 57**3
    with pytest.raises(CensusBudgetError) as err:
        census_symmetric(6, 3, budget=18)
    assert err.value.required == 19
    assert str(err.value) == "hyperforest table row 6 has 19 cells, budget allows 18"
    with pytest.raises(CensusBudgetError) as err:
        census_symmetric(6, 3, budget=3)
    assert err.value.required == 4  # refused at the row of 3 alternatives


def test_symmetric_census_answers_fourteen_alternatives(capsys):
    start = time.perf_counter()
    code = main(["census", "--method", "symmetric", "--alts", "14", "--inds", "3"])
    elapsed = time.perf_counter() - start
    assert code == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    sets = evaluable_set_count(14)
    assert counts["DP"] == sets**3 - (sets - 1) ** 3
    assert sum(counts.values()) == sets**3
    assert elapsed < 1.0


@pytest.mark.parametrize("n_alts,n_inds", [(3, 3), (4, 3), (4, 6), (5, 3), (5, 4)])
def test_symmetric_census_runs_at_a_budget_of_its_antichain_count(n_alts, n_inds):
    # a budget that admitted the antichain walk still admits the table:
    # no row has as many cells as the walk had antichains
    walked = sum(1 for _ in antichains(*support_order(evaluable_masks(n_alts)), n_inds))
    assert census_symmetric(n_alts, n_inds, budget=walked) == census_symmetric(n_alts, n_inds)


@pytest.mark.parametrize("n_alts,n_inds", [(3, 3), (4, 3), (4, 6), (5, 3)])
def test_antichain_walk_yields_every_antichain_once_with_its_down_set(n_alts, n_inds):
    masks = evaluable_masks(n_alts)
    walked = list(antichains(*support_order(masks), n_inds))

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


@pytest.mark.parametrize(
    "n_alts,n_inds",
    [
        (3, 3), (3, 4), (3, 6), (4, 3), (4, 4), (4, 6), (4, 40), (5, 3), (5, 4), (6, 3),
        pytest.param(6, 4, marks=pytest.mark.slow),
    ],
)
def test_symmetric_census_equals_the_antichain_census(n_alts, n_inds):
    assert census_symmetric(n_alts, n_inds) == antichain_census(n_alts, n_inds)


@pytest.mark.parametrize(
    "n_alts,n_inds,counts",
    [
        (6, 3, (114120, 9577, 61496)),
        (6, 4, (8262180, 721505, 1572316)),
        (9, 3, (112215282, 754507, 13536219)),
    ],
)
def test_symmetric_census_pinned_counts(n_alts, n_inds, counts):
    report = census_symmetric(n_alts, n_inds)
    assert (report.ip, report.dp, report.pp) == counts
    assert report.total == evaluable_set_count(n_alts) ** n_inds


@pytest.mark.parametrize("size", range(2, 9))
def test_hypertrees_of_two_member_edges_are_cayley_trees(size):
    trees = census._hypertrees(size)
    assert sum(count for (k, _), count in trees.items() if k == size - 1) == size ** (size - 2)


@pytest.mark.parametrize("n_alts", [3, 4, 5])
def test_hyperforest_table_counts_the_berge_acyclic_antichains(n_alts):
    # group every Berge-acyclic antichain (its members' incidence graph is a
    # forest: joining each member's alternatives never closes a loop) by
    # members and down-set
    masks = evaluable_masks(n_alts)
    expected: Counter[tuple[int, int]] = Counter({(0, 0): 1})
    for members, down in antichains(*support_order(masks), len(masks)):
        root = list(range(n_alts))

        def find(a):
            while root[a] != a:
                a = root[a]
            return a

        acyclic = True
        for i in members:
            first, *rest = [a for a in range(n_alts) if masks[i] >> a & 1]
            for a in rest:
                x, y = find(first), find(a)
                acyclic = acyclic and x != y
                root[x] = y
        if acyclic:
            expected[len(members), down.bit_count()] += 1
    assert census._hyperforests(n_alts, 10**9) == expected


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


def test_total_digits_near_an_integer_decided_without_the_count(monkeypatch):
    # 3 * log10(S) = 2425669.0000008 at 2,685,966 alternatives: 50 more digits
    # of the logarithm decide, with neither S^3 nor 10^2425669 built
    real = census.evaluable_set_count

    def small_only(n_alts):
        if n_alts >= 64:
            raise AssertionError(f"built 2**{n_alts}")
        return real(n_alts)

    monkeypatch.setattr(census, "evaluable_set_count", small_only)
    start = time.perf_counter()
    assert total_digits(2685966, 3) == 2425670
    assert time.perf_counter() - start < 0.5


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
