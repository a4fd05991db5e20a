"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two sub-assertions are expected to fail and are isolated in their own tests,
marked `_as_stated`: the four-alternative census triple and the first cell of
the nine-alternative proportion row. Both stated values are contradicted by
exact recomputation (three independent methods for the census, plus a parity
argument; exact rational arithmetic for the grid cell); the analysis is
recorded in the comments beside those assertions. The neighbouring tests pin
the recomputed values so the artifact itself stays regression guarded.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from rankagg.aggregators import (
    aggregate_delegation,
    delegation_relation,
    maximal_cycle_family,
    unanimity_relation,
)
from rankagg.census import (
    census_brute,
    census_symmetric,
    dp_proportion,
    format_proportion,
)
from rankagg.conditions import (
    DP,
    IP,
    PP,
    check_cycle_cover,
    classify,
    cyclic_rankings,
)
from rankagg.profiles import build_profile, complete_individuals
from rankagg.properties import enumerate_rankings, make_rule, verify_rule
from rankagg.relations import RankingProfile, WeakOrder, is_acyclic

from helpers import (
    all_profiles_masks,
    distinct_clique_families,
    extends,
    naive_cycle_cover,
    profile_from_masks,
    random_profile,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def example_profile():
    return build_profile(
        ["a1", "a2", "a3", "a4", "a5", "a6", "a7"],
        ["v1", "v2", "v3"],
        {
            "v1": ["a1", "a2", "a3", "a4"],
            "v2": ["a4", "a5", "a6"],
            "v3": ["a6", "a7"],
        },
    )


def example_rankings():
    return RankingProfile((
        WeakOrder.from_ranking([1, 3, 0, 2]),
        WeakOrder.from_ranking([4, 5, 3]),
        WeakOrder.from_ranking([6, 5]),
    ))


EXAMPLE_ARCS = frozenset({
    (1, 3), (1, 0), (1, 2), (3, 0), (3, 2),
    (0, 2), (4, 5), (4, 3), (5, 3), (6, 5),
})


# -- criterion 1: census exactness --------------------------------------------


def test_criterion_1_census_exactness():
    with criterion("1 census exactness"):
        for n_alts, n_inds, expected in (
            (3, 3, (6, 37, 21)),
            (3, 4, (36, 175, 45)),
        ):
            start = time.perf_counter()
            report = census_brute(n_alts, n_inds)
            elapsed = time.perf_counter() - start
            assert (report.ip, report.dp, report.pp) == expected
            assert report.total == sum(expected)
            assert elapsed < 10.0
        start = time.perf_counter()
        report = census_brute(4, 3)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert report.total == 1331
        assert report.dp == 331
        # recomputed by three independent methods; any relabeling-invariant
        # classification has an IP count divisible by 3 here
        assert (report.ip, report.pp) == (372, 628)


def test_criterion_1_census_four_alternatives_as_stated():
    # stated expectation for the third case. It cannot hold: labeled counts
    # are sums of multiset weights 1, 3, 6, and the weight-1 multisets give
    # all three individuals one shared evaluable set, whose clique covers
    # every cycle, so they are never IP; hence IP % 3 == 0, while 371 % 3 == 2
    with criterion("1 census (4 alts, 3 inds) as stated"):
        report = census_brute(4, 3)
        assert (report.ip, report.dp, report.pp) == (371, 331, 629)


# -- criterion 2: proportion grid ----------------------------------------------


GRID_ROWS = {
    3: ["0.58", "0.82", "0.92", "0.97", "0.99", "0.99", "1.00", "1.00", "1.00"],
    5: ["0.11", "0.21", "0.30", "0.38", "0.44", "0.51", "0.56", "0.61", "0.65"],
    7: ["0.02", "0.05", "0.07", "0.10", "0.12", "0.14", "0.16", "0.18", "0.20"],
    # first cell: exact value 754507/126506008 = 0.0059642..., which rounds
    # to 0.01 at two decimals; asserted separately below
    9: ["0.01", "0.01", "0.02", "0.02", "0.03", "0.04", "0.04", "0.05", "0.05"],
}
GRID_INDS = (3, 6, 9, 12, 15, 18, 21, 24, 27)


def test_criterion_2_proportion_grid():
    with criterion("2 proportion grid"):
        start = time.perf_counter()
        for n_alts, row in GRID_ROWS.items():
            for n_inds, cell in zip(GRID_INDS, row):
                assert format_proportion(dp_proportion(n_alts, n_inds)) == cell
        # the high-count cells render as 1.00 yet stay strictly below one
        for n_inds in (21, 24, 27):
            value = dp_proportion(3, n_inds)
            assert value < 1
            assert format_proportion(value) == "1.00"
        assert time.perf_counter() - start < 1.0


def test_criterion_2_nine_three_cell_as_stated():
    # stated rendering of the (9 alternatives, 3 individuals) cell
    with criterion("2 grid cell (9,3) as stated"):
        value = dp_proportion(9, 3)
        assert value == Fraction(754507, 126506008)
        assert format_proportion(value) == "0.00"


# -- criterion 3: worked-example golden ----------------------------------------


def test_criterion_3_worked_example_golden():
    with criterion("3 worked example golden"):
        profile = example_profile()
        rankings = example_rankings()
        family = maximal_cycle_family(profile)
        constraint = delegation_relation(profile, rankings, family)
        assert constraint.arcs == EXAMPLE_ARCS
        result = aggregate_delegation(profile, rankings)
        assert result.constraint.arcs == EXAMPLE_ARCS
        assert extends(result.order, result.constraint)
        reference = WeakOrder.from_ranking([1, 4, 6, 5, 3, 0, 2])
        assert extends(reference, result.constraint)


# -- criterion 4: exhaustive axiom suite on the worked example ------------------


def test_criterion_4_axiom_suite_on_example():
    with criterion("4 worked example axiom suite"):
        profile = example_profile()
        rule = make_rule("fstarstar", profile)
        start = time.perf_counter()
        report = verify_rule(rule, profile, ("tv", "pc", "iia", "nc", "wpc", "nd"))
        elapsed = time.perf_counter() - start
        assert report.profile_space_size == 2925
        assert report.all_passed
        assert elapsed < 60.0


# -- criterion 5: delegation rule sweep at three alternatives -------------------


def test_criterion_5_delegation_sweep_three_by_three():
    with criterion("5 delegation sweep (3,3)"):
        start = time.perf_counter()
        verdicts = {IP: 0, DP: 0, PP: 0}
        for masks in all_profiles_masks(3, 3):
            profile = profile_from_masks(3, masks)
            clf = classify(profile)
            verdicts[clf.verdict] += 1
            if clf.verdict == IP:
                continue
            rule = make_rule("fstarstar", profile)
            report = verify_rule(rule, profile, ("tv", "pc", "iia", "nd"))
            for axiom in ("tv", "pc", "iia"):
                assert report.verdict(axiom).passed, (masks, axiom)
            nd = report.verdict("nd")
            if clf.verdict == PP:
                assert nd.passed, masks
            else:
                assert not nd.passed, masks
                dictator = nd.counterexample.individual
                assert dictator in complete_individuals(profile)
                assert dictator in report.quasi_dictators
        elapsed = time.perf_counter() - start
        assert verdicts == {IP: 6, DP: 37, PP: 21}
        assert elapsed < 600.0


# -- criterion 6: impossibility witnesses ---------------------------------------


def test_criterion_6_impossibility_witnesses():
    with criterion("6 impossibility witnesses (3,3)"):
        found = 0
        for masks in all_profiles_masks(3, 3):
            profile = profile_from_masks(3, masks)
            cover = check_cycle_cover(profile)
            if cover.holds:
                continue
            found += 1
            witness = cyclic_rankings(profile, cover.uncovered_cycle)
            constraint = unanimity_relation(profile, witness.rankings)
            acyclic, cycle = is_acyclic(constraint)
            assert not acyclic
            # replay: the reported cycle is a genuine directed cycle and every
            # adjacent cycle pair is unanimously ranked against cycle direction
            for i, a in enumerate(cycle):
                assert (a, cycle[(i + 1) % len(cycle)]) in constraint.arcs
            seq = witness.cycle
            ev = profile.evaluator_masks
            for i, a in enumerate(seq):
                b = seq[(i + 1) % len(seq)]
                common = ev[a] & ev[b]
                assert common
                while common:
                    v_index = (common & -common).bit_length() - 1
                    common &= common - 1
                    assert witness.rankings.orders[v_index].prefers(b, a)
        assert found == 6


# -- criterion 7: constraint acyclicity everywhere ------------------------------


def test_criterion_7_constraint_acyclicity():
    with criterion("7 constraint acyclicity"):
        checked = 0
        for masks in all_profiles_masks(3, 3):
            profile = profile_from_masks(3, masks)
            if not check_cycle_cover(profile).holds:
                continue
            family = maximal_cycle_family(profile)
            for rankings in enumerate_rankings(profile):
                star = unanimity_relation(profile, rankings)
                assert is_acyclic(star)[0]
                dstar = delegation_relation(profile, rankings, family)
                assert is_acyclic(dstar)[0]
                checked += 1
        assert checked > 10_000
        profile = example_profile()
        family = maximal_cycle_family(profile)
        for rankings in enumerate_rankings(profile):
            assert is_acyclic(unanimity_relation(profile, rankings))[0]
            assert is_acyclic(delegation_relation(profile, rankings, family))[0]


# -- criterion 8: decider against the naive oracle ------------------------------


def test_criterion_8_oracle_equivalence():
    with criterion("8 oracle equivalence"):
        # both deciders depend only on the set of distinct evaluable sets, so
        # sweeping those families covers every labeled three-individual profile
        for n_alts in (3, 4, 5):
            for family in distinct_clique_families(n_alts, 3):
                profile = profile_from_masks(n_alts, family)
                assert check_cycle_cover(profile).holds == naive_cycle_cover(profile)[0]
        # belt and braces: the full labeled spaces at three alternatives
        for n_alts, n_inds in ((3, 3), (3, 4)):
            for masks in all_profiles_masks(n_alts, n_inds):
                profile = profile_from_masks(n_alts, masks)
                assert check_cycle_cover(profile).holds == naive_cycle_cover(profile)[0]
        rng = random.Random(20250808)
        for _ in range(1000):
            profile = random_profile(rng, 6)
            assert check_cycle_cover(profile).holds == naive_cycle_cover(profile)[0]
        regression = build_profile(
            ["1", "2", "3", "4"], ["u", "w", "x"],
            {"u": ["1", "2", "3"], "w": ["1", "3", "4"], "x": ["1", "2", "3"]},
        )
        assert classify(regression).verdict == IP


# -- criterion 9: symmetric census equals brute ---------------------------------


def test_criterion_9_symmetric_census_equals_brute():
    with criterion("9 symmetric census equals brute"):
        for n_alts, n_inds in ((3, 3), (3, 4), (4, 3), (3, 6)):
            brute = census_brute(n_alts, n_inds)
            symmetric = census_symmetric(n_alts, n_inds)
            assert (brute.ip, brute.dp, brute.pp, brute.total) == (
                symmetric.ip,
                symmetric.dp,
                symmetric.pp,
                symmetric.total,
            )


# -- criterion 10: end-to-end determinism ---------------------------------------


def test_criterion_10_determinism(capsys, tmp_path):
    from rankagg.cli import dumps, main

    with criterion("10 determinism"):
        from importlib import resources

        profile_path = tmp_path / "profile.json"
        rankings_path = tmp_path / "rankings.json"
        peer_path = tmp_path / "peer.json"
        golden = resources.files("rankagg").joinpath("golden")
        profile_path.write_text(
            golden.joinpath("example_profile.json").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        rankings_path.write_text(
            golden.joinpath("example_rankings.json").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        peer_path.write_text(
            dumps({
                "schema_version": 1,
                "alternatives": ["1", "2", "3"],
                "individuals": [
                    {"id": "1", "evaluates": ["2", "3"]},
                    {"id": "2", "evaluates": ["1", "3"]},
                    {"id": "3", "evaluates": ["1", "2"]},
                ],
            }),
            encoding="utf-8",
        )
        invocations = [
            ["classify", str(profile_path)],
            ["aggregate", "--rule", "fstarstar", str(profile_path), str(rankings_path)],
            ["aggregate", "--rule", "fstar", str(profile_path), str(rankings_path)],
            ["verify", "--rule", "fstarstar", "--axioms", "tv,pc,iia", str(profile_path)],
            ["verify", "--rule", "fstarstar", "--axioms", "tv,pc,iia", "--threads", "3", str(profile_path)],
            ["census", "--alts", "3", "--inds", "4"],
            ["census", "--alts", "3", "--inds", "4", "--threads", "3"],
            ["census", "--alts", "3", "--inds", "4", "--method", "symmetric"],
            ["table1"],
            ["witness-cyclic", str(peer_path)],
            ["repro"],
        ]
        outputs = []
        for argv in invocations:
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, argv
            outputs.append(captured.out)
        for argv, first in zip(invocations, outputs):
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0
            assert captured.out == first, argv
        # threaded runs match unthreaded runs byte for byte
        assert outputs[3] == outputs[4]
        assert outputs[5] == outputs[6]
