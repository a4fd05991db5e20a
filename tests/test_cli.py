import json
import sys
import time
from importlib import resources

import pytest

from rankagg import aggregators, census, cli
from rankagg.cli import (
    DocumentError,
    dumps,
    golden_outputs,
    main,
    parse_profile_document,
    parse_rankings_document,
    profile_document,
    rankings_document,
)

PEER_DOC = {
    "schema_version": 1,
    "alternatives": ["1", "2", "3"],
    "individuals": [
        {"id": "1", "evaluates": ["2", "3"]},
        {"id": "2", "evaluates": ["1", "3"]},
        {"id": "3", "evaluates": ["1", "2"]},
    ],
}


def _golden(name):
    return resources.files("rankagg").joinpath("golden", name).read_text(encoding="utf-8")


@pytest.fixture
def example_paths(tmp_path):
    profile = tmp_path / "profile.json"
    rankings = tmp_path / "rankings.json"
    profile.write_text(_golden("example_profile.json"), encoding="utf-8")
    rankings.write_text(_golden("example_rankings.json"), encoding="utf-8")
    return str(profile), str(rankings)


@pytest.fixture
def peer_path(tmp_path):
    path = tmp_path / "peer.json"
    path.write_text(dumps(PEER_DOC), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- documents ----------------------------------------------------------------


def test_profile_document_round_trip():
    text = _golden("example_profile.json")
    profile = parse_profile_document(json.loads(text))
    assert dumps(profile_document(profile)) == text


def test_rankings_document_round_trip():
    profile = parse_profile_document(json.loads(_golden("example_profile.json")))
    text = _golden("example_rankings.json")
    rankings = parse_rankings_document(profile, json.loads(text))
    assert dumps(rankings_document(profile, rankings)) == text


def test_unknown_profile_field_rejected():
    doc = dict(PEER_DOC, extra=1)
    with pytest.raises(DocumentError, match="extra"):
        parse_profile_document(doc)


def test_wrong_schema_version_rejected():
    doc = dict(PEER_DOC, schema_version=7)
    with pytest.raises(DocumentError):
        parse_profile_document(doc)


@pytest.mark.parametrize("version,shown", [(True, "True"), (1.0, "1.0")])
def test_schema_version_equal_to_one_but_not_an_int_exits_2(capsys, tmp_path, version, shown):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(dict(PEER_DOC, schema_version=version)), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert f"unsupported schema_version {shown}" in err


def test_rankings_must_cover_evaluable_set():
    profile = parse_profile_document(PEER_DOC)
    with pytest.raises(DocumentError, match="cover"):
        parse_rankings_document(profile, {"rankings": {"1": [["2"]], "2": [["1"], ["3"]], "3": [["1"], ["2"]]}})


def test_rankings_reject_duplicate_alternative():
    profile = parse_profile_document(PEER_DOC)
    with pytest.raises(DocumentError, match="repeats"):
        parse_rankings_document(
            profile,
            {"rankings": {"1": [["2"], ["2"]], "2": [["1"], ["3"]], "3": [["1"], ["2"]]}},
        )


def test_rankings_reject_unknown_individual():
    profile = parse_profile_document(PEER_DOC)
    with pytest.raises(DocumentError, match="unknown"):
        parse_rankings_document(
            profile,
            {"rankings": {"1": [["2"], ["3"]], "2": [["1"], ["3"]], "3": [["1"], ["2"]], "9": []}},
        )


# -- classify -----------------------------------------------------------------


def test_classify_example(capsys, example_paths):
    code, out, _ = run_cli(capsys, "classify", example_paths[0])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PP"
    assert payload["witness"]["coverage"][0]["individual"] == "v1"


def test_classify_peer_rating(capsys, peer_path):
    code, out, _ = run_cli(capsys, "classify", peer_path)
    assert code == 0
    assert json.loads(out) == {"verdict": "IP", "witness": {"cycle": ["1", "2", "3"]}}


def test_classify_invalid_document_exits_2(capsys, tmp_path):
    doc = {
        "schema_version": 1,
        "alternatives": ["a", "b", "c"],
        "individuals": [
            {"id": "v1", "evaluates": ["a"]},
            {"id": "v2", "evaluates": ["a", "b"]},
            {"id": "v3", "evaluates": ["b", "c"]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert out == ""
    assert "v1" in err


# -- aggregate ----------------------------------------------------------------


def test_aggregate_delegation_example(capsys, example_paths):
    code, out, _ = run_cli(capsys, "aggregate", "--rule", "fstarstar", *example_paths)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == [["a2"], ["a5"], ["a7"], ["a6"], ["a4"], ["a1"], ["a3"]]
    assert len(payload["constraint_arcs"]) == 10
    assert payload["degenerate"] is False


def test_aggregate_unanimity_on_shared_order(capsys, tmp_path):
    doc = {
        "schema_version": 1,
        "alternatives": ["a", "b", "c"],
        "individuals": [
            {"id": "v1", "evaluates": ["a", "b", "c"]},
            {"id": "v2", "evaluates": ["a", "b", "c"]},
            {"id": "v3", "evaluates": ["a", "b", "c"]},
        ],
    }
    ranks = {"rankings": {v: [["c"], ["a"], ["b"]] for v in ("v1", "v2", "v3")}}
    p = tmp_path / "p.json"
    r = tmp_path / "r.json"
    p.write_text(dumps(doc), encoding="utf-8")
    r.write_text(dumps(ranks), encoding="utf-8")
    code, out, _ = run_cli(capsys, "aggregate", "--rule", "fstar", str(p), str(r))
    assert code == 0
    assert json.loads(out)["order"] == [["c"], ["a"], ["b"]]


@pytest.mark.parametrize("entry", [["a"], {"name": "a"}])
def test_aggregate_rejects_non_string_tier_entry_with_exit_2(capsys, peer_path, tmp_path, entry):
    ranks = {"rankings": {"1": [[entry], ["3"]], "2": [["1"], ["3"]], "3": [["1"], ["2"]]}}
    r = tmp_path / "r.json"
    r.write_text(dumps(ranks), encoding="utf-8")
    code, out, err = run_cli(capsys, "aggregate", "--rule", "fstar", peer_path, str(r))
    assert code == 2
    assert out == ""
    assert "must be a list of tiers of strings" in err


def test_aggregate_delegation_on_impossible_profile_exits_3(capsys, peer_path, tmp_path):
    ranks = {"rankings": {"1": [["2"], ["3"]], "2": [["1"], ["3"]], "3": [["1"], ["2"]]}}
    r = tmp_path / "r.json"
    r.write_text(dumps(ranks), encoding="utf-8")
    code, out, err = run_cli(capsys, "aggregate", "--rule", "fstarstar", peer_path, str(r))
    assert code == 3
    assert out == ""
    assert "witness_cycle" in err


def test_refusal_witness_names_alternatives(capsys, tmp_path):
    # a 4-ring of pairs: no individual evaluates the ring, so cover fails
    names = ["w", "x", "y", "z"]
    doc = {
        "schema_version": 1,
        "alternatives": names,
        "individuals": [
            {"id": f"v{i}", "evaluates": [names[i], names[(i + 1) % 4]]} for i in range(4)
        ],
    }
    ranks = {"rankings": {f"v{i}": [[names[i]], [names[(i + 1) % 4]]] for i in range(4)}}
    p = tmp_path / "ring.json"
    r = tmp_path / "r.json"
    p.write_text(dumps(doc), encoding="utf-8")
    r.write_text(dumps(ranks), encoding="utf-8")
    for argv in (
        ("aggregate", "--rule", "fstarstar", str(p), str(r)),
        ("verify", "--rule", "fstarstar", str(p)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        message, _, witness = err.partition("\n")
        assert message.startswith("precondition failed:")
        assert json.loads(witness) == {"witness_cycle": names}, argv


def test_aggregate_with_custom_tiebreak(capsys, example_paths):
    code, out, _ = run_cli(
        capsys, "aggregate", "--rule", "fstarstar",
        "--tiebreak", "a7,a6,a5,a4,a3,a2,a1", *example_paths,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["constraint_arcs"]) == 10  # linear inputs leave no ties


def test_bad_tiebreak_exits_2(capsys, example_paths):
    code, _, err = run_cli(
        capsys, "aggregate", "--rule", "fstar", "--tiebreak", "a1,a2", *example_paths
    )
    assert code == 2
    assert "tiebreak" in err


# -- verify -------------------------------------------------------------------


def test_verify_small_profile(capsys, peer_path, tmp_path):
    doc = {
        "schema_version": 1,
        "alternatives": ["a", "b", "c"],
        "individuals": [
            {"id": "v1", "evaluates": ["a", "b"]},
            {"id": "v2", "evaluates": ["a", "c"]},
            {"id": "v3", "evaluates": ["a", "b"]},
        ],
    }
    path = tmp_path / "pp.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--rule", "fstarstar", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["profile_space_size"] == 27
    assert all(entry["passed"] for entry in payload["axioms"].values())
    assert list(payload["axioms"]) == ["tv", "pc", "wpc", "iia", "nc", "nd"]


def test_verify_reports_dictator(capsys, tmp_path):
    doc = {
        "schema_version": 1,
        "alternatives": ["a", "b", "c"],
        "individuals": [
            {"id": "v1", "evaluates": ["a", "b", "c"]},
            {"id": "v2", "evaluates": ["a", "b"]},
            {"id": "v3", "evaluates": ["b", "c"]},
        ],
    }
    path = tmp_path / "dp.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--rule", "fstarstar", "--axioms", "nd", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["axioms"]["nd"]["passed"] is False
    assert payload["axioms"]["nd"]["counterexample"]["individual"] == "v1"
    assert payload["quasi_dictators"] == ["v1"]


def test_verify_budget_exceeded_exits_4(capsys, example_paths):
    code, out, err = run_cli(
        capsys, "verify", "--rule", "fstarstar", "--budget", "10", example_paths[0]
    )
    assert code == 4
    assert out == ""
    assert "2925" in err


def test_verify_budget_refused_before_any_rule_is_compiled(capsys, tmp_path):
    # 545,835 weak orders for v1 times 3 and 3: a space of 4,912,515
    letters = list("abcdefgh")
    path = tmp_path / "wide.json"
    path.write_text(dumps({
        "schema_version": 1,
        "alternatives": letters,
        "individuals": [
            {"id": "v1", "evaluates": letters},
            {"id": "v2", "evaluates": ["a", "b"]},
            {"id": "v3", "evaluates": ["c", "d"]},
        ],
    }), encoding="utf-8")
    for rule in ("fstar", "fstarstar", "constant", "majority", "dictatorship:v1"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--rule", rule, "--budget", "10", str(path))
        assert time.perf_counter() - start < 1.0, rule
        assert code == 4, rule
        assert out == ""
        assert "4912515" in err


def test_verify_fstarstar_refuses_the_budget_before_sweeping_subsets(
    capsys, monkeypatch, tmp_path
):
    # triangles {x00,x01,x02}, {x02,x03,x04}, ...: seven of them on 15
    # alternatives give 13^7 = 62,748,517 ranking profiles, over the default budget
    names = [f"x{i:02d}" for i in range(15)]
    path = tmp_path / "chain.json"
    path.write_text(dumps({
        "schema_version": 1,
        "alternatives": names,
        "individuals": [{"id": f"v{k}", "evaluates": names[2 * k:2 * k + 3]} for k in range(7)],
    }), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("fstarstar swept the maximal cyclic sets")

    monkeypatch.setattr(aggregators, "maximal_cyclic_sets", refuse)
    code, out, err = run_cli(capsys, "verify", "--rule", "fstarstar", str(path))
    assert (code, out) == (4, "")
    assert "62748517" in err


def test_verify_fstarstar_on_an_ip_profile_over_budget_exits_4(capsys, peer_path):
    # the budget is checked before the cycle-cover precondition (exit 3)
    code, out, err = run_cli(capsys, "verify", "--rule", "fstarstar", "--budget", "10", peer_path)
    assert (code, out) == (4, "")
    assert "ranking space has 27 profiles, budget allows 10" in err
    code, _, err = run_cli(capsys, "verify", "--rule", "fstarstar", peer_path)
    assert code == 3
    assert "witness_cycle" in err


def test_verify_unknown_axiom_exits_2(capsys, example_paths):
    code, _, err = run_cli(
        capsys, "verify", "--rule", "fstar", "--axioms", "tv,zz", example_paths[0]
    )
    assert code == 2
    assert "zz" in err


def test_threads_below_one_exits_2(capsys, example_paths):
    for argv in (
        ("verify", "--rule", "fstar", "--threads", "0", example_paths[0]),
        ("census", "--alts", "3", "--inds", "3", "--threads", "0"),
        ("census", "--alts", "3", "--inds", "3", "--method", "symmetric", "--threads", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "--threads" in err


# -- census and table ----------------------------------------------------------


def test_census_cli(capsys):
    code, out, _ = run_cli(capsys, "census", "--alts", "3", "--inds", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"IP": 6, "DP": 37, "PP": 21}
    assert payload["proportions"]["DP"]["rational"] == "37/64"
    assert payload["method"] == "brute"


def test_census_symmetric_cli_matches(capsys):
    code, brute, _ = run_cli(capsys, "census", "--alts", "3", "--inds", "4")
    assert code == 0
    code, symmetric, _ = run_cli(
        capsys, "census", "--alts", "3", "--inds", "4", "--method", "symmetric"
    )
    assert code == 0
    a, b = json.loads(brute), json.loads(symmetric)
    assert a["counts"] == b["counts"]
    assert a["method"] == "brute" and b["method"] == "symmetric"


def test_census_budget_exits_4(capsys):
    code, _, err = run_cli(capsys, "census", "--alts", "4", "--inds", "3", "--budget", "5")
    assert code == 4
    assert "1331" in err


def test_census_symmetric_runs_at_the_multiset_budget(capsys):
    # 8008 is the number of 6-multisets of the 11 sets; the hyperforest rows
    # of 4 alternatives have at most 7 cells. The counts are those of the
    # brute census.
    argv = ("census", "--method", "symmetric", "--alts", "4", "--inds", "6")
    code, out, _ = run_cli(capsys, *argv, "--budget", "8008")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"IP": 879012, "DP": 771561, "PP": 120988}
    assert payload["total"] == 1771561


def test_census_symmetric_refuses_a_table_row_over_budget(capsys):
    # the rows of 1 to 6 alternatives have 1, 2, 4, 7, 12 and 19 cells
    argv = ("census", "--method", "symmetric", "--alts", "6", "--inds", "3")
    code, out, _ = run_cli(capsys, *argv, "--budget", "19")
    assert code == 0
    assert json.loads(out)["counts"] == {"IP": 114120, "DP": 9577, "PP": 61496}
    code, out, err = run_cli(capsys, *argv, "--budget", "10")
    assert (code, out) == (4, "")
    assert err == "budget exceeded: hyperforest table row 5 has 12 cells, budget allows 10\n"


@pytest.mark.parametrize("method", ["brute", "symmetric"])
def test_census_total_too_long_to_print_is_refused_before_any_work(capsys, monkeypatch, method):
    # 11^4200 has 4,374 digits, over the default limit of 4,300
    def refuse(*args, **kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr(cli, "census_brute", refuse)
    monkeypatch.setattr(cli, "census_symmetric", refuse)
    code, out, err = run_cli(capsys, "census", "--method", method, "--alts", "4", "--inds", "4200")
    assert code == 4
    assert out == ""
    assert "census total has 4374 digits" in err


def test_census_total_within_the_print_limit_still_runs(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--method", "symmetric", "--alts", "4", "--inds", "4000"
    )
    assert code == 0
    assert json.loads(out)["total"] == 11**4000


def test_census_digit_check_is_skipped_without_a_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run_cli(
            capsys, "census", "--method", "symmetric", "--alts", "4", "--inds", "4200"
        )
        assert code == 0
        assert json.loads(out)["total"] == 11**4200
    finally:
        sys.set_int_max_str_digits(limit)


def test_brute_census_of_ten_million_individuals_refused_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "census", "--alts", "4", "--inds", "10000000")
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert "10413927 digits" in err


@pytest.mark.parametrize("command", [["census", "--inds", "3"], ["table1", "--inds", "3"]])
def test_huge_alternative_count_refused_without_building_the_set_count(
    capsys, monkeypatch, command
):
    real = census.evaluable_set_count

    def small_only(n_alts):
        if n_alts > 10**4:
            raise AssertionError(f"built 2**{n_alts}")
        return real(n_alts)

    monkeypatch.setattr(census, "evaluable_set_count", small_only)
    code, out, err = run_cli(capsys, *command, "--alts", "100000000")
    assert (code, out) == (4, "")
    assert err == "budget exceeded: census total has 90308999 digits, budget allows 4300\n"


def test_census_too_few_alternatives_exits_2(capsys):
    code, _, err = run_cli(capsys, "census", "--alts", "2", "--inds", "3")
    assert code == 2
    assert "alternatives" in err


def test_verify_unknown_rule_exits_2(capsys, example_paths):
    code, _, err = run_cli(capsys, "verify", "--rule", "borda", example_paths[0])
    assert code == 2
    assert "borda" in err


@pytest.mark.parametrize("rule", ["borda", "fstar:v1", "dictatorship:v9"])
def test_verify_unknown_rule_over_budget_exits_2(capsys, example_paths, rule):
    # the rule id is checked before the ranking space is charged
    code, out, err = run_cli(capsys, "verify", "--rule", rule, "--budget", "1", example_paths[0])
    assert (code, out) == (2, "")
    assert "unknown" in err and "budget" not in err


@pytest.mark.parametrize(
    "rule,message",
    [
        ("majority:foo", "unknown rule 'majority:foo'"),
        ("fstar:v9", "unknown rule 'fstar:v9'"),
        ("constant:zzz", "unknown rule 'constant:zzz'"),
        ("dictatorship:", "unknown individual ''"),
    ],
)
def test_verify_rule_with_a_stray_argument_exits_2(capsys, example_paths, rule, message):
    code, out, err = run_cli(capsys, "verify", "--rule", rule, example_paths[0])
    assert (code, out) == (2, "")
    assert message in err


def test_table_text_output(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[1].split()[1] == "0.58"


def test_table_json_output(capsys):
    code, out, _ = run_cli(capsys, "table1", "--json", "--alts", "3", "--inds", "3,6")
    assert code == 0
    payload = json.loads(out)
    assert payload["cells"]["3"]["6"] == "0.82"


def test_default_table_matches_the_golden_grid(capsys):
    golden = _golden("table1.txt")
    code, out, _ = run_cli(capsys, "table1")
    assert (code, out) == (0, golden)
    code, out, _ = run_cli(capsys, "table1", "--json")
    rows = [line.split() for line in golden.splitlines()]
    assert code == 0
    assert json.loads(out) == {
        "alt_counts": [int(row[0]) for row in rows[1:]],
        "ind_counts": [int(m) for m in rows[0][1:]],
        "cells": {row[0]: dict(zip(rows[0][1:], row[1:])) for row in rows[1:]},
    }


@pytest.mark.parametrize(
    "alts,inds,flags,digits",
    # 502^10^7, and 4^10^7 for the first unprintable cell of the second grid
    [("9", "10000000", (), 27007038), ("3,9", "3,10000000", ("--json",), 6020600)],
)
def test_table_with_an_unprintable_cell_is_refused_before_any_work(
    capsys, monkeypatch, alts, inds, flags, digits
):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was computed")

    monkeypatch.setattr(cli, "dp_proportion_grid", refuse)
    monkeypatch.setattr(cli, "render_grid", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table1", "--alts", alts, "--inds", inds, *flags)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert f"census total has {digits} digits" in err


# -- witness ------------------------------------------------------------------


def test_witness_cyclic_peer_rating(capsys, peer_path):
    code, out, _ = run_cli(capsys, "witness-cyclic", peer_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["cycle"] == ["1", "2", "3"]
    assert payload["rankings"]["1"] == [["3"], ["2"]]
    assert payload["rankings"]["2"] == [["1"], ["3"]]
    assert payload["rankings"]["3"] == [["2"], ["1"]]
    assert set(payload["unanimity_cycle"]) == {"1", "2", "3"}


def test_witness_cyclic_on_possible_profile_exits_3(capsys, example_paths):
    code, out, err = run_cli(capsys, "witness-cyclic", example_paths[0])
    assert code == 3
    assert out == ""
    assert "no witness" in err


def test_witness_replays_as_unanimity_cycle():
    from rankagg.aggregators import unanimity_relation
    from rankagg.conditions import classify, cyclic_rankings
    from rankagg.relations import is_acyclic

    profile = parse_profile_document(PEER_DOC)
    witness = cyclic_rankings(profile, classify(profile).cycle_cover.uncovered_cycle)
    ok, _ = is_acyclic(unanimity_relation(profile, witness.rankings))
    assert not ok


# -- repro and determinism ------------------------------------------------------


def test_repro_command(capsys):
    code, out, _ = run_cli(capsys, "repro")
    assert code == 0
    assert "all golden artifacts reproduced" in out


def test_golden_outputs_match_committed_fixtures():
    for name, computed in golden_outputs().items():
        assert computed == _golden(name), name


def test_commands_are_deterministic(capsys, example_paths, peer_path):
    invocations = [
        ("classify", example_paths[0]),
        ("classify", peer_path),
        ("aggregate", "--rule", "fstarstar", *example_paths),
        ("census", "--alts", "3", "--inds", "3"),
        ("census", "--alts", "3", "--inds", "4", "--threads", "3"),
        ("table1",),
        ("witness-cyclic", peer_path),
    ]
    for argv in invocations:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
