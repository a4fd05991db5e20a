"""Command line surface: classify, aggregate, verify, census, table1,
witness-cyclic, repro.

Documents are JSON, UTF-8, with fixed field order; unknown fields are
rejected. Exit codes: 0 success, 2 validation error, 3 structural
precondition failure, 4 budget exceeded. All outputs are deterministic.
``verify`` and ``census`` accept --threads for compatibility: it must be at
least 1 and changes neither the output nor the speed, since both commands
run sequentially.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Any, Iterable

from .aggregators import (
    AggregationResult,
    aggregate_delegation,
    aggregate_unanimity,
    default_tiebreak,
    unanimity_relation,
)
from .census import (
    CensusBudgetError,
    CensusReport,
    DEFAULT_BUDGET,
    DEFAULT_FOREST_BUDGET,
    DEFAULT_GRID_ALTS,
    DEFAULT_GRID_INDS,
    census_brute,
    census_symmetric,
    dp_proportion_grid,
    format_proportion,
    render_grid,
    total_digits,
)
from .conditions import (
    IP,
    ConditionViolationError,
    CyclicRankings,
    ProfileClassification,
    classify,
    cyclic_rankings,
)
from .profiles import EvaluabilityProfile, build_profile
from .properties import (
    AXIOM_IDS,
    BudgetExceededError,
    Counterexample,
    PropertyReport,
    check_rule_id,
    check_space_budget,
    make_rule,
    verify_rule,
)
from .relations import RankingProfile, WeakOrder, is_acyclic

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    """Malformed input document."""


def dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def parse_profile_document(doc: Any) -> EvaluabilityProfile:
    if not isinstance(doc, dict):
        raise DocumentError("profile document must be a JSON object")
    expected = {"schema_version", "alternatives", "individuals"}
    unknown = set(doc) - expected
    if unknown:
        raise DocumentError(f"unknown profile fields: {sorted(unknown)}")
    missing = expected - set(doc)
    if missing:
        raise DocumentError(f"missing profile fields: {sorted(missing)}")
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise DocumentError(f"unsupported schema_version {version!r}")
    alternatives = doc["alternatives"]
    if not isinstance(alternatives, list) or not all(isinstance(a, str) for a in alternatives):
        raise DocumentError("alternatives must be a list of strings")
    individuals = doc["individuals"]
    if not isinstance(individuals, list):
        raise DocumentError("individuals must be a list of objects")
    ids = []
    evaluable = {}
    for entry in individuals:
        if not isinstance(entry, dict) or set(entry) != {"id", "evaluates"}:
            raise DocumentError("each individual needs exactly the fields id and evaluates")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise DocumentError("individual id must be a string")
        names = entry["evaluates"]
        if not isinstance(names, list) or not all(isinstance(a, str) for a in names):
            raise DocumentError(f"evaluates of {vid!r} must be a list of strings")
        if len(set(names)) != len(names):
            raise DocumentError(f"evaluates of {vid!r} contains duplicates")
        ids.append(vid)
        evaluable[vid] = names
    if len(set(ids)) != len(ids):
        raise DocumentError("duplicate individual ids")
    return build_profile(alternatives, ids, evaluable)


def profile_document(profile: EvaluabilityProfile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "alternatives": list(profile.alternatives),
        "individuals": [
            {"id": vid, "evaluates": profile.alt_names(mask)}
            for vid, mask in zip(profile.individuals, profile.evaluable)
        ],
    }


def parse_rankings_document(profile: EvaluabilityProfile, doc: Any) -> RankingProfile:
    if not isinstance(doc, dict):
        raise DocumentError("rankings document must be a JSON object")
    unknown = set(doc) - {"rankings"}
    if unknown:
        raise DocumentError(f"unknown rankings fields: {sorted(unknown)}")
    if "rankings" not in doc or not isinstance(doc["rankings"], dict):
        raise DocumentError("rankings document needs a rankings object")
    entries = doc["rankings"]
    stray = set(entries) - set(profile.individuals)
    if stray:
        raise DocumentError(f"rankings given for unknown individuals: {sorted(stray)}")
    orders = []
    for v, vid in enumerate(profile.individuals):
        if vid not in entries:
            raise DocumentError(f"no ranking for individual {vid!r}")
        tiers = entries[vid]
        if not isinstance(tiers, list) or not all(
            isinstance(t, list) and all(isinstance(a, str) for a in t) for t in tiers
        ):
            raise DocumentError(f"ranking of {vid!r} must be a list of tiers of strings")
        masks = []
        seen = 0
        for tier in tiers:
            mask = profile.alt_mask(tier)
            if mask == 0:
                raise DocumentError(f"ranking of {vid!r} contains an empty tier")
            if mask & seen or mask.bit_count() != len(tier):
                raise DocumentError(f"ranking of {vid!r} repeats an alternative")
            seen |= mask
            masks.append(mask)
        if seen != profile.evaluable[v]:
            raise DocumentError(
                f"ranking of {vid!r} must cover exactly its evaluable set"
            )
        orders.append(WeakOrder(tuple(masks)))
    return RankingProfile(tuple(orders))


def rankings_document(profile: EvaluabilityProfile, rankings: RankingProfile) -> dict:
    return {
        "rankings": {
            vid: [profile.alt_names(tier) for tier in order.tiers]
            for vid, order in zip(profile.individuals, rankings.orders)
        }
    }


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from None


def _load_profile(path: str) -> EvaluabilityProfile:
    return parse_profile_document(_load_json(path))


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------


def classification_json(profile: EvaluabilityProfile, clf: ProfileClassification) -> dict:
    if clf.verdict == "IP":
        witness: dict = {"cycle": profile.alt_names(clf.cycle_cover.uncovered_cycle)}
    elif clf.verdict == "DP":
        witness = {"complete_individual": profile.individuals[clf.complete_individual]}
    else:
        witness = {
            "coverage": [
                {"nodes": profile.alt_names(mask), "individual": profile.individuals[v]}
                for mask, v in clf.cycle_cover.certificate
            ],
            "spanning_cycle_free": True,
        }
    return {"verdict": clf.verdict, "witness": witness}


def aggregation_json(profile: EvaluabilityProfile, result: AggregationResult) -> dict:
    return {
        "order": [profile.alt_names(tier) for tier in result.order.tiers],
        "constraint_arcs": [
            [profile.alternatives[a], profile.alternatives[b]]
            for a, b in sorted(result.constraint.arcs)
        ],
        "degenerate": result.degenerate,
    }


def _counterexample_json(profile: EvaluabilityProfile, ce: Counterexample | None) -> Any:
    if ce is None:
        return None
    payload: dict[str, Any] = {}
    if ce.pair is not None:
        payload["pair"] = [profile.alternatives[ce.pair[0]], profile.alternatives[ce.pair[1]]]
    if ce.triple is not None:
        payload["triple"] = [profile.alternatives[i] for i in ce.triple]
    if ce.rankings is not None:
        payload["rankings"] = rankings_document(profile, ce.rankings)["rankings"]
    if ce.rankings_alt is not None:
        payload["rankings_alt"] = rankings_document(profile, ce.rankings_alt)["rankings"]
    if ce.outcome is not None:
        payload["outcome"] = ce.outcome
    if ce.individual is not None:
        payload["individual"] = profile.individuals[ce.individual]
    return payload


def report_json(profile: EvaluabilityProfile, rule: str, report: PropertyReport) -> dict:
    return {
        "rule": rule,
        "axioms": {
            verdict.axiom: {
                "passed": verdict.passed,
                "counterexample": _counterexample_json(profile, verdict.counterexample),
            }
            for verdict in report.axioms
        },
        "quasi_dictators": (
            None
            if report.quasi_dictators is None
            else [profile.individuals[v] for v in report.quasi_dictators]
        ),
        "profile_space_size": report.profile_space_size,
    }


def census_json(report: CensusReport) -> dict:
    proportions = report.proportions()
    return {
        "alt_count": report.alt_count,
        "ind_count": report.ind_count,
        "total": report.total,
        "counts": {"IP": report.ip, "DP": report.dp, "PP": report.pp},
        "proportions": {
            kind: {
                "rational": f"{value.numerator}/{value.denominator}",
                "decimal": format_proportion(value),
            }
            for kind, value in proportions.items()
        },
        "method": report.method,
    }


def witness_json(profile: EvaluabilityProfile, witness: CyclicRankings) -> dict:
    constraint = unanimity_relation(profile, witness.rankings)
    acyclic, cycle = is_acyclic(constraint)
    if acyclic:  # unreachable: the construction forces a unanimity cycle
        raise RuntimeError("cycle witness failed to produce a unanimity cycle")
    return {
        "cycle": profile.alt_names(witness.cycle),
        "rankings": rankings_document(profile, witness.rankings)["rankings"],
        "pivot_index": {
            vid: pivot for vid, pivot in zip(profile.individuals, witness.pivots)
        },
        "unanimity_cycle": profile.alt_names(cycle),
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _parse_tiebreak(profile: EvaluabilityProfile, flag: str | None) -> WeakOrder:
    if flag is None:
        return default_tiebreak(profile)
    names = flag.split(",")
    if sorted(names) != sorted(profile.alternatives):
        raise DocumentError("tiebreak must list every alternative exactly once")
    return WeakOrder.from_ranking(profile.alt_index[n] for n in names)


def cmd_classify(args: argparse.Namespace) -> int:
    profile = _load_profile(args.profile)
    sys.stdout.write(dumps(classification_json(profile, classify(profile))))
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    profile = _load_profile(args.profile)
    rankings = parse_rankings_document(profile, _load_json(args.rankings))
    tiebreak = _parse_tiebreak(profile, args.tiebreak)
    if args.rule == "fstar":
        result = aggregate_unanimity(profile, rankings, tiebreak)
    else:
        try:
            result = aggregate_delegation(profile, rankings, tiebreak)
        except ConditionViolationError as exc:
            return _precondition_failed(exc, profile)
    sys.stdout.write(dumps(aggregation_json(profile, result)))
    return 0


def _precondition_failed(
    exc: ConditionViolationError, profile: EvaluabilityProfile | None = None
) -> int:
    """Report a failed precondition on stderr, with the witness cycle by
    alternative name when the profile is known, and return exit code 3."""
    sys.stderr.write(f"precondition failed: {exc}\n")
    if exc.cycle is not None and profile is not None:
        sys.stderr.write(dumps({"witness_cycle": profile.alt_names(exc.cycle)}))
    return 3


def _check_threads(args: argparse.Namespace) -> None:
    if args.threads < 1:
        raise DocumentError("--threads must be at least 1")


def cmd_verify(args: argparse.Namespace) -> int:
    _check_threads(args)
    profile = _load_profile(args.profile)
    axioms = tuple(args.axioms.split(","))
    for axiom in axioms:
        if axiom not in AXIOM_IDS:
            raise DocumentError(f"unknown axiom {axiom!r}")
    tiebreak = _parse_tiebreak(profile, args.tiebreak)
    check_rule_id(args.rule, profile)
    check_space_budget(profile, args.budget)  # before make_rule, which may sweep subsets
    try:
        rule = make_rule(args.rule, profile, tiebreak)
    except ConditionViolationError as exc:
        return _precondition_failed(exc, profile)
    report = verify_rule(rule, profile, axioms, budget=args.budget)
    sys.stdout.write(dumps(report_json(profile, args.rule, report)))
    return 0


def _refuse_unprintable_totals(sizes: Iterable[tuple[int, int]]) -> None:
    """Refuse census sizes whose total Python could not print, before any work."""
    limit = sys.get_int_max_str_digits()
    for n_alts, n_inds in sizes:
        if limit and (digits := total_digits(n_alts, n_inds)) > limit:
            raise CensusBudgetError(digits, limit, f"census total has {digits} digits")


def cmd_census(args: argparse.Namespace) -> int:
    _check_threads(args)
    _refuse_unprintable_totals([(args.alts, args.inds)])
    budget = {} if args.budget is None else {"budget": args.budget}
    census = census_brute if args.method == "brute" else census_symmetric
    sys.stdout.write(dumps(census_json(census(args.alts, args.inds, **budget))))
    return 0


def _parse_counts(flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in flag.split(","))
    except ValueError:
        raise DocumentError(f"expected a comma-separated integer list, got {flag!r}") from None


def cmd_table1(args: argparse.Namespace) -> int:
    alts = _parse_counts(args.alts) if args.alts else DEFAULT_GRID_ALTS
    inds = _parse_counts(args.inds) if args.inds else DEFAULT_GRID_INDS
    # dp_proportion refuses fewer than 3 alternatives or individuals itself
    _refuse_unprintable_totals((n, m) for n in alts for m in inds if n >= 3 and m >= 3)
    if args.json:
        grid = dp_proportion_grid(alts, inds)
        payload = {
            "alt_counts": list(alts),
            "ind_counts": list(inds),
            "cells": {
                str(n): {str(m): format_proportion(grid[(n, m)]) for m in inds}
                for n in alts
            },
        }
        sys.stdout.write(dumps(payload))
    else:
        sys.stdout.write(render_grid(alts, inds))
    return 0


def cmd_witness_cyclic(args: argparse.Namespace) -> int:
    profile = _load_profile(args.profile)
    clf = classify(profile)
    if clf.verdict != IP:
        raise ConditionViolationError("cycle cover holds; no witness")
    witness = cyclic_rankings(profile, clf.cycle_cover.uncovered_cycle)
    sys.stdout.write(dumps(witness_json(profile, witness)))
    return 0


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------


def _golden_text(name: str) -> str:
    return resources.files("rankagg").joinpath("golden", name).read_text(encoding="utf-8")


def golden_profile() -> EvaluabilityProfile:
    return parse_profile_document(json.loads(_golden_text("example_profile.json")))


def golden_rankings(profile: EvaluabilityProfile) -> RankingProfile:
    return parse_rankings_document(profile, json.loads(_golden_text("example_rankings.json")))


def golden_outputs() -> dict[str, str]:
    """Recompute every committed golden artifact from scratch."""
    profile = golden_profile()
    rankings = golden_rankings(profile)
    return {
        "example_profile.json": dumps(profile_document(profile)),
        "example_rankings.json": dumps(rankings_document(profile, rankings)),
        "example_classify.json": dumps(classification_json(profile, classify(profile))),
        "example_aggregate_fstarstar.json": dumps(
            aggregation_json(profile, aggregate_delegation(profile, rankings))
        ),
        "census_alts3_inds3.json": dumps(census_json(census_brute(3, 3))),
        "census_alts3_inds4.json": dumps(census_json(census_brute(3, 4))),
        "census_alts4_inds3.json": dumps(census_json(census_brute(4, 3))),
        "table1.txt": render_grid(),
    }


def cmd_repro(args: argparse.Namespace) -> int:
    failures = 0
    for name, computed in golden_outputs().items():
        expected = _golden_text(name)
        if computed == expected:
            sys.stdout.write(f"ok {name}\n")
        else:
            failures += 1
            sys.stdout.write(f"MISMATCH {name}\n")
    if failures:
        sys.stdout.write(f"{failures} golden artifact(s) diverged\n")
        return 1
    sys.stdout.write("all golden artifacts reproduced\n")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankagg",
        description="Aggregate rankings over partial evaluable sets and audit the rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a profile as IP, DP, or PP")
    p.add_argument("profile")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("aggregate", help="run an aggregation rule on submitted rankings")
    p.add_argument("--rule", choices=("fstar", "fstarstar"), required=True)
    p.add_argument("--tiebreak", help="comma-separated alternative list, best first")
    p.add_argument("profile")
    p.add_argument("rankings")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("verify", help="exhaustively verify axioms of a rule")
    p.add_argument("--rule", required=True, help="fstar, fstarstar, constant, majority, dictatorship[:ID]")
    p.add_argument("--axioms", default=",".join(AXIOM_IDS))
    p.add_argument("--tiebreak")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("profile")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="count IP/DP/PP profiles exactly")
    p.add_argument("--alts", type=int, required=True)
    p.add_argument("--inds", type=int, required=True)
    p.add_argument("--method", choices=("brute", "symmetric"), default="brute")
    p.add_argument(
        "--budget",
        type=int,
        help="brute: labeled profiles (default %d); symmetric: cells of a "
        "hyperforest table row (default %d)" % (DEFAULT_BUDGET, DEFAULT_FOREST_BUDGET),
    )
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("table1", help="grid of complete-individual proportions")
    p.add_argument("--alts", help="comma-separated alternative counts")
    p.add_argument("--inds", help="comma-separated individual counts")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("witness-cyclic", help="impossibility witness for an IP profile")
    p.add_argument("profile")
    p.set_defaults(func=cmd_witness_cyclic)

    p = sub.add_parser("repro", help="recompute and diff all golden artifacts")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConditionViolationError as exc:
        return _precondition_failed(exc)
    except (BudgetExceededError, CensusBudgetError) as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 4
    except ValueError as exc:  # DocumentError, ProfileError, bad parameters
        sys.stderr.write(f"validation error: {exc}\n")
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
