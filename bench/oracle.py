"""Independent reference computations used to check rankagg's outputs.

Nothing here imports rankagg. Profiles are handled as a list of alternative
names plus, per individual, a bitmask over the alternatives' positions in
that list. The feasibility oracle follows the block-decomposition argument:
every cycle lies inside one biconnected component (block), so cycle cover
holds exactly when every block with at least 3 nodes lies inside one
evaluable set; under cover a spanning cycle exists exactly when some
individual evaluates every alternative.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_adjacency(n: int, sets) -> list[int]:
    adj = [0] * n
    for s in sets:
        for a in bits(s):
            adj[a] |= s & ~(1 << a)
    return adj


def blocks(n: int, adj: list[int]) -> list[int]:
    """Node masks of the biconnected components (Hopcroft-Tarjan, iterative).

    Isolated nodes belong to no block; a bridge is a 2-node block.
    """
    index = [-1] * n
    low = [0] * n
    counter = 0
    out: list[int] = []
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, bits(adj[root]))]
        edges: list[tuple[int, int]] = []
        while stack:
            v, parent, neighbours = stack[-1]
            for w in neighbours:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    edges.append((v, w))
                    stack.append((w, v, bits(adj[w])))
                    break
                if w != parent and index[w] < index[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], index[w])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    comp = 0
                    while True:
                        a, b = edges.pop()
                        comp |= (1 << a) | (1 << b)
                        if (a, b) == (u, v):
                            break
                    out.append(comp)
    return out


def has_cut_vertex_or_disconnected(n: int, adj: list[int]) -> bool:
    """False exactly when the graph is one block on all n nodes."""
    found = blocks(n, adj)
    return not (len(found) == 1 and found[0] == (1 << n) - 1)


def verdict(n: int, sets) -> str:
    """IP / DP / PP by block decomposition."""
    sets = tuple(sets)
    adj = union_adjacency(n, sets)
    for block in blocks(n, adj):
        if block.bit_count() >= 3 and not any(block & ~s == 0 for s in sets):
            return "IP"
    full = (1 << n) - 1
    return "DP" if full in sets else "PP"


def ordered_bell(n: int) -> int:
    """Weak orders on n elements: a(n) = sum_k C(n, k) a(n - k), a(0) = 1."""
    table = [1]
    for size in range(1, n + 1):
        table.append(sum(comb(size, k) * table[size - k] for k in range(1, size + 1)))
    return table[n]


def census_counts(n_alts: int, n_inds: int) -> dict[str, int]:
    """Labeled IP / DP / PP counts: one oracle verdict per multiset of sets,
    weighted by the number of labeled assignments it stands for."""
    masks = [m for m in range(1 << n_alts) if m.bit_count() >= 2]
    counts = {"IP": 0, "DP": 0, "PP": 0}
    for combo in itertools.combinations_with_replacement(masks, n_inds):
        weight = factorial(n_inds)
        for repeats in Counter(combo).values():
            weight //= factorial(repeats)
        counts[verdict(n_alts, combo)] += weight
    return counts


def check_census(doc: dict, n_alts: int, n_inds: int, exact: dict[str, int]) -> list[str]:
    """Problems with a census output, against closed forms and exact counts."""
    problems = []
    s = 2**n_alts - n_alts - 1
    total = s**n_inds
    counts = doc["counts"]
    if (doc["alt_count"], doc["ind_count"]) != (n_alts, n_inds):
        problems.append("wrong sizes echoed")
    if doc["total"] != total:
        problems.append(f"total {doc['total']} != S^m = {total}")
    if sum(counts.values()) != total:
        problems.append("IP+DP+PP != S^m")
    if counts["DP"] != total - (s - 1) ** n_inds:
        problems.append("DP != S^m - (S-1)^m")
    if counts != exact:
        problems.append(f"counts {counts} != block-oracle counts {exact}")
    for kind, value in doc["proportions"].items():
        if value["rational"] != _rational(Fraction(counts[kind], total)):
            problems.append(f"{kind} proportion {value['rational']} is not the reduced count ratio")
    return problems


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Rankings and axiom definitions. A ranking is a list of tiers (lists of
# alternative names, best first); a rule output is a set of strict arcs
# (a, b) meaning "a strictly above b".
# ---------------------------------------------------------------------------


def ranks_of(tiers) -> dict[str, int]:
    return {a: i for i, tier in enumerate(tiers) for a in tier}


def order_arcs(tiers) -> set[tuple[str, str]]:
    """Strict part of a weak order given as tiers."""
    return {
        (a, b)
        for i, upper in enumerate(tiers)
        for lower in tiers[i + 1 :]
        for a in upper
        for b in lower
    }


def common_evaluators(evaluates: dict[str, set[str]], a: str, b: str) -> list[str]:
    return [v for v, s in evaluates.items() if a in s and b in s]


def unanimous_arcs(evaluates: dict[str, set[str]], rankings: dict) -> set[tuple[str, str]]:
    """Pairs every common evaluator ranks strictly the same way."""
    ranks = {v: ranks_of(t) for v, t in rankings.items()}
    alts = sorted({a for s in evaluates.values() for a in s})
    out = set()
    for a, b in itertools.combinations(alts, 2):
        voters = common_evaluators(evaluates, a, b)
        if not voters:
            continue
        if all(ranks[v][a] < ranks[v][b] for v in voters):
            out.add((a, b))
        elif all(ranks[v][b] < ranks[v][a] for v in voters):
            out.add((b, a))
    return out


def is_acyclic(nodes, arcs) -> bool:
    succ = {a: [] for a in nodes}
    indegree = {a: 0 for a in nodes}
    for a, b in arcs:
        succ[a].append(b)
        indegree[b] += 1
    ready = [a for a, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        a = ready.pop()
        seen += 1
        for b in succ[a]:
            indegree[b] -= 1
            if indegree[b] == 0:
                ready.append(b)
    return seen == len(indegree)


def majority_arcs(evaluates: dict[str, set[str]], rankings: dict) -> set[tuple[str, str]]:
    """Pairwise majority among common evaluators, ties left unranked."""
    ranks = {v: ranks_of(t) for v, t in rankings.items()}
    alts = sorted({a for s in evaluates.values() for a in s})
    out = set()
    for a, b in itertools.combinations(alts, 2):
        tally = sum(
            (ranks[v][a] < ranks[v][b]) - (ranks[v][b] < ranks[v][a])
            for v in common_evaluators(evaluates, a, b)
        )
        if tally > 0:
            out.add((a, b))
        elif tally < 0:
            out.add((b, a))
    return out


def _pair_sign(ranks: dict[str, int], a: str, b: str) -> int:
    return (ranks[a] < ranks[b]) - (ranks[b] < ranks[a])


def _outcome(arcs, a: str, b: str) -> int:
    return 1 if (a, b) in arcs else (-1 if (b, a) in arcs else 0)


def weak_orders(items: list[str]):
    """Every weak order on ``items`` as a list of tiers."""
    if not items:
        yield []
        return
    for size in range(1, len(items) + 1):
        for first in itertools.combinations(items, size):
            rest = [a for a in items if a not in first]
            for tail in weak_orders(rest):
                yield [list(first), *tail]


def ranking_space(evaluates: dict[str, list[str]]):
    ids = list(evaluates)
    per = [list(weak_orders(list(evaluates[v]))) for v in ids]
    for combo in itertools.product(*per):
        yield dict(zip(ids, combo))


def counterexample_problem(
    axiom: str, ce: dict, evaluates: dict[str, list[str]], rule_arcs
) -> str | None:
    """None when the counterexample re-violates the axiom definition.

    ``rule_arcs(rankings)`` returns the rule's strict output arcs.
    """
    sets = {v: set(s) for v, s in evaluates.items()}
    alts = sorted({a for s in sets.values() for a in s})
    if axiom == "tv":
        x, y, z = ce["triple"]
        arcs = rule_arcs(ce["rankings"])
        if (y, x) not in arcs and (z, y) not in arcs and (z, x) in arcs:
            return None
        return "tv triple is transitive in the rule output"
    if axiom in ("pc", "wpc"):
        a, b = ce["pair"]
        voters = common_evaluators(sets, a, b)
        if not voters:
            return f"{axiom} pair has no common evaluator"
        ranks = {v: ranks_of(ce["rankings"][v]) for v in voters}
        out = _outcome(rule_arcs(ce["rankings"]), a, b)
        all_a = all(ranks[v][a] < ranks[v][b] for v in voters)
        all_b = all(ranks[v][b] < ranks[v][a] for v in voters)
        if axiom == "pc" and ((all_a and out != 1) or (all_b and out != -1)):
            return None
        if axiom == "wpc" and ((all_a and out == -1) or (all_b and out == 1)):
            return None
        return f"{axiom} pair is respected by the rule output"
    if axiom == "iia":
        a, b = ce["pair"]
        first, second = ce["rankings"], ce["rankings_alt"]
        voters = common_evaluators(sets, a, b)
        if not voters:
            return "iia pair has no common evaluator"
        same = all(
            _pair_sign(ranks_of(first[v]), a, b) == _pair_sign(ranks_of(second[v]), a, b)
            for v in voters
        )
        if not same:
            return "iia profiles differ on the pair"
        if _outcome(rule_arcs(first), a, b) == _outcome(rule_arcs(second), a, b):
            return "iia outcomes agree on the pair"
        return None
    if axiom == "nc":
        a, b = ce["pair"]
        if not common_evaluators(sets, a, b):
            return "nc pair has no common evaluator"
        for rankings in ranking_space(evaluates):
            if _outcome(rule_arcs(rankings), a, b) != ce["outcome"]:
                return "nc pair outcome is not constant"
        return None
    if axiom == "nd":
        v = ce["individual"]
        if sets[v] != set(alts):
            return "nd individual is not complete"
        for rankings in ranking_space(evaluates):
            arcs = rule_arcs(rankings)
            if not order_arcs(rankings[v]) <= arcs:
                return "nd individual is overruled on some profile"
        return None
    return f"unknown axiom {axiom}"
