"""Independent oracles and test-only helpers.

The oracles recompute expectations from first principles (explicit pair
sets, permutation sweeps, recurrences, the axiom sweep on arc sets in
``reference_verify``, the builtin rules on frozensets of arcs in
``reference_rule``, the cycle search on arc sets in ``reference_is_acyclic``)
without touching the library's own shortcut representations, so the two
sides of each comparison stay independent. The single-axiom ``check_*``
wrappers and ``quasi_dictators`` are conveniences over ``verify_rule`` that
only the tests use, as are the evaluator and union-graph queries
(``evaluators_of``, ``graph_edges``, ``is_cyclic_subset`` and the like) and
the weak-order and pair-set queries (``relation_pairs``, ``restrict``,
``extends`` and the like). ``antichain_census`` classifies one padded profile
per antichain of evaluable sets, as an oracle for the symmetric census's
hyperforest count.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from rankagg.census import (
    CensusReport,
    evaluable_masks,
    evaluable_set_count,
    support_weight,
)
from rankagg.conditions import classify
from rankagg.profiles import (
    EvaluabilityProfile,
    ProfileError,
    UnionGraph,
    build_union_graph,
    complete_individuals,
)
from rankagg.aggregators import default_tiebreak, maximal_cycle_family, pair_delegates
from rankagg.properties import (
    AXIOM_IDS,
    DEFAULT_BUDGET,
    AxiomVerdict,
    Counterexample,
    PropertyReport,
    ranking_space_size,
    verify_rule,
)
from rankagg.relations import (
    CyclicRelationError,
    RankingProfile,
    StrictDigraph,
    WeakOrder,
    bits,
    weak_orders_on,
)


def ordered_bell_recurrence(n: int) -> int:
    """a(n) = sum_{k>=1} C(n, k) * a(n - k), a(0) = 1."""
    table = [1]
    for size in range(1, n + 1):
        total = 0
        for k in range(1, size + 1):
            total += _binomial(size, k) * table[size - k]
        table.append(total)
    return table[n]


def _binomial(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def weak_order_pairs(tiers: list[list[int]]) -> set[tuple[int, int]]:
    """Explicit pair set of a tier list: (a, b) whenever tier(a) <= tier(b)."""
    rank = {}
    for i, tier in enumerate(tiers):
        for a in tier:
            rank[a] = i
    return {(a, b) for a in rank for b in rank if rank[a] <= rank[b]}


def pairs_reflexive(pairs: set[tuple[int, int]], members: list[int]) -> bool:
    return all((a, a) in pairs for a in members)


def pairs_complete(pairs: set[tuple[int, int]], members: list[int]) -> bool:
    return all((a, b) in pairs or (b, a) in pairs for a in members for b in members)


def pairs_transitive(pairs: set[tuple[int, int]]) -> bool:
    return all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c)


def pairs_antisymmetric(pairs: set[tuple[int, int]]) -> bool:
    return all(a == b for a, b in pairs if (b, a) in pairs)


def pairs_asymmetric(pairs: set[tuple[int, int]]) -> bool:
    return all((b, a) not in pairs for a, b in pairs)


# ---------------------------------------------------------------------------
# Weak-order queries on explicit pairs and id sequences
# ---------------------------------------------------------------------------


def relation_pairs(order: WeakOrder) -> frozenset[tuple[int, int]]:
    """The full induced relation of ``order`` as explicit (a, b) pairs."""
    ranks = order.ranks
    members = sorted(ranks)
    return frozenset(
        (a, b) for a in members for b in members if ranks[a] <= ranks[b]
    )


def indifferent_pairs(order: WeakOrder) -> frozenset[tuple[int, int]]:
    """Off-diagonal symmetric part of ``order``, as (a, b) pairs with a < b."""
    pairs = []
    for tier in order.tiers:
        members = list(bits(tier))
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pairs.append((a, b))
    return frozenset(pairs)


def to_lists(order: WeakOrder) -> list[list[int]]:
    return [sorted(bits(t)) for t in order.tiers]


def as_sequence(order: WeakOrder) -> tuple[int, ...]:
    """The id sequence of a linear order, best first."""
    if not order.is_linear:
        raise ValueError("order is not linear")
    return tuple(t.bit_length() - 1 for t in order.tiers)


def restrict(order: WeakOrder, keep: int) -> WeakOrder:
    """Restrict ``order`` to the elements of the bitmask ``keep``.

    Tier order is preserved; tiers that become empty are dropped.
    """
    if keep & ~order.ground:
        extra = sorted(bits(keep & ~order.ground))
        raise ValueError(f"restriction set leaves the ground set: {extra}")
    return WeakOrder(tuple(t & keep for t in order.tiers if t & keep))


def extends(order: WeakOrder, digraph: StrictDigraph) -> bool:
    """True when ``order`` is a linear-order extension of ``digraph``."""
    if not order.is_linear or order.ground != digraph.ground:
        return False
    ranks = order.ranks
    return all(ranks[a] < ranks[b] for a, b in digraph.arcs)


def simple_cycles(adjacency: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Every simple cycle (length >= 3) as a canonical node sequence.

    Canonical form: smallest node first, second node smaller than the last,
    which picks one representative per cycle and direction.
    """
    out = []
    for k in range(3, n + 1):
        for subset in itertools.combinations(range(n), k):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                if perm[0] > perm[-1]:
                    continue
                seq = (first,) + perm
                if all(
                    (adjacency[seq[i]] >> seq[(i + 1) % k]) & 1 for i in range(k)
                ):
                    out.append(seq)
    return out


def naive_cycle_cover(profile: EvaluabilityProfile) -> tuple[bool, tuple[int, ...] | None]:
    """Cycle-cover decision by explicit enumeration of every simple cycle."""
    adjacency = [0] * profile.n_alts
    for m in profile.evaluable:
        current = m
        while current:
            low = current & -current
            a = low.bit_length() - 1
            current ^= low
            adjacency[a] |= m ^ (1 << a)
    for seq in simple_cycles(tuple(adjacency), profile.n_alts):
        mask = 0
        for a in seq:
            mask |= 1 << a
        if not any(mask & ~c == 0 for c in profile.evaluable):
            return False, seq
    return True, None


def naive_hamiltonian(adjacency: tuple[int, ...], n: int) -> bool:
    """Spanning-cycle existence by permutation sweep."""
    if n < 3:
        return False
    for perm in itertools.permutations(range(1, n)):
        seq = (0,) + perm
        if all((adjacency[seq[i]] >> seq[(i + 1) % n]) & 1 for i in range(n)):
            return True
    return False


def first_spanning_cycle(adjacency: tuple[int, ...], mask: int) -> tuple[int, ...] | None:
    """The first permutation of ``mask`` in lexicographic order, starting at
    its smallest node, whose consecutive nodes and last-to-first are edges."""
    nodes = list(bits(mask))
    if len(nodes) < 3:
        return None
    for perm in itertools.permutations(nodes[1:]):
        seq = (nodes[0],) + perm
        if all((adjacency[a] >> b) & 1 for a, b in zip(seq, seq[1:] + seq[:1])):
            return seq
    return None


def is_cyclic_subset(graph: UnionGraph, subset: int) -> bool:
    """True when ``subset`` is exactly the node set of some cycle of the graph."""
    if subset & ~graph.nodes:
        raise ValueError("subset leaves the node set")
    nodes = list(bits(subset))
    local = tuple(
        sum(1 << j for j, b in enumerate(nodes) if (graph.adjacency[a] >> b) & 1)
        for a in nodes
    )
    return naive_hamiltonian(local, len(nodes))


def evaluators_of(profile: EvaluabilityProfile, a: int) -> tuple[int, ...]:
    """Indices of the individuals that evaluate alternative ``a``."""
    if not 0 <= a < profile.n_alts:
        raise ProfileError(f"unknown alternative index {a}")
    return tuple(bits(profile.evaluator_masks[a]))


def common_evaluators(profile: EvaluabilityProfile, a: int, b: int) -> tuple[int, ...]:
    """Indices of individuals evaluating both ``a`` and ``b``, in input order."""
    if not 0 <= a < profile.n_alts or not 0 <= b < profile.n_alts:
        raise ProfileError(f"unknown alternative index {a if a >= profile.n_alts else b}")
    return tuple(bits(profile.evaluator_masks[a] & profile.evaluator_masks[b]))


def graph_edges(graph: UnionGraph) -> frozenset[tuple[int, int]]:
    """Every edge (a, b) of the union graph with a < b."""
    return frozenset(
        (a, b)
        for a in range(graph.node_count)
        for b in bits(graph.adjacency[a])
        if b > a
    )


def has_edge(graph: UnionGraph, a: int, b: int) -> bool:
    return bool((graph.adjacency[a] >> b) & 1)


def clique_edges(profile: EvaluabilityProfile, v: int) -> frozenset[tuple[int, int]]:
    """The edges individual ``v`` contributes: all pairs of their set."""
    return frozenset(itertools.combinations(bits(profile.evaluable[v]), 2))


def graph_is_complete(graph: UnionGraph) -> bool:
    full = graph.nodes
    return all(graph.adjacency[a] == full ^ (1 << a) for a in range(graph.node_count))


def is_nontrivial(profile: EvaluabilityProfile) -> bool:
    """True when every pair of alternatives shares at least one evaluator."""
    return graph_is_complete(build_union_graph(profile))


def all_linear_extensions(ground: list[int], arcs: set[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Every permutation of ``ground`` consistent with ``arcs``."""
    out = []
    for perm in itertools.permutations(ground):
        position = {a: i for i, a in enumerate(perm)}
        if all(position[a] < position[b] for a, b in arcs):
            out.append(perm)
    return out


def random_profile(rng: random.Random, n_alts: int, n_inds: int = 3) -> EvaluabilityProfile:
    """Uniformly random evaluable sets of size >= 2 over generic names."""
    masks = []
    candidates = [m for m in range(1 << n_alts) if bin(m).count("1") >= 2]
    for _ in range(n_inds):
        masks.append(rng.choice(candidates))
    return EvaluabilityProfile(
        tuple(f"a{i + 1}" for i in range(n_alts)),
        tuple(f"v{i + 1}" for i in range(n_inds)),
        tuple(masks),
    )


def all_profiles_masks(n_alts: int, n_inds: int):
    """Every labeled assignment of admissible evaluable-set masks."""
    candidates = [m for m in range(1 << n_alts) if bin(m).count("1") >= 2]
    return itertools.product(candidates, repeat=n_inds)


def distinct_clique_families(n_alts: int, max_size: int):
    """Every set of up to ``max_size`` distinct admissible masks.

    Both cycle-cover deciders depend only on the set of distinct evaluable
    sets, so agreement on these families is agreement on all labeled profiles
    with that many individuals.
    """
    candidates = [m for m in range(1 << n_alts) if bin(m).count("1") >= 2]
    for size in range(1, max_size + 1):
        yield from itertools.combinations(candidates, size)


def profile_from_masks(n_alts: int, masks: tuple[int, ...]) -> EvaluabilityProfile:
    padded = tuple(masks) + (masks[-1],) * max(0, 3 - len(masks))
    return EvaluabilityProfile(
        tuple(f"a{i + 1}" for i in range(n_alts)),
        tuple(f"v{i + 1}" for i in range(len(padded))),
        padded,
    )


# ---------------------------------------------------------------------------
# The antichain census: the symmetric census's oracle
# ---------------------------------------------------------------------------


def support_order(masks: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Per set, the index masks of the sets below it (itself included) and
    of the sets strictly above it, indices into ``masks``."""
    below, above = [], []
    for m in masks:
        down = up = 0
        for j, other in enumerate(masks):
            if other & ~m == 0:
                down |= 1 << j
            elif m & ~other == 0:
                up |= 1 << j
        below.append(down)
        above.append(up)
    return below, above


def antichains(below: list[int], above: list[int], n_inds: int):
    """Each antichain of at most ``n_inds`` sets, generated afresh on each
    call, as its member indices and the index mask of its down-set. Members
    are added in ascending index order, so a set's remaining candidates are
    the later sets not above it; a set never lies above a later one."""

    def extend(members: tuple[int, ...], candidates: int, down: int):
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            chosen, reach = members + (i,), down | below[i]
            yield chosen, reach
            rest = candidates & ~above[i]
            if rest and len(chosen) < n_inds:
                yield from extend(chosen, rest, reach)

    return extend((), (1 << len(below)) - 1, 0)


def antichain_census(n_alts: int, n_inds: int) -> CensusReport:
    """Classify one profile per maximal support, weighted by inclusion-exclusion.

    Walks the antichains A of evaluable sets with at most ``n_inds`` members
    in ascending mask order. Each is classified as A, padded to the 3 sets a
    profile needs by repeating its last member, and adds ``support_weight``
    to its verdict.
    """
    masks = evaluable_masks(n_alts)
    below, above = support_order(masks)
    counts: Counter[str] = Counter()
    for members, down in antichains(below, above, n_inds):
        chosen = tuple(masks[i] for i in members)
        weight = support_weight(len(chosen), down.bit_count(), n_inds)
        counts[classify(profile_from_masks(n_alts, chosen)).verdict] += weight
    total = evaluable_set_count(n_alts) ** n_inds
    return CensusReport(
        n_alts, n_inds, total, counts["IP"], counts["DP"], counts["PP"], "symmetric"
    )


# ---------------------------------------------------------------------------
# Single-axiom wrappers around verify_rule
# ---------------------------------------------------------------------------


def check_transitivity(arf, profile, budget: int = DEFAULT_BUDGET) -> AxiomVerdict:
    return verify_rule(arf, profile, ("tv",), budget).axioms[0]


def check_pareto(arf, profile, budget: int = DEFAULT_BUDGET) -> AxiomVerdict:
    return verify_rule(arf, profile, ("pc",), budget).axioms[0]


def check_weak_pareto(arf, profile, budget: int = DEFAULT_BUDGET) -> AxiomVerdict:
    return verify_rule(arf, profile, ("wpc",), budget).axioms[0]


def check_iia(arf, profile, budget: int = DEFAULT_BUDGET) -> AxiomVerdict:
    return verify_rule(arf, profile, ("iia",), budget).axioms[0]


def check_nonconstancy(arf, profile, budget: int = DEFAULT_BUDGET) -> AxiomVerdict:
    return verify_rule(arf, profile, ("nc",), budget).axioms[0]


def check_nondictatorship(arf, profile, budget: int = DEFAULT_BUDGET) -> AxiomVerdict:
    return verify_rule(arf, profile, ("nd",), budget).axioms[0]


def quasi_dictators(arf, profile, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Individuals whose strict preferences are reproduced on every profile."""
    report = verify_rule(arf, profile, ("nd",), budget)
    assert report.quasi_dictators is not None
    return report.quasi_dictators


# ---------------------------------------------------------------------------
# Reference verifier: calls the rule on every ranking profile and checks the
# axioms on explicit arc sets, one triple and one pair at a time.
# ---------------------------------------------------------------------------


def _outcome(arcs, a: int, b: int) -> int:
    if (a, b) in arcs:
        return 1
    if (b, a) in arcs:
        return -1
    return 0


def reference_verify(arf, profile: EvaluabilityProfile, axioms=AXIOM_IDS) -> PropertyReport:
    """The axiom sweep of ``verify_rule``, from the definitions on arc sets."""
    n = profile.n_alts
    ev = profile.evaluator_masks
    pairs = [
        (a, b, tuple(bits(ev[a] & ev[b])))
        for a in range(n)
        for b in range(a + 1, n)
        if ev[a] & ev[b]
    ]
    triples = [
        (x, y, z)
        for x in range(n)
        for y in range(n)
        if y != x
        for z in range(n)
        if z != x and z != y
    ]
    own_pairs = [list(itertools.combinations(sorted(bits(m)), 2)) for m in profile.evaluable]
    tv_ce = pc_ce = wpc_ce = iia_ce = None
    iia_first: dict = {}
    nc_seen: list[set[int]] = [set() for _ in pairs]
    alive = [True] * profile.n_inds
    per_individual = [weak_orders_on(m) for m in profile.evaluable]
    for combo in itertools.product(*per_individual):
        rankings = RankingProfile(combo)
        arcs = arf(rankings).arcs
        if "tv" in axioms and tv_ce is None:
            for x, y, z in triples:
                # weak relation: x above y iff arc (y, x) is absent
                if (y, x) not in arcs and (z, y) not in arcs and (z, x) in arcs:
                    tv_ce = Counterexample("tv", rankings=rankings, triple=(x, y, z))
                    break
        for index, (a, b, evaluators) in enumerate(pairs):
            signs = []
            for v in evaluators:
                ranks = combo[v].ranks
                signs.append(1 if ranks[a] < ranks[b] else (-1 if ranks[b] < ranks[a] else 0))
            all_a = all(s == 1 for s in signs)
            all_b = all(s == -1 for s in signs)
            out = _outcome(arcs, a, b)
            if "pc" in axioms and pc_ce is None:
                if (all_a and out != 1) or (all_b and out != -1):
                    pc_ce = Counterexample("pc", rankings=rankings, pair=(a, b))
            if "wpc" in axioms and wpc_ce is None:
                if (all_a and out == -1) or (all_b and out == 1):
                    wpc_ce = Counterexample("wpc", rankings=rankings, pair=(a, b))
            if "iia" in axioms:
                key = (index, tuple(signs))
                first = iia_first.get(key)
                if first is None:
                    iia_first[key] = (out, rankings)
                elif first[0] != out and iia_ce is None:
                    iia_ce = Counterexample(
                        "iia", rankings=first[1], rankings_alt=rankings, pair=(a, b)
                    )
            nc_seen[index].add(out)
        for v in range(profile.n_inds):
            ranks = combo[v].ranks
            for a, b in own_pairs[v]:
                if ranks[a] < ranks[b] and (a, b) not in arcs:
                    alive[v] = False
                if ranks[b] < ranks[a] and (b, a) not in arcs:
                    alive[v] = False
    verdicts = []
    quasi = None
    found = {"tv": tv_ce, "pc": pc_ce, "wpc": wpc_ce, "iia": iia_ce}
    for axiom in axioms:
        if axiom in found:
            ce = found[axiom]
        elif axiom == "nc":
            ce = next(
                (
                    Counterexample("nc", pair=(a, b), outcome=next(iter(seen)))
                    for (a, b, _), seen in zip(pairs, nc_seen)
                    if len(seen) == 1
                ),
                None,
            )
        else:
            quasi = tuple(v for v, live in enumerate(alive) if live)
            complete = complete_individuals(profile)
            dictator = next((v for v in quasi if v in complete), None)
            ce = None if dictator is None else Counterexample("nd", individual=dictator)
        verdicts.append(AxiomVerdict(axiom, ce is None, ce))
    return PropertyReport(tuple(verdicts), quasi, ranking_space_size(profile))


# ---------------------------------------------------------------------------
# Reference rules: the builtin rules on frozensets of arcs, one pair at a
# time, with a Kahn linear extension. The library defines the same rules by
# packed rows per (individual, weak order).
# ---------------------------------------------------------------------------


def reference_unanimity_arcs(profile: EvaluabilityProfile, rankings: RankingProfile) -> StrictDigraph:
    """Arc (a, b) iff some individual evaluates both and all such
    individuals strictly prefer a to b."""
    ev = profile.evaluator_masks
    arcs = []
    n = profile.n_alts
    for a in range(n):
        for b in range(a + 1, n):
            shared = ev[a] & ev[b]
            if not shared:
                continue
            a_over_b = True
            b_over_a = True
            for v in bits(shared):
                ranks = rankings.orders[v].ranks
                ra, rb = ranks[a], ranks[b]
                if ra >= rb:
                    a_over_b = False
                if rb >= ra:
                    b_over_a = False
                if not a_over_b and not b_over_a:
                    break
            if a_over_b:
                arcs.append((a, b))
            elif b_over_a:
                arcs.append((b, a))
    return StrictDigraph.from_arcs(profile.full_mask, arcs)


def reference_delegation_arcs(
    rankings: RankingProfile,
    delegates: dict[tuple[int, int], int],
    tiebreak: WeakOrder,
) -> StrictDigraph:
    """One arc per delegated pair, as its delegate ranks it, ties resolved
    by ``tiebreak``."""
    arcs = []
    for (a, b), v in delegates.items():
        ranks = rankings.orders[v].ranks
        ra, rb = ranks[a], ranks[b]
        if ra < rb:
            arcs.append((a, b))
        elif rb < ra:
            arcs.append((b, a))
        elif tiebreak.ranks[a] < tiebreak.ranks[b]:
            arcs.append((a, b))
        else:
            arcs.append((b, a))
    return StrictDigraph.from_arcs(tiebreak.ground, arcs)


def reference_is_acyclic(digraph: StrictDigraph) -> tuple[bool, tuple[int, ...] | None]:
    """Depth-first search on the arc set: the smallest node first, ascending
    successors, and on a back arc the path from its head as the witness."""
    succ: dict[int, list[int]] = {}
    for a, b in sorted(digraph.arcs):
        succ.setdefault(a, []).append(b)
    state: dict[int, int] = {}  # 1 on stack, 2 done
    for root in bits(digraph.ground):
        if root in state:
            continue
        state[root] = 1
        path = [root]
        iters = [iter(succ.get(root, ()))]
        while path:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                state[path.pop()] = 2
                iters.pop()
                continue
            mark = state.get(nxt)
            if mark == 1:
                at = path.index(nxt)
                return False, tuple(path[at:])
            if mark is None:
                state[nxt] = 1
                path.append(nxt)
                iters.append(iter(succ.get(nxt, ())))
    return True, None


def reference_linear_extension(digraph: StrictDigraph, tiebreak: WeakOrder) -> WeakOrder:
    """Kahn's algorithm, always emitting the ready node first in ``tiebreak``."""
    if not tiebreak.is_linear or tiebreak.ground != digraph.ground:
        raise ValueError("tiebreak must be a linear order on the digraph ground")
    rank = tiebreak.ranks
    indegree = {a: 0 for a in bits(digraph.ground)}
    succ: dict[int, list[int]] = {a: [] for a in indegree}
    for a, b in digraph.arcs:
        succ[a].append(b)
        indegree[b] += 1
    ready = sorted((a for a, d in indegree.items() if d == 0), key=rank.__getitem__)
    out: list[int] = []
    while ready:
        node = ready.pop(0)
        out.append(node)
        freed = []
        for b in succ[node]:
            indegree[b] -= 1
            if indegree[b] == 0:
                freed.append(b)
        if freed:
            ready = sorted(ready + freed, key=rank.__getitem__)
    if len(out) != len(indegree):
        cyclic, witness = reference_is_acyclic(digraph)
        assert not cyclic and witness is not None
        raise CyclicRelationError(witness)
    return WeakOrder.from_ranking(out)


def _strict_arcs(order: WeakOrder) -> frozenset[tuple[int, int]]:
    ranks = order.ranks
    return frozenset((a, b) for a in ranks for b in ranks if ranks[a] < ranks[b])


def reference_rule(rule_id: str, profile: EvaluabilityProfile, tiebreak: WeakOrder | None = None):
    """The builtin rule ``rule_id`` of ``make_rule``, from its definition."""
    name, colon, argument = rule_id.partition(":")
    tb = tiebreak if tiebreak is not None else default_tiebreak(profile)
    full = profile.full_mask

    def extended(constraint: StrictDigraph) -> StrictDigraph:
        try:
            order = reference_linear_extension(constraint, tb)
        except CyclicRelationError:  # degenerate: everything tied
            return StrictDigraph.from_arcs(full, ())
        return StrictDigraph.from_arcs(full, _strict_arcs(order))

    if name == "fstar":
        return lambda rankings: extended(reference_unanimity_arcs(profile, rankings))
    if name == "fstarstar":
        delegates = pair_delegates(profile, maximal_cycle_family(profile))
        return lambda rankings: extended(reference_delegation_arcs(rankings, delegates, tb))
    if name == "constant":
        return lambda rankings: StrictDigraph.from_arcs(full, _strict_arcs(tb))
    if name == "majority":
        ev = profile.evaluator_masks
        pairs = [
            (a, b, tuple(bits(ev[a] & ev[b])))
            for a in range(profile.n_alts)
            for b in range(a + 1, profile.n_alts)
            if ev[a] & ev[b]
        ]

        def majority(rankings: RankingProfile) -> StrictDigraph:
            arcs = []
            for a, b, evaluators in pairs:
                tally = 0
                for v in evaluators:
                    ranks = rankings.orders[v].ranks
                    tally += (ranks[a] < ranks[b]) - (ranks[b] < ranks[a])
                if tally > 0:
                    arcs.append((a, b))
                elif tally < 0:
                    arcs.append((b, a))
            return StrictDigraph.from_arcs(full, arcs)

        return majority
    if name == "dictatorship":
        chief = profile.ind_index[argument] if colon else 0
        rest = full & ~profile.evaluable[chief]

        def dictatorship(rankings: RankingProfile) -> StrictDigraph:
            tiers = rankings.orders[chief].tiers
            return StrictDigraph.from_arcs(full, _strict_arcs(WeakOrder(tiers + (rest,) if rest else tiers)))

        return dictatorship
    raise ValueError(f"unknown rule {rule_id!r}")
