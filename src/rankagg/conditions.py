"""Feasibility analysis of evaluability profiles.

Two structural checks on the co-evaluation graph drive everything:

* cycle cover: every cycle of the graph must lie inside some individual's
  evaluable set (equivalently, every cyclic node subset is contained in some
  clique);
* spanning-cycle freeness: the graph has no Hamiltonian cycle.

Profiles are classified IP / DP / PP: cycle cover fails; cycle cover holds
but a spanning cycle exists; or both checks hold. Under cycle cover a
spanning cycle exists exactly when some individual is complete (one evaluable
set covers the spanning cycle; a complete set makes the graph complete and
covers every cycle), so ``classify`` decides DP first, from the first
complete individual, with no subset sweep. Each verdict carries a
machine-checkable witness. A sweep over more than ``SWEEP_ALT_LIMIT``
alternatives raises ``SweepBudgetError`` before it starts.

A subset is "cyclic" when the induced subgraph has a Hamiltonian cycle on it,
decided by the Held-Karp dynamic program over subsets. One table answers both
whether a spanning cycle exists and which one is lexicographically smallest:
the witness walks the table, so it is exponential in the subset size as the
existence check is. Screening only induced (chordless) cycles would be wrong:
a chorded cycle can be uncovered while all induced cycles are covered, so the
subset sweep is over all subsets.

``cyclic_rankings`` builds the impossibility witness for an uncovered cycle:
each individual ranks the cycle by a rotation pivoted at an alternative they
do not evaluate, which makes every adjacent cycle pair unanimously ranked
against the cycle direction, so the unanimity relation of the witness is
cyclic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profiles import (
    EvaluabilityProfile,
    ProfileError,
    UnionGraph,
    build_union_graph,
    complete_individuals,
)
from .relations import RankingProfile, WeakOrder, bits, mask_of

IP = "IP"
DP = "DP"
PP = "PP"
# the most alternatives a subset sweep accepts. On a 2-core machine at 16,
# classify takes 1.8 s on a ring of pairs and 3.9 s on a chain of triangles,
# and the fstarstar refusal on the ring 3.6 s; each alternative more
# multiplies that by 2.7 to 4.5 (17: 6.2, 17.5 and 12.9 s)
SWEEP_ALT_LIMIT = 16


class SweepBudgetError(RuntimeError):
    """A subset sweep was asked for more than ``SWEEP_ALT_LIMIT`` alternatives."""

    def __init__(self, required: int):
        self.required = required
        self.budget = SWEEP_ALT_LIMIT
        super().__init__(f"subset sweep over {required} alternatives, budget allows {self.budget}")


def _check_sweep(n_alts: int) -> None:
    if n_alts > SWEEP_ALT_LIMIT:
        raise SweepBudgetError(n_alts)


class ConditionViolationError(ValueError):
    """A structural precondition on the profile does not hold."""

    def __init__(self, message: str, cycle: tuple[int, ...] | None = None):
        self.cycle = cycle
        super().__init__(message)


def _hamiltonian_table(adjacency: tuple[int, ...], mask: int) -> tuple[list[int], ...]:
    """Held-Karp subset DP on the subgraph induced by ``mask``, remapped to
    dense local indices: the nodes of ``mask``, their local adjacency, and
    ``dp[visited]``, the mask of endpoints of paths that start at local node
    0 and visit exactly ``visited``."""
    nodes = list(bits(mask))
    pos = {node: i for i, node in enumerate(nodes)}
    adj = []
    for node in nodes:
        m = 0
        for w in bits(adjacency[node] & mask):
            m |= 1 << pos[w]
        adj.append(m)
    full = (1 << len(nodes)) - 1
    dp = [0] * (full + 1)
    dp[1] = 1
    for visited in range(1, full + 1):
        if not visited & 1:
            continue
        ends = dp[visited]
        if not ends:
            continue
        while ends:
            ubit = ends & -ends
            ends ^= ubit
            ext = adj[ubit.bit_length() - 1] & ~visited
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                dp[visited | wbit] |= wbit
    return nodes, adj, dp


def _spanning_cycle_exists(adjacency: tuple[int, ...], mask: int) -> bool:
    """Does the induced subgraph have a cycle through all of ``mask``?"""
    if mask.bit_count() < 3:
        return False
    _, adj, dp = _hamiltonian_table(adjacency, mask)
    return bool(dp[-1] & adj[0])


def _spanning_cycle_witness(adjacency: tuple[int, ...], mask: int) -> tuple[int, ...] | None:
    """Lexicographically smallest spanning cycle of the induced subgraph.

    The sequence starts at the smallest node of ``mask`` and greedily takes
    the smallest neighbor w from which a path over the unvisited nodes ends
    next to the start. Reversed and prefixed with the start, that path runs
    from the start over the unvisited nodes and ends at w, so the existence
    table answers every step.
    """
    if mask.bit_count() < 3:
        return None
    nodes, adj, dp = _hamiltonian_table(adjacency, mask)
    full = len(dp) - 1
    if not dp[full] & adj[0]:
        return None
    seq = [0]
    visited = 1
    u = 0
    while visited != full:
        step = adj[u] & ~visited & dp[(full ^ visited) | 1]
        u = (step & -step).bit_length() - 1
        seq.append(u)
        visited |= 1 << u
    return tuple(nodes[i] for i in seq)


def maximal_cyclic_sets(graph: UnionGraph) -> tuple[int, ...]:
    """All cyclic node subsets with no cyclic strict superset, ascending."""
    _check_sweep(graph.node_count)
    adj = graph.adjacency
    n = graph.node_count
    cyclic = [
        m
        for m in range(7, 1 << n)
        if m.bit_count() >= 3 and _spanning_cycle_exists(adj, m)
    ]
    maximal: list[int] = []
    for m in sorted(cyclic, key=lambda x: (-x.bit_count(), x)):
        if not any(m & big == m for big in maximal):
            maximal.append(m)
    return tuple(sorted(maximal))


@dataclass(frozen=True)
class CycleCoverCheck:
    """Outcome of the cycle-cover check.

    On failure ``uncovered_cycle`` is a node sequence of a cycle whose node
    set lies in nobody's evaluable set (the smallest such subset in bitmask
    order, with the lexicographically smallest cycle on it). On success
    ``certificate`` maps each maximal cyclic node set to a covering
    individual, which certifies coverage of every cyclic subset.
    """

    holds: bool
    uncovered_cycle: tuple[int, ...] | None
    certificate: tuple[tuple[int, int], ...] | None


@dataclass(frozen=True)
class SpanningCycleCheck:
    """``holds`` is True when the graph has no spanning (Hamiltonian) cycle."""

    holds: bool
    cycle: tuple[int, ...] | None


def check_cycle_cover(profile: EvaluabilityProfile) -> CycleCoverCheck:
    """Decide whether every cycle of the co-evaluation graph is covered.

    Sweeps node subsets in ascending bitmask order; a subset already inside
    some evaluable set cannot witness a failure and is skipped before the
    (more expensive) cyclicity test.
    """
    _check_sweep(profile.n_alts)
    g = build_union_graph(profile)
    cliques = profile.evaluable
    for s in range(7, 1 << g.node_count):
        if s.bit_count() < 3:
            continue
        if any(s & ~c == 0 for c in cliques):
            continue
        if _spanning_cycle_exists(g.adjacency, s):
            witness = _spanning_cycle_witness(g.adjacency, s)
            return CycleCoverCheck(False, witness, None)
    certificate = []
    for m in maximal_cyclic_sets(g):
        # every cyclic subset was covered, so some individual covers m
        certificate.append((m, next(v for v, c in enumerate(cliques) if m & ~c == 0)))
    return CycleCoverCheck(True, None, tuple(certificate))


def check_spanning_cycle_free(profile: EvaluabilityProfile) -> SpanningCycleCheck:
    """Decide by search whether the co-evaluation graph has no spanning cycle."""
    _check_sweep(profile.n_alts)
    g = build_union_graph(profile)
    cycle = _spanning_cycle_witness(g.adjacency, g.nodes)
    return SpanningCycleCheck(cycle is None, cycle)


@dataclass(frozen=True)
class ProfileClassification:
    """IP / DP / PP verdict plus the witnesses that re-validate it."""

    verdict: str
    cycle_cover: CycleCoverCheck
    complete_individual: int | None


def classify(profile: EvaluabilityProfile) -> ProfileClassification:
    """Classify a profile as IP, DP, or PP with a machine-checkable witness.

    A complete individual makes the graph complete, so its set is the one
    maximal cyclic set and covers every cycle: DP needs no sweep.
    """
    complete = complete_individuals(profile)
    if complete:
        certificate = ((profile.full_mask, complete[0]),)
        return ProfileClassification(DP, CycleCoverCheck(True, None, certificate), complete[0])
    cover = check_cycle_cover(profile)
    return ProfileClassification(PP if cover.holds else IP, cover, None)


@dataclass(frozen=True)
class CyclicRankings:
    """Rotation-built rankings around an uncovered cycle.

    ``pivots[v]`` is the index into ``cycle`` of the alternative that
    individual ``v`` does not evaluate and whose rotation defines that
    individual's ranking.
    """

    cycle: tuple[int, ...]
    pivots: tuple[int, ...]
    rankings: RankingProfile


def cyclic_rankings(profile: EvaluabilityProfile, cycle: tuple[int, ...]) -> CyclicRankings:
    """Build the witness rankings for an uncovered cycle.

    For each individual, take the smallest cycle index ``m`` whose alternative
    they do not evaluate, rank the cycle alternatives they do evaluate by the
    rotation ``cycle[m], cycle[m-1], ..., cycle[m+1]`` (descending from the
    pivot, wrapping), and append their remaining alternatives strictly below
    in input order. Raises when some individual evaluates the whole cycle,
    since the rotation pivot would not exist.
    """
    cyc = tuple(cycle)
    m_len = len(cyc)
    if m_len < 3:
        raise ProfileError("a cycle needs at least 3 nodes")
    if len(set(cyc)) != m_len:
        raise ProfileError("cycle nodes must be distinct")
    if any(not 0 <= a < profile.n_alts for a in cyc):
        raise ProfileError("cycle contains unknown alternative indices")
    ev = profile.evaluator_masks
    for i, a in enumerate(cyc):
        b = cyc[(i + 1) % m_len]
        if not ev[a] & ev[b]:
            raise ProfileError(
                f"consecutive cycle pair ({a}, {b}) has no common evaluator"
            )
    cyc_mask = mask_of(cyc)
    pivots = []
    orders = []
    for v, evaluates in enumerate(profile.evaluable):
        pivot = next((m for m in range(m_len) if not (evaluates >> cyc[m]) & 1), None)
        if pivot is None:
            raise ConditionViolationError(
                f"cycle is covered by individual {profile.individuals[v]!r}; "
                "witness construction requires an uncovered cycle",
                cycle=cyc,
            )
        pivots.append(pivot)
        rotation = [cyc[(pivot - k) % m_len] for k in range(m_len)]
        sequence = [a for a in rotation if (evaluates >> a) & 1]
        sequence.extend(bits(evaluates & ~cyc_mask))
        orders.append(WeakOrder.from_ranking(sequence))
    return CyclicRankings(cyc, tuple(pivots), RankingProfile(tuple(orders)))
