"""Weak orders, strict digraphs, and linear-order extensions over small ground sets.

Alternatives are dense integer ids; sets of alternatives are int bitmasks
(ground sets capped at 64 elements, far above anything this library is used
for). A weak order is stored as an ordered partition into indifference tiers,
best tier first, which makes reflexivity, completeness, and transitivity
structural rather than checked. Strict digraphs are asymmetric arc sets;
asymmetry is enforced at construction so that violations fail fast.

All values are immutable after construction and all operations are pure
functions, so everything here is safely shareable between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator


class CyclicRelationError(ValueError):
    """An operation required an acyclic relation but was handed a cycle."""

    def __init__(self, cycle: tuple[int, ...]):
        self.cycle = cycle
        super().__init__(f"relation has a directed cycle: {list(cycle)}")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    """Pack an iterable of element ids into a bitmask."""
    out = 0
    for a in ids:
        out |= 1 << a
    return out


@dataclass(frozen=True)
class WeakOrder:
    """An ordered partition of a ground set into indifference tiers.

    ``tiers[0]`` is the best tier. The induced relation is ``a R b`` iff the
    tier of ``a`` is at least as good as the tier of ``b``; it is reflexive,
    complete, and transitive by construction. The order is linear when every
    tier is a singleton. An empty order (no tiers) is permitted so that
    restrictions to the empty set are well defined.
    """

    tiers: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = 0
        for tier in self.tiers:
            if not isinstance(tier, int) or tier <= 0:
                raise ValueError("every tier must be a nonempty bitmask")
            if tier & seen:
                raise ValueError("tiers must be pairwise disjoint")
            seen |= tier

    @staticmethod
    def from_ranking(sequence: Iterable[int]) -> "WeakOrder":
        """Build a linear order from a best-to-worst id sequence."""
        return WeakOrder(tuple(1 << a for a in sequence))

    @staticmethod
    def from_tiers(tiers: Iterable[Iterable[int]]) -> "WeakOrder":
        return WeakOrder(tuple(mask_of(t) for t in tiers))

    @cached_property
    def ground(self) -> int:
        g = 0
        for tier in self.tiers:
            g |= tier
        return g

    @cached_property
    def ranks(self) -> dict[int, int]:
        """Map element -> tier index (0 is best)."""
        out: dict[int, int] = {}
        for i, tier in enumerate(self.tiers):
            for a in bits(tier):
                out[a] = i
        return out

    @property
    def is_linear(self) -> bool:
        return all(t & (t - 1) == 0 for t in self.tiers)

    def prefers(self, a: int, b: int) -> bool:
        """True when ``a`` is strictly better than ``b``."""
        return self.ranks[a] < self.ranks[b]

    def indifferent(self, a: int, b: int) -> bool:
        return self.ranks[a] == self.ranks[b]

    def to_lists(self) -> list[list[int]]:
        return [sorted(bits(t)) for t in self.tiers]

    def as_sequence(self) -> tuple[int, ...]:
        """The id sequence of a linear order, best first."""
        if not self.is_linear:
            raise ValueError("order is not linear")
        return tuple(t.bit_length() - 1 for t in self.tiers)


@dataclass(frozen=True)
class StrictDigraph:
    """An asymmetric directed relation: arc (a, b) reads 'a strictly above b'."""

    ground: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.arcs:
            if a == b:
                raise ValueError(f"self-loop on {a}")
            if not (self.ground >> a) & 1 or not (self.ground >> b) & 1:
                raise ValueError(f"arc ({a}, {b}) leaves the ground set")
            if (b, a) in self.arcs:
                raise ValueError(f"asymmetry violated on ({a}, {b})")

    def has_arc(self, a: int, b: int) -> bool:
        return (a, b) in self.arcs


@dataclass(frozen=True)
class RankingProfile:
    """One weak order per individual, aligned with the individual index order."""

    orders: tuple[WeakOrder, ...]

    def __len__(self) -> int:
        return len(self.orders)

    def __getitem__(self, v: int) -> WeakOrder:
        return self.orders[v]


def strict_part(order: WeakOrder) -> StrictDigraph:
    """Arcs (a, b) for every a strictly better than b in ``order``."""
    arcs = []
    rest = order.ground
    for tier in order.tiers:
        rest ^= tier
        if not rest:
            break
        for a in bits(tier):
            for b in bits(rest):
                arcs.append((a, b))
    return StrictDigraph(order.ground, frozenset(arcs))


# ---------------------------------------------------------------------------
# Mask relations. An output relation on n alternatives is kept as the list of
# per-node masks ``above[x]`` (the nodes strictly above x) plus two packed
# ints: node x's mask of nodes strictly above it (resp. below it) sits at
# bits x*n .. x*n + n - 1. Arc (a, b) is bit b*n + a of the packed "above".
# ---------------------------------------------------------------------------

MaskRelation = tuple[list[int], int, int]


def strictly_above(order: WeakOrder, n: int) -> list[int]:
    """Per element id below ``n``, the mask of elements strictly better in
    ``order``; elements outside its ground set get 0."""
    above = [0] * n
    better = 0
    for tier in order.tiers:
        for a in bits(tier):
            above[a] = better
        better |= tier
    return above


def pack(masks: Iterable[int], n: int) -> int:
    """Pack per-node masks into one int, node x's mask at bit x*n."""
    out = 0
    for x, mask in enumerate(masks):
        out |= mask << (x * n)
    return out


def mask_relation(order: WeakOrder, n: int) -> MaskRelation:
    """The strict part of ``order`` as a mask relation on ``n`` nodes."""
    above = strictly_above(order, n)
    below = [0] * n
    worse = order.ground
    for tier in order.tiers:
        worse ^= tier
        for a in bits(tier):
            below[a] = worse
    return above, pack(above, n), pack(below, n)


def arcs_mask_relation(arcs: Iterable[tuple[int, int]], n: int) -> MaskRelation:
    """An arc set (a strictly above b for each (a, b)) as a mask relation."""
    above = [0] * n
    below = [0] * n
    for a, b in arcs:
        above[b] |= 1 << a
        below[a] |= 1 << b
    return above, pack(above, n), pack(below, n)


def extension_mask_relation(
    constraint: int, n: int, tiebreak: tuple[int, ...]
) -> MaskRelation | None:
    """``linear_extension`` on a packed constraint, as a mask relation.

    ``tiebreak`` lists the nodes best first. Each step places the first
    remaining node in tiebreak order that no remaining node is constrained
    above, which is the node Kahn's algorithm in ``linear_extension`` pops.
    Returns None when the constraint has a directed cycle.
    """
    rest = (1 << n) - 1
    placed = 0
    above = [0] * n
    packed_above = 0
    waiting = list(tiebreak)
    while waiting:
        for j, x in enumerate(waiting):
            if not constraint >> x * n & rest:
                break
        else:
            return None
        del waiting[j]
        rest ^= 1 << x
        above[x] = placed
        packed_above |= placed << x * n
        placed |= 1 << x
    # in a linear order every other node is either above or below
    return above, packed_above, _off_diagonal(n) ^ packed_above


@lru_cache(maxsize=None)
def _off_diagonal(n: int) -> int:
    full = (1 << n) - 1
    return pack([full ^ 1 << x for x in range(n)], n)


def indifferent_pairs(order: WeakOrder) -> frozenset[tuple[int, int]]:
    """Off-diagonal symmetric part of ``order``, as (a, b) pairs with a < b."""
    pairs = []
    for tier in order.tiers:
        members = list(bits(tier))
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pairs.append((a, b))
    return frozenset(pairs)


def relation_pairs(order: WeakOrder) -> frozenset[tuple[int, int]]:
    """The full induced relation of ``order`` as explicit (a, b) pairs."""
    ranks = order.ranks
    members = sorted(ranks)
    return frozenset(
        (a, b) for a in members for b in members if ranks[a] <= ranks[b]
    )


def is_reflexive(pairs: frozenset[tuple[int, int]], ground: int) -> bool:
    return all((a, a) in pairs for a in bits(ground))


def is_complete(pairs: frozenset[tuple[int, int]], ground: int) -> bool:
    members = list(bits(ground))
    return all(
        (a, b) in pairs or (b, a) in pairs
        for a in members
        for b in members
    )


def is_transitive(pairs: frozenset[tuple[int, int]]) -> bool:
    return all(
        (a, d) in pairs
        for a, b in pairs
        for c, d in pairs
        if b == c
    )


def is_antisymmetric(pairs: frozenset[tuple[int, int]]) -> bool:
    return all(a == b for a, b in pairs if (b, a) in pairs)


def is_asymmetric(pairs: frozenset[tuple[int, int]]) -> bool:
    return all((b, a) not in pairs for a, b in pairs)


def restrict(order: WeakOrder, keep: int) -> WeakOrder:
    """Restrict ``order`` to the elements of the bitmask ``keep``.

    Tier order is preserved; tiers that become empty are dropped.
    """
    if keep & ~order.ground:
        extra = sorted(bits(keep & ~order.ground))
        raise ValueError(f"restriction set leaves the ground set: {extra}")
    return WeakOrder(tuple(t & keep for t in order.tiers if t & keep))


def is_acyclic(digraph: StrictDigraph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide acyclicity; on failure return a directed cycle as witness.

    The witness is a node sequence ``w`` with every ``(w[i], w[i+1])`` and the
    closing ``(w[-1], w[0])`` an arc of the digraph. Traversal is depth first
    from the smallest node with ascending successors, so the witness is
    deterministic.
    """
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


def linear_extension(digraph: StrictDigraph, tiebreak: WeakOrder) -> WeakOrder:
    """Extend an acyclic digraph to a linear order, deterministically.

    Repeatedly emits the source node (no remaining in-arcs) that is minimal
    under ``tiebreak``, so identical inputs always produce the same order.
    ``tiebreak`` must be a linear order on the digraph's ground set. Raises
    CyclicRelationError when the digraph has a directed cycle.
    """
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
        cyclic, witness = is_acyclic(digraph)
        assert not cyclic and witness is not None
        raise CyclicRelationError(witness)
    return WeakOrder.from_ranking(out)


def extends(order: WeakOrder, digraph: StrictDigraph) -> bool:
    """True when ``order`` is a linear-order extension of ``digraph``."""
    if not order.is_linear or order.ground != digraph.ground:
        return False
    ranks = order.ranks
    return all(ranks[a] < ranks[b] for a, b in digraph.arcs)


def enumerate_weak_orders(mask: int) -> Iterator[WeakOrder]:
    """Yield every weak order (ordered partition) on ``mask`` exactly once.

    The first tier runs over nonempty submasks in decreasing bitmask value,
    recursing on the remainder, which fixes a deterministic enumeration order.
    """
    if mask <= 0:
        raise ValueError("ground set must be nonempty")

    def rec(rest: int) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield ()
            return
        sub = rest
        while sub:
            for tail in rec(rest ^ sub):
                yield (sub,) + tail
            sub = (sub - 1) & rest

    for tiers in rec(mask):
        yield WeakOrder(tiers)


@lru_cache(maxsize=None)
def weak_orders_on(mask: int) -> tuple[WeakOrder, ...]:
    """All weak orders on ``mask``, cached; hot path for exhaustive sweeps."""
    return tuple(enumerate_weak_orders(mask))


@lru_cache(maxsize=None)
def ordered_bell(n: int) -> int:
    """Number of weak orders on an n-element set."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    total = 0
    for k in range(1, n + 1):
        total += _choose(n, k) * ordered_bell(n - k)
    return total


def _choose(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
