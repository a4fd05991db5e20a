"""Weak orders, strict relations and linear-order extensions over small ground sets.

Alternatives are dense integer ids; sets of alternatives are int bitmasks
(ground sets capped at 64 elements, far above anything this library is used
for). A weak order is stored as an ordered partition into indifference tiers,
best tier first, which makes reflexivity, completeness, and transitivity
structural rather than checked.

Relations are computed as bitmasks. A relation on n nodes packs into one
int: node x's mask of the nodes above it sits at bits x*n .. x*n + n - 1, so
bit b*n + a reads "a strictly above b" (see ``pack``). ``StrictDigraph``, the
public form of a result, holds that packed int and its ground set, checked
at construction with mask operations. Its transpose ``below`` and its
frozenset of ``arcs`` are built only when read, and ``from_arcs`` packs an
arc set, so ``strict_part``, ``is_acyclic`` and ``linear_extension`` all
decide on packed masks. ``linear_extension``, the aggregates and the verify
kernel share one tiebreak-first extension, ``extension_mask_relation``.

All values are immutable after construction and all operations are pure
functions, so everything here is safely shareable between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
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


@dataclass(frozen=True)
class StrictDigraph:
    """An asymmetric directed relation on ``ground``, packed as ``pack`` lays
    it out for n = ``ground.bit_length()`` nodes: bit b*n + a of ``above``
    is the arc (a, b), read "a strictly above b"."""

    ground: int
    above: int

    def __post_init__(self) -> None:
        # the lowest wrong bit: an arc off the ground's pairs, else one of an asymmetric pair
        wrong = self.above & ~_pairs(self.ground) or self.above & self.below
        if wrong:
            b, a = divmod((wrong & -wrong).bit_length() - 1, self.ground.bit_length() or 1)
            if a == b:
                raise ValueError(f"self-loop on {a}")
            if not (self.ground >> a) & 1 or not (self.ground >> b) & 1:
                raise ValueError(f"arc ({a}, {b}) leaves the ground set")
            raise ValueError(f"asymmetry violated on ({a}, {b})")

    @staticmethod
    def from_arcs(ground: int, arcs: Iterable[tuple[int, int]]) -> "StrictDigraph":
        """Pack an arc set on ``ground``; (a, b) reads "a strictly above b"."""
        n = ground.bit_length()
        above = 0
        for a, b in arcs:
            if not (0 <= a < n and 0 <= b < n):  # its bit would land in another row
                raise ValueError(f"arc ({a}, {b}) leaves the ground set")
            above |= 1 << (b * n + a)
        return StrictDigraph(ground, above)

    @cached_property
    def below(self) -> int:
        """The transpose of ``above``: bit a*n + b is the arc (a, b)."""
        n = self.ground.bit_length()
        return sum(1 << (i % n * n + i // n) for i in bits(self.above))

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        n = self.ground.bit_length()
        return frozenset((i % n, i // n) for i in bits(self.above))


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
    return StrictDigraph(order.ground, mask_relation(order, order.ground.bit_length())[0])


# ---------------------------------------------------------------------------
# Mask relations. An output relation on n alternatives is kept as two packed
# ints: node x's mask of nodes strictly above it (resp. below it) sits at
# bits x*n .. x*n + n - 1. Arc (a, b) is bit b*n + a of the packed "above".
# ---------------------------------------------------------------------------

MaskRelation = tuple[int, int]


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
    return pack(above, n), pack(below, n)


def extension_mask_relation(
    constraint: int, n: int, tiebreak: tuple[int, ...]
) -> MaskRelation | None:
    """The tiebreak-first linear extension of a packed constraint, as a
    mask relation.

    ``tiebreak`` lists the nodes best first. Each step places the first
    remaining node in tiebreak order that no remaining node is constrained
    above. Returns None when the constraint has a directed cycle. When
    ``tiebreak`` lists only some of the ``n`` nodes (a sparse ground set, as
    ``linear_extension`` passes), only the packed "above" is meaningful.
    """
    rest = (1 << n) - 1
    placed = 0
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
        packed_above |= placed << x * n
        placed |= 1 << x
    # in a linear order every other node is either above or below
    return packed_above, _off_diagonal(n) ^ packed_above


@lru_cache(maxsize=None)
def _off_diagonal(n: int) -> int:
    full = (1 << n) - 1
    return pack([full ^ 1 << x for x in range(n)], n)


@lru_cache(maxsize=None)
def _pairs(ground: int) -> int:
    """The packed bits of every arc between two nodes of ``ground``."""
    n = ground.bit_length()
    return pack([ground ^ 1 << x if ground >> x & 1 else 0 for x in range(n)], n)


def is_acyclic(digraph: StrictDigraph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide acyclicity; on failure return a directed cycle as witness.

    The witness is a node sequence ``w`` with every ``(w[i], w[i+1])`` and the
    closing ``(w[-1], w[0])`` an arc of the digraph. Traversal is depth first
    over the packed "below" masks, from the smallest node with ascending
    successors, so the witness is deterministic.
    """
    n = digraph.ground.bit_length()
    full = (1 << n) - 1
    below = digraph.below
    done = 0
    todo = digraph.ground
    while todo:
        root = (todo & -todo).bit_length() - 1
        path = [root]
        pending = [below >> root * n & full]  # per path node, successors left
        on_path = 1 << root
        while path:
            rest = pending[-1] & ~done
            if rest:
                low = rest & -rest
                pending[-1] = rest ^ low
                nxt = low.bit_length() - 1
                if low & on_path:
                    return False, tuple(path[path.index(nxt):])
                path.append(nxt)
                pending.append(below >> nxt * n & full)
                on_path |= low
            else:
                node = 1 << path.pop()
                pending.pop()
                on_path ^= node
                done |= node
        todo &= ~done
    return True, None


def linear_extension(digraph: StrictDigraph, tiebreak: WeakOrder) -> WeakOrder:
    """Extend an acyclic digraph to a linear order, deterministically.

    Repeatedly places the node, first in ``tiebreak`` order, that no
    remaining node is above (``extension_mask_relation``), so identical
    inputs always produce the same order. ``tiebreak`` must be a linear order
    on the digraph's ground set. Raises CyclicRelationError when the digraph
    has a directed cycle.
    """
    if not tiebreak.is_linear or tiebreak.ground != digraph.ground:
        raise ValueError("tiebreak must be a linear order on the digraph ground")
    order = packed_linear_extension(digraph.above, digraph.ground.bit_length(), tiebreak)
    if order is None:
        raise CyclicRelationError(is_acyclic(digraph)[1])
    return order


def packed_linear_extension(constraint: int, n: int, tiebreak: WeakOrder) -> WeakOrder | None:
    """``extension_mask_relation`` of a packed constraint on ``n`` nodes as a
    linear order on ``tiebreak``'s ground set; None when it has a cycle."""
    sequence = tuple(tier.bit_length() - 1 for tier in tiebreak.tiers)
    extension = extension_mask_relation(constraint, n, sequence)
    if extension is None:
        return None
    above, full = extension[0], (1 << n) - 1
    ranking = [0] * len(sequence)
    for x in sequence:
        # in a linear order a node's position is the number of nodes above it
        ranking[(above >> x * n & full).bit_count()] = x
    return WeakOrder.from_ranking(ranking)


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
        total += comb(n, k) * ordered_bell(n - k)
    return total
