"""Evaluability profiles and the co-evaluation graph they induce.

An evaluability profile records, for each individual, the subset of
alternatives that individual can rank (the evaluable set). The co-evaluation
graph joins two alternatives whenever at least one individual evaluates both;
each individual contributes the clique on their evaluable set.

Alternatives and individuals carry stable string ids plus dense indices; all
deterministic "choose the first" rules downstream refer to input list order.
Profiles are validated eagerly so later stages can assume the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .relations import RankingProfile, bits, mask_of


class ProfileError(ValueError):
    """Invalid profile data: sizes, unknown ids, undersized evaluable sets."""


@dataclass(frozen=True)
class EvaluabilityProfile:
    alternatives: tuple[str, ...]
    individuals: tuple[str, ...]
    evaluable: tuple[int, ...]  # per-individual bitmask over alternative indices

    def __post_init__(self) -> None:
        if len(set(self.alternatives)) != len(self.alternatives):
            raise ProfileError("duplicate alternative ids")
        if len(set(self.individuals)) != len(self.individuals):
            raise ProfileError("duplicate individual ids")
        if len(self.alternatives) < 3:
            raise ProfileError("need at least 3 alternatives")
        if len(self.individuals) < 3:
            raise ProfileError("need at least 3 individuals")
        if len(self.evaluable) != len(self.individuals):
            raise ProfileError("one evaluable set per individual required")
        full = self.full_mask
        for v, m in zip(self.individuals, self.evaluable):
            if m & ~full:
                raise ProfileError(f"evaluable set of {v!r} contains unknown alternatives")
            if m.bit_count() < 2:
                raise ProfileError(f"individual {v!r} must evaluate at least 2 alternatives")

    @property
    def n_alts(self) -> int:
        return len(self.alternatives)

    @property
    def n_inds(self) -> int:
        return len(self.individuals)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.alternatives)) - 1

    @cached_property
    def alt_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.alternatives)}

    @cached_property
    def ind_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.individuals)}

    @cached_property
    def evaluator_masks(self) -> tuple[int, ...]:
        """Per alternative, the bitmask of individuals that evaluate it."""
        out = [0] * self.n_alts
        for v, m in enumerate(self.evaluable):
            for a in bits(m):
                out[a] |= 1 << v
        return tuple(out)

    @cached_property
    def shared_pairs(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Every pair a < b that some individual evaluates together, with
        its evaluators ascending, in ascending pair order."""
        ev = self.evaluator_masks
        n = self.n_alts
        return tuple(
            (a, b, tuple(bits(ev[a] & ev[b])))
            for a in range(n)
            for b in range(a + 1, n)
            if ev[a] & ev[b]
        )

    @cached_property
    def common_pairs(self) -> int:
        """``shared_pairs`` in both orders, packed as by ``relations.pack``:
        the union graph's adjacency."""
        n = self.n_alts
        return sum((1 << a * n + b) | (1 << b * n + a) for a, b, _ in self.shared_pairs)

    def alt_names(self, mask_or_ids: int | Iterable[int]) -> list[str]:
        ids = bits(mask_or_ids) if isinstance(mask_or_ids, int) else mask_or_ids
        return [self.alternatives[a] for a in ids]

    def alt_mask(self, names: Iterable[str]) -> int:
        try:
            return mask_of(self.alt_index[n] for n in names)
        except KeyError as exc:
            raise ProfileError(f"unknown alternative {exc.args[0]!r}") from None


def build_profile(
    alternatives: Iterable[str],
    individuals: Iterable[str],
    evaluable: Mapping[str, Iterable[str]],
) -> EvaluabilityProfile:
    """Validate and intern raw profile data.

    ``evaluable`` maps every individual id to the alternative ids they can
    rank. Raises ProfileError on duplicates, unknown ids, fewer than 3
    alternatives or individuals, or an evaluable set smaller than 2.
    """
    alts = tuple(alternatives)
    inds = tuple(individuals)
    if len(set(alts)) != len(alts):
        raise ProfileError("duplicate alternative ids")
    index = {name: i for i, name in enumerate(alts)}
    unknown = set(evaluable) - set(inds)
    if unknown:
        raise ProfileError(f"evaluable sets given for unknown individuals: {sorted(unknown)}")
    masks = []
    for v in inds:
        if v not in evaluable:
            raise ProfileError(f"no evaluable set for individual {v!r}")
        m = 0
        for name in evaluable[v]:
            if name not in index:
                raise ProfileError(f"individual {v!r} evaluates unknown alternative {name!r}")
            m |= 1 << index[name]
        masks.append(m)
    return EvaluabilityProfile(alts, inds, tuple(masks))


@dataclass(frozen=True)
class UnionGraph:
    """Union of the per-individual cliques on their evaluable sets."""

    node_count: int
    adjacency: tuple[int, ...]  # neighbor bitmask per node

    @property
    def nodes(self) -> int:
        return (1 << self.node_count) - 1


def build_union_graph(profile: EvaluabilityProfile) -> UnionGraph:
    n = profile.n_alts
    adjacency = [0] * n
    for m in profile.evaluable:
        for a in bits(m):
            adjacency[a] |= m ^ (1 << a)
    return UnionGraph(n, tuple(adjacency))


def complete_individuals(profile: EvaluabilityProfile) -> tuple[int, ...]:
    """Indices of individuals whose evaluable set is all alternatives."""
    full = profile.full_mask
    return tuple(v for v, m in enumerate(profile.evaluable) if m == full)


def validate_rankings(profile: EvaluabilityProfile, rankings: RankingProfile) -> None:
    """Check each submitted order covers exactly its evaluable set."""
    if len(rankings.orders) != profile.n_inds:
        raise ProfileError(
            f"expected {profile.n_inds} rankings, got {len(rankings.orders)}"
        )
    for v, order in enumerate(rankings.orders):
        if order.ground != profile.evaluable[v]:
            raise ProfileError(
                f"ranking of {profile.individuals[v]!r} does not match its evaluable set"
            )
