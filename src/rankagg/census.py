"""Exact censuses of evaluability profiles.

Counts are over labeled individuals: with n alternatives there are
2^n - n - 1 admissible evaluable sets (size at least 2), hence
(2^n - n - 1)^m labeled profiles for m individuals. The classification of a
profile depends only on the multiset of evaluable sets, so verdicts are
memoized by the sorted mask tuple; the symmetric census enumerates multisets
directly and weights each by its multinomial count of labeled assignments,
which must reproduce the brute counts exactly.

All counts and proportions are exact (big integers and Fractions); decimal
strings appear only at the rendering edge.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .conditions import classify
from .profiles import EvaluabilityProfile

DEFAULT_BUDGET = 10_000_000


class CensusBudgetError(RuntimeError):
    """The profile space is larger than the configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(f"profile space has {required} profiles, budget allows {budget}")


def evaluable_set_count(n_alts: int) -> int:
    """Number of admissible evaluable sets: subsets of size at least 2."""
    if n_alts < 3:
        raise ValueError("need at least 3 alternatives")
    return 2**n_alts - n_alts - 1


def evaluable_masks(n_alts: int) -> tuple[int, ...]:
    """All admissible evaluable-set masks, ascending."""
    if n_alts < 3:
        raise ValueError("need at least 3 alternatives")
    return tuple(m for m in range(1 << n_alts) if m.bit_count() >= 2)


def dp_proportion(n_alts: int, n_inds: int) -> Fraction:
    """Exact share of profiles with at least one complete individual."""
    if n_alts < 3 or n_inds < 3:
        raise ValueError("need at least 3 alternatives and 3 individuals")
    sets = evaluable_set_count(n_alts)
    return 1 - Fraction(sets - 1, sets) ** n_inds


def format_proportion(value: Fraction) -> str:
    """Render a proportion at 2 decimals with exact half-even rounding."""
    cents = round(value * 100)
    return f"{cents // 100}.{cents % 100:02d}"


@dataclass(frozen=True)
class CensusReport:
    alt_count: int
    ind_count: int
    total: int
    ip: int
    dp: int
    pp: int
    method: str

    def __post_init__(self) -> None:
        if self.ip + self.dp + self.pp != self.total:
            raise ValueError("verdict counts must sum to the total")

    def proportions(self) -> dict[str, Fraction]:
        return {
            "IP": Fraction(self.ip, self.total),
            "DP": Fraction(self.dp, self.total),
            "PP": Fraction(self.pp, self.total),
        }


def _generic_names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


class _VerdictCache:
    """Memoized classification keyed by the sorted evaluable-mask tuple."""

    def __init__(self, n_alts: int, n_inds: int):
        self.alts = _generic_names("a", n_alts)
        self.inds = _generic_names("v", n_inds)
        self.cache: dict[tuple[int, ...], str] = {}

    def verdict(self, masks: tuple[int, ...]) -> str:
        key = tuple(sorted(masks))
        found = self.cache.get(key)
        if found is None:
            profile = EvaluabilityProfile(self.alts, self.inds, key)
            found = classify(profile).verdict
            self.cache[key] = found
        return found


def census_brute(
    n_alts: int,
    n_inds: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CensusReport:
    """Classify every labeled assignment of evaluable sets to individuals.

    ``threads`` must be at least 1 and changes nothing: the census is
    sequential.
    """
    if n_inds < 3:
        raise ValueError("need at least 3 individuals")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    masks = evaluable_masks(n_alts)
    total = len(masks) ** n_inds
    if total > budget:
        raise CensusBudgetError(total, budget)
    cache = _VerdictCache(n_alts, n_inds)
    counts: Counter[str] = Counter()
    for combo in itertools.product(masks, repeat=n_inds):
        counts[cache.verdict(combo)] += 1
    return CensusReport(
        n_alts, n_inds, total, counts["IP"], counts["DP"], counts["PP"], "brute"
    )


def census_symmetric(
    n_alts: int,
    n_inds: int,
    budget: int = DEFAULT_BUDGET,
) -> CensusReport:
    """Classify one representative per multiset, weighted multinomially."""
    if n_inds < 3:
        raise ValueError("need at least 3 individuals")
    masks = evaluable_masks(n_alts)
    total = len(masks) ** n_inds
    if total > budget:
        raise CensusBudgetError(total, budget)
    cache = _VerdictCache(n_alts, n_inds)
    counts: Counter[str] = Counter()
    base = factorial(n_inds)
    for combo in itertools.combinations_with_replacement(masks, n_inds):
        weight = base
        for repeats in Counter(combo).values():
            weight //= factorial(repeats)
        counts[cache.verdict(combo)] += weight
    return CensusReport(
        n_alts, n_inds, total, counts["IP"], counts["DP"], counts["PP"], "symmetric"
    )


DEFAULT_GRID_ALTS = (3, 5, 7, 9)
DEFAULT_GRID_INDS = (3, 6, 9, 12, 15, 18, 21, 24, 27)


def dp_proportion_grid(
    alt_counts: tuple[int, ...] = DEFAULT_GRID_ALTS,
    ind_counts: tuple[int, ...] = DEFAULT_GRID_INDS,
) -> dict[tuple[int, int], Fraction]:
    """Exact complete-individual proportions over a grid of sizes."""
    return {
        (n, m): dp_proportion(n, m) for n in alt_counts for m in ind_counts
    }


def render_grid(
    alt_counts: tuple[int, ...] = DEFAULT_GRID_ALTS,
    ind_counts: tuple[int, ...] = DEFAULT_GRID_INDS,
) -> str:
    """Aligned text table of 2-decimal proportions, alternatives down the rows."""
    grid = dp_proportion_grid(alt_counts, ind_counts)
    header = ["A\\I".rjust(6)] + [str(m).rjust(6) for m in ind_counts]
    lines = ["".join(header)]
    for n in alt_counts:
        row = [str(n).rjust(6)] + [
            format_proportion(grid[(n, m)]).rjust(6) for m in ind_counts
        ]
        lines.append("".join(row))
    return "\n".join(lines) + "\n"
