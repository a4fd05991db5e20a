"""Exact censuses of evaluability profiles.

Counts are over labeled individuals: with n alternatives there are
2^n - n - 1 admissible evaluable sets (size at least 2), hence
(2^n - n - 1)^m labeled profiles for m individuals. The brute census
memoizes verdicts by the sorted mask tuple, since many labeled profiles share
one multiset.

The brute census classifies every labeled profile. The symmetric census uses
maximal support: a profile's verdict depends only on its maximal evaluable
sets, an antichain A, because a set inside another set adds no edge, no
cycle and no complete individual. The labeled m-profiles whose maximal
support is exactly A are the m-tuples over the down-set of A (its d_A
admissible sets below some member) that use every member of A, so by
inclusion-exclusion there are

    sum_{j=0..|A|} (-1)^j * C(|A|, j) * (d_A - j)^m

of them, which is zero unless |A| <= m. The symmetric census therefore
classifies one profile per antichain with at most m members and weights it
by that sum; the counts must equal the brute counts exactly. Every antichain
gives a distinct profile, so nothing is memoized there. Its budget is
charged on those antichains, counted before anything is classified.

All counts and proportions are exact (big integers and Fractions); decimal
strings appear only at the rendering edge.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, log10

from .conditions import classify
from .profiles import EvaluabilityProfile

DEFAULT_BUDGET = 10_000_000
# antichains for the symmetric census: each costs one classification, about
# 0.4 ms at 7 alternatives, so the default stops near a minute and a half
DEFAULT_SUPPORT_BUDGET = 200_000


class CensusBudgetError(RuntimeError):
    """The census needs more work than the configured budget allows.

    ``required`` is the labeled profile count of a brute census, its digit
    count when far over the budget, or the antichains a symmetric census
    counted: one past the budget, or the same-size ones that alone pass it.
    """

    def __init__(self, required: int, budget: int, needs: str | None = None):
        self.required = required
        self.budget = budget
        needs = needs or f"profile space has {required} profiles"
        super().__init__(f"{needs}, budget allows {budget}")


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


def total_digits(n_alts: int, n_inds: int) -> int:
    """Decimal digits of the labeled profile count S ** n_inds from n_inds *
    log10(S), building the count only within 1e-6 of an integer. From 64
    alternatives on, S is not built: log10(S) is n_alts * log10(2) within 1e-17."""
    estimate = n_inds * (log10(evaluable_set_count(n_alts)) if n_alts < 64 else n_alts * log10(2))
    near = round(estimate)
    if abs(estimate - near) > 1e-6 + estimate * 1e-15:
        return floor(estimate) + 1
    return near + (evaluable_set_count(n_alts) ** n_inds >= 10**near)


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


def census_brute(n_alts: int, n_inds: int, budget: int = DEFAULT_BUDGET) -> CensusReport:
    """Classify every labeled assignment of evaluable sets to individuals."""
    if n_inds < 3:
        raise ValueError("need at least 3 individuals")
    digits = total_digits(n_alts, n_inds)
    if digits > len(str(budget)) + 9:  # over a billion times the budget: the count is not built
        raise CensusBudgetError(digits, budget, f"profile space has a {digits}-digit number of profiles")
    total = evaluable_set_count(n_alts) ** n_inds
    if total > budget:
        raise CensusBudgetError(total, budget)
    cache = _VerdictCache(n_alts, n_inds)
    counts: Counter[str] = Counter()
    for combo in itertools.product(evaluable_masks(n_alts), repeat=n_inds):
        counts[cache.verdict(combo)] += 1
    return CensusReport(
        n_alts, n_inds, total, counts["IP"], counts["DP"], counts["PP"], "brute"
    )


def support_weight(members: int, down: int, n_inds: int) -> int:
    """Labeled profiles whose maximal support is one antichain.

    The antichain has ``members`` sets and ``down`` admissible sets below
    some member (the members included); the count is the number of
    ``n_inds``-tuples over those sets that use every member.
    """
    return sum(
        (-1) ** j * comb(members, j) * (down - j) ** n_inds
        for j in range(members + 1)
    )


def _support_order(masks: tuple[int, ...]) -> tuple[list[int], list[int]]:
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


def _antichains(below: list[int], above: list[int], n_inds: int):
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


def census_symmetric(
    n_alts: int,
    n_inds: int,
    budget: int = DEFAULT_SUPPORT_BUDGET,
) -> CensusReport:
    """Classify one profile per maximal support, weighted by inclusion-exclusion.

    Walks the antichains A of evaluable sets with at most ``n_inds`` members
    in ascending mask order. Each is classified as A, padded to the 3 sets a
    profile needs by repeating its last member, and adds ``support_weight``
    to its verdict. The budget is charged on the antichains: they are counted
    first, and more than ``budget`` of them raises CensusBudgetError before
    any classification, or before any table is built when the same-size
    antichains alone are too many.
    """
    if n_inds < 3:
        raise ValueError("need at least 3 individuals")
    sets = evaluable_set_count(n_alts)
    refusal = f"maximal-support census has more than {budget} antichains"
    # same-size sets are incomparable, so their antichains bound the count
    sizes = (comb(n_alts, k) for k in range(2, n_alts + 1))
    lower = itertools.accumulate(comb(s, j) for s in sizes for j in range(1, min(n_inds, s) + 1))
    required = next((count for count in lower if count > budget), 0)
    if required > budget:
        raise CensusBudgetError(required, budget, refusal)
    masks = evaluable_masks(n_alts)
    below, above = _support_order(masks)
    required = sum(1 for _ in itertools.islice(_antichains(below, above, n_inds), budget + 1))
    if required > budget:
        raise CensusBudgetError(required, budget, refusal)
    alts = _generic_names("a", n_alts)
    inds = _generic_names("v", len(masks))  # no padded antichain has more sets
    counts: Counter[str] = Counter()
    for members, down in _antichains(below, above, n_inds):
        chosen = tuple(masks[i] for i in members)
        padded = chosen + chosen[-1:] * (3 - len(chosen))
        weight = support_weight(len(chosen), down.bit_count(), n_inds)
        counts[classify(EvaluabilityProfile(alts, inds[: len(padded)], padded)).verdict] += weight
    return CensusReport(
        n_alts, n_inds, sets**n_inds, counts["IP"], counts["DP"], counts["PP"], "symmetric"
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
