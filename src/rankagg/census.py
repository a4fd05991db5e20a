"""Exact censuses of evaluability profiles.

Counts are over labeled individuals: with n alternatives there are
S = 2^n - n - 1 admissible evaluable sets (size at least 2), hence S^m
labeled profiles for m individuals. The brute census classifies every
profile, memoizing verdicts by the sorted mask tuple.

The symmetric census classifies nothing. A verdict depends only on the
maximal evaluable sets, an antichain A, since a set inside another adds no
edge, cycle or complete individual, and ``support_weight(|A|, d_A, m)``
labeled profiles have maximal support A, d_A counting the admissible sets
below some member. Cover holds exactly when A is Berge-acyclic (Berge,
*Hypergraphs*, 1989): two members share at most one alternative, and no
members form a cycle. Under cover, a block B of 3 or more nodes lies in the
member S holding the most of B: two paths inside B from a node outside S
back to S, closed through the clique on S, would form a cycle that only a
member holding more of B covers. S is a clique, so it is that block; maximal
2-sets are bridges, and blocks form a forest. Conversely, cliques glued along
a Berge-acyclic hypergraph are its blocks, and every cycle lies in a block.
No 2-set then lies in two members, so d_A is additive: the sum of
2^|e| - |e| - 1 over the members e.

So cover is the sum of support_weight(k, D, m) over the labeled hyperforests
on the alternatives with k edges of 2 or more members and down-set D. Rooted
hypertrees satisfy A = x exp(sum_{s>=2} y z^(2^s-s-1) A^(s-1) / (s-1)!)
(Flajolet and Sedgewick, *Analytic Combinatorics*, 2009, ch. II). By Lagrange
inversion, T[s], the connected ones on s nodes, holds s^(k-1) (s-1)! /
(prod (s_i-1)! prod mu_j!) hypertrees per multiset of k edge sizes s_i with
sum (s_i - 1) = s - 1, mu_j the multiplicities of the sizes (Cayley's
s^(s-2) when every s_i is 2). Split on the tree of the smallest alternative,
F[n] = sum_s C(n-1, s-1) T[s] F[n-s], edges and down-sets adding. A complete
individual is a one-edge hyperforest, so DP = S^m - (S-1)^m, PP = cover - DP
and IP = S^m - cover. support_weight(k, D, m) is 0 when k > m, since m
individuals use at most m maximal sets, so a row keeps only the cells of at
most m edges and a tree's partitions stop at m parts. The budget bounds the
cells of each table row.

All counts and proportions are exact (big integers and Fractions); decimal
strings appear only at the rendering edge.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, floor, log10, prod

from .conditions import classify
from .profiles import EvaluabilityProfile

DEFAULT_BUDGET = 10_000_000
# cells of one hyperforest table row for the symmetric census, whose rows keep
# the forests of at most m edges for m individuals. On a 2-core machine: at
# m >= n - 1 nothing is dropped, the row of 30 alternatives has 16,975 cells
# and the table up to it takes 2.9 s, and 31 alternatives (20,552 cells) are
# refused after 4.1 s; at m = 4 the row of 53 has 18,669 cells (4.0 s); at
# m = 3 the row of 87 has 19,893 (13.1 s), and 88 (20,567) are refused after
# 15.4 s
DEFAULT_FOREST_BUDGET = 20_000


class CensusBudgetError(RuntimeError):
    """The census needs more work than the configured budget allows.

    ``required`` is the labeled profile count of a brute census, its digit
    count when far over the budget, or the cells of the first hyperforest
    table row of a symmetric census that passes the budget.
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
    log10(S), with no S from 64 alternatives on (log10(S) is n_alts * log10(2)
    within 1e-17). Within 1e-6 of an integer, log10(S) = n_alts * log10(2) +
    log10(1 - (n_alts + 1) / 2^n_alts) is taken to 50 places, and only within
    1e-30 of an integer is the count built."""
    estimate = n_inds * (log10(evaluable_set_count(n_alts)) if n_alts < 64 else n_alts * log10(2))
    if abs(estimate - round(estimate)) > 1e-6 + estimate * 1e-15:
        return floor(estimate) + 1
    with localcontext() as context:  # Python 3.10 takes no settings as arguments
        context.prec = 50 + len(str(n_alts * n_inds))
        two = Decimal(2)
        estimate = n_inds * (n_alts * two.log10() + (1 - (n_alts + 1) * two**-n_alts).log10())
    near = round(estimate)
    if abs(estimate - near) > Decimal("1e-30"):
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


def _partitions(total: int, largest: int, count: int):
    """Each multiset of at most ``count`` positive parts summing to
    ``total``, none above ``largest``, as a descending tuple."""
    if total == 0:
        yield ()
    elif count:
        # the first part is the largest, so at least the mean of ``count`` parts
        for part in range(min(total, largest), -(-total // count) - 1, -1):
            for rest in _partitions(total - part, part, count - 1):
                yield (part,) + rest


def _hypertrees(size: int, most: int) -> Counter[tuple[int, int]]:
    """Labeled connected hypertrees on ``size`` nodes with at most ``most``
    edges of at least 2 members, by (edges, down-set): one closed form per
    multiset of edge sizes, each part of the partition being an edge size
    less one."""
    row: Counter[tuple[int, int]] = Counter()
    for parts in _partitions(size - 1, size - 1, most):
        denominator = prod(map(factorial, parts)) * prod(map(factorial, Counter(parts).values()))
        down = sum(2 ** (p + 1) - p - 2 for p in parts)
        row[len(parts), down] += size ** len(parts) * factorial(size - 1) // (size * denominator)
    return row


def _hyperforests(n_alts: int, most: int, budget: int) -> Counter[tuple[int, int]]:
    """Labeled hyperforests on ``n_alts`` nodes with at most ``most`` edges
    of at least 2 members, by (edges, down-set), one row per node count. The
    first row with more than ``budget`` cells raises CensusBudgetError."""
    trees: list[Counter[tuple[int, int]]] = [Counter()]
    forests = [Counter({(0, 0): 1})]
    for size in range(1, n_alts + 1):
        trees.append(_hypertrees(size, most))
        row: Counter[tuple[int, int]] = Counter()
        for s in range(1, size + 1):
            ways = comb(size - 1, s - 1)
            for (k, down), count in trees[s].items():
                for (rest_k, rest_down), rest in forests[size - s].items():
                    if k + rest_k <= most:
                        row[k + rest_k, down + rest_down] += ways * count * rest
        if len(row) > budget:
            raise CensusBudgetError(len(row), budget, f"hyperforest table row {size} has {len(row)} cells")
        forests.append(row)
    return forests[n_alts]


def census_symmetric(n_alts: int, n_inds: int, budget: int = DEFAULT_FOREST_BUDGET) -> CensusReport:
    """Count the verdicts from the hyperforest table (module docstring), with
    ``budget`` cells per table row; no profile is classified."""
    if n_inds < 3:
        raise ValueError("need at least 3 individuals")
    sets = evaluable_set_count(n_alts)
    forests = _hyperforests(n_alts, n_inds, budget)
    cover = sum(count * support_weight(k, down, n_inds) for (k, down), count in forests.items())
    total = sets**n_inds
    dp = total - (sets - 1) ** n_inds
    return CensusReport(n_alts, n_inds, total, total - cover, dp, cover - dp, "symmetric")


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
