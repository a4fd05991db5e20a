"""Exhaustive axiom verification of aggregation rules.

A rule under test is a callable from a RankingProfile to the strict part of
its output relation: a StrictDigraph on all alternatives, whose packed masks
the verifier reads directly (another ground is refused). The output reads as
a complete reflexive relation, a weakly above b exactly when the arc (b, a)
is absent. Over the product of all weak orders per individual it checks:

* tv   - every output relation is transitive;
* pc   - pairs ranked strictly and unanimously by all common evaluators are
         reproduced strictly in the output;
* wpc  - such pairs are at least weakly reproduced;
* iia  - the output restriction to a pair depends only on the common
         evaluators' restrictions to that pair;
* nc   - no commonly evaluated pair has a constant outcome across the space;
* nd   - no complete individual is a quasi-dictator (an individual whose
         strict preferences are always reproduced).

Pairs that nobody evaluates in common are exempt from pc, wpc, iia and nc:
quantifying over them literally would force contradictory or vacuously
constant outcomes, so the checks range over commonly evaluated pairs only.
This scope choice changes verdicts and is deliberate.

Checks refuse to start when the ranking space exceeds the budget. Every
failure payload replays: feeding it back through ``replay`` reproduces the
violation from the axiom definition alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .aggregators import (
    check_tiebreak,
    delegated_pairs,
    delegation_row,
    maximal_cycle_family,
    packed_unanimity,
    pair_delegates,
    unanimity_row,
)
from .profiles import (
    EvaluabilityProfile,
    ProfileError,
    complete_individuals,
)
from .relations import (
    MaskRelation,
    RankingProfile,
    StrictDigraph,
    WeakOrder,
    bits,
    extension_mask_relation,
    mask_relation,
    ordered_bell,
    pack,
    strict_part,
    strictly_above,
    weak_orders_on,
)
# unused here; bench/tracing.py BINDINGS rebinds these names by getattr
from .aggregators import aggregate_delegation, aggregate_unanimity  # noqa: F401

Arf = Callable[[RankingProfile], StrictDigraph]

AXIOM_IDS = ("tv", "pc", "wpc", "iia", "nc", "nd")
DEFAULT_BUDGET = 10_000_000
# entries a sweep memo may hold before it is emptied (see "The sweep")
_MEMO_LIMIT = 1 << 16


class BudgetExceededError(RuntimeError):
    """The ranking space is larger than the configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"ranking space has {required} profiles, budget allows {budget}"
        )


@dataclass(frozen=True)
class Counterexample:
    """Replayable evidence of an axiom violation."""

    axiom: str
    rankings: RankingProfile | None = None
    rankings_alt: RankingProfile | None = None  # second profile, iia only
    pair: tuple[int, int] | None = None
    triple: tuple[int, int, int] | None = None  # tv violation (a, b, c)
    outcome: int | None = None  # nc: the constant pair outcome (+1, -1, 0)
    individual: int | None = None  # nd: the complete quasi-dictator


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    passed: bool
    counterexample: Counterexample | None


@dataclass(frozen=True)
class PropertyReport:
    axioms: tuple[AxiomVerdict, ...]
    quasi_dictators: tuple[int, ...] | None
    profile_space_size: int

    def verdict(self, axiom: str) -> AxiomVerdict:
        for v in self.axioms:
            if v.axiom == axiom:
                return v
        raise KeyError(axiom)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.axioms)


def ranking_space_size(profile: EvaluabilityProfile) -> int:
    size = 1
    for m in profile.evaluable:
        size *= ordered_bell(m.bit_count())
    return size


def check_space_budget(profile: EvaluabilityProfile, budget: int) -> int:
    """The ranking space size, refused when it exceeds ``budget``."""
    size = ranking_space_size(profile)
    if size > budget:
        raise BudgetExceededError(size, budget)
    return size


def enumerate_rankings(profile: EvaluabilityProfile) -> Iterator[RankingProfile]:
    """Every ranking profile in deterministic product order."""
    per_individual = [weak_orders_on(m) for m in profile.evaluable]
    for combo in itertools.product(*per_individual):
        yield RankingProfile(combo)


def _outcome(arcs: frozenset[tuple[int, int]], a: int, b: int) -> int:
    return ((a, b) in arcs) - ((b, a) in arcs)


# ---------------------------------------------------------------------------
# The sweep. Once the budget check has passed, every individual gets one row
# per weak order of weak_orders_on their evaluable set: the verifier's own
# rows (aggregators.unanimity_row among them) and the rule's row. Nested
# loops over individuals, in the product order of enumerate_rankings, carry
# the AND of the unanimity rows, the sum of the code rows and the OR of the
# dominance rows, so each ranking profile costs one combine with the last
# individual's row. A rule decides its output from the carried values and
# the verifier checks every axiom on the output's mask relation
# (relations.MaskRelation). Packed masks put node b's row at bit b*n, so bit
# b*n + a of a packed relation reads "a above b".
#
# Each check runs once per value it depends on. tv and nc depend only on the
# output, so they run once per distinct packed output. nd runs its
# per-individual loop only when the carried OR of everyone's strict
# preferences is not inside the output. iia splits the common pairs by how
# the last individual L, the one the innermost loop runs over, evaluates
# them:
# * a pair L does not evaluate has one signature per prefix, so the AND and
#   OR of the outputs over the innermost loop decide it once per prefix;
# * a pair only L evaluates has L's vote as its signature, so it is checked
#   per profile in the first prefix only, and every later profile is one XOR
#   against that prefix's output for the same order of L;
# * a pair L shares with an earlier individual is checked per profile.
# Any conflict is real, and then the exact per-profile loop reruns from the
# first profile to its first violation, which keeps the reported profiles
# and pair those of the plain check.
#
# Two memos skip work that depends only on a value already seen: fstarstar
# extends each distinct delegation constraint once, and the sweep keeps the
# distinct outputs seen. On the golden 7-alternative profile the 2,925
# ranking profiles give 288 distinct constraints. Each memo is emptied when
# it holds _MEMO_LIMIT entries, so memory stays flat on spaces whose outputs
# approach n!.
# ---------------------------------------------------------------------------

Row = Callable[[int, WeakOrder], int]
Decide = Callable[[int, int, list[int]], MaskRelation]


@dataclass(frozen=True)
class _Kernel:
    """A rule defined for one profile.

    ``row(v, order)`` (or None) packs individual v's weak order into an int;
    the rows of a ranking profile are summed into the rule's value.
    ``decide(unanimity, value, indices)`` returns the output for the ranking
    profile that picks weak order ``indices[v]`` for individual v, where
    ``unanimity`` is the packed unanimity relation and ``value`` the sum of
    the rows.
    """

    profile: EvaluabilityProfile
    row: Row | None
    decide: Decide


def _closure_kernel(arf: Arf, profile: EvaluabilityProfile) -> _Kernel:
    """Run any rule callable: build the ranking profile, read its masks."""
    orders = [weak_orders_on(m) for m in profile.evaluable]

    def decide(unanimity: int, value: int, indices: list[int]) -> MaskRelation:
        output = arf(RankingProfile(tuple(map(tuple.__getitem__, orders, indices))))
        if output.ground != profile.full_mask:
            raise ValueError("a rule must return a digraph on all alternatives")
        return output.above, output.below

    return _Kernel(profile, None, decide)


def _prefixes(rows, unanimity: int, code: int, dominance: int, indices: list[int], level: int = 0):
    """Every index prefix over ``rows`` in product order, with the carried
    AND of the unanimity rows, sum of the code rows and OR of the dominance
    rows; ``indices`` is updated in place."""
    if level == len(rows):
        yield unanimity, code, dominance
        return
    for i, (u, c, d) in enumerate(rows[level]):
        indices[level] = i
        yield from _prefixes(rows, unanimity & u, code + c, dominance | d, indices, level + 1)


def _first_tv_triple(above: list[int]) -> tuple[int, int, int] | None:
    """The first (x, y, z), in lexicographic order, with x weakly above y,
    y weakly above z and z strictly above x; None when the output's weak
    relation is transitive."""
    # Transitive outputs are strict weak orders: exactly the nodes with fewer
    # nodes above them lie above each node. Check that in count order first.
    lower = group = 0
    level = -1
    for count, x in sorted(zip(map(int.bit_count, above), range(len(above)))):
        if count != level:
            lower |= group
            group = 0
            level = count
        if above[x] != lower:
            break
        group |= 1 << x
    else:
        return None
    for x, ax in enumerate(above):
        if ax:
            for y, ay in enumerate(above):
                missing = ax & ~ay
                if missing and not ax >> y & 1:
                    return x, y, (missing & -missing).bit_length() - 1
    return None


def _first_pair(pairs, keys, violations: int) -> tuple[int, int]:
    """The first common pair with either direction set in ``violations``."""
    for (a, b, _), (ab, ba) in zip(pairs, keys):
        if (violations >> ab | violations >> ba) & 1:
            return a, b
    raise AssertionError("no pair carries the violation")


def _vote(above: list[int], a: int, b: int) -> int:
    """2, 1 or 0 as the order with ``strictly_above`` masks ``above`` puts a
    above b, ties them, or puts b above a."""
    return 2 if above[b] >> a & 1 else (0 if above[a] >> b & 1 else 1)


def _verifier_rows(profile, pairs, fields, kernel: _Kernel):
    """Per individual and weak order: the unanimity row, the code row (iia
    signature digits in ``fields``, then the rule's row above them) and the
    dominance row (the individual's strict preferences), as one triple."""
    n = profile.n_alts
    width = fields[-1][0] + fields[-1][1].bit_length() if fields else 0
    rows = []
    for v, mask in enumerate(profile.evaluable):
        digits = [
            (a, b, 3 ** evaluators.index(v), offset)
            for (a, b, evaluators), (offset, _) in zip(pairs, fields)
            if v in evaluators
        ]
        per_order = []
        for order in weak_orders_on(mask):
            above = strictly_above(order, n)
            code = 0
            for a, b, weight, offset in digits:
                code += _vote(above, a, b) * weight << offset
            if kernel.row is not None:
                code += kernel.row(v, order) << width
            per_order.append((unanimity_row(order, mask, n), code, pack(above, n)))
        rows.append(per_order)
    return rows, width


def _nc_counterexample(pairs, keys, seen_above, seen_below, seen_tie) -> Counterexample | None:
    """The first common pair that showed a single outcome."""
    for (a, b, _), (ab, _) in zip(pairs, keys):
        seen = [
            outcome
            for outcome, mask in ((1, seen_above), (-1, seen_below), (0, seen_tie))
            if mask >> ab & 1
        ]
        if len(seen) == 1:
            return Counterexample("nc", pair=(a, b), outcome=seen[0])
    return None


def _first_iia_counterexample(rows, common: int, width: int, decide: Decide, tables, at):
    """The plain iia check, run from the first ranking profile to its first
    violation: per common pair, the first outcome and profile seen for each
    signature, until a profile with that signature gets another outcome."""
    indices = [0] * len(rows)
    first: list[dict] = [{} for _ in tables]
    for unanimity, code, _ in _prefixes(rows, common, 0, 0, indices):
        packed_above, packed_below = decide(unanimity, code >> width, indices)
        for (offset, field, ab, pair), seen_by_signature in zip(tables, first):
            signature = code >> offset & field
            out = (packed_above >> ab & 1) - (packed_below >> ab & 1)
            seen = seen_by_signature.get(signature)
            if seen is None:
                seen_by_signature[signature] = (out, tuple(indices))
            elif seen[0] != out:
                return Counterexample(
                    "iia", rankings=at(seen[1]), rankings_alt=at(indices), pair=pair
                )
    raise AssertionError("no ranking profile carries the iia conflict")


def _sweep(
    profile: EvaluabilityProfile, axioms: tuple[str, ...], kernel: _Kernel
) -> tuple[tuple[AxiomVerdict, ...], tuple[int, ...] | None]:
    n = profile.n_alts
    orders = [weak_orders_on(m) for m in profile.evaluable]
    pairs = profile.shared_pairs
    # bit positions of "a above b" and "b above a" for each common pair (a, b)
    keys = [(b * n + a, a * n + b) for a, b, _ in pairs]
    common = profile.common_pairs
    # iia: (offset, mask) of each pair's base-3 signature over its evaluators
    fields = []
    if "iia" in axioms:
        offset = 0
        for _, _, evaluators in pairs:
            size = (3 ** len(evaluators) - 1).bit_length()
            fields.append((offset, (1 << size) - 1))
            offset += size
    rows, width = _verifier_rows(profile, pairs, fields, kernel)

    def at(indices) -> RankingProfile:
        return RankingProfile(tuple(map(tuple.__getitem__, orders, indices)))

    want_tv = "tv" in axioms
    want_pc = "pc" in axioms
    want_wpc = "wpc" in axioms
    want_iia = "iia" in axioms
    want_nc = "nc" in axioms
    tv_ce = pc_ce = wpc_ce = iia_ce = None
    indices = [0] * profile.n_inds
    last = profile.n_inds - 1
    last_rows = rows[last]
    # iia per pair class (see "The sweep"): signature field, outcome bits and
    # the first outcome seen per signature
    fixed, shared, only = [], [], []
    fixed_bits = only_bits = 0
    for (offset, field), (_, _, evaluators), (ab, ba) in zip(fields, pairs, keys):
        entry = (offset, field, ab, ba, {})
        if last not in evaluators:
            fixed.append(entry)
            fixed_bits |= 1 << ab | 1 << ba
        elif len(evaluators) == 1:
            only.append(entry)
            only_bits |= 1 << ab | 1 << ba
        else:
            shared.append(entry)
    checked = shared + only
    iia_conflict = False
    first_outputs: list[int] = []  # the first prefix's output per order of L
    reference: list[int] | None = None
    seen_above = seen_below = seen_tie = 0
    alive = list(range(profile.n_inds)) if "nd" in axioms else []

    decide = kernel.decide
    outputs: set[int] = set()  # distinct packed outputs, for tv and nc
    track = want_tv or want_nc
    full = (1 << n) - 1
    for unanimity_prefix, code_prefix, dominance_prefix in _prefixes(
        rows[:last], common, 0, 0, indices
    ):
        low, high = -1, 0  # AND and OR of the outputs over L's orders
        for i, (u, c, d) in enumerate(last_rows):
            indices[last] = i
            unanimity = unanimity_prefix & u
            code = code_prefix + c
            packed_above, packed_below = decide(unanimity, code >> width, indices)
            if track and packed_above not in outputs:
                if len(outputs) >= _MEMO_LIMIT:
                    outputs.clear()
                outputs.add(packed_above)
                if want_tv:
                    triple = _first_tv_triple([packed_above >> x * n & full for x in range(n)])
                    if triple is not None:
                        tv_ce = Counterexample("tv", rankings=at(indices), triple=triple)
                        want_tv = False
                        track = want_nc
                if want_nc:
                    seen_above |= packed_above
                    seen_below |= packed_below
                    seen_tie |= ~(packed_above | packed_below)
            if want_pc and unanimity & ~packed_above:
                pair = _first_pair(pairs, keys, unanimity & ~packed_above)
                pc_ce = Counterexample("pc", rankings=at(indices), pair=pair)
                want_pc = False
            if want_wpc and unanimity & packed_below:
                pair = _first_pair(pairs, keys, unanimity & packed_below)
                wpc_ce = Counterexample("wpc", rankings=at(indices), pair=pair)
                want_wpc = False
            if want_iia:
                low &= packed_above
                high |= packed_above
                if reference is None:
                    first_outputs.append(packed_above)
                elif (packed_above ^ reference[i]) & only_bits:
                    iia_conflict = True
                for offset, field, ab, ba, first in checked:
                    out = (packed_above >> ab & 1) - (packed_above >> ba & 1)
                    if first.setdefault(code >> offset & field, out) != out:
                        iia_conflict = True
                        break
                want_iia = not iia_conflict
            if alive and (dominance_prefix | d) & ~packed_above:
                for v in alive:
                    if rows[v][indices[v]][2] & ~packed_above:
                        alive = [w for w in alive if w != v]
        if want_iia:
            if (low ^ high) & fixed_bits:
                iia_conflict = True
            else:
                for offset, field, ab, ba, first in fixed:
                    out = (low >> ab & 1) - (low >> ba & 1)
                    if first.setdefault(code_prefix >> offset & field, out) != out:
                        iia_conflict = True
                        break
            want_iia = not iia_conflict
        reference = first_outputs
        checked = shared
    if iia_conflict:
        tables = [
            (offset, field, ab, (a, b))
            for (offset, field), (a, b, _), (ab, _) in zip(fields, pairs, keys)
        ]
        iia_ce = _first_iia_counterexample(rows, common, width, decide, tables, at)

    verdicts = []
    quasi: tuple[int, ...] | None = None
    found = {"tv": tv_ce, "pc": pc_ce, "wpc": wpc_ce, "iia": iia_ce}
    for axiom in axioms:
        if axiom in found:
            ce = found[axiom]
        elif axiom == "nc":
            ce = _nc_counterexample(pairs, keys, seen_above, seen_below, seen_tie)
        else:
            quasi = tuple(alive)
            complete = complete_individuals(profile)
            dictator = next((v for v in quasi if v in complete), None)
            ce = None if dictator is None else Counterexample("nd", individual=dictator)
        verdicts.append(AxiomVerdict(axiom, ce is None, ce))
    return tuple(verdicts), quasi


def verify_rule(
    arf: Arf,
    profile: EvaluabilityProfile,
    axioms: Sequence[str] = AXIOM_IDS,
    budget: int = DEFAULT_BUDGET,
) -> PropertyReport:
    """Check the requested axioms over the full ranking space in one pass.

    A rule from ``make_rule`` for this profile runs as its kernel, whose rows
    are built over every weak order only once the space is within
    ``budget``, and its closure is never called; any other callable is
    called once per ranking profile.
    """
    for axiom in axioms:
        if axiom not in AXIOM_IDS:
            raise ValueError(f"unknown axiom {axiom!r}")
    size = check_space_budget(profile, budget)
    kernel = getattr(arf, "kernel", None)
    if kernel is None or kernel.profile != profile:
        kernel = _closure_kernel(arf, profile)
    verdicts, quasi = _sweep(profile, tuple(axioms), kernel)
    return PropertyReport(verdicts, quasi, size)


def replay(arf: Arf, profile: EvaluabilityProfile, ce: Counterexample) -> bool:
    """Re-validate a counterexample against the axiom definition."""
    if ce.axiom == "tv":
        assert ce.rankings is not None and ce.triple is not None
        arcs = arf(ce.rankings).arcs
        x, y, z = ce.triple
        return (y, x) not in arcs and (z, y) not in arcs and (z, x) in arcs
    if ce.axiom in ("pc", "wpc"):
        assert ce.rankings is not None and ce.pair is not None
        a, b = ce.pair
        evaluators = list(bits(profile.evaluator_masks[a] & profile.evaluator_masks[b]))
        if not evaluators:
            return False
        out = _outcome(arf(ce.rankings).arcs, a, b)
        all_a = all(ce.rankings.orders[v].prefers(a, b) for v in evaluators)
        all_b = all(ce.rankings.orders[v].prefers(b, a) for v in evaluators)
        if ce.axiom == "pc":
            return (all_a and out != 1) or (all_b and out != -1)
        return (all_a and out == -1) or (all_b and out == 1)
    if ce.axiom == "iia":
        assert ce.rankings is not None and ce.rankings_alt is not None and ce.pair is not None
        a, b = ce.pair
        evaluators = list(bits(profile.evaluator_masks[a] & profile.evaluator_masks[b]))
        same_inputs = all(
            _outcome(strict_part(ce.rankings.orders[v]).arcs, a, b)
            == _outcome(strict_part(ce.rankings_alt.orders[v]).arcs, a, b)
            for v in evaluators
        )
        return same_inputs and _outcome(arf(ce.rankings).arcs, a, b) != _outcome(
            arf(ce.rankings_alt).arcs, a, b
        )
    if ce.axiom == "nc":
        assert ce.pair is not None and ce.outcome is not None
        a, b = ce.pair
        return all(
            _outcome(arf(r).arcs, a, b) == ce.outcome
            for r in enumerate_rankings(profile)
        )
    if ce.axiom == "nd":
        assert ce.individual is not None
        v = ce.individual
        if profile.evaluable[v] != profile.full_mask:
            return False
        own = list(itertools.combinations(sorted(bits(profile.evaluable[v])), 2))
        for rankings in enumerate_rankings(profile):
            arcs = arf(rankings).arcs
            ranks = rankings.orders[v].ranks
            for a, b in own:
                if ranks[a] < ranks[b] and (a, b) not in arcs:
                    return False
                if ranks[b] < ranks[a] and (b, a) not in arcs:
                    return False
        return True
    raise ValueError(f"unknown axiom {ce.axiom!r}")


# ---------------------------------------------------------------------------
# Builtin rule zoo. "fstar" and "fstarstar" are the constructive rules; the
# rest exist to exercise failing verdicts.
# ---------------------------------------------------------------------------

RULE_IDS = ("fstar", "fstarstar", "constant", "majority", "dictatorship")


def check_rule_id(rule_id: str, profile: EvaluabilityProfile) -> tuple[str, int]:
    """The rule name and the dictatorship's chief (individual 0 unless
    ``dictatorship:ID`` names one); refuses an unknown rule or individual."""
    name, colon, argument = rule_id.partition(":")
    if name not in RULE_IDS or colon and name != "dictatorship":
        raise ValueError(f"unknown rule {rule_id!r}")  # only a dictatorship takes an argument
    if colon and argument not in profile.ind_index:
        raise ProfileError(f"unknown individual {argument!r}")
    return name, profile.ind_index[argument] if colon else 0


def make_rule(
    rule_id: str,
    profile: EvaluabilityProfile,
    tiebreak: WeakOrder | None = None,
) -> Arf:
    """Build a rule closure for a fixed profile.

    ``fstar`` extends the unanimity relation; ``fstarstar`` is the delegation
    rule (requires cycle cover); ``constant`` always returns the tiebreak
    order; ``majority`` takes pairwise majorities among common evaluators
    with ties as indifference; ``dictatorship[:ID]`` reproduces one
    individual's order with everyone else's alternatives tied at the bottom.

    Each rule is defined once, as a row per (individual, weak order) and a
    ``decide`` step (see ``_Kernel``), carried as the closure's ``kernel``
    attribute. ``fstar`` decides from the unanimity relation
    (``aggregators.unanimity_row``) and ``fstarstar`` from its
    ``aggregators.delegation_row``, both by the tiebreak-first
    ``extension_mask_relation`` that the aggregates use. Every closure is
    ``_summed_rule``: it sums the rows of the submitted orders and decides.
    ``verify_rule`` maps the rows over every weak order only after its
    budget check, so building a rule enumerates nothing.
    """
    name, chief = check_rule_id(rule_id, profile)
    tb = check_tiebreak(profile, tiebreak)
    n = profile.n_alts
    sequence = tuple(tier.bit_length() - 1 for tier in tb.tiers)
    indifferent: MaskRelation = (0, 0)
    row: Row | None = None
    if name == "fstar":

        def decide(unanimity: int, value: int, indices: list[int]) -> MaskRelation:
            return extension_mask_relation(unanimity, n, sequence) or indifferent

    elif name == "fstarstar":
        own = delegated_pairs(profile, pair_delegates(profile, maximal_cycle_family(profile)))

        def row(v: int, order: WeakOrder) -> int:
            return delegation_row(order, own[v], tb, n)

        extensions: dict[int, MaskRelation] = {}  # by delegation constraint

        def decide(unanimity: int, value: int, indices: list[int]) -> MaskRelation:
            output = extensions.get(value)
            if output is None:
                if len(extensions) >= _MEMO_LIMIT:
                    extensions.clear()
                output = extension_mask_relation(value, n, sequence) or indifferent
                extensions[value] = output
            return output

    elif name == "constant":
        fixed = mask_relation(tb, n)

        def decide(unanimity: int, value: int, indices: list[int]) -> MaskRelation:
            return fixed

    elif name == "majority":
        # per common pair a tally field wide enough for two votes per
        # evaluator; a sum above (below) the evaluator count means a (b) wins.
        # ab is the packed bit of "a above b" (a's bit in b's row), ba of
        # "b above a"; the "below" relation holds them the other way round
        fields = []
        ballots: list[list[tuple[int, int, int]]] = [[] for _ in profile.evaluable]
        offset = 0
        for a, b, evaluators in profile.shared_pairs:
            size = (2 * len(evaluators)).bit_length()
            ab, ba = 1 << b * n + a, 1 << a * n + b
            fields.append((offset, (1 << size) - 1, len(evaluators), ab, ba))
            for v in evaluators:
                ballots[v].append((a, b, offset))
            offset += size

        def row(v: int, order: WeakOrder) -> int:
            above = strictly_above(order, n)
            return sum(_vote(above, a, b) << offset for a, b, offset in ballots[v])

        def decide(unanimity: int, value: int, indices: list[int]) -> MaskRelation:
            above = below = 0
            for offset, field, voters, ab, ba in fields:
                tally = value >> offset & field
                if tally > voters:
                    above |= ab
                    below |= ba
                elif tally < voters:
                    above |= ba
                    below |= ab
            return above, below

    else:  # dictatorship
        rest = profile.full_mask & ~profile.evaluable[chief]
        square = n * n

        def row(v: int, order: WeakOrder) -> int:
            # the chief's packed output, "above" below "below"; 0 for others
            if v != chief:
                return 0
            above, below = mask_relation(WeakOrder(order.tiers + (rest,)) if rest else order, n)
            return above | below << square

        def decide(unanimity: int, value: int, indices: list[int]) -> MaskRelation:
            return value & (1 << square) - 1, value >> square

    rule = _summed_rule(profile, row, decide)
    rule.kernel = _Kernel(profile, row, decide)  # type: ignore[attr-defined]
    return rule


def _summed_rule(profile: EvaluabilityProfile, row: Row | None, decide: Decide) -> Arf:
    """The closure of a rule: decide from the packed unanimity relation and
    the sum of the rows of the submitted orders."""

    def rule(rankings: RankingProfile) -> StrictDigraph:
        unanimity = packed_unanimity(profile, rankings)
        value = 0 if row is None else sum(row(v, order) for v, order in enumerate(rankings.orders))
        return StrictDigraph(profile.full_mask, decide(unanimity, value, [])[0])

    return rule
