import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from rankagg.relations import (
    CyclicRelationError,
    StrictDigraph,
    WeakOrder,
    bits,
    enumerate_weak_orders,
    is_acyclic,
    linear_extension,
    mask_of,
    ordered_bell,
    strict_part,
    weak_orders_on,
)

from helpers import (
    all_linear_extensions,
    as_sequence,
    extends,
    indifferent_pairs,
    ordered_bell_recurrence,
    pairs_antisymmetric,
    pairs_asymmetric,
    pairs_complete,
    pairs_reflexive,
    pairs_transitive,
    reference_is_acyclic,
    reference_linear_extension,
    relation_pairs,
    restrict,
    to_lists,
    weak_order_pairs,
)

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "rankagg"


def linear(*seq):
    return WeakOrder.from_ranking(seq)


def tiers(*groups):
    return WeakOrder.from_tiers(groups)


# -- weak order basics -------------------------------------------------------


def test_weak_order_rejects_overlapping_tiers():
    with pytest.raises(ValueError):
        WeakOrder((0b011, 0b110))


def test_weak_order_rejects_empty_tier():
    with pytest.raises(ValueError):
        WeakOrder((0b01, 0))


def test_linear_detection():
    assert linear(0, 1, 2).is_linear
    assert not tiers([0, 1], [2]).is_linear


# -- strict part -------------------------------------------------------------


def test_strict_part_of_linear_order():
    got = strict_part(linear(0, 1, 2))
    assert got.arcs == {(0, 1), (0, 2), (1, 2)}


def test_strict_part_with_tied_top():
    got = strict_part(tiers([0, 1], [2]))
    assert got.arcs == {(0, 2), (1, 2)}


def test_strict_part_of_total_indifference():
    assert strict_part(tiers([0, 1, 2])).arcs == frozenset()


def test_symmetric_part_complements_strict_part():
    order = tiers([0, 3], [1], [2, 4])
    strict = strict_part(order).arcs
    ties = indifferent_pairs(order)
    members = sorted(bits(order.ground))
    for a, b in itertools.combinations(members, 2):
        in_strict = (a, b) in strict or (b, a) in strict
        assert in_strict != ((a, b) in ties)


# -- restriction -------------------------------------------------------------


def test_restrict_drops_middle_element():
    got = restrict(linear(0, 1, 2), mask_of([0, 2]))
    assert got == linear(0, 2)


def test_restrict_rotation_order():
    # rotation pivoted at the first of three cycle nodes: a1, a3, a2
    rotation = linear(0, 2, 1)
    got = restrict(rotation, mask_of([1, 2]))
    assert got == linear(2, 1)


def test_restrict_to_ground_is_identity():
    order = tiers([0, 1], [2])
    assert restrict(order, order.ground) == order


def test_restrict_outside_ground_rejected():
    with pytest.raises(ValueError):
        restrict(linear(0, 1), mask_of([0, 2]))


def test_restrict_to_empty_set():
    assert restrict(linear(0, 1, 2), 0) == WeakOrder(())


# -- acyclicity --------------------------------------------------------------


def test_chain_is_acyclic():
    ok, witness = is_acyclic(StrictDigraph.from_arcs(0b111, {(0, 1), (1, 2)}))
    assert ok and witness is None


def test_triangle_cycle_witnessed():
    d = StrictDigraph.from_arcs(0b111, {(0, 1), (1, 2), (2, 0)})
    ok, witness = is_acyclic(d)
    assert not ok
    length = len(witness)
    for i, a in enumerate(witness):
        assert (a, witness[(i + 1) % length]) in d.arcs


def test_asymmetry_enforced_at_construction():
    with pytest.raises(ValueError, match=r"^asymmetry violated on \((0, 1|1, 0)\)$"):
        StrictDigraph.from_arcs(0b11, {(0, 1), (1, 0)})
    # the packed form of the same two arcs
    with pytest.raises(ValueError, match="asymmetry violated"):
        StrictDigraph(0b11, 0b0110)


def test_self_loop_refused_at_construction():
    with pytest.raises(ValueError, match=r"^self-loop on 2$"):
        StrictDigraph.from_arcs(0b111, {(0, 1), (2, 2)})
    with pytest.raises(ValueError, match=r"^self-loop on 1$"):
        StrictDigraph(0b111, 1 << (1 * 3 + 1))


def test_arc_off_the_ground_set_refused():
    # node 1 is below the ground's top node but not in the ground
    with pytest.raises(ValueError, match=r"^arc \(0, 1\) leaves the ground set$"):
        StrictDigraph.from_arcs(0b101, {(0, 1)})
    with pytest.raises(ValueError, match=r"^arc \(2, 1\) leaves the ground set$"):
        StrictDigraph(0b101, 1 << (1 * 3 + 2))
    # a bit past the n*n square of the packed layout
    with pytest.raises(ValueError, match="leaves the ground set"):
        StrictDigraph(0b111, 1 << 9)


@pytest.mark.parametrize("arc", [(0, 3), (3, 0), (-1, 1), (1, 5)])
def test_from_arcs_refuses_an_index_past_the_ground(arc):
    # packed as is, (0, 3) on 3 nodes would set bit 9 and (3, 0) bit 3, which
    # is the arc (0, 1): the index is refused before any bit is set
    with pytest.raises(ValueError, match=rf"^arc \({arc[0]}, {arc[1]}\) leaves the ground set$"):
        StrictDigraph.from_arcs(0b111, {arc})


def test_worked_example_constraint_is_acyclic():
    arcs = {
        (1, 3), (1, 0), (1, 2), (3, 0), (3, 2),
        (0, 2), (4, 5), (4, 3), (5, 3), (6, 5),
    }
    ok, _ = is_acyclic(StrictDigraph.from_arcs(0b1111111, arcs))
    assert ok


def _asymmetric_arc_sets(ground):
    """The arc set of every asymmetric digraph on ``ground``: each pair
    carries no arc or one of its two arcs."""
    options = [(None, (a, b), (b, a)) for a, b in itertools.combinations(bits(ground), 2)]
    for choice in itertools.product(*options):
        yield frozenset(arc for arc in choice if arc)


SMALL_GROUNDS = (0b111, 0b1111, 0b10110, 0b11111, 0b101101)


def test_cycle_witness_matches_reference_on_every_small_digraph():
    # full grounds of 3, 4 and 5 nodes and two sparse ones: 60,561 digraphs
    seen = 0
    for ground in SMALL_GROUNDS:
        n = ground.bit_length()
        for arcs in _asymmetric_arc_sets(ground):
            seen += 1
            digraph = StrictDigraph.from_arcs(ground, arcs)
            # the packed value round-trips, and "below" holds the reversed arcs
            assert digraph.arcs == arcs
            assert {(i // n, i % n) for i in bits(digraph.below)} == arcs
            assert is_acyclic(digraph) == reference_is_acyclic(digraph), digraph
    assert seen == 27 + 729 + 27 + 3**10 + 729


def test_extension_refuses_exactly_the_cyclic_small_digraphs():
    # the grounds of at most 4 nodes: 1,512 digraphs
    for ground in (0b111, 0b1111, 0b10110, 0b101101):
        tiebreak = WeakOrder.from_ranking(bits(ground))
        for arcs in _asymmetric_arc_sets(ground):
            digraph = StrictDigraph.from_arcs(ground, arcs)
            acyclic, cycle = reference_is_acyclic(digraph)
            try:
                order = linear_extension(digraph, tiebreak)
            except CyclicRelationError as err:
                assert not acyclic and err.cycle == cycle, digraph
            else:
                assert acyclic and order == reference_linear_extension(digraph, tiebreak), digraph


def _frozenset_calls(node, scope=""):
    """The dotted scope of every ``frozenset(...)`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "frozenset":
            yield inner
        yield from _frozenset_calls(child, inner)


def test_frozensets_of_arcs_are_built_only_by_strict_digraph_arcs():
    # the library computes on packed masks; a frozenset is built only when
    # someone reads StrictDigraph.arcs (annotations are not calls)
    calls = [
        (path.name, scope)
        for path in sorted(LIBRARY.glob("*.py"))
        for scope in _frozenset_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert calls == [("relations.py", "StrictDigraph.arcs")]


# -- linear extension --------------------------------------------------------


def test_extension_of_empty_constraints_is_tiebreak():
    d = StrictDigraph.from_arcs(0b111, ())
    assert linear_extension(d, linear(0, 1, 2)) == linear(0, 1, 2)
    assert linear_extension(d, linear(2, 0, 1)) == linear(2, 0, 1)


def test_extension_of_chain_ignores_tiebreak():
    d = StrictDigraph.from_arcs(0b111, {(0, 1), (1, 2)})
    assert linear_extension(d, linear(2, 1, 0)) == linear(0, 1, 2)


def test_extension_on_cycle_raises():
    d = StrictDigraph.from_arcs(0b111, {(0, 1), (1, 2), (2, 0)})
    with pytest.raises(CyclicRelationError):
        linear_extension(d, linear(0, 1, 2))


def test_worked_example_extension_contains_all_arcs():
    arcs = frozenset({
        (1, 3), (1, 0), (1, 2), (3, 0), (3, 2),
        (0, 2), (4, 5), (4, 3), (5, 3), (6, 5),
    })
    d = StrictDigraph.from_arcs(0b1111111, arcs)
    out = linear_extension(d, WeakOrder.from_ranking(range(7)))
    assert extends(out, d)
    # a hand-picked alternative sequence is itself a valid extension
    assert extends(WeakOrder.from_ranking([1, 4, 6, 5, 3, 0, 2]), d)


def test_extension_matches_brute_force_membership():
    arcs = {(0, 2), (3, 1)}
    d = StrictDigraph.from_arcs(0b1111, arcs)
    out = linear_extension(d, linear(0, 1, 2, 3))
    valid = all_linear_extensions([0, 1, 2, 3], arcs)
    assert as_sequence(out) in valid


# -- enumeration -------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 13), (4, 75), (5, 541)])
def test_weak_order_counts(n, expected):
    mask = (1 << n) - 1
    orders = list(enumerate_weak_orders(mask))
    assert len(orders) == expected
    assert len(set(orders)) == expected
    assert ordered_bell(n) == expected
    assert ordered_bell_recurrence(n) == expected


def test_enumerated_orders_are_weak_orders():
    for order in enumerate_weak_orders(0b1111):
        pairs = relation_pairs(order)
        members = sorted(bits(order.ground))
        assert pairs_reflexive(pairs, members)
        assert pairs_complete(pairs, members)
        assert pairs_transitive(pairs)
        assert pairs == weak_order_pairs(to_lists(order))


def test_enumeration_is_deterministic():
    first = list(enumerate_weak_orders(0b111))
    second = list(enumerate_weak_orders(0b111))
    assert first == second
    assert weak_orders_on(0b111) == tuple(first)


def test_enumeration_rejects_empty_ground():
    with pytest.raises(ValueError):
        next(enumerate_weak_orders(0))


# -- property tests ----------------------------------------------------------


@st.composite
def weak_orders(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    perm = draw(st.permutations(list(range(n))))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1)) if n > 1 else st.just(set()))
    bounds = [0] + sorted(cuts) + [n]
    groups = [perm[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]
    return WeakOrder.from_tiers(groups)


@st.composite
def acyclic_digraphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    perm = draw(st.permutations(list(range(n))))
    chosen = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                chosen.append((perm[i], perm[j]))
    return StrictDigraph.from_arcs((1 << n) - 1, chosen)


@given(weak_orders())
def test_strict_part_is_asymmetric_and_transitive(order):
    arcs = strict_part(order).arcs
    assert pairs_asymmetric(arcs)
    assert pairs_transitive(arcs)


@given(acyclic_digraphs())
def test_extension_properties(digraph):
    tiebreak = WeakOrder.from_ranking(sorted(bits(digraph.ground)))
    out = linear_extension(digraph, tiebreak)
    assert extends(out, digraph)
    pairs = relation_pairs(out)
    members = sorted(bits(out.ground))
    assert pairs_reflexive(pairs, members)
    assert pairs_complete(pairs, members)
    assert pairs_transitive(pairs)
    assert pairs_antisymmetric(pairs)
    # idempotent: extending an already-linear constraint reproduces it
    assert linear_extension(strict_part(out), tiebreak) == out


@given(acyclic_digraphs())
def test_constructed_acyclic_digraphs_verify(digraph):
    ok, _ = is_acyclic(digraph)
    assert ok


@st.composite
def sparse_acyclic_digraphs(draw):
    """An acyclic digraph on any nonempty ground set of ids below 7, with a
    linear tiebreak on that ground set."""
    ground = draw(st.integers(min_value=1, max_value=0b1111111))
    nodes = list(bits(ground))
    perm = draw(st.permutations(nodes))
    chosen = []
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if draw(st.booleans()):
                chosen.append((perm[i], perm[j]))
    tiebreak = WeakOrder.from_ranking(draw(st.permutations(nodes)))
    return StrictDigraph.from_arcs(ground, chosen), tiebreak


@given(sparse_acyclic_digraphs())
@example((StrictDigraph.from_arcs(0b10110, {(4, 1)}), linear(1, 2, 4)))
@example((StrictDigraph.from_arcs(0b10110, ()), linear(4, 2, 1)))
def test_extension_matches_kahn_reference(case):
    digraph, tiebreak = case
    assert linear_extension(digraph, tiebreak) == reference_linear_extension(digraph, tiebreak)
