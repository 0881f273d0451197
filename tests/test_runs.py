"""Site constraints stored as runs: a value range costs its runs, not its
width, from the parser to the rendered event.

Each constraint keeps its values as sorted, disjoint half-open runs.  These
tests pin what that storage promises: the order of rectangle keys (and so of
every rendered union) is that of the sorted value tuples, a wide range
allocates nothing of its width, the block renderer writes what a plain join
writes, decoded pieces share the inputs' own constraints, and a constraint
over a huge alphabet is valued without building it.
"""

import dataclasses
import os
import tracemalloc
from fractions import Fraction

import pytest

from treemeasure import (
    Context,
    EventAtom,
    CylinderSet,
    SpinSet,
    TreeGeometry,
    compile_event,
    constraint_in,
    constraint_not_in,
    from_constraints,
    load_spec,
    lower_event,
    make_rectangle,
    parse_event,
    render_event,
    render_value,
)
from treemeasure import cylinder
from treemeasure.cylinder import (
    IN,
    NOT_IN,
    SiteConstraint,
    c_complement,
    c_normalize,
    c_runs,
    render_atom,
)
from treemeasure.errors import SpinRangeError

F = Fraction
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("mode", [IN, NOT_IN])
def test_key_order_is_the_order_of_sorted_value_tuples(mode):
    subsets = [tuple(q for q in range(8) if m >> q & 1) for m in range(256)]
    keys = {v: SiteConstraint(mode, v).key() for v in subsets}
    assert len(set(keys.values())) == 256
    assert sorted(subsets, key=keys.get) == sorted(subsets)


def test_runs_are_built_from_any_iterable():
    assert constraint_in(range(3, 9)).runs == ((3, 9),)
    assert constraint_in(range(5, 5)).runs == ()
    assert constraint_in(range(0, 10, 3)).runs == ((0, 1), (3, 4), (6, 7), (9, 10))
    assert constraint_in([7, 1, 2, 2, 8, 3]).runs == ((1, 4), (7, 9))
    assert constraint_not_in(frozenset({4, 5})) == constraint_not_in(range(4, 6))
    assert constraint_in([7, 1, 2, 8, 3]).values == frozenset({1, 2, 3, 7, 8})


def test_a_wide_range_allocates_nothing_of_its_width():
    nat = Context(TreeGeometry(2), SpinSet.naturals())
    huge = SpinSet.finite(10**10)
    tracemalloc.start()
    try:
        c = constraint_in(range(10**6))
        runs = c_runs(c, nat.spins)
        flipped = c_complement(c_normalize(c, nat.spins), nat.spins)
        clipped = c_normalize(c, huge)
        outside = c_complement(clipped, huge)
        rest = from_constraints(nat, {0: c}).subtract(
            from_constraints(nat, {0: constraint_in(range(10, 20))}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert runs == [(0, 10**6)]
    assert flipped == constraint_not_in(range(10**6))
    assert clipped is c
    assert outside.runs == ((10**6, 10**10),)
    assert rest.rectangles[0].constraint_at(0).runs == ((0, 10), (20, 10**6))


@pytest.mark.parametrize("lo, hi", [(0, 999), (999, 1001), (1000, 1999), (5, 123457)])
def test_block_render_writes_the_plain_join(lo, hi):
    values = range(lo, hi + 1)
    assert render_atom(3, NOT_IN, ((lo, hi + 1),)) == (
        "x3 notin {" + ",".join(map(str, values)) + "}")
    runs = ((0, 2), (lo + 2, hi + 1), (hi + 5, hi + 6))
    plain = [q for a, b in runs for q in range(a, b)]
    assert render_atom(0, IN, runs) == "x0 in {" + ",".join(map(str, plain)) + "}"


def test_a_hand_built_atom_renders_its_values_as_listed():
    assert render_event(EventAtom(0, "in", (2, -1, 1500, 0))) == "x0 in {2,-1,1500,0}"
    assert render_event(EventAtom(4, "notin", (-3,))) == "x4 notin {-3}"


def test_a_parsed_atom_lists_its_set_sorted_and_merged():
    atom = parse_event("x0 notin {7..9, 1, 3..8, 2}")
    assert atom == EventAtom(0, "notin", (1, 2, 3, 4, 5, 6, 7, 8, 9))
    assert render_event(atom) == "x0 notin {1,2,3,4,5,6,7,8,9}"


def test_a_replaced_atom_is_read_from_its_values():
    # the parsed constraint is no argument of the atom's constructor, so
    # `replace` drops it: the new values are what lowers and renders
    atom = dataclasses.replace(parse_event("x0 in {1..5}"), values=(9,))
    assert atom == EventAtom(0, "in", (9,))
    assert render_event(atom) == "x0=9"
    nat = Context(TreeGeometry(2), SpinSet.naturals())
    assert lower_event(nat, atom).render() == "x0=9"
    with pytest.raises(SpinRangeError, match="spin 9 out of range"):
        lower_event(Context(TreeGeometry(2), SpinSet.finite(6)), atom)
    with pytest.raises(TypeError):
        EventAtom(0, "in", (9,), None)


def test_block_render_falls_back_past_the_digit_limit():
    big = 10**5000
    wide = render_atom(2, IN, ((7, 9), (big, big + 40)))
    assert wide == "x2 in {7,8," + ",".join(render_value(q) for q in range(big, big + 40)) + "}"
    assert render_atom(2, IN, ((big, big + 1),)) == f"x2={render_value(big)}"


def test_decoded_pieces_share_the_inputs_constraints():
    ctx = Context(TreeGeometry(2), SpinSet.naturals())
    keep = constraint_not_in(range(300, 900))
    a = from_constraints(ctx, {0: constraint_in([1, 2]), 1: keep})
    rest = a.subtract(from_constraints(ctx, {0: constraint_in([2])}))
    (piece,) = rest.rectangles
    assert piece.constraint_at(0) == constraint_in([1])
    assert piece.constraint_at(1) is a.rectangles[0].constraint_at(1)
    # x1 in {5,500} outside a: where x0 leaves {1,2}, then on x0's {1,2}
    # where x1 leaves a's constraint there, which keeps a's own x0 object
    other = from_constraints(ctx, {1: constraint_in([5, 500])})
    pieces = a.union(other).disjoint_rectangles()
    assert [p.render() for p in pieces[1:]] == [
        "x0 in {1,2} & x1=500", "x0 notin {1,2} & x1 in {5,500}"]
    assert pieces[1].constraint_at(0) is a.rectangles[0].constraint_at(0)


def test_masks_and_text_pack_alike(monkeypatch):
    # a constraint of few runs is packed by one mask per run, one of more
    # through the text of its letters: every rectangle packs to one int
    ctx = Context(TreeGeometry(2), SpinSet.naturals())
    rects = [make_rectangle(ctx, mapping) for mapping in (
        {0: constraint_in(range(0, 300, 3)), 1: constraint_not_in([5, 6, 9])},
        {0: constraint_in([1, 2, *range(150, 171)]), 2: constraint_in([0])},
        {1: constraint_not_in(range(0, 200, 2)), 2: constraint_not_in(range(4, 9))},
    )]
    packed = {}
    for few in (0, 10**9):
        monkeypatch.setattr(cylinder, "_FEW_RUNS", few)
        pack = cylinder._Packing(rects, ctx.spins)
        packed[few] = pack.ints
        assert [pack.decode(x) for x in pack.ints] == rects
    assert packed[0] == packed[10**9]


def test_a_complement_over_a_huge_alphabet_is_valued():
    # the sparse table over 10**10 spins: x0 notin {1} and the complement
    # of x0=1 allow every spin but 1, and weigh what x0=0 weighs
    with open(os.path.join(DATA, "table_partial_k2.spec")) as f:
        built = load_spec(f.read().replace("size = 2\n", "size = 10000000000\n"))
    mu = built.family.measure(1)
    one = compile_event(built.ctx, "x0=1")
    values = [mu.measure_of(compile_event(built.ctx, text))
              for text in ("x0=0", "x0 notin {1}", "!(x0=1)")]
    assert values + [mu.measure_of(one.complement())] == [F(2, 3)] * 4
    union = CylinderSet.build(built.ctx, [make_rectangle(built.ctx, {0: constraint_not_in([1])}),
                                          make_rectangle(built.ctx, {1: constraint_in([1])})])
    assert mu.measure_of(union) == 1
