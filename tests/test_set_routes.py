"""The set algebra against the route it replaced.

`subtract`, `complement`, `subset_of`, `semantic_equal`, `is_omega`,
`disjoint_rectangles` and `first_overlap` run the subtraction cascade on
rectangles packed into ints (one bit field per constrained site).  The
cascade over frozenset constraints stays here as the oracle: the same
algorithm, so the same pieces in the same order, the same verdicts, and
`BudgetError` at the same budgets.
"""

import itertools
import random
import time

import pytest

from treemeasure import (
    BudgetError,
    Context,
    ContextMismatchError,
    CylinderSet,
    Rectangle,
    SpinSet,
    TreeGeometry,
    constraint_in,
    constraint_not_in,
    empty_set,
    from_constraints,
    make_rectangle,
    omega,
)
from treemeasure import cylinder
from treemeasure.cylinder import (
    IN,
    SiteConstraint,
    c_complement,
    c_intersect,
    c_is_empty,
    c_normalize,
    first_overlap,
)


def old_meets(a: Rectangle, b: Rectangle) -> bool:
    """Whether a and b meet: at each site both constrain, they share a spin."""
    at = b.as_dict()
    for site, c in a.items:
        d = at.get(site)
        if d is None:
            continue
        if c.mode == IN:
            if c.values.isdisjoint(d.values) if d.mode == IN else c.values <= d.values:
                return False
        elif d.mode == IN and d.values <= c.values:
            return False
    return True


def old_c_minus(a: SiteConstraint, b: SiteConstraint) -> SiteConstraint:
    """The spins a allows and b excludes, for normalized a and b."""
    if a.mode == IN:
        return SiteConstraint(IN, a.values - b.values if b.mode == IN else a.values & b.values)
    if b.mode == IN:
        return SiteConstraint(cylinder.NOT_IN, a.values | b.values)
    return SiteConstraint(IN, b.values - a.values)


def old_carve(p: Rectangle, d: Rectangle, spins: SpinSet) -> list[Rectangle]:
    """Disjoint rectangles covering p minus d, for rectangles that meet: at
    each site of d in turn, the piece that leaves d's constraint there and
    keeps d's constraints at the sites before it."""
    out: list[Rectangle] = []
    head = []  # the sites below the current one, d's constraints applied
    items, k = p.items, 0
    for site, dc in d.items:
        while k < len(items) and items[k][0] < site:
            head.append(items[k])
            k += 1
        if k < len(items) and items[k][0] == site:
            pc = items[k][1]
            k += 1
            rest = old_c_minus(pc, dc)
            dc = c_intersect(pc, dc)
        else:
            rest = c_complement(dc, spins)
        if not c_is_empty(rest):
            out.append(Rectangle((*head, (site, rest), *items[k:])))
        head.append((site, dc))
    return out


def old_survivors(rects, cuts, spins: SpinSet, budget: int, doing: str):
    """The pieces of `rects` outside every rectangle of `cuts`, pairwise
    disjoint.  The subtraction cascade runs depth first, so each piece is
    yielded as soon as it passes the last cut.  More than `budget` pieces
    past any one cut raise `BudgetError`: run to its end, the cascade raises
    exactly when one run cut by cut would."""
    n = len(cuts)
    passed = [0] * n
    waiting = [(r, 0) for r in reversed(rects)]
    while waiting:
        p, i = waiting.pop()
        while i < n and not old_meets(p, cuts[i]):
            passed[i] += 1
            if passed[i] > budget:
                raise BudgetError(f"rectangle budget exceeded {doing}")
            i += 1
        if i == n:
            yield p
            continue
        pieces = old_carve(p, cuts[i], spins)
        passed[i] += len(pieces)
        if passed[i] > budget:
            raise BudgetError(f"rectangle budget exceeded {doing}")
        waiting.extend((q, i + 1) for q in pieces)


# The operations as they stood on the frozenset cascade.

def old_subtract(a, b, budget):
    pieces = old_survivors(a.rectangles, b.rectangles, a.ctx.spins, budget, "during subtraction")
    return CylinderSet.build(a.ctx, list(pieces))


def old_subset_of(a, b, budget):
    pieces = old_survivors(a.rectangles, b.rectangles, a.ctx.spins, budget, "during subtraction")
    return next(pieces, None) is None


def old_disjoint_rectangles(a, budget):
    rects = a.rectangles
    if len(rects) <= 1:
        return rects
    sites0 = rects[0].sites()
    if all(r.sites() == sites0 and r.all_singletons() for r in rects):
        return rects
    out = []
    for i, r in enumerate(rects):
        for p in old_survivors((r,), rects[:i], a.ctx.spins, budget, "while disjoining"):
            out.append(p)
            if len(out) > budget:
                raise BudgetError("rectangle budget exceeded while disjoining")
    return tuple(out)


def old_first_overlap(parts):
    for a, b in itertools.combinations(range(len(parts)), 2):
        if parts[a].ctx != parts[b].ctx:
            raise ContextMismatchError("operands live over different contexts")
        if any(old_meets(p, q) for p in parts[a].rectangles for q in parts[b].rectangles):
            return a, b
    return None


def outcome(call):
    """What a call returned, or the message of the BudgetError it raised."""
    try:
        result = call()
    except BudgetError as e:
        return ("budget", str(e))
    return ("ok", result.rectangles if isinstance(result, CylinderSet) else result)


SPACES = [(k, s) for k in (1, 2, 3) for s in (1, 2, 3, None)]


def random_union(ctx, rng):
    """1-4 rectangles on the depth-2 ball (an omega rectangle one time in
    twelve), 1-3 sites each; over the naturals in and notin sets of values
    below 6, over s spins in sets that may also come out empty or whole."""
    ball = ctx.tree.ball_size(2)
    rects = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 1 / 12:
            rects.append(Rectangle(()))
            continue
        mapping = {}
        for site in rng.sample(range(ball), rng.randint(1, min(3, ball))):
            if ctx.spins.is_finite:
                s = ctx.spins.size
                mapping[site] = constraint_in(rng.sample(range(s), rng.randint(0, s)))
            else:
                maker = constraint_not_in if rng.random() < 0.35 else constraint_in
                mapping[site] = maker(rng.sample(range(6), rng.randint(1, 3)))
        rects.append(make_rectangle(ctx, mapping))
    return CylinderSet.build(ctx, rects)


def union_cases(seed, count):
    rng = random.Random(seed)
    for n in range(count):
        k, s = SPACES[n % len(SPACES)]
        ctx = Context(TreeGeometry(k), SpinSet.finite(s) if s else SpinSet.naturals())
        yield ctx, random_union(ctx, rng), random_union(ctx, rng)


def each_budget(new, old, size, seen):
    """new() and old() agree at every budget from 0 to size + 1, and at the
    default."""
    for budget in (*range(size + 2), cylinder.DEFAULT_RECTANGLE_BUDGET):
        got = outcome(lambda: new(budget))
        assert got == outcome(lambda: old(budget)), budget
        seen.add(got[0])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_packed_cascade_matches_the_frozenset_cascade(seed):
    """Every operation on seeded unions (k = 1-3; s = 1-3 and the naturals):
    pieces in order, verdicts and budget errors as the old cascade gives
    them."""
    seen = set()
    for ctx, a, b in union_cases(seed, 96):
        wide, whole = a.union(b), omega(ctx)
        for x, y in [(a, b), (b, a), (a, wide), (whole, a), (a, a.complement())]:
            pieces = len(old_subtract(x, y, 10**6).rectangles)
            each_budget(lambda n: x.subtract(y, n), lambda n: old_subtract(x, y, n),
                        pieces, seen)
            each_budget(lambda n: x.subset_of(y, n), lambda n: old_subset_of(x, y, n),
                        pieces, seen)
            each_budget(lambda n: x.semantic_equal(y, n),
                        lambda n: old_subset_of(x, y, n) and old_subset_of(y, x, n), pieces, seen)
            seen.add(("subset", x.subset_of(y)))
        for x in (a, b, wide):
            pieces = len(old_subtract(whole, x, 10**6).rectangles)
            each_budget(x.complement, lambda n: old_subtract(whole, x, n), pieces, seen)
            assert x.is_omega() == old_subset_of(whole, x, 10**6)
            seen.add(("omega", x.is_omega()))
            pieces = len(old_disjoint_rectangles(x, 10**6))
            each_budget(x.disjoint_rectangles, lambda n: old_disjoint_rectangles(x, n),
                        pieces, seen)
        for parts in ([a, b], [a, b, a.complement()], [a.subtract(b), b, a],
                      [a.intersect(b), a.subtract(b), a.complement()], [empty_set(ctx), a]):
            assert first_overlap(parts) == old_first_overlap(parts)
            seen.add(("overlap", first_overlap(parts)))
    assert seen >= {"ok", "budget", ("subset", True), ("subset", False),
                    ("omega", True), ("omega", False), ("overlap", None),
                    ("overlap", (0, 1)), ("overlap", (0, 2)), ("overlap", (1, 2))}


def test_first_overlap_checks_contexts_pair_by_pair():
    """A part over another context raises at the first pair it belongs to,
    and not before an earlier pair has been found to overlap."""
    ctx = Context(TreeGeometry(2), SpinSet.finite(2))
    other = Context(TreeGeometry(2), SpinSet.naturals())
    a = from_constraints(ctx, {0: constraint_in([0])})
    b = from_constraints(ctx, {1: constraint_in([0])})
    c = from_constraints(ctx, {0: constraint_in([1])})
    stranger = from_constraints(other, {0: constraint_not_in([5])})
    for parts in ([a, b, stranger], [a, c, stranger], [stranger, a]):
        try:
            expected = old_first_overlap(parts)
        except ContextMismatchError:
            with pytest.raises(ContextMismatchError):
                first_overlap(parts)
        else:
            assert first_overlap(parts) == expected
    assert first_overlap([a, b, stranger]) == (0, 1)


@pytest.mark.parametrize("spins", [SpinSet.finite(3), SpinSet.naturals()], ids=["s3", "nat"])
def test_pieces_no_cut_meets_come_back_as_themselves(spins):
    ctx = Context(TreeGeometry(2), spins)
    a = CylinderSet.build(ctx, [
        make_rectangle(ctx, {0: constraint_in([0, 1]), 2: constraint_in([1])}),
        make_rectangle(ctx, {0: constraint_in([2]), 1: constraint_in([0, 2])}),
    ])
    b = from_constraints(ctx, {1: constraint_in([1]), 2: constraint_in([0])})
    assert all(p is q for p, q in zip(a.subtract(b).rectangles, a.rectangles))
    assert all(p is q for p, q in zip(a.disjoint_rectangles(), a.rectangles))
    # decoded pieces share one constraint object per field and letters
    pieces = a.union(from_constraints(ctx, {2: constraint_in([0])})).disjoint_rectangles()
    assert pieces[2].constraint_at(2) is pieces[3].constraint_at(2)


# Wide value sets cost time linear in the values named, and a huge alphabet
# costs what a small one does: no spin set is ever built for it.

def test_wide_value_sets_take_linear_time():
    """x0 in {0..10^5} | x1=3 against x0 in every other value below 10^5,
    over the naturals: each operation well under a second (a few
    milliseconds on a laptop, where a quadratic packing took seconds)."""
    ctx = Context(TreeGeometry(2), SpinSet.naturals())
    n = 10**5
    a = CylinderSet.build(ctx, [make_rectangle(ctx, {0: constraint_in(range(n + 1))}),
                                make_rectangle(ctx, {1: constraint_in([3])})])
    odd = from_constraints(ctx, {0: constraint_in(range(1, n, 2))})
    t0 = time.perf_counter()
    rest = a.subtract(odd)
    assert rest.rectangles[0].constraint_at(0).values == frozenset(range(0, n + 1, 2))
    assert rest.rectangles[1].constraint_at(0).mode == "notin"
    assert rest.rectangles[1].constraint_at(0).values == frozenset(range(1, n, 2))
    assert a.complement().rectangles == (
        make_rectangle(ctx, {0: constraint_not_in(range(n + 1)),
                             1: constraint_not_in([3])}),)
    assert len(a.union(odd).disjoint_rectangles()) == 2
    assert odd.subset_of(a) and not a.subset_of(odd)
    assert time.perf_counter() - t0 < 1.0


@pytest.fixture
def no_wide_spin_set(monkeypatch):
    """`cylinder._full` refuses alphabets past 10**6 spins, so a route that
    would build one fails at once instead of allocating."""
    full = cylinder._full

    def spy(size):
        if size > 10**6:
            raise AssertionError(f"built the spin set of an alphabet of {size}")
        return full(size)

    monkeypatch.setattr(cylinder, "_full", spy)


def test_huge_alphabet_predicates_build_no_spin_set(no_wide_spin_set):
    ctx = Context(TreeGeometry(2), SpinSet.finite(10**10))

    def union(*rects):
        return CylinderSet.build(ctx, [make_rectangle(ctx, {site: constraint_in(values)})
                                       for site, values in rects])

    a = union((0, [1]), (1, [1]))
    assert a.subset_of(union((0, [1, 2]), (1, [1])))
    assert not a.subset_of(union((0, [1])))
    assert a.semantic_equal(union((1, [1]), (0, [1]), (0, [1])))
    assert not a.semantic_equal(union((0, [1]), (1, [1, 10**10 - 1])))
    assert not a.is_omega()
    assert union((0, [5]), (0, range(5))).subset_of(union((0, range(6))))
    assert first_overlap([union((0, [1])), union((0, [2])), a]) == (0, 2)


def test_in_sets_keep_only_the_alphabet(no_wide_spin_set):
    """An "in" set over a finite alphabet drops the spins outside it, and
    allows every spin only when it lists them all; no spin set is built,
    however wide the alphabet."""
    two, huge = SpinSet.finite(2), SpinSet.finite(10**10)
    assert c_normalize(constraint_in([0, 2]), two) == constraint_in([0])
    assert c_normalize(constraint_in([-1, 1]), two) == constraint_in([1])
    assert c_normalize(constraint_in([2, 3]), two) == constraint_in([])
    assert c_normalize(constraint_in([1, 0]), two) is None
    assert c_normalize(constraint_in([-1, 0, 1, 5]), two) is None
    assert c_normalize(constraint_in([5, 10**10]), huge) == constraint_in([5])
    assert c_normalize(constraint_in([]), huge) == constraint_in([])
