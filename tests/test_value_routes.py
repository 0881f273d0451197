"""Table, product and chain values, run sums, and enumeration marginals,
against the routes they replaced.

A table event is valued through the table's entry index (bitmasks of
entries per site and spin), with no disjoining; a product rectangle folds its
site sums in ints; a product or chain union adds its rectangles in ints and
builds one Fraction; a run sum is one integer closed form; an enumeration
marginal walks only the target ball's atoms and folds the levels below it in
closed form.  The slow routes stay here as oracles: the per-entry
`Rectangle.matches` sum over the union's disjoint rectangles, the per-site
`value_mul` fold of `sum_runs` Fractions, the per-run Fraction fold of
`value_at` and the range formula, the per-rectangle `value_add` fold, and the
walk over every atom of the measure's own ball.
"""

import glob
import itertools
import math
import os
import random
import sys
import time
from fractions import Fraction

import pytest

from treemeasure import (
    INFINITE,
    BudgetError,
    Context,
    CylinderSet,
    ExtensionHandle,
    NatSeq,
    SpinRangeError,
    SpinSet,
    TreeGeometry,
    conditional_family,
    constraint_in,
    constraint_not_in,
    markov_family,
    product_family,
    random_consistent_family,
    table_family,
    value_add,
    value_mul,
    value_pow,
)
from treemeasure.cylinder import DEFAULT_ATOM_BUDGET, c_runs, exceeds_budget, make_rectangle
from treemeasure.errors import render_value
from treemeasure import measure as measure_module
from treemeasure.measure import (
    DenseTableForm,
    MarkovForm,
    ProductForm,
    VolumeMeasure,
    _enumerate_marginal,
    _regroup,
)
from treemeasure.specdsl import load_spec
from test_measure import ATOM_SUM_FAMILIES, INTEGER_WALK_FAMILIES, RUN_FAMILIES

F = Fraction
DATA = os.path.join(os.path.dirname(__file__), "data")


def old_table_value(mu, cyl):
    """The per-entry sum over the union's disjoint rectangles."""
    total = F(0)
    for rect in cyl.disjoint_rectangles():
        total += sum((w for key, w in mu.form.table.items() if rect.matches(key)), F(0))
    return total


def old_product_value(mu, constraints, lo, hi):
    """The per-site fold: one `sum_runs` Fraction per special site, multiplied
    in by `value_mul`, stopping at the first zero."""
    form = mu.form
    special = set(constraints) | {v for v in form.overrides if lo <= v < hi}
    acc = F(1)
    for v in special:
        acc = value_mul(acc, form.weight_at(v).sum_runs(c_runs(constraints.get(v), mu.ctx.spins)))
        if acc == 0:
            return F(0)
    return value_mul(acc, value_pow(form.default.sum_all(), hi - lo - len(special)))


def seeded_union(ctx, rng, depth, n_rects, max_sites=3, pool=None):
    """A union of n_rects rectangles on the depth-`depth` ball, drawn from a
    few sites so that they overlap, or from the sites of `pool`."""
    size = ctx.tree.ball_size(depth)
    if pool is None:
        pool = rng.sample(range(size), min(size, max_sites + 1))
    rects = []
    for _ in range(n_rects):
        mapping = {}
        for site in rng.sample(pool, rng.randint(1, min(max_sites, len(pool)))):
            if ctx.spins.is_finite:
                s = ctx.spins.size
                mapping[site] = constraint_in(rng.sample(range(s), rng.randint(1, s)))
            elif rng.random() < 0.5:
                mapping[site] = constraint_not_in(rng.sample(range(6), rng.randint(1, 3)))
            else:
                mapping[site] = constraint_in(rng.sample(range(6), rng.randint(1, 3)))
        rects.append(make_rectangle(ctx, mapping))
    return CylinderSet.build(ctx, rects)


def table_spec_measures():
    for path in sorted(glob.glob(os.path.join(DATA, "table_*.spec"))):
        with open(path, encoding="utf-8") as fh:
            built = load_spec(fh.read())
        for depth in range(built.family.max_defined_depth + 1):
            yield f"{os.path.basename(path)}@{depth}", built.family.measure(depth)


# (k, s, depth): every such random table but k = 2, s = 3, depth 2, whose
# 3**13 entries would take the per-entry oracle minutes
RANDOM_TABLES = [(k, s, depth) for k in (1, 2) for s in (2, 3) for depth in (1, 2)
                 if (k, s, depth) != (2, 3, 2)]


def random_table_measures():
    for k, s, depth in RANDOM_TABLES:
        ctx = Context(TreeGeometry(k), SpinSet.finite(s))
        fam = random_consistent_family(ctx, 1000 * k + 10 * s + depth, depth)
        for d in range(depth + 1):
            yield f"random_k{k}_s{s}_depth{depth}@{d}", fam.measure(d)


def sparse_table_measures():
    """No entry has spin 2 anywhere, and no entry has spin 0 at site 3."""
    ctx = Context(TreeGeometry(2), SpinSet.finite(3))
    entries = {(0, 0, 1, 1): F(1, 2), (1, 1, 0, 1): F(1, 4), (0, 1, 1, 1): F(1, 8)}
    fam = table_family(ctx, 1, entries)
    for d in (0, 1):
        yield f"sparse_k2_s3@{d}", fam.measure(d)


TABLE_MEASURES = dict([*table_spec_measures(), *random_table_measures(),
                       *sparse_table_measures()])


@pytest.mark.parametrize("name", sorted(TABLE_MEASURES))
def test_table_index_matches_the_per_entry_sum(name):
    mu = TABLE_MEASURES[name]
    rng = random.Random(name)
    for n_rects in (1, 1, 2, 3, 5, 8):
        cyl = seeded_union(mu.ctx, rng, mu.depth, n_rects)
        assert mu.measure_of(cyl) == old_table_value(mu, cyl), cyl.render()
    assert mu.measure_of(CylinderSet.build(mu.ctx, [])) == 0
    assert mu.mass() == sum(mu.form.table.values(), F(0))


def test_spins_no_entry_has_select_nothing():
    ctx = Context(TreeGeometry(2), SpinSet.finite(3))
    for name in ("sparse_k2_s3@0", "sparse_k2_s3@1"):
        mu = TABLE_MEASURES[name]
        for mapping, value in (({0: [2]}, 0), ({0: [1, 2]}, F(1, 4)), ({0: [0, 2]}, F(5, 8))):
            assert mu.measure_of(CylinderSet.build(ctx, [make_rectangle(
                ctx, {v: constraint_in(qs) for v, qs in mapping.items()})])) == value
    mu = TABLE_MEASURES["sparse_k2_s3@1"]
    assert mu.measure_of(CylinderSet.build(ctx, [make_rectangle(
        ctx, {3: constraint_in([0, 2])})])) == 0


NAT = SpinSet.naturals()
GEO = NatSeq.geometric(F(1, 2), F(1, 2))
PRODUCT_FAMILIES = {
    "k2_s2_overrides": lambda: product_family(
        Context(TreeGeometry(2), SpinSet.finite(2)),
        [F(1, 3), F(1, 2)], {0: [F(1, 4), F(3, 4)], 5: [F(0), F(2)], 11: [F(1), F(1)]},
    ),
    # spin 1 weighs zero everywhere, and site 2 weighs zero on every spin
    "k1_s3_zero_weights": lambda: product_family(
        Context(TreeGeometry(1), SpinSet.finite(3)),
        [F(1, 2), F(0), F(1, 2)], {2: [F(0), F(0), F(0)]},
    ),
    # a constant tail: the free sites' sum is INFINITE, site 4 weighs zero
    # below spin 2, and site 5 has a zero prefix before a geometric tail
    "nat_counting_beside_zero": lambda: product_family(
        Context(TreeGeometry(2), NAT),
        NatSeq.constant(1), {0: GEO, 4: NatSeq.finite([0, 0]),
                             5: NatSeq((F(0), F(0)), "geometric", F(1, 3), F(1, 2))},
    ),
    "nat_geometric_notin": lambda: product_family(
        Context(TreeGeometry(2), NAT),
        GEO, {0: NatSeq((F(1, 2), F(1, 4)), "geometric", F(1, 8), F(1, 2)),
              3: NatSeq.constant(F(1, 5))},
    ),
}


def product_spec_families():
    for path in sorted(glob.glob(os.path.join(DATA, "product_*.spec"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), load_spec(fh.read()).family


def product_measures():
    families = {name: build() for name, build in PRODUCT_FAMILIES.items()}
    families.update(product_spec_families())
    for name, fam in families.items():
        for depth in (0, 1, 2):
            yield f"{name}@{depth}", fam.measure(depth)


PRODUCT_MEASURES = dict(product_measures())


@pytest.mark.parametrize("name", sorted(PRODUCT_MEASURES))
def test_integer_product_fold_matches_the_fraction_fold(name):
    mu = PRODUCT_MEASURES[name]
    ball = mu.ctx.tree.ball_size(mu.depth)
    rng = random.Random(name)
    for n_rects in (1, 1, 1, 2, 3, 5):
        cyl = seeded_union(mu.ctx, rng, mu.depth, n_rects)
        for rect in cyl.disjoint_rectangles():
            constraints = rect.as_dict()
            assert mu._product_value(constraints, 0, ball) == old_product_value(
                mu, constraints, 0, ball), rect.render()
    for cut in range(mu.depth + 1):
        lo = mu.ctx.tree.ball_size(cut)
        assert mu._product_value({}, lo, ball) == old_product_value(mu, {}, lo, ball)


def test_product_fold_keeps_zero_over_infinite():
    ctx = Context(TreeGeometry(2), NAT)
    mu = PRODUCT_FAMILIES["nat_counting_beside_zero"]().measure(1)
    # the counting sites sum to INFINITE: mass and an unpinned site diverge
    assert mu.mass() == INFINITE
    # site 4 allows only spins of weight zero: 0, although the rest diverges
    zero = {4: constraint_in([0, 1])}
    for constraints in (zero, {1: constraint_not_in([3]), **zero}):
        rect = make_rectangle(ctx, constraints)
        assert mu._product_value(rect.as_dict(), 0, 4) == 0
        assert old_product_value(mu, rect.as_dict(), 0, 4) == 0


def test_table_value_never_disjoins(monkeypatch):
    """A table event is the OR of its rectangles' entry masks: the union is
    never disjoined, not for `measure_of` and not for `as_family`."""
    ctx = Context(TreeGeometry(2), SpinSet.finite(2))
    fam = random_consistent_family(ctx, 77, 2)
    events = [seeded_union(ctx, random.Random(n), 2, n, max_sites=4) for n in (2, 5, 9)]
    expected = [old_table_value(fam.measure(2), e) for e in events]
    handle = ExtensionHandle.issue(fam, verify_depth=2)
    cond = conditional_family(handle, events[1])

    def refuse(self, *args, **kwargs):
        raise AssertionError("a table value disjoined its union")

    def refuse_contains(self, values):
        raise AssertionError("as_family tested an entry by `contains`")

    monkeypatch.setattr(CylinderSet, "disjoint_rectangles", refuse)
    monkeypatch.setattr(CylinderSet, "contains", refuse_contains)
    assert [fam.measure(2).measure_of(e) for e in events] == expected
    restricted = cond.as_family(depth=2).measure(2).form.table
    monkeypatch.undo()
    table = fam.measure(2).form.table
    assert restricted == {k: w for k, w in table.items() if events[1].contains(k)}


def test_many_overlapping_rectangles_past_the_rectangle_budget():
    """17 rectangles on disjoint pairs of sites disjoin into 2**17 - 1 pieces,
    past the rectangle budget; the table value is the atom sum regardless."""
    ctx = Context(TreeGeometry(2), SpinSet.finite(2))
    rng = random.Random(5)
    size = ctx.tree.ball_size(4)
    entries = {tuple(rng.randrange(2) for _ in range(size)): F(rng.randint(1, 9), 7)
               for _ in range(300)}
    # two more entries inside the first rectangle, so the union is not empty
    for w in (F(1, 3), F(2, 5)):
        entries[(0, 0) + tuple(rng.randrange(2) for _ in range(size - 2))] = w
    mu = table_family(ctx, 4, entries).measure(4)
    rects = [make_rectangle(ctx, {2 * i: constraint_in([0]), 2 * i + 1: constraint_in([0])})
             for i in range(17)]
    cyl = CylinderSet.build(ctx, rects)
    with pytest.raises(BudgetError):
        cyl.disjoint_rectangles()
    brute = sum((w for key, w in mu.form.table.items() if cyl.contains(key)), F(0))
    assert brute > 0
    assert mu.measure_of(cyl) == brute


def old_enumerate_marginal(mu, i, budget=DEFAULT_ATOM_BUDGET):
    """The full-ball walk: every atom of mu's own ball, summed into the
    buckets of its depth-i head."""
    ctx = mu.ctx
    t = ctx.tree.ball_size(i)
    form = mu.form
    if isinstance(form, DenseTableForm):
        return _regroup(form.table, lambda key: key[:t])
    if not ctx.spins.is_finite:
        raise SpinRangeError("enumeration requires a finite spin set")
    s = ctx.spins.size
    full = ctx.tree.ball_size(mu.depth)
    if full > budget or exceeds_budget(s, full, budget):
        raise BudgetError(f"enumeration of {s}**{render_value(full)} atoms exceeds budget {budget}")
    if s == 1:  # one atom, spin 0 at every site, carrying the whole mass
        weight = mu.mass()
        return {(0,) * t: weight} if weight else {}
    if isinstance(form, ProductForm):
        scaled = [form.weight_at(v)._head(s) for v in range(full)]
        rowsI = [(ints,) * s for ints, _ in scaled]
        den = math.prod(d for _, d in scaled)
    else:
        lam, d = form.lam._head(s)
        mat, kernel_d = form.kernel._scaled
        rowsI = [[lam] * s] + [mat] * (full - 1)
        den = d * kernel_d ** (full - 1)
    parents = [0] + ctx.tree.parents_list(mu.depth)[1:]
    buckets = [0] * (s**t)
    cur = [0] * full

    def rec(v, acc, idx):
        row = rowsI[v][cur[parents[v]]]
        if v == full - 1:
            if v < t:
                base = idx * s
                for val in range(s):
                    buckets[base + val] += acc * row[val]
            else:
                for val in range(s):
                    buckets[idx] += acc * row[val]
            return
        for val in range(s):
            cur[v] = val
            rec(v + 1, acc * row[val], idx * s + val if v < t else idx)

    rec(0, 1, 0)
    atoms = itertools.product(range(s), repeat=t)
    return {atom: Fraction(b, den) for atom, b in zip(atoms, buckets) if b}


# the oracle walks s ** |ball(depth)| atoms; balls past this many are left out
ORACLE_ATOMS = 2**17


def seeded_chain(rng, k, s, rows):
    """A chain whose kernel rows sum to 1 ("stochastic"), below 1 or above 1,
    with zero entries drawn in."""
    ctx = Context(TreeGeometry(k), SpinSet.finite(s))
    lam = [F(rng.randint(0, 4), rng.randint(1, 5)) for _ in range(s)]
    kernel = []
    for _ in range(s):
        row = [F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(s)]
        target = {"stochastic": F(1), "sub": F(rng.randint(1, 5), 6),
                  "above": F(rng.randint(7, 12), 6)}[rows]
        total = sum(row)
        kernel.append([x * target / total for x in row] if total else [target / s] * s)
    return markov_family(ctx, lam, kernel)


def seeded_product(rng, k, s):
    """A product with one override at a random vertex of each level 0..4,
    so that as i and the depth vary an override falls inside ball i, between
    sphere i + 1 and the depth, and past the ball."""
    ctx = Context(TreeGeometry(k), SpinSet.finite(s))
    tree = ctx.tree

    def weight():
        return [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(s)]

    overrides = {rng.randrange(tree.ball_size(lvl - 1) if lvl else 0, tree.ball_size(lvl)): weight()
                 for lvl in range(5)}
    return product_family(ctx, weight(), overrides)


def enumeration_cases():
    for name, build in ATOM_SUM_FAMILIES.items():
        mu = build()
        yield name, lambda d, mu=mu: VolumeMeasure(mu.ctx, d, mu.form)
    for k in (1, 2, 3):
        for s in (1, 2, 3):
            rng = random.Random(f"{k}-{s}")
            for rows in ("stochastic", "sub", "above"):
                yield f"chain_{rows}_k{k}_s{s}", seeded_chain(rng, k, s, rows).measure
            yield f"product_k{k}_s{s}", seeded_product(rng, k, s).measure


ENUMERATION_CASES = dict(enumeration_cases())


@pytest.mark.parametrize("name", sorted(ENUMERATION_CASES))
def test_target_ball_enumeration_matches_the_full_ball_walk(name):
    measure = ENUMERATION_CASES[name]
    for depth in range(4):
        mu = measure(depth)
        if exceeds_budget(mu.ctx.spins.size, mu._ball(), ORACLE_ATOMS):
            break
        for i in range(depth + 1):
            expected = old_enumerate_marginal(mu, i)
            assert _enumerate_marginal(mu, i, DEFAULT_ATOM_BUDGET) == expected, (depth, i)
            assert mu.project(i, method="enumerate").dense_table() == expected, (depth, i)


def test_deep_path_marginal_enumerates_the_target_ball_only():
    """A k = 1, s = 3 chain at depth 7 has 3**15 atoms, under the atom gate;
    its marginals onto depths 0 and 3 walk 3 and 3**7 atoms."""
    ctx = Context(TreeGeometry(1), SpinSet.finite(3))
    fam = markov_family(ctx, [F(1, 3), F(1, 2), F(1, 6)],
                        [[F(1, 2), F(1, 3), F(1, 4)], [F(1, 5), F(1, 5), F(1, 5)],
                         [F(0), F(2, 3), F(1, 2)]])
    mu = fam.measure(7)
    assert not exceeds_budget(3, mu._ball(), DEFAULT_ATOM_BUDGET)
    mass = mu.mass()
    assert mass != 1
    for i in (0, 3):
        start = time.perf_counter()
        table = mu.project(i).dense_table()
        assert time.perf_counter() - start < 1.0, i
        assert sum(table.values()) == mass, i


def test_non_stochastic_k2_marginal_and_unchanged_gate():
    """k = 2, s = 2, rows summing to 3/4: depth 3 to 2 walks 2**7 atoms."""
    ctx = Context(TreeGeometry(2), SpinSet.finite(2))
    fam = markov_family(ctx, [F(1, 2), F(1, 2)], [[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
    mu3 = fam.measure(3)
    assert mu3.project(2).dense_table() == old_enumerate_marginal(mu3, 2)
    # the gate still charges the 2**31 atoms of the depth-4 ball
    with pytest.raises(BudgetError):
        fam.measure(4).project(3)


def old_sum_range(seq, lo, hi=None):
    """The range sum in Fractions: the prefix entries, then c * (d1 - d0) on
    a constant tail or a * (r**d0 - r**d1) / (1 - r) on a geometric one, over
    tail offsets d0 <= d < d1."""
    n = len(seq.prefix)
    total = sum(seq.prefix[lo:hi], F(0)) if lo < n else F(0)
    d0 = max(lo, n) - n
    d1 = None if hi is None else hi - n
    if seq.tail_a == 0 or d1 is not None and d1 <= d0:
        return total
    if seq.tail_kind == "const":
        return INFINITE if d1 is None else total + seq.tail_a * (d1 - d0)
    r = seq.tail_r
    end = 0 if d1 is None else value_pow(r, d1)
    return total + seq.tail_a * (value_pow(r, d0) - end) / (1 - r)


def old_sum_runs(seq, runs):
    """The run sum as a fold of Fractions: `value_at` for a run of one spin,
    else `old_sum_range`, added by `value_add`."""
    total = F(0)
    for lo, hi in runs:
        total = value_add(total, seq.value_at(lo) if hi == lo + 1 else old_sum_range(seq, lo, hi))
    return total


def only_primes_of(d, base):
    """Whether every prime factor of d divides base."""
    while (g := math.gcd(d, base)) > 1:
        d //= g
    return d == 1


def seeded_natseqs(rng):
    def fr():
        return F(rng.randint(0, 6), rng.randint(1, 7))

    def prefix():
        return tuple(fr() for _ in range(rng.randint(0, 4)))

    return {
        "prefix_only": NatSeq.finite([fr() for _ in range(rng.randint(1, 5))]),
        "const_tail": NatSeq(prefix(), "const", F(rng.randint(1, 5), 3), F(0)),
        "geometric_tail": NatSeq(prefix(), "geometric", F(rng.randint(1, 5), 4),
                                 F(rng.randint(1, 8), 9)),
        "ratio_zero": NatSeq(prefix(), "geometric", F(rng.randint(1, 5), 4), F(0)),
        "zero_tail": NatSeq(prefix(), "geometric", F(0), F(rng.randint(1, 4), 5)),
    }


def seeded_runs(rng, unbounded):
    """Sorted, disjoint, non-touching runs below 30, some of one spin, and
    last an unbounded run when `unbounded`."""
    cuts = sorted(rng.sample(range(30), 2 * rng.randint(0, 4)))
    runs = [(lo, lo + 1 if rng.random() < 0.3 else hi) for lo, hi in zip(cuts[::2], cuts[1::2])]
    if unbounded:
        runs.append((cuts[-1] + 1 + rng.randrange(3) if cuts else rng.randrange(8), None))
    return runs


@pytest.mark.parametrize("seed", range(6))
def test_integer_run_sums_match_the_fraction_fold(seed):
    rng = random.Random(seed)
    for name, seq in seeded_natseqs(rng).items():
        for unbounded in (False, True):
            for _ in range(20):
                runs = seeded_runs(rng, unbounded)
                expected = old_sum_runs(seq, runs)
                assert seq.sum_runs(runs) == expected, (name, runs)
                n, d = seq._run_sum(runs)
                assert (n if type(n) is float else F(n, d)) == expected, (name, runs)
                assert only_primes_of(d, seq._base), (name, runs)
        for lo in range(9):
            for hi in (max(lo - 1, 0), lo, lo + 1, lo + 2, lo + 7, None):
                assert seq.sum_range(lo, hi) == old_sum_range(seq, lo, hi), (name, lo, hi)


FAR = 10**10


@pytest.mark.parametrize("method, args, exponent", [
    ("sum_runs", (((FAR, FAR + 1),),), FAR - 2),  # one spin: value_at's r ** e0
    ("sum_runs", (((FAR, None),),), FAR - 2),  # unbounded: r ** e0
    ("sum_runs", (((FAR, FAR + 5),),), FAR + 3),  # bounded: r ** e1
    ("sum_runs", (((1, 3), (FAR, FAR + 5)),), FAR + 3),  # only the second run is too far
    ("sum_runs", (((FAR, FAR + 1), (3 * FAR, 3 * FAR + 5)),), FAR - 2),  # the first one raises
    ("sum_runs", (((0, 5), (FAR, None)),), FAR - 2),
    ("sum_range", (FAR, FAR + 1), FAR - 1),  # a range of one spin: r ** e1
    ("sum_range", (FAR, FAR + 5), FAR + 3),
    ("sum_range", (FAR, None), FAR - 2),
])
def test_far_runs_raise_the_fraction_folds_budget_error(method, args, exponent):
    """A geometric tail refuses a power of its ratio run by run, in order,
    with the text the Fraction fold gives: the ratio is 1/2, so a power's
    bits are its exponent, counted from the two-entry prefix's end."""
    seq = NatSeq((F(1, 2), F(1, 8)), "geometric", F(1, 4), F(1, 2))
    old = {"sum_runs": old_sum_runs, "sum_range": old_sum_range}[method]
    with pytest.raises(BudgetError) as was:
        old(seq, *args)
    with pytest.raises(BudgetError) as now:
        getattr(seq, method)(*args)
    assert str(now.value) == str(was.value) == (
        f"a power of about {render_value(exponent)} bits exceeds the limit of {2**22} bits")


def test_a_far_range_of_one_spin_under_a_zero_tail_is_zero():
    """A range sum checks no power under a zero a, where a run of one spin
    in `sum_runs` is refused at `value_at`'s r ** e0."""
    seq = NatSeq((F(1, 2), F(1, 8)), "geometric", F(0), F(1, 2))
    assert seq.sum_range(FAR, FAR + 1) == old_sum_range(seq, FAR, FAR + 1) == 0
    with pytest.raises(BudgetError):
        seq.sum_runs(((FAR, FAR + 1),))


def old_rect_value(mu, rect):
    """One disjoint rectangle's value as its own Fraction: a product's
    per-site `value_mul` fold of `old_sum_runs`, or a chain's root step
    `_weighted_sum` over a skeleton built for this rectangle alone."""
    form = mu.form
    if isinstance(form, ProductForm):
        ball, spins = mu._ball(), mu.ctx.spins
        constraints = rect.as_dict()
        special = set(constraints) | {v for v in form.overrides if v < ball}
        acc = F(1)
        for v in special:
            acc = value_mul(acc, old_sum_runs(form.weight_at(v), c_runs(constraints.get(v), spins)))
            if acc == 0:
                return F(0)
        free = old_sum_runs(form.default, c_runs(None, spins))
        return value_mul(acc, value_pow(free, ball - len(special)))
    sel = mu._selection(rect.constraint_at(0), form.kernel.uniform_from)
    return mu._weighted_sum(form.lam, sel, *mu._root_factor(rect, {}))


def old_measure_of(mu, cyl):
    """The per-rectangle fold: `value_add` over `old_rect_value`."""
    total = F(0)
    for rect in cyl.disjoint_rectangles():
        total = value_add(total, old_rect_value(mu, rect))
    return total


def spec_families(kinds):
    for path in sorted(glob.glob(os.path.join(DATA, "*.spec"))
                       + glob.glob(os.path.join(DATA, "..", "..", "samples", "*.spec"))):
        with open(path, encoding="utf-8") as fh:
            fam = load_spec(fh.read()).family
        if fam.measure(0).form.kind in kinds:
            yield os.path.basename(path), fam.measure


def chain_and_product_measures():
    """{name: depth -> measure} for every chain and product fixture."""
    out = dict(spec_families(("chain", "product")))
    for name, (order, s, lam, kernel, *_) in {**RUN_FAMILIES, **INTEGER_WALK_FAMILIES}.items():
        spins = SpinSet.naturals() if s is None else SpinSet.finite(s)
        out[name] = markov_family(Context(TreeGeometry(order), spins), lam, kernel).measure
    for name, build in PRODUCT_FAMILIES.items():
        out[name] = build().measure
    for name, build in ATOM_SUM_FAMILIES.items():
        mu = build()
        out[name] = lambda d, mu=mu: VolumeMeasure(mu.ctx, d, mu.form)
    return out


UNION_MEASURES = chain_and_product_measures()


@pytest.mark.parametrize("name", sorted(UNION_MEASURES))
def test_union_sum_in_ints_matches_the_per_rectangle_fold(name):
    """Seeded unions at depths 0-3 over every chain and product fixture:
    stochastic, sub-stochastic and infinite-row chains, and products whose
    counting sites sum to INFINITE beside zero sites."""
    rng = random.Random(name)
    for depth in range(4):
        mu = UNION_MEASURES[name](depth)
        for n_rects in (1, 2, 3, 5, 8):
            cyl = seeded_union(mu.ctx, rng, depth, n_rects)
            assert mu.measure_of(cyl) == old_measure_of(mu, cyl), (depth, cyl.render())
        assert mu.measure_of(CylinderSet.build(mu.ctx, [])) == 0


def test_chain_union_builds_one_skeleton_for_its_union_sites(monkeypatch):
    """An overlapping chain union builds exactly one skeleton, for its
    sorted union sites, in `measure_of` and in `root_slice_sums`; a union
    that is disjoint as it stands builds one skeleton per site tuple."""
    mu = UNION_MEASURES["substochastic_s2_k2"](3)
    built = []
    skeleton = VolumeMeasure._skeleton

    def spy(self, of):
        built.append(of if type(of) is tuple else of.sites())
        return skeleton(self, of)

    monkeypatch.setattr(VolumeMeasure, "_skeleton", spy)
    ctx = mu.ctx
    singletons = CylinderSet.build(ctx, [make_rectangle(ctx, {1: constraint_in([a]),
                                                              5: constraint_in([b])})
                                         for a, b in ((0, 1), (1, 0), (1, 1))])
    alone = CylinderSet.build(ctx, [make_rectangle(ctx, {3: constraint_in([0]),
                                                         9: constraint_in([1])})])
    overlapping = 0
    for value in (lambda cyl: mu.measure_of(cyl), lambda cyl: mu.root_slice_sums(cyl)(3)):
        for seed, n_rects in itertools.product(range(30), (2, 3, 5)):
            # fresh rectangles each time, as a rectangle keeps its skeleton
            cyl = seeded_union(ctx, random.Random(seed), 3, n_rects)
            sites = sorted({site for rect in cyl.rectangles for site in rect.sites()})
            built.clear()
            value(cyl)
            if cyl._already_disjoint():
                assert built == [rect.sites() for rect in cyl.rectangles[:1]], cyl.render()
            else:
                overlapping += 1
                assert built == [tuple(sites)], cyl.render()
        for cyl in (singletons, alone):
            built.clear()
            value(CylinderSet.build(ctx, [make_rectangle(ctx, r.as_dict()) for r in cyl.rectangles]))
            assert built == [cyl.rectangles[0].sites()]
    assert overlapping >= 2 * 30


def overlapping_unions(mu, seed):
    """Seeded unions on mu's ball that are not disjoint as they stand."""
    rng = random.Random(seed)
    out = []
    for n_rects in (2, 3, 5, 8) * 3:
        cyl = seeded_union(mu.ctx, rng, mu.depth, n_rects)
        if not cyl._already_disjoint():
            out.append(cyl)
    return out


def test_overlapping_unions_are_never_disjoined(monkeypatch):
    """A product or chain union whose rectangles overlap is valued by the
    union pass: neither `measure_of` nor `root_slice_sums` disjoins it."""
    cases = []
    for name in ("k2_s2_overrides", "nat_geometric_notin", "substochastic_s2_k2",
                 "geometric_nat_k2", "infinite_row_nat_k1", "stochastic_s3_k2"):
        mu = UNION_MEASURES[name](2)
        for cyl in overlapping_unions(mu, name):
            cases.append((mu, cyl, old_measure_of(mu, cyl)))
    assert len(cases) >= 40

    def refuse(self, *args, **kwargs):
        raise AssertionError("an overlapping union was disjoined")

    monkeypatch.setattr(CylinderSet, "disjoint_rectangles", refuse)
    for mu, cyl, expected in cases:
        assert mu.measure_of(cyl) == expected, cyl.render()
        if isinstance(mu.form, MarkovForm):
            assert mu.root_slice_sums(cyl)(None) == expected
            mu.root_slice_sums(cyl)(1)


def pairs_union(ctx, n_pairs):
    """x(2i+1)=0 & x(2i+2)=0 for i < n_pairs: rectangles on disjoint pairs of
    sites, which disjoin into 2 ** n_pairs - 1 pieces."""
    return CylinderSet.build(ctx, [make_rectangle(ctx, {2 * i + 1: constraint_in([0]),
                                                        2 * i + 2: constraint_in([0])})
                                   for i in range(n_pairs)])


def test_seventeen_pairs_value_past_the_rectangle_budget():
    """17 rectangles on disjoint site pairs under a uniform product: each
    weighs 1/4 and they are independent, so the union weighs 1 - (3/4)**17,
    while disjoining them passes the rectangle budget."""
    ctx = Context(TreeGeometry(2), SpinSet.finite(2))
    mu = product_family(ctx, [F(1, 2), F(1, 2)]).measure(4)
    cyl = pairs_union(ctx, 17)
    with pytest.raises(BudgetError):
        cyl.disjoint_rectangles()
    start = time.perf_counter()
    assert mu.measure_of(cyl) == 1 - F(3, 4) ** 17 == F(17050729021, 17179869184)
    assert time.perf_counter() - start < 1


def test_ten_pairs_under_a_non_stochastic_chain_match_the_fold():
    """10 pairs disjoin into 1,023 pieces; the union pass over one skeleton
    gives their fold's value."""
    mu = UNION_MEASURES["substochastic_s2_k2"](3)
    cyl = pairs_union(mu.ctx, 10)
    assert len(cyl.disjoint_rectangles()) == 1023
    assert mu.measure_of(cyl) == old_measure_of(mu, cyl)


NAT_CHAINS = sorted(name for name, measure in UNION_MEASURES.items()
                    if measure(0).form.kind == "chain" and not measure(0).ctx.spins.is_finite)


@pytest.mark.parametrize("name", NAT_CHAINS)
def test_root_slice_sums_of_overlapping_unions_match_the_per_piece_fold(name):
    """mu(E & {x0 < n}) from the union pass's parts, against the per-piece
    fold of E cut at the root, at n in 0, 1, 2, 5 and uncut."""
    checked = 0
    for depth in range(3):
        mu = UNION_MEASURES[name](depth)
        for cyl in overlapping_unions(mu, f"{name}@{depth}"):
            below = mu.root_slice_sums(cyl)
            for n in (0, 1, 2, 5, None):
                cut = cyl if n is None else cyl.intersect(CylinderSet.build(
                    mu.ctx, [make_rectangle(mu.ctx, {0: constraint_in(range(n))})]))
                assert below(n) == old_measure_of(mu, cut), (depth, n, cyl.render())
                checked += 1
    assert checked >= 20


def test_a_union_past_the_state_budget_takes_the_per_piece_route(monkeypatch):
    """With a budget of no state the union pass refuses every overlapping
    union; the per-piece route values it, to the same value."""
    cases = []
    for name in ("k2_s2_overrides", "substochastic_s2_k2", "geometric_nat_k2"):
        mu = UNION_MEASURES[name](2)
        cases += [(mu, cyl, old_measure_of(mu, cyl)) for cyl in overlapping_unions(mu, name)]
    calls = []
    disjoin = CylinderSet.disjoint_rectangles

    def spy(self, *args, **kwargs):
        calls.append(self)
        return disjoin(self, *args, **kwargs)

    monkeypatch.setattr(measure_module, "DEFAULT_RECTANGLE_BUDGET", 0)
    monkeypatch.setattr(CylinderSet, "disjoint_rectangles", spy)
    for mu, cyl, expected in cases:
        calls.clear()
        assert mu.measure_of(cyl) == expected, cyl.render()
        assert calls == [cyl]


@pytest.mark.parametrize("name", NAT_CHAINS)
def test_root_slice_sums_past_the_state_budget_take_the_per_piece_route(name, monkeypatch):
    """With a budget of no state, `root_slice_sums` of an overlapping union
    disjoins it once and gives, at n in 0, 1, 2, 5 and uncut, the per-piece
    fold of the union cut at the root."""
    calls = []
    disjoin = CylinderSet.disjoint_rectangles

    def spy(self, *args, **kwargs):
        calls.append(self)
        return disjoin(self, *args, **kwargs)

    monkeypatch.setattr(measure_module, "DEFAULT_RECTANGLE_BUDGET", 0)
    monkeypatch.setattr(CylinderSet, "disjoint_rectangles", spy)
    checked = 0
    for depth in range(3):
        mu = UNION_MEASURES[name](depth)
        for cyl in overlapping_unions(mu, f"{name}@{depth}"):
            calls.clear()
            below = mu.root_slice_sums(cyl)
            assert calls == [cyl], cyl.render()
            for n in (0, 1, 2, 5, None):
                cut = cyl if n is None else cyl.intersect(CylinderSet.build(
                    mu.ctx, [make_rectangle(mu.ctx, {0: constraint_in(range(n))})]))
                assert below(n) == old_measure_of(mu, cut), (depth, n, cyl.render())
                checked += 1
    assert checked >= 20


def straddling_pairs(n_pairs):
    """The depth-6 measure of `samples/chain_k2.spec` and the union over
    i < n_pairs of x(63+i)=0 & x(95+i)=0: each rectangle has a level-6 site
    on either side of the root, so it stays open on both sides up to the
    root, and the maps the root joins hold up to 2 ** n_pairs masks each."""
    with open(os.path.join(DATA, "..", "..", "samples", "chain_k2.spec"), encoding="utf-8") as fh:
        mu = load_spec(fh.read()).family.measure(6)
    ctx = mu.ctx
    return mu, CylinderSet.build(ctx, [make_rectangle(ctx, {63 + i: constraint_in([0]),
                                                            95 + i: constraint_in([0])})
                                       for i in range(n_pairs)])


def test_twelve_straddling_pairs_match_the_fold_without_the_full_join():
    """The root's join would visit 2 ** 24 pairs; it is refused, and the
    per-piece route values the union, to the fold's value."""
    mu, cyl = straddling_pairs(12)
    start = time.perf_counter()
    value = mu.measure_of(cyl)
    assert time.perf_counter() - start < 10
    assert value == old_measure_of(mu, cyl)


def test_a_join_past_the_budget_is_refused_before_its_products(monkeypatch):
    """Under a budget of 3, each site's map holds 2 states and the first
    join would visit 4 pairs: the pass refuses before any join product, and
    the per-piece route gives the fold's value."""
    mu, cyl = straddling_pairs(4)
    expected = old_measure_of(mu, cyl)
    products, at_disjoin = [], []
    product, disjoin = measure_module._product, CylinderSet.disjoint_rectangles

    def product_spy(vecs):
        products.append(len(vecs))
        return product(vecs)

    def disjoin_spy(self, *args, **kwargs):
        at_disjoin.append(len(products))
        return disjoin(self, *args, **kwargs)

    monkeypatch.setattr(measure_module, "DEFAULT_RECTANGLE_BUDGET", 3)
    monkeypatch.setattr(measure_module, "_product", product_spy)
    monkeypatch.setattr(CylinderSet, "disjoint_rectangles", disjoin_spy)
    assert mu.measure_of(cyl) == expected
    assert at_disjoin == [0]
    assert products


def sibling_union(ctx, rng, depth, n_rects):
    """A seeded union on the children of two vertices above level `depth`:
    its rectangles meet at a parent, or at the two parents' meet."""
    parents = rng.sample(range(ctx.tree.ball_size(depth - 1)), 2)
    pool = [v for p in parents for v in ctx.tree.children(p)]
    return seeded_union(ctx, rng, depth, n_rects, pool=pool)


def test_a_chain_pass_reads_each_rectangle_meet_off_its_skeleton(monkeypatch):
    """The chain pass places each rectangle at the meet of its sites by
    climbing the union skeleton's kept-parent links: `TreeGeometry.meet`
    runs only inside `_skeleton`, at most once per union site but one, and
    the values are the per-piece fold's on straddling and sibling unions
    under stochastic, sub-stochastic and k = 1 chains."""
    cases = [straddling_pairs(n) for n in (2, 3, 5)]
    for name in ("stochastic_s3_k2", "substochastic_s2_k2", "geometric_nat_k2",
                 "infinite_row_nat_k1", "chain_k3_finite.spec"):
        mu = UNION_MEASURES[name](3)
        rng = random.Random(name)
        cases += [(mu, sibling_union(mu.ctx, rng, 3, n_rects)) for n_rects in (2, 3, 5, 8) * 3]
        cases += [(mu, cyl) for cyl in overlapping_unions(mu, name)]
    expected = [old_measure_of(mu, cyl) for mu, cyl in cases]
    callers = []
    meet = TreeGeometry.meet

    def spy(self, u, v):
        callers.append(sys._getframe(1).f_code.co_name)
        return meet(self, u, v)

    monkeypatch.setattr(TreeGeometry, "meet", spy)
    passed = 0
    for (mu, cyl), value in zip(cases, expected):
        sites = {site for rect in cyl.rectangles for site in rect.sites()}
        if not cyl._already_disjoint():  # the pass's unions
            callers.clear()
            mu._union_pass(cyl)
            assert set(callers) <= {"_skeleton"}, cyl.render()
            assert len(callers) <= len(sites) - 1, cyl.render()
            passed += bool(callers)
        assert mu.measure_of(cyl) == value, cyl.render()
    assert passed >= 20
