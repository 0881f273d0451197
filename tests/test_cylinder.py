import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest

from treemeasure import (
    BudgetError,
    Configuration,
    Context,
    ContextMismatchError,
    CylinderSet,
    DepthLimitError,
    SpinRangeError,
    SpinSet,
    TreeGeometry,
    agreement_cylinder,
    constraint_in,
    constraint_not_in,
    empty_set,
    from_configuration,
    from_constraints,
    generator_decomposition,
    make_rectangle,
    omega,
    parse_document,
    random_cylinder,
    render_document,
    render_value,
    rho,
    single_site,
    table_family,
)
from treemeasure.cylinder import c_complement, c_contains, c_normalize, c_runs, exceeds_budget

F = Fraction


def oracle_atoms(mappings, size, s):
    """Atom tuples matched by a list of {site: constraint} dicts."""
    out = set()
    for atom in itertools.product(range(s), repeat=size):
        for mapping in mappings:
            hit = True
            for site, c in mapping.items():
                inside = atom[site] in c.values
                if c.mode == "in":
                    hit = hit and inside
                else:
                    hit = hit and not inside
                if not hit:
                    break
            if hit:
                out.add(atom)
                break
    return out


def random_mappings(ctx, rng, depth, count):
    size = ctx.tree.ball_size(depth)
    s = ctx.spins.size
    mappings = []
    for _ in range(count):
        mapping = {}
        for site in rng.sample(range(size), rng.randint(1, 3)):
            vals = rng.sample(range(s), rng.randint(1, s))
            if rng.random() < 0.5:
                mapping[site] = constraint_in(vals)
            else:
                mapping[site] = constraint_not_in(vals)
        mappings.append(mapping)
    return mappings


def build_from(ctx, mappings):
    return CylinderSet.build(ctx, [make_rectangle(ctx, m) for m in mappings])


def test_field_operations_match_set_oracle(ctx_k2s2):
    ctx = ctx_k2s2
    size = ctx.tree.ball_size(2)
    rng = random.Random(411)
    for _ in range(40):
        ma = random_mappings(ctx, rng, 2, rng.randint(1, 3))
        mb = random_mappings(ctx, rng, 2, rng.randint(1, 3))
        a, b = build_from(ctx, ma), build_from(ctx, mb)
        sa = oracle_atoms(ma, size, 2)
        sb = oracle_atoms(mb, size, 2)
        assert a.atom_count(2) == len(sa)
        assert {c.restrict(range(size)) and tuple(c.value_at(i) for i in range(size))
                for c in a.atoms(2)} == sa
        assert a.is_empty() == (not sa)
        assert a.intersect(b).atom_count(2) == len(sa & sb)
        assert a.union(b).atom_count(2) == len(sa | sb)
        assert a.subtract(b).atom_count(2) == len(sa - sb)
        assert a.complement().atom_count(2) == 2**size - len(sa)
        assert a.subset_of(b) == (sa <= sb)
        assert a.semantic_equal(b) == (sa == sb)
        for atom in itertools.islice(itertools.product(range(2), repeat=size), 0, None, 37):
            assert a.contains(atom) == (atom in sa)


def test_atoms_list_each_atom_once(ctx_k2s2):
    # the seeded unions of the set-oracle test, whose set comparison would
    # hide a duplicate atom
    ctx = ctx_k2s2
    rng = random.Random(411)
    for _ in range(40):
        for count in (rng.randint(1, 3), rng.randint(1, 3)):
            a = build_from(ctx, random_mappings(ctx, rng, 2, count))
            assert len(a.atoms(2)) == a.atom_count(2)


def test_atom_count_over_three_spins():
    # over three spins a normalized constraint may allow two spins that are
    # not one run, as {0, 2} does: 5 sites at depth 2 on a path, 243 atoms
    ctx = Context(TreeGeometry(1), SpinSet.finite(3))
    size = ctx.tree.ball_size(2)
    rng = random.Random(733)
    for _ in range(40):
        mappings = random_mappings(ctx, rng, 2, rng.randint(1, 3))
        a = build_from(ctx, mappings)
        expected = len(oracle_atoms(mappings, size, 3))
        assert a.atom_count(2) == len(a.atoms(2)) == expected
    assert from_constraints(ctx, {0: constraint_in([0, 2])}).atom_count(1) == 18


def test_disjoint_rectangles_partition(ctx_k2s2):
    ctx = ctx_k2s2
    rng = random.Random(97)
    for _ in range(25):
        e = random_cylinder(ctx, rng, max_depth=2)
        parts = e.disjoint_rectangles()
        total = 0
        for r in parts:
            piece = CylinderSet.build(ctx, [r])
            total += piece.atom_count(2)
        assert total == e.atom_count(2)


def test_atom_count_respects_base_lift(ctx_k2s2):
    ctx = ctx_k2s2
    e = single_site(ctx, 0, 0)
    assert e.atom_count(1) == 8
    assert e.atom_count(2) == 512
    deep = from_constraints(ctx, {0: constraint_in([0]), 4: constraint_in([1])})
    assert deep.atom_count(2) == 256
    lifted = e.lift_to_base(2)
    assert lifted.atom_count() == 512
    with pytest.raises(ValueError):
        deep.lift_to_base(0)


def test_omega_and_empty_edges(ctx_k2s2):
    ctx = ctx_k2s2
    assert omega(ctx).is_omega()
    assert empty_set(ctx).is_empty()
    assert omega(ctx).complement().is_empty()
    assert empty_set(ctx).complement().is_omega()
    e = single_site(ctx, 1, 0)
    assert e.union(e.complement()).is_omega()
    assert e.intersect(e.complement()).is_empty()
    # notin over the whole finite alphabet collapses to the empty set
    dead = from_constraints(ctx, {0: constraint_not_in([0, 1])})
    assert dead.is_empty()
    # in-constraint listing every value is no constraint at all
    free = from_constraints(ctx, {0: constraint_in([0, 1])})
    assert free.is_omega()


def test_contains_on_configurations(ctx_k2s2):
    ctx = ctx_k2s2
    e = from_constraints(ctx, {0: constraint_in([1]), 2: constraint_in([0])})
    assert e.contains((1, 0, 0, 1))
    assert not e.contains((1, 0, 1, 1))
    cfg = Configuration.on_ball(ctx, 1, (1, 1, 0, 0))
    assert from_configuration(ctx, cfg).atom_count(1) == 1


def test_rho_frozen_values():
    ctx = Context(TreeGeometry(1), SpinSet.finite(2))
    a = Configuration.on_ball(ctx, 2, (0, 0, 0, 0, 0))
    b = Configuration.on_ball(ctx, 2, (0, 1, 0, 1, 0))
    partial, tail = rho(ctx, a, b, 2)
    assert partial == F(5, 8)
    assert tail == F(1, 16)
    # same configurations: distance zero, only the tail bound remains
    partial, tail = rho(ctx, a, a, 2)
    assert partial == 0
    assert tail == F(1, 16)
    # declared eventually equal: deeper assigned sites fold in, tail vanishes
    c = Configuration.on_ball(ctx, 3, (0, 0, 0, 0, 0, 0, 0))
    d = Configuration.on_ball(ctx, 3, (0, 0, 0, 0, 0, 1, 0))
    partial, tail = rho(ctx, c, d, 2, eventually_equal=True)
    assert partial == F(1, 32)
    assert tail == 0


def test_rho_triangle_inequality(ctx_k2s2):
    ctx = ctx_k2s2
    rng = random.Random(2026)
    size = ctx.tree.ball_size(4)
    for _ in range(200):
        cfgs = [
            Configuration.on_ball(ctx, 4, tuple(rng.randint(0, 1) for _ in range(size)))
            for _ in range(3)
        ]
        ab, _ = rho(ctx, cfgs[0], cfgs[1], 4)
        bc, _ = rho(ctx, cfgs[1], cfgs[2], 4)
        ac, _ = rho(ctx, cfgs[0], cfgs[2], 4)
        assert ac <= ab + bc
        assert ab >= 0
        # symmetry
        ba, _ = rho(ctx, cfgs[1], cfgs[0], 4)
        assert ab == ba


def test_rho_requires_full_assignment(ctx_k2s2):
    ctx = ctx_k2s2
    a = Configuration.from_mapping(ctx, {0: 0, 1: 1})
    b = Configuration.on_ball(ctx, 1, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        rho(ctx, a, b, 1)


def test_generator_decomposition_agreement(ctx_k2s2):
    ctx = ctx_k2s2
    first, second = generator_decomposition(ctx, 2, 1, 1)
    # fully specified away from the shared site, and disagreeing there
    for site in range(ctx.tree.ball_size(1)):
        ca, cb = first.constraint_at(site), second.constraint_at(site)
        assert ca is not None and cb is not None
        if site == 2:
            assert ca == cb
        else:
            assert ca != cb
    # literal intersection of the two bases is empty
    lit = CylinderSet.build(ctx, [first]).intersect(CylinderSet.build(ctx, [second]))
    assert lit.is_empty()
    # the agreement reading recovers exactly the single-site cylinder
    agreed = agreement_cylinder(ctx, first, second)
    assert agreed.semantic_equal(single_site(ctx, 2, 1))


def test_generator_decomposition_degenerate_alphabet():
    ctx = Context(TreeGeometry(2), SpinSet.finite(1))
    first, second = generator_decomposition(ctx, 0, 0, 1)
    assert first == second
    agreed = agreement_cylinder(ctx, first, second)
    # the one-configuration space: the pair pins everything
    assert agreed.atom_count(1) == 1


def test_generator_decomposition_naturals():
    ctx = Context(TreeGeometry(2), SpinSet.naturals())
    first, second = generator_decomposition(ctx, 1, 3, 1)
    agreed = agreement_cylinder(ctx, first, second)
    assert agreed.semantic_equal(single_site(ctx, 1, 3))


def test_naturals_notin_semantics():
    ctx = Context(TreeGeometry(2), SpinSet.naturals())
    e = from_constraints(ctx, {0: constraint_not_in([0, 2])})
    assert e.contains((1, 0, 0, 0))
    assert e.contains((5, 0, 0, 0))
    assert not e.contains((2, 0, 0, 0))
    # complement flips back to the in-set
    comp = e.complement()
    assert comp.contains((0, 0, 0, 0))
    assert comp.contains((2, 0, 0, 0))
    assert not comp.contains((7, 0, 0, 0))
    assert e.union(comp).is_omega()
    with pytest.raises(SpinRangeError):
        e.atom_count(1)
    with pytest.raises(SpinRangeError):
        e.atoms(1)


def test_budget_guards(ctx_k2s2):
    ctx = ctx_k2s2
    with pytest.raises(BudgetError):
        omega(ctx).atoms(2, budget=10)
    # subtracting a three-site rectangle from the whole space splits it into
    # three pieces, one per constrained site
    pinned = from_constraints(
        ctx, {0: constraint_in([0]), 1: constraint_in([0]), 2: constraint_in([0])}
    )
    with pytest.raises(BudgetError):
        omega(ctx).subtract(pinned, budget=2)
    a = single_site(ctx, 0, 0).union(single_site(ctx, 1, 0))
    b = single_site(ctx, 2, 0).union(single_site(ctx, 3, 0))
    with pytest.raises(BudgetError):
        a.intersect(b, budget=3)
    assert len(a.intersect(b).rectangles) == 4


def test_budget_counts_pieces_that_pass_a_cut_unmet(ctx_k2s2):
    # three rectangles pinned at x0=0 pass the cut x0=1 without meeting it
    ctx = ctx_k2s2
    a = CylinderSet.build(ctx, [
        make_rectangle(ctx, {0: constraint_in([0]), v: constraint_in([0])}) for v in (1, 2, 3)
    ])
    b = single_site(ctx, 0, 1)
    assert a.subtract(b, budget=3).rectangles == a.rectangles
    with pytest.raises(BudgetError):
        a.subtract(b, budget=2)


def test_exceeds_budget_at_its_edges():
    assert not exceeds_budget(2, 24, 2**24) and exceeds_budget(2, 25, 2**24)
    assert not exceeds_budget(3, 15, 3**15) and exceeds_budget(3, 15, 3**15 - 1)
    assert exceeds_budget(2, 0, 0) and not exceeds_budget(2, 0, 1)
    assert not exceeds_budget(1, 10**20, 1)
    # a power with 10**20 bits is never built
    assert exceeds_budget(2, 10**20, 2**24)


def test_atoms_on_a_huge_tree_exceed_the_budget():
    # one pinned site leaves 10**20 free sites on the depth-1 ball
    ctx = Context(TreeGeometry(10**20), SpinSet.finite(2))
    with pytest.raises(BudgetError):
        single_site(ctx, 1, 0).atoms(1)


def test_atoms_refuse_a_walk_over_more_sites_than_the_budget():
    # over one spin the site's constraint normalizes away: one atom, but a
    # walk over all 10**20 + 1 sites of the depth-1 ball
    ctx = Context(TreeGeometry(10**20), SpinSet.finite(1))
    with pytest.raises(BudgetError):
        single_site(ctx, 1, 0).atoms(1)
    small = Context(TreeGeometry(2), SpinSet.finite(1))
    assert [a.values for a in omega(small).atoms(1)] == [(0, 0, 0, 0)]
    with pytest.raises(BudgetError):
        omega(small).atoms(1, budget=3)


def test_atoms_disjoin_once(ctx_k2s2, monkeypatch):
    # the budget gate counts the disjoint rectangles the walk already holds
    union = single_site(ctx_k2s2, 0, 0).union(single_site(ctx_k2s2, 1, 1))
    union = union.union(single_site(ctx_k2s2, 2, 0))
    calls = []
    disjoin = CylinderSet.disjoint_rectangles

    def spy(self, *args):
        calls.append(self)
        return disjoin(self, *args)

    monkeypatch.setattr(CylinderSet, "disjoint_rectangles", spy)
    assert len(union.atoms(1)) == 14
    assert len(calls) == 1


def test_canonical_key_normalizes_constraints(ctx_k2s2):
    ctx = ctx_k2s2
    # over a finite alphabet, notin constraints normalize to in form
    f1 = from_constraints(ctx, {1: constraint_in([0])})
    f2 = from_constraints(ctx, {1: constraint_not_in([1])})
    assert f1.canonical_key() == f2.canonical_key()
    # a complete single-site union is the whole space semantically
    e1 = single_site(ctx, 0, 0).union(single_site(ctx, 0, 1))
    assert e1.is_omega()
    assert e1.semantic_equal(omega(ctx))


def test_render_smoke(ctx_k2s2):
    ctx = ctx_k2s2
    assert empty_set(ctx).render() == "empty"
    assert omega(ctx).render() == "omega"
    assert "x1" in single_site(ctx, 1, 0).render()


def test_render_decides_omega_only_for_unions(ctx_k2s2, monkeypatch):
    ctx = ctx_k2s2
    assert single_site(ctx, 0, 0).union(single_site(ctx, 0, 1)).render() == "omega"

    def refuse(self):
        raise AssertionError("is_omega called")

    monkeypatch.setattr(CylinderSet, "is_omega", refuse)
    pinned = from_constraints(ctx, {0: constraint_in([0]), 2: constraint_not_in([0])})
    assert pinned.render() == "x0=0 & x2=1"
    nat = Context(TreeGeometry(2), SpinSet.naturals())
    assert from_constraints(nat, {1: constraint_not_in([3])}).render() == "x1 notin {3}"
    assert omega(ctx).render() == "omega"
    assert empty_set(ctx).render() == "empty"


def test_runs_match_membership():
    """c_runs against c_contains: normalized constraints and their
    complements over three spins; in and notin sets over the naturals."""
    rng = random.Random(23)
    finite, nat = SpinSet.finite(3), SpinSet.naturals()
    cases = []  # (constraint, spins, cofinite)
    for _ in range(40):
        c = c_normalize(constraint_in(rng.sample(range(3), rng.randint(1, 2))), finite)
        cases += [(c, finite, False), (c_complement(c, finite), finite, False)]
        values = rng.sample(range(12), rng.randint(0, 6))
        if values:
            cases.append((constraint_in(values), nat, False))
        cases.append((constraint_not_in(values), nat, True))
    cases.append((constraint_not_in(set(range(5000)) - {7, 4000}), nat, True))
    for c, spins, cofinite in cases:
        runs = c_runs(c, spins)
        # increasing, non-empty and maximal: no two runs touch
        bounds = [q for run in runs for q in run if q is not None]
        assert all(a < b for a, b in zip(bounds, bounds[1:])), runs
        assert (runs[-1][1] is None) == cofinite
        for q in range(max(c.values, default=0) + 3):
            inside = any(lo <= q and (hi is None or q < hi) for lo, hi in runs)
            assert inside == c_contains(c, q), (c, q)
    assert c_runs(None, finite) == [(0, 3)]
    assert c_runs(None, nat) == [(0, None)]


# Set oracles beyond two spins, over five sites of the depth-2 ball (every
# other site stays free).  Over the naturals every listed value is below M,
# so the quotient atom space {0, ..., M} is exact: the value M stands for
# every spin >= M, and no constraint tells those spins apart.
QUOTIENT_M = 3
ORACLE_SITES = (0, 2, 4, 7, 9)


def quotient_atoms(ctx):
    """Every assignment of the quotient spins to ORACLE_SITES, as tuples
    indexed by vertex over the depth-2 ball."""
    top = ctx.spins.size if ctx.spins.is_finite else QUOTIENT_M + 1
    atoms = []
    for values in itertools.product(range(top), repeat=len(ORACLE_SITES)):
        atom = [0] * ctx.tree.ball_size(2)
        for site, q in zip(ORACLE_SITES, values):
            atom[site] = q
        atoms.append(tuple(atom))
    return atoms


def raw_matches(mapping, atom):
    return all((atom[s] in c.values) == (c.mode == "in") for s, c in mapping.items())


def mixed_mappings(ctx, rng, count):
    """Seeded {site: constraint} dicts, in and notin mixed, values below M."""
    top = ctx.spins.size if ctx.spins.is_finite else QUOTIENT_M
    mappings = []
    for _ in range(count):
        mapping = {}
        for site in rng.sample(ORACLE_SITES, rng.randint(1, 3)):
            vals = rng.sample(range(top), rng.randint(1, top - 1))
            maker = constraint_in if rng.random() < 0.5 else constraint_not_in
            mapping[site] = maker(vals)
        mappings.append(mapping)
    return mappings


@pytest.mark.parametrize("spins", [SpinSet.finite(3), SpinSet.naturals()], ids=["s3", "nat"])
def test_algebra_matches_quotient_atom_sets(spins):
    """intersect, subtract, complement, subset_of, semantic_equal, is_omega,
    first_overlap and disjoint_rectangles against atom sets, on seeded
    unions mixing in and notin."""
    from treemeasure.cylinder import first_overlap

    ctx = Context(TreeGeometry(2), spins)
    atoms = quotient_atoms(ctx)
    everything = set(atoms)

    def atom_set(cyl):
        return {a for a in atoms if cyl.contains(a)}

    rng = random.Random(2027)
    seen = {"subset": set(), "equal": set(), "omega": set(), "overlap": set()}
    for _ in range(30):
        ma, mb = (mixed_mappings(ctx, rng, rng.randint(1, 4)) for _ in range(2))
        a, b = build_from(ctx, ma), build_from(ctx, mb)
        sa = {x for x in atoms if any(raw_matches(m, x) for m in ma)}
        sb = {x for x in atoms if any(raw_matches(m, x) for m in mb)}
        assert atom_set(a) == sa
        assert atom_set(a.intersect(b)) == sa & sb
        assert atom_set(a.subtract(b)) == sa - sb
        assert atom_set(a.complement()) == everything - sa
        # a union that holds a, one spelling a differently, and the whole space
        wide = a.union(b)
        respelled = a.subtract(b).union(a.intersect(b))
        covering = a.union(a.complement())
        for x, y, sx, sy in [(a, b, sa, sb), (b, a, sb, sa), (a, wide, sa, sa | sb),
                             (a, respelled, sa, sa), (covering, a, everything, sa)]:
            assert x.subset_of(y) == (sx <= sy)
            assert x.semantic_equal(y) == (sx == sy)
            seen["subset"].add(sx <= sy)
            seen["equal"].add(sx == sy)
        for x, sx in [(a, sa), (wide, sa | sb), (covering, everything)]:
            assert x.is_omega() == (sx == everything)
            seen["omega"].add(sx == everything)
        for parts, sets in [([a, b, a.complement()], [sa, sb, everything - sa]),
                            ([a.subtract(b), b, a], [sa - sb, sb, sa]),
                            ([a.intersect(b), a.subtract(b), a.complement()],
                             [sa & sb, sa - sb, everything - sa])]:
            expected = next(((i, j) for i, j in itertools.combinations(range(3), 2)
                             if sets[i] & sets[j]), None)
            assert first_overlap(parts) == expected
            seen["overlap"].add(expected)
        for e, se in [(a, sa), (wide, sa | sb), (covering, everything)]:
            pieces = [atom_set(CylinderSet.build(ctx, [r])) for r in e.disjoint_rectangles()]
            assert sum(len(p) for p in pieces) == len(se)
            assert set().union(*pieces) == se
    # every predicate came out both ways; both overlaps and none were found
    assert seen == {"subset": {True, False}, "equal": {True, False},
                    "omega": {True, False}, "overlap": {(0, 1), (0, 2), (1, 2), None}}


def test_budget_bounds_a_wide_cascade(ctx_k2s2):
    # the union of 17 pinned pairs x(2i) = x(2i+1) = 0: its complement has
    # 2**17 disjoint pieces, 65,536 of them after the 16th cut, past the
    # default budget; so do its disjoint form and the cascade that finds the
    # union with both values at x34 covering everything
    ctx = ctx_k2s2
    pairs = CylinderSet.build(ctx, [
        make_rectangle(ctx, {2 * i: constraint_in([0]), 2 * i + 1: constraint_in([0])})
        for i in range(17)
    ])
    whole = pairs.union(single_site(ctx, 34, 0)).union(single_site(ctx, 34, 1))
    with pytest.raises(BudgetError):
        pairs.complement()
    with pytest.raises(BudgetError):
        whole.is_omega()
    with pytest.raises(BudgetError):
        pairs.disjoint_rectangles()
    # the budget bounds the pieces after each cut: five pairs leave 32
    # pieces of omega after the fifth, and 31 disjoint pieces in all; a
    # first call within the budget does not spare a later, smaller one
    five = CylinderSet.build(ctx, pairs.rectangles[:5])
    covered = five.union(single_site(ctx, 10, 0)).union(single_site(ctx, 10, 1))
    assert len(five.complement(budget=32).rectangles) == 32
    assert omega(ctx).subset_of(covered, budget=32)
    assert len(five.disjoint_rectangles(budget=31)) == 31
    for call in (lambda: five.complement(budget=31),
                 lambda: omega(ctx).subset_of(covered, budget=31),
                 lambda: five.disjoint_rectangles(budget=30)):
        with pytest.raises(BudgetError):
            call()


def test_subset_of_never_true_past_its_budget():
    ctx = Context(TreeGeometry(2), SpinSet.finite(3))
    pinned = from_constraints(
        ctx, {0: constraint_in([0]), 1: constraint_in([0]), 2: constraint_in([0])}
    )
    whole = pinned.union(pinned.complement())
    assert omega(ctx).subset_of(whole) and whole.is_omega()
    with pytest.raises(BudgetError):
        omega(ctx).subset_of(whole, budget=1)
    with pytest.raises(BudgetError):
        omega(ctx).semantic_equal(whole, budget=1)


def test_random_cylinder_over_the_naturals(nat_ctx):
    events = [random_cylinder(nat_ctx, random.Random(5)) for _ in range(2)]
    assert events[0] == events[1]
    rng = random.Random(5)
    events = [random_cylinder(nat_ctx, rng) for _ in range(40)]
    assert all(1 <= len(e.rectangles) <= 3 and e.base_depth <= 2 for e in events)
    constraints = [c for e in events for r in e.rectangles for _, c in r.items]
    assert {c.mode for c in constraints} == {"in", "notin"}
    assert all(max(c.values) < 8 for c in constraints)


def test_configuration_restrict_and_value_at_on_many_sites():
    """restrict and value_at on 4,000 sites against a dict oracle (both were
    quadratic: restrict built the wanted set again for every site)."""
    rng = random.Random(4000)
    sites = sorted(rng.sample(range(100_000), 4000))
    oracle = {v: rng.randrange(5) for v in sites}
    config = Configuration(tuple(sites), tuple(oracle[v] for v in sites))
    for v in sites:
        assert config.value_at(v) == oracle[v]
    with pytest.raises(KeyError):
        config.value_at(100_000)
    assert config.restrict(sites) == config
    wanted = rng.sample(sites, 1500) + [100_001, 100_002]
    kept = config.restrict(reversed(wanted))
    assert kept.as_mapping() == {v: oracle[v] for v in wanted if v in oracle}
    assert list(kept.sites) == sorted(kept.sites)
    assert config.restrict(iter(sites[:3])).values == tuple(oracle[v] for v in sites[:3])


K2S2 = Context(TreeGeometry(2), SpinSet.finite(2))
K3S2 = Context(TreeGeometry(3), SpinSet.finite(2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: SpinSet.finite(0), ValueError, "finite spin set needs size >= 1, got 0"),
    (lambda: single_site(K2S2, 0, 0).union(single_site(K3S2, 0, 0)), ContextMismatchError,
     "operands live over different contexts"),
    (lambda: Configuration((0, 1), (0,)), ValueError, "sites and values must have equal length"),
    (lambda: Configuration.on_ball(K2S2, 1, (0,)), ValueError,
     "need 4 values for the depth-1 ball, got 1"),
    (lambda: single_site(K2S2, 4, 0).atom_count(1), ValueError,
     "enumeration depth below base depth"),
    (lambda: single_site(K2S2, 4, 0).atoms(1), ValueError, "enumeration depth below base depth"),
    (lambda: generator_decomposition(K2S2, 4, 0, 1), ValueError,
     "vertex 4 lies outside the depth-1 ball"),
], ids=["spinset-size", "union-ctx", "configuration-lengths", "on_ball-length",
        "atom_count-depth", "atoms-depth", "generator-depth"])
def test_public_guards_raise_their_documented_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


# past the interpreter's 4,300-digit int-to-str limit; NINES is the longest
# tree order a spec may name
HUGE = 10**5000
DIGITS = render_value(HUGE)
NINES = int("9" * 4300)
NAT = Context(TreeGeometry(2), SpinSet.naturals())
TREE_DOC = "[tree]\nk = 2\n[spins]\nkind = nat\n[family]\nkind = product\nw = const 1\n"


@pytest.mark.parametrize("call, error, text", [
    (lambda: single_site(NAT, 0, HUGE).render(), None, f"x0={DIGITS}"),
    (lambda: from_constraints(NAT, {0: constraint_not_in([HUGE])}).render(), None,
     f"x0 notin {{{DIGITS}}}"),
    (lambda: SpinSet.naturals().check(-HUGE), SpinRangeError, f"spin -{DIGITS} out of range for nat"),
    (lambda: str(SpinSet.finite(HUGE)), None, f"finite({DIGITS})"),
    (lambda: TreeGeometry(2).check_vertex(HUGE), DepthLimitError,
     f"vertex {DIGITS} lies beyond depth max_depth 16"),
    (lambda: TreeGeometry(2).check_depth(HUGE), DepthLimitError,
     f"depth {DIGITS} exceeds max_depth 16"),
    (lambda: Configuration.on_ball(Context(TreeGeometry(NINES), SpinSet.finite(2)), 1, (0,)),
     ValueError, f"need {render_value(NINES + 2)} values for the depth-1 ball, got 1"),
    (lambda: table_family(K2S2, 0, {(HUGE,): 1}), SpinRangeError,
     f"entry ({DIGITS},): spins must lie in finite(2)"),
    (lambda: render_document(dataclasses.replace(parse_document(TREE_DOC), order=HUGE)),
     None, f"[tree]\nk = {DIGITS}\nmax_depth = 16\n"),
], ids=["single_site", "notin", "spin-check", "spin-set-str", "check_vertex", "check_depth",
        "on_ball", "table-entry", "render_document"])
def test_numbers_past_the_digit_limit_render_exactly(call, error, text):
    # each ends in its own value or documented error, never the
    # interpreter's digit-limit ValueError
    start = time.perf_counter()
    if error is None:
        assert call().startswith(text)
    else:
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == text
    assert time.perf_counter() - start < 1
