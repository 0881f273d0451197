import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from treemeasure import measure as measure_module
from treemeasure import (
    BudgetError,
    Configuration,
    Context,
    ContextMismatchError,
    ExtensionHandle,
    FamilyDepthError,
    INFINITE,
    MassError,
    MeasureFamily,
    NatSeq,
    SpinRangeError,
    SpinSet,
    TransitionKernel,
    TreeGeometry,
    TreeMeasureError,
    VerificationError,
    check_consistency,
    constraint_in,
    constraint_not_in,
    from_configuration,
    from_constraints,
    markov_family,
    marginal_table,
    omega,
    product_family,
    random_consistent_family,
    scale,
    single_site,
    table_family,
    value_add,
    value_mul,
    value_pow,
    value_sub,
)

from test_cli import FUZZ_NUMBERS

F = Fraction


def test_value_arithmetic_conventions():
    assert value_add(F(1, 3), F(1, 6)) == F(1, 2)
    assert value_add(F(1, 2), INFINITE) == INFINITE
    assert value_mul(F(2, 3), F(3, 4)) == F(1, 2)
    # the measure-theoretic convention: zero absorbs the infinite factor
    assert value_mul(F(0), INFINITE) == 0
    assert value_mul(INFINITE, F(0)) == 0
    assert value_mul(INFINITE, F(1, 7)) == INFINITE
    assert value_pow(F(1, 2), 3) == F(1, 8)
    assert value_pow(INFINITE, 2) == INFINITE
    assert value_pow(INFINITE, 0) == 1
    assert value_sub(INFINITE, F(5)) == INFINITE
    assert value_sub(F(1), F(1, 4)) == F(3, 4)


def test_value_arithmetic_int_operands_and_zero_times_infinity():
    assert value_add(1, F(1, 2)) == F(3, 2)
    assert value_add(2, INFINITE) == INFINITE
    assert value_mul(3, F(1, 6)) == F(1, 2)
    assert value_mul(0, F(5)) == 0
    assert value_mul(2, INFINITE) == INFINITE
    assert value_mul(0, INFINITE) == 0
    for zero_times_infinity in (value_mul(F(0), INFINITE), value_mul(INFINITE, F(0))):
        assert type(zero_times_infinity) is Fraction and zero_times_infinity == 0


def test_natseq_sums():
    geo = NatSeq.geometric(F(1, 2), F(1, 2))
    assert geo.value_at(0) == F(1, 2)
    assert geo.value_at(3) == F(1, 16)
    assert geo.sum_all() == 1
    assert geo.sum_from(2) == F(1, 4)
    assert geo.sum_in([0, 2]) == F(1, 2) + F(1, 8)
    assert geo.sum_not_in([0]) == F(1, 2)
    const = NatSeq.constant(1)
    assert const.sum_all() == INFINITE
    assert const.sum_not_in([3, 5]) == INFINITE
    assert const.sum_in(range(10)) == 10
    mixed = NatSeq((F(1), F(2)), "geometric", F(1, 4), F(1, 2))
    assert mixed.value_at(1) == 2
    assert mixed.value_at(2) == F(1, 4)
    assert mixed.value_at(4) == F(1, 16)
    assert mixed.sum_all() == 1 + 2 + F(1, 2)
    assert mixed.sum_from(3) == F(1, 4)
    fin = NatSeq.finite([F(1, 2), F(1, 3)])
    assert fin.sum_all() == F(5, 6)
    assert fin.value_at(17) == 0
    scaled = geo.scaled(F(3))
    assert scaled.sum_all() == 3
    with pytest.raises(ValueError):
        NatSeq.geometric(F(1, 2), F(3, 2))


def test_transition_kernel_rows():
    spins = SpinSet.finite(2)
    kern = TransitionKernel.from_matrix(spins, [[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]])
    assert kern.entry(0, 1) == F(1, 3)
    assert kern.row_sum(0) == 1
    assert kern.is_stochastic()
    nat = TransitionKernel.for_naturals(
        NatSeq.geometric(F(1, 2), F(1, 2)),
        rows={0: NatSeq.finite([F(1, 2)])},
    )
    assert nat.entry(0, 0) == F(1, 2)
    assert nat.entry(0, 5) == 0
    assert nat.entry(7, 2) == F(1, 8)
    assert nat.row_sum(0) == F(1, 2)
    assert nat.row_sum(3) == 1
    assert not nat.is_stochastic()


def test_chain_atom_weights(chain_fam):
    mu1 = chain_fam.measure(1)
    # root 0 then three children copying it: 1/2 * (2/3)**3
    assert mu1.atom_weight((0, 0, 0, 0)) == F(4, 27)
    assert mu1.atom_weight((0, 1, 1, 1)) == F(1, 2) * F(1, 27)
    assert mu1.atom_weight((1, 0, 1, 0)) == F(1, 2) * F(2, 3) * F(1, 3) ** 2
    assert mu1.mass() == 1


def test_chain_atom_agrees_with_deeper_sum(chain_fam):
    # the same atom weight recovered by summing its 2**6 depth-2 extensions
    mu1, mu2 = chain_fam.measure(1), chain_fam.measure(2)
    target = (0, 0, 0, 0)
    total = F(0)
    for tail in itertools.product(range(2), repeat=6):
        total += mu2.atom_weight(target + tail)
    assert total == mu1.atom_weight(target) == F(4, 27)


def assert_matches_atom_sums(mu, seed, count=30):
    """measure_of against the sum of the atoms each random cylinder holds."""
    from treemeasure import random_cylinder

    table = mu.dense_table()
    rng = random.Random(seed)
    for _ in range(count):
        e = random_cylinder(mu.ctx, rng, max_depth=mu.depth)
        brute = sum((w for k, w in table.items() if e.contains(k)), F(0))
        assert mu.measure_of(e) == brute, e.render()


def test_measure_of_matches_atom_sums(chain_fam, ctx_k2s2):
    ctx = ctx_k2s2
    mu2 = chain_fam.measure(2)
    assert_matches_atom_sums(mu2, 314)
    assert mu2.measure_of(single_site(ctx, 0, 0)) == F(1, 2)
    assert mu2.measure_of(from_constraints(ctx, {0: constraint_not_in([0])})) == F(1, 2)
    assert mu2.measure_of(omega(ctx)) == 1


ATOM_SUM_FAMILIES = {
    # row sums 1/2 and 3/4: free subtrees contribute depth-dependent factors
    "substochastic_s2_k2_depth2": lambda: markov_family(
        Context(TreeGeometry(2), SpinSet.finite(2)),
        [F(1, 2), F(1, 3)], [[F(1, 3), F(1, 6)], [F(1, 4), F(1, 2)]],
    ).measure(2),
    "substochastic_s2_k1_depth3": lambda: markov_family(
        Context(TreeGeometry(1), SpinSet.finite(2)),
        [F(1, 2), F(1, 3)], [[F(1, 3), F(1, 6)], [F(1, 4), F(1, 2)]],
    ).measure(3),
    "chain_s3_k1_depth3": lambda: markov_family(
        Context(TreeGeometry(1), SpinSet.finite(3)),
        [F(1, 2), F(1, 4), F(1, 4)],
        [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 6), F(2, 3), F(1, 6)], [F(1, 4), F(1, 4), F(1, 2)]],
    ).measure(3),
    # default row sum 5/6; vertex 5 has mass 2, vertex 11 lies beyond the ball
    "product_overrides_k2_depth2": lambda: product_family(
        Context(TreeGeometry(2), SpinSet.finite(2)),
        [F(1, 3), F(1, 2)],
        {0: [F(1, 4), F(3, 4)], 5: [F(0), F(2)], 11: [F(1), F(1)]},
    ).measure(2),
}


@pytest.mark.parametrize("name", sorted(ATOM_SUM_FAMILIES))
def test_measure_of_matches_atom_sums_other_families(name):
    assert_matches_atom_sums(ATOM_SUM_FAMILIES[name](), 2718)


@pytest.mark.parametrize("name", sorted(ATOM_SUM_FAMILIES))
def test_dense_table_matches_atom_weights(name):
    """Enumeration against atom_weight, a separate per-atom code path."""
    mu = ATOM_SUM_FAMILIES[name]()
    size = mu.ctx.tree.ball_size(mu.depth)
    atoms = itertools.product(range(mu.ctx.spins.size), repeat=size)
    expected = {a: w for a in atoms if (w := mu.atom_weight(a))}
    assert mu.dense_table() == expected


def test_product_over_naturals_zero_and_infinite_factors(nat_ctx):
    ctx = nat_ctx
    counting = NatSeq.constant(1)
    geo = NatSeq.geometric(F(1, 2), F(1, 2))
    # one zero-mass site absorbs the infinite mass of all the others
    absorbed = product_family(ctx, counting, {5: NatSeq.finite([0])}).measure(2)
    assert absorbed.mass() == 0
    assert absorbed.measure_of(single_site(ctx, 0, 3)) == 0
    # no zero factor: the free sites' infinite mass makes the value infinite
    diverging = product_family(ctx, counting, {2: geo}).measure(1)
    assert diverging.measure_of(single_site(ctx, 2, 0)) == INFINITE
    # every site pinned: finite, the geometric site contributes 1/2
    pinned = from_constraints(ctx, {v: constraint_in([0]) for v in range(4)})
    assert diverging.measure_of(pinned) == F(1, 2)
    # vertices 20 and 21 lie at level 3: ignored at depth 2, in the ball at depth 3
    fam = product_family(ctx, geo, {20: counting, 21: NatSeq.finite([0])})
    mu2 = fam.measure(2)
    assert mu2.mass() == 1
    assert mu2.measure_of(single_site(ctx, 4, 0)) == F(1, 2)
    assert fam.measure(3).mass() == 0
    assert product_family(ctx, geo, {20: counting}).measure(3).mass() == INFINITE


def test_product_equals_uniform_chain(ctx_k2s2, uniform_fam):
    ctx = ctx_k2s2
    chain = markov_family(
        ctx, [F(1, 2), F(1, 2)], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    )
    t1 = uniform_fam.measure(2).dense_table()
    t2 = chain.measure(2).dense_table()
    assert t1 == t2
    assert all(w == F(1, 1024) for w in t1.values())
    assert len(t1) == 1024


def test_product_overrides(ctx_k2s2):
    ctx = ctx_k2s2
    fam = product_family(ctx, [F(1, 2), F(1, 2)], overrides={1: (F(1, 4), F(3, 4))})
    mu = fam.measure(1)
    assert mu.atom_weight((0, 0, 0, 0)) == F(1, 2) * F(1, 4) * F(1, 2) * F(1, 2)
    assert mu.atom_weight((0, 1, 0, 0)) == F(1, 2) * F(3, 4) * F(1, 2) * F(1, 2)
    assert mu.mass() == 1


def test_project_routes_agree(chain_fam):
    mu3 = chain_fam.measure(3)
    closed = mu3.project(1, method="closed")
    enum = mu3.project(1, method="enumerate")
    assert closed.dense_table() == enum.dense_table()
    auto = mu3.project(0, method="auto")
    assert auto.dense_table() == {(0,): F(1, 2), (1,): F(1, 2)}
    # the product closed form folds the dropped sites' mass into the root
    mu2 = ATOM_SUM_FAMILIES["product_overrides_k2_depth2"]()
    for i in (0, 1):
        closed = mu2.project(i, method="closed")
        enum = mu2.project(i, method="enumerate")
        assert closed.dense_table() == enum.dense_table()


def test_atom_weight_on_a_table_form(ctx_k2s2):
    table = {(0, 1, 1, 0): F(1, 3), (1, 1, 1, 1): F(2, 3)}
    mu = table_family(ctx_k2s2, 1, table).measure(1)
    assert mu.atom_weight((0, 1, 1, 0)) == F(1, 3)
    assert mu.atom_weight([1, 1, 1, 1]) == F(2, 3)
    assert mu.atom_weight((0, 0, 0, 0)) == 0
    with pytest.raises(ValueError, match="need 4 values, got 3"):
        mu.atom_weight((0, 1, 1))


def test_project_to_own_depth_is_the_measure(chain_fam):
    mu = chain_fam.measure(2)
    for method in ("auto", "enumerate", "closed"):
        assert mu.project(2, method=method) is mu
    with pytest.raises(ValueError, match=r"projection depth 3 outside 0\.\.2"):
        mu.project(3)


def test_project_product_with_unsummable_dropped_sites_diverges(nat_ctx):
    mu = product_family(nat_ctx, NatSeq.constant(1)).measure(1)
    with pytest.raises(MassError, match="^marginal diverges: dropped site weights are not summable$"):
        mu.project(0)


def test_project_nonstochastic_chain_over_naturals_has_no_marginal(nat_ctx):
    kernel = TransitionKernel.for_naturals(NatSeq.geometric(F(1, 4), F(1, 2)))
    mu = markov_family(nat_ctx, NatSeq.geometric(F(1, 2), F(1, 2)), kernel).measure(2)
    message = (
        "^no closed-form marginal for a non-stochastic kernel over the denumerable spin set$"
    )
    with pytest.raises(MassError, match=message):
        mu.project(1)
    with pytest.raises(ValueError, match="^no closed-form marginal for a non-stochastic kernel$"):
        mu.project(1, method="closed")


def test_zero_scaled_table_omits_zero_atoms(ctx_k2s2):
    table = {key: F(1, 16) for key in itertools.product(range(2), repeat=4)}
    mu1 = scale(table_family(ctx_k2s2, 1, table), 0).measure(1)
    assert mu1.dense_table() == {}
    assert mu1.project(0).dense_table() == {}
    assert mu1.project(0, method="enumerate").dense_table() == {}


def test_project_nonstochastic_finite_falls_back(ctx_k2s2):
    ctx = ctx_k2s2
    fam = markov_family(ctx, [F(1, 2), F(1, 2)], [[F(2, 3), F(1, 2)], [F(1, 3), F(2, 3)]])
    mu1 = fam.measure(1)
    with pytest.raises(ValueError):
        mu1.project(0, method="closed")
    table = mu1.project(0).dense_table()
    assert table[(0,)] == F(1, 2) * F(7, 6) ** 3
    assert table[(1,)] == F(1, 2) * 1 ** 3


def test_project_product_folds_dropped_mass(ctx_k2s2):
    ctx = ctx_k2s2
    # per-site mass 3/2: dropping depth-1 sites multiplies by (3/2)**3
    fam = product_family(ctx, [F(1, 2), F(1)])
    mu1 = fam.measure(1)
    mu0 = mu1.project(0)
    assert mu0.dense_table() == {(0,): F(27, 16), (1,): F(27, 8)}
    assert mu0.mass() == mu1.mass() == F(81, 16)


def test_product_projection_costs_what_its_overrides_cost():
    # the depth-30 ball has 3 * 2**30 - 2 sites; every dropped site carries
    # the default row sum 1 except two overrides, with sums 2 and 1/3
    ctx = Context(TreeGeometry(2, 30), SpinSet.finite(2))
    deep = ctx.tree.ball_size(29) + 5
    fam = product_family(ctx, [F(1, 2), F(1, 2)], overrides={
        2: (F(1, 4), F(3, 4)), 7: (F(1), F(1)), deep: (F(1, 6), F(1, 6))})
    start = time.perf_counter()
    mu1 = fam.measure(30).project(1)
    assert time.perf_counter() - start < 1
    assert mu1.mass() == F(2, 3)
    assert mu1.dense_table() == {
        key: F(2, 3) * w for key, w in fam.measure(1).dense_table().items()
    }


def test_scaled_product_matches_atom_weight_sums(ctx_k2s2):
    ctx = ctx_k2s2
    fam = product_family(ctx, [F(1, 2), F(1, 2)],
                         overrides={0: (F(1, 3), F(2, 3)), 4: (F(1, 5), F(3, 5))})
    c = F(5, 2)
    scaled = scale(fam, c)
    events = [
        omega(ctx), single_site(ctx, 0, 1), single_site(ctx, 2, 0),
        from_constraints(ctx, {1: constraint_in([1]), 4: constraint_not_in([0])}),
    ]
    for n in range(3):
        mu, base = scaled.measure(n), fam.measure(n)
        for event in (e for e in events if e.base_depth <= n):
            ball = itertools.product(range(2), repeat=ctx.tree.ball_size(n))
            atoms = [a for a in ball if event.contains(a)]
            value = mu.measure_of(event)
            assert value == sum((mu.atom_weight(a) for a in atoms), F(0))
            assert value == c * sum((base.atom_weight(a) for a in atoms), F(0))


def test_one_spin_enumeration_is_the_single_atom():
    # the enumeration's one atom against the evaluators' mass; a walk over
    # more sites than the budget is refused
    ctx = Context(TreeGeometry(2, 12), SpinSet.finite(1))
    families = [
        markov_family(ctx, [F(1, 2)], [[F(2, 3)]]),
        product_family(ctx, [F(3, 2)], overrides={0: [F(1, 5)], 5: [F(0)]}),
        product_family(ctx, [F(3, 2)], overrides={0: [F(1, 5)], 5: [F(2)]}),
    ]
    for fam in families:
        for n in range(4):
            mu = fam.measure(n)
            mass = mu.mass()
            assert mu.dense_table() == ({(0,) * ctx.tree.ball_size(n): mass} if mass else {})
            with pytest.raises(BudgetError):
                mu.dense_table(budget=ctx.tree.ball_size(n) - 1)
    assert check_consistency(families[0], 10).violation.j == 1
    huge = Context(TreeGeometry(10**20), SpinSet.finite(1))
    with pytest.raises(BudgetError):
        markov_family(huge, [F(1)], [[F(1)]]).measure(1).dense_table()


def test_consistency_of_stochastic_chain(chain_fam):
    report = check_consistency(chain_fam, 2)
    assert report.ok
    assert report.method == "enumeration"
    assert report.verified_depth == 2
    assert report.exhaustive


def test_consistency_violation_witness(ctx_k2s2):
    ctx = ctx_k2s2
    broken = markov_family(
        ctx, [F(1, 2), F(1, 2)], [[F(2, 3), F(1, 2)], [F(1, 3), F(2, 3)]]
    )
    report = check_consistency(broken, 2)
    assert not report.ok
    v = report.violation
    assert (v.i, v.j) == (0, 1)
    assert v.witness.contains((0, 0, 0, 0))
    assert not v.witness.contains((1, 0, 0, 0))
    assert v.lhs == F(343, 432)
    assert v.rhs == F(1, 2)
    assert "!=" in v.render()


def test_consistency_violation_below_depth_one(ctx_k2s2):
    # vertex 4 lies at level 2; its weights sum to 3/4, so depths 0 and 1
    # agree and depth 2 marginalizes to 3/4 of depth 1
    fam = product_family(ctx_k2s2, [F(1, 2), F(1, 2)], {4: [F(1, 4), F(1, 2)]})
    report = check_consistency(fam, 3)
    assert report.verified_depth == 1
    v = report.violation
    assert (v.i, v.j) == (1, 2)
    assert v.witness.contains((0, 0, 0, 0))
    assert not v.witness.contains((0, 0, 0, 1))
    assert (v.lhs, v.rhs) == (F(3, 64), F(1, 16))


def test_consistency_nat_closed_row(counting_fam):
    report = check_consistency(counting_fam, 3)
    assert report.ok
    assert report.method == "closed-row"
    assert report.verified_depth == 3


def test_consistency_nat_probe_violation(nat_ctx):
    # explicit row at 0 sums to 1/2: unit root weights cannot marginalize back
    kern = TransitionKernel.for_naturals(
        NatSeq.geometric(F(1, 2), F(1, 2)),
        rows={0: NatSeq.finite([F(1, 2)])},
    )
    fam = markov_family(nat_ctx, NatSeq.constant(1), kern)
    report = check_consistency(fam, 2)
    assert not report.ok
    assert report.method == "probes"
    assert not report.exhaustive
    v = report.violation
    assert (v.i, v.j) == (0, 1)
    assert v.lhs == F(1, 8)
    assert v.rhs == 1


def test_consistency_nat_probes_at_depth_two(nat_ctx):
    # only root spin 0 carries weight, and its row sums to 1: the default
    # row's sum of 2/3 is never reached, so the depth-2 probes all agree
    kern = TransitionKernel.for_naturals(
        NatSeq.geometric(F(1, 3), F(1, 2)), rows={0: NatSeq.finite([1])}
    )
    report = check_consistency(markov_family(nat_ctx, NatSeq.finite([1]), kern), 2)
    assert report.ok
    assert (report.verified_depth, report.method, report.exhaustive) == (2, "probes", False)
    # vertex 4 sits at level 2 and its weights sum to 1/2
    fam = product_family(
        nat_ctx, NatSeq.geometric(F(1, 2), F(1, 2)), {4: NatSeq.geometric(F(1, 4), F(1, 2))}
    )
    report = check_consistency(fam, 2)
    v = report.violation
    assert (v.i, v.j, v.witness.render(), v.lhs, v.rhs) == (0, 2, "x0=0", F(1, 4), F(1, 2))
    assert (report.verified_depth, report.method) == (1, "probes")


def test_consistency_nat_closed_row_needs_one_form_at_every_depth(nat_ctx):
    # each family doubles its weights from depth 1 on: x0=0 weighs 1/2 at
    # depth 0 and 1 at depth 1, which depth 0's row sums cannot tell
    half = NatSeq.geometric(F(1, 2), F(1, 2))
    chain = markov_family(nat_ctx, half, TransitionKernel.for_naturals(half))
    for fam in (chain, product_family(nat_ctx, half)):
        doubled = MeasureFamily(
            nat_ctx, lambda n, fam=fam: fam.measure(n).scaled(1 + (n > 0)), "finite"
        )
        report = check_consistency(doubled, 2)
        v = report.violation
        assert (report.method, report.exhaustive, report.verified_depth) == ("probes", False, 0)
        assert (v.i, v.j, v.witness.render(), v.lhs, v.rhs) == (0, 1, "x0=0", 1, F(1, 2))
        with pytest.raises(VerificationError, match="family is not consistent"):
            ExtensionHandle.issue(doubled, verify_depth=2)
        # scaled alike at every depth, a family keeps the exact route
        report = check_consistency(scale(fam, 3), 2)
        assert (report.method, report.exhaustive, report.verified_depth) == ("closed-row", True, 2)


def test_nat_chain_hand_values():
    ctx = Context(TreeGeometry(1), SpinSet.naturals())
    kern = TransitionKernel.for_naturals(
        NatSeq.geometric(F(1, 2), F(1, 2)),
        rows={0: NatSeq.finite([F(1, 2)])},
    )
    fam = markov_family(ctx, NatSeq.finite([F(1, 2)]), kern)
    # root forced to 0; its two branches each carry row sum 1/2
    assert fam.mass(1) == F(1, 8)
    # depth 2: each branch forces value 0 again, then weight 1/2 per edge
    assert fam.mass(2) == F(1, 32)
    mu1 = fam.measure(1)
    assert mu1.measure_of(single_site(ctx, 1, 0)) == F(1, 8)
    assert mu1.measure_of(single_site(ctx, 1, 1)) == 0


def test_counting_family_values(nat_ctx, counting_fam):
    ctx = nat_ctx
    mu1 = counting_fam.measure(1)
    assert counting_fam.mass(0) == INFINITE
    assert mu1.measure_of(single_site(ctx, 0, 3)) == 1
    assert mu1.measure_of(single_site(ctx, 1, 0)) == INFINITE
    e = from_constraints(ctx, {0: constraint_in([2]), 1: constraint_in([0])})
    assert mu1.measure_of(e) == F(1, 2)
    # cofinite root constraint keeps infinite mass
    assert mu1.measure_of(from_constraints(ctx, {0: constraint_not_in([0, 1])})) == INFINITE


def test_table_family_consistent_by_construction(ctx_k2s2):
    ctx = ctx_k2s2
    rng = random.Random(8)
    table = {
        key: F(rng.randint(1, 10), 10)
        for key in itertools.product(range(2), repeat=4)
    }
    fam = table_family(ctx, 1, table)
    assert fam.declared_consistent_to == 1
    report = check_consistency(fam, 1)
    assert report.ok
    mu0 = fam.measure(0)
    assert mu0.dense_table()[(0,)] == sum(
        w for k, w in table.items() if k[0] == 0
    )
    with pytest.raises(FamilyDepthError):
        fam.measure(2)


def test_random_consistent_family_deterministic(ctx_k2s2):
    ctx = ctx_k2s2
    a = random_consistent_family(ctx, 71, 2)
    b = random_consistent_family(ctx, 71, 2)
    c = random_consistent_family(ctx, 72, 2)
    ta = a.measure(2).dense_table()
    assert ta == b.measure(2).dense_table()
    assert ta != c.measure(2).dense_table()
    assert check_consistency(a, 2).ok


def test_random_consistent_family_draws_in_atom_order(ctx_k2s2):
    # the weights follow the atoms' lexicographic order, seed by seed
    table = random_consistent_family(ctx_k2s2, 71, 1).measure(1).dense_table()
    assert sorted(table.items())[:4] == [
        ((0, 0, 0, 0), F(7, 16)),
        ((0, 0, 0, 1), F(11, 16)),
        ((0, 0, 1, 0), F(5, 6)),
        ((0, 0, 1, 1), F(1, 48)),
    ]


def test_random_consistent_family_one_spin_walks_are_budgeted():
    # one atom, but a walk over 10**20 + 2 sites, or over 12,286 sites
    # against a budget of 1000
    started = time.perf_counter()
    with pytest.raises(BudgetError):
        random_consistent_family(Context(TreeGeometry(10**20), SpinSet.finite(1)), 1, 1)
    with pytest.raises(BudgetError):
        random_consistent_family(
            Context(TreeGeometry(2, 40), SpinSet.finite(1)), 1, 12, budget=1000
        )
    assert time.perf_counter() - started < 1


def test_scale_family(chain_fam, ctx_k2s2):
    scaled = scale(chain_fam, F(7, 3))
    assert scaled.kind == "finite"
    assert scaled.mass(1) == F(7, 3)
    mu = scaled.measure(2)
    base = chain_fam.measure(2)
    e = single_site(ctx_k2s2, 2, 1)
    assert mu.measure_of(e) == F(7, 3) * base.measure_of(e)
    with pytest.raises(ValueError):
        scale(chain_fam, -1)


def test_marginal_table(chain_fam):
    # joint law of the root and one grandchild
    joint = marginal_table(chain_fam, [0, 4])
    assert joint[(0, 0)] == F(1, 2) * (F(2, 3) * F(2, 3) + F(1, 3) * F(1, 3))
    assert joint[(0, 1)] == F(1, 2) * (F(2, 3) * F(1, 3) + F(1, 3) * F(2, 3))
    assert sum(joint.values()) == 1
    root = marginal_table(chain_fam, [0])
    assert root == {(0,): F(1, 2), (1,): F(1, 2)}


def test_dense_table_budget(chain_fam, counting_fam):
    with pytest.raises(BudgetError):
        chain_fam.measure(2).dense_table(budget=100)
    # a naturals measure cannot materialize a dense table
    with pytest.raises(SpinRangeError):
        counting_fam.measure(1).dense_table()


def test_dense_table_passes_its_budget(monkeypatch):
    # 4**13 atoms on the depth-12 ball of a path: within 2**26, past the
    # default budget of 2**24
    ctx = Context(TreeGeometry(1, 12), SpinSet.finite(4))
    fam = markov_family(ctx, [F(1, 4)] * 4, [[F(1, 4)] * 4] * 4)
    seen = []

    def spy(mu, i, budget):
        seen.append(budget)
        return {}

    monkeypatch.setattr(measure_module, "_enumerate_marginal", spy)
    fam.measure(12).dense_table(budget=2**26)
    marginal_table(fam, [24], budget=2**26)
    assert seen == [2**26, 2**26]


def test_inconclusive_value_render():
    from treemeasure import render_value

    assert render_value(INFINITE) == "inf"
    assert render_value(F(5)) == "5"
    assert render_value(F(2, 7)) == "2/7"
    assert math.isinf(INFINITE)


def test_finite_spin_weights(ctx_k2s2):
    kern = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    with pytest.raises(SpinRangeError):
        product_family(ctx_k2s2, NatSeq.geometric(F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        markov_family(ctx_k2s2, [F(1)], kern)
    with pytest.raises(ValueError):
        markov_family(ctx_k2s2, [F(-1), F(2)], kern)
    # a tail-free NatSeq is the same weights as the list
    fam = markov_family(ctx_k2s2, NatSeq.finite([F(1, 2), F(1, 2)]), kern)
    assert fam.kind == "probability"


def test_family_kind_inference(ctx_k2s2, nat_ctx):
    prob = markov_family(ctx_k2s2, [F(1, 2), F(1, 2)], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    assert prob.kind == "probability"
    fin = markov_family(ctx_k2s2, [F(1, 4), F(1, 4)], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    assert fin.kind == "finite"
    sig = markov_family(
        nat_ctx, NatSeq.constant(1),
        TransitionKernel.for_naturals(NatSeq.geometric(F(1, 2), F(1, 2))),
    )
    assert sig.kind == "sigma-finite"


# When every level applies the same map (k = 1 or a stochastic kernel), the
# chain evaluator carries a factor through each run of unconstrained skeleton
# vertices with a single skeleton child as one kernel power.  The oracle
# below is the plain pass it replaces: every skeleton vertex applies one
# kernel step, and every free subtree is built one level at a time.


def level_by_level_value(ctx, lam, kernel, depth, constraints):
    """Chain value of one rectangle, {site: SiteConstraint}, at `depth`."""
    tree = ctx.tree
    k = tree.order
    if ctx.spins.is_finite:
        rows, default = [NatSeq.finite(r) for r in kernel.matrix], NatSeq()
        width = ctx.spins.size
    else:
        rows, default = list(kernel.nat_rows), kernel.nat_default
        width = max([len(rows)] + [max(c.values) + 1 for c in constraints.values() if c.values])
    # a function of a spin: its values at 0..width-1, then the value shared
    # by every spin from `width` on
    row = lambda q: rows[q] if q < len(rows) else default  # noqa: E731

    def weighted(seq, c, g):
        total = F(0)
        for r in range(width):
            if c is None or (r in c.values) == (c.mode == "in"):
                total = value_add(total, value_mul(seq.value_at(r), g[r]))
        if c is None or c.mode != "in":
            total = value_add(total, value_mul(g[width], seq.sum_from(width)))
        return total

    def step(c, g):
        return [weighted(row(q), c, g) for q in range(width + 1)]

    free = [[F(1)] * (width + 1)]
    while len(free) <= depth:
        free.append(step(None, [value_pow(x, k) for x in free[-1]]))
    skeleton = {0}
    for site in constraints:
        skeleton.update(tree.path_to_root(site))
    pending = {}
    for v in sorted(skeleton, reverse=True):
        lvl = tree.level(v)
        kids = pending.pop(v, [])
        nfree = 0 if lvl == depth else (k + 1 if v == 0 else k) - len(kids)
        g = [value_pow(x, nfree) for x in free[depth - lvl]]
        for f in kids:
            g = [value_mul(a, b) for a, b in zip(g, f)]
        if v == 0:
            return weighted(lam, constraints.get(0), g)
        pending.setdefault(tree.parent(v), []).append(step(constraints.get(v), g))


def pass_through_runs(tree, sites):
    """Lengths of the runs of unconstrained vertices with one skeleton child
    between two kept skeleton vertices."""
    children = {}
    for site in sites:
        path = tree.path_to_root(site)
        for child, parent in zip(path, path[1:]):
            children.setdefault(parent, set()).add(child)
    runs = []
    for v in set(children) | set(sites):
        if v in sites or v == 0 or len(children.get(v, ())) > 1:
            for child in children.get(v, ()):
                run = 0
                while child not in sites and len(children[child]) == 1:
                    (child,) = children[child]
                    run += 1
                runs.append(run)
    return runs


G = NatSeq.geometric
RUN_LENGTHS = (1, 2, 3, 7, 8, 15, 16)
# name: (order, spins (None: the naturals), lam, kernel, deepest site level)
RUN_FAMILIES = {
    "stochastic_s2_k2": (2, 2, [F(1, 3), F(2, 3)], [[F(3, 4), F(1, 4)], [F(1, 3), F(2, 3)]], 12),
    "stochastic_s3_k2": (
        2, 3, [F(1, 2), F(1, 4), F(1, 4)],
        [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 6), F(2, 3), F(1, 6)], [F(1, 4), F(1, 4), F(1, 2)]],
        12,
    ),
    "stochastic_s2_k1": (1, 2, [F(1, 2), F(1, 2)], [[F(2, 3), F(1, 3)], [F(1, 4), F(3, 4)]], 200),
    # row sums 1/2 and 1/2: free subtrees differ per height, so the evaluator
    # keeps every skeleton vertex
    "substochastic_s2_k2": (2, 2, [F(1, 2), F(1, 2)], [[F(1, 3), F(1, 6)], [F(1, 4), F(1, 4)]], 9),
    "geometric_nat_k2": (
        2, None, G(F(1, 2), F(1, 2)),
        TransitionKernel.for_naturals(
            G(F(1, 3), F(2, 3)),
            {0: G(F(1, 2), F(1, 2)), 1: NatSeq((F(0), F(1, 2)), "geometric", F(1, 4), F(1, 2))},
        ),
        12,
    ),
    # rows from spin 2 on have infinite sums: the kernel's powers hold
    # infinite entries next to zeros, and the root weights keep values finite
    "infinite_row_nat_k1": (
        1, None, NatSeq.finite([F(1, 2), F(1, 3)]),
        TransitionKernel.for_naturals(
            NatSeq.constant(1), [NatSeq.finite([F(1, 2)]), NatSeq.finite([F(1, 3), F(1, 3)])]
        ),
        40,
    ),
    "substochastic_nat_k2": (
        2, None, NatSeq.finite([F(1, 2), F(1, 4)]),
        TransitionKernel.for_naturals(G(F(1, 2), F(1, 2)), {0: NatSeq.finite([F(1, 2)])}),
        8,
    ),
    # a path under a sub-stochastic kernel: free branches are kernel powers
    # applied to 1
    "substochastic_s2_k1": (1, 2, [F(1, 2), F(1, 2)], [[F(1, 3), F(1, 6)], [F(1, 4), F(1, 4)]], 60),
}


@pytest.mark.parametrize("name", sorted(RUN_FAMILIES))
def test_compressed_chain_walk_matches_level_by_level(name):
    order, s, lam, kernel, top = RUN_FAMILIES[name]
    spins = SpinSet.naturals() if s is None else SpinSet.finite(s)
    ctx = Context(TreeGeometry(order, top + 4), spins)
    fam = markov_family(ctx, lam, kernel)
    lam, kernel = fam.measure(0).form.lam, fam.measure(0).form.kernel
    tree = ctx.tree
    rng = random.Random(name)

    def constraint():
        if s is not None:
            return constraint_in(rng.sample(range(s), rng.randint(1, s - 1)))
        values = rng.sample(range(4), rng.randint(1, 2))
        return (constraint_in if rng.random() < 0.6 else constraint_not_in)(values)

    def site_at(lvl):
        return tree.index_of(lvl, rng.randrange(tree.sphere_size(lvl)))

    # one site at level L + 1 leaves a run of L between it and the root
    rects = [{site_at(n + 1): constraint()} for n in RUN_LENGTHS if n + 1 <= top]
    for _ in range(24):
        lvl = rng.randint(1, top)
        sites = {site_at(lvl)} | {site_at(rng.randint(0, lvl)) for _ in range(rng.randint(0, 3))}
        rects.append({v: constraint() for v in sites})
    runs = set()
    for rect in rects:
        runs.update(pass_through_runs(tree, set(rect)))
        base = max(tree.level(v) for v in rect)
        depth = min(base + rng.randint(0, 2), tree.max_depth)
        value = fam.measure(depth).measure_of(from_constraints(ctx, rect))
        assert value == level_by_level_value(ctx, lam, kernel, depth, rect), (rect, depth)
    assert {n for n in RUN_LENGTHS if n < top} <= runs


# Under a stochastic kernel every free subtree weighs 1, so the chain pass
# builds no free factor; under any other kernel it caches one per height.
# (RUN_FAMILIES name, tree order): the stochastic naturals kernel also runs
# on a path.
FREE_FACTOR_CASES = [
    ("stochastic_s2_k1", 1), ("stochastic_s3_k2", 2), ("geometric_nat_k2", 1),
    ("geometric_nat_k2", 2), ("substochastic_s2_k1", 1), ("substochastic_s2_k2", 2),
    ("substochastic_nat_k2", 2),
]


@pytest.mark.parametrize("name, order", FREE_FACTOR_CASES,
                         ids=[f"{name}-order{order}" for name, order in FREE_FACTOR_CASES])
def test_chain_pass_builds_free_factors_only_off_stochastic_kernels(name, order):
    _, s, lam, kernel, _ = RUN_FAMILIES[name]
    spins = SpinSet.naturals() if s is None else SpinSet.finite(s)
    ctx = Context(TreeGeometry(order, 10), spins)
    fam = markov_family(ctx, lam, kernel)
    lam, kernel = fam.measure(0).form.lam, fam.measure(0).form.kernel
    tree = ctx.tree
    rng = random.Random(f"{name}-{order}")

    def constraint():
        if s is not None:
            return constraint_in(rng.sample(range(s), rng.randint(1, s - 1)))
        values = rng.sample(range(4), rng.randint(1, 2))
        return (constraint_in if rng.random() < 0.6 else constraint_not_in)(values)

    def site_at(lvl):
        return tree.index_of(lvl, rng.randrange(tree.sphere_size(lvl)))

    for _ in range(12):
        base = rng.randint(0, 6)
        sites = {site_at(base)} | {site_at(rng.randint(0, base)) for _ in range(rng.randint(0, 2))}
        rect = {v: constraint() for v in sites}
        # valued 0-4 levels below the rectangle's base
        for depth in range(base, base + 5):
            value = fam.measure(depth).measure_of(from_constraints(ctx, rect))
            assert value == level_by_level_value(ctx, lam, kernel, depth, rect), (rect, depth)
    cached = [h for depth in range(11) for h in fam.measure(depth)._free_cache]
    assert (not cached) == kernel.is_stochastic()


# The chain pass runs on ints over a common denominator.  The families below
# are where that is hardest: INFINITE entries next to zero weights over the
# naturals, non-stochastic geometric rows with `notin` sites, and values far
# past machine size.
# name: (order, spins (None: the naturals), lam, kernel, deepest site level,
# evaluation depths added below the deepest site)
INTEGER_WALK_FAMILIES = {
    # spins 0 and 1 only reach spins 0 and 1; every spin from 2 on has an
    # infinite row sum, so free factors hold INFINITE next to the rows' zeros,
    # and the root weights reach spins past 1
    "infinite_row_nat_k2": (
        2, None, NatSeq((F(1, 2), F(1, 3)), "geometric", F(1, 8), F(1, 2)),
        TransitionKernel.for_naturals(
            NatSeq.constant(1), [NatSeq.finite([F(1, 2)]), NatSeq.finite([F(1, 3), F(1, 3)])]
        ),
        5, 2,
    ),
    # row sums 2/3, 5/12 and 3/4: every skeleton vertex is kept
    "geometric_nonstochastic_nat_k2": (
        2, None, G(F(1, 2), F(1, 2)),
        TransitionKernel.for_naturals(
            G(F(1, 4), F(2, 3)),
            {0: G(F(1, 3), F(1, 2)), 1: NatSeq((F(0), F(1, 4)), "geometric", F(1, 6), F(1, 3))},
        ),
        6, 2,
    ),
    "substochastic_s2_k2_depth12": (
        2, 2, [F(1, 2), F(1, 2)], [[F(1, 3), F(1, 6)], [F(1, 4), F(1, 4)]], 12, 0,
    ),
}


@pytest.mark.parametrize("name", sorted(INTEGER_WALK_FAMILIES))
def test_integer_walk_matches_level_by_level(name):
    order, s, lam, kernel, top, below = INTEGER_WALK_FAMILIES[name]
    spins = SpinSet.naturals() if s is None else SpinSet.finite(s)
    ctx = Context(TreeGeometry(order, top + below), spins)
    fam = markov_family(ctx, lam, kernel)
    lam, kernel = fam.measure(0).form.lam, fam.measure(0).form.kernel
    tree = ctx.tree
    rng = random.Random(name)

    def constraint():
        if s is not None:
            return constraint_in(rng.sample(range(s), 1))
        values = rng.sample(range(5), rng.randint(1, 3))
        return (constraint_in if rng.random() < 0.4 else constraint_not_in)(values)

    def site_at(lvl):
        return tree.index_of(lvl, rng.randrange(tree.sphere_size(lvl)))

    values = []
    for _ in range(30):
        lvl = rng.randint(1, top)
        sites = {site_at(lvl)} | {site_at(rng.randint(0, lvl)) for _ in range(rng.randint(0, 3))}
        rect = {v: constraint() for v in sites}
        if s is None and rng.random() < 0.5:
            # root spins 0 and 1 keep the whole configuration below them finite
            rect[0] = constraint_in(rng.sample([0, 1], rng.randint(1, 2)))
        depth = top + rng.randint(0, below)
        value = fam.measure(depth).measure_of(from_constraints(ctx, rect))
        assert value == level_by_level_value(ctx, lam, kernel, depth, rect), (rect, depth)
        values.append(value)
    finite = [v for v in values if v != INFINITE]
    if name == "infinite_row_nat_k2":
        assert INFINITE in values and any(v > 0 for v in finite)
    if name == "substochastic_s2_k2_depth12":
        assert max(v.denominator.bit_length() for v in finite) > 12_000
    if name == "geometric_nonstochastic_nat_k2":
        assert all(v != INFINITE for v in values)
        assert len(set(values)) > 20


def test_negative_spins_over_the_naturals_are_clipped(nat_ctx, ctx_k2s2):
    # normalization clips a constraint to its spin set, so a negative spin is
    # allowed nowhere: over the naturals as over finite spins
    fam = product_family(nat_ctx, NatSeq((F(1, 3), F(1, 6)), "geometric", F(1, 4), F(1, 2)))
    minus_one = from_constraints(nat_ctx, {0: constraint_in([-1])})
    assert (minus_one.render(), fam.measure(0).measure_of(minus_one)) == ("empty", 0)
    assert from_constraints(nat_ctx, {0: constraint_not_in([-1])}).render() == "omega"
    assert from_constraints(nat_ctx, {0: constraint_not_in([-1, 2])}).render() == "x0 notin {2}"
    seq = NatSeq.finite([1, 2, 3])
    assert (seq.sum_in([-1]), seq.sum_in([-1, 0]), seq.sum_not_in([-1, 0])) == (0, 1, 5)
    for c, kept in ((constraint_in([-1, 1]), 1), (constraint_not_in([-1, 1]), 0)):
        assert from_constraints(ctx_k2s2, {0: c}).render() == f"x0={kept}"


def test_divided_is_fraction_division_in_lowest_terms():
    """The root step's x / d: d's prime factors all divide `base`, and the
    factor it shares with x's numerator may be any power of them."""
    rng = random.Random(16)
    base = 12
    cases = [(F(0), 12**5), (F(7, 5), 1), (INFINITE, 36), (F(2**40 * 3**7, 5), 6**30)]
    for _ in range(200):
        n = 2 ** rng.randint(0, 60) * 3 ** rng.randint(0, 40) * rng.randint(1, 10**6)
        d = 2 ** rng.randint(0, 80) * 3 ** rng.randint(0, 50)
        cases.append((F(n, rng.choice([1, 5, 7, 35])), d))
    for x, d in cases:
        got = measure_module._divided(x, d, base)
        if x == INFINITE:
            assert got == INFINITE
            continue
        want = x / d
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (x, d)
        assert got == want and hash(got) == hash(want)
    nums, den = measure_module._reduced(((2**9 * 3, 0, INFINITE, 2**4 * 9), 2**20 * 3**2), base)
    assert (nums, den) == ((2**5, 0, INFINITE, 3), 2**16 * 3)


# Sums over the naturals take maximal runs of values in closed form.  The
# references below add one value at a time.

RUN_SEQS = {
    "prefix_const": NatSeq((F(1, 2), F(0), F(3)), "const", F(2, 7), F(0)),
    "prefix_geometric": NatSeq((F(1, 5), F(2, 5), F(0), F(1)), "geometric", F(3, 4), F(1, 3)),
    "const": NatSeq.constant(F(5, 3)),
    "geometric": NatSeq.geometric(F(1, 2), F(1, 2)),
    "geometric_ratio_zero": NatSeq.geometric(F(2), F(0)),
    "finite": NatSeq.finite([F(1, 3), F(0), F(1, 4), F(2)]),
}


def seeded_value_sets(rng, count=40):
    """Sets of spins below 40: single values, short and long runs, some
    crossing the end of every prefix above, and scattered values."""
    sets = [set(), {0}, {3}, {2, 3, 4, 5}, set(range(0, 40)), set(range(3, 9)) | {20, 21, 30}]
    for _ in range(count):
        values = set()
        for _ in range(rng.randint(1, 4)):
            lo = rng.randrange(40)
            values.update(range(lo, lo + rng.choice([1, 1, 2, 3, 10])))
        sets.append(values)
    return sets


@pytest.mark.parametrize("name", sorted(RUN_SEQS))
def test_run_sums_match_per_value_sums(name):
    seq = RUN_SEQS[name]
    rng = random.Random(name)
    for values in seeded_value_sets(rng):
        expected = F(0)
        for q in values:
            expected += seq.value_at(q)
        assert seq.sum_in(values) == expected, values
        assert seq.sum_in(sorted(values, reverse=True)) == expected
        assert seq.sum_not_in(values) == value_sub(seq.sum_all(), expected), values
    for lo in range(0, 12):
        for hi in range(lo, 14):
            expected = sum((seq.value_at(q) for q in range(lo, hi)), F(0))
            assert seq.sum_range(lo, hi) == expected, (lo, hi)
    assert seq.sum_range(5, 2) == 0


# plus the counting weights, a constant tail of 1 from spin 0 on
OPEN_SEQS = {**RUN_SEQS, "counting": NatSeq.constant(1)}


@pytest.mark.parametrize("name", sorted(OPEN_SEQS))
def test_open_ended_range_sum(name):
    """sum_range(lo, None) is sum_from(lo): the values from lo to `far`, past
    every prefix, one at a time, plus the tail from `far` on (INFINITE for a
    constant tail with a positive coefficient)."""
    seq = OPEN_SEQS[name]
    far = 60
    for lo in range(0, 12):
        head = sum((seq.value_at(q) for q in range(lo, far)), F(0))
        if seq.tail_kind == "const":
            tail = INFINITE if seq.tail_a else F(0)
        else:
            tail = seq.tail_a * seq.tail_r ** (far - len(seq.prefix)) / (1 - seq.tail_r)
        expected = value_add(head, tail)
        assert seq.sum_range(lo, None) == seq.sum_from(lo) == expected, lo
        assert seq.sum_range(lo) == expected


def reference_weighted_sum(row, constraint, g):
    """Sum of row(r) * g(r) over the allowed spins of the naturals, one spin
    at a time; g[-1] is shared by every spin from len(g) - 1 on."""
    w = len(g) - 1
    total = F(0)
    if constraint is not None and constraint.mode == "in":
        for r in constraint.values:
            total = value_add(total, value_mul(row.value_at(r), g[min(r, w)]))
        return total
    excluded = set() if constraint is None else constraint.values
    start = max([w] + [q + 1 for q in excluded])
    for r in range(start):
        if r not in excluded:
            total = value_add(total, value_mul(row.value_at(r), g[min(r, w)]))
    return value_add(total, value_mul(g[w], row.sum_from(start)))


@pytest.mark.parametrize("w", [0, 1, 3])
def test_weighted_sums_match_per_value_sums(w):
    rng = random.Random(w)
    ctx = Context(TreeGeometry(2, 4), SpinSet.naturals())
    kernel = TransitionKernel.for_naturals(NatSeq.geometric(F(1, 2), F(1, 2)),
                                           [NatSeq.constant(F(1))] * w)
    mu = markov_family(ctx, NatSeq.constant(1), kernel).measure(1)
    # INFINITE entries of g meet zero row entries: 0 * inf = 0
    rows = list(RUN_SEQS.values()) + [NatSeq.finite([F(0), F(0), F(1, 2)]), NatSeq()]
    gs = [
        tuple(F(rng.randint(0, 5), rng.randint(1, 5)) for _ in range(w + 1)),
        (F(1, 2),) * w + (INFINITE,),
        (INFINITE,) * (w + 1),
        tuple(F(0) if i % 2 else INFINITE for i in range(w + 1)),
    ]
    constraints = [None]
    for values in seeded_value_sets(rng, count=15):
        if values:
            constraints.append(constraint_in(values))
        constraints.append(constraint_not_in(values))
    # wide notin sets
    constraints += [constraint_not_in(range(2, 5000)), constraint_not_in(set(range(0, 3000, 3)))]
    for row in rows:
        for g in gs:
            for c in constraints:
                got = mu._weighted_sum(row, mu._selection(c, w), g)
                assert got == reference_weighted_sum(row, c, g), (row, g, c)



# The chain pass keeps, under a flat kernel (k = 1 or stochastic), only the
# root, the sites and the meets of sites in different child subtrees, and
# carries a factor across the levels between two of them as one kernel
# power; under any other kernel it keeps every ancestor of a site.  The
# shapes below are the skeleton's edge cases, each valued against the
# level-by-level oracle above.
# name: (order, spins (None: the naturals), lam, kernel)
SKELETON_FAMILIES = {
    name: RUN_FAMILIES[name][:4]
    for name in ("stochastic_s2_k2", "substochastic_s2_k2", "geometric_nat_k2",
                 "stochastic_s2_k1", "substochastic_s2_k1", "infinite_row_nat_k1")
}
# two of the same kernels on the order-3 tree
SKELETON_FAMILIES["stochastic_s3_k3"] = (3,) + RUN_FAMILIES["stochastic_s3_k2"][1:4]
SKELETON_FAMILIES["substochastic_s2_k3"] = (3,) + RUN_FAMILIES["substochastic_s2_k2"][1:4]


def skeleton_shapes(tree):
    """{shape: sites} for the skeleton's edge cases on `tree`."""
    k = tree.order
    if k == 1:
        # branch 0 holds the odd indices, branch 1 the even ones
        left = [tree.index_of(lvl, 0) for lvl in range(8)]
        right = [tree.index_of(lvl, 1) for lvl in range(1, 8)]
        return {
            "both_sides": {left[5], right[2]},
            "both_sides_and_root": {0, left[7], right[6]},
            "root_as_site": {0, left[6]},
            "ancestor_site": {left[2], left[6], right[3]},
        }
    b = tree.index_of(2, 1)  # unconstrained, its first and last child subtrees hold sites
    first, last = tree.children(b)[0], tree.children(b)[-1]
    x = tree.children(tree.children(first)[-1])[0]
    y = tree.children(last)[0]
    other = tree.index_of(3, tree.sphere_size(3) - 1)
    a = tree.index_of(1, 0)
    below_a = tree.children(tree.children(a)[0])[-1]
    return {
        "branch_point": {x, y},
        "branch_point_and_other": {x, y, other},
        "root_as_site": {0, x},
        "root_and_branch_point": {0, x, y, other},
        "ancestor_site": {a, below_a, other},
        "ancestor_chain": {a, below_a, tree.children(below_a)[0]},
    }


def expected_kept(tree, sites):
    """The root, the sites, and every vertex with sites below two or more
    of its children."""
    below = {}
    for site in sites:
        path = tree.path_to_root(site)
        for child, parent in zip(path, path[1:]):
            below.setdefault(parent, set()).add(child)
    return {0} | set(sites) | {v for v, kids in below.items() if len(kids) > 1}


@pytest.mark.parametrize("name", sorted(SKELETON_FAMILIES))
def test_skeleton_edge_shapes_match_level_by_level(name):
    order, s, lam, kernel = SKELETON_FAMILIES[name]
    spins = SpinSet.naturals() if s is None else SpinSet.finite(s)
    ctx = Context(TreeGeometry(order, 9 if order == 1 else 6), spins)
    fam = markov_family(ctx, lam, kernel)
    lam, kernel = fam.measure(0).form.lam, fam.measure(0).form.kernel
    flat = order == 1 or kernel.is_stochastic()
    tree = ctx.tree
    rng = random.Random(name)

    def constraint():
        if s is not None:
            return constraint_in(rng.sample(range(s), rng.randint(1, s - 1)))
        values = rng.sample(range(4), rng.randint(1, 2))
        return (constraint_in if rng.random() < 0.6 else constraint_not_in)(values)

    for shape, sites in skeleton_shapes(tree).items():
        base = max(tree.level(v) for v in sites)
        for depth in range(base, min(base + 2, tree.max_depth) + 1):
            rect = {v: constraint() for v in sites}
            mu = fam.measure(depth)
            event = from_constraints(ctx, rect)
            assert mu.measure_of(event) == level_by_level_value(ctx, lam, kernel, depth, rect), (
                shape, depth)
            (piece,) = event.rectangles
            skeleton = mu._skeleton(piece)
            kept = {v for v, _, _, _ in skeleton}
            if flat:
                assert kept == expected_kept(tree, sites), shape
            else:
                assert kept == {u for v in sites for u in tree.path_to_root(v)} | {0}, shape
            for v, lvl, up, run in skeleton:
                assert lvl == tree.level(v)
                if up is not None:
                    assert tree.ancestor_at_level(v, tree.level(up)) == up
                    assert run == lvl - tree.level(up) - 1
                    assert not kept & set(tree.path_to_root(v)[1:run + 1]), shape


def test_table_marginal_is_a_regroup_past_the_atom_budget(ctx_k2s2):
    # 2**46 atoms on the depth-4 ball, two entries to regroup
    size = ctx_k2s2.tree.ball_size(4)
    fam = table_family(ctx_k2s2, 4, {(0,) * size: F(1, 2), (1,) * size: F(1, 2)})
    report = check_consistency(fam, 4)
    assert (report.ok, report.verified_depth, report.budget_limited) == (True, 4, False)
    cut = ctx_k2s2.tree.ball_size(3)
    expected = {(0,) * cut: F(1, 2), (1,) * cut: F(1, 2)}
    assert fam.measure(4).project(3, method="enumerate").form.table == expected
    assert fam.measure(4).project(3).form.table == expected
    assert fam.measure(3).dense_table(budget=1) == expected


def test_enumerated_marginal_follows_the_atom_order(chain_fam, ctx_k2s2):
    # the enumerator's keys come in the order CylinderSet.atoms lists them
    table = chain_fam.measure(2).project(1, method="enumerate").form.table
    assert list(table) == [a.values for a in omega(ctx_k2s2).atoms(1)]


def test_violation_witness_is_the_atom_cylinder(chain_fam, ctx_k2s2):
    # depth 1 doubles the chain's weights, so its projection misses depth 0
    # first at the atom x0 = 0
    fam = MeasureFamily(ctx_k2s2, lambda n: chain_fam.measure(n).scaled(1 + (n > 0)), "finite")
    report = check_consistency(fam, 1)
    assert report.violation.witness == from_configuration(
        ctx_k2s2, Configuration.on_ball(ctx_k2s2, 0, (0,)))
    assert report.violation.render() == "project(depth 1 -> 0) on x0=0: 1 != 1/2"


OTHER_CTX = Context(TreeGeometry(3), SpinSet.finite(2))
NAT_CTX = Context(TreeGeometry(2), SpinSet.naturals())
K2S2 = Context(TreeGeometry(2), SpinSet.finite(2))
HALVES = markov_family(K2S2, [F(1, 2), F(1, 2)], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: value_pow(F(3), 10**10), BudgetError,
     "a power of about 10000000000 bits exceeds the limit of 4194304 bits"),
    (lambda: value_sub(F(1), INFINITE), ValueError, "cannot subtract an infinite value"),
    (lambda: NatSeq((), "const", F(-1)), ValueError, "tail coefficient must be non-negative"),
    (lambda: NatSeq((), "cubic"), ValueError, "unknown tail kind 'cubic'"),
    (lambda: NatSeq.constant(1).scaled(-1), ValueError, "scale factor must be non-negative"),
    (lambda: TransitionKernel.from_matrix(SpinSet.naturals(), [[1]]), SpinRangeError,
     "matrix kernels need a finite spin set"),
    (lambda: TransitionKernel.from_matrix(SpinSet.finite(2), [[1, 0], [1]]), ValueError,
     "kernel row 1 needs 2 entries, got 1"),
    (lambda: TransitionKernel.from_matrix(SpinSet.finite(2), [[1, 0], [-1, 2]]), ValueError,
     "kernel row 1: entries must be non-negative"),
    (lambda: TransitionKernel.for_naturals(NatSeq.constant(0), {-1: NatSeq.constant(0)}),
     ValueError, "row index must be non-negative, got -1"),
    (lambda: HALVES.measure(1).measure_of(omega(OTHER_CTX)), ContextMismatchError,
     "cylinder built over a different context"),
    (lambda: HALVES.measure(0).measure_of(single_site(K2S2, 1, 0)), ValueError,
     "cylinder base depth 1 exceeds measure depth 0"),
    (lambda: HALVES.measure(1).scaled(-1), ValueError, "scale factor must be non-negative"),
    (lambda: MeasureFamily(K2S2, HALVES.measure, "weird"), ValueError,
     "unknown family kind 'weird'"),
    (lambda: MeasureFamily(K2S2, lambda n: HALVES.measure(0), "finite").measure(1), ValueError,
     "family generator returned a mismatched measure"),
    (lambda: markov_family(K2S2, [1, 0], TransitionKernel.from_matrix(SpinSet.finite(3),
                                                                     [[1] * 3] * 3)),
     ContextMismatchError, "kernel spin set differs from the context"),
    (lambda: table_family(NAT_CTX, 0, {}), SpinRangeError, "dense tables need a finite spin set"),
    (lambda: table_family(K2S2, 0, {(0,): -1}), ValueError,
     "entry (0,): weights must be non-negative"),
], ids=["value_pow-bits", "value_sub-inf", "natseq-tail", "natseq-kind", "natseq-scale",
        "matrix-nat", "matrix-row-length", "matrix-negative", "nat-row-index",
        "measure_of-ctx", "measure_of-depth", "measure-scale", "family-kind",
        "family-generator-depth", "markov-kernel-spins", "table-nat", "table-negative"])
def test_public_guards_raise_their_documented_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def fuzz_number(rng, text=True):
    """One of the CLI fuzz tests' FUZZ_NUMBERS, its sign flipped one time in
    ten, as text, an int or a Fraction; text only for a constructor that
    documents that it calls Fraction() on its input."""
    x = F(rng.choice(FUZZ_NUMBERS)) * (-1 if rng.random() < 0.1 else 1)
    kinds = ["fraction", "int", "text"] if text else ["fraction", "int"]
    kind = rng.choice(kinds if x.denominator == 1 else [k for k in kinds if k != "int"])
    return {"fraction": x, "int": x.numerator, "text": str(x)}[kind]


def fuzz_seq(rng, spins):
    """Site weights: a list over finite spins, else a NatSeq; now and then a
    length off by one or a tail over finite spins."""
    n = spins.size if spins.is_finite else rng.randint(0, 3)
    if rng.random() < 0.1:
        n = max(0, n + rng.choice((-1, 1)))
    form = 0 if spins.is_finite and rng.random() < 0.9 else rng.randrange(5)
    if form == 0:
        return [fuzz_number(rng) for _ in range(n)]
    if form == 1:
        return NatSeq.finite([fuzz_number(rng) for _ in range(n)])
    if form == 2:
        return NatSeq.constant(fuzz_number(rng))
    if form == 3:
        return NatSeq.geometric(fuzz_number(rng), fuzz_number(rng))
    return NatSeq(tuple(fuzz_number(rng, False) for _ in range(n)),
                  rng.choice(("const", "geometric")), F(fuzz_number(rng, False)),
                  F(fuzz_number(rng, False)))


def fuzz_family(rng, ctx):
    spins = ctx.spins
    kind = rng.choice(("markov", "product", "table"))
    if kind == "markov":
        lam = fuzz_seq(rng, spins)
        if spins.is_finite:
            rows = [[fuzz_number(rng) for _ in range(spins.size)] for _ in range(spins.size)]
            if rng.random() < 0.1:
                rows.pop()
            kernel = rows if rng.random() < 0.3 else TransitionKernel.from_matrix(spins, rows)
        else:
            default = NatSeq.geometric(fuzz_number(rng), fuzz_number(rng))
            rows = [fuzz_seq(rng, spins) for _ in range(rng.randint(0, 2))]
            rows = [r if isinstance(r, NatSeq) else NatSeq.finite(r) for r in rows]
            if rng.random() < 0.5:
                rows = {rng.randint(-1, 2): row for row in rows}
            kernel = TransitionKernel.for_naturals(default, rows)
        return markov_family(ctx, lam, kernel)
    if kind == "product":
        overrides = {rng.randrange(ctx.tree.ball_size(2)): fuzz_seq(rng, spins)
                     for _ in range(rng.randint(0, 2))}
        return product_family(ctx, fuzz_seq(rng, spins), overrides)
    depth = rng.randint(0, 1)
    size, s = ctx.tree.ball_size(depth), spins.size or 2
    table = {}
    for _ in range(rng.randint(0, 4)):
        key = tuple(rng.randrange(s + (rng.random() < 0.05)) for _ in range(size))
        table[key[:-1] if rng.random() < 0.05 else key] = fuzz_number(rng)
    return table_family(ctx, depth, table)


def test_constructor_fuzz_ends_in_values_or_library_errors():
    # signed fuzz numbers through every family constructor, in the input
    # types each documents, then one single-site value at depth <= 2: each
    # case ends in a value (a non-negative Fraction or INFINITE), a
    # TreeMeasureError or a ValueError; the parser's weights reach the
    # library through these same constructors
    rng = random.Random(4007)
    outcomes = {"valued": 0, "refused": 0}
    started = time.perf_counter()
    for _ in range(3000):
        spins = rng.choice((SpinSet.finite(2), SpinSet.finite(3), SpinSet.naturals()))
        ctx = Context(TreeGeometry(rng.choice((1, 2)), 4), spins)
        depth = rng.randint(0, 2)
        site, q = rng.randrange(ctx.tree.ball_size(depth)), rng.randrange(spins.size or 4)
        try:
            value = fuzz_family(rng, ctx).measure(depth).measure_of(single_site(ctx, site, q))
        except (TreeMeasureError, ValueError):
            outcomes["refused"] += 1
            continue
        assert value == INFINITE or (type(value) is Fraction and value >= 0), value
        outcomes["valued"] += 1
    assert min(outcomes.values()) >= 500, outcomes
    assert time.perf_counter() - started < 10
