"""The probe battery of `check_consistency` over the naturals against the
all-pairs loop it replaced.

The battery now compares each depth j with depth j - 1 only, on the probes
at their natural base depth.  The old loop compared depth j with every
shallower depth i, on the probes lifted to base depth i; it stays here as
the oracle, and every report is compared field by field.
"""

import collections
import random
from fractions import Fraction

import pytest

from treemeasure import (
    Context,
    MeasureFamily,
    NatSeq,
    SpinSet,
    TransitionKernel,
    TreeGeometry,
    VolumeMeasure,
    check_consistency,
    constraint_in,
    from_constraints,
    markov_family,
    product_family,
    scale,
)
from treemeasure.measure import ConsistencyReport, MarkovForm, ProductForm, Violation

F = Fraction
NAT = SpinSet.naturals()


def old_probe_bases(ctx, i):
    """Small battery of depth-i bases with spins below 6."""
    probes = []
    for q in range(6):
        probes.append(from_constraints(ctx, {0: constraint_in([q])}).lift_to_base(i))
    if i >= 1:
        first_child = ctx.tree.children(0)[0]
        for q in range(3):
            for r in range(3):
                probes.append(
                    from_constraints(
                        ctx, {0: constraint_in([q]), first_child: constraint_in([r])}
                    ).lift_to_base(i)
                )
    return probes


def old_check_consistency_nat(fam, requested, depth):
    form = fam.measure(0).form
    shared = all(type(mu.form) is type(form) and vars(mu.form) == vars(form)
                 for mu in map(fam.measure, range(1, depth + 1)))
    if shared and isinstance(form, MarkovForm) and form.kernel.is_stochastic():
        return ConsistencyReport(requested, depth, None, "closed-row")
    if shared and isinstance(form, ProductForm):
        sums_ok = form.default.sum_all() == 1 and all(
            w.sum_all() == 1 for v, w in form.overrides.items() if v != 0
        )
        if sums_ok:
            return ConsistencyReport(requested, depth, None, "closed-row")
    for j in range(1, depth + 1):
        mu_j = fam.measure(j)
        for i in range(j):
            mu_i = fam.measure(i)
            for base in old_probe_bases(fam.ctx, i):
                lhs = mu_j.measure_of(base)
                rhs = mu_i.measure_of(base)
                if lhs != rhs:
                    return ConsistencyReport(
                        requested, j - 1, Violation(i, j, base, lhs, rhs), "probes",
                        exhaustive=False,
                    )
    return ConsistencyReport(requested, depth, None, "probes", exhaustive=False)


def old_check_consistency(fam, depth):
    requested = depth
    if fam.max_defined_depth is not None:
        depth = min(depth, fam.max_defined_depth)
    return old_check_consistency_nat(fam, requested, depth)


def outcome(check, fam, depth):
    """Every field of the report, or the exception's type and text."""
    try:
        r = check(fam, depth)
    except Exception as exc:  # both routes must fail alike
        return type(exc).__name__, str(exc)
    v = r.violation
    return (r.requested_depth, r.verified_depth, r.method, r.exhaustive, r.budget_limited,
            None if v is None else (v.i, v.j, v.witness.render(), v.witness.base_depth,
                                    v.lhs, v.rhs))


SMALL = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2))


def seeded_seq(rng, infinite=False):
    """A weight sequence: a short prefix, then a zero, geometric or (with
    `infinite`) constant tail."""
    prefix = tuple(rng.choice(SMALL) for _ in range(rng.randint(0, 3)))
    tail = rng.choice(("zero", "geometric", "geometric", "const") if infinite
                      else ("zero", "geometric"))
    if tail == "zero":
        return NatSeq(prefix)
    if tail == "const":
        return NatSeq(prefix, "const", rng.choice(SMALL[1:]))
    return NatSeq(prefix, "geometric", rng.choice(SMALL[1:]),
                  rng.choice((F(0), F(1, 4), F(1, 2), F(2, 3))))


def seeded_stochastic_row(rng):
    """A row summing to 1: a prefix below 1, then a geometric tail."""
    prefix = tuple(rng.choice((F(0), F(1, 8), F(1, 4), F(1, 3))) for _ in range(rng.randint(0, 2)))
    r = rng.choice((F(0), F(1, 4), F(1, 2)))
    return NatSeq(prefix, "geometric", (1 - sum(prefix)) * (1 - r), r)


def seeded_kernel(rng, stochastic=0.0):
    """Explicit rows at up to three spins below 4 and a default row, each
    summing to 1 with probability `stochastic`."""
    def row():
        return seeded_stochastic_row(rng) if rng.random() < stochastic else seeded_seq(rng)
    rows = {q: row() for q in rng.sample(range(4), rng.randint(0, 3))}
    return TransitionKernel.for_naturals(row(), rows)


def seeded_family(rng, k):
    """A chain or a product over the naturals, a scaled chain, or a custom
    generator whose chain drifts with depth."""
    ctx = Context(TreeGeometry(k), NAT)
    kind = rng.choice(("chain", "chain", "product", "scale", "drift"))
    if kind == "product":
        sites = rng.sample(range(ctx.tree.ball_size(2)), rng.randint(0, 3))
        return product_family(ctx, seeded_seq(rng, True), {v: seeded_seq(rng) for v in sites})
    chain = markov_family(ctx, seeded_seq(rng, True),
                          seeded_kernel(rng, rng.choice((0.0, 0.7, 0.9))))
    if kind == "scale":
        return scale(chain, rng.choice((F(0), F(1, 2), F(1), F(3))))
    if kind == "drift":
        # each depth takes the chain, the chain scaled by a weight drawn for
        # that depth, or another chain
        other = MarkovForm(seeded_seq(rng), seeded_kernel(rng, 0.8))
        picks = [rng.randrange(3) for _ in range(6)]
        drift = [rng.choice((F(1), F(1), F(1, 2), F(2))) for _ in range(6)]

        def generator(n):
            if picks[n] == 2:
                return VolumeMeasure(ctx, n, other)
            return chain.measure(n).scaled(drift[n] if picks[n] else 1)
        return MeasureFamily(ctx, generator, "finite")
    return chain


@pytest.mark.parametrize("k", [1, 2, 3])
def test_neighbouring_depths_report_what_all_pairs_reported(k):
    rng = random.Random(28000 + k)
    seen = collections.Counter()
    for _ in range(500):
        fam = seeded_family(rng, k)
        depth = rng.randint(0, 5)
        new = outcome(check_consistency, fam, depth)
        assert new == outcome(old_check_consistency, fam, depth)
        if new[2:3] == ("probes",):
            seen["pass" if new[-1] is None else new[-1][:2]] += 1
    # the probe route runs, passes, and finds violations at several depths
    assert seen["pass"] >= 50 and seen[0, 1] >= 100 and seen[0, 2] + seen[0, 3] >= 10, seen


def switch_family(ctx, lam, before, after, t):
    """Root weights lam at every depth; kernel `before` below depth t and
    `after` from t on."""
    forms = MarkovForm(lam, before), MarkovForm(lam, after)
    return MeasureFamily(ctx, lambda n: VolumeMeasure(ctx, n, forms[n >= t]), "finite")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_kernel_switch_shows_at_a_pair_probe(k):
    ctx = Context(TreeGeometry(k), NAT)
    rng = random.Random(28100 + k)
    pair_hits = 0
    for t in (2, 3, 4):
        for _ in range(6):
            lam = seeded_seq(rng, True)
            before, after = seeded_kernel(rng, 1.0), seeded_kernel(rng, 1.0)
            fam = switch_family(ctx, lam, before, after, t)
            depth = rng.randint(t - 1, 5)
            new = outcome(check_consistency, fam, depth)
            assert new == outcome(old_check_consistency, fam, depth)
            v = new[-1]
            # stochastic rows keep every root probe; a pair probe sees the switch
            assert v is None or v[:2] == (1, t) and v[3] == 1
            pair_hits += v is not None
    assert pair_hits >= 6


def test_a_switch_at_one_hand_built():
    ctx = Context(TreeGeometry(2), NAT)
    lam = NatSeq.geometric(F(1, 2), F(1, 2))
    before = TransitionKernel.for_naturals(NatSeq.geometric(F(1, 2), F(1, 2)))
    after = TransitionKernel.for_naturals(NatSeq.geometric(F(2, 3), F(1, 3)))
    report = check_consistency(switch_family(ctx, lam, before, after, 3), 5)
    v = report.violation
    assert (report.method, report.verified_depth) == ("probes", 2)
    # x0=0 & x1=0 weighs 1/2 * 2/3 at depth 3 and 1/2 * 1/2 at depth 2
    assert (v.i, v.j, v.witness.render(), v.lhs, v.rhs) == (1, 3, "x0=0 & x1=0", F(1, 3), F(1, 4))


def test_the_battery_values_each_probe_once_per_neighbouring_pair(monkeypatch):
    # only root spin 0 carries weight, and its row sums to 1, so every
    # depth passes; the kernel is not stochastic, so the probes run
    ctx = Context(TreeGeometry(2), NAT)
    kernel = TransitionKernel.for_naturals(
        NatSeq.geometric(F(1, 4), F(1, 2)), {0: NatSeq.finite([1])}
    )
    fam = markov_family(ctx, NatSeq.finite([1]), kernel)
    calls = []
    measure_of = VolumeMeasure.measure_of
    monkeypatch.setattr(VolumeMeasure, "measure_of",
                        lambda mu, cyl: calls.append(mu.depth) or measure_of(mu, cyl))
    report = check_consistency(fam, 6)
    assert (report.ok, report.method, report.verified_depth) == (True, "probes", 6)
    # the 6 root probes on depths 0 and 1, then the 9 two-site probes on
    # depth 1; from then on each depth values the 15 probes once, and the
    # values at the depth before are carried over
    assert collections.Counter(calls) == {0: 6, 1: 15, 2: 15, 3: 15, 4: 15, 5: 15, 6: 15}
    assert len(calls) == 96


def test_a_violation_values_each_probe_once_per_depth(monkeypatch):
    # the switch at depth 3 stops the battery there, with the report the
    # all-pairs oracle gives; no probe is valued twice on one depth
    ctx = Context(TreeGeometry(2), NAT)
    lam = NatSeq.geometric(F(1, 2), F(1, 2))
    before = TransitionKernel.for_naturals(NatSeq.geometric(F(1, 2), F(1, 2)))
    after = TransitionKernel.for_naturals(NatSeq.geometric(F(2, 3), F(1, 3)))
    fam = switch_family(ctx, lam, before, after, 3)
    expected = outcome(old_check_consistency, fam, 5)
    calls = collections.Counter()
    measure_of = VolumeMeasure.measure_of
    monkeypatch.setattr(VolumeMeasure, "measure_of",
                        lambda mu, cyl: calls.update([(mu.depth, cyl.render())])
                        or measure_of(mu, cyl))
    assert outcome(check_consistency, fam, 5) == expected
    assert set(calls.values()) == {1}
    # depths 0 to 2 as in a passing run; on depth 3 the 6 root probes pass
    # under the stochastic rows, and the first two-site probe disagrees
    assert collections.Counter(depth for depth, _ in calls) == {0: 6, 1: 15, 2: 15, 3: 7}
