import itertools
from fractions import Fraction

import pytest

from treemeasure import (
    BudgetError,
    ContextMismatchError,
    DisjointnessError,
    ExtensionHandle,
    INFINITE,
    MassError,
    NatSeq,
    NestingError,
    TransitionKernel,
    VerificationError,
    VolumeMeasure,
    additivity_check,
    constraint_in,
    continuity_probe,
    empty_set,
    from_constraints,
    inner_compact_approx,
    markov_family,
    omega,
    scale,
    single_site,
    uniqueness_crosscheck,
)

F = Fraction


def broken_family(ctx):
    # first kernel row sums to 7/6: the family cannot be consistent
    return markov_family(
        ctx, [F(1, 2), F(1, 2)], [[F(2, 3), F(1, 2)], [F(1, 3), F(2, 3)]]
    )


def test_issue_refuses_budget_limited_check(chain_fam, ctx_k2s2):
    # 2**4 atoms at depth 1 exceed a budget of 15: nothing gets verified,
    # whether the family is consistent or not (row 0 sums to 2/3)
    short = markov_family(ctx_k2s2, [F(1, 2), F(1, 2)], [[F(1, 3), F(1, 3)], [F(1, 3), F(2, 3)]])
    for fam in (chain_fam, short):
        with pytest.raises(BudgetError) as err:
            ExtensionHandle.issue(fam, verify_depth=2, budget=15)
        assert "depth 0 of 2" in str(err.value) and "budget 15" in str(err.value)
        assert "trusted=True" in str(err.value)
    handle = ExtensionHandle.issue(short, verify_depth=2, budget=15, trusted=True,
                                   trust_reason="checked elsewhere")
    assert handle.trusted and handle.report is None


def test_issue_verifies_consistency(chain_fam, ctx_k2s2):
    handle = ExtensionHandle.issue(chain_fam, verify_depth=2)
    assert not handle.trusted
    assert handle.report is not None
    assert handle.report.ok
    assert handle.mass() == 1
    assert handle.mu(single_site(ctx_k2s2, 0, 1)) == F(1, 2)


def test_issue_rejects_inconsistent_family(ctx_k2s2):
    with pytest.raises(VerificationError):
        ExtensionHandle.issue(broken_family(ctx_k2s2), verify_depth=1)


def test_issue_trusted_needs_reason(chain_fam):
    with pytest.raises(ValueError):
        ExtensionHandle.issue(chain_fam, trusted=True)
    handle = ExtensionHandle.issue(chain_fam, trusted=True, trust_reason="probability chain")
    assert handle.trusted
    assert handle.report is None


def test_issue_consistent_by_construction(ctx_k2s2):
    from treemeasure import random_consistent_family

    fam = random_consistent_family(ctx_k2s2, 3, 2)
    handle = ExtensionHandle.issue(fam, verify_depth=2)
    assert handle.trusted
    assert handle.trust_reason == "consistent by construction"


def test_mu_depth_independent(chain_fam, ctx_k2s2):
    handle = ExtensionHandle.issue(chain_fam)
    e = single_site(ctx_k2s2, 1, 0)
    v0 = handle.mu(e)
    assert v0 == F(1, 2)
    assert handle.mu(e, at_depth=2) == v0
    assert handle.mu(e, at_depth=3) == v0
    with pytest.raises(ValueError):
        handle.mu(e.lift_to_base(2), at_depth=1)


def test_mu_cache_catches_depth_dependence(ctx_k2s2):
    # an inconsistent family smuggled in as trusted: the write-once cache
    # flags the depth-dependent value on second evaluation
    handle = ExtensionHandle.issue(
        broken_family(ctx_k2s2), trusted=True, trust_reason="adversarial probe"
    )
    e = single_site(ctx_k2s2, 0, 0)
    assert handle.mu(e) == F(1, 2)
    with pytest.raises(VerificationError):
        handle.mu(e, at_depth=1)


def spy_valuations(monkeypatch):
    """The depths `VolumeMeasure.measure_of` is called at, in order."""
    depths = []
    measure_of = VolumeMeasure.measure_of
    monkeypatch.setattr(VolumeMeasure, "measure_of",
                        lambda mu, cyl: depths.append(mu.depth) or measure_of(mu, cyl))
    return depths


def test_mu_answers_a_repeat_at_the_recorded_depth(chain_fam, ctx_k2s2, monkeypatch):
    handle = ExtensionHandle.issue(chain_fam)
    depths = spy_valuations(monkeypatch)
    e = from_constraints(ctx_k2s2, {0: constraint_in([0]), 1: constraint_in([1])})
    assert handle.mu(e) == F(1, 6)
    assert depths == [1]
    # a repeat at the base depth, named or not, values nothing
    assert handle.mu(e) == handle.mu(e, at_depth=1) == F(1, 6)
    assert depths == [1]
    # another depth is valued and compared each time; depth 1 stays the record
    assert handle.mu(e, at_depth=3) == handle.mu(e, at_depth=3) == F(1, 6)
    assert handle.mu(e) == F(1, 6)
    assert depths == [1, 3, 3]
    # an event first valued deeper is recorded at that depth
    assert handle.mu(omega(ctx_k2s2), at_depth=2) == handle.mu(omega(ctx_k2s2), at_depth=2) == 1
    assert depths == [1, 3, 3, 2]


def test_mu_raises_at_the_failing_depth_every_time(ctx_k2s2, monkeypatch):
    # the setting of test_mu_cache_catches_depth_dependence: the failing
    # depth is never recorded, so it raises on every call
    handle = ExtensionHandle.issue(
        broken_family(ctx_k2s2), trusted=True, trust_reason="adversarial probe"
    )
    depths = spy_valuations(monkeypatch)
    e = single_site(ctx_k2s2, 0, 0)
    assert handle.mu(e) == F(1, 2)
    for _ in range(2):
        with pytest.raises(VerificationError, match="depth 1 gave"):
            handle.mu(e, at_depth=1)
        assert handle.mu(e) == F(1, 2)
    assert depths == [0, 1, 1]


def test_mu_rejects_foreign_context(chain_fam, nat_ctx):
    handle = ExtensionHandle.issue(chain_fam)
    with pytest.raises(ContextMismatchError):
        handle.mu(omega(nat_ctx))


def test_additivity_over_atom_partition(chain_fam, ctx_k2s2):
    ctx = ctx_k2s2
    handle = ExtensionHandle.issue(chain_fam)
    parts = [
        from_constraints(ctx, {v: constraint_in([q]) for v, q in enumerate(key)})
        for key in itertools.product(range(2), repeat=4)
    ]
    assert len(parts) == 16
    report = additivity_check(handle, parts, whole=omega(ctx))
    assert report.ok
    assert report.parts_total == 1
    assert report.whole_value == 1


def test_additivity_rejects_overlap(chain_fam, ctx_k2s2):
    ctx = ctx_k2s2
    handle = ExtensionHandle.issue(chain_fam)
    with pytest.raises(DisjointnessError):
        additivity_check(handle, [single_site(ctx, 0, 0), single_site(ctx, 1, 0)])
    with pytest.raises(DisjointnessError):
        additivity_check(handle, [single_site(ctx, 0, 0)], whole=omega(ctx))


def test_continuity_decaying_chain(chain_fam, uniform_fam, ctx_k2s2):
    ctx = ctx_k2s2
    handle = ExtensionHandle.issue(chain_fam)
    chain = [
        from_constraints(ctx, {v: constraint_in([0]) for v in ctx.tree.ball_vertices(n)})
        for n in (1, 2, 3)
    ]
    report = continuity_probe(handle, chain)
    assert report.verdict == "decayed"
    assert report.values == (
        F(1, 2) * F(2, 3) ** 3,
        F(1, 2) * F(2, 3) ** 9,
        F(1, 2) * F(2, 3) ** 21,
    )
    handle_u = ExtensionHandle.issue(uniform_fam)
    report_u = continuity_probe(handle_u, chain)
    assert report_u.values == (F(1, 2) ** 4, F(1, 2) ** 10, F(1, 2) ** 22)
    assert report_u.final == F(1, 2**22)


def test_continuity_empty_certified(chain_fam, ctx_k2s2):
    ctx = ctx_k2s2
    handle = ExtensionHandle.issue(chain_fam)
    a = single_site(ctx, 0, 0)
    b = a.intersect(single_site(ctx, 1, 1))
    c = a.intersect(single_site(ctx, 0, 1))  # contradictory: empty
    report = continuity_probe(handle, [a, b, c])
    assert report.verdict == "empty-certified"
    assert report.final == 0
    assert c.is_empty()


def test_continuity_flags_no_decay(chain_fam, ctx_k2s2):
    handle = ExtensionHandle.issue(chain_fam)
    e = single_site(ctx_k2s2, 0, 0)
    report = continuity_probe(handle, [e, e])
    assert report.verdict == "no-decay"


def test_continuity_rejects_non_nested(chain_fam, ctx_k2s2):
    ctx = ctx_k2s2
    handle = ExtensionHandle.issue(chain_fam)
    with pytest.raises(NestingError):
        continuity_probe(handle, [single_site(ctx, 0, 0), single_site(ctx, 0, 1)])


def test_inner_approx_finite_is_exact(chain_fam, ctx_k2s2):
    handle = ExtensionHandle.issue(chain_fam)
    e = single_site(ctx_k2s2, 0, 0)
    approx = inner_compact_approx(handle, e, F(1, 1000))
    assert approx.gap == 0
    assert approx.cutoff == 0
    assert approx.subset.semantic_equal(e)


def test_inner_approx_naturals_gap(counting_fam, nat_ctx):
    handle = ExtensionHandle.issue(counting_fam, trusted=True, trust_reason="stochastic rows")
    e = single_site(nat_ctx, 0, 3)
    approx = inner_compact_approx(handle, e, F(1, 2**20), at_depth=1)
    # clamping every depth-1 site to {0..M} loses 1 - (1 - 2**-(M+1))**3
    assert approx.cutoff == 32
    assert approx.gap == 1 - (1 - F(1, 2**33)) ** 3
    assert approx.gap < F(1, 2**20)
    assert handle.mu(approx.subset, at_depth=1) == 1 - approx.gap


def test_inner_approx_refuses_infinite(counting_fam, nat_ctx):
    handle = ExtensionHandle.issue(counting_fam, trusted=True, trust_reason="stochastic rows")
    with pytest.raises(MassError):
        inner_compact_approx(handle, single_site(nat_ctx, 1, 0), F(1, 4))
    with pytest.raises(MassError):
        # one doubling cannot reach the target gap
        inner_compact_approx(
            handle, single_site(nat_ctx, 0, 3), F(1, 2**20),
            at_depth=1, max_doublings=1,
        )


def test_uniqueness_crosscheck_identical(chain_fam):
    h1 = ExtensionHandle.issue(chain_fam)
    h2 = ExtensionHandle.issue(chain_fam)
    report = uniqueness_crosscheck(h1, h2, seed=1234, trials=60)
    assert report.agree
    assert report.agreements == 60
    assert report.ratio == 1


def test_uniqueness_crosscheck_scaled(chain_fam):
    h1 = ExtensionHandle.issue(chain_fam)
    scaled = scale(chain_fam, F(7, 3))
    h2 = ExtensionHandle.issue(scaled, verify_depth=1)
    report = uniqueness_crosscheck(h1, h2, seed=1234, trials=60)
    assert not report.agree
    assert report.ratio == F(7, 3)
    event, lhs, rhs = report.witness
    assert rhs == F(7, 3) * lhs


def test_uniqueness_crosscheck_against_zero_has_no_ratio(chain_fam):
    # every value of the zero multiple is 0, so no disagreement gives a ratio
    zero = ExtensionHandle.issue(scale(chain_fam, 0), trusted=True, trust_reason="zero multiple")
    report = uniqueness_crosscheck(zero, ExtensionHandle.issue(chain_fam), seed=1234, trials=60)
    assert report.ratio is None
    assert report.agree is False
    event, lhs, rhs = report.witness
    assert lhs == 0 and rhs > 0


def test_crosscheck_rejects_context_mismatch(chain_fam, counting_fam):
    h1 = ExtensionHandle.issue(chain_fam)
    h2 = ExtensionHandle.issue(counting_fam, trusted=True, trust_reason="stochastic rows")
    with pytest.raises(ContextMismatchError):
        uniqueness_crosscheck(h1, h2, seed=1)


@pytest.mark.parametrize("call, message", [
    (lambda handle: continuity_probe(handle, []), "need at least one set in the chain"),
    (lambda handle: inner_compact_approx(handle, omega(handle.ctx), 0),
     "epsilon must be positive"),
], ids=["continuity-empty-chain", "inner-epsilon"])
def test_public_guards_raise_their_documented_error(chain_fam, call, message):
    handle = ExtensionHandle.issue(chain_fam, verify_depth=1)
    with pytest.raises(ValueError) as err:
        call(handle)
    assert str(err.value) == message
