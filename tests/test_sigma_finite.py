import os
import random
import time
from fractions import Fraction

import pytest

from treemeasure import (
    Context,
    ContextMismatchError,
    CoverError,
    ExtensionHandle,
    INFINITE,
    MassError,
    NatSeq,
    SigmaValue,
    SpinRangeError,
    SpinSet,
    TransitionKernel,
    TreeGeometry,
    VerificationError,
    check_consistency,
    compile_event,
    conditional_family,
    constraint_in,
    constraint_not_in,
    cover_independence,
    cover_sum_check,
    finite_cover,
    fixed_level_cover,
    from_constraints,
    markov_family,
    normalized_extension,
    omega,
    product_family,
    restriction_identity_check,
    scale,
    sigma_extension,
    single_site,
    slice_cover,
    table_family,
    value_add,
    value_sub,
)
from treemeasure.sigma_finite import (
    DEFAULT_DIVERGENCE_BOUND,
    DEFAULT_TERM_BUDGET,
    DEFAULT_TOLERANCE,
    SigmaFiniteExtension,
    _bracket,
    _cover_sum_verdict,
    _values_agree,
)
from treemeasure.specdsl import load_spec

F = Fraction


def counting_handle(counting_fam):
    return ExtensionHandle.issue(counting_fam, verify_depth=2)


def test_conditional_mass_and_values(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    cond = conditional_family(handle, single_site(nat_ctx, 0, 3))
    assert cond.mass() == 1
    assert cond.value(single_site(nat_ctx, 1, 0), verify=True) == F(1, 2)
    assert cond.value(single_site(nat_ctx, 1, 2), verify=True) == F(1, 8)
    assert cond.value(omega(nat_ctx)) == 1
    # conditioning on an infinite-value event is refused
    with pytest.raises(MassError):
        conditional_family(handle, single_site(nat_ctx, 1, 0))


def test_conditional_as_family_finite(chain_fam, ctx_k2s2):
    ctx = ctx_k2s2
    handle = ExtensionHandle.issue(chain_fam)
    cond = conditional_family(handle, single_site(ctx, 0, 0))
    fam = cond.as_family(depth=1)
    assert fam.mass(1) == F(1, 2)
    probe = single_site(ctx, 1, 1)
    assert fam.measure(1).measure_of(probe) == cond.value(probe)
    with pytest.raises(ValueError):
        cond.as_family(depth=-1)


def test_conditional_as_family_nat_in_mode(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    cond = conditional_family(handle, single_site(nat_ctx, 0, 2))
    fam = cond.as_family()
    assert fam.kind == "finite"
    assert fam.mass(0) == 1
    assert fam.mass(2) == 1
    probe = single_site(nat_ctx, 1, 5)
    assert fam.measure(1).measure_of(probe) == cond.value(probe) == F(1, 64)


def test_conditional_as_family_nat_cofinite(nat_ctx):
    # geometric root weights keep a closed-form tail after dropping a prefix
    lam = NatSeq.geometric(F(1, 2), F(1, 2))
    kernel = TransitionKernel.for_naturals(NatSeq.geometric(F(1, 2), F(1, 2)))
    fam = markov_family(nat_ctx, lam, kernel)
    handle = ExtensionHandle.issue(fam, verify_depth=2)
    event = from_constraints(nat_ctx, {0: constraint_not_in([0])})
    cond = conditional_family(handle, event)
    assert cond.mass() == F(1, 2)
    restricted = cond.as_family()
    assert restricted.mass(0) == F(1, 2)
    assert restricted.mass(1) == F(1, 2)
    probe = single_site(nat_ctx, 0, 1)
    assert restricted.measure(0).measure_of(probe) == F(1, 4)
    assert restricted.measure(0).measure_of(single_site(nat_ctx, 0, 0)) == 0


def test_conditional_as_family_nat_needs_root_rectangle(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    cond = conditional_family(handle, single_site(nat_ctx, 1, 0).intersect(
        single_site(nat_ctx, 0, 2)
    ))
    with pytest.raises(SpinRangeError):
        cond.as_family()


def test_restriction_identity(chain_fam, ctx_k2s2):
    ctx = ctx_k2s2
    handle = ExtensionHandle.issue(chain_fam)
    cond = conditional_family(handle, single_site(ctx, 0, 0))
    report = restriction_identity_check(
        cond, [single_site(ctx, 1, 1), omega(ctx)], extra_depths=2
    )
    assert report.ok
    assert all(len(set(r.values)) == 1 for r in report.records)


def test_cover_parts_and_support_bound(nat_ctx):
    cover = slice_cover(nat_ctx, site=0, block=2)
    assert cover.count is None
    p1 = cover.part(1)
    assert p1.contains((2, 0, 0, 0))
    assert p1.contains((3, 0, 0, 0))
    assert not p1.contains((4, 0, 0, 0))
    event = from_constraints(nat_ctx, {0: constraint_in(range(5))})
    assert cover.support_bound(event) == 2
    unpinned = single_site(nat_ctx, 1, 0)
    assert cover.support_bound(unpinned) is None
    cofinite = from_constraints(nat_ctx, {0: constraint_not_in([0])})
    assert cover.support_bound(cofinite) is None
    empty = single_site(nat_ctx, 0, 0).intersect(single_site(nat_ctx, 0, 1))
    assert cover.support_bound(empty) == -1


def test_slice_cover_guards(nat_ctx, ctx_k2s2):
    with pytest.raises(SpinRangeError):
        slice_cover(ctx_k2s2, site=0)
    with pytest.raises(ValueError):
        slice_cover(nat_ctx, site=0, block=0)
    report = slice_cover(nat_ctx, site=0).verify()
    assert report.ok
    assert report.method == "structural"


def test_finite_cover_verify(ctx_k2s2):
    ctx = ctx_k2s2
    good = finite_cover([single_site(ctx, 0, 0), single_site(ctx, 0, 1)])
    report = good.verify()
    assert report.ok
    assert report.method == "semantic"
    assert good.count == 2
    assert good.support_bound(single_site(ctx, 0, 0)) == 1

    overlapping = finite_cover(
        [single_site(ctx, 0, 0), from_constraints(ctx, {0: constraint_in([0, 1])})]
    )
    rep = overlapping.verify()
    assert not rep.disjoint
    gappy = finite_cover([single_site(ctx, 0, 0)])
    rep2 = gappy.verify()
    assert not rep2.covers_all
    with pytest.raises(CoverError):
        finite_cover([])
    with pytest.raises(CoverError):
        sigma_extension(ExtensionHandle.issue(
            markov_family(ctx, [F(1, 2), F(1, 2)],
                          [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]),
        ), gappy)


def test_finite_cover_context_mismatch(ctx_k2s2, nat_ctx):
    with pytest.raises(ContextMismatchError):
        finite_cover([single_site(ctx_k2s2, 0, 0), single_site(nat_ctx, 0, 1)])


def test_sigma_exact_via_support_bound(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    ext = sigma_extension(handle, slice_cover(nat_ctx, site=0))
    v = ext.value(single_site(nat_ctx, 0, 3))
    assert v.kind == "exact"
    assert v.total == 1
    assert v.terms_used == 4
    joint = from_constraints(
        nat_ctx, {0: constraint_in([2]), 1: constraint_in([0])}
    )
    assert ext.value(joint).total == F(1, 2)
    assert ext.value(single_site(nat_ctx, 0, 0).intersect(
        single_site(nat_ctx, 0, 5)
    )).total == 0


def test_sigma_diverges_at_bound(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    ext = sigma_extension(handle, slice_cover(nat_ctx, site=0))
    v = ext.value(single_site(nat_ctx, 1, 0))
    assert v.kind == "diverges"
    assert v.terms_used == 2001
    assert v.total == F(2001, 2)
    assert v.bound == 1000
    assert v.render() == "DivergesBeyond(1000)"


def test_sigma_exact_infinity_from_single_term(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    ext = sigma_extension(handle, slice_cover(nat_ctx, site=1))
    v = ext.value(omega(nat_ctx))
    assert v.kind == "exact"
    assert v.total == INFINITE
    assert v.terms_used == 1


def test_sigma_bounded_by_finite_mass(nat_ctx):
    lam = NatSeq.geometric(F(1, 2), F(1, 2))
    kernel = TransitionKernel.for_naturals(NatSeq.geometric(F(1, 2), F(1, 2)))
    fam = markov_family(nat_ctx, lam, kernel)
    handle = ExtensionHandle.issue(fam, verify_depth=2)
    ext = sigma_extension(handle, slice_cover(nat_ctx, site=0))
    v = ext.value(single_site(nat_ctx, 1, 0))
    assert v.kind == "bounded"
    assert v.terms_used == 41
    assert v.tail_bound == F(1, 2**41)
    # the partial sum of lam(i) * P(i, 0) = 2**-(i+2) over i = 0..40
    assert v.total == F(1, 2) * (1 - F(1, 2**41))
    assert "tail" in v.render()


def test_sigma_inconclusive_on_term_budget(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    ext = sigma_extension(handle, slice_cover(nat_ctx, site=0), term_budget=5)
    v = ext.value(single_site(nat_ctx, 1, 0))
    assert v.kind == "inconclusive"
    assert v.terms_used == 5
    assert v.total == F(5, 2)
    assert "Inconclusive" in v.render()


def test_sigma_mass_of_counting_family(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    ext = sigma_extension(handle, slice_cover(nat_ctx, site=0))
    v = ext.mass()
    assert v.kind == "diverges"


def test_cover_independence_blocks(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    events = [
        single_site(nat_ctx, 0, q) for q in range(4)
    ] + [
        from_constraints(nat_ctx, {0: constraint_in([1, 3]), 1: constraint_in([0])}),
    ]
    report = cover_independence(
        handle, slice_cover(nat_ctx, site=0), slice_cover(nat_ctx, site=0, block=2),
        events,
    )
    assert report.ok
    for rec in report.records:
        assert rec.first.kind == "exact"
        assert rec.second.kind == "exact"
        assert rec.first.total == rec.second.total


DIVERGING_SPEC = """
[tree]
k = 2
[spins]
kind = nat
[family]
kind = markov
lambda = geometric 2000 1/2
P = geometric 1/2 1/2
[covers]
root = slice x0
split = list "x0=0" ; "x0 notin {0}"
"""


def test_diverging_sum_against_finite_value():
    built = load_spec(DIVERGING_SPEC)
    ctx = built.ctx
    handle = ExtensionHandle.issue(built.family, verify_depth=1)
    event = single_site(ctx, 1, 0)
    # x1=0 has value 2000; the root slices pass the bound 1000 at 1500
    report = cover_independence(handle, built.covers["split"], built.covers["root"], [event])
    rec = report.records[0]
    assert (rec.first.kind, rec.first.total) == ("exact", 2000)
    assert (rec.second.kind, rec.second.total) == ("diverges", 1500)
    assert rec.agree is None and report.ok
    sums = cover_sum_check(handle, built.covers["root"], [event])
    assert sums.verdict == "INCONCLUSIVE"
    # a finite value below the diverging total is still a violation
    head = finite_cover([single_site(ctx, 0, 0)])
    report = cover_independence(handle, head, built.covers["root"], [event],
                                verify_cover=False)
    assert report.records[0].first.total == 1000
    assert report.records[0].agree is False and not report.ok


INCONSISTENT_PRODUCT_SPEC = """[tree]
k = 2
[spins]
kind = nat
[family]
kind = product
w = geometric 1/2 1/2
w@4 = geometric 1/4 1/2
[covers]
root = slice x0
deep = list "x4=0" ; "x4 notin {0}"
"""


def test_inconclusive_sum_above_exact_value_is_a_mismatch():
    # vertex 4's weights sum to 1/2, which the depth-1 screen cannot see: the
    # deep cover halves the value of x0 notin {0}, while three root slices
    # already sum past it
    built = load_spec(INCONSISTENT_PRODUCT_SPEC)
    handle = ExtensionHandle.issue(built.family, verify_depth=1)
    event = from_constraints(built.ctx, {0: constraint_not_in([0])})
    report = cover_independence(handle, built.covers["deep"], built.covers["root"], [event],
                                term_budget=3)
    rec = report.records[0]
    assert (rec.first.kind, rec.first.total) == ("exact", F(1, 4))
    assert (rec.second.kind, rec.second.total) == ("inconclusive", F(3, 8))
    assert rec.agree is False and not report.ok
    # the cover-sum reading of the same pair of intervals
    assert _cover_sum_verdict(rec.first.total, rec.second) == "FAIL"


# each verdict certifies an interval: bounded [2, 3], diverges and
# inconclusive [5, infinity]; a direct value is the exact interval [d, d]
BOUNDED = SigmaValue("bounded", F(2), tail_bound=F(1))
DIVERGES = SigmaValue("diverges", F(5), bound=F(4))
INCONCLUSIVE = SigmaValue("inconclusive", F(5))
READINGS = [
    (SigmaValue("exact", F(3)), F(3), "PASS", True),
    (SigmaValue("exact", F(3)), F(4), "FAIL", False),
    (SigmaValue("exact", INFINITE), INFINITE, "PASS", True),
    (SigmaValue("exact", INFINITE), F(4), "FAIL", False),
    (BOUNDED, F(1), "FAIL", False),
    (BOUNDED, F(5, 2), "PASS", True),
    (BOUNDED, F(3), "PASS", True),
    (BOUNDED, F(4), "FAIL", False),
    (BOUNDED, INFINITE, "FAIL", False),
    (DIVERGES, F(4), "FAIL", False),
    (DIVERGES, F(6), "INCONCLUSIVE", None),
    (DIVERGES, INFINITE, "PASS", True),
    (INCONCLUSIVE, F(6), "INCONCLUSIVE", None),
    (INCONCLUSIVE, INFINITE, "INCONCLUSIVE", None),
]


@pytest.mark.parametrize("summed, direct, verdict, agree", READINGS)
def test_cover_sum_readers_share_one_interval(summed, direct, verdict, agree):
    assert _cover_sum_verdict(direct, summed) == verdict
    exact = SigmaValue("exact", direct)
    assert _values_agree(exact, summed) is agree
    assert _values_agree(summed, exact) is agree


def test_term_loop_stops_on_uncovered_mass(nat_ctx):
    """A product's root slices stop where the term loop does: root weights
    with a finite support leave no uncovered mass after their last value,
    geometric ones leave a tail bound."""
    w = NatSeq.geometric(F(1, 2), F(1, 2))
    cover = slice_cover(nat_ctx, site=0)
    kwargs = dict(term_budget=200, tolerance=F(1, 2**20))
    # the uncovered mass is 3/4, then 0; or 2**-n after n terms, first below
    # the tolerance at n = 21
    for root, kind, terms in ((NatSeq.finite([F(1, 4), F(3, 4)]), "exact", 2),
                              (w, "bounded", 21)):
        handle = ExtensionHandle.issue(product_family(nat_ctx, w, {0: root}), verify_depth=2)
        for event in (omega(nat_ctx), single_site(nat_ctx, 1, 0)):
            got = sigma_extension(handle, cover, **kwargs).value(event)
            assert (got.kind, got.terms_used) == (kind, terms)
            assert got == term_loop_value(handle, cover, event, **kwargs)


def test_cover_sum_check_pass(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    events = [single_site(nat_ctx, 0, q) for q in range(6)]
    events.append(from_constraints(nat_ctx, {0: constraint_in(range(4))}))
    report = cover_sum_check(handle, slice_cover(nat_ctx, site=0), events)
    assert report.verdict == "PASS"
    assert all(r.verdict == "PASS" for r in report.records)


def test_cover_sum_check_fail_on_non_cover(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    # one part that misses most of the space, smuggled past verification
    partial = finite_cover([from_constraints(nat_ctx, {0: constraint_in([0, 1])})])
    event = from_constraints(nat_ctx, {0: constraint_in([0, 1, 2])})
    report = cover_sum_check(handle, partial, [event], verify_cover=False)
    assert report.verdict == "FAIL"
    rec = report.records[0]
    assert rec.direct == 3
    assert rec.summed.total == 2


def test_cover_sum_check_inconclusive(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    report = cover_sum_check(
        handle, slice_cover(nat_ctx, site=0), [single_site(nat_ctx, 1, 0)],
        term_budget=5,
    )
    assert report.verdict == "INCONCLUSIVE"


def test_fixed_level_cover_accepts_root_slice(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    ext = fixed_level_cover(handle, slice_cover(nat_ctx, site=0))
    assert ext.cover_report is not None and ext.cover_report.ok
    assert ext.value(single_site(nat_ctx, 0, 2)).total == 1


def test_fixed_level_cover_rejects_overlap(chain_fam, ctx_k2s2):
    ctx = ctx_k2s2
    handle = ExtensionHandle.issue(chain_fam)
    overlapping = finite_cover([
        from_constraints(ctx, {0: constraint_in([0, 1])}),
        from_constraints(ctx, {0: constraint_not_in([1])}),
    ])
    with pytest.raises(CoverError):
        fixed_level_cover(handle, overlapping)


def test_fixed_level_cover_rejects_infinite_part(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    whole = finite_cover([omega(nat_ctx)])
    with pytest.raises(CoverError):
        fixed_level_cover(handle, whole)


def test_fixed_level_cover_rejects_deep_site(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    with pytest.raises(CoverError):
        fixed_level_cover(handle, slice_cover(nat_ctx, site=1), level=0)


def test_fixed_level_cover_reads_slices_as_parts(counting_fam, nat_ctx, ctx_k2s2, monkeypatch):
    # a slice based too deep is named as a part, as a finite cover's part is
    handle = counting_handle(counting_fam)
    with pytest.raises(CoverError, match=r"^part 0 is based at depth 1, beyond level 0$"):
        fixed_level_cover(handle, slice_cover(nat_ctx, site=1), level=0)
    # the audit stops at the first mismatched root value: x0=1 is never summed
    broken = markov_family(
        ctx_k2s2, [F(1, 2), F(1, 2)], [[F(2, 3), F(1, 2)], [F(1, 3), F(2, 3)]]
    )
    handle = ExtensionHandle.issue(broken, trusted=True, trust_reason="adversarial probe")
    summed = []
    value = SigmaFiniteExtension.value
    monkeypatch.setattr(SigmaFiniteExtension, "value",
                        lambda self, event: summed.append(event.render()) or value(self, event))
    cover = finite_cover([
        from_constraints(ctx_k2s2, {0: constraint_in([0]), 1: constraint_in([q])})
        for q in (0, 1)
    ] + [single_site(ctx_k2s2, 0, 1)])
    with pytest.raises(CoverError, match="cover sum mismatch on x0=0"):
        fixed_level_cover(handle, cover)
    assert summed == ["x0=0"]


def test_fixed_level_cover_rejects_mismatched_sums(ctx_k2s2):
    ctx = ctx_k2s2
    # kernel row 0 sums to 7/6: depth-1 values of x0=0 disagree with depth 0
    broken = markov_family(
        ctx, [F(1, 2), F(1, 2)], [[F(2, 3), F(1, 2)], [F(1, 3), F(2, 3)]]
    )
    handle = ExtensionHandle.issue(broken, trusted=True, trust_reason="adversarial probe")
    cover = finite_cover([
        from_constraints(ctx, {0: constraint_in([0]), 1: constraint_in([q])}) for q in (0, 1)
    ] + [single_site(ctx, 0, 1)])
    with pytest.raises(CoverError, match="cover sum mismatch on x0=0"):
        fixed_level_cover(handle, cover)


def test_normalized_extension_scaled(chain_fam, ctx_k2s2):
    ctx = ctx_k2s2
    scaled = scale(chain_fam, F(7, 3))
    handle = ExtensionHandle.issue(scaled, verify_depth=2)
    norm = normalized_extension(handle)
    assert norm.total == F(7, 3)
    assert norm.base.mass() == 1
    for event in (single_site(ctx, 0, 0), single_site(ctx, 2, 1), omega(ctx)):
        assert norm.mu(event) == handle.mu(event)
        assert norm.mu(event) == F(7, 3) * norm.base.mu(event)


def test_normalized_extension_of_a_weight_past_the_digit_limit(ctx_k2s2):
    # the rescaled family's label renders 1 / (3**10000 + 1), past the
    # interpreter's 4,300-digit int-to-str limit
    fam = table_family(ctx_k2s2, 0, {(0,): 3**10000, (1,): 1})
    norm = normalized_extension(ExtensionHandle.issue(fam))
    assert norm.total == 3**10000 + 1
    assert norm.base.mass() == 1


def test_normalized_extension_zero_family(chain_fam, ctx_k2s2):
    zero = scale(chain_fam, 0)
    handle = ExtensionHandle.issue(zero, verify_depth=1)
    norm = normalized_extension(handle)
    assert norm.total == 0
    assert norm.base is None
    assert norm.mu(omega(ctx_k2s2)) == 0


def test_normalized_extension_of_depth_one_table(ctx_k2s2):
    # the family is defined to depth 1 only: its mass is read there and at 0
    table = {(0, 0, 0, 1): F(1, 2), (1, 1, 0, 0): F(1, 4), (0, 1, 1, 1): F(3, 4)}
    fam = table_family(ctx_k2s2, 1, table)
    handle = ExtensionHandle.issue(fam, verify_depth=1)
    asked = []
    measure = fam.measure

    def recording(n):
        asked.append(n)
        return measure(n)

    fam.measure = recording
    norm = normalized_extension(handle)
    assert sorted(set(asked)) == [0, 1]
    assert norm.total == F(3, 2)
    for event in (single_site(ctx_k2s2, 0, 0), single_site(ctx_k2s2, 2, 1), omega(ctx_k2s2)):
        assert norm.mu(event) == handle.mu(event)


def test_normalized_extension_refuses_infinite(counting_fam):
    handle = counting_handle(counting_fam)
    with pytest.raises(MassError):
        normalized_extension(handle)


def test_normalized_extension_refuses_drifting_mass(ctx_k2s2):
    drifting = markov_family(
        ctx_k2s2, [F(1, 2), F(1, 2)], [[F(2, 3), F(1, 2)], [F(1, 3), F(2, 3)]]
    )
    handle = ExtensionHandle.issue(drifting, trusted=True, trust_reason="adversarial probe")
    with pytest.raises(MassError):
        normalized_extension(handle)


# A slice cover sums by a search over its partial sums.  The reference is
# the term loop itself: one exact value mu(E & A_i) per cover part, under the
# same stop rules.


def term_loop_value(handle, cover, event, tolerance=DEFAULT_TOLERANCE,
                    term_budget=DEFAULT_TERM_BUDGET, bound=DEFAULT_DIVERGENCE_BOUND):
    def term(i):
        piece = event.intersect(cover.part(i))
        return F(0) if piece.is_empty() else handle.mu(piece)

    def result(kind, total, terms, **extra):
        return SigmaValue(kind, total, terms_used=terms, **extra)

    total = F(0)
    top = cover.support_bound(event)
    if top is not None:
        for i in range(top + 1):
            total = value_add(total, term(i))
        return result("exact", total, top + 1)
    mass = handle.family.mass(0)
    covered = F(0)
    for i in range(term_budget):
        total = value_add(total, term(i))
        if total == INFINITE:
            return result("exact", INFINITE, i + 1)
        if total > bound:
            return result("diverges", total, i + 1, bound=bound)
        if mass != INFINITE:
            covered = value_add(covered, handle.mu(cover.part(i)))
            remaining = value_sub(mass, covered)
            if remaining == 0:
                return result("exact", total, i + 1)
            if remaining < tolerance:
                return result("bounded", total, i + 1, tail_bound=remaining)
    return result("inconclusive", total, max(term_budget, 0))


def seeded_events(ctx, rng, count):
    """Unions of 1-3 rectangles over the root, its children and level 2:
    root-only events (support-bounded when every root set is finite) and
    events that leave the root free or cofinite."""
    sites = [0, 1, 2, 3, 4, 7]
    events = []
    for _ in range(count):
        event = None
        for _ in range(rng.randint(1, 3)):
            chosen = rng.sample(sites, rng.randint(1, 2))
            if rng.random() < 0.3:
                chosen = [0]
            rect = {}
            for v in chosen:
                lo = rng.randrange(6)
                values = set(range(lo, lo + rng.randint(1, 5))) | {rng.randrange(12)}
                rect[v] = (constraint_in if rng.random() < 0.6 else constraint_not_in)(values)
            piece = from_constraints(ctx, rect)
            event = piece if event is None else event.union(piece)
        events.append(event)
    return events


SPEC_DIRS = [
    os.path.join(os.path.dirname(__file__), "data"),
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "samples"),
]
COVER_SPECS = sorted(
    os.path.join(d, fn) for d in SPEC_DIRS for fn in os.listdir(d)
    if fn.endswith(".spec") and "[covers]" in open(os.path.join(d, fn)).read()
)


@pytest.mark.parametrize("path", COVER_SPECS, ids=os.path.basename)
def test_cover_sums_match_term_loop_on_cover_fixtures(path):
    with open(path) as fh:
        built = load_spec(fh.read())
    ctx = built.ctx
    handle = ExtensionHandle.issue(built.family, verify_depth=2)
    covers = list(built.covers.values())
    if not ctx.spins.is_finite:
        covers += [slice_cover(ctx, 0, block) for block in (1, 2, 3)]
        events = [omega(ctx), single_site(ctx, 1, 0)] + seeded_events(
            ctx, random.Random(os.path.basename(path)), 12)
    else:
        events = [omega(ctx), single_site(ctx, 1, 0), single_site(ctx, 0, 1)]
    for cover in covers:
        for event in events:
            for budget, bound in ((40, F(1000)), (20_000, F(7, 2))):
                kwargs = dict(term_budget=budget, bound=bound)
                got = sigma_extension(handle, cover, **kwargs).value(event)
                assert got == term_loop_value(handle, cover, event, **kwargs), (
                    cover.label, event.render(), budget)


STOCHASTIC_NAT_FAMILIES = {
    # root weights with a finite support: the uncovered mass reaches 0
    "finite_lam": (
        NatSeq.finite([F(1, 4), F(0), F(1, 2), F(1, 4)]),
        TransitionKernel.for_naturals(NatSeq.geometric(F(1, 2), F(1, 2))),
    ),
    # explicit kernel rows (w = 2) and geometric root weights after a prefix
    "rows_geometric_lam": (
        NatSeq((F(1, 8), F(1, 8)), "geometric", F(3, 8), F(1, 2)),
        TransitionKernel.for_naturals(
            NatSeq.geometric(F(1, 3), F(2, 3)),
            [NatSeq.finite([F(1, 2), F(1, 2)]), NatSeq((F(0),), "geometric", F(1, 2), F(1, 2))],
        ),
    ),
    # constant root weights after a prefix: infinite mass
    "prefix_const_lam": (
        NatSeq((F(3), F(0), F(1, 2)), "const", F(1, 3), F(0)),
        TransitionKernel.for_naturals(
            NatSeq.geometric(F(1, 2), F(1, 2)), {1: NatSeq.finite([F(0), F(1)])}
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(STOCHASTIC_NAT_FAMILIES))
def test_cover_sums_match_term_loop_on_seeded_events(name):
    lam, kernel = STOCHASTIC_NAT_FAMILIES[name]
    ctx = Context(TreeGeometry(2, 6), SpinSet.naturals())
    handle = ExtensionHandle.issue(markov_family(ctx, lam, kernel), verify_depth=2)
    rng = random.Random(name)
    events = [omega(ctx), single_site(ctx, 1, 0), single_site(ctx, 0, 2)]
    events += seeded_events(ctx, rng, 16)
    settings = [
        dict(term_budget=100, bound=F(1000)),
        dict(term_budget=100, bound=F(1, 2), tolerance=F(1, 2**20)),
        dict(term_budget=3, bound=F(1000), tolerance=F(0)),
        dict(term_budget=0),
        dict(term_budget=50, tolerance=F(1, 100)),
    ]
    kinds = set()
    for event in events:
        for block in (1, 2, 3):
            cover = slice_cover(ctx, 0, block)
            for kwargs in settings:
                got = sigma_extension(handle, cover, **kwargs).value(event)
                assert got == term_loop_value(handle, cover, event, **kwargs), (
                    event.render(), block, kwargs)
                kinds.add(got.kind)
    expected = {"exact", "inconclusive", "diverges"}
    assert expected | ({"bounded"} if name == "rows_geometric_lam" else set()) <= kinds


SLICED_NAT_FAMILIES = {
    # unit-sum weights, the root's with a finite support
    "product_finite_root": lambda ctx: product_family(
        ctx, NatSeq.geometric(F(1, 2), F(1, 2)), {0: NatSeq.finite([F(1, 4), F(3, 4)])}
    ),
    # a sub-stochastic default row that no reached spin takes: only spin 0
    # has root weight, and its row keeps it at 0
    "nonstochastic_chain": lambda ctx: markov_family(
        ctx, NatSeq.finite([F(1)]), TransitionKernel.for_naturals(
            NatSeq.geometric(F(1, 4), F(1, 2)), {0: NatSeq.finite([F(1)])})
    ),
    "stochastic_chain": lambda ctx: markov_family(
        ctx, *STOCHASTIC_NAT_FAMILIES["rows_geometric_lam"]
    ),
}


@pytest.mark.parametrize("name", sorted(SLICED_NAT_FAMILIES))
def test_slice_sums_at_any_site_match_term_loop(name):
    ctx = Context(TreeGeometry(2, 6), SpinSet.naturals())
    handle = ExtensionHandle.issue(SLICED_NAT_FAMILIES[name](ctx), verify_depth=2)
    events = [omega(ctx), single_site(ctx, 1, 0), single_site(ctx, 4, 2)]
    events += seeded_events(ctx, random.Random(name), 12)
    settings = [
        dict(term_budget=100, bound=F(1000)),
        dict(term_budget=100, bound=F(1, 2), tolerance=F(1, 2**20)),
        dict(term_budget=3, bound=F(1000), tolerance=F(0)),
        dict(term_budget=0),
        dict(term_budget=50, tolerance=F(1, 100)),
    ]
    kinds = set()
    for site in (0, 1, 4):
        for block in (1, 2, 3):
            cover = slice_cover(ctx, site, block)
            for event in events:
                for kwargs in settings:
                    got = sigma_extension(handle, cover, **kwargs).value(event)
                    assert got == term_loop_value(handle, cover, event, **kwargs), (
                        event.render(), site, block, kwargs)
                    kinds.add(got.kind)
    # the chain that keeps every spin at 0 leaves no uncovered mass after
    # the first slice, so no tail bound
    assert kinds == {"exact", "inconclusive", "diverges"} | (
        set() if name == "nonstochastic_chain" else {"bounded"})


def test_slice_sum_off_the_root_is_one_search():
    # a chain with root weights of infinite mass, sliced at a child of the
    # root: each term is small, so neither a stop rule nor the support bound
    # ends the sum before the term budget does
    ctx = Context(TreeGeometry(2), SpinSet.naturals())
    fam = markov_family(
        ctx, NatSeq.constant(F(1, 1000)),
        TransitionKernel.for_naturals(NatSeq.geometric(F(1, 2), F(1, 2))),
    )
    handle = ExtensionHandle.issue(fam, verify_depth=2)
    cover = slice_cover(ctx, site=1)
    event = compile_event(ctx, "x0 in {0..9} & x2=0")
    got = sigma_extension(handle, cover, term_budget=2000).value(event)
    assert got == term_loop_value(handle, cover, event, term_budget=2000)
    fresh = ExtensionHandle.issue(fam, verify_depth=2)
    start = time.perf_counter()
    got = sigma_extension(fresh, cover, term_budget=20_000).value(event)
    assert time.perf_counter() - start < 0.5
    assert (got.kind, got.terms_used) == ("inconclusive", 20_000)
    # slice terms are not entered in the handle's write-once record
    assert fresh._values == {}


def test_slice_terms_are_valued_at_one_depth(nat_ctx):
    # consistent at depth 1 but not at depth 2, where site 4's weights sum
    # to 1/2: each term valued at its own base depth would give
    # 15/16 + 1/256 = 241/256, the sum of mu_2's terms is mu_2(E)
    fam = product_family(
        nat_ctx, NatSeq.geometric(F(1, 2), F(1, 2)), {4: NatSeq.geometric(F(1, 4), F(1, 2))}
    )
    handle = ExtensionHandle.issue(fam, verify_depth=1)
    assert check_consistency(fam, 2).violation is not None
    event = compile_event(nat_ctx, "x0 in {0..3} | (x0=5 & x4=0)")
    got = sigma_extension(handle, slice_cover(nat_ctx, site=0)).value(event)
    assert got == SigmaValue("exact", F(121, 256), terms_used=6)
    assert got.total == fam.measure(2).measure_of(event)


OVERRIDE_WEIGHTS = [
    NatSeq.geometric(F(1, 2), F(1, 2)),
    NatSeq.geometric(F(1, 4), F(1, 2)),
    NatSeq.constant(F(1)),
    NatSeq.finite([F(1, 3), F(2, 3)]),
    NatSeq.geometric(F(3, 4), F(1, 4)),
]


def screened_families(ctx, rng, count):
    """Seeded products with 0-2 overrides at vertices 0-9 that pass the
    depth-1 check the CLI screens with, so many are inconsistent deeper
    down, and the sliced chains."""
    fams = [make(ctx) for _, make in sorted(SLICED_NAT_FAMILIES.items())]
    while len(fams) < count:
        overrides = {v: rng.choice(OVERRIDE_WEIGHTS)
                     for v in rng.sample(range(10), rng.randint(0, 2))}
        fam = product_family(ctx, NatSeq.geometric(F(1, 2), F(1, 2)), overrides)
        try:
            ExtensionHandle.issue(fam, verify_depth=1)
        except VerificationError:
            continue
        fams.append(fam)
    return fams


def test_slice_sums_certify_the_value_at_their_depth():
    # whatever the family does below the depth it was checked to, a slice
    # sum's certified interval holds mu_d(E) at its one depth d and its tail
    # bound is never negative: every number it reads is mu_d's
    ctx = Context(TreeGeometry(2, 6), SpinSet.naturals())
    rng = random.Random(4)
    settings = [
        dict(term_budget=100, bound=F(1000)),
        dict(term_budget=100, bound=F(1, 2), tolerance=F(1, 2**20)),
        dict(term_budget=3, tolerance=F(0)),
    ]
    kinds = set()
    for fam in screened_families(ctx, rng, 20):
        handle = ExtensionHandle.issue(fam, verify_depth=1)
        events = [omega(ctx), single_site(ctx, 1, 0)] + seeded_events(ctx, rng, 2)
        for site in (0, 1, 4):
            for block in (1, 2):
                cover = slice_cover(ctx, site, block)
                for event in events:
                    d = max(event.base_depth, ctx.tree.level(site))
                    direct = fam.measure(d).measure_of(event)
                    for kwargs in settings:
                        got = sigma_extension(handle, cover, **kwargs).value(event)
                        lo, hi = _bracket(got)
                        assert lo <= direct <= hi, (fam.label, event.render(), site, block)
                        assert got.tail_bound is None or got.tail_bound >= 0
                        kinds.add(got.kind)
    assert kinds == {"exact", "bounded", "diverges", "inconclusive"}


def test_closed_form_cover_sum_reaches_every_verdict(counting_fam, nat_ctx):
    handle = counting_handle(counting_fam)
    ext = sigma_extension(handle, slice_cover(nat_ctx, site=0), term_budget=20_000)
    event = single_site(nat_ctx, 1, 0)
    # each term is 1/2: the partial sum first exceeds 1000 at term 2001
    diverges = ext.value(event)
    assert diverges == term_loop_value(handle, ext.cover, event, term_budget=20_000)
    assert (diverges.kind, diverges.terms_used, diverges.total) == ("diverges", 2001, F(2001, 2))


def test_root_slice_sums_match_the_running_totals(counting_fam, nat_ctx):
    # the closed form reads the total after term i as below((i + 1) * block):
    # after each of the first 16 terms it is the term loop's running total
    cases = [(counting_handle(counting_fam), [single_site(nat_ctx, 1, 0)])]
    for name in sorted(STOCHASTIC_NAT_FAMILIES):
        lam, kernel = STOCHASTIC_NAT_FAMILIES[name]
        ctx = Context(TreeGeometry(2, 6), SpinSet.naturals())
        handle = ExtensionHandle.issue(markov_family(ctx, lam, kernel), verify_depth=2)
        events = [omega(ctx), single_site(ctx, 1, 0), single_site(ctx, 0, 2)]
        cases.append((handle, events + seeded_events(ctx, random.Random(name), 16)))
    for handle, events in cases:
        for event in events:
            below = handle.family.measure(event.base_depth).root_slice_sums(event)
            for block in (1, 2, 3):
                cover = slice_cover(handle.ctx, 0, block)
                total = F(0)
                for i in range(16):
                    piece = event.intersect(cover.part(i))
                    total = value_add(total, F(0) if piece.is_empty() else handle.mu(piece))
                    assert below((i + 1) * block) == total, (event.render(), block, i)


OTHER_NAT = Context(TreeGeometry(3), SpinSet.naturals())


def _nat_product_handle(nat_ctx):
    fam = product_family(nat_ctx, NatSeq.geometric(F(1, 2), F(1, 2)))
    return ExtensionHandle.issue(fam, verify_depth=1)


@pytest.mark.parametrize("call, error, message", [
    (lambda nat, fin: conditional_family(nat, single_site(OTHER_NAT, 0, 0)),
     ContextMismatchError, "conditioning event built over a different context"),
    (lambda nat, fin: conditional_family(_nat_product_handle(nat.ctx),
                                         single_site(nat.ctx, 0, 0)).as_family(),
     SpinRangeError, "closed-form restriction needs a chain family over the denumerable spins"),
    (lambda nat, fin: slice_cover(nat.ctx).part(-1), IndexError,
     "part index must be non-negative"),
    (lambda nat, fin: sigma_extension(nat, slice_cover(OTHER_NAT)), ContextMismatchError,
     "cover built over a different context"),
    (lambda nat, fin: sigma_extension(nat, slice_cover(nat.ctx)).value(omega(OTHER_NAT)),
     ContextMismatchError, "event built over a different context"),
    (lambda nat, fin: fixed_level_cover(fin, finite_cover(
        [single_site(fin.ctx, 4, 0), single_site(fin.ctx, 4, 1)]), level=1),
     CoverError, "part 0 is based at depth 2, beyond level 1"),
], ids=["conditional-ctx", "restriction-product", "slice-part-index", "sigma-cover-ctx",
        "sigma-event-ctx", "fixed-level-part-depth"])
def test_public_guards_raise_their_documented_error(counting_fam, chain_fam, call, error,
                                                    message):
    nat = counting_handle(counting_fam)
    fin = ExtensionHandle.issue(chain_fam, verify_depth=1)
    with pytest.raises(error) as err:
        call(nat, fin)
    assert str(err.value) == message
