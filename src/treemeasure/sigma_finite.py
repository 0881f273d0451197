"""Conditional restrictions, countable covers, and sigma-finite evaluation.

A family whose total mass is infinite still determines exact values on
cylinder sets, and a countable disjoint cover of the configuration space by
finite-mass cylinders turns those values into convergent (or certifiably
divergent) sums.  This module provides the restriction-to-an-event view,
cover descriptions with structural support bounds, the summation engine
with its verdict vocabulary, and the checks that make a cover trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .cylinder import (
    Context,
    CylinderSet,
    c_contains,
    c_runs,
    constraint_in,
    first_overlap,
    from_constraints,
    omega,
    single_site,
)
from .errors import (
    ContextMismatchError,
    CoverError,
    MassError,
    SpinRangeError,
)
from .extension import ExtensionHandle
from .measure import (
    DEFAULT_ATOM_BUDGET,
    INFINITE,
    DenseTableForm,
    MarkovForm,
    MeasureFamily,
    NatSeq,
    family_kind,
    markov_family,
    render_value,
    scale,
    table_family,
    value_add,
    value_mul,
    value_sub,
)

DEFAULT_TOLERANCE = Fraction(1, 2**40)
DEFAULT_TERM_BUDGET = 10**6
DEFAULT_DIVERGENCE_BOUND = Fraction(1000)


# ---------------------------------------------------------------------------
# restriction to a finite-mass event


class ConditionalExtension:
    """The set function E -> mu(E intersect A) for a fixed finite-mass A.

    Restriction keeps the family's consistency, so the value may be computed
    at any depth containing both bases; `value(..., verify=True)` recomputes
    one level deeper and lets the handle's write-once cache certify the
    agreement.
    """

    def __init__(self, handle: ExtensionHandle, event: CylinderSet):
        if event.ctx != handle.ctx:
            raise ContextMismatchError("conditioning event built over a different context")
        total = handle.mu(event)
        if total == INFINITE:
            raise MassError(
                f"conditioning event has infinite value: {event.render()}"
            )
        self.handle = handle
        self.event = event
        self._mass = total

    def mass(self) -> Fraction:
        return self._mass

    def value(self, other: CylinderSet, verify: bool = False):
        joint = other.intersect(self.event)
        depth = max(other.base_depth, self.event.base_depth, joint.base_depth)
        out = self.handle.mu(joint, at_depth=depth)
        if verify:
            self.handle.mu(joint, at_depth=depth + 1)
        return out

    def as_family(self, depth: int | None = None,
                  budget: int = DEFAULT_ATOM_BUDGET) -> MeasureFamily:
        """The restriction as a family in its own right.

        Finite spin sets materialize a table at `depth` (default: the
        conditioning event's base depth) and keep the entries that the
        table's entry index selects inside the event
        (`DenseTableForm.selector`).  Over the denumerable spin set the
        restriction stays in closed form when the family is a chain and the
        event constrains only the root.
        """
        ctx = self.handle.ctx
        if ctx.spins.is_finite:
            d = self.event.base_depth if depth is None else depth
            if d < self.event.base_depth:
                raise ValueError("materialization depth below the event's base depth")
            dense = DenseTableForm(self.handle.family.measure(d).dense_table(budget))
            kept = dict(compress(dense.table.items(), dense.selector(self.event)))
            return table_family(ctx, d, kept, label=f"restricted({self.event.render()})")
        form = self.handle.family.measure(0).form
        if not isinstance(form, MarkovForm):
            raise SpinRangeError(
                "closed-form restriction needs a chain family over the denumerable spins"
            )
        if len(self.event.rectangles) != 1 or self.event.rectangles[0].sites() != (0,):
            raise SpinRangeError(
                "closed-form restriction needs a single root-site constraint"
            )
        constraint = self.event.rectangles[0].constraint_at(0)
        lam: NatSeq = form.lam
        # allowed root spins keep their weights; an open last run of them
        # keeps lam's tail from the end of the restricted prefix on
        lo, hi = c_runs(constraint, ctx.spins)[-1]
        width = hi if hi is not None else max(lo, len(lam.prefix))
        prefix = tuple(
            lam.value_at(q) if c_contains(constraint, q) else Fraction(0)
            for q in range(width)
        )
        if hi is None:
            lam2 = NatSeq(prefix, lam.tail_kind, lam.value_at(width), lam.tail_r)
        else:
            lam2 = NatSeq(prefix)
        return markov_family(
            ctx, lam2, form.kernel, kind=family_kind(False, lam2.sum_all()),
            label=f"restricted({self.event.render()})",
        )


def conditional_family(handle: ExtensionHandle, event: CylinderSet) -> ConditionalExtension:
    return ConditionalExtension(handle, event)


@dataclass(frozen=True)
class RestrictionRecord:
    event: CylinderSet
    values: tuple
    ok: bool


@dataclass(frozen=True)
class RestrictionReport:
    records: tuple[RestrictionRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)


def restriction_identity_check(cond: ConditionalExtension, events,
                               extra_depths: int = 2) -> RestrictionReport:
    """Recompute each restricted value at several depths; all must agree."""
    fam = cond.handle.family
    records = []
    for event in events:
        joint = event.intersect(cond.event)
        start = max(event.base_depth, cond.event.base_depth, joint.base_depth)
        values = tuple(
            fam.measure(d).measure_of(joint)
            for d in range(start, start + extra_depths + 1)
        )
        records.append(RestrictionRecord(event, values, len(set(values)) == 1))
    return RestrictionReport(tuple(records))


# ---------------------------------------------------------------------------
# covers


@dataclass(frozen=True)
class CoverReport:
    covers_all: bool
    disjoint: bool
    method: str  # "semantic" | "structural"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.covers_all and self.disjoint


class Cover:
    """Countable disjoint cover of the configuration space by cylinder sets.

    Finite covers carry their parts outright and are verified semantically.
    Slice covers partition the denumerable spin set at one site into
    consecutive blocks; they have denumerably many parts, are a partition by
    construction, and expose a structural support bound: an event whose
    rectangles all pin the slice site to finite value sets meets only
    finitely many parts, and the bound says how many.
    """

    def __init__(self, ctx: Context, kind: str, parts=(), site: int = 0,
                 block: int = 1, label: str = ""):
        self.ctx = ctx
        self.kind = kind
        self.label = label
        self._parts = tuple(parts)
        self.site = site
        self.block = block

    @property
    def count(self) -> int | None:
        """Number of parts; None means denumerably many."""
        return len(self._parts) if self.kind == "finite" else None

    def part(self, i: int) -> CylinderSet:
        if i < 0:
            raise IndexError("part index must be non-negative")
        if self.kind == "finite":
            return self._parts[i]
        return self._slice(i * self.block, (i + 1) * self.block)

    def _slice(self, lo: int, hi: int) -> CylinderSet:
        """The event lo <= x_site < hi: part i of a slice cover, and from
        lo = 0 the union of the parts below hi / block."""
        return from_constraints(self.ctx, {self.site: constraint_in(range(lo, hi))})

    def support_bound(self, event: CylinderSet) -> int | None:
        """Largest part index the event can meet, -1 for the empty event,
        None when no finite bound is available structurally."""
        if event.is_empty():
            return -1
        if self.kind == "finite":
            return len(self._parts) - 1
        top = -1
        for rect in event.rectangles:
            hi = c_runs(rect.constraint_at(self.site), self.ctx.spins)[-1][1]
            if hi is None:
                return None
            top = max(top, hi - 1)
        return top // self.block

    def verify(self) -> CoverReport:
        if self.kind == "slice":
            return CoverReport(
                True, True, "structural",
                f"blocks of {self.block} at site {self.site} partition the spin set",
            )
        whole = CylinderSet.build(self.ctx, [r for p in self._parts for r in p.rectangles])
        covers = whole.is_omega()
        overlap = first_overlap(self._parts)
        if overlap is not None:
            detail = f"parts {overlap[0]} and {overlap[1]} overlap"
        else:
            detail = "" if covers else "union of parts misses part of the space"
        return CoverReport(covers, overlap is None, "semantic", detail)


def finite_cover(parts, label: str = "") -> Cover:
    parts = tuple(parts)
    if not parts:
        raise CoverError("a cover needs at least one part")
    ctx = parts[0].ctx
    for p in parts:
        if p.ctx != ctx:
            raise ContextMismatchError("cover parts built over different contexts")
    return Cover(ctx, "finite", parts=parts, label=label or "finite cover")


def slice_cover(ctx: Context, site: int = 0, block: int = 1, label: str = "") -> Cover:
    if ctx.spins.is_finite:
        raise SpinRangeError("slice covers partition the denumerable spin set")
    if block < 1:
        raise ValueError("block size must be at least 1")
    ctx.tree.check_vertex(site)
    return Cover(
        ctx, "slice", site=site, block=block,
        label=label or f"slices of {block} at x{site}",
    )


# ---------------------------------------------------------------------------
# sigma-finite evaluation


@dataclass(frozen=True)
class SigmaValue:
    """Outcome of a cover sum, with the interval of values it certifies.

    exact: `total` is the value (possibly the float infinity): [total, total].
    bounded: the value lies in [total, total + tail_bound].
    diverges: the partial sum `total` passed `bound`: [total, infinity].
    inconclusive: the partial sum reached the term budget; `total` is a
    lower bound with no tail certificate: [total, infinity].

    Both audits (`cover_independence`, `cover_sum_check`) call disjoint
    intervals a violation, inconclusive or not; otherwise they read
    `inconclusive`, and `diverges` against a finite value at or above its
    total, as inconclusive.
    """

    kind: str
    total: object
    tail_bound: Fraction | None = None
    terms_used: int = 0
    bound: Fraction | None = None

    def render(self) -> str:
        if self.kind == "exact":
            return render_value(self.total)
        if self.kind == "bounded":
            return (
                f"{render_value(self.total)} (+ tail <= "
                f"{render_value(self.tail_bound)})"
            )
        if self.kind == "diverges":
            return f"DivergesBeyond({render_value(self.bound)})"
        return f"Inconclusive(lower={render_value(self.total)}, terms={self.terms_used})"


class SigmaFiniteExtension:
    """Values of cylinder sets as sums over a disjoint cover.

    Each term mu(E intersect A_i) is exact; the verdict states how the sum
    itself terminated.  Structural support bounds make root-constrained
    events exact; otherwise the finite total mass (when there is one) bounds
    the tail, a partial sum crossing the divergence bound certifies
    divergence, and the term budget is the last resort.

    A finite cover sums its parts one term at a time, each an `intersect`
    and an `ExtensionHandle.mu`.  A slice cover at site v reads its partial
    sums instead: the total after n terms is mu_d(E & {x_v < n * block})
    and the mass the first n parts leave uncovered is mu_d(Omega) less
    mu_d({x_v < n * block}), all at the one depth d = max(E.base_depth,
    level(v)).  A chain sliced at the root reads them from
    `VolumeMeasure.root_slice_sums`, any other slice cover from one
    `measure_of` of the cut event.  A galloping search and then a binary
    search over these sums find the first term that meets a stop rule, so a
    verdict after 10^6 terms costs O(log 10^6) partial sums.  On a family
    consistent through d this is the loop of terms at their own base depths;
    on one that is not, every number read is mu_d's, so the uncovered mass
    is never negative.  Slice terms are not entered in the handle's
    write-once record.
    """

    def __init__(self, handle: ExtensionHandle, cover: Cover, tolerance: Fraction,
                 term_budget: int, bound: Fraction, cover_report: CoverReport | None):
        if cover.ctx != handle.ctx:
            raise ContextMismatchError("cover built over a different context")
        self.handle = handle
        self.cover = cover
        self.tolerance = Fraction(tolerance)
        self.term_budget = term_budget
        self.bound = Fraction(bound)
        self.cover_report = cover_report

    def _below(self, event: CylinderSet, d: int):
        """n -> mu_d(event & {x_v < n}) for the slice site v."""
        cover = self.cover
        mu = self.handle.family.measure(d)
        if cover.site == 0 and isinstance(mu.form, MarkovForm):
            return mu.root_slice_sums(event)
        return lambda n: mu.measure_of(event.intersect(cover._slice(0, n)))

    def _stop(self, i: int, total, remaining) -> SigmaValue | None:
        """The verdict after term i, or None to keep summing.  `remaining` is
        the mass the first i + 1 cover parts leave uncovered, None when the
        family's mass is infinite.  A rule that holds at term i holds at every
        later term: totals never fall, and the uncovered mass never rises."""
        if total == INFINITE:
            return SigmaValue("exact", INFINITE, terms_used=i + 1)
        if total > self.bound:
            return SigmaValue("diverges", total, terms_used=i + 1, bound=self.bound)
        if remaining == 0:
            return SigmaValue("exact", total, terms_used=i + 1)
        if remaining is not None and remaining < self.tolerance:
            return SigmaValue("bounded", total, tail_bound=remaining, terms_used=i + 1)
        return None

    def _closed_form_value(self, event: CylinderSet, top: int | None) -> SigmaValue:
        """The slice cover's sum, read off the partial sums: the total after
        term i is below((i + 1) * block).  The first term meeting a stop
        rule is found by a galloping search and then a binary search."""
        block = self.cover.block
        d = max(event.base_depth, self.handle.ctx.tree.level(self.cover.site))
        below = self._below(event, d)
        if top is not None:
            return SigmaValue("exact", below((top + 1) * block), terms_used=top + 1)
        mass = self.handle.family.mass(d)
        covered = self._below(omega(self.handle.ctx), d) if mass != INFINITE else None

        def stop(i: int):
            n = (i + 1) * block
            remaining = None if covered is None else value_sub(mass, covered(n))
            return self._stop(i, below(n), remaining)

        budget = max(self.term_budget, 0)
        lo, hi = 0, 1  # galloping: no term below lo meets a stop rule
        while hi < budget and stop(hi - 1) is None:
            lo, hi = hi, 2 * hi
        first, hi = lo, min(hi, budget)
        while first < hi:  # bisection over ints: a range past sys.maxsize has no len
            mid = (first + hi) // 2
            if stop(mid) is None:
                first = mid + 1
            else:
                hi = mid
        if first == budget:
            return SigmaValue("inconclusive", below(budget * block), terms_used=budget)
        return stop(first)

    def value(self, event: CylinderSet) -> SigmaValue:
        if event.ctx != self.handle.ctx:
            raise ContextMismatchError("event built over a different context")
        top = self.cover.support_bound(event)
        if self.cover.kind == "slice":
            return self._closed_form_value(event, top)
        # a finite cover's support bound is its last part (-1: empty event)
        total = Fraction(0)
        for i in range(top + 1):
            piece = event.intersect(self.cover.part(i))
            if not piece.is_empty():
                total = value_add(total, self.handle.mu(piece))
        return SigmaValue("exact", total, terms_used=top + 1)

    def mass(self) -> SigmaValue:
        return self.value(omega(self.handle.ctx))


def sigma_extension(handle: ExtensionHandle, cover: Cover,
                    tolerance: Fraction = DEFAULT_TOLERANCE,
                    term_budget: int = DEFAULT_TERM_BUDGET,
                    bound: Fraction = DEFAULT_DIVERGENCE_BOUND,
                    verify_cover: bool = True) -> SigmaFiniteExtension:
    report = None
    if verify_cover:
        report = cover.verify()
        if not report.ok:
            raise CoverError(f"cover {cover.label!r} rejected: {report.detail}")
    return SigmaFiniteExtension(handle, cover, tolerance, term_budget, bound, report)


# ---------------------------------------------------------------------------
# cover-level checks


@dataclass(frozen=True)
class IndependenceRecord:
    event: CylinderSet
    first: SigmaValue
    second: SigmaValue
    agree: bool | None


@dataclass(frozen=True)
class IndependenceReport:
    records: tuple[IndependenceRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.agree is not False for r in self.records)


def _bracket(sv: SigmaValue) -> tuple:
    """The interval [lo, hi] the value of a cover sum is certified to lie in."""
    if sv.kind == "exact":
        return sv.total, sv.total
    if sv.kind == "bounded":
        return sv.total, sv.total + sv.tail_bound
    return sv.total, INFINITE


def _values_agree(a: SigmaValue, b: SigmaValue) -> bool | None:
    """False for disjoint intervals, None when an inconclusive sum or a
    diverging sum against a finite value leaves the answer open, else True."""
    (lo_a, hi_a), (lo_b, hi_b) = _bracket(a), _bracket(b)
    if hi_a < lo_b or hi_b < lo_a:
        return False
    if a.kind == "inconclusive" or b.kind == "inconclusive":
        return None
    # a diverging sum against a finite value at or above its total
    if (hi_a == INFINITE) != (hi_b == INFINITE):
        return None
    return True


def cover_independence(handle: ExtensionHandle, first: Cover, second: Cover,
                       events, **kwargs) -> IndependenceReport:
    """Cover sums over two covers must agree wherever both are determinate."""
    ext_a = sigma_extension(handle, first, **kwargs)
    ext_b = sigma_extension(handle, second, **kwargs)
    records = []
    for event in events:
        va = ext_a.value(event)
        vb = ext_b.value(event)
        records.append(IndependenceRecord(event, va, vb, _values_agree(va, vb)))
    return IndependenceReport(tuple(records))


@dataclass(frozen=True)
class CoverSumRecord:
    event: CylinderSet
    direct: object
    summed: SigmaValue
    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"


@dataclass(frozen=True)
class CoverSumReport:
    records: tuple[CoverSumRecord, ...]

    @property
    def verdict(self) -> str:
        if any(r.verdict == "FAIL" for r in self.records):
            return "FAIL"
        if any(r.verdict == "INCONCLUSIVE" for r in self.records):
            return "INCONCLUSIVE"
        return "PASS"


def _cover_sum_verdict(direct, summed: SigmaValue) -> str:
    agree = _values_agree(SigmaValue("exact", direct), summed)
    return {True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[agree]


def _audit(handle: ExtensionHandle, engine: SigmaFiniteExtension, events):
    """Direct value against cover sum, one record per event as it is reached."""
    for event in events:
        direct = handle.mu(event)
        summed = engine.value(event)
        yield CoverSumRecord(event, direct, summed, _cover_sum_verdict(direct, summed))


def cover_sum_check(handle: ExtensionHandle, cover: Cover, events,
                    **kwargs) -> CoverSumReport:
    """For each event, the cover sum must reproduce the direct value.

    Exact sums must match exactly; bounded sums must bracket the direct
    value; a certified-divergent sum is only compatible with an infinite
    direct value.
    """
    engine = sigma_extension(handle, cover, **kwargs)
    return CoverSumReport(tuple(_audit(handle, engine, events)))


def fixed_level_cover(handle: ExtensionHandle, cover: Cover,
                      level: int | None = None, **kwargs) -> SigmaFiniteExtension:
    """Accept a cover only if it is a disjoint partition whose parts (all of
    a finite cover, the first 8 slices) have finite mass and are based within
    `level` (default: their deepest base depth), and whose sums reproduce the
    direct values of the root values below 8; return the summation engine.
    """
    engine = sigma_extension(handle, cover, **kwargs)
    parts = [cover.part(i) for i in range(8 if cover.count is None else cover.count)]
    level = max(p.base_depth for p in parts) if level is None else level
    for i, p in enumerate(parts):
        if p.base_depth > level:
            raise CoverError(
                f"part {i} is based at depth {p.base_depth}, beyond level {level}"
            )
    for i, p in enumerate(parts):
        if handle.mu(p) == INFINITE:
            raise CoverError(f"part {i} has infinite value")
    events = (single_site(handle.ctx, 0, q) for q in range(8) if handle.ctx.spins.contains(q))
    for record in _audit(handle, engine, events):
        if record.verdict == "FAIL":
            raise CoverError(
                f"cover sum mismatch on {record.event.render()}: direct "
                f"{render_value(record.direct)} vs {record.summed.render()}"
            )
    return engine


# ---------------------------------------------------------------------------
# normalization


class NormalizedExtension:
    """A finite-total family split into total mass times a probability handle.

    `total` is the common mass c of the family's measures; `base` is the
    handle of the family rescaled by 1/c (None when c is zero, in which case
    every value is zero).  `mu` reproduces the original values as c times
    the probability values.
    """

    def __init__(self, total: Fraction, base: ExtensionHandle | None):
        self.total = total
        self.base = base

    def mu(self, event: CylinderSet, at_depth: int | None = None):
        if self.base is None:
            return Fraction(0)
        return value_mul(self.total, self.base.mu(event, at_depth=at_depth))


def normalized_extension(handle: ExtensionHandle) -> NormalizedExtension:
    """Split a finite-total handle into mass times a probability handle.

    The family's mass is recomputed at depths 0, 1 and 2 (those it defines);
    the masses must be finite and all equal (anything else means the family
    is not the finite-total object it claims to be).
    """
    fam = handle.family
    depths = [0, 1, 2]
    if fam.max_defined_depth is not None:
        depths = [d for d in depths if d <= fam.max_defined_depth]
    masses = [fam.mass(d) for d in depths]
    for m in masses:
        if m == INFINITE:
            raise MassError("family has infinite total mass; nothing to normalize")
    if len(set(masses)) != 1:
        rendered = ", ".join(render_value(m) for m in masses)
        raise MassError(f"family masses disagree across depths: {rendered}")
    total = masses[0]
    if total == 0:
        return NormalizedExtension(Fraction(0), None)
    prob = scale(fam, Fraction(1) / total, kind="probability")
    base = ExtensionHandle.issue(
        prob, trusted=True,
        trust_reason="rescaling a verified family by a positive constant",
    )
    return NormalizedExtension(total, base)
