"""Extension of a consistent family to a set function on all cylinder sets.

A consistent depth-indexed family determines one value for every cylinder
set: evaluate at any depth that contains the base and the answer does not
depend on the choice.  The handle below is that set function, plus probes
for the properties an extension is supposed to have (additivity along
finite partitions, behaviour along shrinking chains, inner approximation
by spin-bounded subsets, and agreement between independently built
handles).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cylinder import (
    Context,
    CylinderSet,
    constraint_in,
    empty_set,
    first_overlap,
    from_constraints,
    omega,
    random_cylinder,
)
from .errors import (
    BudgetError,
    ContextMismatchError,
    DisjointnessError,
    MassError,
    NestingError,
    VerificationError,
)
from .measure import (
    DEFAULT_ATOM_BUDGET,
    INFINITE,
    ConsistencyReport,
    MeasureFamily,
    check_consistency,
    render_value,
    value_add,
    value_sub,
)


class ExtensionHandle:
    """The cylinder-set function determined by a consistent family.

    Built through `issue`, which either verifies consistency up to a stated
    depth or records why verification was skipped; a check that ran out of
    its atom budget raises `BudgetError` instead.  Every value ever computed
    is recorded with the depth it was first valued at, under the cylinder's
    canonical key: a repeat at that depth returns the record, and valuing
    the same set at any other depth must reproduce it, so the record doubles
    as a representation-independence monitor.  The key is the event's
    canonical rectangles, so the record refuses two values for one spelling
    of an event: with s = 3, `x0=0 | x0=1` and `x0 in {0,1}` have different
    keys and are checked separately.
    """

    def __init__(self, family: MeasureFamily, report: ConsistencyReport | None,
                 trusted: bool, trust_reason: str):
        self.family = family
        self.report = report
        self.trusted = trusted
        self.trust_reason = trust_reason
        self._values: dict = {}

    @classmethod
    def issue(cls, family: MeasureFamily, verify_depth: int = 2,
              trusted: bool = False, trust_reason: str = "",
              budget: int = DEFAULT_ATOM_BUDGET) -> "ExtensionHandle":
        if trusted:
            if not trust_reason:
                raise ValueError("a trusted handle needs a recorded reason")
            return cls(family, None, True, trust_reason)
        declared = family.declared_consistent_to
        if declared is not None and declared >= verify_depth:
            return cls(family, None, True, "consistent by construction")
        report = check_consistency(family, verify_depth, budget)
        if report.violation is not None:
            raise VerificationError(
                f"family is not consistent: {report.violation.render()}"
            )
        if report.budget_limited:
            raise BudgetError(
                f"consistency verified to depth {report.verified_depth} of {verify_depth} "
                f"within atom budget {budget}; trusted=True with a reason accepts it anyway"
            )
        return cls(family, report, False, "")

    @property
    def ctx(self) -> Context:
        return self.family.ctx

    def mu(self, event: CylinderSet, at_depth: int | None = None):
        """Value of a cylinder set, evaluated at its base depth by default.

        Passing `at_depth` evaluates at a deeper ball.  A repeat at the depth
        the write-once record holds returns its value; any other depth is
        valued and compared, and a difference raises `VerificationError`.
        """
        if event.ctx != self.ctx:
            raise ContextMismatchError("event built over a different context")
        depth = event.base_depth if at_depth is None else at_depth
        if depth < event.base_depth:
            raise ValueError(
                f"evaluation depth {depth} below base depth {event.base_depth}"
            )
        key = event.canonical_key()
        cached, first = self._values.get(key, (None, None))
        if first == depth:
            return cached
        value = self.family.measure(depth).measure_of(event)
        if first is None:
            self._values[key] = value, depth
        elif cached != value:
            raise VerificationError(
                f"depth-dependent value on {event.render()}: cached "
                f"{render_value(cached)}, depth {depth} gave {render_value(value)}"
            )
        return value

    def mass(self):
        return self.mu(omega(self.ctx))


# ---------------------------------------------------------------------------
# probes


@dataclass(frozen=True)
class AdditivityReport:
    parts_total: object
    whole_value: object
    ok: bool


def additivity_check(handle: ExtensionHandle, parts, whole: CylinderSet | None = None,
                     at_depth: int | None = None) -> AdditivityReport:
    """Exact additivity along a finite disjoint union.

    Disjointness is certified set-theoretically first; overlapping parts
    raise rather than producing a meaningless sum.
    """
    parts = list(parts)
    overlap = first_overlap(parts)
    if overlap is not None:
        a, b = overlap
        raise DisjointnessError(
            f"parts {a} and {b} overlap: {parts[a].render()} vs {parts[b].render()}"
        )
    union = empty_set(handle.ctx)
    for p in parts:
        union = union.union(p)
    if whole is None:
        whole = union
    elif not whole.semantic_equal(union):
        raise DisjointnessError("declared whole differs from the union of parts")
    total = Fraction(0)
    for p in parts:
        total = value_add(total, handle.mu(p, at_depth=at_depth))
    whole_value = handle.mu(whole, at_depth=at_depth)
    return AdditivityReport(total, whole_value, total == whole_value)


@dataclass(frozen=True)
class ContinuityReport:
    values: tuple
    verdict: str  # "empty-certified" | "decayed" | "no-decay"

    @property
    def final(self):
        return self.values[-1]


def continuity_probe(handle: ExtensionHandle, chain) -> ContinuityReport:
    """Value trajectory along a decreasing chain of cylinder sets.

    The nesting is certified set-theoretically; a chain that is not actually
    decreasing raises.  Emptiness is only ever certified by the set algebra,
    never inferred from small values.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("need at least one set in the chain")
    for t in range(len(chain) - 1):
        if not chain[t + 1].subset_of(chain[t]):
            raise NestingError(f"chain is not decreasing at step {t} -> {t + 1}")
    values = tuple(handle.mu(e) for e in chain)
    if chain[-1].is_empty():
        verdict = "empty-certified"
    elif all(values[t + 1] < values[t] for t in range(len(values) - 1)):
        verdict = "decayed"
    else:
        verdict = "no-decay"
    return ContinuityReport(values, verdict)


@dataclass(frozen=True)
class InnerApprox:
    subset: CylinderSet
    gap: Fraction
    cutoff: int


def inner_compact_approx(handle: ExtensionHandle, event: CylinderSet,
                         epsilon, at_depth: int | None = None,
                         max_doublings: int = 64) -> InnerApprox:
    """Spin-bounded inner approximation with a certified gap below epsilon.

    Over a finite spin set every cylinder already has a compact base, so the
    event itself is returned with gap zero.  Over the denumerable spin set
    the base sites are clamped to {0..M} and M doubles until the exact gap
    drops below epsilon.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ctx = handle.ctx
    depth = event.base_depth if at_depth is None else max(at_depth, event.base_depth)
    total = handle.mu(event, at_depth=depth)
    if total == INFINITE:
        raise MassError("cannot approximate an event of infinite value")
    if ctx.spins.is_finite:
        return InnerApprox(event, Fraction(0), 0)
    cutoff = 1
    gap = Fraction(total)
    for _ in range(max_doublings):
        clamp = from_constraints(
            ctx,
            {v: constraint_in(range(cutoff + 1)) for v in ctx.tree.ball_vertices(depth)},
        )
        subset = event.intersect(clamp)
        gap = value_sub(total, handle.mu(subset, at_depth=depth))
        if gap < epsilon:
            return InnerApprox(subset, gap, cutoff)
        cutoff *= 2
    raise MassError(
        f"gap still {render_value(gap)} >= {render_value(epsilon)} "
        f"after clamping spins to 0..{cutoff // 2}"
    )


@dataclass(frozen=True)
class CrosscheckReport:
    trials: int
    agreements: int
    witness: tuple | None  # (event, lhs value, rhs value)
    ratio: Fraction | None

    @property
    def agree(self) -> bool:
        return self.witness is None


def uniqueness_crosscheck(first: ExtensionHandle, second: ExtensionHandle,
                          seed: int, trials: int = 100) -> CrosscheckReport:
    """Compare two handles on seeded random cylinder sets based within depth 2.

    Reports the first disagreement, and when every disagreement is by one
    common factor, that factor (the scaled-family signature).
    """
    if first.ctx != second.ctx:
        raise ContextMismatchError("handles live over different contexts")
    rng = random.Random(seed)
    witness = None
    ratios = set()
    agreements = 0
    comparable = True
    for _ in range(trials):
        event = random_cylinder(first.ctx, rng)
        lhs = first.mu(event)
        rhs = second.mu(event)
        if lhs == rhs:
            agreements += 1
        elif witness is None:
            witness = (event, lhs, rhs)
        if lhs != 0 and lhs != INFINITE and rhs != INFINITE:
            ratios.add(Fraction(rhs) / Fraction(lhs))
        elif lhs != rhs:
            comparable = False
    ratio = ratios.pop() if comparable and len(ratios) == 1 else None
    return CrosscheckReport(trials, agreements, witness, ratio)
