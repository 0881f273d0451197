"""Finite-volume measures on tree balls and depth-indexed families of them.

A depth-n volume measure assigns a non-negative rational to every base
configuration on the depth-n ball.  Three forms are supported: an explicit
dense table, a product over sites, and a root-to-leaf chain (root weights
plus a one-step transition kernel).  Over the denumerable spin set the chain
and product forms carry closed-form tail descriptors, so cylinder values,
marginals and masses stay exact.

A table event selects its entries by bitmask operations on an entry index
(`DenseTableForm`) and is never disjoined.  A product or chain value never
visits the whole ball and builds one Fraction per union, by one route
(`VolumeMeasure._route`): a union that is disjoint as it stands (one
rectangle, or singletons on one site tuple) adds its rectangles' values in
ints, and any other is one pass over its letters with no disjoining
(`VolumeMeasure._union_pass`).  The pass has one refusal rule: more states
or join pairs than the rectangle budget (`_charge`), or a power past the
bit limit, and the union is valued piece by piece over its disjoint
rectangles instead.  The product form multiplies, in ints, over the
constrained sites and the overrides, and raises the default row sum to the
number of remaining sites.  The chain forms make one bottom-up
sum-product pass over the rectangle's skeleton of kept vertices.  When k = 1
or the kernel is stochastic, those are only the root, the constrained sites
and their branch points (at most 2c nodes for c sites): the sites in
depth-first order, the meets of neighbouring ones, and one stack pass that
links each kept vertex to its nearest kept ancestor.  An unconstrained path
of L levels between two of them is the kernel's L-th power, applied as
popcount(L) matrix-vector products through integer binary powers cached on
the kernel.  Under any other kernel every ancestor of a site is kept, O(c * d)
nodes for sites at depth at most d, each linked to its parent in closed form.
The pass runs on integers: the kernel is kept as an integer matrix over the
least common denominator of its entries, and a function of a spin as a tuple
of ints over one shared denominator, so each node costs O(s^2) int
multiplications over s finite spins (over the naturals, in the kernel's
explicit rows and the values the constraints name) and no gcd.  The root step
multiplies in the root weights' integer form, cached on the weights; the
rectangles' results are added in ints and reduced to a Fraction once per
union, by gcds against the small number whose primes the denominator is made
of.  The union pass makes one skeleton for all of a union's sites; on the
per-rectangle route, rectangles that share their sites share one.
Under a stochastic kernel a free child subtree weighs 1 and is not built;
under any other it is a memoized factor of its height, kept in lowest terms,
and on a path (k = 1) it is itself one kernel power.

Over the naturals no cost grows with the width of a value range.  A
function of a spin is shared by every spin from the kernel's uniform row
on, so a constraint's allowed spins there are summed as maximal runs (an
`in` set) or as the gaps between excluded values (a `notin` set), all of
them one integer closed form (`NatSeq._run_sum`), and multiplied by that
shared value once.  A constraint keeps its values as runs, so none of this
grows with the number of values in a range either, and the union pass
splits a site's spins into letters at the run ends alone.  A chain union is
valued once, through `VolumeMeasure.root_slice_sums`, whose function of n
gives the partial sums mu(E & {x0 < n}) of a root-slice cover sum and, at
n = None, mu(E) itself; `measure_of` and those cover sums share its parts.

Values are Fraction or the float infinity for a diverging mass.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cylinder import (
    DEFAULT_ATOM_BUDGET,
    DEFAULT_RECTANGLE_BUDGET,
    Configuration,
    Context,
    CylinderSet,
    Rectangle,
    SiteConstraint,
    SpinSet,
    c_normalize,
    c_runs,
    constraint_in,
    constraint_not_in,
    exceeds_budget,
    from_configuration,
    from_constraints,
    omega,
)
from .errors import (
    BudgetError,
    ContextMismatchError,
    FamilyDepthError,
    MassError,
    SpinRangeError,
    render_value,
)

INFINITE = math.inf

# the largest power, in bits, that `_check_power` admits
_POWER_BITS_LIMIT = 2**22


def _check_power(largest: int, e: int) -> None:
    """Refuse a power of operands up to `largest` to the e-th before it is
    built: it has at least e * (bit length - 1) bits."""
    bits = e * (largest.bit_length() - 1)
    if bits > _POWER_BITS_LIMIT:
        raise BudgetError(
            f"a power of about {render_value(bits)} bits exceeds the limit of "
            f"{_POWER_BITS_LIMIT} bits"
        )


def _charge(count: int) -> None:
    """The union pass's refusal rule: `count` states held, or join pairs
    about to be visited, past the rectangle budget, read at call time."""
    if count > DEFAULT_RECTANGLE_BUDGET:
        raise BudgetError("rectangle budget exceeded while valuing a union")


# The value algebra tests for infinity by type: INFINITE is the only float a
# value can be, and `Fraction == float` is a slow comparison on a hot path.


def value_add(a, b):
    if type(a) is float or type(b) is float:
        return INFINITE
    return a + b


def value_mul(a, b):
    if type(a) is float or type(b) is float:
        return Fraction(0) if a == 0 or b == 0 else INFINITE
    return a * b


def value_pow(v, e: int):
    if e == 0:
        return Fraction(1)
    if type(v) is float:
        return INFINITE
    _check_power(max(v.numerator, v.denominator), e)
    return v**e


def value_sub(a, b):
    """a - b for a >= b >= 0; infinity minus a finite amount stays infinite."""
    if type(b) is float:
        raise ValueError("cannot subtract an infinite value")
    if type(a) is float:
        return INFINITE
    return a - b


# ---------------------------------------------------------------------------
# integers over a common denominator
#
# The chain pass runs on ints.  A function of a spin is a pair (nums, den):
# a tuple of ints over one shared denominator.  Over the naturals an entry
# may be INFINITE, a sentinel that keeps the value algebra's rules: 0 *
# INFINITE = 0, and a sum with an INFINITE term is INFINITE.  Plain int *
# float would make 0 * INFINITE nan and overflow on an int past the float
# range, so entries meet through `_mul` and `_dot`.


def _fraction(x) -> Fraction:
    """x as a Fraction; a Fraction is returned as it is, not copied."""
    return x if type(x) is Fraction else Fraction(x)


def _scaled_rows(rows) -> tuple[tuple, int]:
    """Rows of non-negative rationals as integer rows over their least
    common denominator d: (integer rows, d).  INFINITE entries stay."""
    d = math.lcm(*[x.denominator for row in rows for x in row if type(x) is not float])
    return tuple(
        tuple([x if type(x) is float else x.numerator * (d // x.denominator) for x in row])
        for row in rows
    ), d


def _mul(a, b):
    if type(a) is float or type(b) is float:
        return INFINITE if a and b else 0
    return a * b


def _dot(row, vec):
    terms = list(map(_mul, row, vec))
    return INFINITE if INFINITE in terms else sum(terms)


def _power(vec: tuple, e: int) -> tuple:
    nums, den = vec
    _check_power(max([den, *(x for x in nums if type(x) is int)]), e)
    return tuple(x**e for x in nums), den**e


def _product(vecs: list) -> tuple:
    nums, den = vecs[0]
    for other, d in vecs[1:]:
        nums = tuple(map(_mul, nums, other))
        den *= d
    return nums, den


def _common_factor(base: int, d: int, nums) -> int:
    """gcd of d > 0 and the int entries of nums, where every prime factor of
    d divides `base`.  It is gcd(base ** (2 ** j), d, *nums) at the first j
    where that stops growing.  Each of those gcds takes the power of `base`
    first, which is never larger than the common factor squared, so the cost
    grows with that factor; a gcd of d with a numerator grows with the square
    of their size."""
    ints = [x for x in nums if type(x) is int]
    common, power = 1, base
    while True:
        g = math.gcd(power, d, *ints)
        if g == common:
            return g
        common, power = g, power * power


def _reduced(vec: tuple, base: int) -> tuple:
    """(nums, den) with the factor its entries share with den divided out;
    every prime factor of den divides `base`."""
    nums, den = vec
    c = _common_factor(base, den, nums)
    if c == 1:
        return vec
    return tuple(x if type(x) is float else x // c for x in nums), den // c


def _divided(x, d: int, base: int):
    """The value x / d as a Fraction, for an int or Fraction x and an int
    d > 0 whose prime factors all divide `base`.  Fraction's own division
    would pay a gcd of x's numerator with d whole: 0.3 ms at 12,000 bits and
    0.27 s at 393,000 bits (CPython 3.11, one core of an x86-64 Xeon).  Here
    the common factor comes from `_common_factor`, and the pair left is
    coprime, so it is stored as it is, the way Fraction's own `__pow__`
    stores its results."""
    if type(x) is float:
        return x
    if not x:
        return Fraction(0)
    n = x.numerator
    c = _common_factor(base, d, (n,))
    out = object.__new__(Fraction)
    out._numerator, out._denominator = n // c, x.denominator * (d // c)
    return out


def _added(a: tuple, b: tuple) -> tuple:
    """The sum of two functions of a spin, each (nums, den)."""
    (x, d), (y, e) = a, b
    if d != e:
        m = math.lcm(d, e)
        x, y, d = tuple(_mul(t, m // d) for t in x), tuple(_mul(t, m // e) for t in y), m
    return tuple(map(value_add, x, y)), d


def _split(runs, w: int) -> tuple[list, list]:
    """Allowed runs (lo, hi) in increasing order (hi None: unbounded) as
    `_weighted_ints` and `_step` take them: the spins below w one by one,
    and the runs from w on, touching ones joined.  Finite spins have w = s,
    so the runs are empty."""
    head, tail = [], []
    for lo, hi in runs:
        if lo < w:
            head.extend(range(lo, w if hi is None else min(hi, w)))
            lo = w
        if hi is None or lo < hi:
            if tail and tail[-1][1] == lo:
                tail[-1] = (tail[-1][0], hi)
            else:
                tail.append((lo, hi))
    return head, tail


def _sum_pairs(pairs) -> tuple:
    """The sum of values n / d, given as int pairs (n, d) with n possibly
    INFINITE, as one such pair over the least common multiple of the d.
    Every pair is drawn, also after an INFINITE one, so a guard that a later
    pair trips still raises."""
    num, den = 0, 1
    for n, d in pairs:
        if type(n) is float or type(num) is float:
            num = INFINITE
        elif d == den:
            num += n
        else:
            g = math.gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
    return num, den


# ---------------------------------------------------------------------------
# sequences over the naturals with closed-form tails


@dataclass(frozen=True)
class NatSeq:
    """Non-negative sequence on {0,1,2,...}: explicit prefix, then either a
    constant tail or a geometric tail a*r^d (d counted from the prefix end).
    The prefix holds ints or Fractions, whose sign is their numerator's;
    `finite` converts other numbers."""

    prefix: tuple[Fraction, ...] = ()
    tail_kind: str = "const"
    tail_a: Fraction = Fraction(0)
    tail_r: Fraction = Fraction(0)

    def __post_init__(self):
        if any(x.numerator < 0 for x in self.prefix):
            raise ValueError("sequence entries must be non-negative")
        if self.tail_a.numerator < 0:
            raise ValueError("tail coefficient must be non-negative")
        if self.tail_kind not in ("const", "geometric"):
            raise ValueError(f"unknown tail kind {self.tail_kind!r}")
        if self.tail_kind == "geometric" and not 0 <= self.tail_r < 1:
            raise ValueError("geometric ratio must satisfy 0 <= r < 1")

    @classmethod
    def constant(cls, c) -> "NatSeq":
        return cls((), "const", Fraction(c), Fraction(0))

    @classmethod
    def geometric(cls, a, r) -> "NatSeq":
        return cls((), "geometric", Fraction(a), Fraction(r))

    @classmethod
    def finite(cls, values) -> "NatSeq":
        return cls(tuple(map(_fraction, values)))

    def value_at(self, q: int) -> Fraction:
        if q < len(self.prefix):
            return self.prefix[q]
        d = q - len(self.prefix)
        if self.tail_kind == "const":
            return self.tail_a
        return self.tail_a * value_pow(self.tail_r, d)

    def sum_from(self, q0: int):
        return self.sum_runs(((q0, None),))

    def sum_all(self):
        return self.sum_from(0)

    def sum_range(self, lo: int, hi: int | None = None):
        """Sum over lo <= q < hi (hi None: every q from lo on): `sum_runs`
        of that one run, 0 when it is empty.  A range of one spin in a
        geometric tail is refused as any bounded range is, at r ** e1 under
        a nonzero a, and not at `value_at`'s r ** e0."""
        if hi is not None and hi <= lo:
            return Fraction(0)
        e1 = None if hi is None else hi - len(self.prefix)
        if hi == lo + 1 and e1 > 0 and self.tail_kind == "geometric":
            if not self.tail_a:
                return Fraction(0)
            _check_power(self.tail_r.denominator, e1)
        return self.sum_runs(((lo, hi),))

    def sum_runs(self, runs):
        """Sum over half-open runs (lo, hi) of spins, hi None for every spin
        from lo on: the `_run_sum` pair as one Fraction, or INFINITE."""
        n, d = self._run_sum(runs)
        return n if type(n) is float else Fraction(n, d)

    def _run_sum(self, runs) -> tuple:
        """The sum over half-open runs (lo, hi) of spins (hi None: every
        spin from lo on) as ints (num, den), num INFINITE when it diverges;
        every prime factor of den divides `_base`.  No Fraction is built.
        The prefix adds its entries as `_head` ints, and an unbounded run
        from inside it adds the head's last entry, the tail's sum, so a total
        is read off the head.  Past the prefix a constant tail c adds c times
        the runs' length; a geometric tail a * r ** d, r = p/q, adds for the
        tail offsets e0 <= d < e1 of each run
        a * (p**e0 * q**(e1-e0) - p**e1) / (q**(e1-1) * (q-p)), or
        a * p**e0 / (q**(e0-1) * (q-p)) for an unbounded run, all over one
        shared power of q.  Before any power is built, each run in turn is
        refused as `value_at` refuses r ** e0 for one spin, and as a range
        sum refuses r ** e0 (unbounded) or r ** e1 under a nonzero a."""
        n = len(self.prefix)
        geometric = self.tail_kind == "geometric"
        q = self.tail_r.denominator
        pre, den, tail = 0, 1, []
        for lo, hi in runs:
            if lo < n:
                ints, den = self._head(n)
                pre += sum(ints[lo:] if hi is None else ints[lo:min(hi, n)])
                if hi is None or hi <= n:
                    continue
            e0, e1 = max(lo, n) - n, None if hi is None else hi - n
            one = hi == lo + 1
            if geometric and (one or self.tail_a):
                _check_power(q, e0 if one or e1 is None else e1)
            tail.append((e0, e1))
        a = self.tail_a
        if not (tail and a):
            return pre, den
        if not geometric:
            if any(e1 is None for _, e1 in tail):
                return INFINITE, 1
            top, bottom = sum(e1 - e0 for e0, e1 in tail), 1
        else:
            p = self.tail_r.numerator
            t = max(0, *(e0 - 1 if e1 is None else e1 - 1 for e0, e1 in tail))
            top = 0
            for e0, e1 in tail:
                if e1 is None:
                    top += p**e0 * q ** (t + 1 - e0)
                else:
                    top += (p**e0 * q ** (e1 - e0) - p**e1) * q ** (t + 1 - e1)
            bottom = q**t * (q - p)
        top, bottom = a.numerator * top, a.denominator * bottom
        return pre * bottom + top * den, den * bottom

    def sum_in(self, values) -> Fraction:
        """Sum over the distinct spins in `values`, one closed form per run."""
        nat = SpinSet.naturals()
        return self.sum_runs(c_runs(c_normalize(constraint_in(values), nat), nat))

    def sum_not_in(self, values):
        """Sum over every spin outside `values`, one closed form per gap."""
        nat = SpinSet.naturals()
        return self.sum_runs(c_runs(c_normalize(constraint_not_in(values), nat), nat))

    @cached_property
    def _base(self) -> int:
        """A number that every prime factor of the denominators of this
        sequence's values and run sums divides: those of the prefix, and for
        a geometric tail a * r ** d, those of a, of r and of the numerator
        of 1 - r."""
        return math.lcm(
            *(x.denominator for x in self.prefix),
            self.tail_a.denominator, self.tail_r.denominator, (1 - self.tail_r).numerator,
        )

    @cached_property
    def _heads(self) -> dict:
        return {}

    def _head(self, w: int) -> tuple[tuple, int]:
        """(ints, d): the values at 0..w-1 and then the sum of every value
        from w on (INFINITE when it diverges), as ints over their least
        common denominator d; the layout of a kernel row in
        `TransitionKernel._scaled`.  Memoized per w on the sequence, which
        a chain family's measures share at every depth."""
        cache = self._heads
        if w not in cache:
            (ints,), d = _scaled_rows([[self.value_at(r) for r in range(w)] + [self.sum_from(w)]])
            cache[w] = ints, d
        return cache[w]

    def scaled(self, c) -> "NatSeq":
        c = Fraction(c)
        if c < 0:
            raise ValueError("scale factor must be non-negative")
        return NatSeq(
            tuple(x * c for x in self.prefix), self.tail_kind, self.tail_a * c, self.tail_r
        )


def as_weights(spins: SpinSet, values) -> NatSeq:
    """Site weights as a NatSeq; over finite spins, one weight per spin and
    no tail."""
    if not isinstance(values, NatSeq):
        values = NatSeq.finite(values)
    elif spins.is_finite and (values.tail_kind != "const" or values.tail_a):
        raise SpinRangeError("tail-described weights need the denumerable spin set")
    if spins.is_finite and len(values.prefix) != spins.size:
        raise ValueError(f"need {spins.size} weights, got {len(values.prefix)}")
    return values


# ---------------------------------------------------------------------------
# transition kernels


@dataclass(frozen=True)
class TransitionKernel:
    """One-step transition weights P(q, r) from a parent spin to a child spin.

    Finite spin sets use a dense matrix.  Over the denumerable spin set each
    row is a NatSeq; rows beyond the explicit list all equal `nat_default`,
    which keeps every row sum and weighted row sum in closed form.
    """

    spins: SpinSet
    matrix: tuple[tuple[Fraction, ...], ...] | None = None
    nat_rows: tuple[NatSeq, ...] = ()
    nat_default: NatSeq | None = None

    @classmethod
    def from_matrix(cls, spins: SpinSet, rows) -> "TransitionKernel":
        if not spins.is_finite:
            raise SpinRangeError("matrix kernels need a finite spin set")
        s = spins.size
        mat = tuple(tuple(map(_fraction, row)) for row in rows)
        if len(mat) != s:
            raise ValueError(f"kernel matrix needs {s} rows, got {len(mat)}")
        for q, row in enumerate(mat):
            if len(row) != s:
                raise ValueError(f"kernel row {q} needs {s} entries, got {len(row)}")
            if any(x.numerator < 0 for x in row):
                raise ValueError(f"kernel row {q}: entries must be non-negative")
        return cls(spins, matrix=mat)

    @classmethod
    def for_naturals(cls, default: NatSeq, rows=()) -> "TransitionKernel":
        """rows: leading explicit rows, as a sequence or a {row index: NatSeq} map."""
        if isinstance(rows, dict):
            filled = [default] * (max(rows) + 1 if rows else 0)
            for q, row in rows.items():
                if q < 0:
                    raise ValueError(f"row index must be non-negative, got {q}")
                filled[q] = row
            rows = filled
        return cls(SpinSet.naturals(), nat_rows=tuple(rows), nat_default=default)

    @property
    def uniform_from(self) -> int:
        """Row index beyond which all rows are identical."""
        if self.matrix is not None:
            return self.spins.size
        return len(self.nat_rows)

    @cached_property
    def rows(self) -> tuple[NatSeq, ...]:
        """One row per distinct parent spin: the s rows over finite spins;
        over the naturals, the explicit rows and then the default row."""
        if self.matrix is not None:
            return tuple(NatSeq.finite(row) for row in self.matrix)
        return self.nat_rows + (self.nat_default,)

    def entry(self, q: int, r: int) -> Fraction:
        return self.rows[min(q, self.uniform_from)].value_at(r)

    def row_sum(self, q: int):
        # row q of M sums to D times row q's total (INFINITE when it diverges)
        mat, d = self._scaled
        total = sum(mat[min(q, self.uniform_from)])
        return total if type(total) is float else Fraction(total, d)

    @cached_property
    def _stochastic(self) -> bool:
        mat, d = self._scaled
        return all(sum(row) == d for row in mat)

    def is_stochastic(self) -> bool:
        return self._stochastic

    @cached_property
    def _scaled(self) -> tuple[tuple, int]:
        """(M, D): the kernel as the integer matrix M over D, the least common
        denominator of its entries, on functions of the child spin as the
        chain evaluator keeps them (see `VolumeMeasure`): over the naturals,
        entry (q, w) is row q's weight on every spin from w = uniform_from on."""
        if self.matrix is not None:
            return _scaled_rows(self.matrix)
        w = self.uniform_from
        return _scaled_rows(
            [tuple(row.value_at(r) for r in range(w)) + (row.sum_from(w),) for row in self.rows]
        )

    @cached_property
    def _base(self) -> int:
        """A number that every prime factor of the pass's denominators
        divides: D and the denominators of the rows' run sums."""
        return math.lcm(self._scaled[1], *(row._base for row in self.rows))

    @cached_property
    def _run_columns(self) -> dict:
        return {}

    def _runs_column(self, runs: tuple) -> tuple:
        """(col, L) for half-open runs (lo, hi) of child spins from w =
        uniform_from on (hi None: unbounded): row q's sum over the runs is
        col[q] / (D * L), whatever the runs, every spin from w on included.
        Memoized per runs."""
        cache = self._run_columns
        if runs not in cache:
            d = self._scaled[1]
            (sums,), scale = _scaled_rows([[row.sum_runs(runs) for row in self.rows]])
            cache[runs] = tuple(_mul(x, d) for x in sums), scale
        return cache[runs]

    @cached_property
    def _powers(self) -> list:
        """M ** (2 ** j) at index j, grown on demand: the kernel's map **
        (2 ** j) is that over D ** (2 ** j)."""
        return [self._scaled[0]]

    @cached_property
    def _growth(self) -> int:
        """The larger of D and M's least row sum, INFINITE entries left out."""
        mat, d = self._scaled
        return max(d, min(sum(x for x in row if type(x) is int) for row in mat))

    def apply_power(self, vec: tuple, n: int) -> tuple:
        """The kernel's map ** n applied to vec = (nums, den): popcount(n)
        integer matrix-vector products over the cached binary powers, of
        which there are never more than the bit length of the largest n asked
        for; the denominator takes D ** n, and every row of M ** n sums to at
        least M's least row sum to the n-th, so both are checked first."""
        nums, den = vec
        _check_power(self._growth, n)
        den *= self._scaled[1] ** n
        powers = self._powers
        j = 0
        while n:
            if j == len(powers):
                cols = tuple(zip(*powers[-1]))
                powers.append(tuple(tuple(_dot(row, col) for col in cols) for row in powers[-1]))
            if n & 1:
                nums = tuple(_dot(row, nums) for row in powers[j])
            n >>= 1
            j += 1
        return nums, den


# ---------------------------------------------------------------------------
# measure forms


# '0' and '1' digits as the bytes 0 and 1, selectors for `itertools.compress`
_BITS = bytes.maketrans(b"01", b"\x00\x01")


class DenseTableForm:
    """Explicit atom table on the depth-n ball; missing atoms weigh zero.

    Events select entries by set operations on an entry index, built on
    first use in one pass over the entries and kept, since the form does not
    change: the weights as ints over their least common denominator, and for
    each (site, spin) an int bitmask of the entries with that spin there.  A
    rectangle's entries are the AND, over its sites, of the OR of the masks
    of the spins it allows there, found by bisection in each run: so it
    costs its sites times those of its allowed spins that some entry has in
    mask operations, however wide its runs, and a union's entries are the
    OR of its rectangles' masks, with no disjoining.  Its value is then one
    pass over the selected entries' ints and one Fraction.
    """

    def __init__(self, table):
        self.table = dict(table)

    kind = "table"

    @cached_property
    def _index(self) -> tuple[list, int, dict]:
        """(ints, d, masks): weight i is ints[i] / d, in the table's order,
        and masks[site] is (the spins some entry has at site, sorted, and
        for each the int with bit i set when entry i has it there)."""
        d = math.lcm(*(w.denominator for w in self.table.values()))
        ints = [w.numerator * (d // w.denominator) for w in self.table.values()]
        # one bytearray per (site, spin) while the pass runs: or-ing bits
        # into a growing int would copy it once per entry
        width = (len(ints) + 7) // 8
        bufs: dict = {}
        for i, key in enumerate(self.table):
            byte, bit = i >> 3, 1 << (i & 7)
            for site, q in enumerate(key):
                buf = bufs.get((site, q))
                if buf is None:
                    buf = bufs[site, q] = bytearray(width)
                buf[byte] |= bit
        masks: dict = {}
        for (site, q), buf in sorted(bufs.items()):
            qs, ms = masks.setdefault(site, ([], []))
            qs.append(q)
            ms.append(int.from_bytes(buf, "little"))
        return ints, d, masks

    def selector(self, cyl: CylinderSet) -> bytes:
        """One byte per entry, in the table's order: 1 for an entry inside
        `cyl`, else 0 (trailing zeros cut), for `itertools.compress`."""
        ints, _, masks = self._index
        spins = cyl.ctx.spins
        full = (1 << len(ints)) - 1
        inside = 0
        for rect in cyl.rectangles:
            picked = full
            for site, c in rect.items:
                qs, ms = masks.get(site, ((), ()))
                allowed = 0
                for lo, hi in c_runs(c, spins):
                    end = len(qs) if hi is None else bisect.bisect_left(qs, hi)
                    for m in ms[bisect.bisect_left(qs, lo):end]:
                        allowed |= m
                picked &= allowed
            inside |= picked
        return bin(inside)[:1:-1].encode().translate(_BITS)

    def value(self, cyl: CylinderSet) -> Fraction:
        ints, d, _ = self._index
        return Fraction(sum(itertools.compress(ints, self.selector(cyl))), d)


class ProductForm:
    """Independent per-site weights: default weight plus per-vertex overrides."""

    def __init__(self, default, overrides=None):
        self.default = default
        self.overrides = dict(overrides or {})

    kind = "product"

    def weight_at(self, v: int):
        return self.overrides.get(v, self.default)


class MarkovForm:
    """Root weights plus a one-step kernel along every parent-child edge."""

    def __init__(self, lam, kernel: TransitionKernel):
        self.lam = lam
        self.kernel = kernel

    kind = "chain"


class VolumeMeasure:
    """A measure on base configurations of the depth-`depth` ball.

    Instances are immutable in intent; internal dictionaries are caches only.
    """

    def __init__(self, ctx: Context, depth: int, form):
        ctx.tree.check_depth(depth)
        self.ctx = ctx
        self.depth = depth
        self.form = form
        self._free_cache: dict = {}

    # -- plumbing -----------------------------------------------------------

    def _ball(self) -> int:
        return self.ctx.tree.ball_size(self.depth)

    # -- atom-level access ----------------------------------------------------

    def atom_weight(self, values) -> Fraction:
        """Weight of one fully specified base configuration (a value tuple)."""
        values = tuple(values)
        if len(values) != self._ball():
            raise ValueError(f"need {self._ball()} values, got {len(values)}")
        form = self.form
        if isinstance(form, DenseTableForm):
            return form.table.get(values, Fraction(0))
        if isinstance(form, ProductForm):
            acc = Fraction(1)
            for v, q in enumerate(values):
                acc *= form.weight_at(v).value_at(q)
            return acc
        acc = form.lam.value_at(values[0])
        parents = self.ctx.tree.parents_list(self.depth)
        for child in range(1, len(values)):
            acc *= form.kernel.entry(values[parents[child]], values[child])
        return acc

    # -- cylinder values -------------------------------------------------------

    def measure_of(self, cyl: CylinderSet):
        """Exact value of a cylinder set whose constraints live in this ball.

        A table form sums the entries its index selects inside the union
        (`DenseTableForm`): per rectangle, its sites times its allowed
        spins, then one pass over the selected entries, and no disjoining,
        so the rectangle budget does not apply.  A product union takes the
        one route (`_route`) to an int pair and builds one Fraction.  A
        chain union is valued once, through `root_slice_sums` uncut."""
        if cyl.ctx != self.ctx:
            raise ContextMismatchError("cylinder built over a different context")
        if cyl.base_depth > self.depth:
            raise ValueError(
                f"cylinder base depth {cyl.base_depth} exceeds measure depth {self.depth}"
            )
        form = self.form
        if isinstance(form, DenseTableForm):
            return form.value(cyl)
        if isinstance(form, ProductForm):
            num, den = self._route(cyl)
            return num if type(num) is float else Fraction(num, den)
        return self.root_slice_sums(cyl)(None)

    def mass(self):
        return self.measure_of(omega(self.ctx))

    def _product_value(self, constraints: dict, lo: int, hi: int):
        """`_product_ints` as one Fraction, or INFINITE."""
        n, d = self._product_ints(constraints, lo, hi)
        return n if type(n) is float else Fraction(n, d)

    def _product_ints(self, constraints: dict, lo: int, hi: int) -> tuple:
        """Product over the sites lo..hi-1, where every constrained site
        lies, of each one's weight on the spins its constraint allows, as an
        int pair (num, den), num INFINITE when it diverges: one factor per
        constrained or overridden site, its weights' `NatSeq._run_sum` over
        the allowed runs, and the default row sum, read from its integer
        form (`NatSeq._head`) in lowest terms, to the power of the others.
        No Fraction is built.  A zero factor gives 0, even beside an
        infinite one; otherwise an infinite factor gives INFINITE."""
        form = self.form
        special = set(constraints)
        special.update(v for v in form.overrides if lo <= v < hi)
        spins = self.ctx.spins
        num = den = 1
        for v in special:
            n, d = form.weight_at(v)._run_sum(c_runs(constraints.get(v), spins))
            if not n:
                return 0, 1
            num, den = _mul(num, n), den * d
        e = hi - lo - len(special)
        return self._times_free(num, den, e, e)

    def _times_free(self, num, den: int, e: int, widest: int) -> tuple:
        """num / den, num possibly INFINITE, times the default row sum to
        the e-th, as an int pair, num INFINITE when it diverges.  0 stays 0,
        even beside an infinite row sum; otherwise an infinite factor gives
        INFINITE.  The power guard reads the row sum in lowest terms to the
        power `widest` >= e."""
        if not num:
            return 0, 1
        spins = self.ctx.spins
        # the head of the default row over the s finite spins, or over the
        # naturals of width 0: the one sum of every value
        ints, d = self.form.default._head(spins.size if spins.is_finite else 0)
        free, infinite = sum(ints), type(num) is float
        if type(free) is float:
            return (INFINITE, 1) if e or infinite else (num, den)
        g = math.gcd(free, d)
        free, d = free // g, d // g
        _check_power(max(free, d), widest)
        if infinite:
            return (INFINITE, 1) if free or not e else (0, 1)
        return num * free**e, den * d**e

    # chain evaluation: one bottom-up sum-product pass over the skeleton of
    # the rectangle, each kept vertex handed to its nearest kept ancestor
    # after its descendants.  A function of a vertex's spin is a pair
    # (nums, den) of ints: one entry per spin over finite spins; over the
    # naturals, the values at the spins 0..w-1 and then the one value shared
    # by every spin from w = kernel.uniform_from on, where the kernel's rows
    # stop changing.  The kernel steps with its integer matrix M over D
    # (`_scaled`), so a node costs O(s^2) int multiplications and no gcd.
    #
    # An unconstrained vertex other than the root with one skeleton child
    # maps its child's factor through P * diag(F_h ** (k-1)), F_h the free
    # factor at its height h.  When k == 1 or the kernel is stochastic,
    # F_h ** (k-1) is 1 at every height, so such a vertex is pass-through:
    # only the root, the sites and their branch points are kept, and a kept
    # vertex L + 1 levels below its kept parent applies the run of L
    # pass-through vertices as M ** L from the kernel's cached binary powers.
    # Under any other kernel every ancestor of a site is kept.

    def _skeleton(self, of) -> list[tuple[int, int, int | None, int]]:
        """(vertex, level, kept parent, run) for every kept vertex of the
        skeleton of a rectangle's sites, or of a sorted tuple of sites,
        children before parents, the root (kept parent None) last; run
        counts the pass-through vertices between a vertex and its kept
        parent."""
        sites = of.sites() if isinstance(of, Rectangle) else of
        tree = self.ctx.tree
        k = tree.order
        if not (k == 1 or self.form.kernel.is_stochastic()):
            # each site climbs to the first vertex kept already, or past the
            # root, whose parent is None
            kept = {}
            for site in sites:
                lvl, v = tree.level(site), site
                while v is not None and v not in kept:
                    kept[v] = lvl, tree.parent(v)
                    lvl, v = lvl - 1, kept[v][1]
            kept.setdefault(0, (0, None))
            return [(v, lvl, p, 0) for v, (lvl, p) in sorted(kept.items(), reverse=True)]
        # the virtual tree of the sites.  In depth-first order a vertex at
        # level l and position p sorts by p * k ** (deepest - l), the position
        # of its leftmost descendant at the deepest level, then by l.  A
        # stack holds the kept vertices on the path to the last site; each
        # next site meets that site at a kept vertex, the stack above which
        # is linked and popped (the classic virtual-tree construction).
        where = {0: (0, 0)}
        for site in sites:
            where[site] = tree.level_and_position(site)
        deepest = max(lvl for lvl, _ in where.values())
        out, stack = [], [0]

        def link(v, up):
            lvl = where[v][0]
            out.append((v, lvl, up, lvl - where[up][0] - 1))

        dfs = sorted(where, key=lambda v: (where[v][1] * k ** (deepest - where[v][0]),
                                           where[v][0]))
        for v in dfs[1:]:  # the root sorts first
            m = tree.meet(stack[-1], v) if stack[-1] else 0
            if m != stack[-1]:
                if m not in where:
                    where[m] = tree.level_and_position(m)
                while len(stack) > 1 and where[stack[-2]][0] >= where[m][0]:
                    link(stack.pop(), stack[-1])
                if stack[-1] != m:
                    link(stack.pop(), m)
                    stack.append(m)
            stack.append(v)
        while len(stack) > 1:
            link(stack.pop(), stack[-1])
        out.append((0, 0, None, 0))
        return out

    def _unit(self) -> tuple:
        return (1,) * len(self.form.kernel.rows), 1

    def _free_factor(self, height: int) -> tuple:
        """Memoized weight of one free child subtree, `height` >= 1 levels
        tall, under a non-stochastic kernel, as a function of the parent spin
        in lowest terms.  The chain pass hands it to kept vertices for their
        free children, and `_enumerate_marginal` folds it into the rows of
        the sphere it stops at.  On a path (k = 1) it is P ** height applied
        to 1; otherwise missing heights are built upwards from the tallest
        one cached."""
        cache = self._free_cache
        if height not in cache:
            kernel = self.form.kernel
            k = self.ctx.tree.order
            if k == 1:
                cache[height] = _reduced(kernel.apply_power(self._unit(), height), kernel._base)
            else:
                h = max((x for x in cache if x < height), default=0)
                below = cache.get(h, self._unit())
                for h in range(h + 1, height + 1):
                    below = cache[h] = _reduced(
                        kernel.apply_power(_power(below, k), 1), kernel._base
                    )
        return cache[height]

    def _free_fold(self, v: int, lvl: int, kept: int) -> tuple | None:
        """`_free_factor` to the power of the free child subtrees of kept
        vertex v at level lvl, `kept` of whose children have a kept vertex
        below; None at the last level or when every child is kept.  Callers
        skip it under a stochastic kernel, where a free subtree weighs 1."""
        height, k = self.depth - lvl, self.ctx.tree.order
        nfree = (k + 1 if v == 0 else k) - kept
        if not nfree or height == 0:
            return None
        free = self._free_factor(height)
        return free if nfree == 1 else _power(free, nfree)

    def _selection(self, constraint: SiteConstraint | None, w: int):
        """The spins a constraint allows, split for `_weighted_ints` and
        `_step` (`_split`): the allowed spins below w, one by one, and
        half-open runs (lo, hi) of allowed spins from w on (hi None:
        unbounded)."""
        return _split(c_runs(constraint, self.ctx.spins), w)

    def _weighted_sum(self, row: NatSeq, sel, g: tuple, den: int = 1):
        """`_weighted_ints` as one Fraction."""
        return _divided(*self._weighted_ints(row, sel, g, den),
                        math.lcm(row._base, self.form.kernel._base))

    def _weighted_ints(self, row: NatSeq, sel, g: tuple, den: int = 1) -> tuple:
        """Sum of row(r) * g(r) / den over the spins r of the selection, as
        a pair (num, den) whose den has only primes of the row's and the
        kernel's `_base`.  The row comes as ints over its denominator d
        (`NatSeq._head`), and a function of a spin shares g[w] = g[-1] among
        the spins from w on.  So every spin from w on is the head's last
        entry, and other runs there cost one `NatSeq._run_sum` a / b and
        one product: the sum is (sum of ints[r] * g[r] over the head, times
        b, plus g[-1] * a * d) over d * b * den."""
        head, runs = sel
        w = self.form.kernel.uniform_from
        ints, d = row._head(w)
        if runs == [(w, None)]:
            head, runs = [*head, w], None
        total = _dot([ints[r] for r in head], [g[r] for r in head])
        if runs:
            a, b = row._run_sum(runs)
            total = _dot((total, g[-1]), (b, _mul(a, d)))
            d *= b
        return total, d * den

    def _step(self, sel: tuple, g: tuple) -> tuple:
        """The factor a kept vertex hands its parent: the sum of P(q, r) *
        g(r) over the spins r of its selection (`_selection`), as a function
        of the parent spin q.  M weighs the selected spins below w, the
        others zeroed; over the naturals, runs of selected spins from w on
        weigh the shared g[w] by the kernel's `_runs_column`."""
        kernel = self.form.kernel
        mat, d = kernel._scaled
        w = kernel.uniform_from
        head, runs = sel
        nums, den = g
        if len(head) == 1 and not runs:  # one spin r: the column of r times g(r)
            r = head[0]
            return tuple(_mul(row[r], nums[r]) for row in mat), den * d
        picked = [0] * len(nums)
        for r in head:
            picked[r] = nums[r]
        out = tuple(_dot(row, picked) for row in mat)
        if runs:
            col, scale = kernel._runs_column(tuple(runs))
            out = tuple(_dot((x, y), (scale, nums[w])) for x, y in zip(out, col))
            den *= scale
        return out, den * d

    def _hand_up(self, sel, g: tuple, run: int) -> tuple:
        """The factor a kept vertex with g hands its kept parent, `run`
        pass-through vertices up: `_step` over its selection, then the kernel
        to the run; with sel None (every spin) the kernel to run + 1."""
        kernel = self.form.kernel
        if sel is None:
            return kernel.apply_power(g, run + 1)
        vec = self._step(sel, g)
        return kernel.apply_power(vec, run) if run else vec

    def _root_factor(self, rect: Rectangle, skeletons: dict) -> tuple:
        """(g, den) with the rectangle's value = the sum of lam(q) * g(q)
        over the root spins q its root constraint allows, divided by den: one
        pass over the skeleton below the root (`_free_fold`, `_hand_up`),
        for each disjoint piece on the per-piece route.  The sites, k and
        the kernel's kind fix the skeleton, so it is kept on the rectangle,
        and rectangles with the same sites share it through `skeletons`, a
        dict by site tuple that the caller keeps for one union."""
        k, constraints, kernel = self.ctx.tree.order, rect.as_dict(), self.form.kernel
        w, stochastic = kernel.uniform_from, kernel.is_stochastic()
        memo = getattr(rect, "_skeleton", None)
        if memo is None or memo[0] != (k, stochastic):
            sites = rect.sites()
            if sites not in skeletons:
                skeletons[sites] = self._skeleton(sites)
            memo = (k, stochastic), skeletons[sites]
            object.__setattr__(rect, "_skeleton", memo)
        # pending[v]: the factors v's kept children hand it, each a function
        # of v's spin
        pending: dict[int, list] = {}
        for v, lvl, up, run in memo[1]:
            fns = pending.pop(v, [])
            free = None if stochastic else self._free_fold(v, lvl, len(fns))
            if free:
                fns.append(free)
            g = _product(fns) if fns else self._unit()
            if up is None:
                return g
            c = constraints.get(v)
            pending.setdefault(up, []).append(
                self._hand_up(None if c is None else self._selection(c, w), g, run))

    def root_slice_sums(self, cyl: CylinderSet):
        """For a chain form, the function n -> value of cyl & {x0 < n},
        and at n = None the uncut value of cyl, which `measure_of` returns.

        The union's parts, each a selection of root spins and a root
        factor (g, den), come once from the one route (`_route`).  Each
        call then costs, per part, the root step of `_weighted_ints` over
        its root spins cut at n: the spins below w = kernel.uniform_from one
        by one and one `NatSeq._run_sum` of the root weights over the runs
        from w on.  The parts' pairs are added in ints by `_sum_pairs` and
        divided once, by one `_divided`.
        """
        lam, kernel = self.form.lam, self.form.kernel
        base = math.lcm(lam._base, kernel._base)
        parts = self._route(cyl)

        def below(n: int | None):
            pairs = (
                self._weighted_ints(lam, (head, runs) if n is None else
                                    ([r for r in head if r < n],
                                     [(lo, n if hi is None else min(hi, n))
                                      for lo, hi in runs if lo < n]), g, den)
                for (head, runs), (g, den) in parts
            )
            return _divided(*_sum_pairs(pairs), base)

        return below

    def _route(self, cyl: CylinderSet):
        """A product union's value as an int pair (num, den), or a chain
        union's root parts for `root_slice_sums`, by the one route of the
        module docstring; per piece, by `_product_ints` or `_root_factor`."""
        if not cyl._already_disjoint():
            try:
                return self._union_pass(cyl)
            except BudgetError:
                pass  # the per-piece route answers
        pieces = cyl.disjoint_rectangles()
        if isinstance(self.form, ProductForm):
            ball = self._ball()
            return _sum_pairs(self._product_ints(rect.as_dict(), 0, ball) for rect in pieces)
        w, skeletons = self.form.kernel.uniform_from, {}
        return [(self._selection(rect.constraint_at(0), w), self._root_factor(rect, skeletons))
                for rect in pieces]

    def _union_pass(self, cyl: CylinderSet):
        """The value of a product union as an int pair (num, den), or the
        root parts of a chain union, with no disjoining: a weighted model
        count over the union's sites (Chavira and Darwiche, Artificial
        Intelligence 172, 2008).

        Bit i of a mask stands for rectangle i.  At each site of the union
        the spins split into letters, the maximal sets of runs that the same
        rectangles allow; a rectangle that leaves the site free allows every
        letter.  They come from the sorted ends of the allowed runs, each
        rectangle's bit flipped at the ends of its runs, so the cost grows
        with the runs, never with a range's width.  The pass folds terms
        "mask of the rectangles still satisfiable -> int factor".  A mask
        that keeps a rectangle past the last of its sites folds into one
        satisfied state (key None), so rectangles on disjoint sites keep
        O(R) states, not 2 ** R, and a mask of none is dropped.  `_charge`
        counts the states held at each site or kept vertex and, before a
        chain's join, the pairs it visits.

        A product runs over the union's sites and overrides in site order.
        Each letter weighs its `NatSeq._run_sum`, over one lcm denominator
        per site, and the satisfied state weighs the whole site.  The other
        sites come in by `_times_free`, whose power guard reads the largest
        free exponent of one rectangle, which no disjoint piece of the
        union exceeds.

        A chain runs bottom-up over the one `_skeleton` of the union's
        sites; a rectangle is satisfied at the meet of its sites.  A vertex
        folds its free subtrees (`_free_fold`) and hands each mask up
        (`_hand_up`) once per group of its letters that leave the same
        mask, all of them for a satisfied mask or an unconstrained vertex.
        Children's maps combine by AND of masks, the satisfied state
        absorbing.  Dropping a mask of none loses
        nothing here either: it needs a site of every rectangle below it,
        so no rectangle lies wholly below a sibling, to be satisfied there.
        At the root the masks, grouped by the root letters they keep,
        become the parts (selection, (g, den))."""
        rects, spins, form = cyl.rectangles, self.ctx.spins, self.form
        every = (1 << len(rects)) - 1
        allowed: dict = {}
        for i, rect in enumerate(rects):
            for site, c in rect.items:
                allowed.setdefault(site, []).append((1 << i, c_runs(c, spins)))
        letters = {}  # site -> [(mask, runs)], a mask 0 where no rectangle allows them
        for site, named in allowed.items():
            flips, mask = {0: 0}, every
            for bit, runs in named:
                mask ^= bit
                for lo, hi in runs:
                    flips[lo] = flips.get(lo, 0) ^ bit
                    if hi is not None:
                        flips[hi] = flips.get(hi, 0) ^ bit
            # every end past 0 flips some bit, so neighbouring stretches
            # never share a mask, and a letter's runs never touch
            ends = sorted(flips)
            groups: dict = {}
            for lo, hi in zip(ends, ends[1:] + [spins.size]):
                mask ^= flips[lo]
                if lo != hi:  # lo == hi: past the finite alphabet
                    groups.setdefault(mask, []).append((lo, hi))
            letters[site] = list(groups.items())
        whole = [(every, c_runs(None, spins))]

        if isinstance(form, ProductForm):
            ball = self._ball()
            overrides = {v for v in form.overrides if v < ball}
            last: dict = {}  # site -> the rectangles whose last site it is
            for i, rect in enumerate(rects):
                last[rect.items[-1][0]] = last.get(rect.items[-1][0], 0) | 1 << i
            sites = sorted(overrides.union(letters))
            states, den = {every: 1}, 1
            for v in sites:
                seq = form.weight_at(v)
                sums = [(mask, *seq._run_sum(runs)) for mask, runs in letters.get(v, whole)]
                d = math.lcm(*(m for _, _, m in sums))
                ints = [_mul(n, d // m) for _, n, m in sums]
                total = INFINITE if INFINITE in ints else sum(ints)
                weights = [(mask, n) for (mask, _, _), n in zip(sums, ints) if n]
                done, out = last.get(v, 0), {}
                for a, x in states.items():
                    if a is None:
                        out[None] = value_add(out.get(None, 0), _mul(x, total))
                        continue
                    for mask, n in weights:
                        if a & mask:
                            key = None if a & mask & done else a & mask
                            out[key] = value_add(out.get(key, 0), _mul(x, n))
                _charge(len(out))
                states, den = out, den * d
            least = min(len(overrides.union(rect.sites())) for rect in rects)
            return self._times_free(states.get(None, 0), den, ball - len(sites), ball - least)

        w, stochastic = form.kernel.uniform_from, form.kernel.is_stochastic()
        sites = tuple(sorted(letters))
        skeleton = self._skeleton(sites)
        # the skeleton keeps the meet of any two of its vertices, so climbing
        # kept-parent links from two sites, the deeper first, stops there
        links = {v: (lvl, up) for v, lvl, up, _ in skeleton}
        top: dict = {}  # vertex -> the rectangles whose sites meet there
        for i, rect in enumerate(rects):
            *rest, v = rect.sites()
            for u in rest:
                while u != v:
                    if links[u][0] < links[v][0]:
                        u, v = v, u
                    u = links[u][1]
            top[v] = top.get(v, 0) | 1 << i
        letters.setdefault(0, whole)
        picks: dict = {}

        def pick(v, chosen: tuple):
            """The selection of the letters `chosen` at v, memoized."""
            if (v, chosen) not in picks:
                runs = sorted(run for j in chosen for run in letters[v][j][1])
                picks[v, chosen] = _split(runs, w)
            return picks[v, chosen]

        def gather(out: dict, key, vec: tuple):
            out[key] = _added(out[key], vec) if key in out else vec

        pending: dict = {}
        for v, lvl, up, run in skeleton:
            maps = pending.pop(v, [])
            free = None if stochastic else self._free_fold(v, lvl, len(maps))
            states = maps.pop() if maps else {every: self._unit()}
            for other in maps:
                _charge(len(states) * len(other))
                joined: dict = {}
                for a, g in states.items():
                    for b, h in other.items():
                        key = None if a is None or b is None else a & b
                        if key != 0:
                            gather(joined, key, _product([g, h]))
                states = joined
            _charge(len(states))
            if free:
                states = {a: _product([g, free]) for a, g in states.items()}
            if up is None:
                break
            here, done, out = letters.get(v), top.get(v, 0), {}
            for a, g in states.items():
                if a is None or here is None:
                    groups = {a: None}
                else:
                    groups = {}
                    for j, (mask, _) in enumerate(here):
                        if a & mask:
                            groups.setdefault(a & mask, []).append(j)
                for b, chosen in groups.items():
                    if b and b & done:
                        b = None
                    every_spin = chosen is None or len(chosen) == len(here)
                    gather(out, b, self._hand_up(None if every_spin else pick(v, tuple(chosen)),
                                                 g, run))
            pending.setdefault(up, []).append(out)
        parts: dict = {}
        for a, g in states.items():
            chosen = tuple(j for j, (mask, _) in enumerate(letters[0]) if a is None or a & mask)
            if chosen:
                gather(parts, chosen, g)
        return [(pick(0, chosen), g) for chosen, g in parts.items()]

    # -- whole-table operations -------------------------------------------------

    def dense_table(self, budget: int = DEFAULT_ATOM_BUDGET) -> dict:
        """Materialize {value tuple: weight}, zero atoms omitted (finite spins)."""
        return _enumerate_marginal(self, self.depth, budget)

    def scaled(self, c) -> "VolumeMeasure":
        c = Fraction(c)
        if c < 0:
            raise ValueError("scale factor must be non-negative")
        form = self.form
        if isinstance(form, DenseTableForm):
            new = DenseTableForm({k: v * c for k, v in form.table.items() if v and c})
        elif isinstance(form, ProductForm):
            over = dict(form.overrides)
            over[0] = form.weight_at(0).scaled(c)
            new = ProductForm(form.default, over)
        else:
            new = MarkovForm(form.lam.scaled(c), form.kernel)
        return VolumeMeasure(self.ctx, self.depth, new)

    def project(self, i: int, method: str = "auto", budget: int = DEFAULT_ATOM_BUDGET) -> "VolumeMeasure":
        """Marginal onto the depth-i ball.

        method "auto" uses the closed form when one exists and falls back to
        enumeration; "enumerate" forces the enumeration route (finite spins);
        "closed" insists on the closed form and raises otherwise.
        """
        if not 0 <= i <= self.depth:
            raise ValueError(f"projection depth {i} outside 0..{self.depth}")
        if i == self.depth:
            return self
        form = self.form
        if method != "enumerate" and isinstance(form, ProductForm):
            cut = self.ctx.tree.ball_size(i)
            scalar = self._product_value({}, cut, self._ball())
            if scalar == INFINITE:
                raise MassError("marginal diverges: dropped site weights are not summable")
            over = {v: w for v, w in form.overrides.items() if v < cut}
            marginal = VolumeMeasure(self.ctx, i, ProductForm(form.default, over))
            return marginal if scalar == 1 else marginal.scaled(scalar)
        if method != "enumerate" and isinstance(form, MarkovForm):
            if form.kernel.is_stochastic():
                return VolumeMeasure(self.ctx, i, form)
            if method == "closed":
                raise ValueError("no closed-form marginal for a non-stochastic kernel")
            if not self.ctx.spins.is_finite:
                raise MassError("no closed-form marginal for a non-stochastic kernel "
                                "over the denumerable spin set")
        return VolumeMeasure(self.ctx, i, DenseTableForm(_enumerate_marginal(self, i, budget)))


# ---------------------------------------------------------------------------
# enumeration marginals (the brute-force route)


def _enumerate_marginal(mu: VolumeMeasure, i: int, budget: int) -> dict:
    """Marginal of mu onto the depth-i ball: a table's entries regrouped by
    their depth-i head, the one atom of a one-spin ball weighing mu's mass,
    any other form summed over the s ** |ball(i)| atoms of the depth-i ball.

    The levels below sphere i sum out in closed form.  A product's dropped
    sites multiply every atom by one scalar, the `_product_value` of sites
    |ball(i)|..|ball(mu.depth)| - 1 that `project` folds in too.  Under a
    chain, each free child subtree of a sphere-i vertex weighs
    `_free_factor(mu.depth - i)`, a function of that vertex's spin, so its
    row is multiplied entrywise by that factor to the power of its child
    count: k, or k + 1 at the root, whose row is lam.  A stochastic kernel's
    factor is 1.  The atom gate still charges the s ** |ball(mu.depth)|
    atoms of mu's own ball.

    Integer-scaled arithmetic: every atom weight is a product of one row
    entry per site, so with each site's rows scaled to integers over one
    denominator the atom sums are exact integer arithmetic over the product
    of those denominators.  The atoms come in `CylinderSet.atoms` order.
    """
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
    # rows[v][p]: the weights of v's spins given its parent's spin p, as ints
    # (`NatSeq._head`, whose entry s is the zero tail).  A product form's rows
    # ignore p, and so do the root's, which reads its own spin slot in place
    # of a parent's.
    if isinstance(form, ProductForm):
        scaled = [form.weight_at(v)._head(s) for v in range(t)]
        rowsI = [(ints,) * s for ints, _ in scaled]
        below = mu._product_value({}, t, full)
        acc = below.numerator
        den = math.prod(d for _, d in scaled) * below.denominator
    else:
        lam, d = form.lam._head(s)
        mat, kernel_d = form.kernel._scaled
        rowsI = [[lam] * s] + [mat] * (t - 1)
        acc, den = 1, d * kernel_d ** (t - 1)
        if i < mu.depth and not form.kernel.is_stochastic():
            k = ctx.tree.order
            nums, fden = _power(mu._free_factor(mu.depth - i), k if i else k + 1)
            first = ctx.tree.ball_size(i - 1) if i else 0
            rows = [[x * f for x, f in zip(row, nums)] for row in rowsI[first]]
            rowsI[first:] = [rows] * (t - first)
            den *= fden ** (t - first)
    parents = [0] + ctx.tree.parents_list(i)[1:]
    weights: list[int] = []
    cur = [0] * t

    def rec(v, acc):
        row = rowsI[v][cur[parents[v]]]
        if v == t - 1:
            weights.extend(acc * row[val] for val in range(s))
            return
        for val in range(s):
            cur[v] = val
            rec(v + 1, acc * row[val])

    rec(0, acc)
    atoms = itertools.product(range(s), repeat=t)
    return {atom: Fraction(b, den) for atom, b in zip(atoms, weights) if b}


def _regroup(table: dict, key) -> dict:
    """Sum the atoms of `table` by key(atom); zero sums are dropped."""
    out: dict = {}
    for atom, w in table.items():
        head = key(atom)
        out[head] = out.get(head, Fraction(0)) + w
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# families and consistency


@dataclass(frozen=True)
class Violation:
    """Witness of a failed marginal identity between depths i < j."""

    i: int
    j: int
    witness: CylinderSet
    lhs: object
    rhs: object

    def render(self) -> str:
        return (
            f"project(depth {self.j} -> {self.i}) on {self.witness.render()}: "
            f"{render_value(self.lhs)} != {render_value(self.rhs)}"
        )


@dataclass(frozen=True)
class ConsistencyReport:
    requested_depth: int
    verified_depth: int
    violation: Violation | None
    method: str
    budget_limited: bool = False
    exhaustive: bool = True

    @property
    def ok(self) -> bool:
        return self.violation is None


class MeasureFamily:
    """Depth-indexed volume measures, one per ball, produced deterministically."""

    def __init__(self, ctx: Context, generator, kind: str, label: str = "",
                 declared_consistent_to: int | None = None,
                 max_defined_depth: int | None = None):
        if kind not in ("probability", "finite", "sigma-finite"):
            raise ValueError(f"unknown family kind {kind!r}")
        self.ctx = ctx
        self.kind = kind
        self.label = label
        self.declared_consistent_to = declared_consistent_to
        self.max_defined_depth = max_defined_depth
        self._generator = generator
        self._cache: dict[int, VolumeMeasure] = {}

    def measure(self, n: int) -> VolumeMeasure:
        self.ctx.tree.check_depth(n)
        if self.max_defined_depth is not None and n > self.max_defined_depth:
            raise FamilyDepthError(
                f"family {self.label or '<anonymous>'} is defined up to depth "
                f"{self.max_defined_depth}, requested {n}"
            )
        if n not in self._cache:
            mu = self._generator(n)
            if mu.depth != n or mu.ctx != self.ctx:
                raise ValueError("family generator returned a mismatched measure")
            self._cache[n] = mu
        return self._cache[n]

    def mass(self, n: int):
        return self.measure(n).mass()


def family_kind(unit: bool, mass) -> str:
    """"probability" when `unit` holds (unit total mass and unit row sums),
    else "finite" or "sigma-finite" as the total `mass` is finite or not."""
    if unit:
        return "probability"
    return "finite" if mass != INFINITE else "sigma-finite"


def markov_family(ctx: Context, lam, kernel, kind: str | None = None,
                  label: str = "") -> MeasureFamily:
    """Family of chain measures: root weights lam, one-step kernel along edges."""
    lam = as_weights(ctx.spins, lam)
    if not isinstance(kernel, TransitionKernel):
        kernel = TransitionKernel.from_matrix(ctx.spins, kernel)
    if kernel.spins != ctx.spins:
        raise ContextMismatchError("kernel spin set differs from the context")
    if kind is None:
        total = lam.sum_all()
        kind = family_kind(total == 1 and kernel.is_stochastic(), total)
    form = MarkovForm(lam, kernel)
    return MeasureFamily(
        ctx, lambda n: VolumeMeasure(ctx, n, form), kind, label=label or "chain"
    )


def product_family(ctx: Context, weight, overrides=None, label: str = "") -> MeasureFamily:
    """Family of product measures with a default site weight and overrides."""
    weight = as_weights(ctx.spins, weight)
    overrides = {v: as_weights(ctx.spins, w) for v, w in (overrides or {}).items()}
    form = ProductForm(weight, overrides)
    total, totals = weight.sum_all(), {v: w.sum_all() for v, w in overrides.items()}
    kind = family_kind(total == 1 and all(x == 1 for x in totals.values()), totals.get(0, total))
    return MeasureFamily(
        ctx, lambda n: VolumeMeasure(ctx, n, form), kind, label=label or "product"
    )


def table_family(ctx: Context, depth: int, table, label: str = "") -> MeasureFamily:
    """Family determined by one dense table at `depth`; a lower depth is
    that table's `project`, its regroup, so the family is consistent by
    construction.  Depths beyond `depth` are not defined."""
    if not ctx.spins.is_finite:
        raise SpinRangeError("dense tables need a finite spin set")
    size = ctx.tree.ball_size(depth)
    clean: dict = {}
    for key, w in dict(table).items():
        key = tuple(key)
        if len(key) != size:
            raise ValueError(f"entry {render_value(key)} needs {render_value(size)} values "
                             f"for depth {depth}")
        if not all(ctx.spins.contains(q) for q in key):
            raise SpinRangeError(f"entry {render_value(key)}: spins must lie in {ctx.spins}")
        w = _fraction(w)
        if w.numerator < 0:
            raise ValueError(f"entry {render_value(key)}: weights must be non-negative")
        if w:
            clean[key] = clean[key] + w if key in clean else w
    mass = Fraction(*_sum_pairs((w.numerator, w.denominator) for w in clean.values()))
    return MeasureFamily(
        ctx,
        VolumeMeasure(ctx, depth, DenseTableForm(clean)).project,
        family_kind(mass == 1, mass),
        label=label or "table",
        declared_consistent_to=depth,
        max_defined_depth=depth,
    )


def random_consistent_family(ctx: Context, seed: int, depth: int,
                             budget: int = DEFAULT_ATOM_BUDGET) -> MeasureFamily:
    """Seeded random dense family at `depth`, consistent by construction."""
    rng = random.Random(seed)
    table = {a.values: Fraction(rng.randint(1, 96), 96) for a in omega(ctx).atoms(depth, budget)}
    return table_family(ctx, depth, table, label=f"random(seed={seed})")


def scale(fam: MeasureFamily, c, kind: str | None = None) -> MeasureFamily:
    """Family with every depth scaled by the same non-negative rational."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("scale factor must be non-negative")
    if kind is None:
        kind = fam.kind if c == 1 else ("sigma-finite" if fam.kind == "sigma-finite" else "finite")
    return MeasureFamily(
        fam.ctx,
        lambda n: fam.measure(n).scaled(c),
        kind,
        label=f"{fam.label}*{render_value(c)}",
        declared_consistent_to=fam.declared_consistent_to,
        max_defined_depth=fam.max_defined_depth,
    )


def marginal_table(fam: MeasureFamily, sites, budget: int = DEFAULT_ATOM_BUDGET) -> dict:
    """Joint weights on an arbitrary finite vertex set, via the covering ball."""
    sites = tuple(sorted(set(sites)))
    tree = fam.ctx.tree
    n = max((tree.level(v) for v in sites), default=0)
    dense = fam.measure(n).dense_table(budget)
    return _regroup(dense, lambda key: tuple(key[v] for v in sites))


def check_consistency(fam: MeasureFamily, depth: int,
                      budget: int = DEFAULT_ATOM_BUDGET) -> ConsistencyReport:
    """Verify that deeper measures marginalize onto shallower ones.

    Finite spin sets are checked exhaustively by enumeration: for each j <=
    depth the depth-j measure is summed onto the depth j - 1 ball, walking
    that ball's atoms with sphere j folded in closed form
    (`_enumerate_marginal`), and compared against the family's own measure
    there; projections compose, so these matches give every shallower one.
    Over the denumerable spin set, stochastic closed forms are checked
    exactly via row sums when depths 1..depth share depth 0's form by value;
    otherwise a finite probe battery compares each depth with the one before
    (reported as non-exhaustive).
    """
    requested = depth
    if fam.max_defined_depth is not None:
        depth = min(depth, fam.max_defined_depth)
    if fam.ctx.spins.is_finite:
        return _check_consistency_finite(fam, requested, depth, budget)
    return _check_consistency_nat(fam, requested, depth)


def _check_consistency_finite(fam, requested, depth, budget) -> ConsistencyReport:
    ctx = fam.ctx
    achieved = 0
    for j in range(1, depth + 1):
        # depth j - 1 already matches every shallower depth, so matching it
        # implies the rest
        try:
            projected = _enumerate_marginal(fam.measure(j), j - 1, budget)
        except BudgetError:
            return ConsistencyReport(
                requested, achieved, None, "enumeration", budget_limited=True
            )
        reference = fam.measure(j - 1).dense_table(budget)
        for key in sorted(set(projected) | set(reference)):
            lhs = projected.get(key, Fraction(0))
            rhs = reference.get(key, Fraction(0))
            if lhs != rhs:
                witness = from_configuration(ctx, Configuration.on_ball(ctx, j - 1, key))
                return ConsistencyReport(
                    requested, achieved, Violation(j - 1, j, witness, lhs, rhs),
                    "enumeration",
                )
        achieved = j
    return ConsistencyReport(requested, achieved, None, "enumeration")


def _probe_bases(ctx: Context) -> list[CylinderSet]:
    """Small battery of probes with spins below 6, each at its natural base
    depth: the root alone at depth 0, then the root and its first child at
    depth 1."""
    first_child = ctx.tree.children(0)[0]
    return [from_constraints(ctx, {0: constraint_in([q])}) for q in range(6)] + [
        from_constraints(ctx, {0: constraint_in([q]), first_child: constraint_in([r])})
        for q in range(3) for r in range(3)
    ]


def _check_consistency_nat(fam, requested, depth) -> ConsistencyReport:
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
    # depth j - 1 already agrees with every shallower depth on the battery,
    # so comparing depth j with it alone finds the first disagreement; each
    # probe's depth-j value is its depth-(j + 1) reference, valued once
    probes = _probe_bases(fam.ctx) if depth >= 1 else []
    prev: dict[int, object] = {}  # probe index -> value at depth j - 1
    for j in range(1, depth + 1):
        mu_j, here = fam.measure(j), {}
        for i, base in enumerate(probes):
            if base.base_depth < j:
                lhs = here[i] = mu_j.measure_of(base)
                rhs = prev[i] if i in prev else fam.measure(j - 1).measure_of(base)
                if lhs != rhs:
                    return ConsistencyReport(
                        requested, j - 1, Violation(base.base_depth, j, base, lhs, rhs),
                        "probes", exhaustive=False,
                    )
        prev = here
    return ConsistencyReport(requested, depth, None, "probes", exhaustive=False)
