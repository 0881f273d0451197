"""Cylinder sets over tree-indexed configuration spaces.

A configuration assigns one spin to every vertex of the tree.  A cylinder set
constrains finitely many vertices and leaves the rest free; we represent it as
a finite union of rectangles, where a rectangle carries one constraint per
constrained vertex.  Constraints are finite In-sets, or (over the denumerable
spin set) finite NotIn-sets; for a finite spin set every NotIn normalizes to
the complementary In-set, which makes emptiness, inclusion and equality of
cylinder sets decidable by rectangle algebra alone.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetError,
    ContextMismatchError,
    SpinRangeError,
    render_value,
)
from .tree import TreeGeometry

DEFAULT_ATOM_BUDGET = 2**24
DEFAULT_RECTANGLE_BUDGET = 50_000


def exceeds_budget(s: int, n: int, budget: int) -> bool:
    """Whether s**n atoms (s spins on n sites) exceed `budget`.  No power
    past the budget is built: for s >= 2, any n >= budget.bit_length()
    already exceeds it."""
    if s < 2 or n < budget.bit_length():
        return s**n > budget
    return True


def _count_atoms(rects, size: int, s: int) -> int:
    """Atoms on `size` sites over s spins in the disjoint `rects`: each one's
    pinned choices times s per free site (over finite spins every normalized
    constraint is an "in" set)."""
    return sum(math.prod(_width(c.runs) for _, c in r.items) * s ** (size - len(r.items))
               for r in rects)


IN = "in"
NOT_IN = "notin"


@dataclass(frozen=True)
class SpinSet:
    """Spin alphabet: either {0, ..., size-1} or all non-negative integers."""

    size: int | None = None

    def __post_init__(self):
        if self.size is not None and self.size < 1:
            raise ValueError(f"finite spin set needs size >= 1, got {render_value(self.size)}")

    @classmethod
    def finite(cls, size: int) -> "SpinSet":
        return cls(size)

    @classmethod
    def naturals(cls) -> "SpinSet":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def contains(self, q: int) -> bool:
        return q >= 0 and (self.size is None or q < self.size)

    def check(self, q: int) -> None:
        if not self.contains(q):
            raise SpinRangeError(f"spin {render_value(q)} out of range for {self}")

    def __str__(self):
        return "nat" if self.size is None else f"finite({render_value(self.size)})"


@dataclass(frozen=True)
class Context:
    """A tree geometry together with the spin alphabet placed on its vertices."""

    tree: TreeGeometry
    spins: SpinSet


def _require_same_ctx(a: "CylinderSet", b: "CylinderSet") -> None:
    if a.ctx != b.ctx:
        raise ContextMismatchError("operands live over different contexts")


# ---------------------------------------------------------------------------
# per-site constraints


@dataclass(frozen=True, init=False)
class SiteConstraint:
    """Allowed spin values at one site.

    mode "in": exactly the listed values are allowed (the list is finite and,
    once normalized, non-empty except for the transient empty marker).
    mode "notin": everything except the listed values is allowed; this form
    survives normalization only over the denumerable spin set.

    The listed values are kept as `runs`: sorted, disjoint half-open pairs
    (lo, hi), no two touching.  A `range` becomes one pair in O(1); any
    other iterable of k values is sorted once, in O(k log k); and
    `constraint_from_runs` merges k pairs in O(k log k).  So every
    operation below costs the runs, never the width of a value range.

    Rectangles hold normalized constraints (`c_normalize`): over finite spins,
    "in" sets only.  No module but this one reads `mode` and `runs`; the
    others go through `c_runs`, `c_contains` and `c_render`.
    """

    mode: str
    runs: tuple[tuple[int, int], ...]

    def __init__(self, mode: str, values=()):
        if type(values) is range and values.step == 1:
            runs = ((values.start, values.stop),) if values else ()
        else:
            runs = tuple(_runs(sorted(set(values))))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "runs", runs)

    @property
    def values(self) -> frozenset[int]:
        """The listed values as a set, built on each read: O(width)."""
        return frozenset(_values(self.runs))

    def key(self):
        """(mode, three ints per run, flat) whose order is that of the sorted
        value tuples: a run (lo, hi) is lo, 0, hi when it is the last and
        lo, 1, -hi otherwise, since a tuple that ends at hi sorts before one
        that goes on past it, and one that stops at hi to resume above it
        sorts after one that goes on.  Memoized: the decoded pieces of one
        packing share constraint objects."""
        cached = getattr(self, "_key", None)
        if cached is None:
            runs, flat = self.runs, ()
            if runs:
                flat = (runs[-1][0], 0, runs[-1][1])
            if len(runs) > 1:
                flat = tuple(itertools.chain.from_iterable(
                    (lo, 1, -hi) for lo, hi in runs[:-1])) + flat
            cached = (self.mode, flat)
            object.__setattr__(self, "_key", cached)
        return cached


def _with_runs(mode: str, runs: tuple) -> SiteConstraint:
    """A constraint over runs that are already sorted, disjoint and apart."""
    c = object.__new__(SiteConstraint)
    object.__setattr__(c, "mode", mode)
    object.__setattr__(c, "runs", runs)
    return c


def constraint_in(values) -> SiteConstraint:
    return SiteConstraint(IN, values)


def constraint_not_in(values) -> SiteConstraint:
    return SiteConstraint(NOT_IN, values)


def constraint_from_runs(mode: str, pairs) -> SiteConstraint:
    """The constraint listing the values of half-open pairs (lo, hi), given
    in any order; overlapping and touching pairs are merged.  Costs the
    pairs, not their width."""
    return _with_runs(mode, _merged(sorted(p for p in pairs if p[0] < p[1])))


def _full(size: int) -> tuple:
    """The finite spin set {0, ..., size-1}, as its one run."""
    return ((0, size),)


# Run algebra on sorted, disjoint, non-touching tuples of half-open runs; each
# result is of that form again, so equal sets have equal runs.


def _values(runs):
    return itertools.chain.from_iterable(itertools.starmap(range, runs))


def _width(runs) -> int:
    return sum(hi - lo for lo, hi in runs)


def _merged(runs) -> tuple:
    """The union of runs given in increasing order of lo: overlapping and
    touching ones are joined."""
    out = []
    for lo, hi in runs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def _meet(a: tuple, b: tuple) -> tuple:
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        (alo, ahi), (blo, bhi) = a[i], b[j]
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo < hi:
            out.append((lo, hi))
        if ahi < bhi:
            i += 1
        else:
            j += 1
    return tuple(out)


def _minus(a: tuple, b: tuple) -> tuple:
    out, j = [], 0
    for lo, hi in a:
        while j < len(b) and b[j][1] <= lo:
            j += 1
        k = j
        while k < len(b) and b[k][0] < hi:
            if b[k][0] > lo:
                out.append((lo, b[k][0]))
            lo = max(lo, b[k][1])
            k += 1
        if lo < hi:
            out.append((lo, hi))
    return tuple(out)


def c_normalize(c: SiteConstraint, spins: SpinSet) -> SiteConstraint | None:
    """Canonical form within the spin set; None means it allows every spin."""
    runs = c.runs
    if spins.is_finite:
        if c.mode == NOT_IN:
            runs = _minus(_full(spins.size), runs)
        elif runs and (runs[0][0] < 0 or runs[-1][1] > spins.size):
            runs = _meet(runs, ((0, spins.size),))
        if runs == ((0, spins.size),):
            return None
        return c if c.mode == IN and runs is c.runs else _with_runs(IN, runs)
    if runs and runs[0][0] < 0:
        c = _with_runs(c.mode, _meet(runs, ((0, runs[-1][1]),)))
    if c.mode == NOT_IN and not c.runs:
        return None
    return c


def c_is_empty(c: SiteConstraint) -> bool:
    return c.mode == IN and not c.runs


def c_contains(c: SiteConstraint, q: int) -> bool:
    runs = c.runs
    i = bisect.bisect_right(runs, (q, math.inf))
    return (i > 0 and q < runs[i - 1][1]) == (c.mode == IN)


# The site operations below take normalized constraints and return normalized
# ones without calling `c_normalize`: "in & in", "in - notin" and
# "notin | notin" are canonical as they stand, and an intersection allows
# every spin only if both operands do, which no normalized constraint does.


def c_intersect(a: SiteConstraint, b: SiteConstraint) -> SiteConstraint:
    """Intersection of normalized constraints; never None, and the empty
    marker when they share no spin."""
    if a.mode == IN:
        runs = _meet(a.runs, b.runs) if b.mode == IN else _minus(a.runs, b.runs)
    elif b.mode == IN:
        a, b = b, a
        runs = _minus(a.runs, b.runs)
    else:
        runs = _merged(sorted(a.runs + b.runs))
    # an operand that already is the intersection is returned itself
    return a if runs == a.runs else _with_runs(a.mode, runs)


def c_complement(c: SiteConstraint, spins: SpinSet) -> SiteConstraint:
    """The spins a normalized, non-empty constraint excludes."""
    if spins.is_finite:
        return _with_runs(IN, _minus(_full(spins.size), c.runs))
    # swapping the mode shares the runs
    return _with_runs(NOT_IN if c.mode == IN else IN, c.runs)


def _runs(values) -> list:
    """Maximal runs of consecutive spins among sorted distinct `values`, as
    half-open (lo, hi) pairs."""
    if not values:
        return []
    if values[-1] - values[0] == len(values) - 1:
        return [(values[0], values[-1] + 1)]
    runs = []
    lo = prev = values[0]
    for q in values[1:]:
        if q != prev + 1:
            runs.append((lo, prev + 1))
            lo = q
        prev = q
    runs.append((lo, prev + 1))
    return runs


def c_runs(c: SiteConstraint | None, spins: SpinSet) -> list:
    """The spins a normalized constraint allows (None: every spin), as
    maximal half-open runs (lo, hi) in increasing order; hi None means every
    spin from lo on.  An "in" set's are its stored runs, a "notin" set's the
    gaps between them."""
    if c is None:
        return [(0, spins.size)]
    if c.mode == IN:
        return list(c.runs)
    gaps, start = [], 0
    for lo, hi in c.runs:
        if lo > start:
            gaps.append((start, lo))
        start = hi
    gaps.append((start, None))
    return gaps


# `render_atom` writes a wide run a thousand values at a time: the values
# 1000 * b + i for i < 1000 are str(b) followed by i in three digits, so one
# join of cached three-digit strings writes a whole block.
_BLOCK = 1000


@functools.cache
def _blocks() -> tuple[list, str, list]:
    """(the strings "000" to "999", the values below 1000 joined by commas,
    and the offset in that text where each one starts)."""
    low = [str(q) for q in range(_BLOCK)]
    at = list(itertools.accumulate((len(v) + 1 for v in low), initial=0))
    return [f"{q:03d}" for q in range(_BLOCK)], ",".join(low), at


def _render_run(lo: int, hi: int) -> str:
    """The values lo..hi-1 joined by commas."""
    if lo < 0:  # only a hand-built event atom lists a negative value
        return ",".join(map(str, range(lo, hi)))
    digits, low, at = _blocks()
    parts = []
    if lo < _BLOCK:
        parts.append(low[at[lo]:at[min(hi, _BLOCK)] - 1])
        lo = _BLOCK
    while lo < hi:
        b, i = divmod(lo, _BLOCK)
        j = min(hi - b * _BLOCK, _BLOCK)
        prefix = str(b)
        parts.append(prefix + ("," + prefix).join(digits[i:j]))
        lo += j - i
    return ",".join(parts)


def render_atom(site: int, mode: str, runs) -> str:
    """The text of one site constraint over the half-open `runs` of its
    values, in order: `x3=1` for a single allowed value, else `x3 in {0,2}`
    or `x3 notin {0,2}`."""
    try:
        if mode == IN and len(runs) == 1 and runs[0][1] - runs[0][0] == 1:
            return f"x{site}={runs[0][0]}"
        return f"x{site} {mode} {{{','.join(itertools.starmap(_render_run, runs))}}}"
    except ValueError:  # a number past the int-to-str digit limit: render them all
        values = [render_value(v) for v in _values(runs)]
        if mode == IN and len(values) == 1:
            return f"x{render_value(site)}={values[0]}"
        return f"x{render_value(site)} {mode} {{{','.join(values)}}}"


def c_render(c: SiteConstraint, site: int) -> str:
    return render_atom(site, c.mode, c.runs)


# ---------------------------------------------------------------------------
# rectangles


@dataclass(frozen=True)
class Rectangle:
    """Conjunction of per-site constraints, one per constrained vertex.

    items is sorted by site; every constraint is normalized, satisfiable and
    actually constraining (never equivalent to "any value").
    """

    items: tuple[tuple[int, SiteConstraint], ...]

    def sites(self) -> tuple[int, ...]:
        return tuple(site for site, _ in self.items)

    def constraint_at(self, site: int) -> SiteConstraint | None:
        return self.as_dict().get(site)

    def as_dict(self) -> dict[int, SiteConstraint]:
        """The constraints by site, memoized and shared: callers only read it."""
        cached = getattr(self, "_map", None)
        if cached is None:
            cached = dict(self.items)
            object.__setattr__(self, "_map", cached)
        return cached

    def key(self):
        # memoized: keys are hot in the handle's value record
        cached = getattr(self, "_key", None)
        if cached is None:
            cached = tuple((s, c.key()) for s, c in self.items)
            object.__setattr__(self, "_key", cached)
        return cached

    def is_unconstrained(self) -> bool:
        return not self.items

    def all_singletons(self) -> bool:
        return all(c.mode == IN and len(c.runs) == 1 and c.runs[0][1] - c.runs[0][0] == 1
                   for _, c in self.items)

    def matches(self, values) -> bool:
        """values: indexable by vertex (an atom on a ball containing all sites)."""
        return all(c_contains(c, values[s]) for s, c in self.items)

    def render(self) -> str:
        if not self.items:
            return "omega"
        return " & ".join(c_render(c, s) for s, c in self.items)


def make_rectangle(ctx: Context, mapping) -> Rectangle | None:
    """Build a rectangle from {site: SiteConstraint}; None when empty."""
    items = []
    for site in sorted(mapping):
        ctx.tree.check_vertex(site)
        c = c_normalize(mapping[site], ctx.spins)
        if c is None:
            continue
        if c_is_empty(c):
            return None
        items.append((site, c))
    return Rectangle(tuple(items))


def rect_intersect(a: Rectangle, b: Rectangle) -> Rectangle | None:
    merged = dict(a.items)
    for site, c in b.items:
        prior = merged.get(site)
        if prior is not None:
            c = c_intersect(prior, c)
            if c_is_empty(c):
                return None
        merged[site] = c
    return Rectangle(tuple(sorted(merged.items())))


# ---------------------------------------------------------------------------
# the subtraction cascade, on packed rectangles

# a constraint of at most this many runs is packed by one mask per run, each
# costing the packing's width: at every width from 2**8 to 2**20 letters that
# took at most 0.84 of one pass over the text of its letters, which is the
# cheaper from about 96 runs on once a packing is 2**14 letters wide or more
_FEW_RUNS = 64
_ALLOWED = bytes.maketrans(b"01", b"\0\1")  # a letter's char -> whether it is set
_EXCLUDED = bytes.maketrans(b"01", b"\1\0")  # ... -> whether it is clear


class _Packing:
    """The rectangles of one call, each packed into one int.

    Every site that some rectangle constrains gets a bit field: one letter
    per stretch between consecutive ends of the runs the constraints there
    list, in increasing order, then one letter for all the other spins
    unless the stretches cover a finite alphabet, then a guard bit above
    them all.  A run is a span of letters.  A stretch that no run covers
    holds only spins no constraint names, so in every rectangle, and every
    piece carved from them, it reads as the letter of the other spins does.
    A rectangle sets the letters it allows, every letter at a site it
    leaves free, and no guard bit.  So a field's letters are never all
    clear, and all set exactly where the rectangle is free.  Adding `full`
    (every letter) to the AND of two rectangles carries into a field's
    guard bit exactly when the field keeps a letter: the two meet when
    every guard bit is set.

    The cost grows with the runs the constraints list, never with their
    width or the alphabet: a constraint with few runs is packed by one mask
    per run, one with more through a string of "0" and "1", and a piece is
    decoded from such a string, in time linear in the letters.
    """

    def __init__(self, rects, spins: SpinSet):
        self.rects, self.spins = rects, spins
        named: dict[int, list] = {}
        for r in rects:
            for site, c in r.items:
                got = named.get(site)
                if got is None:
                    named[site] = list(c.runs)
                else:
                    got += c.runs
        # as text, the bits are a leading "0" (so the text is never empty),
        # then per site a guard bit and the letters, from offset `at` on
        layout, at = [], 2
        for site in sorted(named):
            cuts = sorted(set(itertools.chain.from_iterable(named[site])))
            end = at + len(cuts) - 1
            if spins.size is None or cuts[0] or cuts[-1] != spins.size:
                end += 1  # the letter of the other spins
            layout.append((site, at, end, cuts))
            at = end + 1
        self.width = width = at - 1
        # per site: (the text offsets of its letters, the mask of them all,
        # and the offset of the first letter at or above each run end); and
        # its run ends, for `decode`
        self.fields, self.cuts = fields, cuts_of = {}, {}
        full = 0
        for site, at, end, cuts in layout:
            field = (1 << (width - at)) - (1 << (width - end))
            full |= field
            fields[site] = (at, end, field, dict(zip(cuts, range(at, end + 1))))
            cuts_of[site] = cuts
        self.full = full
        # adding each field's lowest letter carries into its guard bit
        self.guard = full + (full & ~(full << 1))
        self.sentinel = 1 << width  # keeps bin()'s leading zeros
        # each field starts all set; a constraint flips the letters it
        # clears, a few runs by one mask each, more through their text
        self.ints = ints = []
        for r in rects:
            x = full
            for site, c in r.items:
                at, end, field, slot = fields[site]
                if c.mode == IN:
                    x ^= field
                if len(c.runs) <= _FEW_RUNS:
                    for lo, hi in c.runs:
                        x ^= (1 << (width - slot[lo])) - (1 << (width - slot[hi]))
                else:
                    text = bytearray(b"0" * (end - at))
                    for lo, hi in c.runs:
                        text[slot[lo] - at:slot[hi] - at] = b"1" * (slot[hi] - slot[lo])
                    x ^= int(text, 2) << (width - end)
            ints.append(x)
        self.steps = [None] * len(rects)  # see `cut`
        self.decoded = None  # see `decode`

    def meets(self, x: int, y: int) -> bool:
        return ((x & y) + self.full) & self.guard == self.guard

    def cut(self, j: int) -> list:
        """The steps of carving by rectangle j, one per field it constrains,
        in site order, kept in `steps[j]`: (the letters it excludes there,
        the mask that takes them from a piece, the mask that keeps only its
        own letters there)."""
        d, steps = self.ints[j], []
        for site, _ in self.rects[j].items:
            field = self.fields[site][2]
            steps.append((field & ~d, ~(field & d), d | ~field))
        self.steps[j] = steps
        return steps

    def decode(self, x: int) -> Rectangle:
        """The rectangle packed in x.  Its constraints are kept by (site,
        letters), seeded with the inputs' own: a piece shares its constraint
        at a site with an input that has the same one there, and with every
        other piece decoded from this packing."""
        decoded = self.decoded
        if decoded is None:
            decoded = self.decoded = {}
            for r, y in zip(self.rects, self.ints):
                text = bin(y | self.sentinel)
                for site, c in r.items:
                    at, end = self.fields[site][:2]
                    decoded.setdefault((site, text[at + 3:end + 3]), c)
        text = bin(x | self.sentinel)  # "0b1", then one char per bit
        items = []
        for site, (at, end, _, _) in self.fields.items():
            letters = text[at + 3:end + 3]
            if "0" not in letters:
                continue  # free
            c = decoded.get((site, letters))
            if c is None:
                c = decoded[site, letters] = self._constraint(letters, self.cuts[site])
            items.append((site, c))
        return Rectangle(tuple(items))

    def _constraint(self, letters: str, cuts) -> SiteConstraint:
        bits = letters.encode()
        stretches = zip(cuts, cuts[1:])
        if len(letters) == len(cuts) and letters[-1] == "1":  # allows the others
            excluded = _merged(itertools.compress(stretches, bits.translate(_EXCLUDED)))
            if self.spins.is_finite:
                return _with_runs(IN, _minus(_full(self.spins.size), excluded))
            return _with_runs(NOT_IN, excluded)
        return _with_runs(IN, _merged(itertools.compress(stretches, bits.translate(_ALLOWED))))


def _survivors(pack: _Packing, todo, cuts, budget: int, doing: str):
    """The pieces of the packed rectangles `todo` outside every packed
    rectangle of `cuts` (both lists of indices), pairwise disjoint, as
    (int, rectangle): the rectangle is the input itself when no cut met it,
    else None, and `pack.decode` reads the int.  The subtraction cascade
    runs depth first, so each piece is yielded as soon as it passes the last
    cut.  Carving a piece by a cut it meets gives, per site the cut
    constrains in turn, the piece that leaves the cut there and keeps the
    cut at the sites before it.  More than `budget` pieces past any one cut
    raise `BudgetError`: run to its end, the cascade raises exactly when one
    run cut by cut would."""
    ints, full, guard, steps = pack.ints, pack.full, pack.guard, pack.steps
    against = [ints[j] for j in cuts]
    n = len(against)
    passed = [0] * n
    waiting = [(ints[j], 0, pack.rects[j]) for j in reversed(todo)]
    while waiting:
        p, i, r = waiting.pop()
        while i < n and ((p & against[i]) + full) & guard != guard:
            passed[i] += 1
            if passed[i] > budget:
                raise BudgetError(f"rectangle budget exceeded {doing}")
            i += 1
        if i == n:
            yield p, r
            continue
        pieces = []
        for leaves, piece, head in steps[cuts[i]] or pack.cut(cuts[i]):
            if p & leaves:
                pieces.append((p & piece, i + 1, None))
            p &= head
        passed[i] += len(pieces)
        if passed[i] > budget:
            raise BudgetError(f"rectangle budget exceeded {doing}")
        waiting += pieces


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class Configuration:
    """Finite partial assignment of spins, sites listed in increasing order."""

    sites: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.sites) != len(self.values):
            raise ValueError("sites and values must have equal length")

    @classmethod
    def on_ball(cls, ctx: Context, n: int, values) -> "Configuration":
        values = tuple(values)
        size = ctx.tree.ball_size(n)
        if len(values) != size:
            raise ValueError(f"need {render_value(size)} values for the depth-{n} ball, "
                             f"got {len(values)}")
        for q in values:
            ctx.spins.check(q)
        return cls(tuple(range(size)), values)

    @classmethod
    def from_mapping(cls, ctx: Context, mapping) -> "Configuration":
        sites = tuple(sorted(mapping))
        for s in sites:
            ctx.tree.check_vertex(s)
            ctx.spins.check(mapping[s])
        return cls(sites, tuple(mapping[s] for s in sites))

    def value_at(self, site: int) -> int:
        try:
            return self.as_mapping()[site]
        except KeyError:
            raise KeyError(f"site {site} not assigned") from None

    def as_mapping(self) -> dict[int, int]:
        return dict(zip(self.sites, self.values))

    def restrict(self, sites) -> "Configuration":
        wanted = set(sites)
        keep = tuple(s for s in self.sites if s in wanted)
        m = self.as_mapping()
        return Configuration(keep, tuple(m[s] for s in keep))


# ---------------------------------------------------------------------------
# cylinder sets


@dataclass(frozen=True)
class CylinderSet:
    """Finite union of rectangles over a fixed context.

    rectangles is canonical: no duplicates, sorted by rectangle key.  The
    empty union is the empty set; a union containing the unconstrained
    rectangle is the whole configuration space.
    """

    ctx: Context
    rectangles: tuple[Rectangle, ...]
    base_depth: int = 0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def build(ctx: Context, rects) -> "CylinderSet":
        seen = {}
        for r in rects:
            if r is None:
                continue
            if r.is_unconstrained():
                seen = {Rectangle(()).key(): Rectangle(())}
                break
            seen.setdefault(r.key(), r)
        ordered = tuple(seen[k] for k in sorted(seen))
        # items are sorted by site and indexing is breadth-first, so a
        # rectangle's last site is its deepest
        depth = 0
        level = ctx.tree.level
        for r in ordered:
            if r.items:
                lvl = level(r.items[-1][0])
                if lvl > depth:
                    depth = lvl
        return CylinderSet(ctx, ordered, depth)

    # -- predicates ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.rectangles

    def is_omega(self) -> bool:
        return omega(self.ctx).subset_of(self)

    def contains(self, values) -> bool:
        """values: indexable by vertex covering every constrained site."""
        return any(r.matches(values) for r in self.rectangles)

    # -- algebra ------------------------------------------------------------

    def intersect(self, other: "CylinderSet", budget: int = DEFAULT_RECTANGLE_BUDGET) -> "CylinderSet":
        _require_same_ctx(self, other)
        out = []
        for p in self.rectangles:
            for q in other.rectangles:
                r = rect_intersect(p, q)
                if r is not None:
                    out.append(r)
                    if len(out) > budget:
                        raise BudgetError("rectangle budget exceeded during intersection")
        return CylinderSet.build(self.ctx, out)

    def union(self, other: "CylinderSet") -> "CylinderSet":
        _require_same_ctx(self, other)
        return CylinderSet.build(self.ctx, self.rectangles + other.rectangles)

    def _outside(self, other: "CylinderSet", budget: int):
        """The packing of both operands, and the pieces of self outside
        other from one cascade over all of self."""
        _require_same_ctx(self, other)
        n, m = len(self.rectangles), len(other.rectangles)
        pack = _Packing(self.rectangles + other.rectangles, self.ctx.spins)
        return pack, _survivors(pack, range(n), range(n, n + m), budget, "during subtraction")

    def subtract(self, other: "CylinderSet", budget: int = DEFAULT_RECTANGLE_BUDGET) -> "CylinderSet":
        pack, pieces = self._outside(other, budget)
        return CylinderSet.build(self.ctx, [pack.decode(x) if r is None else r for x, r in pieces])

    def complement(self, budget: int = DEFAULT_RECTANGLE_BUDGET) -> "CylinderSet":
        return omega(self.ctx).subtract(self, budget)

    def subset_of(self, other: "CylinderSet", budget: int = DEFAULT_RECTANGLE_BUDGET) -> bool:
        """Whether self lies inside other; stops at the first piece of self
        found outside every rectangle of other, and answers True only after
        the whole cascade has stayed within the budget."""
        return next(self._outside(other, budget)[1], None) is None

    def semantic_equal(self, other: "CylinderSet", budget: int = DEFAULT_RECTANGLE_BUDGET) -> bool:
        return self.subset_of(other, budget) and other.subset_of(self, budget)

    def _already_disjoint(self) -> bool:
        """Whether the rectangles are pairwise disjoint as they stand, by a
        rule in O(R): there is at most one, or they are distinct and all
        fully singleton over one site tuple."""
        rects = self.rectangles
        if len(rects) <= 1:
            return True
        sites0 = rects[0].sites()
        return all(r.sites() == sites0 and r.all_singletons() for r in rects)

    def disjoint_rectangles(self, budget: int = DEFAULT_RECTANGLE_BUDGET) -> tuple[Rectangle, ...]:
        """Rectangles with the same union but pairwise disjoint."""
        rects = self.rectangles
        if self._already_disjoint():
            return rects
        pack = _Packing(rects, self.ctx.spins)
        out: list[Rectangle] = []
        for i in range(len(rects)):
            # the pieces of rectangle i outside the rectangles before it
            for x, r in _survivors(pack, (i,), range(i), budget, "while disjoining"):
                out.append(pack.decode(x) if r is None else r)
                if len(out) > budget:
                    raise BudgetError("rectangle budget exceeded while disjoining")
        return tuple(out)

    def lift_to_base(self, n: int) -> "CylinderSet":
        """Same set, re-registered at base depth n (n may only grow it)."""
        if n < self.base_depth:
            raise ValueError(
                f"cannot lower base depth {self.base_depth} to {n}; constraints reach deeper"
            )
        self.ctx.tree.check_depth(n)
        return CylinderSet(self.ctx, self.rectangles, n)

    # -- enumeration ---------------------------------------------------------

    def atom_count(self, n: int | None = None) -> int:
        """Number of depth-n base configurations in the set (finite spins)."""
        n = self.base_depth if n is None else n
        if n < self.base_depth:
            raise ValueError("enumeration depth below base depth")
        if not self.ctx.spins.is_finite:
            raise SpinRangeError("cannot count atoms over the denumerable spin set")
        return _count_atoms(self.disjoint_rectangles(), self.ctx.tree.ball_size(n),
                           self.ctx.spins.size)

    def atoms(self, n: int | None = None, budget: int = DEFAULT_ATOM_BUDGET) -> list[Configuration]:
        """All depth-n base configurations in the set, lexicographic order."""
        n = self.base_depth if n is None else n
        if n < self.base_depth:
            raise ValueError("enumeration depth below base depth")
        if not self.ctx.spins.is_finite:
            raise SpinRangeError("cannot enumerate atoms over the denumerable spin set")
        size = self.ctx.tree.ball_size(n)
        s = self.ctx.spins.size
        rects = self.disjoint_rectangles()
        # a walk visits every site; a rectangle's atoms are its pinned choices
        # times s per free site, and disjoint rectangles share none
        if rects and (size > budget
                      or any(exceeds_budget(s, size - len(r.items), budget) for r in rects)
                      or _count_atoms(rects, size, s) > budget):
            raise BudgetError(f"atom budget {budget} exceeded at depth {n}")
        tuples = []
        for r in rects:
            at = r.as_dict()
            choices = [tuple(_values(at[v].runs)) if v in at else range(s) for v in range(size)]
            tuples += itertools.product(*choices)
        return [Configuration.on_ball(self.ctx, n, t) for t in sorted(tuples)]

    def canonical_key(self):
        return tuple(r.key() for r in self.rectangles)

    def render(self) -> str:
        if self.is_empty():
            return "empty"
        # one rectangle is omega only when it constrains nothing: it renders so
        if len(self.rectangles) > 1 and self.is_omega():
            return "omega"
        return " | ".join(r.render() for r in self.rectangles)


# ---------------------------------------------------------------------------
# basic constructors


def empty_set(ctx: Context) -> CylinderSet:
    return CylinderSet.build(ctx, [])


def omega(ctx: Context) -> CylinderSet:
    return CylinderSet.build(ctx, [Rectangle(())])


def single_site(ctx: Context, site: int, q: int) -> CylinderSet:
    """All configurations taking the value q at one vertex."""
    ctx.spins.check(q)
    return from_constraints(ctx, {site: constraint_in([q])})


def from_constraints(ctx: Context, mapping) -> CylinderSet:
    """One rectangle from {site: SiteConstraint}."""
    return CylinderSet.build(ctx, [make_rectangle(ctx, mapping)])


def from_configuration(ctx: Context, config: Configuration) -> CylinderSet:
    mapping = {s: constraint_in([v]) for s, v in zip(config.sites, config.values)}
    return from_constraints(ctx, mapping)


def first_overlap(parts) -> tuple[int, int] | None:
    """The first pair of indices a < b whose cylinder sets intersect, or None
    when the sets are pairwise disjoint."""
    if len(parts) < 2:
        return None
    # one packing of every part's rectangles; a context mismatch still
    # raises at the first pair it affects, before that pair is tested
    pack = _Packing(tuple(r for part in parts for r in part.rectangles), parts[0].ctx.spins)
    ints, at = [], 0
    for part in parts:
        ints.append(pack.ints[at:at + len(part.rectangles)])
        at += len(part.rectangles)
    for a, b in itertools.combinations(range(len(parts)), 2):
        _require_same_ctx(parts[a], parts[b])
        if any(pack.meets(x, y) for x in ints[a] for y in ints[b]):
            return a, b
    return None


# ---------------------------------------------------------------------------
# the metric on configurations


def rho(ctx: Context, a: Configuration, b: Configuration, depth: int,
        eventually_equal: bool = False) -> tuple[Fraction, Fraction]:
    """Truncated configuration distance.

    Sums 2**(-i) over the indices i of the depth-`depth` ball where a and b
    disagree, and returns (partial sum, bound on the ignored tail).  Both
    configurations must assign every index of that ball.  When the caller
    declares the configurations eventually equal (they agree at every index
    not assigned by both), the remaining assigned sites are folded in and the
    tail bound is exactly zero.
    """
    m = ctx.tree.ball_size(depth)
    map_a, map_b = a.as_mapping(), b.as_mapping()
    partial = Fraction(0)
    for i in range(m):
        if i not in map_a or i not in map_b:
            raise ValueError(f"both configurations must assign every index below {m}")
        if map_a[i] != map_b[i]:
            partial += Fraction(1, 2**i)
    if not eventually_equal:
        return partial, Fraction(2, 2**m)
    for i in sorted(set(map_a) & set(map_b)):
        if i >= m and map_a[i] != map_b[i]:
            partial += Fraction(1, 2**i)
    return partial, Fraction(0)


# ---------------------------------------------------------------------------
# generator decomposition

# A single-site cylinder is recovered from fully-specified depth-n bases in
# two steps.  Literally intersecting two distinct fully-specified bases gives
# the empty set (they force different values somewhere), so the working
# reading is the agreement reading: a pair of bases that coincide exactly at
# one vertex pins down that vertex's value and nothing else.  The union of
# all fully-specified bases taking the value q at the vertex equals the
# single-site cylinder; a canonical witness pair generates it through
# `agreement_cylinder`.


def generator_decomposition(ctx: Context, site: int, q: int, n: int) -> tuple[Rectangle, Rectangle]:
    """Canonical pair of fully-specified depth-n bases coinciding only at `site`.

    Both bases take the value q at `site`.  Away from `site` the two bases
    disagree everywhere, so their agreement set is exactly {site: q} and
    `agreement_cylinder` of the pair is the single-site cylinder.  With a
    one-letter spin alphabet no disagreement is possible and the degenerate
    identical pair is returned (the whole space is a single configuration).
    """
    ctx.spins.check(q)
    ctx.tree.check_depth(n)
    if ctx.tree.level(site) > n:
        raise ValueError(f"vertex {site} lies outside the depth-{n} ball")
    size = ctx.tree.ball_size(n)
    a = q
    b = q + 1 if ctx.spins.contains(q + 1) else (q + 1) % ctx.spins.size
    first = {s: constraint_in([a if s != site else q]) for s in range(size)}
    second = {s: constraint_in([b if s != site else q]) for s in range(size)}
    return make_rectangle(ctx, first), make_rectangle(ctx, second)


def agreement_cylinder(ctx: Context, first: Rectangle, second: Rectangle) -> CylinderSet:
    """Cylinder pinned by the constraints the two rectangles share.

    Keeps exactly the sites where both rectangles carry identical
    constraints; every other site is released.
    """
    shared = {s: c for s, c in first.items if second.constraint_at(s) == c}
    return from_constraints(ctx, shared)


# ---------------------------------------------------------------------------
# randomized probes


def random_cylinder(ctx: Context, rng, max_depth: int = 2) -> CylinderSet:
    """Seeded random union of 1-3 rectangles for crosschecks; deterministic in rng state."""
    size = ctx.tree.ball_size(max_depth)
    rects = []
    for _ in range(rng.randint(1, 3)):
        mapping = {}
        for site in rng.sample(range(size), rng.randint(1, min(4, size))):
            if ctx.spins.is_finite:
                s = ctx.spins.size
                count = rng.randint(1, s)
                mapping[site] = constraint_in(rng.sample(range(s), count))
            else:
                vals = rng.sample(range(8), rng.randint(1, 3))
                if rng.random() < 0.3:
                    mapping[site] = constraint_not_in(vals)
                else:
                    mapping[site] = constraint_in(vals)
        rects.append(make_rectangle(ctx, mapping))
    return CylinderSet.build(ctx, rects)
