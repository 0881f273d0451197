"""Reference values for the benchmark, computed without the library.

Everything here re-derives an answer from first principles: its own tree
index arithmetic, its own reading of the spec text, closed forms for
products and root ranges, a sum-product pass for finite-spin chains, and
bitmask atom sets for events on small balls.  The benchmark compares the
library's outputs against these after each op, outside the timed region.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as F

INF = math.inf


# ---------------------------------------------------------------------------
# tree geometry


class Geo:
    """Breadth-first indexing of the order-k tree (root has k+1 children)."""

    def __init__(self, k: int):
        self.k = k
        self._balls = [1]

    def ball(self, n: int) -> int:
        while len(self._balls) <= n:
            m = len(self._balls)
            self._balls.append(self._balls[-1] + (self.k + 1) * self.k ** (m - 1))
        return self._balls[n]

    def level(self, v: int) -> int:
        n = 0
        while v >= self.ball(n):
            n += 1
        return n

    def parent(self, v: int) -> int:
        n = self.level(v)
        if n == 1:
            return 0
        return self.ball(n - 2) + (v - self.ball(n - 1)) // self.k

    def sphere(self, n: int) -> range:
        return range(self.ball(n - 1) if n else 0, self.ball(n))

    def n_children(self, v: int) -> int:
        return self.k + 1 if v == 0 else self.k


# ---------------------------------------------------------------------------
# weight sequences as the spec text states them


class Seq:
    """Non-negative weights: an explicit prefix, then a const or geometric tail."""

    def __init__(self, prefix=(), tail=("const", F(0))):
        self.prefix = tuple(F(x) for x in prefix)
        self.tail = tail

    def at(self, q: int) -> F:
        if q < len(self.prefix):
            return self.prefix[q]
        if self.tail[0] == "const":
            return self.tail[1]
        return self.tail[1] * self.tail[2] ** (q - len(self.prefix))

    def sum_from(self, q0: int):
        n = len(self.prefix)
        head = sum(self.prefix[q0:], F(0))
        d = max(q0 - n, 0)
        if self.tail[0] == "const":
            return head if self.tail[1] == 0 else INF
        _, a, r = self.tail
        return head + a * r**d / (1 - r)

    def total(self):
        return self.sum_from(0)

    def sum_set(self, mode: str, values) -> F:
        inside = sum((self.at(q) for q in values), F(0))
        return inside if mode == "in" else self.total() - inside


def parse_weights(words: list[str]) -> Seq:
    if words[0] == "const":
        return Seq((), ("const", F(words[1])))
    if words[0] == "geometric":
        return Seq((), ("geometric", F(words[1]), F(words[2])))
    if words[0] == "prefix":
        cut = words.index("then")
        return Seq(words[1:cut], parse_weights(words[cut + 1:]).tail)
    return Seq(words)


# ---------------------------------------------------------------------------
# spec documents


class SpecFacts:
    """What a spec file says, read independently of the library's parser."""

    def __init__(self, text: str):
        sections: dict[str, list[tuple[str, str]]] = {}
        current = None
        for raw in text.splitlines():
            line = re.sub(r"#[^\"]*$", "", raw).strip()
            if not line:
                continue
            if line.startswith("["):
                current = sections.setdefault(line.strip("[]"), [])
                continue
            key, _, value = line.partition("=")
            current.append((key.strip(), value.strip()))
        tree = dict(sections.get("tree", []))
        spins = dict(sections.get("spins", []))
        fam = sections.get("family", [])
        self.k = int(tree["k"])
        self.max_depth = int(tree.get("max_depth", 16))
        self.geo = Geo(self.k)
        self.size = int(spins["size"]) if spins["kind"] == "finite" else None
        self.spins = f"finite({self.size})" if self.size else "nat"
        first = dict(fam)
        self.family_kind = first["kind"]
        self.covers = {}
        for name, value in sections.get("covers", []):
            words = value.split()
            if words[0] == "slice":
                block = int(words[3]) if len(words) > 3 else 1
                self.covers[name] = ("slice", int(words[1][1:]), block)
            else:
                self.covers[name] = ("list", len(value.split(";")))
        self.lam = self.kernel = self.default_w = self._chain = None
        self.table_depth = None
        self.overrides: dict[int, Seq] = {}
        self.rows: dict[int, Seq] = {}
        self.entries: dict[tuple, F] = {}
        for key, value in fam:
            words = value.split()
            if key == "lambda":
                self.lam = parse_weights(words)
            elif key == "P" and self.size:
                self.kernel = [parse_weights(row.split()) for row in value.split(";")]
            elif key == "P":
                self.kernel = parse_weights(words)
            elif key.startswith("P@"):
                self.rows[int(key[2:])] = parse_weights(words)
            elif key == "w":
                self.default_w = parse_weights(words)
            elif key.startswith("w@"):
                self.overrides[int(key[2:])] = parse_weights(words)
            elif key == "depth":
                self.table_depth = int(value)
            elif key == "entry":
                atoms, _, weight = value.partition(":")
                key_t = tuple(int(x) for x in atoms.split())
                self.entries[key_t] = self.entries.get(key_t, F(0)) + F(weight.strip())

    # -- family-level facts -------------------------------------------------

    @property
    def defined_depth(self) -> int:
        """Deepest ball the family defines: a table's own depth, else max_depth."""
        return self.max_depth if self.table_depth is None else self.table_depth

    def row(self, q: int) -> Seq:
        if self.size:
            return self.kernel[q]
        return self.rows.get(q, self.kernel)

    def stochastic(self) -> bool:
        if self.size:
            return all(r.total() == 1 for r in self.kernel)
        return all(r.total() == 1 for r in [self.kernel, *self.rows.values()])

    def closed_row(self) -> bool:
        """Whether unit row sums make consistency over the naturals exact."""
        if self.family_kind == "product":
            return self.default_w.total() == 1 and all(
                w.total() == 1 for v, w in self.overrides.items() if v != 0)
        return self.stochastic()

    def site_weights(self, v: int) -> Seq:
        return self.overrides.get(v, self.default_w)

    def family_class(self) -> str:
        if self.family_kind == "markov-prob":
            return "probability"
        if self.family_kind == "markov":
            total = self.lam.total()
            if total == 1 and self.stochastic():
                return "probability"
            return "finite" if total != INF else "sigma-finite"
        if self.family_kind == "product":
            sums = [self.default_w.total()] + [w.total() for w in self.overrides.values()]
            if all(x == 1 for x in sums):
                return "probability"
            return "finite" if self.site_weights(0).total() != INF else "sigma-finite"
        return "probability" if sum(self.entries.values()) == 1 else "finite"

    def value(self, rect: dict, depth: int):
        """Value of one rectangle {site: (mode, values)} at `depth`."""
        if self.family_kind == "product":
            return product_value(self.geo, self.default_w, self.overrides, rect, depth)
        if self.family_kind == "table":
            return table_value(self.entries, rect)
        if self._chain is None:
            lam = [self.lam.at(q) for q in range(self.size)]
            kernel = [[row.at(r) for r in range(self.size)] for row in self.kernel]
            self._chain = ChainOracle(self.geo, lam, kernel)
        return self._chain.value({s: vals for s, (_, vals) in rect.items()}, depth)


# ---------------------------------------------------------------------------
# evaluators


def product_value(geo: Geo, default: Seq, overrides: dict, rect: dict, depth: int):
    """Product form: one factor per vertex of the ball, free ones summed."""
    ball = geo.ball(depth)
    special = set(rect) | {v for v in overrides if v < ball}
    factors = [default.total() ** (ball - len(special))] if ball > len(special) else []
    for v in special:
        w = overrides.get(v, default)
        factors.append(w.sum_set(*rect[v]) if v in rect else w.total())
    if 0 in factors:
        return F(0)
    if INF in factors:
        return INF
    return math.prod(factors, start=F(1))


def table_value(entries: dict, rect: dict) -> F:
    def inside(key):
        for s, (mode, values) in rect.items():
            if (key[s] in values) != (mode == "in"):
                return False
        return True

    return sum((w for key, w in entries.items() if inside(key)), F(0))


class ChainOracle:
    """Finite-spin chain: lam(x0) times kernel weights along every edge.

    The value of a rectangle is a sum-product over the union of the root
    paths of its sites; every other child hangs a free subtree whose total
    weight depends only on its height and the parent spin.
    """

    def __init__(self, geo: Geo, lam, kernel):
        self.geo = geo
        self.lam = [F(x) for x in lam]
        self.P = [[F(x) for x in row] for row in kernel]
        self.s = len(self.lam)
        self._free = {}

    def free(self, h: int):
        """free(h)[q]: weight of one free child subtree with h levels below it."""
        if h not in self._free:
            below = self.free(h - 1) if h else [F(1)] * self.s
            k = self.geo.k
            self._free[h] = [
                sum((self.P[q][r] * below[r] ** k for r in range(self.s)), F(0))
                for q in range(self.s)
            ]
        return self._free[h]

    def value(self, allowed: dict, depth: int) -> F:
        geo, s = self.geo, self.s
        kids: dict[int, list[int]] = {0: []}
        for site in allowed:
            v = site
            kids.setdefault(v, [])
            while v != 0:
                p = geo.parent(v)
                linked = p in kids
                siblings = kids.setdefault(p, [])
                if v not in siblings:
                    siblings.append(v)
                if linked:
                    break
                v = p
        levels = {v: geo.level(v) for v in kids}
        weight = {}  # weight[v][q]: weight below v given v's spin q
        for v in sorted(kids, key=lambda u: -levels[u]):
            lvl = levels[v]
            n_free = (geo.n_children(v) - len(kids[v])) if lvl < depth else 0
            free = self.free(depth - lvl - 1) if n_free else None
            row = []
            for q in range(s):
                w = F(1)
                for c in kids[v]:
                    w *= sum(
                        (self.P[q][r] * weight[c][r] for r in allowed.get(c, range(s))),
                        F(0),
                    )
                if n_free:
                    w *= free[q] ** n_free
                row.append(w)
            weight[v] = row
        return sum((self.lam[q] * weight[0][q] for q in allowed.get(0, range(s))), F(0))


# ---------------------------------------------------------------------------
# bitmask atom sets for events on a small ball


class AtomSpace:
    """All configurations of a small ball, with spins cut to 0..m-1 plus one
    representative `m` for every larger spin (over the naturals), as bits of
    an integer.  Events become masks; values become weighted bit sums."""

    def __init__(self, n_sites: int, reps: int, weight_of):
        self.n = n_sites
        self.reps = reps
        self.size = reps**n_sites
        self.full = (1 << self.size) - 1
        self._site_val = {}
        for site in range(n_sites):
            block = reps ** (n_sites - 1 - site)
            for q in range(reps):
                pattern = "0" * (block * q) + "1" * block + "0" * (block * (reps - 1 - q))
                bits = pattern * (reps**site)
                # bit index a is the atom whose base-`reps` digits are its spins
                self._site_val[site, q] = int(bits[::-1], 2)
        weights = [weight_of(self.decode(a)) for a in range(self.size)]
        self.den = math.lcm(*(w.denominator for w in weights))
        self.int_w = [int(w * self.den) for w in weights]

    def decode(self, a: int) -> tuple:
        digits = []
        for _ in range(self.n):
            a, d = divmod(a, self.reps)
            digits.append(d)
        return tuple(reversed(digits))

    def rect_mask(self, rect: dict) -> int:
        mask = self.full
        for site, (mode, values) in rect.items():
            # the tail representative lies in no finite "in" set
            inside = [q for q in range(self.reps) if (q in values) == (mode == "in")]
            part = 0
            for q in inside:
                part |= self._site_val[site, q]
            mask &= part
        return mask

    def union_mask(self, rects) -> int:
        out = 0
        for r in rects:
            out |= self.rect_mask(r)
        return out

    def value(self, mask: int) -> F:
        bits = bin(mask)[2:][::-1]
        w = self.int_w
        return F(sum(w[a] for a, b in enumerate(bits) if b == "1"), self.den)


# ---------------------------------------------------------------------------
# rendering, as the CLI's documented output states it


def render_value(v) -> str:
    if v == INF:
        return "inf"
    v = F(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def render_rect(rect: dict) -> str:
    parts = []
    for site in sorted(rect):
        mode, values = rect[site]
        vals = sorted(values)
        if mode == "in" and len(vals) == 1:
            parts.append(f"x{site}={vals[0]}")
        else:
            parts.append(f"x{site} {mode} {{{','.join(map(str, vals))}}}")
    return " & ".join(parts) if parts else "omega"
