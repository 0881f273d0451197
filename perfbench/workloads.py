"""The benchmark's workloads: seeded inputs, the timed call, and the oracle.

Each workload builds its families or specs in `setup`, generates every op
from the seed before the timed loop, and warms caches on a separate seed
stream so that timed events stay fresh.  `run` is the only code inside the
timed region.  `check` runs after each op, outside it, and returns None for
a correct op or (kind, detail) for a failed one, where kind is "escape"
(an exception left the public call), "exit" (a CLI exit code outside the
op's expected set) or "wrong" (a value differs from the oracle).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction as F

from oracles import (
    AtomSpace,
    ChainOracle,
    Geo,
    Seq,
    SpecFacts,
    product_value,
    render_rect,
    render_value,
)


def stream(seed: int, name: str) -> random.Random:
    """Independent generator per purpose, so warm-up never shares inputs."""
    return random.Random(f"{seed}/{name}")


def schedule(rng: random.Random, quotas: dict, n: int) -> list[tuple[str, float]]:
    """n (kind, u) pairs in shuffled blocks with fixed per-kind quotas.

    u in [0, 1) sets the properties that drive an op's cost (deepest level,
    rectangle count, range width).  It follows the golden-ratio sequence of
    each kind, the same for every seed, so at any run length each kind's u
    values cover [0, 1) evenly and the cost mix is alike across seeds; the
    seed draws the order and every other detail.
    """
    golden = (5**0.5 - 1) / 2
    drawn = dict.fromkeys(quotas, 0)
    out: list[tuple[str, float]] = []
    while len(out) < n:
        block = [kind for kind, q in quotas.items() for _ in range(q)]
        rng.shuffle(block)
        for kind in block:
            drawn[kind] += 1
            out.append((kind, (0.5 + drawn[kind] * golden) % 1))
    return out[:n]


def proper_subset(rng: random.Random, s: int) -> frozenset:
    return frozenset(rng.sample(range(s), rng.randint(1, s - 1)))


def constraints(tm, rect: dict) -> dict:
    return {
        site: tm.constraint_in(vals) if mode == "in" else tm.constraint_not_in(vals)
        for site, (mode, vals) in rect.items()
    }


def rect_key(rect: dict) -> tuple:
    return tuple(sorted((s, m, tuple(sorted(v))) for s, (m, v) in rect.items()))


class Workload:
    name = ""
    # ops per second at the seed, setting the op count: each of the passes
    # runs rate * seconds / passes ops
    rate = 100.0
    expected_entries: tuple[str, ...] = ()

    def __init__(self, tm, seed: int, work_dir: str):
        self.tm = tm
        self.seed = seed
        self.work_dir = work_dir  # for files the workload writes

    def properties(self, ops, lat) -> dict:
        return {}

    @staticmethod
    def time_share(kinds, lat) -> dict:
        """Share of the timed loop spent on each kind of op."""
        spent: dict[str, int] = {}
        for kind, ns in zip(kinds, lat):
            spent[kind] = spent.get(kind, 0) + ns
        total = sum(lat)
        return {k: round(v / total, 4) for k, v in sorted(spent.items())}

    def corrupt(self, result):
        """A wrong version of one op's result (for the harness self-test)."""
        raise NotImplementedError

    def signature(self, result):
        """What a later pass over the same op must reproduce exactly."""
        return result

    def output_bytes(self, result) -> int:
        return 0


# ---------------------------------------------------------------------------
# deep_sparse
#
# Why: the measure evaluators, the tree index arithmetic and the value algebra
# do almost all the work, while the cylinder algebra sees one rectangle per
# event.  Product depth, the O(depth^3) ancestor tables on long k=1 paths and
# the `== INFINITE` comparisons in the value algebra all show here.  Every
# event is fresh, so the handle's write-once cache is written, never re-read.


class DeepSparse(Workload):
    name = "deep_sparse"
    rate = 240.0
    # ops per block of 100, tuned so that no family takes half the timed loop
    QUOTAS = {
        "chain_s2_k2": 20, "chain_s3_k2": 17, "chain_s2_k1": 2,
        "subchain_s2_k2": 18, "product_s2_k2": 13, "geo_nat_k2": 30,
    }
    # deepest site level per family; the evaluation depth adds 0-4 levels
    MAX_LEVEL = {
        "chain_s2_k2": 12, "chain_s3_k2": 12, "chain_s2_k1": 150,
        "subchain_s2_k2": 8, "product_s2_k2": 7, "geo_nat_k2": 12,
    }
    expected_entries = (
        "tree.level", "tree.parent", "tree.children", "tree.ancestor_at_level",
        "tree.parents_list", "cylinder.build", "cylinder.disjoint_rectangles",
        "measure.measure_of", "measure.check_consistency", "extension.issue",
        "extension.mu",
    )

    def setup(self, n_ops: int):
        tm = self.tm
        h = F(1, 2)
        k2 = tm.TreeGeometry(2, 16)
        ctx = {
            "s2_k2": tm.Context(k2, tm.SpinSet.finite(2)),
            "s3_k2": tm.Context(k2, tm.SpinSet.finite(3)),
            "s2_k1": tm.Context(tm.TreeGeometry(1, 160), tm.SpinSet.finite(2)),
            "nat_k2": tm.Context(k2, tm.SpinSet.naturals()),
        }
        chains = {
            "chain_s2_k2": ("s2_k2", [F(1, 3), F(2, 3)], [[F(3, 4), F(1, 4)], [F(1, 3), F(2, 3)]]),
            "chain_s3_k2": ("s3_k2", [h, F(1, 4), F(1, 4)],
                            [[h, F(1, 4), F(1, 4)], [F(1, 6), F(2, 3), F(1, 6)],
                             [F(1, 4), F(1, 4), h]]),
            "chain_s2_k1": ("s2_k1", [h, h], [[F(2, 3), F(1, 3)], [F(1, 4), F(3, 4)]]),
            # row sums below one: values depend on depth, rationals grow with it
            "subchain_s2_k2": ("s2_k2", [h, h], [[F(1, 3), F(1, 6)], [F(1, 4), F(1, 4)]]),
        }
        self.families, self.handles, self.oracles, self.ctx_of = {}, {}, {}, {}
        for name, (c, lam, kernel) in chains.items():
            fam = tm.markov_family(ctx[c], lam, kernel)
            self.families[name] = fam
            self.ctx_of[name] = ctx[c]
            self.oracles[name] = ChainOracle(Geo(ctx[c].tree.order), lam, kernel)
        weights = {0: [F(1, 4), F(3, 4)], 1: [F(2, 3), F(1, 3)], 4: [F(2, 5), F(3, 5)],
                   9: [F(1, 5), F(4, 5)]}
        self.families["product_s2_k2"] = tm.product_family(ctx["s2_k2"], [h, h], weights)
        self.ctx_of["product_s2_k2"] = ctx["s2_k2"]
        self.product_weights = (Seq([h, h]), {v: Seq(w) for v, w in weights.items()})
        geo = tm.NatSeq.geometric
        kernel = tm.TransitionKernel.for_naturals(
            geo(F(1, 3), F(2, 3)),
            {0: geo(h, h), 1: tm.NatSeq((F(0), h), "geometric", F(1, 4), h)},
        )
        self.families["geo_nat_k2"] = tm.markov_family(ctx["nat_k2"], geo(h, h), kernel)
        self.ctx_of["geo_nat_k2"] = ctx["nat_k2"]
        for name, fam in self.families.items():
            if name == "subchain_s2_k2":
                self.handles[name] = tm.ExtensionHandle.issue(
                    fam, trusted=True,
                    trust_reason="sub-stochastic: every event is valued at one depth",
                )
            else:
                self.handles[name] = tm.ExtensionHandle.issue(fam, verify_depth=2)
        seen: set = set()
        self._warm_up(seen)
        return self._generate(n_ops, seen)

    def _warm_up(self, seen: set) -> None:
        """Root events at every depth the timed ops reach: fills the family's
        per-depth measures and free-factor caches, shares no timed event."""
        rng = stream(self.seed, "deep_sparse/warm-up")
        tm = self.tm
        for name, fam in self.families.items():
            ctx = self.ctx_of[name]
            top = min(self.MAX_LEVEL[name] + 4, ctx.tree.max_depth)
            for depth in range(top + 1):
                if ctx.spins.is_finite:
                    rect = {0: ("in", proper_subset(rng, ctx.spins.size))}
                else:
                    rect = {0: ("in", frozenset([rng.randrange(6)]))}
                seen.add((name, rect_key(rect)))
                event = tm.from_constraints(ctx, constraints(tm, rect))
                fam.measure(depth).measure_of(event)

    def _generate(self, n_ops: int, seen: set) -> list:
        rng = stream(self.seed, "deep_sparse/ops")
        ops = []
        for name, u in schedule(rng, self.QUOTAS, n_ops):
            ctx = self.ctx_of[name]
            tree = ctx.tree
            # from level 2 up: shallower balls hold too few distinct events
            top = 2 + int(u * (self.MAX_LEVEL[name] - 1))
            for _ in range(1000):
                sites = {tree.index_of(top, rng.randrange(tree.sphere_size(top)))}
                for _ in range(rng.randint(1, 4) - 1):
                    lvl = rng.randint(0, top)
                    sites.add(tree.index_of(lvl, rng.randrange(tree.sphere_size(lvl))))
                rect = {}
                for site in sites:
                    if ctx.spins.is_finite:
                        rect[site] = ("in", proper_subset(rng, ctx.spins.size))
                    else:
                        mode = "notin" if rng.random() < 0.4 else "in"
                        rect[site] = (mode, frozenset(rng.sample(range(6), rng.randint(1, 3))))
                key = (name, rect_key(rect))
                if key not in seen:
                    break
            else:
                raise RuntimeError(f"no fresh {name} event at level {top}")
            seen.add(key)
            depth = min(top + rng.randint(0, 4), tree.max_depth)
            ops.append((name, rect, depth))
        return ops

    def run(self, op):
        name, rect, depth = op
        event = self.tm.from_constraints(self.ctx_of[name], constraints(self.tm, rect))
        return self.handles[name].mu(event, at_depth=depth)

    def check(self, op, value):
        name, rect, depth = op
        if name == "product_s2_k2":
            expected = product_value(Geo(2), *self.product_weights, rect, depth)
        elif name != "geo_nat_k2":
            expected = self.oracles[name].value({s: v for s, (_, v) in rect.items()}, depth)
        else:
            # mass 1: mu(E) + mu(complement of E) == 1 at the base depth, and
            # the value there agrees (the handle's write-once cache checks it too)
            tm = self.tm
            event = tm.from_constraints(self.ctx_of[name], constraints(tm, rect))
            handle = self.handles[name]
            expected = handle.mu(event)
            rest = handle.mu(event.complement())
            if expected + rest != 1:
                return ("wrong", f"{name}: mu(E) + mu(not E) = {expected + rest}")
        if value != expected:
            return ("wrong", f"{name} depth {depth}: {value} != {expected}")
        return None

    def corrupt(self, value):
        return value + 1

    def properties(self, ops, lat) -> dict:
        n = len(ops)
        fams: dict[str, int] = {}
        sites = 0
        for name, rect, depth in ops:
            fams[name] = fams.get(name, 0) + 1
            sites += len(rect)
        forms = {"chain": 0, "product": 0}
        for name, c in fams.items():
            forms["product" if name.startswith("product") else "chain"] += c
        max_level = max(Geo(self.ctx_of[name].tree.order).level(max(rect))
                        for name, rect, _ in ops)
        return {
            "family_share": {k: round(v / n, 4) for k, v in sorted(fams.items())},
            "family_time_share": self.time_share([op[0] for op in ops], lat),
            "form_share": {k: round(v / n, 4) for k, v in forms.items()},
            "sites_per_event_mean": round(sites / n, 3),
            "max_site_level": max_level,
            "notin_sites": sum(1 for _, r, _ in ops for m, _ in r.values() if m == "notin"),
        }


# ---------------------------------------------------------------------------
# shallow_union
#
# Why: `build`, `disjoint_rectangles` and `rect_subtract` dominate, while the
# evaluators only see balls of depth <= 2.  It uses the extension cache the
# opposite way from deep_sparse: about a third of evaluations repeat an event
# the handle has already valued.


class ShallowUnion(Workload):
    name = "shallow_union"
    rate = 130.0
    COMBINERS = ("intersect", "subtract", "complement", "semantic_equal")
    REUSE_PAIR = 0.12  # share of ops that revisit an earlier (E, F) pair
    QUOTAS = {
        "s2_chain": 6, "s2_product": 5,
        "s3_chain": 5, "s3_table": 4, "s3_product": 4,
        "nat_chain": 5, "nat_product": 4,
    }
    expected_entries = (
        "tree.level", "tree.children", "cylinder.build", "cylinder.intersect",
        "cylinder.union", "cylinder.subtract", "cylinder.complement",
        "cylinder.subset_of", "cylinder.semantic_equal",
        "cylinder.disjoint_rectangles", "measure.measure_of", "extension.issue",
        "extension.mu", "extension.additivity_check",
    )

    # the chain and product over the naturals, as (prefix, tail) weight specs;
    # kernel rows differ below spin 3, so every spin >= 4 behaves alike
    H = F(1, 2)
    NAT_LAM = ((), ("geometric", H, H))
    NAT_ROWS = {0: ((), ("geometric", H, H)), 1: ((0, H), ("geometric", F(1, 4), H)),
                2: ((), ("geometric", F(1, 3), F(2, 3)))}
    NAT_DEFAULT_ROW = ((), ("geometric", F(2, 3), F(1, 3)))
    NAT_W = ((), ("geometric", H, H))
    NAT_W0 = ((H, F(1, 4)), ("geometric", F(1, 8), H))
    # (tree order, spins, values per site in the oracle's atom space)
    SPACES = {"s2": (2, 2, 2), "s3": (1, 3, 3), "nat": (1, None, 5)}

    def setup(self, n_ops: int):
        tm = self.tm
        self.ctx_of, self.handles, self.atoms, self.sites = {}, {}, {}, {}
        for space, (k, s, reps) in self.SPACES.items():
            spins = tm.SpinSet.finite(s) if s else tm.SpinSet.naturals()
            ctx = tm.Context(tm.TreeGeometry(k, 4), spins)
            geo = Geo(k)
            families = self._finite_families(ctx, geo, s) if s else self._nat_families(ctx, geo, reps)
            for form, (fam, weight_of) in families.items():
                name = f"{space}_{form}"
                self.ctx_of[name] = ctx
                self.sites[name] = (s, geo)
                self.handles[name] = tm.ExtensionHandle.issue(fam, verify_depth=2)
                self.atoms[name] = (geo.ball(2), reps, weight_of)
        self._atom_spaces: dict = {}
        self._seen_keys = {name: set() for name in self.handles}
        self.repeats = self.evaluations = 0
        self._warm_up()
        return self._generate(n_ops)

    def _finite_families(self, ctx, geo: Geo, s: int) -> dict:
        """{form: (family, atom weight on the depth-2 ball)} over s spins."""
        tm = self.tm
        lam = [F(i + 1, s * (s + 1) // 2) for i in range(s)]
        kernel = [[F(2 if r == q else 1, s + 1) for r in range(s)] for q in range(s)]
        site_w = [F(1, s)] * s
        root_w = [F(1, 3)] + [F(2, 3 * (s - 1))] * (s - 1)

        def chain_w(a):
            w = lam[a[0]]
            for v in range(1, len(a)):
                w *= kernel[a[geo.parent(v)]][a[v]]
            return w

        def product_w(a):
            return math.prod((root_w if v == 0 else site_w)[q] for v, q in enumerate(a))

        out = {
            "chain": (tm.markov_family(ctx, lam, kernel), chain_w),
            "product": (tm.product_family(ctx, site_w, {0: root_w}), product_w),
        }
        if s == 3:  # a dense table on 3**5 atoms; on k=2 the ball has 10 sites
            seed = stream(self.seed, "shallow_union/table").randrange(2**31)
            fam = tm.random_consistent_family(ctx, seed, 2)
            table = fam.measure(2).form.table
            out["table"] = (fam, lambda a: table.get(a, F(0)))
        return out

    def _nat_families(self, ctx, geo: Geo, reps: int) -> dict:
        """As `_finite_families`, over the naturals; the atom space's last
        value stands for every spin from reps - 1 on."""
        tm = self.tm
        tail = reps - 1

        def library(spec):
            prefix, (kind, a, r) = spec
            return tm.NatSeq(tuple(F(x) for x in prefix), kind, a, r)

        def oracle(spec, q):
            seq = Seq(*spec)
            return seq.at(q) if q < tail else seq.sum_from(tail)

        def chain_w(a):
            w = oracle(self.NAT_LAM, a[0])
            for v in range(1, len(a)):
                w *= oracle(self.NAT_ROWS.get(a[geo.parent(v)], self.NAT_DEFAULT_ROW), a[v])
            return w

        def product_w(a):
            return math.prod(oracle(self.NAT_W0 if v == 0 else self.NAT_W, q)
                             for v, q in enumerate(a))

        kernel = tm.TransitionKernel.for_naturals(
            library(self.NAT_DEFAULT_ROW), {q: library(r) for q, r in self.NAT_ROWS.items()})
        return {
            "chain": (tm.markov_family(ctx, library(self.NAT_LAM), kernel), chain_w),
            "product": (tm.product_family(ctx, library(self.NAT_W), {0: library(self.NAT_W0)}),
                        product_w),
        }

    def _random_union(self, rng, name, n_rects):
        s, geo = self.sites[name]
        depth = rng.choice((1, 2, 2))
        ball = geo.ball(depth)
        rects = []
        for _ in range(n_rects):
            rect = {}
            for site in rng.sample(range(ball), rng.randint(1, 2)):
                if s is not None:
                    rect[site] = ("in", proper_subset(rng, s))
                else:
                    mode = "notin" if rng.random() < 0.5 else "in"
                    rect[site] = (mode, frozenset(rng.sample(range(4), rng.randint(1, 2))))
            rects.append(rect)
        return rects

    def _warm_up(self) -> None:
        rng = stream(self.seed, "shallow_union/warm-up")
        for name, handle in self.handles.items():
            for _ in range(3):
                event = self._event(name, self._random_union(rng, name, 2))
                for depth in range(event.base_depth, 3):
                    handle.family.measure(depth).measure_of(event)

    def _generate(self, n_ops: int) -> list:
        rng = stream(self.seed, "shallow_union/ops")
        history: dict[str, list] = {name: [] for name in self.handles}
        turn = dict.fromkeys(self.handles, 0)
        ops = []
        for name, u in schedule(rng, self.QUOTAS, n_ops):
            # combiners take turns per family; u sets the number of rectangles
            comb = self.COMBINERS[turn[name] % len(self.COMBINERS)]
            turn[name] += 1
            past = history[name]
            if past and rng.random() < self.REUSE_PAIR:
                e_rects, f_rects, used = rng.choice(past)
                others = [c for c in self.COMBINERS if c not in used]
                if others:
                    comb = rng.choice(others)
                used.add(comb)
            else:
                e_rects = self._random_union(rng, name, 2 + int(u * 7))
                if comb == "semantic_equal" and rng.random() < 0.3:
                    # a syntactically different but equal event: E plus a
                    # rectangle inside one of E's rectangles
                    inner = dict(rng.choice(e_rects))
                    site = rng.choice(sorted(inner))
                    mode, vals = inner[site]
                    if mode == "in" and len(vals) > 1:
                        inner[site] = ("in", frozenset(sorted(vals)[:1]))
                    f_rects = e_rects + [inner]
                else:  # a small second event: 1-3 rectangles, from 7u's spread
                    f_rects = self._random_union(rng, name, 1 + int(u * 7 % 1 * 3))
                past.append((e_rects, f_rects, {comb}))
            ops.append((name, comb, e_rects, f_rects))
        return ops

    def _event(self, name, rects):
        tm = self.tm
        ctx = self.ctx_of[name]
        return tm.CylinderSet.build(
            ctx, [tm.make_rectangle(ctx, constraints(tm, r)) for r in rects]
        )

    def run(self, op):
        name, comb, e_rects, f_rects = op
        handle = self.handles[name]
        e = self._event(name, e_rects)
        f = self._event(name, f_rects)
        equal = None
        if comb == "intersect":
            result = e.intersect(f)
        elif comb == "subtract":
            result = e.subtract(f)
        elif comb == "complement":
            result = e.complement()
        else:
            equal = e.semantic_equal(f)
            result = e
        value = handle.mu(result)
        inter = result if comb == "intersect" else e.intersect(f)
        diff = result if comb == "subtract" else e.subtract(f)
        report = self.tm.additivity_check(handle, [inter, diff], whole=e)
        return value, equal, report, (result, inter, diff, e)

    def _space(self, name) -> AtomSpace:
        if name not in self._atom_spaces:
            self._atom_spaces[name] = AtomSpace(*self.atoms[name])
        return self._atom_spaces[name]

    def check(self, op, out):
        name, comb, e_rects, f_rects = op
        value, equal, report, evaluated = out
        seen = self._seen_keys[name]
        for event in evaluated:  # mu order: result, then the parts, then the whole
            key = event.canonical_key()
            self.evaluations += 1
            if key in seen:
                self.repeats += 1
            seen.add(key)
        space = self._space(name)
        me, mf = space.union_mask(e_rects), space.union_mask(f_rects)
        expected_mask = {
            "intersect": me & mf, "subtract": me & ~mf & space.full,
            "complement": space.full & ~me, "semantic_equal": me,
        }[comb]
        expected = space.value(expected_mask)
        if value != expected:
            return ("wrong", f"{name} {comb}: {value} != {expected}")
        if comb == "semantic_equal" and equal != (me == mf):
            return ("wrong", f"{name} semantic_equal: {equal} != {me == mf}")
        whole = space.value(me)
        if not report.ok or report.whole_value != whole:
            return ("wrong", f"{name} additivity: {report.parts_total} vs {whole}")
        return None

    def corrupt(self, out):
        value, *rest = out
        return (value + 1, *rest)

    def signature(self, out):
        value, equal, report, _ = out
        return value, equal, report.ok, report.parts_total, report.whole_value

    def properties(self, ops, lat) -> dict:
        n = len(ops)
        fams: dict[str, int] = {}
        combs: dict[str, int] = {}
        rects = []
        for name, comb, e_rects, f_rects in ops:
            fams[name] = fams.get(name, 0) + 1
            combs[comb] = combs.get(comb, 0) + 1
            rects += [len(e_rects), len(f_rects)]
        forms: dict[str, int] = {}
        for name, c in fams.items():
            form = name.split("_")[1]
            forms[form] = forms.get(form, 0) + c
        return {
            "family_share": {k: round(v / n, 4) for k, v in sorted(fams.items())},
            "family_time_share": self.time_share([op[0] for op in ops], lat),
            "form_share": {k: round(v / n, 4) for k, v in sorted(forms.items())},
            "combiner_share": {k: round(v / n, 4) for k, v in sorted(combs.items())},
            "rects_per_event_mean": round(sum(rects) / len(rects), 3),
            "rects_per_event_max": max(rects),
            "repeat_share": round(self.repeats / max(self.evaluations, 1), 4),
        }


# ---------------------------------------------------------------------------
# cli_specs
#
# Why: spec parsing, CLI rendering, cover sums, consistency enumeration and
# the cost of wide value ranges carry this workload, and none of them matters
# in the other two.  Every subcommand runs in process through `cli.main`.


SPEC_DIRS = ("samples", os.path.join("tests", "data"))


class CliSpecs(Workload):
    name = "cli_specs"
    rate = 85.0
    QUOTAS = {
        "validate": 10, "eval_chain": 12, "eval_deep": 4, "eval_product": 8,
        "eval_table": 6, "eval_range": 3, "consistency": 18, "probe_empty": 8,
        "sigma_eval": 10, "sigma_diverges": 2, "covers_compare": 10, "cover_sum": 9,
    }
    expected_entries = (
        "cli.main", "specdsl.load_spec", "specdsl.compile_event",
        "measure.check_consistency", "sigma_finite.value", "sigma_finite.cover_part",
        "extension.issue", "extension.mu", "measure.measure_of", "cylinder.build",
    )

    def setup(self, n_ops: int):
        self.facts: dict[str, SpecFacts] = {}
        for d in SPEC_DIRS:
            for fn in sorted(os.listdir(d)):
                if fn.endswith(".spec"):
                    path = os.path.join(d, fn)
                    with open(path, encoding="utf-8") as fh:
                        self.facts[path] = SpecFacts(fh.read())
        self.by_kind: dict[str, list[str]] = {}
        for path, f in self.facts.items():
            self.by_kind.setdefault(self._kind(f), []).append(path)
        paths = {}
        for name, text in self._generated_specs(stream(self.seed, "cli_specs/specs")).items():
            paths[name] = os.path.join(self.work_dir, f"{name}.spec")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
            if name != "escape_k2":  # only the escape probe reads that one
                self.facts[paths[name]] = SpecFacts(text)
        self.deep_spec, self.escape_spec = paths["deep_nonstoch_k1"], paths["escape_k2"]
        self.by_kind["nat_chain"].append(paths["nat_probes"])
        self._warm_up()
        return self._generate(n_ops)

    @staticmethod
    def _generated_specs(rng) -> dict:
        def row():
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            total = a + b + rng.randint(1, 4)  # row sums strictly below one
            return f"{a}/{total} {b}/{total}"

        return {
            # a non-stochastic chain on a long path, evaluated at depth >= 12
            "deep_nonstoch_k1": (
                "[tree]\nk = 1\nmax_depth = 40\n\n[spins]\nkind = finite\nsize = 2\n\n"
                f"[family]\nkind = markov\nlambda = 1 1\nP = {row()} ; {row()}\n"
            ),
            # consistent but not stochastic over the naturals: checked by probes
            "nat_probes": (
                "[tree]\nk = 2\nmax_depth = 6\n\n[spins]\nkind = nat\n\n"
                "[family]\nkind = markov\nlambda = 1\n"
                f"P = geometric 1/{rng.randint(3, 6)} 1/2\nP@0 = 1\n"
            ),
            # the known escape: a 31,744-bit denominator at depth 12
            "escape_k2": (
                "[tree]\nk = 2\nmax_depth = 12\n\n[spins]\nkind = finite\nsize = 2\n\n"
                "[family]\nkind = markov\nlambda = 1 1\nP = 1/2 1/4 ; 1/4 1/2\n"
            ),
        }

    @staticmethod
    def _kind(f: SpecFacts) -> str:
        if f.size is None:
            return "nat_" + ("product" if f.family_kind == "product" else "chain")
        return {"markov": "chain", "markov-prob": "chain"}.get(f.family_kind, f.family_kind)

    def _warm_up(self) -> None:
        rng = stream(self.seed, "cli_specs/warm-up")
        for path in sorted(self.facts):
            self._call(["validate", "--spec", path, "--json"])
        for _ in range(20):
            self._call(self._make(rng, "eval_chain", rng.random())[0])

    # -- op generation ----------------------------------------------------------

    def _generate(self, n_ops: int) -> list:
        rng = stream(self.seed, "cli_specs/ops")
        return [self._make(rng, kind, u) for kind, u in schedule(rng, self.QUOTAS, n_ops)]

    def _rect(self, rng, f: SpecFacts, top: int, n_sites=None) -> dict:
        rect = {}
        for _ in range(n_sites or rng.randint(1, 3)):
            lvl = rng.randint(0, top)
            site = rng.choice(f.geo.sphere(lvl))
            if f.size:
                rect[site] = ("in", proper_subset(rng, f.size))
            else:
                mode = "notin" if rng.random() < 0.4 else "in"
                rect[site] = (mode, frozenset(rng.sample(range(5), rng.randint(1, 2))))
        return rect

    def _make(self, rng, kind: str, u: float):
        """(argv, kind, expectation parameters) for one op."""
        flags = ["--json"] if rng.random() < 0.5 else []
        if kind == "validate":
            path = rng.choice(sorted(self.facts))
            return ["validate", "--spec", path] + flags, kind, (path,)
        if kind in ("eval_chain", "eval_deep", "eval_product", "eval_table"):
            if kind == "eval_deep":
                path = self.deep_spec
                top = rng.randint(1, 30)
                rect = self._rect(rng, self.facts[path], top, 1 + int(u * 3))
            else:
                pool = {"eval_chain": "chain", "eval_product": "product", "eval_table": "table"}[kind]
                paths = self.by_kind[pool] + (self.by_kind["nat_product"] if pool == "product" else [])
                path = rng.choice(sorted(paths))
                f = self.facts[path]
                cap = {1: 8, 2: 5, 3: 3}[f.k] if pool != "product" else {1: 8, 2: 4}[f.k]
                top = min(cap, f.defined_depth)
                rect = self._rect(rng, f, rng.randint(0, top))
            f = self.facts[path]
            base = max(f.geo.level(s) for s in rect)
            if kind == "eval_deep":
                depth = max(12, base) + rng.randint(0, 4)
            else:
                cap = {1: 8, 2: 5, 3: 4}[f.k]
                depth = min(f.defined_depth, max(base, min(cap, base + rng.randint(0, 2))))
            argv = ["eval", "--spec", path, "--event", render_rect(rect), "--depth", str(depth)]
            return argv + flags, "eval", (path, rect, depth)
        if kind == "eval_range":
            # Root weights without a geometric tail: under one, the value of a
            # range past ~1.4e4 has a denominator beyond the 4300-digit
            # int-to-str limit, the known escape that `escape_probe` runs.
            path = rng.choice(sorted(
                p for p in self.by_kind["nat_chain"] if self.facts[p].lam.tail[0] != "geometric"
            ))
            n = int(10 ** (1 + 4 * u))  # log-uniform from 10 to 10^5
            depth = rng.randint(0, 2)
            argv = ["eval", "--spec", path, "--event", f"x0 in {{0..{n}}}", "--depth", str(depth)]
            return argv + flags, "eval_range", (path, n, depth)
        if kind == "consistency":
            path = rng.choice(sorted(self.facts))
            f = self.facts[path]
            # enumeration depth 1-3, as deep as the atom count allows
            depth = 1
            for d in (2, 3):
                atoms = (f.size or 2) ** f.geo.ball(d)
                if f.size is None or atoms <= 2**16 or f.defined_depth < d:
                    if rng.random() < 0.7:
                        depth = d
            return ["consistency", "--spec", path, "--depth", str(depth)] + flags, kind, (path, depth)
        if kind == "probe_empty":
            path = rng.choice(sorted(self.by_kind["chain"] + self.by_kind["product"]))
            f = self.facts[path]
            m = rng.randint(1, min(3, f.max_depth))
            v = rng.randrange(f.size)
            argv = ["probe-empty", "--spec", path, "--maxdepth", str(m), "--value", str(v)]
            return argv + flags, kind, (path, m, v)
        covered = sorted(p for p in self.by_kind["nat_chain"] if self.facts[p].covers)
        path = rng.choice(covered)
        f = self.facts[path]
        names = sorted(f.covers)
        if kind == "sigma_diverges":
            # the 2001-term certificate: one root value per part, 1/2 per term
            path, cover = rng.choice([
                (p, c) for p in covered for c, spec in sorted(self.facts[p].covers.items())
                if spec[0] == "slice" and spec[2] == 1
            ])
            argv = ["sigma-eval", "--spec", path, "--cover", cover, "--event", "x1=0"]
            return argv + flags, kind, (path, cover)
        events = []
        for _ in range(1 if kind == "sigma_eval" else rng.randint(1, 3)):
            lo = rng.randint(0, 40)
            events.append((lo, lo + rng.randint(0, 60)))
        ev_args = []
        for lo, hi in events:
            ev_args += ["--event", f"x0 in {{{lo}..{hi}}}"]
        if kind == "sigma_eval":
            cover = rng.choice(names)
            argv = ["sigma-eval", "--spec", path, "--cover", cover] + ev_args
            return argv + flags, kind, (path, cover, events)
        seeded = rng.random() < 0.25
        if seeded:
            ev_args = ["--seed", str(rng.randrange(1000))]
        if kind == "covers_compare":
            pair = rng.sample(names, 2)
            argv = ["covers-compare", "--spec", path, "--cover", pair[0], "--cover", pair[1]]
            return argv + ev_args + flags, kind, (path, pair, None if seeded else events)
        cover = rng.choice(names)
        argv = ["cover-sum", "--spec", path, "--cover", cover] + ev_args
        return argv + flags, kind, (path, cover, None if seeded else events)

    # -- the timed call -----------------------------------------------------------

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tm.cli.main(argv)
        return code, out.getvalue()

    def run(self, op):
        return self._call(op[0])

    def escape_probe(self) -> int:
        """The seed's known escape, rendering a rational past the 4300-digit
        int-to-str limit, run outside the timed loop: a non-stochastic chain
        at depth 12, and a wide root range under geometric root weights.
        Returns how many of the two still raise out of `cli.main`."""
        probes = [
            ["eval", "--spec", self.escape_spec, "--event", "x0=0",
             "--depth", "12", "--json"],
            ["eval", "--spec", os.path.join("tests", "data", "nat_geometric_mass.spec"),
             "--event", "x0 in {0..15000}", "--json"],
        ]
        escapes = 0
        for argv in probes:
            try:
                self._call(argv)
            except Exception:  # noqa: BLE001 - counting exactly this escape
                escapes += 1
        return escapes

    # -- the oracle -----------------------------------------------------------------

    def corrupt(self, out):
        code, stdout = out
        return code, stdout.replace("1", "2", 1) + " "

    def signature(self, out):
        code, stdout = out
        return code, hashlib.sha256(stdout.encode()).hexdigest()

    def output_bytes(self, out) -> int:
        return len(out[1])

    def check(self, op, out):
        argv, kind, params = op
        code, stdout = out
        expected_code, expected = self._expect(kind, params)
        if code != expected_code:
            return ("exit", f"{' '.join(argv)[:120]}: exit {code}, expected {expected_code}")
        if callable(expected):
            ok = expected(json.loads(stdout) if stdout else None)
        else:
            ok = stdout == expected
        if not ok:
            return ("wrong", f"{' '.join(argv)[:120]}: unexpected stdout {stdout[:160]!r}")
        return None

    @staticmethod
    def _dump(payload) -> str:
        return json.dumps(payload, sort_keys=True) + "\n"

    def _sigma(self, f: SpecFacts, cover, lo, hi):
        """Cover sum of the root range lo..hi: exact, one term per part met."""
        kind = f.covers[cover]
        terms = hi // kind[2] + 1 if kind[0] == "slice" else kind[1]
        total = root_range_value(f, lo, hi)
        return {"bound": None, "kind": "exact", "rendered": render_value(total),
                "tail_bound": None, "terms_used": terms, "total": render_value(total)}

    def _expect(self, kind, params):
        """(exit code, exact stdout or a payload predicate) for one op."""
        f = self.facts[params[0]]
        dump = self._dump
        if kind == "validate":
            return 0, dump({
                "command": "validate", "covers": sorted(f.covers),
                "family_class": f.family_class(), "family_kind": f.family_kind,
                "max_depth": f.max_depth, "ok": True, "order": f.k, "spins": f.spins,
            })
        if kind == "eval":
            _, rect, depth = params
            return 0, dump({"command": "eval", "depth": depth, "event": render_rect(rect),
                            "value": render_value(f.value(rect, depth))})
        if kind == "eval_range":
            _, n, depth = params
            event = render_rect({0: ("in", range(n + 1))})
            return 0, dump({"command": "eval", "depth": depth, "event": event,
                            "value": render_value(root_range_value(f, 0, n))})
        if kind == "consistency":
            _, depth = params
            if f.size is None:
                method = "closed-row" if f.closed_row() else "probes"
                return 0, dump({
                    "budget_limited": False, "command": "consistency",
                    "exhaustive": method == "closed-row", "method": method, "ok": True,
                    "requested_depth": depth, "verified_depth": depth, "violation": None,
                })
            if f.family_kind == "markov" and not f.stochastic():
                return 1, lambda p: (p["ok"] is False and p["method"] == "enumeration"
                                     and set(p["violation"]) == {"i", "j", "witness", "lhs", "rhs"})
            return 0, dump({
                "budget_limited": False, "command": "consistency", "exhaustive": True,
                "method": "enumeration", "ok": True, "requested_depth": depth,
                "verified_depth": min(depth, f.defined_depth),
                "violation": None,
            })
        if kind == "probe_empty":
            _, m, v = params
            if f.family_kind == "markov" and not f.stochastic():
                return 1, ""  # the depth-1 screen rejects the family: no payload
            chain, values = [], []
            for n in range(m + 1):
                rect = {s: ("in", (v,)) for s in range(f.geo.ball(n))}
                chain.append(render_rect(rect))
                values.append(f.value(rect, n))
            decayed = all(values[t + 1] < values[t] for t in range(m))
            return 0, dump({"chain": chain, "command": "probe-empty",
                            "values": [render_value(x) for x in values],
                            "verdict": "decayed" if decayed else "no-decay"})
        if kind == "sigma_diverges":
            _, cover = params
            block = f.covers[cover][2]
            total, terms = F(0), 0
            while total <= 1000:
                total += sum(f.lam.at(q) * f.row(q).at(0)
                             for q in range(terms * block, (terms + 1) * block))
                terms += 1
            return 0, dump({"bound": "1000", "command": "sigma-eval", "cover": cover,
                            "event": "x1=0", "kind": "diverges",
                            "rendered": "DivergesBeyond(1000)", "tail_bound": None,
                            "terms_used": terms, "total": render_value(total)})
        if kind == "sigma_eval":
            _, cover, [(lo, hi)] = params
            event = render_rect({0: ("in", range(lo, hi + 1))})
            return 0, dump({"command": "sigma-eval", "cover": cover, "event": event,
                            **self._sigma(f, cover, lo, hi)})
        _, covers, events = params
        if events is None:  # events drawn by the CLI itself: check the contract
            if kind == "covers_compare":
                return 0, lambda p: p["ok"] is True and len(p["records"]) == 8 and all(
                    r["agree"] is True for r in p["records"])
            return 0, lambda p: p["verdict"] == "PASS" and len(p["records"]) == 8
        records = []
        for lo, hi in events:
            event = render_rect({0: ("in", range(lo, hi + 1))})
            if kind == "covers_compare":
                records.append({"agree": True, "event": event,
                                "first": self._sigma(f, covers[0], lo, hi),
                                "second": self._sigma(f, covers[1], lo, hi)})
            else:
                records.append({"direct": render_value(root_range_value(f, lo, hi)),
                                "event": event, "summed": self._sigma(f, covers, lo, hi),
                                "verdict": "PASS"})
        if kind == "covers_compare":
            return 0, dump({"command": "covers-compare", "covers": list(covers),
                            "ok": True, "records": records})
        return 0, dump({"command": "cover-sum", "cover": covers, "records": records,
                        "verdict": "PASS"})

    def properties(self, ops, lat) -> dict:
        n = len(ops)
        kinds: dict[str, int] = {}
        commands: dict[str, int] = {}
        widths = []
        for argv, kind, params in ops:
            kinds[kind] = kinds.get(kind, 0) + 1
            commands[argv[0]] = commands.get(argv[0], 0) + 1
            if kind == "eval_range":
                widths.append(params[1] + 1)
        widths.sort()
        return {
            "command_share": {k: round(v / n, 4) for k, v in sorted(commands.items())},
            "form_share": {k: round(v / n, 4) for k, v in sorted(kinds.items())},
            "form_time_share": self.time_share([op[1] for op in ops], lat),
            "specs_used": len({op[2][0] for op in ops}),
            "range_width_median": widths[len(widths) // 2] if widths else 0,
            "range_width_max": widths[-1] if widths else 0,
        }


def root_range_value(f: SpecFacts, lo: int, hi: int):
    """Value of x0 in {lo..hi} on a chain whose kernel rows all sum to one."""
    lam = f.lam
    n = len(lam.prefix)
    head = sum(lam.prefix[lo:hi + 1], F(0))
    a, b = max(lo, n) - n, hi + 1 - n  # tail offsets [a, b)
    if b <= a:
        return head
    if lam.tail[0] == "const":
        return head + lam.tail[1] * (b - a)
    _, c, r = lam.tail
    return head + c * (r**a - r**b) / (1 - r)


WORKLOADS = {w.name: w for w in (DeepSparse, ShallowUnion, CliSpecs)}
