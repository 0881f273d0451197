"""Spans around the library's public entry points, installed at run time.

Nothing in the library changes: `install` replaces each entry point with a
wrapper in every place a caller looks it up (the class for methods, and
every `treemeasure` module namespace that bound the function by name), and
the returned undo puts the originals back.  Spans and counters stay in
memory; `dump` writes them out when the run ends.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans in a traced pass add up to the pass's wall time.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

KEEP_SPANS = 20_000  # raw spans kept for the trace file; aggregates are exact


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # [child_ns, start_ns, span_id]
        self.layers: dict[str, list[int]] = {}  # layer -> [calls, self_ns]
        self.hits: dict[str, int] = {}  # entry point -> calls
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (op, span, parent, entry, start_ns, end_ns)
        self.op = -1
        self._next_id = 0
        self._seen_keys: dict = {}  # handle -> canonical keys it has valued

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, entry: str, layer, fn, after=None):
        """Wrapper recording one span per call; `layer` is a name or a
        function of the call's arguments; `after(args, result)` updates
        counters once the span has closed."""
        tracer = self
        clock = time.perf_counter_ns
        self.hits.setdefault(entry, 0)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            tracer._next_id += 1
            frame = [0, clock(), tracer._next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][0] += dur
                name = layer if isinstance(layer, str) else layer(args)
                agg = tracer.layers.get(name)
                if agg is None:
                    agg = tracer.layers[name] = [0, 0]
                agg[0] += 1
                agg[1] += dur - frame[0]
                tracer.hits[entry] += 1
                if len(tracer.spans) < KEEP_SPANS:
                    parent = stack[-1][2] if stack else None
                    tracer.spans.append((tracer.op, frame[2], parent, entry, frame[1], end))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters fed by the wrappers ----------------------------------------

    def _after_measure_of(self, args, value) -> None:
        self.count("measure.measure_of.calls")
        if isinstance(value, Fraction):
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > self.counters.get("measure.value_bits_max", 0):
                self.counters["measure.value_bits_max"] = bits

    def _after_disjoint(self, args, rects) -> None:
        self.count("cylinder.disjoint.rects_in", len(args[0].rectangles))
        self.count("cylinder.disjoint.rects_out", len(rects))

    def _after_mu(self, args, value) -> None:
        handle, event = args[0], args[1]
        seen = self._seen_keys.setdefault(handle, set())
        key = event.canonical_key()
        self.count("extension.mu.calls")
        if key in seen:
            self.count("extension.mu.repeats")
        seen.add(key)

    def _after_consistency(self, args, report) -> None:
        fam = args[0]
        self.count("measure.consistency.calls")
        spins = fam.ctx.spins
        if spins.is_finite and report.method == "enumeration":
            # computed from the report: atoms the enumeration route visits
            self.count("measure.consistency.atoms", sum(
                spins.size ** fam.ctx.tree.ball_size(j)
                for j in range(1, report.verified_depth + 1)
            ))

    def _after_sigma(self, args, sv) -> None:
        self.count("sigma_finite.terms", sv.terms_used)

    # -- reading the results ---------------------------------------------------

    def self_ms(self, layer: str) -> float:
        return self.layers.get(layer, (0, 0))[1] / 1e6

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0))[0]

    def dump(self, path: str, extra: dict) -> None:
        payload = {
            "layers": {k: {"calls": c, "self_ms": ns / 1e6} for k, (c, ns) in self.layers.items()},
            "entry_hits": self.hits,
            "counters": self.counters,
            "spans_kept": len(self.spans),
            "span_fields": ["op", "span", "parent", "entry", "start_ns", "end_ns"],
            "spans": self.spans,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _measure_layer(args) -> str:
    vm = args[0]
    kind = vm.form.kind
    if kind == "chain":
        return "measure.chain_finite" if vm.ctx.spins.is_finite else "measure.chain_nat"
    return f"measure.{kind}"


TREE_METHODS = ("level", "parent", "children", "ancestor_at_level", "parents_list")
ALGEBRA_METHODS = ("intersect", "union", "subtract", "complement", "subset_of", "semantic_equal")


def install(tracer: Tracer, tm) -> callable:
    """Wrap the entry points of the `treemeasure` package `tm`; return undo."""
    undo: list[tuple] = []

    def patch_method(cls, name, entry, layer, after=None):
        raw = cls.__dict__[name]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(tracer.wrap(entry, layer, raw.__func__, after))
        else:
            new = tracer.wrap(entry, layer, raw, after)
        undo.append((cls, name, raw))
        setattr(cls, name, new)

    def patch_function(module, name, entry, layer, after=None):
        original = getattr(module, name)
        new = tracer.wrap(entry, layer, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "treemeasure" and not mod_name.startswith("treemeasure."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, new)

    tree_cls = tm.tree.TreeGeometry
    for name in TREE_METHODS:
        patch_method(tree_cls, name, f"tree.{name}", "tree")
    cyl = tm.cylinder.CylinderSet
    patch_method(cyl, "build", "cylinder.build", "cylinder.build")
    for name in ALGEBRA_METHODS:
        patch_method(cyl, name, f"cylinder.{name}", "cylinder.algebra")
    patch_method(cyl, "disjoint_rectangles", "cylinder.disjoint_rectangles",
                 "cylinder.disjoint", tracer._after_disjoint)
    patch_method(tm.measure.VolumeMeasure, "measure_of", "measure.measure_of",
                 _measure_layer, tracer._after_measure_of)
    patch_function(tm.measure, "check_consistency", "measure.check_consistency",
                   "measure.consistency", tracer._after_consistency)
    ext = tm.extension.ExtensionHandle
    patch_method(ext, "issue", "extension.issue", "extension.issue")
    patch_method(ext, "mu", "extension.mu", "extension.mu", tracer._after_mu)
    patch_function(tm.extension, "additivity_check", "extension.additivity_check",
                   "extension.additivity")
    patch_method(tm.sigma_finite.SigmaFiniteExtension, "value", "sigma_finite.value",
                 "sigma_finite.value", tracer._after_sigma)
    patch_method(tm.sigma_finite.Cover, "part", "sigma_finite.cover_part",
                 "sigma_finite.cover_part")
    patch_function(tm.specdsl, "load_spec", "specdsl.load_spec", "specdsl.load_spec")
    patch_function(tm.specdsl, "compile_event", "specdsl.compile_event",
                   "specdsl.compile_event")
    patch_function(tm.cli, "main", "cli.main", "cli.main")

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
