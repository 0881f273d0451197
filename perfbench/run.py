"""Run one workload of the treemeasure benchmark and print its metrics.

    python3 perfbench/run.py --workload deep_sparse --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree: it imports the library from `src/`
and reads the spec files under `samples/` and `tests/data/`.  One process,
one caller in a closed loop: the next op starts when the previous one
returns.  The op count is fixed by the workload's nominal rate times
`--seconds`, so the same seed and seconds give the same ops.  The ops run
in REPEATS passes, each on its own fresh set-up, and each op's time is the
least disturbed of its passes (the rule `timeit` follows), which damps the
slow spells of a shared machine.

`--trace 0` reports the end-to-end metrics of those passes; latency_p99_ms
is the Harrell-Davis estimate, which averages the few samples around the
99th rank instead of taking one of them.  `--trace 1`
then runs the same ops once more with spans around the library's entry
points, and reports per-layer metrics.  Every op is checked against
an oracle after it returns, outside the timed region.  The last line of
stdout is one JSON object; the exit code is 1 when an oracle found a wrong
value or a traced entry point was never reached, 2 when the source tree is
incomplete.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Tracer, install  # noqa: E402
from workloads import SPEC_DIRS, WORKLOADS  # noqa: E402

SETUP_REPS = 5  # set-up runs per process; setup_s is their median
REPEATS = 2  # timed passes over the same ops, each on a fresh set-up
TRACE_SHARE = 3  # a traced run uses 1/TRACE_SHARE of the ops per pass
WORK_DIR = ".bench_work"  # generated specs and trace files, under the cwd

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "ops/s"), ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("tree.calls", "count"), ("tree.self_ms", "ms"),
    ("measure.product.self_ms", "ms"), ("measure.chain_finite.self_ms", "ms"),
    ("measure.chain_nat.self_ms", "ms"), ("measure.table.self_ms", "ms"),
    ("measure.measure_of.calls", "count"), ("measure.value_bits_max", "bits"),
    ("cylinder.build.self_ms", "ms"), ("cylinder.algebra.self_ms", "ms"),
    ("cylinder.disjoint.self_ms", "ms"), ("cylinder.disjoint.rects_in", "count"),
    ("cylinder.disjoint.rects_out", "count"), ("extension.issue.self_ms", "ms"),
    ("extension.mu.calls", "count"), ("extension.mu.self_ms", "ms"),
    ("extension.repeat_ratio", "ratio"), ("measure.consistency.calls", "count"),
    ("measure.consistency.self_ms", "ms"), ("measure.consistency.atoms", "count"),
    ("sigma_finite.value.self_ms", "ms"), ("sigma_finite.cover_part.self_ms", "ms"),
    ("sigma_finite.terms", "count"), ("specdsl.load_spec.self_ms", "ms"),
    ("specdsl.compile_event.self_ms", "ms"), ("cli.main.self_ms", "ms"),
    ("cli.stdout_bytes", "bytes"), ("trace.overhead_ratio", "ratio"),
)
# Self times that are zero by design on some workload (no deep_sparse op
# reaches the CLI, for one): printed in the report, left out of the JSON
# result, whose time values must never read the same on every run.
REPORT_ONLY = {
    "measure.table.self_ms", "cylinder.algebra.self_ms", "sigma_finite.value.self_ms",
    "sigma_finite.cover_part.self_ms", "specdsl.load_spec.self_ms",
    "specdsl.compile_event.self_ms", "cli.main.self_ms",
}


def timed_loop(wl, ops, tracer=None, corrupt_first=False, reference=None) -> dict:
    """Run every op once; check each one after its clock stops, against the
    oracle, or against the outputs of an earlier pass over the same ops."""
    call = wl.run if tracer is None else tracer.wrap("bench.op", "bench.op", wl.run)
    clock = time.perf_counter_ns
    lat: list[int] = []
    failures = {"escape": 0, "exit": 0, "wrong": 0}
    notes: list[str] = []
    stdout_bytes = 0
    signatures = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        exc = None
        t0 = clock()
        try:
            out = call(op)
        except Exception as e:  # noqa: BLE001 - an escape is a counted failure
            exc = e
        lat.append(clock() - t0)
        if tracer is not None:
            tracer.enabled = False
        if exc is not None:
            verdict = ("escape", f"{type(exc).__name__}: {str(exc)[:160]}")
        else:
            signature = wl.signature(out)
            signatures.append(signature)
            if corrupt_first and i == 0:
                out = wl.corrupt(out)
                signature = wl.signature(out)
            stdout_bytes += wl.output_bytes(out)
            if reference is None:
                verdict = wl.check(op, out)
            elif signature != reference[i]:
                verdict = ("wrong", "output differs from the first pass over this op")
            else:
                verdict = None
        if verdict is not None:
            failures[verdict[0]] += 1
            if len(notes) < 10:
                notes.append(f"op {i} {verdict[0]}: {verdict[1]}")
    return {"lat": lat, "failures": failures, "notes": notes, "signatures": signatures,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "stdout_bytes": stdout_bytes}


def harrell_davis(ordered: list[int], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted samples.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics, so the
    estimate rests on the few samples around rank p*n rather than on one.
    """
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # weight of the i-th order statistic: the Beta mass on [i/n, (i+1)/n]
    weights = [sum(density((i + (j + 0.5) / 8) / n) for j in range(8)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def latency_stats(lat: list[int]) -> dict:
    ordered = sorted(lat)
    n = len(ordered)
    p99 = harrell_davis(ordered, 0.99) if n > 1 else ordered[0]
    return {
        "ops_per_s": n / (sum(lat) / 1e9),
        "latency_p50_ms": statistics.median(ordered) / 1e6,
        "latency_p99_ms": p99 / 1e6,
        "samples": n,
        "samples_beyond_p99": sum(1 for x in ordered if x > p99),
        "loop_s": sum(lat) / 1e9,
    }


def per_layer(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    c = tracer.counters
    mu_calls = c.get("extension.mu.calls", 0)
    out = {
        "tree.calls": tracer.calls("tree"),
        "measure.measure_of.calls": c.get("measure.measure_of.calls", 0),
        "measure.value_bits_max": c.get("measure.value_bits_max", 0),
        "cylinder.disjoint.rects_in": c.get("cylinder.disjoint.rects_in", 0),
        "cylinder.disjoint.rects_out": c.get("cylinder.disjoint.rects_out", 0),
        "extension.mu.calls": mu_calls,
        "extension.repeat_ratio": c.get("extension.mu.repeats", 0) / mu_calls if mu_calls else 0.0,
        "measure.consistency.calls": c.get("measure.consistency.calls", 0),
        "measure.consistency.atoms": c.get("measure.consistency.atoms", 0),
        "sigma_finite.terms": c.get("sigma_finite.terms", 0),
        "cli.stdout_bytes": traced["stdout_bytes"],
        "trace.overhead_ratio": sum(traced["lat"]) / sum(untraced["lat"]),  # same ops
    }
    for name, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            out[name] = tracer.self_ms(name[: -len(".self_ms")])
    return out


def git_revision(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_benchmark(tm, name: str, seed: int, seconds: float, trace: bool,
                  import_s: float = 0.0, corrupt_first: bool = False,
                  work_dir: str = WORK_DIR) -> dict:
    """One benchmark run; returns metrics, failures and recorded properties."""
    os.makedirs(work_dir, exist_ok=True)
    n_ops = max(1, round(WORKLOADS[name].rate * seconds / (TRACE_SHARE if trace else REPEATS)))
    setup_times, passes = [], []
    for rep in range(max(SETUP_REPS, REPEATS)):
        t0 = time.perf_counter()
        wl_rep = WORKLOADS[name](tm, seed, work_dir)
        ops_rep = wl_rep.setup(n_ops)
        setup_times.append(time.perf_counter() - t0)
        if rep == 0:
            wl, ops = wl_rep, ops_rep  # the pass checked against the oracles
        if rep < REPEATS:  # each pass runs the same ops on its own fresh set-up
            reference = passes[0]["signatures"] if passes else None
            passes.append(timed_loop(wl_rep, ops_rep, reference=reference,
                                     corrupt_first=corrupt_first and not passes))
    # per op, the least disturbed of its passes (the timeit rule)
    untraced = dict(passes[0], lat=[min(t) for t in zip(*(p["lat"] for p in passes))])
    untraced["rss_mb"] = max(p["rss_mb"] for p in passes)
    for p in passes[1:]:
        for kind, count in p["failures"].items():
            untraced["failures"][kind] += count
    result = {
        "workload": name, "seed": seed, "trace": trace, "ops": len(ops),
        "attempted": len(ops) * len(passes),
        "failures": dict(untraced["failures"]), "notes": list(untraced["notes"]),
        "properties": wl.properties(ops, untraced["lat"]),
        "setup_s": import_s + statistics.median(setup_times),
        **latency_stats(untraced["lat"]),
        "peak_rss_mb": untraced["rss_mb"],
    }
    if name == "cli_specs":
        result["known_escapes"] = wl.escape_probe()
    if not trace:
        return result

    tracer = Tracer()
    restore = install(tracer, tm)
    try:
        setup = tracer.wrap("bench.setup", "bench.setup", make_and_setup)
        tracer.enabled = True
        t0 = time.perf_counter_ns()
        wl_t, ops_t = setup(tm, name, seed, work_dir, n_ops)
        setup_ns = time.perf_counter_ns() - t0
        tracer.enabled = False
        traced = timed_loop(wl_t, ops_t, tracer=tracer)
    finally:
        tracer.enabled = False
        restore()
    for kind, count in traced["failures"].items():
        result["failures"][kind] += count
    result["notes"] += traced["notes"]
    result["missing_entries"] = [e for e in wl.expected_entries if not tracer.hits.get(e)]
    result["layers"] = per_layer(tracer, traced, passes[0])
    wall_ms = (setup_ns + sum(traced["lat"])) / 1e6
    self_ms = {k: ns / 1e6 for k, (_, ns) in tracer.layers.items()}
    result["accounting"] = {"traced_wall_ms": wall_ms, "self_ms": self_ms}
    result["attempted"] += len(ops_t)
    path = os.path.join(work_dir, f"trace-{name}-{seed}.json")
    tracer.dump(path, {"workload": name, "seed": seed, "traced_wall_ms": wall_ms})
    result["trace_file"] = path
    return result


def make_and_setup(tm, name, seed, work_dir, n_ops):
    wl = WORKLOADS[name](tm, seed, work_dir)
    return wl, wl.setup(n_ops)


def report(result: dict, env: dict) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    lines = [f"workload {result['workload']} seed {result['seed']} "
             f"trace {int(result['trace'])}: {result['ops']} ops per pass",
             "environment " + json.dumps(env, sort_keys=True),
             "inputs " + json.dumps(result["properties"], sort_keys=True)]
    failed = sum(result["failures"].values())
    attempted = result["attempted"]
    lines.append(f"failures {json.dumps(result['failures'], sort_keys=True)} "
                 f"error_rate {failed / attempted:.6f} ratio")
    if "known_escapes" in result:
        lines.append(f"known render escape, probed outside the timed loop: "
                     f"{result['known_escapes']} of 2 probes raise")
    lines += [f"  {note}" for note in result["notes"]]
    for name, unit in END_TO_END:
        lines.append(f"{name} {result[name]:.6g} {unit}")
    lines.append(f"latency_p99 samples {result['samples']}, "
                 f"{result['samples_beyond_p99']} beyond it")
    if result["trace"]:
        for name, unit in PER_LAYER:
            lines.append(f"{name} {result['layers'][name]:.6g} {unit}")
        acc = result["accounting"]
        wall = acc["traced_wall_ms"]
        lines.append(f"self time by layer, traced wall {wall:.1f} ms:")
        for layer, ms in sorted(acc["self_ms"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {layer:32s} {ms:10.1f} ms {100 * ms / wall:6.2f}%")
        lines.append(f"  {'(sum)':32s} {sum(acc['self_ms'].values()):10.1f} ms")
        lines.append(f"spans written to {result['trace_file']}")
        if result["missing_entries"]:
            lines.append("traced entry points never reached: "
                         + ", ".join(result["missing_entries"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    t0 = time.perf_counter()
    src = os.path.join(root, "src")
    missing = [d for d in ("src",) + SPEC_DIRS if not os.path.isdir(os.path.join(root, d))]
    if missing:
        print(f"not a treemeasure source tree: missing {', '.join(missing)} in {root}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import treemeasure as tm
        import treemeasure.cli  # noqa: F401 - the CLI workload calls it
    except ImportError as exc:
        print(f"cannot import treemeasure from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    result = run_benchmark(tm, args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s=import_s)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "git_rev": git_revision(root)}
    for line in report(result, env):
        print(line)
    failed = sum(result["failures"].values())
    correct = result["failures"]["wrong"] == 0 and not result.get("missing_entries")
    if args.trace:
        metrics = {n: {"value": result["layers"][n], "unit": u}
                   for n, u in PER_LAYER if n not in REPORT_ONLY}
    else:
        metrics = {n: {"value": result[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
