"""Time src/ trees against each other in alternating child processes.

Two workloads, each a table of rows timed in fresh interpreters:

* `cold`, ms: `python -c pass`, `import treemeasure` and `import
  treemeasure.cli` (the child times an import itself, so its start-up stays
  out), and the README's seven CLI examples as `python -m treemeasure.cli`.
  Each case runs in two modes: "no cache" (PYTHONDONTWRITEBYTECODE=1) and
  "cache" (a temporary PYTHONPYCACHEPREFIX filled by one untimed run).
* `spec`, µs per call: `parse_document`, `build_document` and `load_spec`
  over every spec in `samples/` and `tests/data/`, and `compile_event` over
  the cli_specs workload's event shapes.  One child per tree and round,
  with a bytecode cache, makes REPS timed passes after one untimed pass.

Give one or more `src/` trees (default: this checkout's).  Each is copied,
without its `__pycache__`, into one temporary directory, and the trees take
turns row by row, in an order reversed every other round, so drift on the
machine falls on all alike.  The script prints each row's min, median and
IQR per tree, and from tree 1 on, the ratios of its min and median to tree
0's.  It writes nothing outside that directory.

    python tools/alternate.py cold --runs 15
    python tools/alternate.py spec --runs 15 ../parent/src src
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYTHON = sys.version.split()[0]

CLI_EXAMPLES = [
    ["validate", "--spec", "samples/chain_k2.spec"],
    ["eval", "--spec", "samples/chain_k2.spec", "--event", "x0=0 & x1=0", "--depth", "2"],
    ["consistency", "--spec", "samples/chain_k2.spec", "--depth", "3"],
    ["probe-empty", "--spec", "samples/chain_k2.spec", "--maxdepth", "3"],
    ["sigma-eval", "--spec", "samples/counting_nat.spec", "--cover", "root",
     "--event", "x0 in {0..3}"],
    ["covers-compare", "--spec", "samples/counting_nat.spec", "--cover", "root",
     "--cover", "pairs", "--seed", "7"],
    ["cover-sum", "--spec", "samples/counting_nat.spec", "--cover", "root", "--seed", "7"],
]
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import {}; "
                "print((time.perf_counter() - t0) * 1e3)")
CASES = [  # (name, interpreter arguments, whether the child prints its own time)
    ("python -c pass", ["-c", "pass"], False),
    ("import treemeasure", ["-c", IMPORT_TIMER.format("treemeasure")], True),
    ("import treemeasure.cli", ["-c", IMPORT_TIMER.format("treemeasure.cli")], True),
    *((f"cli {argv[0]}", ["-m", "treemeasure.cli", *argv], False) for argv in CLI_EXAMPLES),
]
MODES = ("no cache", "cache")

SPEC_DIRS = ("samples", "tests/data")
# (spec whose context the events are compiled against, event texts)
EVENTS = [
    ("samples/chain_k2.spec", [
        "x0=0 & x1=0", "x2=1", "x1 in {0,1} & x4=0 & x9=1", "x0 in {1} & x5 in {0}",
    ]),
    ("samples/counting_nat.spec", [
        "x0 in {0..3}", "x1=0", "x0 notin {1,3} & x2 in {0,4}", "x0 in {12..57}",
        "x0 in {0..1000}",
    ]),
]
REPS = 40

# the spec child: one round of `reps` timed passes per stage, printed as JSON
SPEC_CHILD = r"""
import gc, json, sys, time
from treemeasure.specdsl import build_document, compile_event, load_spec, parse_document

texts, events, reps = json.loads(sys.stdin.read())
docs = [parse_document(t) for t in texts]
shapes = [(load_spec(texts[i]).ctx, e) for i, es in events for e in es]
calls = {
    "parse_document": (parse_document, [(t,) for t in texts]),
    "build_document": (build_document, [(d,) for d in docs]),
    "load_spec": (load_spec, [(t,) for t in texts]),
    "compile_event": (compile_event, shapes),
}
out = {}
for stage, (fn, inputs) in calls.items():
    for args in inputs:  # untimed
        fn(*args)
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(reps):
        for args in inputs:
            fn(*args)
    out[stage] = (time.perf_counter() - t0) * 1e6 / (reps * len(inputs))
print(json.dumps(out))
"""


def child_env(src: str, cache: str | None) -> dict:
    """A child's environment: `src` on its path, and no bytecode or a cache."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = src
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = cache
    return env


def run_child(args: list[str], env: dict, stdin: str | None = None) -> tuple[str, float]:
    """A child's stdout and wall time in ms; a failed child ends the script."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, input=stdin,
                          capture_output=True, text=True)
    elapsed = (time.perf_counter() - t0) * 1e3
    if proc.returncode:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout, elapsed


def cold(copies: list[tuple[str, str]], runs: int):
    """The cold-start workload's title and its steps, one per case and mode."""
    envs = [{"no cache": child_env(src, None), "cache": child_env(src, cache)}
            for src, cache in copies]

    def case_ms(args: list[str], env: dict, timed_inside: bool) -> float:
        out, elapsed = run_child(args, env)
        return float(out) if timed_inside else elapsed

    def step(name: str, args: list[str], inside: bool, mode: str):
        return lambda i: {f"{name} ({mode})": case_ms(args, envs[i][mode], inside)}

    steps = [step(*case, mode) for case in CASES for mode in MODES]
    for run in steps:  # untimed: fills the caches and the file cache
        for i in range(len(copies)):
            run(i)
    return f"cold starts: {runs} runs each, ms (Python {PYTHON})", steps


def spec(copies: list[tuple[str, str]], runs: int):
    """The spec front end's title and its one step: a child timing every stage."""
    texts = {}  # path from the root -> text
    for d in SPEC_DIRS:
        for fn in sorted(os.listdir(os.path.join(ROOT, d))):
            if fn.endswith(".spec"):
                with open(os.path.join(ROOT, d, fn), encoding="utf-8") as fh:
                    texts[f"{d}/{fn}"] = fh.read()
    index = {path: i for i, path in enumerate(texts)}
    payload = json.dumps([list(texts.values()),
                          [(index[path], events) for path, events in EVENTS], REPS])
    envs = [child_env(src, cache) for src, cache in copies]
    title = (f"spec front end: {runs} rounds of {REPS} passes, µs per call "
             f"({len(texts)} specs, {sum(len(e) for _, e in EVENTS)} events; Python {PYTHON})")
    return title, [lambda i: json.loads(run_child(["-c", SPEC_CHILD], envs[i], payload)[0])]


WORKLOADS = {"cold": cold, "spec": spec}


def summary(times: list[float]) -> tuple[float, float, float]:
    if len(times) < 2:
        return times[0], times[0], 0.0
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return min(times), q2, q3 - q1


def print_table(title: str, times: dict, trees: list[str]) -> None:
    """Min, median and IQR per row and tree; from tree 1 on, ratios to tree 0."""
    width = max(len("row"), *map(len, times))
    print(title)
    print(f"{'row':<{width}} {'tree':<4} {'min':>8} {'median':>8} {'IQR':>7} "
          f"{'min/0':>6} {'med/0':>6}")
    for row, per_tree in times.items():
        lo0, med0, _ = summary(per_tree[0])
        for i, values in enumerate(per_tree):
            lo, med, iqr = summary(values)
            ratios = f" {lo / lo0:6.3f} {med / med0:6.3f}" if i else ""
            print(f"{row:<{width}} {i:<4} {lo:8.1f} {med:8.1f} {iqr:7.1f}{ratios}")
    for i, tree in enumerate(trees):
        print(f"tree {i}: {tree}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("trees", nargs="*", default=[os.path.join(ROOT, "src")],
                        help="src/ directories holding a treemeasure package")
    parser.add_argument("--runs", type=int, default=15, help="timed rounds per row and tree")
    args = parser.parse_intermixed_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for tree in args.trees:
        if not os.path.isfile(os.path.join(tree, "treemeasure", "__init__.py")):
            parser.error(f"no treemeasure package under {tree}")

    with tempfile.TemporaryDirectory(prefix="alternate-") as tmp:
        copies = [(os.path.join(tmp, f"src{i}"), os.path.join(tmp, f"cache{i}"))
                  for i in range(len(args.trees))]
        for tree, (src, _) in zip(args.trees, copies):
            shutil.copytree(tree, src, ignore=shutil.ignore_patterns("__pycache__"))
        title, steps = WORKLOADS[args.workload](copies, args.runs)
        times: dict = {}  # row -> per tree, its times in round order
        for r in range(args.runs):
            order = list(range(len(copies)))[::1 if r % 2 == 0 else -1]
            for step in steps:
                for i in order:
                    for row, value in step(i).items():
                        times.setdefault(row, [[] for _ in copies])[i].append(value)
    print_table(title, times, args.trees)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
