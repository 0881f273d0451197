"""Time the spec front end per call: parse, build, load and event compiling.

Four stages, each timed per call in µs:

* `parse_document` over the text of every spec in `samples/` and
  `tests/data/`;
* `build_document` over those documents, parsed once beforehand;
* `load_spec` (parse and build) over the same texts;
* `compile_event` over the event shapes that the cli_specs workload feeds
  the CLI (single sites, rectangles, `notin` sets and ranges), against a
  finite chain and a chain over the naturals.

A round is one fresh interpreter per tree that, after one untimed pass,
makes REPS timed passes over each stage's inputs.  Give one or more
`src/` trees (default: this checkout's).  Each is copied, without its
`__pycache__`, into a temporary directory with its own bytecode cache, and
the trees take turns round by round, swapping order each round, so drift on
the machine falls on all of them alike.  The script prints the min, median
and IQR over the rounds for each stage and tree, and for a second tree on,
the ratio of its min and median to the first tree's.  It writes nothing
outside its temporary directory.

    python tools/specload.py --runs 15
    python tools/specload.py --runs 15 ../parent/src src
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_DIRS = ("samples", os.path.join("tests", "data"))

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
STAGES = ("parse_document", "build_document", "load_spec", "compile_event")
REPS = 40

# the child: one round of `reps` timed passes per stage, printed as JSON
CHILD = r"""
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


def spec_texts() -> list[tuple[str, str]]:
    out = []
    for d in SPEC_DIRS:
        for fn in sorted(os.listdir(os.path.join(ROOT, d))):
            if fn.endswith(".spec"):
                with open(os.path.join(ROOT, d, fn), encoding="utf-8") as fh:
                    out.append((os.path.join(d, fn).replace(os.sep, "/"), fh.read()))
    return out


def run_round(env: dict, payload: str) -> dict:
    """One child's per-call µs by stage.  A failed child ends the script."""
    proc = subprocess.run([sys.executable, "-c", CHILD], input=payload, cwd=ROOT,
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"specload child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def summary(times: list[float]) -> tuple[float, float, float]:
    if len(times) < 2:
        return times[0], times[0], 0.0
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return min(times), q2, q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", default=[os.path.join(ROOT, "src")],
                        help="src/ directories holding a treemeasure package")
    parser.add_argument("--runs", type=int, default=15, help="rounds per tree")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for tree in args.trees:
        if not os.path.isfile(os.path.join(tree, "treemeasure", "__init__.py")):
            parser.error(f"no treemeasure package under {tree}")

    specs = spec_texts()
    index = {path: i for i, (path, _) in enumerate(specs)}
    payload = json.dumps([[text for _, text in specs],
                          [(index[path], events) for path, events in EVENTS], REPS])
    with tempfile.TemporaryDirectory(prefix="specload-") as tmp:
        envs = []
        for i, tree in enumerate(args.trees):
            src = os.path.join(tmp, f"src{i}")
            shutil.copytree(tree, src, ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
            env.update(PYTHONPATH=src, PYTHONPYCACHEPREFIX=os.path.join(tmp, f"cache{i}"))
            envs.append(env)
        times: dict = {}
        for r in range(args.runs):
            order = list(enumerate(envs)) if r % 2 == 0 else list(enumerate(envs))[::-1]
            for i, env in order:
                for stage, us in run_round(env, payload).items():
                    times.setdefault((stage, i), []).append(us)

    print(f"spec front end: {args.runs} rounds of {REPS} passes, µs per call "
          f"({len(specs)} specs, {sum(len(e) for _, e in EVENTS)} events; "
          f"Python {sys.version.split()[0]})")
    print(f"{'stage':<16} {'tree':<4} {'min':>8} {'median':>8} {'IQR':>7} "
          f"{'min/0':>6} {'med/0':>6}")
    for stage in STAGES:
        lo0, med0, _ = summary(times[stage, 0])
        for i in range(len(args.trees)):
            lo, med, iqr = summary(times[stage, i])
            ratios = f" {lo / lo0:6.3f} {med / med0:6.3f}" if i else ""
            print(f"{stage:<16} {i:<4} {lo:8.1f} {med:8.1f} {iqr:7.1f}{ratios}")
    for i, tree in enumerate(args.trees):
        print(f"tree {i}: {tree}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
