"""Time cold starts of the library and its CLI, one child process at a time.

Each case runs in a fresh interpreter: bare `python -c pass`, `import
treemeasure`, `import treemeasure.cli`, and the README's seven CLI examples
as `python -m treemeasure.cli ...` from the repository root.  A case's time
is the child's wall time, except for the two imports, which the child times
itself around the import statement: the interpreter's start-up, about as long
and as noisy, stays out of them.  Every case runs in two modes:

* no cache: PYTHONDONTWRITEBYTECODE=1 and no bytecode for the library, so
  each run compiles `src/` from source;
* cache: a bytecode cache in a temporary PYTHONPYCACHEPREFIX, written by one
  untimed run before the timed ones.

Give one or more `src/` trees (default: this checkout's).  Each is copied,
without its `__pycache__`, into a temporary directory, and the trees take
turns run by run, so drift on the machine falls on all of them alike.  The
script prints the min, median and IQR of each case in ms, and writes nothing
outside its temporary directory.

    python tools/coldstart.py --runs 15
    python tools/coldstart.py --runs 15 ../parent/src src
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def child_env(src: str, cache: str | None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = src
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = cache
    return env


def run_once(args: list[str], env: dict, timed_inside: bool) -> float:
    """One child process's time in ms: its wall time, or the time it prints
    when `timed_inside`.  A failed child ends the script."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    elapsed = (time.perf_counter() - t0) * 1e3
    if proc.returncode:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout) if timed_inside else elapsed


def summary(times: list[float]) -> tuple[float, float, float]:
    if len(times) < 2:
        return times[0], times[0], 0.0
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return min(times), q2, q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", default=[os.path.join(ROOT, "src")],
                        help="src/ directories holding a treemeasure package")
    parser.add_argument("--runs", type=int, default=15, help="timed runs per case, mode and tree")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for tree in args.trees:
        if not os.path.isfile(os.path.join(tree, "treemeasure", "__init__.py")):
            parser.error(f"no treemeasure package under {tree}")

    with tempfile.TemporaryDirectory(prefix="coldstart-") as tmp:
        envs = []  # per tree: {mode: env}
        for i, tree in enumerate(args.trees):
            src = os.path.join(tmp, f"src{i}")
            shutil.copytree(tree, src, ignore=shutil.ignore_patterns("__pycache__"))
            envs.append({"no cache": child_env(src, None),
                         "cache": child_env(src, os.path.join(tmp, f"cache{i}"))})
        times = {}
        for _, case_args, inside in CASES:  # fills the caches and the file cache
            for env in envs:
                for mode in MODES:
                    run_once(case_args, env[mode], inside)
        for r in range(args.runs):
            # the trees swap order every round
            order = list(enumerate(envs)) if r % 2 == 0 else list(enumerate(envs))[::-1]
            for name, case_args, inside in CASES:
                for mode in MODES:
                    for i, env in order:
                        times.setdefault((name, mode, i), []).append(
                            run_once(case_args, env[mode], inside))

    print(f"cold starts: {args.runs} runs each, ms (Python {sys.version.split()[0]})")
    print(f"{'case':<26} {'mode':<9} {'tree':<4} {'min':>8} {'median':>8} {'IQR':>7}")
    for name, _, _ in CASES:
        for mode in MODES:
            for i in range(len(args.trees)):
                lo, med, iqr = summary(times[name, mode, i])
                print(f"{name:<26} {mode:<9} {i:<4} {lo:8.1f} {med:8.1f} {iqr:7.1f}")
    for i, tree in enumerate(args.trees):
        print(f"tree {i}: {tree}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
