"""Self-test of the benchmark harness: tiny runs, output schema, failure
accounting.  No timing gates.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import treemeasure as tm  # noqa: E402
import treemeasure.cli  # noqa: E402,F401

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# seconds giving a dozen or so ops per workload
TINY = {"deep_sparse": 0.1, "shallow_union": 0.3, "cli_specs": 0.25}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_REPS", 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct(name, tmp_path):
    result = run.run_benchmark(tm, name, 7, TINY[name], trace=False, work_dir=str(tmp_path))
    assert result["ops"] >= 10
    assert result["failures"] == {"escape": 0, "exit": 0, "wrong": 0}
    for metric, _ in run.END_TO_END:
        assert result[metric] > 0
    assert result["samples"] == result["ops"]
    assert result["properties"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_injected_wrong_value_counts_as_failure(name, tmp_path):
    result = run.run_benchmark(tm, name, 7, TINY[name], trace=False, work_dir=str(tmp_path),
                               corrupt_first=True)
    assert result["failures"]["wrong"] == 1
    assert sum(result["failures"].values()) == 1


def test_traced_run_reports_every_layer(tmp_path):
    result = run.run_benchmark(tm, "cli_specs", 7, 0.3, trace=True, work_dir=str(tmp_path))
    assert set(result["layers"]) == {name for name, _ in run.PER_LAYER}
    acc = result["accounting"]
    assert abs(sum(acc["self_ms"].values()) - acc["traced_wall_ms"]) < 0.05 * acc["traced_wall_ms"]
    with open(result["trace_file"], encoding="utf-8") as fh:
        spans = json.load(fh)
    assert spans["spans"] and spans["entry_hits"]["cli.main"] > 0
    # the wrappers are gone once the run ends
    assert not hasattr(tm.cli.main, "__wrapped__")
    assert not hasattr(tm.ExtensionHandle.mu, "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_schema(trace, capsys):
    code = run.main(["--workload", "deep_sparse", "--seed", "3", "--seconds",
                     "0.15" if trace else "0.05", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {name: unit for name, unit in wanted if name not in run.REPORT_ONLY} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    for line in (f"{name} " for name, _ in wanted):
        assert any(out.startswith(line) for out in lines)


def test_incomplete_tree_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli_specs", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
