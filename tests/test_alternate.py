"""`tools/alternate.py` on this checkout: one round of the spec workload."""

import importlib.util
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def test_spec_workload_prints_one_row_per_stage(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "alternate", os.path.join(ROOT, "tools", "alternate.py"))
    alternate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(alternate)
    children = []
    run = subprocess.run

    def counted(*args, **kwargs):
        children.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    # the tree comes after the option: the arguments parse intermixed
    assert alternate.main(["spec", "--runs", "1", SRC]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(children) == 1
    assert [line.split()[:2] for line in lines[2:-1]] == [
        [stage, "0"] for stage in ("parse_document", "build_document", "load_spec",
                                   "compile_event")
    ]
    assert lines[-1] == f"tree 0: {SRC}"
