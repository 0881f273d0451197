import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from treemeasure import compile_event, load_spec
from treemeasure.cli import build_parser, entrypoint, main
from treemeasure.measure import render_value
from treemeasure.sigma_finite import Cover, CoverReport
from treemeasure.tree import TreeGeometry

F = Fraction

DATA = os.path.join(os.path.dirname(__file__), "data")
CHAIN = os.path.join(DATA, "chain_k2_prob.spec")
NAT = os.path.join(DATA, "nat_counting.spec")
SUBPROB = os.path.join(DATA, "chain_k3_finite.spec")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def test_validate(capsys):
    code, payload, err = run_cli(capsys, "validate", "--spec", CHAIN)
    assert code == 0
    assert payload["ok"] is True
    assert payload["order"] == 2
    assert payload["spins"] == "finite(2)"
    assert payload["family_class"] == "probability"
    assert payload["covers"] == ["halves"]
    assert "ok:" in err


# validate --json for every spec in samples/ and tests/data/: order,
# max_depth, spins, family_kind, family_class and covers; for a chain, also
# whether its kernel is stochastic
VALIDATED = {
    "chain_k2.spec": (2, 8, "finite(2)", "markov-prob", "probability", [], True),
    "counting_nat.spec": (2, 8, "nat", "markov", "sigma-finite", ["pairs", "root"], True),
    "chain_k1_prob.spec": (1, 8, "finite(2)", "markov-prob", "probability", [], True),
    "chain_k2_maxdepth3.spec": (2, 3, "finite(2)", "markov-prob", "probability", [], True),
    "chain_k2_prob.spec": (2, 8, "finite(2)", "markov-prob", "probability", ["halves"], True),
    "chain_k2_s3_prob.spec": (2, 6, "finite(3)", "markov-prob", "probability", [], True),
    "chain_k3_finite.spec": (3, 5, "finite(2)", "markov", "finite", [], False),
    "finite_list_cover.spec": (2, 4, "finite(2)", "markov-prob", "probability", ["atoms"],
                               True),
    "nat_block_cover.spec": (2, 16, "nat", "markov", "sigma-finite", ["small", "triples"],
                             True),
    "nat_counting.spec": (2, 8, "nat", "markov", "sigma-finite", ["pairs", "roots"], True),
    "nat_explicit_rows.spec": (2, 6, "nat", "markov", "sigma-finite", [], True),
    "nat_geometric_mass.spec": (2, 16, "nat", "markov", "probability", [], True),
    "nat_plain_prefix_list.spec": (2, 16, "nat", "markov", "finite", [], True),
    "nat_prefix_lambda.spec": (2, 16, "nat", "markov", "finite", [], True),
    "product_k1_s3.spec": (1, 10, "finite(3)", "product", "probability", [], None),
    "product_nat.spec": (2, 16, "nat", "product", "probability", [], None),
    "product_overrides_k2.spec": (2, 7, "finite(2)", "product", "probability", [], None),
    "product_uniform_k2.spec": (2, 16, "finite(2)", "product", "probability", [], None),
    "table_depth0_k2.spec": (2, 16, "finite(3)", "table", "probability", [], None),
    "table_depth1_k1.spec": (1, 3, "finite(2)", "table", "probability", [], None),
    "table_k2_s2_full16.spec": (2, 16, "finite(2)", "table", "finite", [], None),
    "table_partial_k2.spec": (2, 16, "finite(2)", "table", "probability", [], None),
}


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validate_every_repo_spec(capsys, name):
    path = os.path.join(DATA if os.path.exists(os.path.join(DATA, name)) else SAMPLES, name)
    code, payload, err = run_cli(capsys, "validate", "--spec", path, "--json")
    assert (code, err) == (0, "")
    order, max_depth, spins, kind, family_class, covers, stochastic = VALIDATED[name]
    assert payload == {
        "command": "validate", "ok": True, "order": order, "max_depth": max_depth,
        "spins": spins, "family_kind": kind, "family_class": family_class, "covers": covers,
    }
    if stochastic is not None:
        with open(path) as fh:
            kernel = load_spec(fh.read()).family.measure(0).form.kernel
        assert kernel.is_stochastic() is stochastic


def test_validated_table_lists_every_repo_spec():
    assert sorted(VALIDATED) == sorted(os.path.basename(p) for p in SPEC_FILES)


@pytest.mark.parametrize("event, word, value", [
    ("x0 in {0,1}", "omega", "1"), ("x0 in {}", "empty", "0"),
])
def test_omega_and_empty_round_trip_through_eval(capsys, event, word, value):
    # the CLI prints the whole space and the empty set as words, and reads
    # them back as events
    spec = os.path.join(SAMPLES, "chain_k2.spec")
    code, payload, _ = run_cli(capsys, "eval", "--spec", spec, "--event", event, "--json")
    assert (code, payload["event"], payload["value"]) == (0, word, value)
    code, payload, _ = run_cli(capsys, "eval", "--spec", spec, "--event", word, "--json")
    assert (code, payload["event"], payload["value"]) == (0, word, value)


def test_json_flag_suppresses_summary(capsys):
    code, payload, err = run_cli(capsys, "validate", "--spec", CHAIN, "--json")
    assert code == 0
    assert payload["ok"] is True
    assert err == ""


def test_eval_values(capsys):
    code, payload, _ = run_cli(capsys, "eval", "--spec", CHAIN, "--event", "x0=0")
    assert code == 0
    assert payload["value"] == "1/2"
    code, payload, _ = run_cli(
        capsys, "eval", "--spec", CHAIN, "--event", "x0=0 & x1=0", "--depth", "2"
    )
    assert code == 0
    assert payload["value"] == "1/3"
    assert payload["depth"] == 2
    code, payload, _ = run_cli(
        capsys, "eval", "--spec", NAT, "--event", "x0=5", "--json"
    )
    assert payload["value"] == "1"
    code, payload, _ = run_cli(capsys, "eval", "--spec", NAT, "--event", "x1=0")
    assert payload["value"] == "inf"


def test_eval_usage_errors(capsys):
    code, payload, err = run_cli(
        capsys, "eval", "--spec", CHAIN, "--event", "x0 == 1"
    )
    assert code == 2
    assert payload is None
    assert "spec error" in err
    code, _, err = run_cli(
        capsys, "eval", "--spec", CHAIN, "--event", "x1=0", "--depth", "0"
    )
    assert code == 2
    assert "below" in err
    code, _, err = run_cli(
        capsys, "eval", "--spec", os.path.join(DATA, "missing.spec"),
        "--event", "x0=0",
    )
    assert code == 2
    assert "cannot read spec" in err


def test_consistency_ok_and_violation(capsys):
    code, payload, _ = run_cli(capsys, "consistency", "--spec", CHAIN, "--depth", "2")
    assert code == 0
    assert payload["ok"] is True
    assert payload["method"] == "enumeration"
    assert payload["violation"] is None

    code, payload, err = run_cli(
        capsys, "consistency", "--spec", SUBPROB, "--depth", "1"
    )
    assert code == 1
    assert payload["ok"] is False
    v = payload["violation"]
    assert (v["i"], v["j"]) == (0, 1)
    assert "violation" in err

    code, payload, _ = run_cli(capsys, "consistency", "--spec", NAT, "--depth", "3")
    assert code == 0
    assert payload["method"] == "closed-row"


@pytest.mark.parametrize("argv", [
    ("consistency", "--spec", CHAIN, "--depth", "-3"),
    ("probe-empty", "--spec", CHAIN, "--maxdepth", "-2"),
], ids=["consistency", "probe-empty"])
def test_negative_depth_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be non-negative" in captured.err


def test_consistency_depth_2_enumerates_exhaustively(capsys):
    code, payload, err = run_cli(
        capsys, "consistency", "--spec", os.path.join(DATA, "chain_k2_s3_prob.spec"),
        "--depth", "2", "--json",
    )
    assert code == 0
    assert payload == {
        "budget_limited": False, "command": "consistency", "exhaustive": True,
        "method": "enumeration", "ok": True, "requested_depth": 2,
        "verified_depth": 2, "violation": None,
    }
    assert err == ""


def test_consistency_budget_limited_exits_inconclusive(capsys):
    # 3**10 atoms at depth 2 fit the default atom budget, 3**22 at depth 3 do not
    code, payload, err = run_cli(
        capsys, "consistency", "--spec", os.path.join(DATA, "chain_k2_s3_prob.spec"),
        "--depth", "3",
    )
    assert code == 3
    assert payload == {
        "budget_limited": True, "command": "consistency", "exhaustive": True,
        "method": "enumeration", "ok": True, "requested_depth": 3,
        "verified_depth": 2, "violation": None,
    }
    assert "inconclusive" in err


def test_probe_empty_default_chain(capsys):
    code, payload, _ = run_cli(
        capsys, "probe-empty", "--spec", CHAIN, "--maxdepth", "2"
    )
    assert code == 0
    assert payload["verdict"] == "decayed"
    assert payload["values"][0] == "1/2"
    assert len(payload["values"]) == 3


def test_probe_empty_event_chain(capsys):
    code, payload, _ = run_cli(
        capsys, "probe-empty", "--spec", CHAIN,
        "--event", "x0=0", "--event", "x1=0", "--event", "x0=1",
    )
    assert code == 0
    # the running intersection hits the contradictory constraint: certified empty
    assert payload["verdict"] == "empty-certified"
    assert payload["values"][-1] == "0"


def test_probe_empty_rejects_inconsistent_family(capsys):
    code, payload, err = run_cli(capsys, "probe-empty", "--spec", SUBPROB)
    assert code == 1
    assert payload is None
    assert "violation" in err


def test_sigma_eval_exact(capsys):
    code, payload, _ = run_cli(
        capsys, "sigma-eval", "--spec", NAT, "--cover", "roots", "--event", "x0=3"
    )
    assert code == 0
    assert payload["kind"] == "exact"
    assert payload["total"] == "1"
    assert payload["terms_used"] == 4


def test_sigma_eval_diverges(capsys):
    code, payload, _ = run_cli(
        capsys, "sigma-eval", "--spec", NAT, "--cover", "roots", "--event", "x1=0"
    )
    assert code == 0
    assert payload["kind"] == "diverges"
    assert payload["rendered"] == "DivergesBeyond(1000)"
    assert payload["terms_used"] == 2001


def test_sigma_eval_inconclusive_exit(capsys):
    code, payload, _ = run_cli(
        capsys, "sigma-eval", "--spec", NAT, "--cover", "roots",
        "--event", "x1=0", "--term-budget", "5",
    )
    assert code == 3
    assert payload["kind"] == "inconclusive"
    assert payload["total"] == "5/2"


def test_sigma_eval_unknown_cover(capsys):
    code, _, err = run_cli(
        capsys, "sigma-eval", "--spec", NAT, "--cover", "nope", "--event", "x0=0"
    )
    assert code == 2
    assert "unknown cover" in err
    assert "roots" in err


def test_covers_compare_agree(capsys):
    code, payload, _ = run_cli(
        capsys, "covers-compare", "--spec", NAT,
        "--cover", "roots", "--cover", "pairs", "--seed", "5",
    )
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["records"]) == 8
    for rec in payload["records"]:
        assert rec["agree"] is True
        assert rec["first"]["total"] == rec["second"]["total"]


def test_covers_compare_requires_two(capsys):
    code, _, err = run_cli(
        capsys, "covers-compare", "--spec", NAT, "--cover", "roots"
    )
    assert code == 2
    assert "exactly twice" in err


def test_covers_compare_explicit_events(capsys):
    code, payload, _ = run_cli(
        capsys, "covers-compare", "--spec", NAT,
        "--cover", "roots", "--cover", "pairs",
        "--event", "x0 in {0..3}", "--event", "x0=1 & x1=0",
    )
    assert code == 0
    assert [r["event"] for r in payload["records"]] == [
        "x0 in {0,1,2,3}", "x0=1 & x1=0"
    ]


DIVERGING_SPEC = """[tree]
k = 2
[spins]
kind = nat
[family]
kind = markov
lambda = geometric 2000 1/2
P = geometric 1/2 1/2
[covers]
root = slice x0
split = list "x0=0" ; "x0 notin {0}"
head = list "x0=0"
"""


def test_covers_compare_diverging_against_finite(capsys, tmp_path, monkeypatch):
    spec = tmp_path / "diverging.spec"
    spec.write_text(DIVERGING_SPEC)
    # x1=0 has value 2000; the root slices pass the bound 1000 at 1500
    code, payload, err = run_cli(capsys, "covers-compare", "--spec", str(spec),
                                 "--cover", "split", "--cover", "root", "--event", "x1=0")
    assert code == 3
    assert payload["ok"] is True
    rec = payload["records"][0]
    assert (rec["first"]["total"], rec["second"]["kind"], rec["agree"]) == (
        "2000", "diverges", None)
    code, payload, _ = run_cli(capsys, "cover-sum", "--spec", str(spec),
                               "--cover", "root", "--event", "x1=0")
    assert (code, payload["verdict"]) == (3, "INCONCLUSIVE")
    # `head` misses most of the space; let it past verification to get a
    # finite value (1000) below the diverging total
    monkeypatch.setattr(Cover, "verify", lambda self: CoverReport(True, True, "semantic"))
    code, payload, err = run_cli(capsys, "covers-compare", "--spec", str(spec),
                                 "--cover", "head", "--cover", "root", "--event", "x1=0")
    assert code == 1
    assert payload["ok"] is False
    assert (payload["records"][0]["first"]["total"], payload["records"][0]["agree"]) == (
        "1000", False)
    assert "MISMATCH" in err


def test_covers_compare_inconclusive_above_exact(capsys, tmp_path):
    spec = tmp_path / "inconsistent_product.spec"
    spec.write_text(
        "[tree]\nk = 2\n[spins]\nkind = nat\n[family]\nkind = product\n"
        "w = geometric 1/2 1/2\nw@4 = geometric 1/4 1/2\n[covers]\n"
        'root = slice x0\ndeep = list "x4=0" ; "x4 notin {0}"\n'
    )
    # exact 1/4 against an inconclusive lower bound of 3/8: a certified mismatch
    code, payload, err = run_cli(
        capsys, "covers-compare", "--spec", str(spec), "--cover", "deep", "--cover", "root",
        "--event", "x0 notin {0}", "--term-budget", "3",
    )
    assert code == 1
    rec = payload["records"][0]
    assert (rec["first"]["rendered"], rec["second"]["rendered"], rec["agree"]) == (
        "1/4", "Inconclusive(lower=3/8, terms=3)", False)
    assert payload["ok"] is False
    assert "MISMATCH: 0/1" in err


# products the depth-1 screen lets through that are inconsistent at depth 2,
# where site 4 (A) or site 5 (B) weighs infinitely much
SLICED_AT_DEPTH_2_SPECS = {
    "A": "w@4 = const 2",
    "B": "w@5 = const 1",
}


@pytest.mark.parametrize("name", sorted(SLICED_AT_DEPTH_2_SPECS))
def test_slice_sums_off_an_inconsistent_depth_stay_sound(capsys, tmp_path, name):
    spec = tmp_path / f"{name}.spec"
    spec.write_text(
        "[tree]\nk = 2\n[spins]\nkind = nat\n[family]\nkind = product\n"
        f"w = geometric 1/2 1/2\n{SLICED_AT_DEPTH_2_SPECS[name]}\n[covers]\ns4 = slice x4\n"
    )
    # every slice term is valued at depth 2, and so is the uncovered mass:
    # mu_2 gives x1=0 an infinite value, which the sum on A passes the
    # divergence bound towards and the sum on B reads at its first term
    code, payload, _ = run_cli(capsys, "sigma-eval", "--spec", str(spec), "--cover", "s4",
                               "--event", "x1=0", "--json")
    assert code == 0
    if name == "A":
        assert payload["kind"] == "diverges"
    else:
        assert (payload["kind"], payload["total"]) == ("exact", "inf")
    code, payload, _ = run_cli(capsys, "cover-sum", "--spec", str(spec), "--cover", "s4",
                               "--seed", "3", "--json")
    assert code == 1
    assert all(r["summed"]["tail_bound"] is None or not r["summed"]["tail_bound"].startswith("-")
               for r in payload["records"])
    code, payload, _ = run_cli(capsys, "consistency", "--spec", str(spec), "--depth", "2",
                               "--json")
    assert (code, payload["violation"]["witness"]) == (1, "x0=0")
    code, payload, _ = run_cli(capsys, "eval", "--spec", str(spec), "--event", "x1=0",
                               "--depth", "2", "--json")
    assert (code, payload["value"]) == (0, "inf")


def test_consecutive_calls_share_no_parser_state(capsys):
    assert build_parser() is build_parser()
    args = ("covers-compare", "--spec", NAT, "--cover", "roots", "--cover", "pairs")
    code, payload, _ = run_cli(capsys, *args, "--event", "x0=1")
    assert (code, len(payload["records"])) == (0, 1)
    code, payload, _ = run_cli(capsys, *args, "--seed", "5")
    assert (code, len(payload["records"])) == (0, 8)
    with pytest.raises(SystemExit) as exc:
        main(["covers-compare", "--spec", NAT, "--cover"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cover_sum_pass(capsys):
    code, payload, _ = run_cli(
        capsys, "cover-sum", "--spec", NAT, "--cover", "roots", "--seed", "11"
    )
    assert code == 0
    assert payload["verdict"] == "PASS"
    assert all(r["verdict"] == "PASS" for r in payload["records"])


def test_cover_sum_inconclusive(capsys):
    code, payload, _ = run_cli(
        capsys, "cover-sum", "--spec", NAT, "--cover", "roots",
        "--event", "x1=0", "--term-budget", "5",
    )
    assert code == 3
    assert payload["verdict"] == "INCONCLUSIVE"


def test_cover_sum_finite_cover(capsys):
    code, payload, _ = run_cli(
        capsys, "cover-sum", "--spec", CHAIN, "--cover", "halves", "--seed", "2"
    )
    assert code == 0
    assert payload["verdict"] == "PASS"


# k = 1 with root weights (1, 0): the root is spin 0, whose row sums to 1, so
# the depth-1 screen passes; spin 1's row sums to 1/2, which breaks the family
# from depth 2 on, where the cover's events live
DEEP_FAIL = """\
[tree]
k = 1

[spins]
kind = finite
size = 2

[family]
kind = markov
lambda = 1 0
P = 1/2 1/2 ; 0 1/2

[covers]
deep = list "x3=0" ; "x3=1"
"""


def test_cover_sum_fail_exits_violation(capsys, tmp_path):
    spec = tmp_path / "deep_fail.spec"
    spec.write_text(DEEP_FAIL)
    code, payload, err = run_cli(
        capsys, "cover-sum", "--spec", str(spec), "--cover", "deep", "--event", "x0=0"
    )
    assert (code, payload["verdict"]) == (1, "FAIL")
    [record] = payload["records"]
    assert (record["direct"], record["summed"]["total"]) == ("1", "9/16")
    assert err == "FAIL: 1 events against deep\n"


def test_stdout_is_deterministic(capsys):
    args = (
        "covers-compare", "--spec", NAT, "--cover", "roots", "--cover", "pairs",
        "--seed", "9", "--json",
    )
    code1 = main(list(args))
    out1 = capsys.readouterr().out
    code2 = main(list(args))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    # keys are emitted sorted so the byte stream is reproducible
    payload = json.loads(out1)
    assert list(payload) == sorted(payload)


def test_bad_rational_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sigma-eval", "--spec", NAT, "--cover", "roots",
              "--event", "x0=0", "--tolerance", "huge"])
    assert exc.value.code == 2
    capsys.readouterr()
    # decimal flag text is still an exact rational, so it is accepted
    code = main(["sigma-eval", "--spec", NAT, "--cover", "roots",
                 "--event", "x0=0", "--tolerance", "0.5", "--json"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag, text", [("--tolerance", "1e20000000"), ("--bound", "1e-9999")])
def test_rational_flag_exponent_past_digit_limit(capsys, flag, text):
    # Fraction(text) alone would build 10 ** exponent, 20 million digits for the first
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["sigma-eval", "--spec", NAT, "--cover", "roots", "--event", "x0=0", flag, text])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exponent past the limit of {sys.get_int_max_str_digits()}" in captured.err


def test_depth_flag_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["consistency", "--spec", CHAIN, "--depth", "x"])
    assert exc.value.code == 2
    assert "not an integer: 'x'" in capsys.readouterr().err


def test_eval_empty_notin_is_omega(capsys):
    # over the naturals `notin {}` allows every spin: the event is omega
    spec = os.path.join(os.path.dirname(os.path.dirname(DATA)), "samples", "counting_nat.spec")
    code, payload, err = run_cli(capsys, "eval", "--spec", spec, "--event", "x0 notin {}",
                                 "--json")
    assert code == 0
    assert (payload["event"], payload["value"]) == ("omega", "inf")
    assert err == ""


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "treemeasure.cli",
         "validate", "--spec", CHAIN, "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "validate"
    assert proc.stderr == ""


SAMPLES = os.path.join(os.path.dirname(os.path.dirname(DATA)), "samples")

# a fresh interpreter: the spec language loads at the first command's spec,
# the sigma-finite layer only for a spec with [covers]
LAZY_PROBE = """
import contextlib, io, json, sys
import treemeasure, treemeasure.cli

def loaded():
    return [m for m in ("specdsl", "sigma_finite") if "treemeasure." + m in sys.modules]

seen = [loaded()]
for argv in (["eval", "--spec", sys.argv[1], "--event", "x0=0 & x1=0", "--depth", "2"],
             ["validate", "--spec", sys.argv[2]]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert treemeasure.cli.main(argv) == 0
    seen.append(loaded())
print(json.dumps(seen))
"""


def test_the_cli_loads_the_spec_language_and_the_cover_layer_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, os.path.join(SAMPLES, "chain_k2.spec"),
         os.path.join(SAMPLES, "counting_nat.spec")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], ["specdsl"], ["specdsl", "sigma_finite"]]


@pytest.mark.parametrize("event", ["x0 in {0..3}", "x1=0"])
def test_sigma_flags_default_to_the_library_constants(capsys, event):
    # x1=0 sums past the divergence bound of 1000
    argv = ["sigma-eval", "--spec", os.path.join(SAMPLES, "counting_nat.spec"),
            "--cover", "root", "--event", event, "--json"]
    code = main(argv)
    bare = capsys.readouterr()
    assert main(argv + ["--tolerance", "1/1099511627776", "--term-budget", "1000000",
                        "--bound", "1000"]) == code
    assert capsys.readouterr() == bare
    assert bare.err == ""


# Deep sites on a k=1 path: evaluation walks the constrained path once, with
# constant-time index arithmetic and no recursion, so a site thousands of
# levels out is valued exactly in well under a second.  (Per-site ancestor
# tables and recursive evaluators once made x999 raise RecursionError and
# x4999 run for minutes.)

PATH_HEADER = "[tree]\nk = 1\nmax_depth = 5000\n\n"
DEEP_SPECS = {
    "finite_stochastic": (
        "[spins]\nkind = finite\nsize = 2\n\n[family]\nkind = markov-prob\n"
        "lambda = 1/3 2/3\nP = 3/4 1/4 ; 1/4 3/4\n",
        ([F(1, 3), F(2, 3)], [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]),
    ),
    "finite_substochastic": (
        "[spins]\nkind = finite\nsize = 2\n\n[family]\nkind = markov\n"
        "lambda = 1/2 1/2\nP = 1/3 1/6 ; 1/4 1/4\n",
        ([F(1, 2), F(1, 2)], [[F(1, 3), F(1, 6)], [F(1, 4), F(1, 4)]]),
    ),
    "naturals": (
        "[spins]\nkind = nat\n\n[family]\nkind = markov\n"
        "lambda = geometric 1/2 1/2\nP = geometric 1/2 1/2\nP@0 = geometric 2/3 1/3\n",
        None,
    ),
}


def path_value_finite(lam, P, level):
    """x = 0 at a vertex `level` steps out on one side of the root; the other
    side is a free branch of the same length."""
    s = len(lam)
    pinned = [F(int(r == 0)) for r in range(s)]
    free = [F(1)] * s
    for _ in range(level):
        pinned = [sum(P[q][r] * pinned[r] for r in range(s)) for q in range(s)]
        free = [sum(P[q][r] * free[r] for r in range(s)) for q in range(s)]
    return sum(lam[q] * pinned[q] * free[q] for q in range(s))


def path_value_naturals(level):
    """The spec's stochastic kernel sends spin 0 to 0 with weight 2/3 and
    every other spin to 0 with weight 1/2: P(x = 0) obeys a scalar recursion."""
    p = F(1, 2)
    for _ in range(level):
        p = p * F(2, 3) + (1 - p) * F(1, 2)
    return p


@pytest.mark.parametrize("name", sorted(DEEP_SPECS))
@pytest.mark.parametrize("site", [999, 4999])
def test_eval_deep_path_site(capsys, tmp_path, name, site):
    body, chain = DEEP_SPECS[name]
    spec = tmp_path / f"{name}.spec"
    spec.write_text(PATH_HEADER + body)
    level = (site + 1) // 2
    start = time.perf_counter()
    code, payload, _ = run_cli(capsys, "eval", "--spec", str(spec),
                               "--event", f"x{site}=0", "--json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert payload["depth"] == level
    expected = path_value_naturals(level) if chain is None else path_value_finite(*chain, level)
    assert Fraction(payload["value"]) == expected
    # generous: the evaluation itself takes well under a second
    assert elapsed < 30


@pytest.mark.parametrize("name", sorted(DEEP_SPECS))
def test_deep_path_caches_log_many_kernel_powers(name):
    """The 2,499 pass-through levels between the root and x4999 are one run,
    applied through binary powers of the kernel: the kernel keeps only
    bit_length(2499) = 12 of them, and other depths and shorter runs reuse
    those."""
    built = load_spec(PATH_HEADER + DEEP_SPECS[name][0])
    event = compile_event(built.ctx, "x4999=0")
    kernel = built.family.measure(2500).form.kernel
    built.family.measure(2500).measure_of(event)
    assert len(kernel._powers) == (2499).bit_length() == 12
    built.family.measure(2503).measure_of(event)
    built.family.measure(2000).measure_of(compile_event(built.ctx, "x3999=0"))
    assert len(kernel._powers) == 12


# a non-stochastic chain whose depth-12 values have 31,744-bit denominators
ESCAPE_K2 = (
    "[tree]\nk = 2\nmax_depth = 12\n\n[spins]\nkind = finite\nsize = 2\n\n"
    "[family]\nkind = markov\nlambda = 1 1\nP = 1/2 1/4 ; 1/4 1/2\n"
)


@pytest.mark.parametrize("case", ["nonstochastic_depth12", "geometric_wide_range"])
def test_eval_renders_past_int_digit_limit(capsys, tmp_path, case):
    """Exact values with more digits than the interpreter's default
    int-to-str limit (4,300) print in full, and the limit is restored."""
    if case == "nonstochastic_depth12":
        path = tmp_path / "escape_k2.spec"
        path.write_text(ESCAPE_K2)
        event, extra = "x0=0", ["--depth", "12"]
    else:
        path = os.path.join(DATA, "nat_geometric_mass.spec")
        event, extra = "x0 in {0..15000}", []
    limit = sys.get_int_max_str_digits()
    code, payload, _ = run_cli(capsys, "eval", "--spec", str(path), "--event", event,
                               *extra, "--json")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    assert max(len(part) for part in payload["value"].split("/")) > 4300
    with open(path, encoding="utf-8") as fh:
        built = load_spec(fh.read())
    expected = built.family.measure(payload["depth"]).measure_of(
        compile_event(built.ctx, event)
    )
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(payload["value"]) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_sigma_eval_million_terms_in_closed_form(capsys, tmp_path):
    """Root weights 1/1000 and P(q, 0) = 1/2: every root slice adds 1/2000,
    so the bound 1000 would take 2,000,001 terms and the default budget of
    10**6 ends the sum inconclusive.  The root-slice route reads it off the
    partial sums instead of summing a million terms."""
    samples = os.path.join(os.path.dirname(os.path.dirname(DATA)), "samples")
    with open(os.path.join(samples, "counting_nat.spec")) as fh:
        text = fh.read()
    assert "lambda = const 1\n" in text
    spec = tmp_path / "counting_thousandth.spec"
    spec.write_text(text.replace("lambda = const 1\n", "lambda = const 1/1000\n"))
    start = time.perf_counter()
    code, payload, err = run_cli(capsys, "sigma-eval", "--spec", str(spec), "--cover", "root",
                                 "--event", "x1=0")
    elapsed = time.perf_counter() - start
    terms = 10**6
    # the partial sum over slices 0..n-1 is sum_q lam(q) * P(q, 0) = n / 2000
    lam_q, p_q0 = Fraction(1, 1000), Fraction(1, 2)
    partial = terms * lam_q * p_q0
    assert code == 3
    assert payload["kind"] == "inconclusive"
    assert payload["terms_used"] == terms
    assert Fraction(payload["total"]) == partial == 500
    assert payload["rendered"] == "Inconclusive(lower=500, terms=1000000)"
    assert "Inconclusive(lower=500, terms=1000000)" in err
    # generous: the closed form takes a few milliseconds, the loop ~80 s
    assert elapsed < 10


@pytest.mark.parametrize("command", ["probe-empty", "sigma-eval"])
def test_budget_limited_screen_exits_inconclusive(capsys, tmp_path, command):
    # 2**31 atoms on the depth-1 ball: past the atom budget, so the depth-1
    # screen that builds the handle cannot finish; no CLI flag could accept it
    spec = tmp_path / "wide_k30.spec"
    spec.write_text(
        "[tree]\nk = 30\nmax_depth = 3\n[spins]\nkind = finite\nsize = 2\n"
        "[family]\nkind = markov\nlambda = 1 1\nP = 1/2 1/4 ; 1/4 1/2\n"
        '[covers]\nhalves = list "x0=0" ; "x0=1"\n'
    )
    extra = ["--cover", "halves", "--event", "x0=0"] if command == "sigma-eval" else []
    code, payload, err = run_cli(capsys, command, "--spec", str(spec), *extra)
    assert (code, payload) == (3, None)
    assert err == ("budget exceeded: the depth-1 consistency screen is inconclusive "
                   "within the atom budget 16777216\n")


HUGE_FAMILIES = {
    "finite": "[spins]\nkind = finite\nsize = 2\n"
              "[family]\nkind = markov-prob\nlambda = 1/2 1/2\nP = 2/3 1/3 ; 1/3 2/3\n",
    "nat": "[spins]\nkind = nat\n"
           "[family]\nkind = markov\nlambda = const 1\nP = geometric 1/2 1/2\n",
}


@pytest.mark.parametrize("spins, argv", [
    ("finite", ["consistency", "--depth", "1"]),
    ("finite", ["probe-empty"]),
    ("nat", ["probe-empty"]),
], ids=["consistency-finite", "probe-empty-finite", "probe-empty-nat"])
def test_huge_tree_order_exits_inconclusive(capsys, tmp_path, spins, argv):
    # the depth-1 ball has 10**20 + 1 sites: 2**(10**20 + 1) atoms to
    # enumerate, and a default chain that pins every site of it
    spec = tmp_path / "huge.spec"
    spec.write_text("[tree]\nk = 100000000000000000000\nmax_depth = 8\n" + HUGE_FAMILIES[spins])
    code, payload, err = run_cli(capsys, *argv, "--spec", str(spec))
    assert code == 3
    if argv[0] == "consistency":
        assert (payload["budget_limited"], payload["verified_depth"]) == (True, 0)
    else:
        assert payload is None and err.startswith("budget exceeded: ")


@pytest.mark.parametrize("k, argv, code", [
    (2, ["consistency", "--depth", "10"], 0),
    (10**20, ["consistency", "--depth", "1"], 3),
    (10**20, ["probe-empty"], 3),
], ids=["k2-consistency-depth10", "huge-consistency", "huge-probe-empty"])
def test_one_spin_alphabet_ends_in_a_value_or_exit_3(capsys, tmp_path, k, argv, code):
    # one spin passes every atom gate (1**n is 1), so the walk over a ball's
    # sites is gated on its own; the single atom needs no walk
    spec = tmp_path / "one_spin.spec"
    spec.write_text(f"[tree]\nk = {k}\nmax_depth = 12\n[spins]\nkind = finite\nsize = 1\n"
                    "[family]\nkind = markov\nlambda = 1\nP = 1\n")
    start = time.perf_counter()
    got, payload, err = run_cli(capsys, *argv, "--spec", str(spec))
    assert time.perf_counter() - start < 1
    assert got == code
    if argv[0] == "consistency":
        assert payload["ok"] is True
        assert (payload["budget_limited"], payload["verified_depth"]) == (
            (False, 10) if code == 0 else (True, 0))
    else:
        assert payload is None and err.startswith("budget exceeded: ")


@pytest.mark.parametrize("event, value", [
    ("x0=1", "1/3"), ("x0 in {0,1}", "1"), ("x0=1 | x1=1", "1/3"),
])
def test_in_events_over_a_huge_alphabet_end_in_values(capsys, monkeypatch, tmp_path,
                                                      event, value):
    # the sparse table over 10**10 spins: neither an "in" set's normalization
    # nor a union's render reads the alphabet's spin set, which the spy
    # refuses past 10**6 spins (a "notin" set reads it, but as its one run,
    # so no event builds the alphabet)
    from treemeasure import cylinder

    full = cylinder._full

    def spy(size):
        if size > 10**6:
            raise AssertionError(f"built the spin set of an alphabet of {size}")
        return full(size)

    monkeypatch.setattr(cylinder, "_full", spy)
    with open(os.path.join(DATA, "table_partial_k2.spec")) as f:
        text = f.read()
    spec = tmp_path / "table_huge.spec"
    spec.write_text(text.replace("size = 2\n", "size = 10000000000\n"))
    code, payload, _ = run_cli(capsys, "eval", "--spec", str(spec), "--event", event,
                               "--depth", "1")
    assert code == 0
    assert payload["value"] == value


def test_entrypoint_exits_with_the_command_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", ["treemeasure", "validate", "--spec", CHAIN, "--json"])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    monkeypatch.setattr(sys, "argv", ["treemeasure", "validate", "--spec", str(tmp_path / "missing.spec")])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 2


# Event text that once escaped `main` as a traceback: non-ASCII digits passed
# the scanner's `isdigit` but not `int`, and deep nesting overflowed the
# recursive parser.  Both are spec errors now; nesting up to the limit works.
@pytest.mark.parametrize("event", [
    "x0=²", "x²=0", "x0 in {0..²}",
    "(" * 400 + "x0=0" + ")" * 400, "!" * 1000 + "x0=0",
], ids=["value", "site", "range", "parens-400", "nots-1000"])
def test_event_escapes_exit_usage(capsys, event):
    code, payload, err = run_cli(capsys, "eval", "--spec", CHAIN, "--event", event)
    assert (code, payload) == (2, None)
    assert err.startswith("spec error:")


@pytest.mark.parametrize(
    "event", ["(" * 200 + "x0=0" + ")" * 200, "!" * 200 + "x0=0"], ids=["parens", "nots"]
)
def test_event_nesting_up_to_the_limit(capsys, event):
    code, payload, _ = run_cli(capsys, "eval", "--spec", CHAIN, "--event", event)
    assert (code, payload["value"]) == (0, "1/2")


# a literal longer than int() converts by default (4,300 digits)
LONG = "9" * 5000


@pytest.mark.parametrize("path, old, new, event, where", [
    (CHAIN, "k = 2", f"k = {LONG}", "x0=0", (2, 5)),
    (CHAIN, "lambda = 1/2", f"lambda = 1/{LONG}", "x0=0", (11, 12)),
    (os.path.join(DATA, "product_overrides_k2.spec"), "w@4 =", f"w@{LONG} =", "x0=0",
     (14, 3)),
    (CHAIN, '"x0=1"', f'"x0={LONG}"', "x0=0", (15, 28)),
    (CHAIN, None, None, f"x0={LONG}", (1, 4)),
], ids=["k", "lambda-denominator", "w-index", "cover-event-value", "event-value"])
def test_literal_past_the_digit_limit_is_a_spec_error(capsys, tmp_path, path, old, new,
                                                      event, where):
    # each ends in exit 2 at the literal's own position, not in a ValueError
    with open(path) as fh:
        text = fh.read()
    if old is not None:
        assert old in text
        text = text.replace(old, new)
    spec = tmp_path / "long.spec"
    spec.write_text(text)
    code, payload, err = run_cli(capsys, "eval", "--spec", str(spec), "--event", event)
    assert (code, payload) == (2, None)
    assert err.startswith(
        "spec error: line {}, col {}: a 5000-digit number is past".format(*where)
    )


FUZZ_WORDS = [
    "x0", "x1", "x4", "x12", "=", " in ", " notin ", "{", "}", "..", ",", "&", "|",
    "!", "(", ")", "0", "1", "2", "7", " ", "1.5", "3/4", ";", '"', "#", "~",
    "\n", "²", "٣", "é",
]


def fuzz_text(rng):
    if rng.random() < 0.1:
        return rng.choice("(!") * rng.randint(1, 1000) + rng.choice(["x0=0", ""])
    return "".join(rng.choice(FUZZ_WORDS) for _ in range(rng.randint(0, 12)))


def test_event_grammar_fuzz_ends_in_exit_codes(capsys, tmp_path):
    # every text ends in a documented exit code, both as an --event flag and
    # inside a quoted cover list; no case may raise out of `main`
    rng = random.Random(4021)
    with open(CHAIN) as fh:
        chain_text = fh.read()  # ends with its [covers] section
    spec = tmp_path / "fuzz.spec"
    codes = set()
    started = time.perf_counter()
    for _ in range(300):
        text = fuzz_text(rng)
        codes.add(main(["eval", "--spec", CHAIN, f"--event={text}", "--json"]))
        spec.write_text(chain_text + f'fuzz = list "{text}"\n')
        codes.add(main(["validate", "--spec", str(spec), "--json"]))
        capsys.readouterr()
    assert codes <= {0, 1, 2, 3}
    assert {0, 2} <= codes
    assert time.perf_counter() - started < 5



SPEC_FILES = sorted(
    os.path.join(folder, name)
    for folder in (os.path.join(os.path.dirname(DATA), os.pardir, "samples"), DATA)
    for name in os.listdir(folder) if name.endswith(".spec")
)
# 10**10 is not among the numbers: a wide range is no longer materialized
# value by value, but the text of such a spin set or range still lists every
# value (ROADMAP item 2), and a product or chain over 10**10 children still
# raises an exact power that large (item 3)
FUZZ_NUMBERS = ["0", "1", "2", "1/2", "3/2", "1000"]
DOC_TOKEN_RE = re.compile(r"\s+|[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_@-]*|\S")


def fuzz_document(rng, text):
    # 1-2 edits, each a number replaced from FUZZ_NUMBERS (two in three), a
    # token of the document inserted as a word, or a token deleted
    tokens = DOC_TOKEN_RE.findall(text)
    for _ in range(rng.choice((1, 1, 2))):
        words = [i for i, tok in enumerate(tokens) if not tok.isspace()]
        numbers = [i for i in words if tokens[i][0].isdigit()]
        edit = rng.randrange(6)
        if edit < 4 and numbers:
            tokens[rng.choice(numbers)] = rng.choice(FUZZ_NUMBERS)
        elif edit == 4:
            tokens.insert(rng.randint(0, len(tokens)), " " + tokens[rng.choice(words)])
        else:
            del tokens[rng.choice(words)]
    return "".join(tokens)


def fuzz_command(rng, cover):
    commands = [
        ["validate"],
        ["eval", "--event", "x0=0 | x1 notin {1}"],
        ["consistency", "--depth", "2"],
        ["probe-empty", "--maxdepth", "2"],
    ]
    if cover is not None:
        commands.append(rng.choice([
            ["sigma-eval", "--cover", cover, "--event", "x0=0"],
            ["cover-sum", "--cover", cover],
        ]) + ["--term-budget", "50"])
    return rng.choice(commands)


def test_spec_document_fuzz_ends_in_exit_codes(capsys, tmp_path):
    # whole documents, each a repo spec with 1-2 edits, through one
    # subcommand each; no case may raise out of `main`
    rng = random.Random(1507)
    sources = []
    for path in SPEC_FILES:
        with open(path) as fh:
            text = fh.read()
        sources.append((text, next(iter(load_spec(text).covers), None)))
    codes = []
    started = time.perf_counter()
    for i in range(300):
        text, cover = rng.choice(sources)
        spec = tmp_path / f"fuzz{i}.spec"
        spec.write_text(fuzz_document(rng, text))
        codes.append(main(fuzz_command(rng, cover) + ["--spec", str(spec), "--json"]))
        capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 3}
    assert sum(code != 2 for code in codes) >= len(codes) / 4
    assert time.perf_counter() - started < 5


HUGE_POWER_SPECS = {
    "product": "[tree]\nk = 10000000000\n[spins]\nkind = finite\nsize = 3\n"
               "[family]\nkind = product\nw = 1/6 3/2 1/2\n",
    "chain": "[tree]\nk = 10000000000\n[spins]\nkind = nat\n"
             "[family]\nkind = markov\nlambda = geometric 1/2 1/2\nP = geometric 1/2 0\n",
}


@pytest.mark.parametrize("family, argv, bits", [
    ("product", ["eval", "--event", "x0=0 | x1 notin {1}"], 30000000003),
    ("chain", ["eval", "--event", "x0=0", "--depth", "1"], 10000000001),
    ("chain", ["probe-empty", "--maxdepth", "2"], 10000000001),
], ids=["product-eval", "chain-eval", "chain-probe-empty"])
def test_power_past_the_bit_limit_exits_inconclusive(capsys, tmp_path, family, argv, bits):
    # with k = 10**10 a free site's row sum (product) or a root's free
    # factor (chain) is raised to about k; the size is refused before the
    # power is built, and the probe-empty screen keeps that message instead
    # of the atom-budget one
    spec = tmp_path / f"{family}.spec"
    spec.write_text(HUGE_POWER_SPECS[family])
    start = time.perf_counter()
    code, payload, err = run_cli(capsys, *argv, "--spec", str(spec))
    assert time.perf_counter() - start < 1
    assert (code, payload) == (3, None)
    assert err == (f"budget exceeded: a power of about {bits} bits exceeds the limit "
                   f"of {2**22} bits\n")


def test_table_family_checks_past_the_atom_budget(capsys, tmp_path):
    # 2**46 atoms on the depth-4 ball of k = 2, but only two entries to
    # regroup: a table's marginal passes no atom gate
    zeros, ones = " ".join("0" * 46), " ".join("1" * 46)
    spec = tmp_path / "table_depth4.spec"
    spec.write_text("[tree]\nk = 2\n[spins]\nkind = finite\nsize = 2\n"
                    f"[family]\nkind = table\ndepth = 4\n"
                    f"entry = {zeros} : 1/2\nentry = {ones} : 1/2\n")
    code, payload, _ = run_cli(capsys, "consistency", "--spec", str(spec), "--depth", "4")
    assert code == 0
    assert (payload["verified_depth"], payload["budget_limited"]) == (4, False)


# a path whose kernel entries share the least common denominator D = 6
DEEP_RUN_SPEC = (
    "[tree]\nk = 1\nmax_depth = 100000000\n[spins]\nkind = finite\nsize = 2\n"
    "[family]\nkind = markov\nlambda = 1/2 1/2\nP = 1/3 1/2 ; 1/2 1/3\n"
)


@pytest.mark.parametrize("spec, event, bits", [
    ("nat_geometric_mass.spec", "x0=10000000000", 10000000000),
    ("nat_geometric_mass.spec", "x0 notin {10000000000}", 10000000000),
    (DEEP_RUN_SPEC, "x20000001=0", 20000000),
], ids=["geometric-tail-value", "geometric-tail-gap", "kernel-run"])
def test_tail_and_kernel_powers_exit_inconclusive(capsys, tmp_path, spec, event, bits):
    # a geometric tail's ratio is raised to the spin offset, and the run of
    # 10**7 levels above x20000001 takes D ** (10**7): both sizes are refused
    # before the power is built
    if spec == DEEP_RUN_SPEC:
        spec = tmp_path / "deep_run.spec"
        spec.write_text(DEEP_RUN_SPEC)
    else:
        spec = os.path.join(DATA, spec)
    start = time.perf_counter()
    code, payload, err = run_cli(capsys, "eval", "--spec", str(spec), "--event", event)
    assert time.perf_counter() - start < 1
    assert (code, payload) == (3, None)
    assert err == (f"budget exceeded: a power of about {bits} bits exceeds the limit "
                   f"of {2**22} bits\n")


def test_kernel_rows_summing_past_one_exit_inconclusive(capsys, tmp_path):
    # integer entries give D = 1, but each row sums to 3, so the powers of M
    # grow by log2(3) bits a level: the run of 10**7 levels is refused first
    spec = tmp_path / "integer_run.spec"
    spec.write_text("[tree]\nk = 1\nmax_depth = 100000000\n[spins]\nkind = finite\nsize = 2\n"
                    "[family]\nkind = markov\nlambda = 1 1\nP = 2 1 ; 1 2\n")
    start = time.perf_counter()
    code, payload, err = run_cli(capsys, "eval", "--spec", str(spec), "--event", "x20000001=0",
                                 "--json")
    assert time.perf_counter() - start < 1
    assert (code, payload) == (3, None)
    assert err == (f"budget exceeded: a power of about 10000000 bits exceeds the limit "
                   f"of {2**22} bits\n")
    code, payload, _ = run_cli(capsys, "eval", "--spec", str(spec), "--event", "x2001=0", "--json")
    lam, P = [F(1)] * 2, [[F(2), F(1)], [F(1), F(2)]]
    assert (code, Fraction(payload["value"])) == (0, path_value_finite(lam, P, 1001))


def test_guarded_powers_under_the_limit_keep_their_values(capsys, tmp_path):
    # the same specs, with powers under the limit: values as an oracle gives them
    geometric = os.path.join(DATA, "nat_geometric_mass.spec")
    code, payload, _ = run_cli(capsys, "eval", "--spec", geometric, "--event", "x0=1000", "--json")
    assert (code, Fraction(payload["value"])) == (0, F(1, 2**1001))
    spec = tmp_path / "deep_run.spec"
    spec.write_text(DEEP_RUN_SPEC)
    code, payload, _ = run_cli(capsys, "eval", "--spec", str(spec), "--event", "x2001=0", "--json")
    lam, P = [F(1, 2)] * 2, [[F(1, 3), F(1, 2)], [F(1, 2), F(1, 3)]]
    assert (code, Fraction(payload["value"])) == (0, path_value_finite(lam, P, 1001))


# k is 4,300 nines, the longest literal the parser reads: ball sizes and
# power sizes computed from it have more digits than `str` converts by default
NINES = "9" * 4300
DIGIT_LIMIT_SPECS = {
    "geometric": "[tree]\nk = 2\n[spins]\nkind = nat\n"
                 "[family]\nkind = product\nw = geometric 1/2 1/4\n",
    "stochastic": f"[tree]\nk = {NINES}\nmax_depth = 4\n[spins]\nkind = finite\nsize = 2\n"
                  "[family]\nkind = markov\nlambda = 1/2 1/2\nP = 1/2 1/2 ; 1/2 1/2\n",
    "substochastic": f"[tree]\nk = {NINES}\nmax_depth = 4\n[spins]\nkind = finite\nsize = 2\n"
                     "[family]\nkind = markov\nlambda = 1/2 1/2\nP = 1/2 1/4 ; 1/4 1/2\n",
    "nat": f"[tree]\nk = {NINES}\n[spins]\nkind = nat\n"
           "[family]\nkind = markov\nlambda = geometric 1/2 1/2\nP = geometric 1/2 1/2\n",
}


@pytest.mark.parametrize("family, argv, message", [
    ("geometric", ["eval", "--event", f"x0={NINES}"],
     f"a power of about {render_value(2 * int(NINES))} bits exceeds the limit of {2**22} bits"),
    ("stochastic", ["consistency", "--depth", "2"], None),
    ("substochastic", ["probe-empty", "--maxdepth", "2"],
     "the depth-1 consistency screen is inconclusive within the atom budget 16777216"),
    ("substochastic", ["eval", "--event", "x1=0", "--depth", "2"], "a power of about "),
    ("nat", ["probe-empty", "--maxdepth", "1"],
     f"the default chain pins {render_value(TreeGeometry(int(NINES)).ball_size(1))} sites "
     "at depth 1, more than the rectangle budget 50000"),
], ids=["tail-power", "consistency", "screen", "chain-power", "default-chain"])
def test_sizes_past_the_digit_limit_exit_inconclusive(capsys, tmp_path, family, argv, message):
    # each guard renders the size it refuses, past the digit limit too
    spec = tmp_path / f"{family}.spec"
    spec.write_text(DIGIT_LIMIT_SPECS[family])
    start = time.perf_counter()
    code, payload, err = run_cli(capsys, *argv, "--spec", str(spec), "--json")
    assert time.perf_counter() - start < 1
    assert code == 3
    if message is None:
        # the enumeration's refusal is a budget-limited report
        assert (payload["budget_limited"], payload["verified_depth"]) == (True, 0)
    else:
        assert payload is None and err.startswith(f"budget exceeded: {message}")


def test_table_entry_length_past_the_digit_limit_names_the_entry(capsys, tmp_path):
    spec = tmp_path / "table.spec"
    spec.write_text(f"[tree]\nk = {NINES}\n[spins]\nkind = finite\nsize = 2\n"
                    "[family]\nkind = table\ndepth = 2\nentry = 0 0 : 1\n")
    code, payload, err = run_cli(capsys, "validate", "--spec", str(spec))
    size = TreeGeometry(int(NINES)).ball_size(2)
    assert (code, payload) == (2, None)
    assert err == (f"spec error: table: entry (0, 0) needs {render_value(size)} values "
                   "for depth 2\n")


SUBCOMMAND_ARGV = {
    "validate": ["--spec", CHAIN],
    "eval": ["--spec", CHAIN, "--event", "x0=0 & x1=1", "--depth", "2"],
    "consistency": ["--spec", CHAIN, "--depth", "1"],
    "probe-empty": ["--spec", CHAIN, "--maxdepth", "2"],
    "sigma-eval": ["--spec", NAT, "--cover", "roots", "--event", "x0 in {0..3}"],
    "covers-compare": ["--spec", NAT, "--cover", "roots", "--cover", "pairs"],
    "cover-sum": ["--spec", NAT, "--cover", "roots"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_every_command_writes_one_json_line_naming_it(capsys, command):
    for flags in ([], ["--json"]):
        code = main([command, *SUBCOMMAND_ARGV[command], *flags])
        out, err = capsys.readouterr()
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        assert json.loads(out)["command"] == command
        # the summary goes to stderr unless --json
        assert (err == "") == bool(flags)
