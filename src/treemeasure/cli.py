"""Command-line front end: evaluate, check, and sum measures from spec files.

Every command reads a spec document and returns its JSON payload, the lines
of a short human summary and an exit code.  `main` alone prints them: one
deterministic JSON object naming the command to stdout, the summary to stderr
unless --json is given.  It maps results and library errors alike to the exit
codes: 0 computed or PASS, 1 verified violation, 2 usage or parse problem,
3 inconclusive within the configured budgets.

A command imports the spec language when it reads its spec, and the
sigma-finite layer only when it sums over a cover or the spec has [covers];
`import treemeasure.cli` loads neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .cylinder import (
    DEFAULT_ATOM_BUDGET,
    DEFAULT_RECTANGLE_BUDGET,
    constraint_in,
    from_constraints,
)
from .errors import (
    BudgetError,
    CoverError,
    DisjointnessError,
    NestingError,
    SpecError,
    TreeMeasureError,
    VerificationError,
)
from .extension import ExtensionHandle, continuity_probe
from .measure import check_consistency, render_value

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _fraction_arg(text: str) -> Fraction:
    # Fraction(text) builds 10 ** exponent: hold that to the int-conversion limit
    exponent = text.lower().partition("e")[2]
    limit = sys.get_int_max_str_digits()
    try:
        if exponent and limit and abs(int(exponent)) > limit:
            raise argparse.ArgumentTypeError(f"exponent past the limit of {limit}: {text!r}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _depth_arg(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if depth < 0:
        raise argparse.ArgumentTypeError(f"depth must be non-negative, got {depth}")
    return depth


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemeasure",
        description="Exact cylinder-set measures on regular trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="path to a spec document")
        p.add_argument("--json", action="store_true",
                       help="suppress the human summary on stderr")
        p.set_defaults(func=func)
        return p

    add("validate", "parse and build a spec document", cmd_validate)

    p = add("eval", "value of one event at a chosen depth", cmd_eval)
    p.add_argument("--event", required=True, help="event expression")
    p.add_argument("--depth", type=int, default=None,
                   help="evaluation depth (default: the event's base depth)")

    p = add("consistency", "check that deeper measures marginalize onto "
                           "shallower ones", cmd_consistency)
    p.add_argument("--depth", type=_depth_arg, default=2, help="depth to verify up to")

    p = add("probe-empty", "values along a decreasing chain of events",
            cmd_probe_empty)
    p.add_argument("--maxdepth", type=_depth_arg, default=3,
                   help="chain length for the default all-sites chain")
    p.add_argument("--value", type=int, default=0,
                   help="spin pinned by the default chain")
    p.add_argument("--event", action="append", default=None,
                   help="chain element (repeatable; chain is the running "
                        "intersection)")

    p = add("sigma-eval", "cover sum of one event", cmd_sigma_eval)
    p.add_argument("--cover", required=True, help="cover name from the spec")
    p.add_argument("--event", required=True, help="event expression")
    _add_sigma_flags(p)

    p = add("covers-compare", "cover sums over two covers must agree",
            cmd_covers_compare)
    p.add_argument("--cover", action="append", required=True,
                   help="cover name (give exactly twice)")
    _add_event_list_flags(p)

    p = add("cover-sum", "cover sums must reproduce direct values",
            cmd_cover_sum)
    p.add_argument("--cover", required=True, help="cover name from the spec")
    _add_event_list_flags(p)

    return parser


def _add_event_list_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--event", action="append", default=None,
                   help="event expression (repeatable)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for generated events when --event is absent")
    _add_sigma_flags(p)


def _add_sigma_flags(p: argparse.ArgumentParser) -> None:
    # None stands for sigma_finite's default, which `_sigma_options` reads
    p.add_argument("--tolerance", type=_fraction_arg, default=None,
                   help="tail bound below which a sum is reported as bounded")
    p.add_argument("--term-budget", type=int, default=None,
                   help="maximum number of cover terms to sum")
    p.add_argument("--bound", type=_fraction_arg, default=None,
                   help="partial sums beyond this certify divergence")


# ---------------------------------------------------------------------------
# shared plumbing


def _sigma_options(args) -> dict:
    from .sigma_finite import DEFAULT_DIVERGENCE_BOUND, DEFAULT_TERM_BUDGET, DEFAULT_TOLERANCE

    return {
        "tolerance": DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance,
        "term_budget": DEFAULT_TERM_BUDGET if args.term_budget is None else args.term_budget,
        "bound": DEFAULT_DIVERGENCE_BOUND if args.bound is None else args.bound,
    }


def _load(args):
    from .specdsl import load_spec

    with open(args.spec, encoding="utf-8") as fh:
        return load_spec(fh.read())


def _value_json(v):
    return None if v is None else render_value(v)


def _sigma_json(sv: SigmaValue) -> dict:
    return {
        "kind": sv.kind,
        "total": _value_json(sv.total),
        "tail_bound": _value_json(sv.tail_bound),
        "terms_used": sv.terms_used,
        "bound": _value_json(sv.bound),
        "rendered": sv.render(),
    }


def _exit_code(violation: bool, inconclusive: bool) -> int:
    if violation:
        return EXIT_VIOLATION
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _events_from_args(args, built):
    from .specdsl import compile_event

    if args.event:
        return [compile_event(built.ctx, text) for text in args.event]
    rng = random.Random(args.seed)
    events = []
    for _ in range(8):
        lo = rng.randint(0, 6)
        hi = rng.randint(lo, lo + 3)
        if built.ctx.spins.is_finite:
            top = built.ctx.spins.size - 1
            lo, hi = min(lo, top), min(hi, top)
        values = range(lo, hi + 1)
        events.append(from_constraints(built.ctx, {0: constraint_in(values)}))
    return events


def _cover_of(built, name: str):
    if name not in built.covers:
        known = ", ".join(sorted(built.covers)) or "none defined"
        raise SpecError(f"unknown cover {name!r}; spec covers: {known}")
    return built.covers[name]


def _handle(built) -> ExtensionHandle:
    # cheap depth-1 screen; the consistency command is the thorough check.
    # The library's message points API callers at `trusted=True`, which no
    # flag of this command offers.  Only that atom-budget refusal is
    # relabelled; any other budget, such as a power too large to build,
    # keeps its own message.
    try:
        return ExtensionHandle.issue(built.family, verify_depth=1)
    except BudgetError as exc:
        if "atom budget" not in str(exc):
            raise
        raise BudgetError(
            "the depth-1 consistency screen is inconclusive within the atom "
            f"budget {DEFAULT_ATOM_BUDGET}"
        ) from None


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> tuple[dict, list[str], int]:
    built = _load(args)
    doc = built.doc
    payload = {
        "ok": True,
        "order": doc.order,
        "max_depth": doc.max_depth,
        "spins": str(built.ctx.spins),
        "family_kind": doc.family_kind,
        "family_class": built.family.kind,
        "covers": sorted(built.covers),
    }
    summary = [
        f"ok: k={doc.order} spins={built.ctx.spins} family={doc.family_kind} "
        f"({built.family.kind}), covers: {', '.join(sorted(built.covers)) or 'none'}"
    ]
    return payload, summary, EXIT_OK


def cmd_eval(args) -> tuple[dict, list[str], int]:
    from .specdsl import compile_event

    built = _load(args)
    event = compile_event(built.ctx, args.event)
    depth = args.depth if args.depth is not None else event.base_depth
    if depth < event.base_depth:
        raise SpecError(
            f"--depth {depth} is below the event's base depth {event.base_depth}"
        )
    value = built.family.measure(depth).measure_of(event)
    payload = {
        "event": event.render(),
        "depth": depth,
        "value": _value_json(value),
    }
    return payload, [f"value at depth {depth}: {_value_json(value)}"], EXIT_OK


def cmd_consistency(args) -> tuple[dict, list[str], int]:
    built = _load(args)
    report = check_consistency(built.family, args.depth)
    violation = None
    if report.violation is not None:
        violation = {
            "i": report.violation.i,
            "j": report.violation.j,
            "witness": report.violation.witness.render(),
            "lhs": _value_json(report.violation.lhs),
            "rhs": _value_json(report.violation.rhs),
        }
    payload = {
        "requested_depth": report.requested_depth,
        "verified_depth": report.verified_depth,
        "ok": report.ok,
        "method": report.method,
        "exhaustive": report.exhaustive,
        "budget_limited": report.budget_limited,
        "violation": violation,
    }
    if report.ok:
        summary = [
            f"consistent to depth {report.verified_depth} ({report.method}"
            + ("" if report.exhaustive else ", probe-based") + ")"
        ]
        if report.budget_limited:
            summary.append(
                f"inconclusive: the atom budget ran out before depth {report.requested_depth}"
            )
    else:
        summary = [f"violation: {report.violation.render()}"]
    return payload, summary, _exit_code(not report.ok, report.budget_limited)


def cmd_probe_empty(args) -> tuple[dict, list[str], int]:
    from .specdsl import compile_event

    built = _load(args)
    ctx = built.ctx
    handle = _handle(built)
    if args.event:
        elements = [compile_event(ctx, text) for text in args.event]
        chain = []
        running = None
        for e in elements:
            running = e if running is None else running.intersect(e)
            chain.append(running)
    else:
        ctx.spins.check(args.value)
        # building the chain costs about the square of its pinned sites
        size = ctx.tree.ball_size(args.maxdepth)
        if size > DEFAULT_RECTANGLE_BUDGET:
            raise BudgetError(f"the default chain pins {render_value(size)} sites at depth "
                              f"{args.maxdepth}, more than the rectangle budget "
                              f"{DEFAULT_RECTANGLE_BUDGET}")
        chain = [
            from_constraints(
                ctx,
                {v: constraint_in([args.value]) for v in ctx.tree.ball_vertices(n)},
            )
            for n in range(args.maxdepth + 1)
        ]
    report = continuity_probe(handle, chain)
    payload = {
        "chain": [e.render() for e in chain],
        "values": [_value_json(v) for v in report.values],
        "verdict": report.verdict,
    }
    values = " -> ".join(_value_json(v) for v in report.values)
    return payload, [f"{report.verdict}: {values}"], EXIT_OK


def cmd_sigma_eval(args) -> tuple[dict, list[str], int]:
    from .sigma_finite import sigma_extension
    from .specdsl import compile_event

    built = _load(args)
    cover = _cover_of(built, args.cover)
    event = compile_event(built.ctx, args.event)
    handle = _handle(built)
    ext = sigma_extension(handle, cover, **_sigma_options(args))
    sv = ext.value(event)
    payload = {
        "cover": args.cover,
        "event": event.render(),
        **_sigma_json(sv),
    }
    return payload, [f"{args.cover}: {sv.render()}"], _exit_code(False, sv.kind == "inconclusive")


def cmd_covers_compare(args) -> tuple[dict, list[str], int]:
    from .sigma_finite import cover_independence

    if len(args.cover) != 2:
        raise SpecError("give --cover exactly twice")
    built = _load(args)
    first = _cover_of(built, args.cover[0])
    second = _cover_of(built, args.cover[1])
    handle = _handle(built)
    events = _events_from_args(args, built)
    report = cover_independence(handle, first, second, events, **_sigma_options(args))
    records = [
        {
            "event": rec.event.render(),
            "first": _sigma_json(rec.first),
            "second": _sigma_json(rec.second),
            "agree": rec.agree,
        }
        for rec in report.records
    ]
    payload = {
        "covers": list(args.cover),
        "records": records,
        "ok": report.ok,
    }
    agreeing = sum(1 for r in report.records if r.agree)
    summary = [
        f"{'ok' if report.ok else 'MISMATCH'}: {agreeing}/{len(records)} "
        f"events agree between {args.cover[0]} and {args.cover[1]}"
    ]
    inconclusive = any(rec.agree is None for rec in report.records)
    return payload, summary, _exit_code(not report.ok, inconclusive)


def cmd_cover_sum(args) -> tuple[dict, list[str], int]:
    from .sigma_finite import cover_sum_check

    built = _load(args)
    cover = _cover_of(built, args.cover)
    handle = _handle(built)
    events = _events_from_args(args, built)
    report = cover_sum_check(handle, cover, events, **_sigma_options(args))
    records = [
        {
            "event": rec.event.render(),
            "direct": _value_json(rec.direct),
            "summed": _sigma_json(rec.summed),
            "verdict": rec.verdict,
        }
        for rec in report.records
    ]
    payload = {
        "cover": args.cover,
        "records": records,
        "verdict": report.verdict,
    }
    summary = [f"{report.verdict}: {len(records)} events against {args.cover}"]
    return payload, summary, _exit_code(report.verdict == "FAIL", report.verdict == "INCONCLUSIVE")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, summary, code = args.func(args)
        sys.stdout.write(json.dumps({"command": args.command, **payload}, sort_keys=True) + "\n")
        if not args.json:
            for line in summary:
                sys.stderr.write(line + "\n")
        return code
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return EXIT_USAGE
    except (VerificationError, DisjointnessError, NestingError, CoverError) as exc:
        sys.stderr.write(f"violation: {exc}\n")
        return EXIT_VIOLATION
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_INCONCLUSIVE
    except TreeMeasureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"cannot read spec: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
