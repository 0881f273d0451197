import glob
import itertools
import os
import random
from fractions import Fraction

import pytest

from treemeasure import (
    Context,
    EventAnd,
    EventAtom,
    EventNot,
    EventOr,
    SpecError,
    SpecSemanticError,
    SpecSyntaxError,
    SpinRangeError,
    SpinSet,
    TransitionKernel,
    TreeGeometry,
    build_document,
    compile_event,
    empty_set,
    load_spec,
    lower_event,
    omega,
    parse_document,
    parse_event,
    render_document,
    render_event,
    table_family,
)
from treemeasure.specdsl import MAX_EVENT_NESTING

F = Fraction

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def test_event_atoms():
    ast = parse_event("x0=1")
    assert ast == EventAtom(0, "in", (1,))
    ast = parse_event("x3 in {2, 0}")
    assert ast == EventAtom(3, "in", (0, 2))
    ast = parse_event("x2 notin {1..3}")
    assert ast == EventAtom(2, "notin", (1, 2, 3))
    ast = parse_event("x1 in {0..2, 5}")
    assert ast == EventAtom(1, "in", (0, 1, 2, 5))
    assert parse_event("x0 in {}") == EventAtom(0, "in", ())


def test_event_precedence():
    ast = parse_event("x0=1 | x1=0 & x2=1")
    assert isinstance(ast, EventOr)
    assert isinstance(ast.parts[1], EventAnd)
    ast = parse_event("(x0=1 | x1=0) & x2=1")
    assert isinstance(ast, EventAnd)
    assert isinstance(ast.parts[0], EventOr)
    ast = parse_event("!(x0=1) & x1=0")
    assert isinstance(ast, EventAnd)
    assert isinstance(ast.parts[0], EventNot)
    # ! binds to the following factor only
    ast = parse_event("!x0=1 | x1=0")
    assert isinstance(ast, EventOr)
    assert isinstance(ast.parts[0], EventNot)


def test_event_render_is_canonical():
    assert render_event(parse_event("x0 in {1}")) == "x0=1"
    assert render_event(parse_event("x1 in {2, 0..1}")) == "x1 in {0,1,2}"
    assert render_event(parse_event("x2 notin { 3 , 1 }")) == "x2 notin {1,3}"
    assert render_event(parse_event("!( x0=1 )")) == "!(x0=1)"
    assert render_event(parse_event("x0=1 & (x1=0 | x2=1)")) == "x0=1 & (x1=0 | x2=1)"
    assert render_event(parse_event("x0=1 & x1=0 | x2=1")) == "x0=1 & x1=0 | x2=1"


def random_event(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        site = rng.randrange(10)
        mode = rng.choice(["in", "notin"])
        count = rng.randint(0 if mode == "in" else 1, 2)
        return EventAtom(site, mode, tuple(sorted(rng.sample(range(2), count))))
    if roll < 0.6:
        return EventNot(random_event(rng, depth + 1))
    parts = tuple(random_event(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    return EventAnd(parts) if roll < 0.8 else EventOr(parts)


def eval_event(ast, atom) -> bool:
    if isinstance(ast, EventAtom):
        hit = atom[ast.site] in ast.values
        return hit if ast.mode == "in" else not hit
    if isinstance(ast, EventNot):
        return not eval_event(ast.inner, atom)
    if isinstance(ast, EventAnd):
        return all(eval_event(p, atom) for p in ast.parts)
    return any(eval_event(p, atom) for p in ast.parts)


def test_event_ast_round_trip_random():
    rng = random.Random(1318)
    for _ in range(200):
        ast = random_event(rng)
        assert parse_event(render_event(ast)) == ast


def test_lowering_matches_truth_table(ctx_k2s2):
    ctx = ctx_k2s2
    rng = random.Random(907)
    atoms = list(itertools.product(range(2), repeat=ctx.tree.ball_size(2)))
    for _ in range(25):
        ast = random_event(rng)
        cyl = lower_event(ctx, ast)
        for atom in atoms:
            assert cyl.contains(atom) == eval_event(ast, atom)


def test_compile_event(ctx_k2s2):
    cyl = compile_event(ctx_k2s2, "x0=1 & x1 in {0}")
    assert cyl.contains((1, 0, 0, 0))
    assert not cyl.contains((1, 1, 0, 0))


def test_event_error_positions():
    with pytest.raises(SpecSyntaxError) as err:
        parse_event("x0=1 x1=0")
    assert "trailing" in str(err.value)
    with pytest.raises(SpecSyntaxError) as err:
        parse_event("x0 in {1.5}")
    assert "decimal" in str(err.value)
    with pytest.raises(SpecSyntaxError) as err:
        parse_event("x0 in {3..1}")
    assert "downward" in str(err.value)
    with pytest.raises(SpecSyntaxError) as err:
        parse_event("x0 ~ 1")
    assert "unexpected character" in str(err.value)
    with pytest.raises(SpecSyntaxError) as err:
        parse_event("x0 in {1")
    assert "expected" in str(err.value)
    with pytest.raises(SpecSyntaxError):
        parse_event("")
    # positions are 1-based line and column
    with pytest.raises(SpecSyntaxError) as err:
        parse_event("x0 = ")
    assert err.value.line == 1


def test_omega_and_empty_are_atoms(ctx_k2s2):
    # the words CylinderSet.render prints for the whole space and the empty
    # set: the meet and the join of no parts
    assert parse_event("omega") == EventAnd(())
    assert parse_event("empty") == EventOr(())
    assert lower_event(ctx_k2s2, parse_event("omega")) == omega(ctx_k2s2)
    assert lower_event(ctx_k2s2, parse_event("empty")) == empty_set(ctx_k2s2)
    for text in ("omega", "empty", "!(omega)", "omega & x1=0", "empty | x0=1",
                 "x0=1 & (empty | x2=0)"):
        assert render_event(parse_event(text)) == text
    # other words keep their errors, byte for byte
    for text, message in [
        ("omegax", "line 1, col 1: unexpected 'omegax'; expected one of: a site like x0, "
                   "'(', '!'"),
        ("x0 = omega", "line 1, col 6: unexpected 'omega'; expected one of: an integer"),
        ("omega x0=1", "line 1, col 7: unexpected trailing 'x0'"),
    ]:
        with pytest.raises(SpecSyntaxError) as err:
            parse_event(text)
        assert str(err.value) == message


def with_words(rng, ast):
    """The event tree with about one leaf in five swapped for omega or empty."""
    if isinstance(ast, EventAtom):
        if rng.random() < 0.2:
            return EventAnd(()) if rng.random() < 0.5 else EventOr(())
        return ast
    if isinstance(ast, EventNot):
        return EventNot(with_words(rng, ast.inner))
    return type(ast)(tuple(with_words(rng, p) for p in ast.parts))


def folded(ctx, ast):
    """The cylinder set of an event tree, one operation at a time: each atom
    on its own, then conjunctions and disjunctions folded pairwise."""
    if isinstance(ast, EventAtom):
        return lower_event(ctx, ast)
    if isinstance(ast, EventNot):
        return folded(ctx, ast.inner).complement()
    out = omega(ctx) if isinstance(ast, EventAnd) else empty_set(ctx)
    for p in ast.parts:
        part = folded(ctx, p)
        out = out.intersect(part) if isinstance(ast, EventAnd) else out.union(part)
    return out


@pytest.mark.parametrize("spins", [SpinSet.finite(2), SpinSet.finite(3), SpinSet.naturals()],
                         ids=["s2", "s3", "nat"])
def test_lowering_is_the_pairwise_fold(spins):
    # a conjunction's atoms meet in one rectangle and a disjunction is one
    # union: the same set as the pairwise fold, rectangle for rectangle
    ctx = Context(TreeGeometry(2, 4), spins)
    rng = random.Random(4040)
    for _ in range(300):
        ast = with_words(rng, random_event(rng))
        assert parse_event(render_event(ast)) == ast
        lowered = lower_event(ctx, ast)
        assert lowered == folded(ctx, ast), render_event(ast)
        assert lowered.render() == folded(ctx, ast).render()


CHAIN_DOC = """\
# weighted chain on the three-branch root
[tree]
k = 2
max_depth = 6

[spins]
kind = finite
size = 2

[family]
kind = markov-prob
lambda = 1/2 1/2
P = 2/3 1/3 ; 1/3 2/3

[covers]
halves = list "x0=0" ; "x0=1"
"""

NAT_DOC = """\
[tree]
k = 2

[spins]
kind = nat

[family]
kind = markov
lambda = const 1
P = geometric 1/2 1/2
P@0 = prefix 1/4 1/4 then geometric 1/4 1/2

[covers]
roots = slice x0
pairs = slice x0 block 2
"""

PRODUCT_DOC = """\
[tree]
k = 1
max_depth = 4

[spins]
kind = finite
size = 3

[family]
kind = product
w = 1/3 1/3 1/3
w@1 = 1/2 1/4 1/4
"""

TABLE_DOC = """\
[tree]
k = 2

[spins]
kind = finite
size = 2

[family]
kind = table
depth = 0
entry = 0 : 3/4
entry = 1 : 1/4
"""


def test_document_round_trip_inline():
    for text in (CHAIN_DOC, NAT_DOC, PRODUCT_DOC, TABLE_DOC):
        doc = parse_document(text)
        rendered = render_document(doc)
        assert parse_document(rendered) == doc
        # rendering is itself a fixed point
        assert render_document(parse_document(rendered)) == rendered


def test_document_round_trip_corpus():
    paths = sorted(glob.glob(os.path.join(DATA_DIR, "*.spec")))
    assert len(paths) >= 20
    for path in paths:
        with open(path) as fh:
            text = fh.read()
        doc = parse_document(text)
        assert parse_document(render_document(doc)) == doc
        built = load_spec(text)
        assert built.family.mass(0) is not None


def test_build_chain_document():
    built = load_spec(CHAIN_DOC)
    assert built.ctx.tree.order == 2
    assert built.family.kind == "probability"
    assert built.family.mass(1) == 1
    assert set(built.covers) == {"halves"}
    assert built.covers["halves"].verify().ok


def test_build_nat_document():
    built = load_spec(NAT_DOC)
    assert built.family.kind == "sigma-finite"
    assert built.covers["pairs"].block == 2
    mu = built.family.measure(0)
    from treemeasure import single_site

    assert mu.measure_of(single_site(built.ctx, 0, 3)) == 1


def test_build_product_document():
    built = load_spec(PRODUCT_DOC)
    assert built.family.mass(1) == 1
    mu = built.family.measure(1)
    assert mu.atom_weight((0, 0, 0)) == F(1, 3) * F(1, 2) * F(1, 3)


def test_build_table_document():
    built = load_spec(TABLE_DOC)
    assert built.family.mass(0) == 1
    assert built.family.max_defined_depth == 0


@pytest.mark.parametrize("old, new, values, message", [
    ("lambda = 1/2 1/2", "lambda = -1/2 3/2", (F(-1, 2), F(3, 2)),
     "lambda: sequence entries must be non-negative"),
    ("P = 2/3 1/3 ; 1/3 2/3", "P = 2/3 1/3 ; -1 2", (F(-1), F(2)),
     "P row 1: sequence entries must be non-negative"),
], ids=["lambda", "P-row"])
def test_negative_weights_parse_and_their_constructor_refuses_them(old, new, values, message):
    # a signed rational is read as it stands; the library constructor is the
    # check that refuses it, and the spec error names the key
    doc = parse_document(CHAIN_DOC.replace(old, new))
    assert values in (doc.lam.values, doc.kernel_rows[1].values)
    with pytest.raises(SpecSemanticError) as err:
        build_document(doc)
    assert str(err.value) == message


def test_weight_spec_surface_forms_distinct():
    # plain list and prefix-then-const-zero mean the same sequence but are
    # different surface forms; both round-trip without collapsing
    a = parse_document(NAT_DOC.replace("const 1", "1/2 1/4"))
    b = parse_document(NAT_DOC.replace("const 1", "prefix 1/2 1/4 then const 0"))
    assert a.lam != b.lam
    assert parse_document(render_document(a)) == a
    assert parse_document(render_document(b)) == b


def expect_error(text, exc, fragment):
    with pytest.raises(exc) as err:
        build_document(parse_document(text))
    assert fragment in str(err.value)


def test_document_structural_errors():
    expect_error("[tree]\nk = 2\n", SpecSemanticError, "missing section")
    expect_error(
        CHAIN_DOC.replace("[spins]", "[spin]"), SpecSemanticError, "unknown section"
    )
    expect_error(
        CHAIN_DOC + "\n[tree]\nk = 1\n", SpecSemanticError, "duplicate section"
    )
    expect_error(
        CHAIN_DOC.replace("k = 2", "k = 2\nk = 3"), SpecSemanticError, "more than once"
    )
    expect_error(
        CHAIN_DOC.replace("max_depth = 6", "depth_max = 6"),
        SpecSemanticError, "unknown key",
    )
    expect_error("k = 2\n" + CHAIN_DOC, SpecSyntaxError, "before any section")
    expect_error(
        CHAIN_DOC.replace("k = 2", "k ="), SpecSyntaxError, "no value"
    )
    expect_error(
        CHAIN_DOC.replace("[tree]", "[tree"), SpecSyntaxError, "malformed section"
    )
    expect_error(
        CHAIN_DOC.replace("lambda = 1/2 1/2", "lambda 1/2 1/2\nlambda = 1/2 1/2"),
        SpecSyntaxError, "key = value",
    )


def test_document_value_errors():
    expect_error(CHAIN_DOC.replace("k = 2", "k = 0"), SpecSemanticError, "k must be")
    expect_error(
        CHAIN_DOC.replace("size = 2", "size = 2\nextra = 1"),
        SpecSemanticError, "unknown key",
    )
    expect_error(
        CHAIN_DOC.replace("1/2 1/2", "0.5 0.5"), SpecSyntaxError, "decimal"
    )
    expect_error(
        CHAIN_DOC.replace("1/2 1/2", "1/0 1/2"), SpecSyntaxError, "zero denominator"
    )
    expect_error(
        NAT_DOC.replace("kind = nat", "kind = nat\nsize = 4"),
        SpecSemanticError, "only for finite",
    )
    expect_error(
        CHAIN_DOC.replace("size = 2\n", ""), SpecSemanticError, "needs size"
    )
    expect_error(
        CHAIN_DOC.replace("kind = markov-prob", "kind = gibbs"),
        SpecSemanticError, "unknown family kind",
    )
    expect_error(
        CHAIN_DOC.replace("2/3 1/3 ; 1/3 2/3", "2/3 1/3"),
        SpecSemanticError, "needs 2 rows",
    )
    expect_error(
        CHAIN_DOC.replace("lambda = 1/2 1/2", "lambda = 1/2 1/2 1/2"),
        SpecSemanticError, "need 2 weights",
    )
    # markov-prob demands unit sums
    expect_error(
        CHAIN_DOC.replace("1/3 2/3", "1/3 1/3"), SpecSemanticError, "unit row sums"
    )
    expect_error(
        CHAIN_DOC.replace("lambda = 1/2 1/2", "lambda = const 1"),
        SpecSemanticError, "denumerable",
    )


def test_document_nat_kernel_errors():
    expect_error(
        NAT_DOC.replace("P@0 =", "P@1 ="), SpecSemanticError, "consecutive"
    )
    expect_error(
        NAT_DOC.replace("P = geometric 1/2 1/2", "P = 1/2 ; 1/2"),
        SpecSyntaxError, "P@",
    )
    expect_error(
        NAT_DOC.replace("geometric 1/2 1/2", "geometric 1/2"),
        SpecSyntaxError, "coefficient and a ratio",
    )
    expect_error(
        NAT_DOC.replace("geometric 1/2 1/2", "geometric 1/2 3/2"),
        SpecSemanticError, "P",
    )
    expect_error(
        NAT_DOC.replace("prefix 1/4 1/4 then geometric 1/4 1/2", "prefix then const 1"),
        SpecSyntaxError, "at least one value",
    )
    expect_error(
        NAT_DOC.replace("prefix 1/4 1/4 then geometric 1/4 1/2", "prefix 1/4 1/4"),
        SpecSyntaxError, "then",
    )
    expect_error(
        NAT_DOC.replace("then geometric 1/4 1/2", "then 1/4"),
        SpecSyntaxError, "const or geometric",
    )
    expect_error(
        NAT_DOC.replace("const 1", "const"), SpecSyntaxError, "exactly one rational"
    )


def test_document_table_errors():
    expect_error(
        TABLE_DOC.replace("entry = 0 : 3/4", "entry = 0 3/4"),
        SpecSyntaxError, "entry format",
    )
    expect_error(
        TABLE_DOC.replace("entry = 0 : 3/4", "entry = : 3/4"),
        SpecSyntaxError, "no values",
    )
    expect_error(
        TABLE_DOC.replace("entry = 0 : 3/4", "entry = 0 : 3/4 1"),
        SpecSyntaxError, "single rational",
    )
    expect_error(
        TABLE_DOC + "entry = 1 : 1/8\n", SpecSemanticError, "duplicate entry"
    )
    expect_error(
        TABLE_DOC.replace("entry = 0 : 3/4", "entry = 0 0 : 3/4"),
        SpecSemanticError, "needs 1 values",
    )
    expect_error(
        TABLE_DOC.replace("entry = 1 : 1/4", "entry = 3 : 1/4"),
        SpecSemanticError, "entry",
    )
    expect_error(
        TABLE_DOC.replace("depth = 0\nentry = 0 : 3/4\nentry = 1 : 1/4", "depth = 0"),
        SpecSemanticError, "at least one entry",
    )


def test_document_cover_errors():
    expect_error(
        CHAIN_DOC.replace('halves = list "x0=0" ; "x0=1"', "halves = slice x0"),
        SpecSemanticError, "denumerable",
    )
    expect_error(
        CHAIN_DOC.replace('"x0=0" ; "x0=1"', '"x0=0" ; "x0=1'),
        SpecSyntaxError, "unterminated",
    )
    expect_error(
        CHAIN_DOC.replace('"x0=0" ; "x0=1"', '"x0=0" "x0=1"'),
        SpecSyntaxError, "separated",
    )
    expect_error(
        CHAIN_DOC.replace('"x0=0" ; "x0=1"', '"x0=0" ;'),
        SpecSyntaxError, "without an event",
    )
    expect_error(
        CHAIN_DOC.replace("halves =", "Halves ="), SpecSemanticError, "malformed cover"
    )
    expect_error(
        CHAIN_DOC + 'halves = list "x0=0"\n', SpecSemanticError, "duplicate cover"
    )
    expect_error(
        NAT_DOC.replace("slice x0\n", "slice x0 block 0\n"),
        SpecSemanticError, "block must be",
    )
    expect_error(
        NAT_DOC.replace("slice x0\n", "slice y0\n"), SpecSyntaxError, "not a site"
    )
    expect_error(
        NAT_DOC.replace("roots = slice x0", "roots = grid x0"),
        SpecSyntaxError, "unexpected 'grid'",
    )


# Every raise in _scan_lines, parse_document, _parse_weight_spec,
# _parse_cover_spec and _parse_quoted_events, pinned by class, message,
# position and expected list; the last cases hold two faults each and pin
# which one is reported
DOCUMENT_ERRORS = [
    # _scan_lines
    pytest.param(
        CHAIN_DOC.replace("[tree]", "[tree"),
        SpecSyntaxError, 2, 1, "malformed section header", (),
        id="malformed-section",
    ),
    pytest.param(
        CHAIN_DOC.replace("[spins]", "[spin]"),
        SpecSemanticError, 6, 1, "unknown section [spin]",
        ("[tree]", "[spins]", "[family]", "[covers]"),
        id="unknown-section",
    ),
    pytest.param(
        CHAIN_DOC + "[tree]\nk = 1\n",
        SpecSemanticError, 17, 1, "duplicate section [tree]", (),
        id="duplicate-section",
    ),
    pytest.param(
        "k = 2\n" + CHAIN_DOC,
        SpecSyntaxError, 1, 1, "content before any section header",
        ("[tree]", "[spins]", "[family]", "[covers]"),
        id="content-before-section",
    ),
    pytest.param(
        CHAIN_DOC.replace("lambda = 1/2 1/2", "lambda 1/2 1/2"),
        SpecSyntaxError, 12, 1, "expected key = value", (),
        id="no-equals",
    ),
    pytest.param(
        CHAIN_DOC.replace("k = 2", "  k 2 = 2"),
        SpecSyntaxError, 3, 3, "malformed key 'k 2'", (),
        id="malformed-key",
    ),
    pytest.param(
        CHAIN_DOC.replace("k = 2", "k ="),
        SpecSyntaxError, 3, 4, "key 'k' has no value", (),
        id="no-value",
    ),
    # parse_document
    pytest.param(
        "[tree]\nk = 2\n",
        SpecSemanticError, None, None, "missing section [spins]", (),
        id="missing-section",
    ),
    pytest.param(
        CHAIN_DOC.replace("max_depth = 6", "depth_max = 6"),
        SpecSemanticError, 4, None, "unknown key 'depth_max' in [tree]",
        ("k", "max_depth"),
        id="tree-unknown-key",
    ),
    pytest.param(
        CHAIN_DOC.replace("k = 2", "k = 2\nk = 3"),
        SpecSemanticError, 4, None, "key 'k' given more than once in [tree]", (),
        id="tree-k-twice",
    ),
    pytest.param(
        CHAIN_DOC.replace("k = 2\n", ""),
        SpecSemanticError, None, None, "[tree] is missing key 'k'", (),
        id="tree-k-missing",
    ),
    pytest.param(
        CHAIN_DOC.replace("k = 2", "k = 0"),
        SpecSemanticError, 3, 5, "k must be >= 1", (),
        id="tree-k-zero",
    ),
    pytest.param(
        CHAIN_DOC.replace("k = 2", "k = -2"),
        SpecSyntaxError, 3, 5, "not an integer: '-2'", (),
        id="tree-k-not-integer",
    ),
    pytest.param(
        CHAIN_DOC.replace("max_depth = 6", "max_depth = 0"),
        SpecSemanticError, 4, 13, "max_depth must be >= 1", (),
        id="tree-max-depth-zero",
    ),
    pytest.param(
        CHAIN_DOC.replace("size = 2", "size = 2\nextra = 1"),
        SpecSemanticError, 9, None, "unknown key 'extra' in [spins]",
        ("kind", "size"),
        id="spins-unknown-key",
    ),
    pytest.param(
        CHAIN_DOC.replace("kind = finite\n", ""),
        SpecSemanticError, None, None, "[spins] is missing key 'kind'", (),
        id="spins-kind-missing",
    ),
    pytest.param(
        CHAIN_DOC.replace("kind = finite", "kind = spins"),
        SpecSemanticError, 7, 8, "unknown spin kind 'spins'",
        ("finite", "nat"),
        id="spins-unknown-kind",
    ),
    pytest.param(
        CHAIN_DOC.replace("size = 2\n", ""),
        SpecSemanticError, None, None, "[spins] kind finite needs size", (),
        id="spins-needs-size",
    ),
    pytest.param(
        NAT_DOC.replace("kind = nat", "kind = nat\nsize = 4"),
        SpecSemanticError, 6, 8, "size is only for finite spins", (),
        id="spins-size-on-nat",
    ),
    pytest.param(
        CHAIN_DOC.replace("size = 2", "size = 0"),
        SpecSemanticError, 8, 8, "size must be >= 1", (),
        id="spins-size-zero",
    ),
    pytest.param(
        CHAIN_DOC.replace("kind = markov-prob\n", ""),
        SpecSemanticError, None, None, "[family] is missing key 'kind'", (),
        id="family-kind-missing",
    ),
    pytest.param(
        CHAIN_DOC.replace("kind = markov-prob", "kind = markov-prob\nkind = markov"),
        SpecSemanticError, 12, None, "key 'kind' given more than once in [family]", (),
        id="family-kind-twice",
    ),
    pytest.param(
        CHAIN_DOC.replace("kind = markov-prob", "kind = gibbs"),
        SpecSemanticError, 11, 8, "unknown family kind 'gibbs'",
        ("markov", "markov-prob", "product", "table"),
        id="family-unknown-kind",
    ),
    pytest.param(
        CHAIN_DOC.replace("lambda =", "w = 1\nlambda ="),
        SpecSemanticError, 12, None, "unknown key 'w' in [family]",
        ("P", "kind", "lambda"),
        id="markov-unknown-key",
    ),
    pytest.param(
        CHAIN_DOC.replace("lambda = 1/2 1/2\n", ""),
        SpecSemanticError, None, None, "[family] is missing key 'lambda'", (),
        id="markov-lambda-missing",
    ),
    pytest.param(
        CHAIN_DOC.replace("P = 2/3 1/3 ; 1/3 2/3\n", ""),
        SpecSemanticError, None, None, "[family] is missing key 'P'", (),
        id="markov-P-missing",
    ),
    pytest.param(
        CHAIN_DOC.replace("P = 2/3 1/3 ; 1/3 2/3", "P = 1 1 ; 1 1\nP = 1 1 ; 1 1"),
        SpecSemanticError, 14, None, "key 'P' given more than once in [family]", (),
        id="markov-P-twice",
    ),
    pytest.param(
        CHAIN_DOC.replace("; 1/3 2/3", "; 1/3 2/3\nP@1 = 1 1\nP@0 = 1 1"),
        SpecSemanticError, 15, None,
        "P@ row overrides are for the denumerable spin set",
        (),
        id="finite-P-at-rows",
    ),
    pytest.param(
        CHAIN_DOC.replace("1/3 2/3", "1/3 2/3 ;"),
        SpecSyntaxError, 13, None, "empty weight list", (),
        id="finite-P-empty-row",
    ),
    pytest.param(
        NAT_DOC.replace("P@0 =", "P@x ="),
        SpecSyntaxError, 11, None, "malformed key 'P@x'", (),
        id="nat-P-at-malformed",
    ),
    pytest.param(
        NAT_DOC.replace("P = geometric 1/2 1/2", "P = 1/2 ; 1/2"),
        SpecSyntaxError, 10, 5,
        "over the denumerable spin set P is the default row; "
        "give explicit rows as P@<q> lines", (),
        id="nat-P-rows-in-P",
    ),
    pytest.param(
        NAT_DOC.replace("P@0 =", "P@1 ="),
        SpecSemanticError, 11, None,
        "explicit rows must be consecutive from P@0; found P@1", (),
        id="nat-P-at-gap",
    ),
    pytest.param(
        NAT_DOC.replace("P@0 =", "P@0 = const 0\nP@0 ="),
        SpecSemanticError, 12, None,
        "explicit rows must be consecutive from P@0; found P@0", (),
        id="nat-P-at-twice",
    ),
    pytest.param(
        PRODUCT_DOC.replace("w = ", "P = 1\nw = "),
        SpecSemanticError, 11, None, "unknown key 'P' in [family]",
        ("kind", "w"),
        id="product-unknown-key",
    ),
    pytest.param(
        PRODUCT_DOC.replace("w = 1/3 1/3 1/3\n", ""),
        SpecSemanticError, None, None, "[family] is missing key 'w'", (),
        id="product-w-missing",
    ),
    pytest.param(
        PRODUCT_DOC.replace("w@1", "w@1x"),
        SpecSyntaxError, 12, None, "malformed key 'w@1x'", (),
        id="product-w-at-malformed",
    ),
    pytest.param(
        PRODUCT_DOC + "w@1 = 1 1 1\n",
        SpecSemanticError, 13, None, "duplicate override w@1", (),
        id="product-w-at-twice",
    ),
    pytest.param(
        TABLE_DOC.replace("depth = 0", "depth = 0\nw = 1"),
        SpecSemanticError, 11, None, "unknown key 'w' in [family]",
        ("depth", "entry", "kind"),
        id="table-unknown-key",
    ),
    pytest.param(
        TABLE_DOC.replace("depth = 0\n", ""),
        SpecSemanticError, None, None, "[family] is missing key 'depth'", (),
        id="table-depth-missing",
    ),
    pytest.param(
        TABLE_DOC.replace("depth = 0", "depth = 1/2"),
        SpecSyntaxError, 10, 9, "not an integer: '1/2'", (),
        id="table-depth-not-integer",
    ),
    pytest.param(
        TABLE_DOC.replace("entry = 0 : 3/4\nentry = 1 : 1/4\n", ""),
        SpecSemanticError, None, None, "a table family needs at least one entry", (),
        id="table-no-entry",
    ),
    pytest.param(
        TABLE_DOC.replace("entry = 0 : 3/4", "entry = 0 3/4"),
        SpecSyntaxError, 11, 9, "entry format is: v0 v1 ... : weight", (),
        id="table-entry-format",
    ),
    pytest.param(
        TABLE_DOC.replace("entry = 0 : 3/4", "entry = : 3/4"),
        SpecSyntaxError, 11, 9, "entry has no values", (),
        id="table-entry-no-values",
    ),
    pytest.param(
        TABLE_DOC.replace("entry = 0 : 3/4", "entry = 0 x : 3/4"),
        SpecSyntaxError, 11, 11, "not an integer: 'x'", (),
        id="table-entry-not-integer",
    ),
    pytest.param(
        TABLE_DOC.replace("entry = 0 : 3/4", "entry = 0 : 3/4 1"),
        SpecSyntaxError, 11, 12, "entry weight must be a single rational", (),
        id="table-entry-two-weights",
    ),
    pytest.param(
        TABLE_DOC + "entry = 1 : 1/8\n",
        SpecSemanticError, 13, None, "duplicate entry for (1,)", (),
        id="table-entry-twice",
    ),
    pytest.param(
        CHAIN_DOC.replace("halves =", "Halves ="),
        SpecSemanticError, 16, None, "malformed cover name 'Halves'", (),
        id="cover-malformed-name",
    ),
    pytest.param(
        CHAIN_DOC + 'halves = list "x0=0"\n',
        SpecSemanticError, 17, None, "duplicate cover 'halves'", (),
        id="cover-twice",
    ),
    # _parse_weight_spec and its rationals
    pytest.param(
        NAT_DOC.replace("const 1", "const 1 2"),
        SpecSyntaxError, 9, 10, "const takes exactly one rational", (),
        id="weights-const-arity",
    ),
    pytest.param(
        NAT_DOC.replace("P = geometric 1/2 1/2", "P = geometric 1/2"),
        SpecSyntaxError, 10, 5, "geometric takes a coefficient and a ratio", (),
        id="weights-geometric-arity",
    ),
    pytest.param(
        NAT_DOC.replace("then geometric 1/4 1/2", "geometric 1/4 1/2"),
        SpecSyntaxError, 11, 7, "prefix form needs 'then <tail>'", (),
        id="weights-prefix-no-then",
    ),
    pytest.param(
        NAT_DOC.replace("prefix 1/4 1/4 then", "prefix then"),
        SpecSyntaxError, 11, 7, "prefix form needs at least one value", (),
        id="weights-prefix-no-value",
    ),
    pytest.param(
        NAT_DOC.replace("then geometric 1/4 1/2", "then 1/4"),
        SpecSyntaxError, 11, 22, "tail after 'then' must be const or geometric", (),
        id="weights-prefix-tail",
    ),
    pytest.param(
        CHAIN_DOC.replace("lambda = 1/2 1/2", "lambda = 1/2 1/0"),
        SpecSyntaxError, 12, 14, "zero denominator", (),
        id="weights-zero-denominator",
    ),
    pytest.param(
        CHAIN_DOC.replace("lambda = 1/2 1/2", "lambda = 1/2 0.5"),
        SpecSyntaxError, 12, 14, "decimal numbers are not allowed; use integers or p/q",
        (),
        id="weights-decimal",
    ),
    pytest.param(
        CHAIN_DOC.replace("lambda = 1/2 1/2", "lambda = 1/2 1/2x"),
        SpecSyntaxError, 12, 14, "not a rational: '1/2x'", (),
        id="weights-not-rational",
    ),
    # _parse_cover_spec
    pytest.param(
        NAT_DOC.replace("slice x0\n", "slice x0 block\n"),
        SpecSyntaxError, 14, 9, "slice cover format: slice x<site> [block <n>]", (),
        id="slice-arity",
    ),
    pytest.param(
        NAT_DOC.replace("slice x0\n", "slice x0 blok 2\n"),
        SpecSyntaxError, 14, 18, "unexpected 'blok'",
        ("block",),
        id="slice-not-block",
    ),
    pytest.param(
        NAT_DOC.replace("slice x0\n", "slice y0\n"),
        SpecSyntaxError, 14, 15, "not a site: 'y0'",
        ("x<vertex>",),
        id="slice-not-site",
    ),
    pytest.param(
        NAT_DOC.replace("slice x0\n", "slice x0 block 0\n"),
        SpecSemanticError, 14, 24, "block must be >= 1", (),
        id="slice-block-zero",
    ),
    pytest.param(
        NAT_DOC.replace("slice x0\n", "slice x0 block two\n"),
        SpecSyntaxError, 14, 24, "not an integer: 'two'", (),
        id="slice-block-not-integer",
    ),
    pytest.param(
        NAT_DOC.replace("roots = slice x0", "roots = grid x0"),
        SpecSyntaxError, 14, 9, "unexpected 'grid'",
        ("slice", "list"),
        id="cover-unknown-form",
    ),
    # _parse_quoted_events
    pytest.param(
        CHAIN_DOC.replace('list "x0=0"', 'list ; "x0=0"'),
        SpecSyntaxError, 16, 15, "expected a quoted event before ';'", (),
        id="list-semicolon-first",
    ),
    pytest.param(
        CHAIN_DOC.replace('"x0=1"', '"x0=1" x'),
        SpecSyntaxError, 16, 31, "unexpected character 'x'",
        ('"', "';'"),
        id="list-bad-character",
    ),
    pytest.param(
        CHAIN_DOC.replace('"x0=0" ;', '"x0=0"'),
        SpecSyntaxError, 16, 22, "events must be separated by ';'", (),
        id="list-no-separator",
    ),
    pytest.param(
        CHAIN_DOC.replace('"x0=1"', '"x0=1'),
        SpecSyntaxError, 16, 24, "unterminated event quote", (),
        id="list-unterminated",
    ),
    pytest.param(
        CHAIN_DOC.replace('"x0=1"', '"x0=1" ;'),
        SpecSyntaxError, 16, 32, "cover list ended without an event", (),
        id="list-trailing-semicolon",
    ),
    pytest.param(
        CHAIN_DOC.replace('"x0=1"', '"x0=1 &"'),
        SpecSyntaxError, 16, 31, "unexpected end of input",
        ("a site like x0", "'('", "'!'"),
        id="list-event-error",
    ),
    # two faults in one document: the one reported comes first
    pytest.param(
        CHAIN_DOC.replace("k = 2", "k2 = 2"),
        SpecSemanticError, 3, None, "unknown key 'k2' in [tree]",
        ("k", "max_depth"),
        id="two-unknown-key-and-k-missing",
    ),
    pytest.param(
        CHAIN_DOC.replace("k = 2", "k = 0\nmax_depth = 1"),
        SpecSemanticError, 3, 5, "k must be >= 1", (),
        id="two-k-zero-and-max-depth-twice",
    ),
    pytest.param(
        CHAIN_DOC.replace("1/2 1/2", "0.5 0.5").replace("P = 2/3 1/3 ; 1/3 2/3\n", ""),
        SpecSyntaxError, 12, 10, "decimal numbers are not allowed; use integers or p/q",
        (),
        id="two-lambda-decimal-and-P-missing",
    ),
    pytest.param(
        CHAIN_DOC.replace("kind = markov-prob", "weight = 1"),
        SpecSemanticError, None, None, "[family] is missing key 'kind'", (),
        id="two-family-unknown-key-and-kind-missing",
    ),
    pytest.param(
        NAT_DOC.replace("kind = nat", "kind = nat\nsize = 0"),
        SpecSemanticError, 6, 8, "size is only for finite spins", (),
        id="two-size-zero-on-nat",
    ),
    pytest.param(
        NAT_DOC.replace("P = geometric 1/2 1/2", "P = 0.5").replace("P@0 =", "P@x ="),
        SpecSyntaxError, 11, None, "malformed key 'P@x'", (),
        id="two-P-at-malformed-and-P-decimal",
    ),
    pytest.param(
        NAT_DOC.replace("const 1", "0.5").replace("P@0 =", "P@x ="),
        SpecSyntaxError, 9, 10, "decimal numbers are not allowed; use integers or p/q",
        (),
        id="two-P-at-malformed-and-lambda-decimal",
    ),
    pytest.param(
        PRODUCT_DOC + "w@1 = 1 1 1\nw@x = 1 1 1\n",
        SpecSemanticError, 13, None, "duplicate override w@1", (),
        id="two-w-at-twice-then-malformed",
    ),
    pytest.param(
        PRODUCT_DOC.replace("w@1 = 1/2", "w@1 = 0.5") + "w@x = 1 1 1\n",
        SpecSyntaxError, 12, 7,
        "decimal numbers are not allowed; use integers or p/q", (),
        id="two-w-at-decimal-then-malformed",
    ),
    pytest.param(
        TABLE_DOC.replace("depth = 0", "depth = x").replace(
            "entry = 0 : 3/4\nentry = 1 : 1/4\n", ""
        ),
        SpecSyntaxError, 10, 9, "not an integer: 'x'", (),
        id="two-depth-not-integer-and-no-entry",
    ),
    pytest.param(
        CHAIN_DOC.replace("halves = list", "Halves = grid"),
        SpecSemanticError, 16, None, "malformed cover name 'Halves'", (),
        id="two-cover-name-and-bad-cover",
    ),

]


@pytest.mark.parametrize("text, exc, line, col, message, expected", DOCUMENT_ERRORS)
def test_document_errors_pinned(text, exc, line, col, message, expected):
    with pytest.raises(SpecError) as err:
        parse_document(text)
    got = err.value
    assert (type(got), got.message, got.line, got.col, got.expected) == (
        exc, message, line, col, expected
    )


def test_error_rendering_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_document(CHAIN_DOC.replace("1/2 1/2", "1/2 0.5"))
    msg = str(err.value)
    assert "line" in msg and "col" in msg
    with pytest.raises(SpecSemanticError) as err:
        parse_document(CHAIN_DOC.replace("kind = finite", "kind = spins"))
    assert "expected one of" in str(err.value)


def test_comments_and_whitespace_tolerated():
    noisy = CHAIN_DOC.replace("k = 2", "  k   =   2   # three branches")
    assert parse_document(noisy) == parse_document(CHAIN_DOC)
    # '#' inside a quoted event is content, not a comment
    doc = parse_document(
        CHAIN_DOC.replace('halves = list "x0=0" ; "x0=1"',
                          'halves = list "x0=0" ; "x0=1" # split')
    )
    assert doc == parse_document(CHAIN_DOC)


def test_lower_event_checks_hand_built_values(ctx_k2s2):
    # parsed atoms hold sorted values; a hand-built one may hold them in any
    # order, and an out-of-range value must still be refused
    for values in [(1, 2, 0), (0, -1, 1), (-1,)]:
        with pytest.raises(SpinRangeError):
            lower_event(ctx_k2s2, EventAtom(0, "in", values))
    cyl = lower_event(ctx_k2s2, EventAtom(0, "in", (1, 0)))
    assert cyl.semantic_equal(compile_event(ctx_k2s2, "x0 in {0, 1}"))


def test_event_nesting_limit_counts_the_open_path():
    open_path = "(" * 100 + "!" * (MAX_EVENT_NESTING - 100)
    assert parse_event(open_path + "x0=1" + ")" * 100) is not None
    # siblings do not add up: each path holds its own opens
    deepest = "(" * MAX_EVENT_NESTING + "x0=1" + ")" * MAX_EVENT_NESTING
    assert parse_event(" & ".join([deepest] * 3)) == EventAnd((EventAtom(0, "in", (1,)),) * 3)
    with pytest.raises(SpecSyntaxError) as err:
        parse_event("!" + open_path + "x0=1" + ")" * 100)
    assert "nest" in str(err.value)
    assert (err.value.line, err.value.col) == (1, MAX_EVENT_NESTING + 1)


def test_family_errors_carry_the_library_message(ctx_k2s2):
    ctx = ctx_k2s2
    with pytest.raises(ValueError) as lib:
        TransitionKernel.from_matrix(ctx.spins, [[F(2, 3), F(1, 3)]])
    with pytest.raises(SpecSemanticError) as err:
        load_spec(CHAIN_DOC.replace("2/3 1/3 ; 1/3 2/3", "2/3 1/3"))
    assert err.value.message == f"P: {lib.value}"
    with pytest.raises(SpinRangeError) as lib:
        table_family(ctx, 0, {(3,): F(1)})
    with pytest.raises(SpecSemanticError) as err:
        load_spec(TABLE_DOC.replace("entry = 1 : 1/4", "entry = 3 : 1/4"))
    assert err.value.message == f"table: {lib.value}"


@pytest.mark.parametrize("call", [
    lambda ctx: render_event(object()),
    lambda ctx: lower_event(ctx, object()),
], ids=["render", "lower"])
def test_public_guards_raise_their_documented_error(ctx_k2s2, call):
    with pytest.raises(TypeError, match=r"^not an event tree: <object object at 0x"):
        call(ctx_k2s2)
