"""Plain-text description format for trees, families, covers, and events.

Documents are line-oriented with [section] headers and `key = value` lines;
`_KEYS` lists each section's keys.  Events are boolean expressions over
per-site constraints ("x0=1 & x4 in {0,2}") and the words omega and empty;
their text is ASCII and nests at most MAX_EVENT_NESTING levels of '(' and
'!'.  All numbers are integers or rationals p/q; decimals are rejected, as
are integers past the interpreter's digit limit.  Parsing reports the line
and mostly the column; a missing section or key has no position, nor do the
family contents that the library's constructors check.  Rendering a parsed
document produces a canonical form whose re-parse equals the original
parse; `render_value` lifts the digit limit, so a hand-built document may
render to text that the parser refuses.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .cylinder import (
    Context,
    CylinderSet,
    SpinSet,
    SiteConstraint,
    c_intersect,
    c_normalize,
    c_render,
    constraint_from_runs,
    from_constraints,
    render_atom,
)
from .errors import SpecSemanticError, SpecSyntaxError, TreeMeasureError
from .measure import (
    MeasureFamily,
    NatSeq,
    TransitionKernel,
    as_weights,
    markov_family,
    product_family,
    render_value,
    table_family,
)
from .tree import DEFAULT_MAX_DEPTH, TreeGeometry

# '(' and '!' an event may hold open at once; deeper text is a syntax error,
# so neither the parser nor the walks over its trees exhaust the stack
MAX_EVENT_NESTING = 200


_INT_RE = re.compile(r"[0-9]+")


def _int(text: str, line: int, col: int) -> int:
    """Decimal digits -> int."""
    if not _INT_RE.fullmatch(text):
        raise SpecSyntaxError(f"not an integer: {text!r}", line, col)
    return _digits_int(text, line, col)


def _digits_int(digits: str, line: int, col: int) -> int:
    """Text already known to be decimal digits -> int: the one place spec
    text becomes a number.  A literal the interpreter refuses to convert is a
    syntax error too."""
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise SpecSyntaxError(
            f"a {len(digits)}-digit number is past the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits", line, col,
        ) from None


# ---------------------------------------------------------------------------
# event expressions


@dataclass(frozen=True)
class EventAtom:
    site: int
    mode: str  # "in" | "notin"
    values: tuple[int, ...]  # sorted, deduplicated
    # the parsed constraint, which lists `values`; None on an atom built or
    # `replace`d by hand, which is read from `values`
    _constraint: SiteConstraint | None = field(
        default=None, init=False, compare=False, repr=False
    )


@dataclass(frozen=True)
class EventNot:
    inner: object


@dataclass(frozen=True)
class EventAnd:
    parts: tuple


@dataclass(frozen=True)
class EventOr:
    parts: tuple


# An event token is (kind, text, pos): kind "site", "int", "sym", "name" or
# "end", pos its offset in the text.  No other kind of token has the text of a
# symbol or a name, so the parser tells those by their text alone.  Blanks
# before a token are skipped; no blank is `bad`, so trailing ones match nothing.
_EVENT_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<sym>\.\.|[&|!(){},=])"
    r"|(?P<site>x[0-9]+)"
    r"|(?P<decimal>[0-9]+\.(?!\.))"
    r"|(?P<int>[0-9]+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<bad>[^ \t\r\n]))"
)


class _EventParser:
    def __init__(self, text: str, line_base: int, col_base: int):
        self.text, self.line_base, self.col_base = text, line_base, col_base
        self.toks = toks = [
            (m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
            for m in _EVENT_TOKEN_RE.finditer(text)
        ]
        for kind, word, pos in toks:
            if kind == "decimal":
                raise self.error("decimal numbers are not allowed; use integers or p/q", pos)
            if kind == "bad":
                raise self.error(f"unexpected character {word!r}", pos)
        toks.append(("end", "", len(text)))
        self.pos = 0
        self.depth = 0  # '(' and '!' open on the current path

    def where(self, pos: int) -> tuple[int, int]:
        """The line and column of offset `pos` in the text: only a line break
        starts a line, and the first line starts at column col_base."""
        nl = self.text.rfind("\n", 0, pos)
        if nl < 0:
            return self.line_base, self.col_base + pos
        return self.line_base + self.text.count("\n", 0, pos), pos - nl

    def error(self, message: str, pos: int, *expected: str) -> SpecSyntaxError:
        return SpecSyntaxError(message, *self.where(pos), expected=expected)

    def unexpected(self, tok: tuple, *expected: str) -> SpecSyntaxError:
        kind, text, pos = tok
        what = "end of input" if kind == "end" else repr(text)
        return self.error(f"unexpected {what}", pos, *expected)

    def take(self) -> tuple:
        tok = self.toks[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def accept(self, symbol: str) -> tuple | None:
        """Take the next token if it is `symbol`."""
        tok = self.toks[self.pos]
        if tok[1] == symbol:
            self.pos += 1
            return tok
        return None

    def expect_sym(self, symbol: str) -> None:
        tok = self.take()
        if tok[1] != symbol:
            raise self.unexpected(tok, repr(symbol))

    def expect_int(self) -> int:
        tok = self.take()
        if tok[0] != "int":
            raise self.unexpected(tok, "an integer")
        return _digits_int(tok[1], *self.where(tok[2]))

    def parse_expr(self):
        parts = [self.parse_term()]
        while self.accept("|"):
            parts.append(self.parse_term())
        return parts[0] if len(parts) == 1 else EventOr(tuple(parts))

    def parse_term(self):
        parts = [self.parse_factor()]
        while self.accept("&"):
            parts.append(self.parse_factor())
        return parts[0] if len(parts) == 1 else EventAnd(tuple(parts))

    def parse_factor(self):
        _, text, pos = self.toks[self.pos]
        if text not in ("!", "("):
            return self.parse_atom()
        if self.depth == MAX_EVENT_NESTING:
            raise self.error(
                f"events nest at most {MAX_EVENT_NESTING} levels of '(' and '!'", pos
            )
        self.pos += 1
        self.depth += 1
        if text == "!":
            inner = EventNot(self.parse_factor())
        else:
            inner = self.parse_expr()
            self.expect_sym(")")
        self.depth -= 1
        return inner

    def parse_atom(self):
        tok = self.take()
        kind, text, pos = tok
        if text in ("omega", "empty"):
            # the whole space and the empty set: the meet and the join of nothing
            return EventAnd(()) if text == "omega" else EventOr(())
        if kind != "site":
            raise self.unexpected(tok, "a site like x0", "'('", "'!'")
        site = _digits_int(text[1:], *self.where(pos + 1))
        op = self.take()
        if op[1] == "=":
            q = self.expect_int()
            mode, pairs = "in", [(q, q + 1)]
        elif op[1] in ("in", "notin"):
            mode, pairs = op[1], self.parse_set()
        else:
            raise self.unexpected(op, "'='", "'in'", "'notin'")
        if len(pairs) == 1:
            values = range(*pairs[0])
        else:
            values = itertools.chain.from_iterable(itertools.starmap(range, pairs))
            if any(a[1] > b[0] for a, b in zip(pairs, pairs[1:])):
                values = sorted(set(values))  # listed out of order, or twice
        atom = EventAtom(site, mode, tuple(values))
        object.__setattr__(atom, "_constraint", constraint_from_runs(mode, pairs))
        return atom

    def parse_set(self) -> list:
        """The values of a set literal as half-open pairs (lo, hi), one per
        `a..b` or value, in the order listed."""
        self.expect_sym("{")
        runs: list[tuple[int, int]] = []
        if self.accept("}"):
            return runs
        while True:
            lo = self.expect_int()
            tok = self.accept("..")
            if tok:
                hi = self.expect_int()
                if hi < lo:
                    raise self.error(f"range {lo}..{hi} runs downward", tok[2])
                runs.append((lo, hi + 1))
            else:
                runs.append((lo, lo + 1))
            if self.accept(","):
                continue
            self.expect_sym("}")
            return runs


def parse_event(text: str, line_base: int = 1, col_base: int = 1):
    """Event expression text -> syntax tree."""
    parser = _EventParser(text, line_base, col_base)
    ast = parser.parse_expr()
    kind, text, pos = parser.toks[parser.pos]
    if kind != "end":
        raise parser.error(f"unexpected trailing {text!r}", pos)
    return ast


def render_event(ast) -> str:
    """Canonical text for an event tree; parse(render(e)) == e."""
    return _render_event(ast, 0)


def _render_event(ast, level: int) -> str:
    if isinstance(ast, EventAtom):
        if ast._constraint is not None:
            return c_render(ast._constraint, ast.site)
        # hand-built: its values as they stand, in their order
        return render_atom(ast.site, ast.mode, [(q, q + 1) for q in ast.values])
    if isinstance(ast, EventNot):
        return "!(" + _render_event(ast.inner, 0) + ")"
    if isinstance(ast, (EventOr, EventAnd)):
        if not ast.parts:
            return "omega" if isinstance(ast, EventAnd) else "empty"
        sep, bind = (" | ", 1) if isinstance(ast, EventOr) else (" & ", 2)
        text = sep.join(_render_event(p, bind) for p in ast.parts)
        return f"({text})" if level >= bind else text
    raise TypeError(f"not an event tree: {ast!r}")


def _atom_constraint(ctx: Context, atom: EventAtom) -> SiteConstraint:
    """The atom's constraint, its site and extreme values checked against ctx."""
    ctx.tree.check_vertex(atom.site)
    # a parsed atom holds its values sorted, and its constraint; a
    # hand-built one may hold them in any order
    c, values = atom._constraint, atom.values
    if values:  # spins are contiguous from 0: the extremes decide
        ctx.spins.check(values[0] if c is not None else min(values))
        ctx.spins.check(values[-1] if c is not None else max(values))
    return SiteConstraint(atom.mode, values) if c is None else c


def lower_event(ctx: Context, ast) -> CylinderSet:
    """Event tree -> cylinder set over the given context.  A conjunction's
    leading atoms meet in one rectangle, and each later part is intersected
    with it in turn; a disjunction builds one union of its parts' rectangles.
    With no parts they are omega and the empty set."""
    if isinstance(ast, EventAtom):
        return from_constraints(ctx, {ast.site: _atom_constraint(ctx, ast)})
    if isinstance(ast, EventNot):
        return lower_event(ctx, ast.inner).complement()
    if isinstance(ast, EventAnd):
        parts = ast.parts
        n = 0
        while n < len(parts) and isinstance(parts[n], EventAtom):
            n += 1
        sites: dict = {}  # site -> normalized constraint; None allows every spin
        for p in parts[:n]:
            c = c_normalize(_atom_constraint(ctx, p), ctx.spins)
            if c is not None:
                prior = sites.get(p.site)
                sites[p.site] = c if prior is None else c_intersect(prior, c)
        out = from_constraints(ctx, sites) if n or not parts else lower_event(ctx, parts[0])
        for p in parts[max(n, 1):]:
            out = out.intersect(lower_event(ctx, p))
        return out
    if isinstance(ast, EventOr):
        return CylinderSet.build(
            ctx, [r for p in ast.parts for r in lower_event(ctx, p).rectangles]
        )
    raise TypeError(f"not an event tree: {ast!r}")


def compile_event(ctx: Context, text: str) -> CylinderSet:
    return lower_event(ctx, parse_event(text))


# ---------------------------------------------------------------------------
# weight specs (surface forms of finite weight lists and tailed sequences)


@dataclass(frozen=True)
class WeightSpec:
    """Surface form of a weight assignment.

    tail None is a plain list (a full list over finite spins; prefix with
    zero tail over the naturals); otherwise tail is ("const", c) or
    ("geometric", a, r).
    """

    values: tuple[Fraction, ...] = ()
    tail: tuple | None = None


# One word of a value.  A rational word, p or p/q with an optional '-', fills
# the groups sign, numerator and denominator; any other word fills none.
_WORD_RE = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?(?!\S)|\S+")
_DECIMAL_RE = re.compile(r"-?[0-9]+\.[0-9]+")


def _words(text: str, lo: int = 0, hi: int | None = None) -> list[re.Match]:
    """The words of text[lo:hi] as `_WORD_RE` matches, placed in `text`."""
    return list(_WORD_RE.finditer(text, lo, len(text) if hi is None else hi))


def _rational(word: re.Match, line: int, col0: int) -> Fraction:
    """A word of `_words` as a Fraction; col0 is the column of the text's
    first character."""
    sign, num, den = word.groups()
    col = col0 + word.start()
    if num is None:
        if _DECIMAL_RE.fullmatch(word.group()):
            raise SpecSyntaxError(
                "decimal numbers are not allowed; use integers or p/q", line, col
            )
        raise SpecSyntaxError(f"not a rational: {word.group()!r}", line, col)
    num = _digits_int(num, line, col + len(sign))
    den = 1 if den is None else _digits_int(den, line, col0 + word.start(3))
    if not den:
        raise SpecSyntaxError("zero denominator", line, col)
    return Fraction(-num if sign else num, den)


def _parse_weight_spec(words: list[re.Match], line: int, col0: int) -> WeightSpec:
    if not words:
        raise SpecSyntaxError("empty weight list", line)
    head, head_col = words[0].group(), col0 + words[0].start()
    if head == "const":
        if len(words) != 2:
            raise SpecSyntaxError("const takes exactly one rational", line, head_col)
        return WeightSpec((), ("const", _rational(words[1], line, col0)))
    if head == "geometric":
        if len(words) != 3:
            raise SpecSyntaxError(
                "geometric takes a coefficient and a ratio", line, head_col
            )
        a = _rational(words[1], line, col0)
        r = _rational(words[2], line, col0)
        return WeightSpec((), ("geometric", a, r))
    if head == "prefix":
        split = next((i for i, w in enumerate(words) if w.group() == "then"), None)
        if split is None:
            raise SpecSyntaxError("prefix form needs 'then <tail>'", line, head_col)
        if split == 1:
            raise SpecSyntaxError("prefix form needs at least one value", line, head_col)
        values = tuple([_rational(w, line, col0) for w in words[1:split]])
        tail = _parse_weight_spec(words[split + 1:], line, col0)
        if tail.values or tail.tail is None:
            where = col0 + words[split].start()
            raise SpecSyntaxError(
                "tail after 'then' must be const or geometric", line, where
            )
        return WeightSpec(values, tail.tail)
    return WeightSpec(tuple([_rational(w, line, col0) for w in words]), None)


def _render_weight_spec(ws: WeightSpec) -> str:
    if ws.tail is None:
        return " ".join(render_value(v) for v in ws.values)
    if ws.tail[0] == "const":
        tail = f"const {render_value(ws.tail[1])}"
    else:
        tail = f"geometric {render_value(ws.tail[1])} {render_value(ws.tail[2])}"
    if not ws.values:
        return tail
    return "prefix " + " ".join(render_value(v) for v in ws.values) + " then " + tail


def _checked(what: str, build, *args):
    """build(*args); the library's errors come back as spec errors naming
    `what`.  The library constructors are the only checks of family contents."""
    try:
        return build(*args)
    except (TreeMeasureError, ValueError) as exc:
        raise SpecSemanticError(f"{what}: {exc}") from None


def _build_weight(ws: WeightSpec, spins: SpinSet, what: str) -> NatSeq:
    if spins.is_finite and ws.tail is not None:
        raise SpecSemanticError(f"{what}: tail forms need the denumerable spin set")
    return _checked(what, lambda: as_weights(spins, NatSeq(ws.values, *(ws.tail or ()))))


# ---------------------------------------------------------------------------
# cover specs


@dataclass(frozen=True)
class SliceCoverSpec:
    site: int
    block: int


@dataclass(frozen=True)
class ListCoverSpec:
    events: tuple  # event syntax trees


# ---------------------------------------------------------------------------
# documents


@dataclass(frozen=True)
class SpecDocument:
    order: int
    max_depth: int
    spins_kind: str  # "finite" | "nat"
    spins_size: int | None
    family_kind: str
    lam: WeightSpec | None = None
    kernel_rows: tuple[WeightSpec, ...] = ()
    kernel_default: WeightSpec | None = None
    weight_default: WeightSpec | None = None
    weight_overrides: tuple[tuple[int, WeightSpec], ...] = ()
    table_depth: int | None = None
    entries: tuple[tuple[tuple[int, ...], Fraction], ...] = ()
    covers: tuple[tuple[str, object], ...] = ()


class _Line(NamedTuple):
    no: int
    key: str
    key_col: int
    value: str
    value_col: int


# a line up to its first '#' outside double quotes; an unclosed quote runs on
_CONTENT_RE = re.compile(r'(?:[^"#]+|"[^"]*(?:"|$))*')
_SECTION_RE = re.compile(r"\[([a-z][a-z-]*)\]")
_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_@-]*")
_COVER_NAME_RE = re.compile(r"[a-z][a-z0-9_-]*")


def _count(ln: _Line) -> int:
    """The line's value as an integer >= 1."""
    n = _int(ln.value, ln.no, ln.value_col)
    if n < 1:
        raise SpecSemanticError(f"{ln.key} must be >= 1", ln.no, ln.value_col)
    return n


def _weights(ln: _Line) -> WeightSpec:
    return _parse_weight_spec(_words(ln.value), ln.no, ln.value_col)


def _one_of(what: str, choices: tuple[str, ...]):
    def read(ln: _Line) -> str:
        if ln.value not in choices:
            raise SpecSemanticError(
                f"unknown {what} {ln.value!r}", ln.no, ln.value_col,
                expected=list(choices),
            )
        return ln.value
    return read


# The keys of each section in the order they are read: per key, whether it
# is required, optional, indexed (key@<n>, one line per index) or repeated,
# and the reader of its value (None leaves the lines to parse_document).
# [family] adds the keys of its kind; [covers], with no table, takes any
# cover name and is the one section that may be left out.
_MARKOV_KEYS = {
    "lambda": ("required", _weights), "P": ("required", None), "P@": ("indexed", None),
}
_FAMILY_KEYS = {
    "markov": _MARKOV_KEYS,
    "markov-prob": _MARKOV_KEYS,
    "product": {"w": ("required", _weights), "w@": ("indexed", _weights)},
    "table": {"depth": ("required", None), "entry": ("repeated", None)},
}
FAMILY_KINDS = tuple(_FAMILY_KEYS)
_KEYS = {
    "tree": {"k": ("required", _count), "max_depth": ("optional", _count)},
    "spins": {
        "kind": ("required", _one_of("spin kind", ("finite", "nat"))),
        "size": ("optional", None),
    },
    "family": {"kind": ("required", _one_of("family kind", FAMILY_KINDS))},
    "covers": None,
}
SECTIONS = tuple(_KEYS)


def _scan_lines(text: str) -> dict[str, list[_Line]]:
    sections: dict[str, list[_Line]] = {}
    lines: list[_Line] | None = None  # the current section's
    for no, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = _CONTENT_RE.match(raw).group()
        stripped = raw.lstrip()
        if not stripped:
            continue
        indent = len(raw) - len(stripped)
        stripped = stripped.rstrip()
        if stripped[0] == "[":
            m = _SECTION_RE.fullmatch(stripped)
            if not m:
                raise SpecSyntaxError("malformed section header", no, indent + 1)
            name = m.group(1)
            if name not in SECTIONS:
                raise SpecSemanticError(
                    f"unknown section [{name}]", no, indent + 1,
                    expected=[f"[{s}]" for s in SECTIONS],
                )
            if name in sections:
                raise SpecSemanticError(f"duplicate section [{name}]", no, indent + 1)
            sections[name] = lines = []
            continue
        if lines is None:
            raise SpecSyntaxError(
                "content before any section header", no, indent + 1,
                expected=[f"[{s}]" for s in SECTIONS],
            )
        key, eq, rest = stripped.partition("=")
        if not eq:
            raise SpecSyntaxError("expected key = value", no, indent + 1)
        eq = indent + len(key)  # the '=' at col eq + 1
        key = key.rstrip()
        if not _KEY_RE.fullmatch(key):
            raise SpecSyntaxError(f"malformed key {key!r}", no, indent + 1)
        value = rest.lstrip()
        if not value:
            raise SpecSyntaxError(f"key {key!r} has no value", no, eq + 2)
        value_col = eq + 2 + (len(rest) - len(value))
        lines.append(_Line(no, key, indent + 1, value, value_col))
    return sections


def _read_keys(lines: list[_Line], keys: dict, section: str) -> dict:
    """Per key of the table `keys`, in its order: the value read, else the
    line; for an indexed key {index: value} or [(index, line)] in line order;
    for a repeated key its lines.  An absent optional key has no entry."""
    found: dict[str, list[_Line]] = {}
    for ln in lines:
        base, at, _ = ln.key.partition("@")
        name = ln.key if ln.key in keys else base + at
        if name not in keys:
            raise SpecSemanticError(
                f"unknown key {ln.key!r} in [{section}]", ln.no,
                expected=sorted({k.rstrip("@") for k in keys}),
            )
        found.setdefault(name, []).append(ln)
    values = {}
    for key, (how, read) in keys.items():
        lns = found.get(key, [])
        if how == "indexed":
            values[key] = {} if read else []
            for ln in lns:
                suffix = ln.key[len(key):]
                if not _INT_RE.fullmatch(suffix):
                    raise SpecSyntaxError(f"malformed key {ln.key!r}", ln.no)
                index = _digits_int(suffix, ln.no, ln.key_col + len(key))
                if read is None:
                    values[key].append((index, ln))
                elif index in values[key]:
                    raise SpecSemanticError(f"duplicate override {ln.key}", ln.no)
                else:
                    values[key][index] = read(ln)
        elif how == "repeated":
            values[key] = lns
        elif len(lns) > 1:
            raise SpecSemanticError(
                f"key {key!r} given more than once in [{section}]", lns[1].no
            )
        elif lns:
            values[key] = read(lns[0]) if read else lns[0]
        elif how == "required":
            raise SpecSemanticError(f"[{section}] is missing key {key!r}")
    return values


def parse_document(text: str) -> SpecDocument:
    sections = _scan_lines(text)
    for name, keys in _KEYS.items():
        if keys is not None and name not in sections:
            raise SpecSemanticError(f"missing section [{name}]")
    tree = _read_keys(sections["tree"], _KEYS["tree"], "tree")
    spins = _read_keys(sections["spins"], _KEYS["spins"], "spins")
    size_line = spins.get("size")
    if spins["kind"] == "finite" and size_line is None:
        raise SpecSemanticError("[spins] kind finite needs size")
    if spins["kind"] == "nat" and size_line is not None:
        raise SpecSemanticError(
            "size is only for finite spins", size_line.no, size_line.value_col
        )
    spins_size = None if size_line is None else _count(size_line)

    # the kind decides the other keys, so it is read first, alone
    fam_lines = sections["family"]
    kind_lines = [ln for ln in fam_lines if ln.key == "kind"]
    family_kind = _read_keys(kind_lines, _KEYS["family"], "family")["kind"]
    keys = {**_KEYS["family"], **_FAMILY_KEYS[family_kind]}
    fam = _read_keys(fam_lines, keys, "family")
    fields = {}  # the SpecDocument fields of the family's kind
    if family_kind in ("markov", "markov-prob"):
        p_line = fam["P"]
        row_lines = sorted(fam["P@"], key=lambda row: row[0])
        rows = []
        if spins["kind"] == "finite":
            if row_lines:
                raise SpecSemanticError(
                    "P@ row overrides are for the denumerable spin set",
                    row_lines[0][1].no,
                )
            lo = 0
            for part in p_line.value.split(";"):
                words = _words(p_line.value, lo, lo + len(part))
                rows.append(_parse_weight_spec(words, p_line.no, p_line.value_col))
                lo += len(part) + 1
        else:
            if ";" in p_line.value:
                raise SpecSyntaxError(
                    "over the denumerable spin set P is the default row; "
                    "give explicit rows as P@<q> lines",
                    p_line.no, p_line.value_col,
                )
            fields["kernel_default"] = _weights(p_line)
            for want, (got, ln) in enumerate(row_lines):
                if got != want:
                    raise SpecSemanticError(
                        f"explicit rows must be consecutive from P@0; found P@{got}",
                        ln.no,
                    )
                rows.append(_weights(ln))
        fields.update(lam=fam["lambda"], kernel_rows=tuple(rows))
    elif family_kind == "product":
        fields.update(
            weight_default=fam["w"], weight_overrides=tuple(sorted(fam["w@"].items()))
        )
    else:  # table
        depth = fam["depth"]
        fields["table_depth"] = _int(depth.value, depth.no, depth.value_col)
        if not fam["entry"]:
            raise SpecSemanticError("a table family needs at least one entry")
        entries: dict[tuple[int, ...], Fraction] = {}
        for ln in fam["entry"]:
            left, colon, right = ln.value.partition(":")
            if not colon:
                raise SpecSyntaxError(
                    "entry format is: v0 v1 ... : weight", ln.no, ln.value_col
                )
            key_words = _words(ln.value, 0, len(left))
            if not key_words:
                raise SpecSyntaxError("entry has no values", ln.no, ln.value_col)
            key = tuple([_int(w.group(), ln.no, ln.value_col + w.start()) for w in key_words])
            weight_words = _words(ln.value, len(left) + 1)
            if len(weight_words) != 1:
                right_col = ln.value_col + len(left) + 1
                raise SpecSyntaxError(
                    "entry weight must be a single rational", ln.no, right_col
                )
            weight = _rational(weight_words[0], ln.no, ln.value_col)
            if key in entries:
                raise SpecSemanticError(f"duplicate entry for {key}", ln.no)
            entries[key] = weight
        fields["entries"] = tuple(sorted(entries.items()))

    covers: dict[str, object] = {}
    for ln in sections.get("covers", []):
        if not _COVER_NAME_RE.fullmatch(ln.key):
            raise SpecSemanticError(f"malformed cover name {ln.key!r}", ln.no)
        if ln.key in covers:
            raise SpecSemanticError(f"duplicate cover {ln.key!r}", ln.no)
        covers[ln.key] = _parse_cover_spec(ln)

    return SpecDocument(
        order=tree["k"],
        max_depth=tree.get("max_depth", DEFAULT_MAX_DEPTH),
        spins_kind=spins["kind"],
        spins_size=spins_size,
        family_kind=family_kind,
        covers=tuple(covers.items()),
        **fields,
    )


def _parse_cover_spec(ln: _Line):
    words = [(w.group(), ln.value_col + w.start()) for w in _words(ln.value)]
    head, head_col = words[0]
    if head == "slice":
        if len(words) not in (2, 4):
            raise SpecSyntaxError(
                "slice cover format: slice x<site> [block <n>]", ln.no, head_col
            )
        site_word, site_col = words[1]
        if site_word[:1] != "x" or not _INT_RE.fullmatch(site_word[1:]):
            raise SpecSyntaxError(
                f"not a site: {site_word!r}", ln.no, site_col, expected=["x<vertex>"]
            )
        site = _digits_int(site_word[1:], ln.no, site_col + 1)
        block = 1
        if len(words) == 4:
            if words[2][0] != "block":
                raise SpecSyntaxError(
                    f"unexpected {words[2][0]!r}", ln.no, words[2][1],
                    expected=["block"],
                )
            block = _int(words[3][0], ln.no, words[3][1])
            if block < 1:
                raise SpecSemanticError("block must be >= 1", ln.no, words[3][1])
        return SliceCoverSpec(site, block)
    if head == "list":
        return ListCoverSpec(tuple(_parse_quoted_events(ln)))
    raise SpecSyntaxError(
        f"unexpected {head!r}", ln.no, head_col, expected=["slice", "list"]
    )


_LIST_TOKEN_RE = re.compile(
    r'(?P<space>[ \t]+)|"(?P<event>[^"]*)"|(?P<quote>")|(?P<semi>;)|(?P<bad>.)', re.DOTALL
)


def _parse_quoted_events(ln: _Line):
    text = ln.value
    events = []
    expecting = True
    for m in _LIST_TOKEN_RE.finditer(text, text.index("list") + 4):
        kind, col = m.lastgroup, ln.value_col + m.start()
        if kind == "space":
            continue
        if kind == "semi":
            if expecting:
                raise SpecSyntaxError("expected a quoted event before ';'", ln.no, col)
            expecting = True
        elif kind == "bad":
            raise SpecSyntaxError(
                f"unexpected character {m.group()!r}", ln.no, col, expected=['"', "';'"]
            )
        elif not expecting:
            raise SpecSyntaxError("events must be separated by ';'", ln.no, col)
        elif kind == "quote":
            raise SpecSyntaxError("unterminated event quote", ln.no, col)
        else:
            events.append(parse_event(m.group("event"), ln.no, col + 1))
            expecting = False
    if expecting:
        raise SpecSyntaxError(
            "cover list ended without an event", ln.no, ln.value_col + len(text)
        )
    return events


# ---------------------------------------------------------------------------
# canonical rendering


def render_document(doc: SpecDocument) -> str:
    out = ["[tree]", f"k = {render_value(doc.order)}",
           f"max_depth = {render_value(doc.max_depth)}", ""]
    out.append("[spins]")
    out.append(f"kind = {doc.spins_kind}")
    if doc.spins_kind == "finite":
        out.append(f"size = {render_value(doc.spins_size)}")
    out.append("")
    out.append("[family]")
    out.append(f"kind = {doc.family_kind}")
    if doc.family_kind in ("markov", "markov-prob"):
        out.append(f"lambda = {_render_weight_spec(doc.lam)}")
        if doc.spins_kind == "finite":
            rows = " ; ".join(_render_weight_spec(r) for r in doc.kernel_rows)
            out.append(f"P = {rows}")
        else:
            out.append(f"P = {_render_weight_spec(doc.kernel_default)}")
            for q, row in enumerate(doc.kernel_rows):
                out.append(f"P@{q} = {_render_weight_spec(row)}")
    elif doc.family_kind == "product":
        out.append(f"w = {_render_weight_spec(doc.weight_default)}")
        for vertex, ws in doc.weight_overrides:
            out.append(f"w@{render_value(vertex)} = {_render_weight_spec(ws)}")
    else:
        out.append(f"depth = {render_value(doc.table_depth)}")
        for key, weight in doc.entries:
            values = " ".join(map(render_value, key))
            out.append(f"entry = {values} : {render_value(weight)}")
    if doc.covers:
        out.append("")
        out.append("[covers]")
        for name, spec in doc.covers:
            if isinstance(spec, SliceCoverSpec):
                block = f" block {render_value(spec.block)}" if spec.block != 1 else ""
                out.append(f"{name} = slice x{render_value(spec.site)}{block}")
            else:
                rendered = " ; ".join(f'"{render_event(e)}"' for e in spec.events)
                out.append(f"{name} = list {rendered}")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# building runtime objects


@dataclass
class BuiltSpec:
    doc: SpecDocument
    ctx: Context
    family: MeasureFamily
    covers: dict[str, Cover]


def _build_cover(ctx: Context, name: str, spec) -> Cover:
    # the sigma-finite layer loads only for a spec with [covers]
    from .sigma_finite import finite_cover, slice_cover

    if isinstance(spec, SliceCoverSpec):
        return slice_cover(ctx, spec.site, spec.block, label=name)
    return finite_cover([lower_event(ctx, e) for e in spec.events], label=name)


def build_document(doc: SpecDocument) -> BuiltSpec:
    tree = TreeGeometry(doc.order, doc.max_depth)
    spins = SpinSet.finite(doc.spins_size) if doc.spins_kind == "finite" else SpinSet.naturals()
    ctx = Context(tree, spins)

    if doc.family_kind in ("markov", "markov-prob"):
        lam = _build_weight(doc.lam, spins, "lambda")
        if spins.is_finite:
            rows = [
                _build_weight(row, spins, f"P row {q}").prefix
                for q, row in enumerate(doc.kernel_rows)
            ]
            kernel = _checked("P", TransitionKernel.from_matrix, spins, rows)
        else:
            default = _build_weight(doc.kernel_default, spins, "P")
            rows = [
                _build_weight(row, spins, f"P@{q}")
                for q, row in enumerate(doc.kernel_rows)
            ]
            kernel = TransitionKernel.for_naturals(default, rows)
        family = markov_family(ctx, lam, kernel)
        if doc.family_kind == "markov-prob" and family.kind != "probability":
            raise SpecSemanticError(
                "markov-prob requires unit row sums and unit total root weight"
            )
    elif doc.family_kind == "product":
        default = _build_weight(doc.weight_default, spins, "w")
        overrides = {}
        for vertex, ws in doc.weight_overrides:
            _checked(f"w@{vertex}", tree.check_vertex, vertex)
            overrides[vertex] = _build_weight(ws, spins, f"w@{vertex}")
        family = product_family(ctx, default, overrides)
    else:
        family = _checked("table", table_family, ctx, doc.table_depth, doc.entries)

    covers = {
        name: _checked(f"cover {name!r}", _build_cover, ctx, name, spec)
        for name, spec in doc.covers
    }
    return BuiltSpec(doc, ctx, family, covers)


def load_spec(text: str) -> BuiltSpec:
    """Parse and build in one step."""
    return build_document(parse_document(text))
