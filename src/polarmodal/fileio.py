"""Line-based file formats for frames, lattices, models and formulas.

All formats are UTF-8 text with `#` comments and whitespace-separated
tokens.  See the README for the full grammar; parse errors report the
line number.

Frame files::

    sorts A: a0 a1  B: b0 b1
    I: a0 b1 , a1 b0
    rel R sort 1;11 : a0 a0 a1 , a1 a1 a0

Lattice files::

    elems c0 c1 c2
    leq: c0 c0 , c0 c1 , c0 c2 , c1 c1 , c1 c2 , c2 c2
    op f type 1->1 table: c0 -> c0 , c1 -> c1 , c2 -> c2

Model files are frame files plus valuation lines `val P0 : a0 a1`
(modal variables P/Q, lattice variables p).  Assignment files hold
lines `p0 := <sort-d modal formula>`.  Formula and assignment files may
start with a signature line `sig: f 1,1->1 , g d->d`.
"""

from __future__ import annotations

from .errors import ParseError, PreconditionError, SortError
from .frames import (
    FiniteLattice, FiniteLatticeExpansion, Sort, SortedFrame, SortedRelation,
    SortingType,
)
from .semantics import LatticeModel, ModalModel
from .syntax import (
    _VAR_RE, _VAR_SORTS, EMPTY_SIGNATURE, MVar, Signature, modal_var_key, parse_modal,
)


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _groups(text: str, size: int | None = None, lineno: int = 0, message=None):
    """The comma-separated groups of `text`, each split on whitespace.

    Empty groups are dropped.  Given a `size`, every group must hold that
    many tokens; the first that does not is named in the ParseError
    `message(group)` at line `lineno`.
    """
    groups = list(filter(None, map(str.split, text.split(","))))
    if size is not None and set(map(len, groups)) - {size}:
        bad = next(g for g in groups if len(g) != size)
        raise ParseError(message(bad), lineno)
    return groups


def _fields(text: str, n: int) -> tuple[list[str], str]:
    """The first `n` whitespace-separated tokens of `text`, a comma being
    a token of its own, and the rest of the text after them as one
    string, for `_groups` or `str.split`."""
    tokens = text.replace(",", " , ").split(None, n)
    return tokens, tokens.pop() if len(tokens) > n else ""


# ----------------------------------------------------------------------
# Frames and models

def parse_frame_lines(text: str):
    """Shared scanner for frame and model files.

    Returns (points_a, points_b, incidence, relations, valuation_lines).
    """
    points_a = points_b = None
    incidence = []
    relations = {}
    val_lines = []
    for lineno, line in _lines(text):
        (head,), rest = _fields(line, 1)
        if head == "sorts":
            tokens = [head, *rest.split()]
            if points_a is not None:
                raise ParseError("repeated 'sorts' line", lineno)
            if tokens[1:2] != ["A:"] or tokens.count("A:") != 1 \
                    or tokens.count("B:") != 1:
                raise ParseError("expected 'sorts A: points  B: points'", lineno)
            bi = tokens.index("B:")
            points_a = tokens[2:bi]
            points_b = tokens[bi + 1:]
            if not points_a or not points_b:
                raise ParseError("both sorts must list at least one point", lineno)
            seen = set()
            for p in points_a + points_b:
                if p in seen:
                    raise ParseError(f"point {p!r} is listed twice", lineno)
                seen.add(p)
        elif head == "I:":
            incidence += map(tuple, _groups(rest, 2, lineno, lambda pair: (
                f"incidence entry {' '.join(pair)!r} is not a pair")))
        elif head == "rel":
            tokens, rest = _fields(line, 5)
            if len(tokens) < 5 or tokens[2] != "sort" or tokens[4] != ":":
                raise ParseError(
                    "expected 'rel NAME sort TYPE : tuples'", lineno)
            name = tokens[1]
            if name in relations:
                raise ParseError(f"relation {name!r} is defined twice", lineno)
            sorting = _on_line(lineno, 0, SortingType.parse, tokens[3])
            tuples = _groups(rest, sorting.arity + 1, lineno, lambda group: (
                f"relation {name}: tuple {' '.join(group)!r} has "
                f"arity {len(group) - 1}, expected {sorting.arity}"))
            relations[name] = SortedRelation(name, sorting,
                                             frozenset(map(tuple, tuples)))
        elif head == "val":
            val_lines.append((lineno, rest.split()))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if points_a is None:
        raise ParseError("missing 'sorts' line")
    return points_a, points_b, incidence, relations, val_lines


def load_frame(text: str) -> SortedFrame:
    points_a, points_b, incidence, relations, val_lines = parse_frame_lines(text)
    if val_lines:
        raise ParseError("frame file contains valuation lines; "
                         "load it as a model", val_lines[0][0])
    return SortedFrame(points_a, points_b, incidence, relations)


def _parse_valuations(val_lines):
    """The modal and lattice valuations, and each variable's line."""
    modal, lattice, lines = {}, {}, {}
    for lineno, tokens in val_lines:
        if len(tokens) < 2 or tokens[1] != ":":
            raise ParseError("expected 'val VAR : points'", lineno)
        var, points = tokens[0], frozenset(tokens[2:])
        m = _VAR_RE.match(var)
        if m is None:
            raise ParseError(f"bad valuation variable {var!r}", lineno)
        kind, digits = m.groups()
        if kind == "p":
            table, key = lattice, int(digits)
        else:
            table, key = modal, (_VAR_SORTS[kind], int(digits))
        if key in table:
            raise ParseError(f"variable {var!r} is valued twice", lineno)
        table[key] = points
        lines[key] = lineno
    return modal, lattice, lines


def _model(cls, frame, valuation, lines, *rest):
    """`cls(frame, valuation, *rest)`, an ill-sorted valuation reported at
    its `val` line: the model checks in order, so the first to fail alone."""
    try:
        return cls(frame, valuation, *rest)
    except SortError:
        for key, points in valuation.items():
            _on_line(lines[key], 0, cls, frame, {key: points}, *rest)
        raise


def load_model(text: str, close: bool = False):
    """Load a model file; returns (ModalModel | None, LatticeModel | None)."""
    points_a, points_b, incidence, relations, val_lines = parse_frame_lines(text)
    frame = SortedFrame(points_a, points_b, incidence, relations)
    modal, lattice, lines = _parse_valuations(val_lines)
    modal_model = _model(ModalModel, frame, modal, lines) \
        if modal or not lattice else None
    lattice_model = _model(LatticeModel, frame, lattice, lines, close) \
        if lattice else None
    return modal_model, lattice_model


def load_modal_model(text: str) -> ModalModel:
    """Load a model file's modal model.  Its lattice valuation, if any,
    must name points of A, but need not be Galois-stable."""
    modal_model, _ = load_model(text, close=True)
    if modal_model is None:
        raise PreconditionError("model file has no modal valuation lines")
    return modal_model


def dump_frame(frame: SortedFrame) -> str:
    out = [
        "sorts A: " + " ".join(sorted(frame.points_a))
        + "  B: " + " ".join(sorted(frame.points_b)),
        "I: " + " , ".join(f"{a} {b}" for a, b in sorted(frame.incidence)),
    ]
    for name in sorted(frame.relations):
        rel = frame.relations[name]
        body = " , ".join(" ".join(t) for t in sorted(rel.tuples))
        out.append(f"rel {name} sort {rel.sorting} : {body}")
    return "\n".join(out) + "\n"


def dump_modal_model(model: ModalModel) -> str:
    out = [dump_frame(model.frame).rstrip("\n")]
    for (sort, i) in sorted(model.valuation, key=modal_var_key):
        out.append(f"val {MVar(sort, i).name} : "
                   + " ".join(sorted(model.valuation[(sort, i)])))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# Lattices

def load_lattice_expansion(text: str) -> FiniteLatticeExpansion:
    elems = None
    leq = []
    ops = {}
    for lineno, line in _lines(text):
        if line.split()[0] == "op":
            # the distribution type holds commas, so split on whitespace
            # first and only comma-tokenize the table body
            raw = line.split()
            if len(raw) < 5 or raw[2] != "type" or raw[4] != "table:":
                raise ParseError("expected 'op NAME type DIST table: rows'",
                                 lineno)
            name = raw[1]
            if name in ops:
                raise ParseError(f"operator {name!r} is defined twice", lineno)
            dist = _on_line(lineno, 0, SortingType.parse_distribution, raw[3])
            table = {}
            for row in _groups(" ".join(raw[5:])):
                if len(row) != dist.arity + 2 or row[-2] != "->":
                    raise ParseError(
                        f"operator {name}: row {' '.join(row)!r} must be "
                        f"'{dist.arity} args -> value'", lineno)
                args = tuple(row[:dist.arity])
                if args in table:
                    raise ParseError(f"operator {name}: arguments "
                                     f"{' '.join(args)!r} have two rows", lineno)
                table[args] = row[-1]
            ops[name] = (dist, table)
            continue
        (head,), rest = _fields(line, 1)
        if head == "elems":
            if elems is not None:
                raise ParseError("repeated 'elems' line", lineno)
            elems = rest.split()
            if not elems:
                raise ParseError("elems line lists no elements", lineno)
            for x in elems:
                if elems.count(x) > 1:
                    raise ParseError(f"element {x!r} is listed twice", lineno)
        elif head == "leq:":
            leq += map(tuple, _groups(rest, 2, lineno, lambda pair: (
                f"leq entry {' '.join(pair)!r} is not a pair")))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if elems is None:
        raise ParseError("missing 'elems' line")
    lattice = FiniteLattice(elems, leq)
    return FiniteLatticeExpansion(lattice, ops)


# ----------------------------------------------------------------------
# Signatures, formulas and assignments

def parse_signature_line(line: str) -> Signature:
    """Parse the body of a `sig:` line: `f 1,1->1 , g d->d`.

    Commas inside distribution types separate input sorts; commas
    between entries (optionally space-separated) separate declarations.
    """
    tokens = []
    for tok in line.split():
        if tok == ",":
            continue
        if tok.endswith(",") and "->" in tok:
            tok = tok[:-1]
        tokens.append(tok)
    if len(tokens) % 2:
        raise ParseError("signature entries must be 'name type' pairs")
    mapping = {}
    for i in range(0, len(tokens), 2):
        if tokens[i] in mapping:
            raise ParseError(f"operator {tokens[i]!r} is declared twice")
        mapping[tokens[i]] = SortingType.parse_distribution(tokens[i + 1])
    return Signature.of(mapping)


def _on_line(lineno: int, offset: int, parse, *args):
    """Return `parse(*args)`, moving any error it raises to file line `lineno`.

    `parse` reads one line's text starting `offset` characters into the
    file line, so an error column is shifted by that much.
    """
    try:
        return parse(*args)
    except ParseError as e:
        column = None if e.column is None else e.column + offset
        raise ParseError(e.message, lineno, column) from None
    except SortError as e:
        raise ParseError(str(e), lineno) from None


def load_assignment(text: str, sig: Signature = EMPTY_SIGNATURE):
    """Assignment file: lines `p0 := <sort-d modal formula>`."""
    asg = {}
    raw_lines = text.splitlines()
    for lineno, line in _lines(text):
        if line.startswith("sig:"):
            sig = _on_line(lineno, 0, parse_signature_line, line[len("sig:"):])
            continue
        if ":=" not in line:
            raise ParseError("expected 'pN := formula'", lineno)
        var, _, body = line.partition(":=")
        var = var.strip()
        m = _VAR_RE.match(var)
        if m is None or m.group(1) != "p":
            raise ParseError(f"bad assignment variable {var!r}", lineno)
        index = int(m.group(2))
        if index in asg:
            raise ParseError(f"variable {var!r} is assigned twice", lineno)
        body_start = raw_lines[lineno - 1].index(":=") + 2
        beta = _on_line(lineno, body_start, parse_modal, body, sig)
        if beta.sort is not Sort.DEL:
            raise ParseError(f"assignment for {var} must have sort d", lineno)
        asg[index] = beta
    return asg, sig
