"""ASTs, parsers and printers for the three languages.

The lattice language has variables p0, p1, .., constants top/bot, /\\ and
\\/ and named operators.  The sorted modal language has P-variables on
sort 1, Q-variables on sort d, classical connectives on each sort, the
residuated boxes [b] (sort d -> 1) and [d] (sort 1 -> d), their diamond
duals <b> and <d>, and named sorted diamonds.  The sorted first-order
language has equality, the incidence atom I(u,v), relation and unary
predicate atoms, and sorted quantifiers all1/alld/ex1/exd.

All ASTs are immutable; parsers are pure and reentrant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

from .errors import ParseError, SortError
from .frames import Sort, SortingType


@dataclass(frozen=True)
class Signature:
    """Declared operator symbols with their sorts.

    A single declaration serves all three languages: one `SortingType`
    types the lattice operator, the sorted modal diamond of the same
    name, and the frame relation / FOL predicate.
    """

    operators: tuple[tuple[str, SortingType], ...] = ()

    def __post_init__(self):
        # a name is one word, and not one the FOL parser reads before the
        # signature: I(u, v) and the predicates P0(u), Q0(v), ..
        for name, _ in self.operators:
            var = _VAR_RE.match(name)
            if _WORD_RE.fullmatch(name) is None or name == "I" \
                    or var is not None and var.group(1) in _VAR_SORTS:
                raise ParseError(f"bad operator name {name!r}")

    @staticmethod
    def of(mapping) -> "Signature":
        return Signature(tuple(sorted(mapping.items())))

    def get(self, name: str) -> SortingType:
        for n, d in self.operators:
            if n == name:
                return d
        raise SortError(f"operator {name!r} not declared in signature")

    def names(self):
        return [n for n, _ in self.operators]

    def __contains__(self, name):
        return any(n == name for n, _ in self.operators)


EMPTY_SIGNATURE = Signature()


def _args(x, shape: tuple[str, dict]) -> tuple:
    """x's subformulas in order, read by `shape`: a language's name and its
    node classes, each mapped to a reader; a node of any other class raises."""
    read = shape[1].get(type(x))
    if read is None:
        raise SortError(f"unknown {shape[0]} node {x!r}")
    return read(x)


# ======================================================================
# Lattice language

class LatticeFormula:
    pass


@dataclass(frozen=True)
class LVar(LatticeFormula):
    index: int


@dataclass(frozen=True)
class LTop(LatticeFormula):
    pass


@dataclass(frozen=True)
class LBot(LatticeFormula):
    pass


@dataclass(frozen=True)
class LAnd(LatticeFormula):
    left: LatticeFormula
    right: LatticeFormula


@dataclass(frozen=True)
class LOr(LatticeFormula):
    left: LatticeFormula
    right: LatticeFormula


@dataclass(frozen=True)
class LApp(LatticeFormula):
    name: str
    args: tuple[LatticeFormula, ...]


_LATTICE_ARGS = "lattice", {
    **dict.fromkeys((LVar, LTop, LBot), lambda x: ()), LApp: attrgetter("args"),
    **dict.fromkeys((LAnd, LOr), attrgetter("left", "right"))}


def lattice_vars(phi: LatticeFormula) -> set[int]:
    if type(phi) is LVar:
        return {phi.index}
    return set().union(*map(lattice_vars, _args(phi, _LATTICE_ARGS)))


# ======================================================================
# Sorted modal language

class ModalFormula:
    sort: Sort
    _below = None  # `_listing`'s entries below this root, once built


def _require_sort(arg: ModalFormula, sort: Sort, ctx: str):
    if arg.sort is not sort:
        raise SortError(f"{ctx}: expected a sort-{sort} argument, got sort-{arg.sort}")


@dataclass(frozen=True)
class MVar(ModalFormula):
    sort: Sort
    index: int

    @property
    def name(self) -> str:
        return ("P" if self.sort is Sort.ONE else "Q") + str(self.index)


@dataclass(frozen=True)
class MConst(ModalFormula):
    sort: Sort
    truth: bool


# A connective's sort is its first argument's.  It is stored on the node,
# outside the dataclass fields (so not in `repr`, `==` or `hash`), so that
# reading it costs one lookup however long a chain of connectives is.

@dataclass(frozen=True)
class MNot(ModalFormula):
    arg: ModalFormula

    def __post_init__(self):
        object.__setattr__(self, "sort", self.arg.sort)


@dataclass(frozen=True)
class _MBinary(ModalFormula):
    """A binary connective: `_TOKEN` is its token."""

    left: ModalFormula
    right: ModalFormula

    def __post_init__(self):
        sort = self.left.sort
        _require_sort(self.right, sort, self._TOKEN)
        object.__setattr__(self, "sort", sort)


class MAnd(_MBinary):
    _TOKEN = "&"


class MOr(_MBinary):
    _TOKEN = "|"


class MImp(_MBinary):
    _TOKEN = "->"


@dataclass(frozen=True)
class _MModal(ModalFormula):
    """A box or diamond: `_ARG` is its argument's sort, `_TOKEN` its token."""

    arg: ModalFormula
    sort: Sort

    def __post_init__(self):
        _require_sort(self.arg, self._ARG, self._TOKEN)


@dataclass(frozen=True)
class MBbox(_MModal):
    """[b]: takes a sort-d formula to sort 1."""

    sort: Sort = Sort.ONE
    _ARG, _TOKEN = Sort.DEL, "[b]"


@dataclass(frozen=True)
class MDbox(_MModal):
    """[d]: takes a sort-1 formula to sort d."""

    sort: Sort = Sort.DEL
    _ARG, _TOKEN = Sort.ONE, "[d]"


@dataclass(frozen=True)
class MBdia(_MModal):
    """<b>: the diamond dual of [b] (sort d -> 1)."""

    sort: Sort = Sort.ONE
    _ARG, _TOKEN = Sort.DEL, "<b>"


@dataclass(frozen=True)
class MDdia(_MModal):
    """<d>: the diamond dual of [d] (sort 1 -> d)."""

    sort: Sort = Sort.DEL
    _ARG, _TOKEN = Sort.ONE, "<d>"


@dataclass(frozen=True)
class MApp(ModalFormula):
    """A named sorted diamond; sort profile fixed by the signature."""

    name: str
    sort: Sort
    args: tuple[ModalFormula, ...]


def mapp(sig: Signature, name: str, args) -> MApp:
    dist = sig.get(name)
    args = tuple(args)
    if len(args) != dist.arity:
        raise SortError(f"{name} expects {dist.arity} arguments, got {len(args)}")
    for j, (a, s) in enumerate(zip(args, dist.inputs)):
        _require_sort(a, s, f"{name} argument {j}")
    return MApp(name, dist.output, args)


def modal_var_key(v: tuple[Sort, int]):
    """The one order of modal variables: sort 1 first, then by index."""
    return v[0].value, v[1]


# only `_listing` reads it
_MODAL_ARGS = "modal", {
    MVar: lambda x: (), MConst: lambda x: (), MApp: attrgetter("args"),
    **dict.fromkeys(_MBinary.__subclasses__(), attrgetter("left", "right")),
    **dict.fromkeys((MNot, *_MModal.__subclasses__()), lambda x: (x.arg,))}


def _listing(theta: ModalFormula):
    """theta's distinct subformula objects in post-order, theta last, each
    as (node, the positions of its arguments in the listing).

    Every walk of a modal formula loops over this listing.  An explicit
    stack and a memo by id build it once per root, so no nesting depth
    reaches Python's recursion limit.  The entries below theta are kept on
    theta outside the dataclass fields (not in `repr`, `==` or `hash`), and
    its own is added per call, so that theta holds no reference to itself.
    """
    kept = theta._below
    if kept is None:
        at = {}  # by id: theta keeps every subformula alive meanwhile
        below = []
        put = below.append
        todo = [theta]
        while todo:
            x = todo.pop()
            if type(x) is tuple:  # a node whose arguments are all listed
                x, args = x
                at[id(x)] = len(below)
                if len(args) == 1:
                    put((x, (at[id(args[0])],)))
                elif len(args) == 2:
                    put((x, (at[id(args[0])], at[id(args[1])])))
                else:
                    put((x, tuple([at[id(a)] for a in args])))
            elif id(x) not in at:
                args = _args(x, _MODAL_ARGS)
                if args:
                    todo.append((x, args))
                    todo += reversed(args)  # the first argument listed first
                else:
                    at[id(x)] = len(below)
                    put((x, args))
        kept = below, below.pop()[1]
        object.__setattr__(theta, "_below", kept)
    below, at = kept
    return chain(below, ((theta, at),))


def modal_vars(theta: ModalFormula) -> set[tuple[Sort, int]]:
    """theta's variables as (sort, index), read from `_listing`."""
    return {(x.sort, x.index) for x, _ in _listing(theta) if type(x) is MVar}


def modal_depth(theta: ModalFormula) -> int:
    """The deepest nesting of boxes, diamonds and named diamonds in theta."""
    depth = []
    for x, at in _listing(theta):
        depth.append(isinstance(x, (_MModal, MApp))
                     + max(map(depth.__getitem__, at), default=0))
    return depth[-1]


# ======================================================================
# Sorted first-order language

@dataclass(frozen=True)
class FVar:
    name: str
    sort: Sort | None  # None on sort-reduced (unsorted) formulas


class FolFormula:
    pass


@dataclass(frozen=True)
class FEq(FolFormula):
    left: FVar
    right: FVar


@dataclass(frozen=True)
class FInc(FolFormula):
    """The incidence atom I(u, v)."""

    u: FVar
    v: FVar


@dataclass(frozen=True)
class FRelApp(FolFormula):
    name: str
    head: FVar
    args: tuple[FVar, ...]


@dataclass(frozen=True)
class FPred(FolFormula):
    """Unary predicate atom: P0(u), Q0(v), or a sorting guard U1/Ud."""

    name: str
    arg: FVar


@dataclass(frozen=True)
class FNot(FolFormula):
    arg: FolFormula


@dataclass(frozen=True)
class FAnd(FolFormula):
    left: FolFormula
    right: FolFormula


@dataclass(frozen=True)
class FOr(FolFormula):
    left: FolFormula
    right: FolFormula


@dataclass(frozen=True)
class FImp(FolFormula):
    left: FolFormula
    right: FolFormula


@dataclass(frozen=True)
class FForall(FolFormula):
    var: FVar
    body: FolFormula


@dataclass(frozen=True)
class FExists(FolFormula):
    var: FVar
    body: FolFormula


_ATOM_VARS = {FEq: attrgetter("left", "right"), FInc: attrgetter("u", "v"),
              FRelApp: lambda x: (x.head, *x.args), FPred: lambda x: (x.arg,)}


def _atom_vars(x: FolFormula) -> tuple[FVar, ...] | None:
    """An atom's variables in order, head first; None for a compound formula."""
    get = _ATOM_VARS.get(type(x))
    return None if get is None else get(x)


def _with_vars(x: FolFormula, vs) -> FolFormula:
    """Atom x over the variables vs, listed as `_atom_vars` lists x's."""
    if isinstance(x, FRelApp):
        head, *args = vs
        return FRelApp(x.name, head, tuple(args))
    if isinstance(x, FPred):
        return FPred(x.name, *vs)
    return type(x)(*vs)


# each quantifier's keyword, which the parser reads with its sort appended;
# a quantifier's subformula is its body
_QUANTIFIERS = {FForall: "all", FExists: "ex"}
_FOL_ARGS = "FOL", {
    **dict.fromkeys(_ATOM_VARS, lambda x: ()), FNot: lambda x: (x.arg,),
    **dict.fromkeys((FAnd, FOr, FImp), attrgetter("left", "right")),
    **dict.fromkeys(_QUANTIFIERS, lambda x: (x.body,))}


def _rebuild(x: FolFormula, go) -> FolFormula:
    """Compound node x over `go` of each of its subformulas."""
    if type(x) in _QUANTIFIERS:
        return type(x)(x.var, go(x.body))
    return type(x)(*map(go, _args(x, _FOL_ARGS)))


def fol_free_vars(phi: FolFormula) -> frozenset[FVar]:
    vs = _atom_vars(phi)
    if vs is not None:
        return frozenset(vs)
    free = frozenset().union(*map(fol_free_vars, _args(phi, _FOL_ARGS)))
    return free - {phi.var} if type(phi) in _QUANTIFIERS else free


def fol_all_var_names(phi: FolFormula) -> set[str]:
    vs = _atom_vars(phi)
    if vs is not None:
        return {v.name for v in vs}
    names = set().union(*map(fol_all_var_names, _args(phi, _FOL_ARGS)))
    return names | {phi.var.name} if type(phi) in _QUANTIFIERS else names


def fol_subst(phi: FolFormula, old: FVar, new: FVar) -> FolFormula:
    """Substitute free occurrences of `old` by `new`, capture-avoiding.

    A binder named like `new`, of either sort, with `old` free below it
    raises SortError; callers pick fresh names via `fol_all_var_names`.
    """
    vs = _atom_vars(phi)
    if vs is not None:
        return _with_vars(phi, [new if v == old else v for v in vs])
    if type(phi) in _QUANTIFIERS:
        if phi.var == old:
            return phi
        if phi.var.name == new.name and old in fol_free_vars(phi.body):
            raise SortError(f"substitution would capture {new.name}")
    return _rebuild(phi, lambda x: fol_subst(x, old, new))


# ======================================================================
# Tokenizer

# the token patterns in the order they are tried; a word is a name
_WORD = r"[A-Za-z_][A-Za-z0-9_*']*"
_TOKEN_PATTERNS = (r"/\\", r"\\/", r"->", r"\[b\]", r"\[d\]", r"<b>", r"<d>",
                   r"[()~&|,.=]", _WORD)
_TOKENS_RE = re.compile("|".join(_TOKEN_PATTERNS))
_SCAN_RE = re.compile(r"(\s+)|" + "|".join(_TOKEN_PATTERNS))
_WORD_RE = re.compile(_WORD)


def _scan(text: str) -> list[tuple[str, int, int]]:
    """Each token of `text` with its line and column, both from 1.

    This is the position-tracking scanner: a step per token or run of
    whitespace.  It raises ParseError at the first character that starts
    no token.  The parsers call it only to place an error.
    """
    tokens = []
    pos = 0
    line = 1
    linestart = 0
    while pos < len(text):
        m = _SCAN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - linestart + 1)
        if m.lastindex is None:
            tokens.append((m.group(), line, m.start() - linestart + 1))
        else:
            nl = m.group().count("\n")
            if nl:
                line += nl
                linestart = m.start() + m.group().rindex("\n") + 1
        pos = m.end()
    return tokens


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, as `_scan` gives them but without positions.

    One `findall` takes them all; it skips every character that starts
    no token, whitespace or not.  No token holds whitespace, so the
    tokens cover every other character iff their lengths add up to the
    number of characters outside whitespace (`str.split` and `\\s` agree
    on every code point).  Otherwise `_scan` runs and raises at the first
    uncovered character.
    """
    tokens = _TOKENS_RE.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        return [tok for tok, _, _ in _scan(text)]
    return tokens


MAX_NESTING = 100
"""Deepest nesting the parsers accept.

Each bracket, operator argument list, prefix operator (~, boxes,
diamonds, binders) and binary connective opens one level, so a flat
chain like P0 & P0 & ... takes at most 101 operands.  Deeper input
raises ParseError instead of exhausting the Python stack; since every
node of the syntax tree sits below its level, the parsers and printers
and `std_translate`, which recurse, stay well inside the default
recursion limit.  The generators recurse once per level of their
`depth`, which they reject above this bound, so they stay inside it too.
The modal evaluators (`truth_set`, `sat_modal` and the valuation
searches), `modal_vars` and `modal_depth` loop over `_listing` instead,
so a built formula may nest deeper for them, with no limit below memory.
"""


def _connectives(table):
    """Index a connective table, loosest first, by token and by class.

    A row of the table is (token, class, right_assoc); both views map to
    (rank, the other key, right_assoc), rank 0 binding loosest.
    """
    by_token = {tok: (rank, cls, right)
                for rank, (tok, cls, right) in enumerate(table)}
    by_class = {cls: (rank, tok, right)
                for rank, (tok, cls, right) in enumerate(table)}
    return by_token, by_class


class _Parser:
    """A parse in progress over the tokens of `text`.

    The tokens are plain strings, ended by a None; `i` indexes the next
    one.  A token's line and column are found again by `_scan`, and only
    for an error reported at it.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.tokens.append(None)
        self.i = 0
        self.depth = 0  # levels open at the current token
        self.reach = 0  # deepest level inside the operand being parsed

    def peek(self):
        return self.tokens[self.i]

    def take(self) -> int:
        """Consume the next token and return its index."""
        i = self.i
        if self.tokens[i] is None:
            raise ParseError("unexpected end of input")
        self.i = i + 1
        return i

    def fail(self, message, at: int):
        """Raise `message` at the line and column of token `at`."""
        _, line, col = _scan(self.text)[at]
        raise ParseError(message, line, col)

    def expect(self, want: str):
        tok = self.tokens[self.i]
        if tok != want:
            at = self.take()  # raises at the end of input
            self.fail(f"expected {want!r}, found {tok!r}", at)
        self.i += 1
        return tok

    def error(self, message):
        if self.tokens[self.i] is not None:
            self.fail(message, self.i)
        raise ParseError(message + " (at end of input)")

    def done(self):
        if self.tokens[self.i] is not None:
            self.error(f"trailing input {self.peek()!r}")

    def too_deep(self):
        self.error(f"formula nested deeper than {MAX_NESTING} levels")

    def nested(self, parse, *args):
        """Run the sub-parser `parse(self, *args)` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            self.too_deep()
        self.depth += 1
        if self.depth > self.reach:
            self.reach = self.depth
        node = parse(self, *args)
        self.depth -= 1
        return node

    def binary(self, ops, operand, *args, level=0):
        """Parse `operand`s joined by the connectives of rank >= `level`.

        `ops` is the token view of a connective table.  This is
        precedence climbing: a chain of one connective is a loop, and
        only a right operand that may hold a tighter (or, for a
        right-associative connective, the same) connective recurses.
        Each connective applied sinks its left operand one level, so the
        nesting bound holds for every node of the tree.
        """
        outer, self.reach = self.reach, self.depth
        left = operand(self, *args)
        spec = ops.get(self.tokens[self.i])
        while spec is not None and spec[0] >= level:
            rank, cls, right_assoc = spec
            at = self.i
            self.i += 1
            self.reach += 1
            if self.reach > MAX_NESTING:
                self.too_deep()
            self.depth += 1
            right = self.binary(ops, operand, *args,
                                level=rank if right_assoc else rank + 1)
            self.depth -= 1
            left = self.build(cls, at, left, right)
            spec = ops.get(self.tokens[self.i])
        if outer > self.reach:
            self.reach = outer
        return left

    def build(self, make, at: int, *args):
        """`make(*args)`, a SortError it raises placed at token `at`: a
        node built over arguments of the wrong sorts is reported at its
        operator."""
        try:
            return make(*args)
        except SortError as e:
            self.fail(str(e), at)

    def args(self, item, *args):
        """Parse `( item, item, ... )`, each item by `item(self, *args)`."""
        self.expect("(")
        out = [item(self, *args)]
        while self.tokens[self.i] == ",":
            self.i += 1
            out.append(item(self, *args))
        self.expect(")")
        return out


def _print_binary(x, level, spec, go):
    """Print connective node `x` in a context of rank `level`.

    `spec` is the (rank, token, right_assoc) row of x's class; the
    operand on the associative side may repeat the connective bare.
    """
    rank, tok, right_assoc = spec
    left = go(x.left, rank + 1 if right_assoc else rank)
    right = go(x.right, rank if right_assoc else rank + 1)
    text = f"{left} {tok} {right}"
    return f"({text})" if level > rank else text


# a lattice (p), sort-1 (P) or sort-d (Q) variable; P0 and P00 are the same
_VAR_RE = re.compile(r"^([pPQ])([0-9]+)$")
_VAR_SORTS = {"P": Sort.ONE, "Q": Sort.DEL}


# ---------------------------------------------------------------- lattice

_LATTICE_OPS = (("\\/", LOr, False), ("/\\", LAnd, False))
_LATTICE_BY_TOKEN, _LATTICE_BY_CLASS = _connectives(_LATTICE_OPS)
_LATTICE_CONSTS = {"top": LTop(), "bot": LBot()}
_LATTICE_CONST_NAMES = {c: tok for tok, c in _LATTICE_CONSTS.items()}


def parse_lattice(text: str, sig: Signature = EMPTY_SIGNATURE) -> LatticeFormula:
    p = _Parser(text)
    phi = p.binary(_LATTICE_BY_TOKEN, _lattice_atom, sig)
    p.done()
    return phi


def _lattice_atom(p, sig):
    at = p.take()
    tok = p.tokens[at]
    if tok == "(":
        phi = p.nested(_Parser.binary, _LATTICE_BY_TOKEN, _lattice_atom, sig)
        p.expect(")")
        return phi
    if p.peek() == "(" and tok in sig:
        args = p.args(_Parser.nested, _Parser.binary, _LATTICE_BY_TOKEN,
                      _lattice_atom, sig)
        dist = sig.get(tok)
        if len(args) != dist.arity:
            p.fail(f"{tok} expects {dist.arity} arguments", at)
        return LApp(tok, tuple(args))
    if tok in _LATTICE_CONSTS:
        return _LATTICE_CONSTS[tok]
    m = _VAR_RE.match(tok)
    if m and m.group(1) == "p":
        return LVar(int(m.group(2)))
    p.fail(f"unexpected token {tok!r} in lattice formula", at)


def print_lattice(phi: LatticeFormula) -> str:
    return _print_lattice(phi, 0)


def _print_lattice(x, level):
    spec = _LATTICE_BY_CLASS.get(type(x))
    if spec is not None:
        return _print_binary(x, level, spec, _print_lattice)
    if isinstance(x, LVar):
        return f"p{x.index}"
    if isinstance(x, LApp):
        return f"{x.name}({', '.join(_print_lattice(a, 0) for a in x.args)})"
    if isinstance(x, (LTop, LBot)):
        return _LATTICE_CONST_NAMES[x]
    raise SortError(f"unknown lattice node {x!r}")


# ---------------------------------------------------------------- modal

_MODAL_OPS = tuple((cls._TOKEN, cls, right)
                   for cls, right in ((MImp, True), (MOr, False), (MAnd, False)))
_MODAL_BY_TOKEN, _MODAL_BY_CLASS = _connectives(_MODAL_OPS)
_MODAL_CONSTS = {"top": MConst(Sort.ONE, True), "bot": MConst(Sort.ONE, False),
                 "tt": MConst(Sort.DEL, True), "ff": MConst(Sort.DEL, False)}
_MODAL_CONST_NAMES = {c: tok for tok, c in _MODAL_CONSTS.items()}
# prefix operators as printed; the parser reads them without the space
_MODAL_PREFIX = {MNot: "~", **{cls: cls._TOKEN + " "
                               for cls in _MModal.__subclasses__()}}
_MODAL_PREFIX_BY_TOKEN = {text.strip(): cls for cls, text in _MODAL_PREFIX.items()}


def parse_modal(text: str, sig: Signature = EMPTY_SIGNATURE) -> ModalFormula:
    p = _Parser(text)
    theta = p.binary(_MODAL_BY_TOKEN, _modal_operand, sig)
    p.done()
    return theta


def _modal_operand(p, sig):
    at = p.take()
    tok = p.tokens[at]
    op = _MODAL_PREFIX_BY_TOKEN.get(tok)
    if op is not None:
        return p.build(op, at, p.nested(_modal_operand, sig))
    if tok == "(":
        theta = p.nested(_Parser.binary, _MODAL_BY_TOKEN, _modal_operand, sig)
        p.expect(")")
        return theta
    if p.peek() == "(" and tok in sig:
        args = p.args(_Parser.nested, _Parser.binary, _MODAL_BY_TOKEN,
                      _modal_operand, sig)
        return p.build(mapp, at, sig, tok, args)
    if tok in _MODAL_CONSTS:
        return _MODAL_CONSTS[tok]
    m = _VAR_RE.match(tok)
    if m and m.group(1) in _VAR_SORTS:
        return MVar(_VAR_SORTS[m.group(1)], int(m.group(2)))
    p.fail(f"unexpected token {tok!r} in modal formula", at)


def print_modal(theta: ModalFormula) -> str:
    """Inverse of parse_modal up to whitespace."""
    return _print_modal(theta, 0)


def _print_modal(x, level):
    spec = _MODAL_BY_CLASS.get(type(x))
    if spec is not None:
        return _print_binary(x, level, spec, _print_modal)
    prefix = _MODAL_PREFIX.get(type(x))
    if prefix is not None:
        return prefix + _print_modal(x.arg, len(_MODAL_OPS))
    if isinstance(x, MVar):
        return x.name
    if isinstance(x, MConst):
        return _MODAL_CONST_NAMES[x]
    if isinstance(x, MApp):
        return f"{x.name}({', '.join(_print_modal(a, 0) for a in x.args)})"
    raise SortError(f"unknown modal node {x!r}")


# ---------------------------------------------------------------- FOL

_FOL_OPS = (("->", FImp, True), ("|", FOr, False), ("&", FAnd, False))
_FOL_BY_TOKEN, _FOL_BY_CLASS = _connectives(_FOL_OPS)
_BINDERS = {kw + str(sort): (cls, sort)
            for cls, kw in _QUANTIFIERS.items() for sort in Sort}
_FOL_NAME_RE = re.compile(r"^[a-z][A-Za-z0-9_]*$")


def _is_fol_name(name: str) -> bool:
    """Whether `name` can name a FOL variable: a binder keyword cannot."""
    return _FOL_NAME_RE.fullmatch(name) is not None and name not in _BINDERS


def parse_fol(text: str, sig: Signature = EMPTY_SIGNATURE,
              free: dict[str, Sort] | None = None) -> FolFormula:
    """Parse a sorted FOL formula.

    Bound variables get their sort from the binder; free variables must
    be declared in `free`, under names `_is_fol_name` accepts.
    """
    free = dict(free or {})
    for name in free:
        if not _is_fol_name(name):
            raise ParseError(f"bad variable name {name!r}")
    p = _Parser(text)
    phi = p.binary(_FOL_BY_TOKEN, _fol_operand, sig, free)
    p.done()
    return phi


def _fol_var(p, env, at):
    """The variable that token `at` names."""
    name = p.tokens[at]
    if name not in env:
        p.fail(f"variable {name!r} is neither bound nor declared free", at)
    return FVar(name, env[name])


def _fol_operand(p, sig, env):
    at = p.take()
    tok = p.tokens[at]
    if tok == "~":
        return FNot(p.nested(_fol_operand, sig, env))
    if tok == "(":
        phi = p.nested(_Parser.binary, _FOL_BY_TOKEN, _fol_operand, sig, env)
        p.expect(")")
        return phi
    if p.peek() == "(":
        return _fol_atom(p, sig, env, at)
    if tok in _BINDERS:
        cls, sort = _BINDERS[tok]
        name_at = p.take()
        name = p.tokens[name_at]
        if not _is_fol_name(name):
            p.fail(f"bad variable name {name!r}", name_at)
        p.expect(".")
        inner = {**env, name: sort}
        return cls(FVar(name, sort),
                   p.nested(_Parser.binary, _FOL_BY_TOKEN, _fol_operand, sig,
                            inner))
    # equality: var = var
    if _FOL_NAME_RE.match(tok):
        left = _fol_var(p, env, at)
        p.expect("=")
        right = _fol_var(p, env, p.take())
        if left.sort != right.sort:
            p.fail("equality between different sorts", at)
        return FEq(left, right)
    p.fail(f"unexpected token {tok!r} in FOL formula", at)


def _fol_atom(p, sig, env, at):
    """The atom `tok(x, ..)` at token `at`: I, else a P/Q predicate, else a
    signature relation."""
    tok = p.tokens[at]
    m = _VAR_RE.match(tok)
    if tok == "I":
        atom, sorts = FInc(None, None), [Sort.ONE, Sort.DEL]
    elif m and m.group(1) in _VAR_SORTS:
        atom, sorts = FPred(tok, None), [_VAR_SORTS[m.group(1)]]
    elif tok in sig:
        sorting = sig.get(tok)
        atom, sorts = FRelApp(tok, None, ()), [sorting.output, *sorting.inputs]
    else:
        p.fail(f"unexpected token {tok!r} in FOL formula", at)
    vs = [_fol_var(p, env, i) for i in p.args(_Parser.take)]
    if [v.sort for v in vs] != sorts:
        p.fail(f"{tok} expects variables of sorts "
               f"{', '.join(map(str, sorts))}", at)
    return _with_vars(atom, vs)


def print_fol(phi: FolFormula) -> str:
    return _print_fol(phi, 0)


def _print_fol(x, level):
    spec = _FOL_BY_CLASS.get(type(x))
    if spec is not None:
        return _print_binary(x, level, spec, _print_fol)
    if isinstance(x, FNot):
        return f"~{_print_fol(x.arg, len(_FOL_OPS))}"
    kw = _QUANTIFIERS.get(type(x))
    if kw is not None:
        if x.var.sort is not None:
            kw += str(x.var.sort)
        text = f"{kw} {x.var.name} . {_print_fol(x.body, 0)}"
        return f"({text})" if level else text
    vs = _atom_vars(x)
    if vs is None:
        raise SortError(f"unknown FOL node {x!r}")
    names = [v.name for v in vs]
    if isinstance(x, FEq):
        return " = ".join(names)
    return f"{'I' if isinstance(x, FInc) else x.name}({', '.join(names)})"
