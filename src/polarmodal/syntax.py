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

from .errors import ParseError, SortError
from .frames import DistributionType, Sort


@dataclass(frozen=True)
class Signature:
    """Declared operator symbols with their distribution types.

    A single declaration serves all three languages: a lattice operator
    of distribution type (i1..in; o), the sorted modal diamond of the
    same name, and the frame relation / FOL predicate of sorting type
    (o; i1..in).
    """

    operators: tuple[tuple[str, DistributionType], ...] = ()

    @staticmethod
    def of(mapping) -> "Signature":
        return Signature(tuple(sorted(mapping.items())))

    def get(self, name: str) -> DistributionType:
        for n, d in self.operators:
            if n == name:
                return d
        raise SortError(f"operator {name!r} not declared in signature")

    def names(self):
        return [n for n, _ in self.operators]

    def __contains__(self, name):
        return any(n == name for n, _ in self.operators)


EMPTY_SIGNATURE = Signature()


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


def lattice_vars(phi: LatticeFormula) -> set[int]:
    if isinstance(phi, LVar):
        return {phi.index}
    if isinstance(phi, (LAnd, LOr)):
        return lattice_vars(phi.left) | lattice_vars(phi.right)
    if isinstance(phi, LApp):
        out = set()
        for a in phi.args:
            out |= lattice_vars(a)
        return out
    return set()


# ======================================================================
# Sorted modal language

class ModalFormula:
    sort: Sort


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


@dataclass(frozen=True)
class MNot(ModalFormula):
    arg: ModalFormula

    @property
    def sort(self):
        return self.arg.sort


@dataclass(frozen=True)
class _MBinary(ModalFormula):
    left: ModalFormula
    right: ModalFormula

    def __post_init__(self):
        _require_sort(self.right, self.left.sort, type(self).__name__)

    @property
    def sort(self):
        return self.left.sort


class MAnd(_MBinary):
    pass


class MOr(_MBinary):
    pass


class MImp(_MBinary):
    pass


@dataclass(frozen=True)
class MBbox(ModalFormula):
    """[b]: takes a sort-d formula to sort 1."""

    arg: ModalFormula
    sort: Sort = Sort.ONE

    def __post_init__(self):
        _require_sort(self.arg, Sort.DEL, "[b]")


@dataclass(frozen=True)
class MDbox(ModalFormula):
    """[d]: takes a sort-1 formula to sort d."""

    arg: ModalFormula
    sort: Sort = Sort.DEL

    def __post_init__(self):
        _require_sort(self.arg, Sort.ONE, "[d]")


@dataclass(frozen=True)
class MBdia(ModalFormula):
    """<b>: the diamond dual of [b] (sort d -> 1)."""

    arg: ModalFormula
    sort: Sort = Sort.ONE

    def __post_init__(self):
        _require_sort(self.arg, Sort.DEL, "<b>")


@dataclass(frozen=True)
class MDdia(ModalFormula):
    """<d>: the diamond dual of [d] (sort 1 -> d)."""

    arg: ModalFormula
    sort: Sort = Sort.DEL

    def __post_init__(self):
        _require_sort(self.arg, Sort.ONE, "<d>")


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


def modal_vars(theta: ModalFormula) -> set[tuple[Sort, int]]:
    if isinstance(theta, MVar):
        return {(theta.sort, theta.index)}
    if isinstance(theta, MConst):
        return set()
    if isinstance(theta, MNot):
        return modal_vars(theta.arg)
    if isinstance(theta, (MAnd, MOr, MImp)):
        return modal_vars(theta.left) | modal_vars(theta.right)
    if isinstance(theta, (MBbox, MDbox, MBdia, MDdia)):
        return modal_vars(theta.arg)
    if isinstance(theta, MApp):
        out = set()
        for a in theta.args:
            out |= modal_vars(a)
        return out
    raise SortError(f"unknown modal node {theta!r}")


def modal_depth(theta: ModalFormula) -> int:
    if isinstance(theta, (MVar, MConst)):
        return 0
    if isinstance(theta, MNot):
        return modal_depth(theta.arg)
    if isinstance(theta, (MAnd, MOr, MImp)):
        return max(modal_depth(theta.left), modal_depth(theta.right))
    if isinstance(theta, (MBbox, MDbox, MBdia, MDdia)):
        return 1 + modal_depth(theta.arg)
    if isinstance(theta, MApp):
        return 1 + max((modal_depth(a) for a in theta.args), default=0)
    raise SortError(f"unknown modal node {theta!r}")


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


def fol_free_vars(phi: FolFormula) -> frozenset[FVar]:
    if isinstance(phi, FEq):
        return frozenset({phi.left, phi.right})
    if isinstance(phi, FInc):
        return frozenset({phi.u, phi.v})
    if isinstance(phi, FRelApp):
        return frozenset({phi.head, *phi.args})
    if isinstance(phi, FPred):
        return frozenset({phi.arg})
    if isinstance(phi, FNot):
        return fol_free_vars(phi.arg)
    if isinstance(phi, (FAnd, FOr, FImp)):
        return fol_free_vars(phi.left) | fol_free_vars(phi.right)
    if isinstance(phi, (FForall, FExists)):
        return fol_free_vars(phi.body) - {phi.var}
    raise SortError(f"unknown FOL node {phi!r}")


def fol_all_var_names(phi: FolFormula) -> set[str]:
    if isinstance(phi, FEq):
        return {phi.left.name, phi.right.name}
    if isinstance(phi, FInc):
        return {phi.u.name, phi.v.name}
    if isinstance(phi, FRelApp):
        return {phi.head.name, *(a.name for a in phi.args)}
    if isinstance(phi, FPred):
        return {phi.arg.name}
    if isinstance(phi, FNot):
        return fol_all_var_names(phi.arg)
    if isinstance(phi, (FAnd, FOr, FImp)):
        return fol_all_var_names(phi.left) | fol_all_var_names(phi.right)
    if isinstance(phi, (FForall, FExists)):
        return {phi.var.name} | fol_all_var_names(phi.body)
    raise SortError(f"unknown FOL node {phi!r}")


def fol_subst(phi: FolFormula, old: FVar, new: FVar) -> FolFormula:
    """Substitute free occurrences of `old` by `new`, capture-avoiding.

    `new` must not be bound anywhere it would capture; callers pick fresh
    names via `fol_all_var_names`.
    """

    def sub(v: FVar) -> FVar:
        return new if v == old else v

    if isinstance(phi, FEq):
        return FEq(sub(phi.left), sub(phi.right))
    if isinstance(phi, FInc):
        return FInc(sub(phi.u), sub(phi.v))
    if isinstance(phi, FRelApp):
        return FRelApp(phi.name, sub(phi.head), tuple(sub(a) for a in phi.args))
    if isinstance(phi, FPred):
        return FPred(phi.name, sub(phi.arg))
    if isinstance(phi, FNot):
        return FNot(fol_subst(phi.arg, old, new))
    if isinstance(phi, FAnd):
        return FAnd(fol_subst(phi.left, old, new), fol_subst(phi.right, old, new))
    if isinstance(phi, FOr):
        return FOr(fol_subst(phi.left, old, new), fol_subst(phi.right, old, new))
    if isinstance(phi, FImp):
        return FImp(fol_subst(phi.left, old, new), fol_subst(phi.right, old, new))
    if isinstance(phi, (FForall, FExists)):
        if phi.var == old:
            return phi
        if phi.var == new:
            raise SortError(f"substitution would capture {new.name}")
        cls = type(phi)
        return cls(phi.var, fol_subst(phi.body, old, new))
    raise SortError(f"unknown FOL node {phi!r}")


# ======================================================================
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<land>/\\)
  | (?P<lor>\\/)
  | (?P<arrow>->)
  | (?P<bbox>\[b\])
  | (?P<dbox>\[d\])
  | (?P<bdia><b>)
  | (?P<ddia><d>)
  | (?P<sym>[()~&|,.=])
  | (?P<word>[A-Za-z_][A-Za-z0-9_*']*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    linestart = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - linestart + 1)
        if m.lastgroup != "ws":
            tokens.append((m.group(), line, m.start() - linestart + 1))
        else:
            nl = m.group().count("\n")
            if nl:
                line += nl
                linestart = m.start() + m.group().rindex("\n") + 1
        pos = m.end()
    return tokens


MAX_NESTING = 100
"""Deepest nesting the parsers accept.

Each bracket, operator argument list, prefix operator (~, boxes,
diamonds, binders) and binary connective opens one level, so a flat
chain like P0 & P0 & ... takes at most 101 operands.  Deeper input
raises ParseError instead of exhausting the Python stack; since every
node of the syntax tree sits below its level, the parsers and the
recursive evaluators and printers stay well inside the default
recursion limit.
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
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # levels open at the current token
        self.reach = 0  # deepest level inside the operand being parsed

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want: str):
        tok, line, col = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", line, col)
        return tok

    def error(self, message):
        if self.i < len(self.tokens):
            _, line, col = self.tokens[self.i]
            raise ParseError(message, line, col)
        raise ParseError(message + " (at end of input)")

    def done(self):
        if self.i != len(self.tokens):
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
        spec = ops.get(self.peek())
        while spec is not None and spec[0] >= level:
            rank, cls, right_assoc = spec
            self.i += 1
            self.reach += 1
            if self.reach > MAX_NESTING:
                self.too_deep()
            self.depth += 1
            right = self.binary(ops, operand, *args,
                                level=rank if right_assoc else rank + 1)
            self.depth -= 1
            left = cls(left, right)
            spec = ops.get(self.peek())
        if outer > self.reach:
            self.reach = outer
        return left

    def args(self, item, *args):
        """Parse `( item, item, ... )`, each item by `item(self, *args)`."""
        self.expect("(")
        out = [item(self, *args)]
        while self.peek() == ",":
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


_VAR_RE = re.compile(r"^([pPQ])(\d+)$")


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
    tok, line, col = p.next()
    if tok == "(":
        phi = p.nested(_Parser.binary, _LATTICE_BY_TOKEN, _lattice_atom, sig)
        p.expect(")")
        return phi
    if tok in _LATTICE_CONSTS:
        return _LATTICE_CONSTS[tok]
    m = _VAR_RE.match(tok)
    if m and m.group(1) == "p":
        return LVar(int(m.group(2)))
    if tok in sig:
        args = p.args(_Parser.nested, _Parser.binary, _LATTICE_BY_TOKEN,
                      _lattice_atom, sig)
        dist = sig.get(tok)
        if len(args) != dist.arity:
            raise ParseError(f"{tok} expects {dist.arity} arguments", line, col)
        return LApp(tok, tuple(args))
    raise ParseError(f"unexpected token {tok!r} in lattice formula", line, col)


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

_MODAL_OPS = (("->", MImp, True), ("|", MOr, False), ("&", MAnd, False))
_MODAL_BY_TOKEN, _MODAL_BY_CLASS = _connectives(_MODAL_OPS)
_MODAL_CONSTS = {"top": MConst(Sort.ONE, True), "bot": MConst(Sort.ONE, False),
                 "tt": MConst(Sort.DEL, True), "ff": MConst(Sort.DEL, False)}
_MODAL_CONST_NAMES = {c: tok for tok, c in _MODAL_CONSTS.items()}
# prefix operators as printed; the parser reads them without the space
_MODAL_PREFIX = {MNot: "~", MBbox: "[b] ", MDbox: "[d] ", MBdia: "<b> ",
                 MDdia: "<d> "}
_MODAL_PREFIX_BY_TOKEN = {text.strip(): cls for cls, text in _MODAL_PREFIX.items()}


def parse_modal(text: str, sig: Signature = EMPTY_SIGNATURE) -> ModalFormula:
    p = _Parser(text)
    theta = p.binary(_MODAL_BY_TOKEN, _modal_operand, sig)
    p.done()
    return theta


def _modal_operand(p, sig):
    tok, line, col = p.next()
    op = _MODAL_PREFIX_BY_TOKEN.get(tok)
    if op is not None:
        return op(p.nested(_modal_operand, sig))
    if tok == "(":
        theta = p.nested(_Parser.binary, _MODAL_BY_TOKEN, _modal_operand, sig)
        p.expect(")")
        return theta
    if tok in _MODAL_CONSTS:
        return _MODAL_CONSTS[tok]
    m = _VAR_RE.match(tok)
    if m and m.group(1) == "P":
        return MVar(Sort.ONE, int(m.group(2)))
    if m and m.group(1) == "Q":
        return MVar(Sort.DEL, int(m.group(2)))
    if tok in sig:
        args = p.args(_Parser.nested, _Parser.binary, _MODAL_BY_TOKEN,
                      _modal_operand, sig)
        try:
            return mapp(sig, tok, args)
        except SortError as e:
            raise ParseError(str(e), line, col)
    raise ParseError(f"unexpected token {tok!r} in modal formula", line, col)


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
_BINDERS = {"all1": (FForall, Sort.ONE), "alld": (FForall, Sort.DEL),
            "ex1": (FExists, Sort.ONE), "exd": (FExists, Sort.DEL)}
_FOL_NAME_RE = re.compile(r"^[a-z][A-Za-z0-9_]*$")


def parse_fol(text: str, sig: Signature = EMPTY_SIGNATURE,
              free: dict[str, Sort] | None = None) -> FolFormula:
    """Parse a sorted FOL formula.

    Bound variables get their sort from the binder; free variables must
    be declared in `free`.
    """
    p = _Parser(text)
    phi = p.binary(_FOL_BY_TOKEN, _fol_operand, sig, dict(free or {}))
    p.done()
    return phi


def _fol_var(env, name, line, col):
    if name not in env:
        raise ParseError(f"variable {name!r} is neither bound nor declared free",
                         line, col)
    return FVar(name, env[name])


def _fol_operand(p, sig, env):
    tok, line, col = p.next()
    if tok == "~":
        return FNot(p.nested(_fol_operand, sig, env))
    if tok in _BINDERS:
        cls, sort = _BINDERS[tok]
        name, line, col = p.next()
        if not _FOL_NAME_RE.match(name):
            raise ParseError(f"bad variable name {name!r}", line, col)
        p.expect(".")
        inner = {**env, name: sort}
        return cls(FVar(name, sort),
                   p.nested(_Parser.binary, _FOL_BY_TOKEN, _fol_operand, sig,
                            inner))
    if tok == "(":
        phi = p.nested(_Parser.binary, _FOL_BY_TOKEN, _fol_operand, sig, env)
        p.expect(")")
        return phi
    m = _VAR_RE.match(tok)
    if tok == "I":
        p.expect("(")
        u, ul, uc = p.next()
        p.expect(",")
        v, vl, vc = p.next()
        p.expect(")")
        uvar = _fol_var(env, u, ul, uc)
        vvar = _fol_var(env, v, vl, vc)
        if uvar.sort is not Sort.ONE or vvar.sort is not Sort.DEL:
            raise ParseError("I expects a sort-1 and a sort-d variable", line, col)
        return FInc(uvar, vvar)
    if m and m.group(1) in ("P", "Q"):
        p.expect("(")
        u, ul, uc = p.next()
        p.expect(")")
        var = _fol_var(env, u, ul, uc)
        want = Sort.ONE if m.group(1) == "P" else Sort.DEL
        if var.sort is not want:
            raise ParseError(f"{tok} expects a sort-{want} variable", line, col)
        return FPred(tok, var)
    if tok in sig:
        sorting = sig.get(tok).sorting()
        names = p.args(_Parser.next)
        if len(names) != sorting.arity + 1:
            raise ParseError(f"{tok} expects {sorting.arity + 1} arguments",
                             line, col)
        head = _fol_var(env, *names[0])
        args = [_fol_var(env, *n) for n in names[1:]]
        if head.sort is not sorting.output:
            raise ParseError(f"{tok}: head must have sort {sorting.output}",
                             line, col)
        for a, s in zip(args, sorting.inputs):
            if a.sort is not s:
                raise ParseError(f"{tok}: argument {a.name} must have sort {s}",
                                 line, col)
        return FRelApp(tok, head, tuple(args))
    # equality: var = var
    if _FOL_NAME_RE.match(tok):
        left = _fol_var(env, tok, line, col)
        p.expect("=")
        name, nl, nc = p.next()
        right = _fol_var(env, name, nl, nc)
        if left.sort != right.sort:
            raise ParseError("equality between different sorts", line, col)
        return FEq(left, right)
    raise ParseError(f"unexpected token {tok!r} in FOL formula", line, col)


def print_fol(phi: FolFormula) -> str:
    return _print_fol(phi, 0)


def _print_fol(x, level):
    spec = _FOL_BY_CLASS.get(type(x))
    if spec is not None:
        return _print_binary(x, level, spec, _print_fol)
    if isinstance(x, FNot):
        return f"~{_print_fol(x.arg, len(_FOL_OPS))}"
    if isinstance(x, (FForall, FExists)):
        kw = "all" if isinstance(x, FForall) else "ex"
        if x.var.sort is not None:
            kw += str(x.var.sort)
        text = f"{kw} {x.var.name} . {_print_fol(x.body, 0)}"
        return f"({text})" if level else text
    if isinstance(x, FEq):
        return f"{x.left.name} = {x.right.name}"
    if isinstance(x, FInc):
        return f"I({x.u.name}, {x.v.name})"
    if isinstance(x, FRelApp):
        names = [x.head.name] + [a.name for a in x.args]
        return f"{x.name}({', '.join(names)})"
    if isinstance(x, FPred):
        return f"{x.name}({x.arg.name})"
    raise SortError(f"unknown FOL node {x!r}")
