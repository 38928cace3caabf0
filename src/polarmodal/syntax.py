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

from .errors import ParseError, PreconditionError, SortError
from .frames import DistributionType, Sort, SortingType


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


def expand_sugar(theta: ModalFormula) -> ModalFormula:
    """Rewrite into the primitive fragment: variables, ~, ->, [b], [d], diamonds.

    Truth constants become tautologies/contradictions in a fresh-enough
    variable of the right sort.
    """
    if isinstance(theta, MVar) or isinstance(theta, MApp):
        if isinstance(theta, MApp):
            return MApp(theta.name, theta.sort,
                        tuple(expand_sugar(a) for a in theta.args))
        return theta
    if isinstance(theta, MConst):
        v = MVar(theta.sort, 0)
        taut = MImp(v, v)
        return taut if theta.truth else MNot(taut)
    if isinstance(theta, MNot):
        return MNot(expand_sugar(theta.arg))
    if isinstance(theta, MImp):
        return MImp(expand_sugar(theta.left), expand_sugar(theta.right))
    if isinstance(theta, MAnd):
        return MNot(MImp(expand_sugar(theta.left), MNot(expand_sugar(theta.right))))
    if isinstance(theta, MOr):
        return MImp(MNot(expand_sugar(theta.left)), expand_sugar(theta.right))
    if isinstance(theta, MBbox):
        return MBbox(expand_sugar(theta.arg))
    if isinstance(theta, MDbox):
        return MDbox(expand_sugar(theta.arg))
    if isinstance(theta, MBdia):
        return MNot(MBbox(MNot(expand_sugar(theta.arg))))
    if isinstance(theta, MDdia):
        return MNot(MDbox(MNot(expand_sugar(theta.arg))))
    raise SortError(f"unknown modal node {theta!r}")


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

Each bracket, prefix operator (~, boxes, diamonds, binders), operator
argument list and right-nested -> opens one level.  Deeper input raises
ParseError instead of exhausting the Python stack; at this depth the
parsers and the recursive evaluators and printers stay well inside the
default recursion limit.
"""


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

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

    def nested(self, parse, *args):
        """Run the sub-parser `parse` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            self.error(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        node = parse(self, *args)
        self.depth -= 1
        return node


_VAR_RE = re.compile(r"^([pPQ])(\d+)$")


# ---------------------------------------------------------------- lattice

def parse_lattice(text: str, sig: Signature = EMPTY_SIGNATURE) -> LatticeFormula:
    p = _Parser(text)
    phi = _parse_lattice_or(p, sig)
    p.done()
    return phi


def _parse_lattice_or(p, sig):
    left = _parse_lattice_and(p, sig)
    while p.peek() == "\\/":
        p.next()
        left = LOr(left, _parse_lattice_and(p, sig))
    return left


def _parse_lattice_and(p, sig):
    left = _parse_lattice_atom(p, sig)
    while p.peek() == "/\\":
        p.next()
        left = LAnd(left, _parse_lattice_atom(p, sig))
    return left


def _parse_lattice_atom(p, sig):
    tok, line, col = p.next()
    if tok == "(":
        phi = p.nested(_parse_lattice_or, sig)
        p.expect(")")
        return phi
    if tok == "top":
        return LTop()
    if tok == "bot":
        return LBot()
    m = _VAR_RE.match(tok)
    if m and m.group(1) == "p":
        return LVar(int(m.group(2)))
    if tok in sig:
        p.expect("(")
        args = [p.nested(_parse_lattice_or, sig)]
        while p.peek() == ",":
            p.next()
            args.append(p.nested(_parse_lattice_or, sig))
        p.expect(")")
        dist = sig.get(tok)
        if len(args) != dist.arity:
            raise ParseError(f"{tok} expects {dist.arity} arguments", line, col)
        return LApp(tok, tuple(args))
    raise ParseError(f"unexpected token {tok!r} in lattice formula", line, col)


def print_lattice(phi: LatticeFormula) -> str:
    def go(x, ctx):
        if isinstance(x, LVar):
            return f"p{x.index}"
        if isinstance(x, LTop):
            return "top"
        if isinstance(x, LBot):
            return "bot"
        if isinstance(x, LAnd):
            s = f"{go(x.left, 'and')} /\\ {go(x.right, 'atom')}"
            return f"({s})" if ctx == "atom" else s
        if isinstance(x, LOr):
            s = f"{go(x.left, 'or')} \\/ {go(x.right, 'and')}"
            return f"({s})" if ctx in ("and", "atom") else s
        if isinstance(x, LApp):
            return f"{x.name}({', '.join(go(a, 'or') for a in x.args)})"
        raise SortError(f"unknown lattice node {x!r}")

    return go(phi, "or")


# ---------------------------------------------------------------- modal

def parse_modal(text: str, sig: Signature = EMPTY_SIGNATURE) -> ModalFormula:
    p = _Parser(text)
    theta = _parse_modal_imp(p, sig)
    p.done()
    return theta


def _parse_modal_imp(p, sig):
    left = _parse_modal_or(p, sig)
    if p.peek() == "->":
        p.next()
        right = p.nested(_parse_modal_imp, sig)  # right-associative
        return MImp(left, right)
    return left


def _parse_modal_or(p, sig):
    left = _parse_modal_and(p, sig)
    while p.peek() == "|":
        p.next()
        left = MOr(left, _parse_modal_and(p, sig))
    return left


def _parse_modal_and(p, sig):
    left = _parse_modal_unary(p, sig)
    while p.peek() == "&":
        p.next()
        left = MAnd(left, _parse_modal_unary(p, sig))
    return left


_MODAL_PREFIX = {"~": MNot, "[b]": MBbox, "[d]": MDbox, "<b>": MBdia,
                 "<d>": MDdia}


def _parse_modal_unary(p, sig):
    op = _MODAL_PREFIX.get(p.peek())
    if op is None:
        return _parse_modal_atom(p, sig)
    p.next()
    return op(p.nested(_parse_modal_unary, sig))


def _parse_modal_atom(p, sig):
    tok, line, col = p.next()
    if tok == "(":
        theta = p.nested(_parse_modal_imp, sig)
        p.expect(")")
        return theta
    if tok == "top":
        return MConst(Sort.ONE, True)
    if tok == "bot":
        return MConst(Sort.ONE, False)
    if tok == "tt":
        return MConst(Sort.DEL, True)
    if tok == "ff":
        return MConst(Sort.DEL, False)
    m = _VAR_RE.match(tok)
    if m and m.group(1) == "P":
        return MVar(Sort.ONE, int(m.group(2)))
    if m and m.group(1) == "Q":
        return MVar(Sort.DEL, int(m.group(2)))
    if tok in sig:
        p.expect("(")
        args = [p.nested(_parse_modal_imp, sig)]
        while p.peek() == ",":
            p.next()
            args.append(p.nested(_parse_modal_imp, sig))
        p.expect(")")
        try:
            return mapp(sig, tok, args)
        except SortError as e:
            raise ParseError(str(e), line, col)
    raise ParseError(f"unexpected token {tok!r} in modal formula", line, col)


def print_modal(theta: ModalFormula, sugar: bool = True) -> str:
    """Inverse of parse_modal up to whitespace.

    With sugar=False the diamonds <b>/<d> and the derived connectives
    are expanded to the primitive fragment before printing.
    """
    if not sugar:
        theta = expand_sugar(theta)

    def go(x, ctx):
        # ctx in imp > or > and > unary, by binding looseness
        if isinstance(x, MVar):
            return x.name
        if isinstance(x, MConst):
            if x.sort is Sort.ONE:
                return "top" if x.truth else "bot"
            return "tt" if x.truth else "ff"
        if isinstance(x, MNot):
            return f"~{go(x.arg, 'unary')}"
        if isinstance(x, MBbox):
            return f"[b] {go(x.arg, 'unary')}"
        if isinstance(x, MDbox):
            return f"[d] {go(x.arg, 'unary')}"
        if isinstance(x, MBdia):
            return f"<b> {go(x.arg, 'unary')}"
        if isinstance(x, MDdia):
            return f"<d> {go(x.arg, 'unary')}"
        if isinstance(x, MAnd):
            s = f"{go(x.left, 'and')} & {go(x.right, 'unary')}"
            return f"({s})" if ctx == "unary" else s
        if isinstance(x, MOr):
            s = f"{go(x.left, 'or')} | {go(x.right, 'and')}"
            return f"({s})" if ctx in ("and", "unary") else s
        if isinstance(x, MImp):
            s = f"{go(x.left, 'or')} -> {go(x.right, 'imp')}"
            return f"({s})" if ctx != "imp" else s
        if isinstance(x, MApp):
            return f"{x.name}({', '.join(go(a, 'imp') for a in x.args)})"
        raise SortError(f"unknown modal node {x!r}")

    return go(theta, "imp")


# ---------------------------------------------------------------- FOL

_BINDERS = {"all1": (FForall, Sort.ONE), "alld": (FForall, Sort.DEL),
            "ex1": (FExists, Sort.ONE), "exd": (FExists, Sort.DEL)}


def parse_fol(text: str, sig: Signature = EMPTY_SIGNATURE,
              free: dict[str, Sort] | None = None) -> FolFormula:
    """Parse a sorted FOL formula.

    Bound variables get their sort from the binder; free variables must
    be declared in `free`.
    """
    p = _Parser(text)
    phi = _parse_fol_imp(p, sig, dict(free or {}))
    p.done()
    return phi


def _parse_fol_imp(p, sig, env):
    left = _parse_fol_or(p, sig, env)
    if p.peek() == "->":
        p.next()
        return FImp(left, p.nested(_parse_fol_imp, sig, env))
    return left


def _parse_fol_or(p, sig, env):
    left = _parse_fol_and(p, sig, env)
    while p.peek() == "|":
        p.next()
        left = FOr(left, _parse_fol_and(p, sig, env))
    return left


def _parse_fol_and(p, sig, env):
    left = _parse_fol_unary(p, sig, env)
    while p.peek() == "&":
        p.next()
        left = FAnd(left, _parse_fol_unary(p, sig, env))
    return left


def _parse_fol_unary(p, sig, env):
    tok = p.peek()
    if tok == "~":
        p.next()
        return FNot(p.nested(_parse_fol_unary, sig, env))
    if tok in _BINDERS:
        p.next()
        cls, sort = _BINDERS[tok]
        name, line, col = p.next()
        if not re.match(r"^[a-z][A-Za-z0-9_]*$", name):
            raise ParseError(f"bad variable name {name!r}", line, col)
        p.expect(".")
        var = FVar(name, sort)
        inner = dict(env)
        inner[name] = sort
        return cls(var, p.nested(_parse_fol_imp, sig, inner))
    return _parse_fol_atom(p, sig, env)


def _fol_var(env, name, line, col):
    if name not in env:
        raise ParseError(f"variable {name!r} is neither bound nor declared free",
                         line, col)
    return FVar(name, env[name])


def _parse_fol_atom(p, sig, env):
    tok, line, col = p.next()
    if tok == "(":
        phi = p.nested(_parse_fol_imp, sig, env)
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
        p.expect("(")
        names = [p.next()]
        while p.peek() == ",":
            p.next()
            names.append(p.next())
        p.expect(")")
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
    if re.match(r"^[a-z][A-Za-z0-9_]*$", tok):
        left = _fol_var(env, tok, line, col)
        p.expect("=")
        name, nl, nc = p.next()
        right = _fol_var(env, name, nl, nc)
        if left.sort != right.sort:
            raise ParseError("equality between different sorts", line, col)
        return FEq(left, right)
    raise ParseError(f"unexpected token {tok!r} in FOL formula", line, col)


def print_fol(phi: FolFormula) -> str:
    def go(x, ctx):
        if isinstance(x, FEq):
            return f"{x.left.name} = {x.right.name}"
        if isinstance(x, FInc):
            return f"I({x.u.name}, {x.v.name})"
        if isinstance(x, FRelApp):
            names = [x.head.name] + [a.name for a in x.args]
            return f"{x.name}({', '.join(names)})"
        if isinstance(x, FPred):
            return f"{x.name}({x.arg.name})"
        if isinstance(x, FNot):
            return f"~{go(x.arg, 'unary')}"
        if isinstance(x, (FForall, FExists)):
            if x.var.sort is None:
                kw = "all" if isinstance(x, FForall) else "ex"
            else:
                kw = ("all" if isinstance(x, FForall) else "ex") + str(x.var.sort)
            s = f"{kw} {x.var.name} . {go(x.body, 'imp')}"
            return f"({s})" if ctx != "imp" else s
        if isinstance(x, FAnd):
            s = f"{go(x.left, 'and')} & {go(x.right, 'unary')}"
            return f"({s})" if ctx == "unary" else s
        if isinstance(x, FOr):
            s = f"{go(x.left, 'or')} | {go(x.right, 'and')}"
            return f"({s})" if ctx in ("and", "unary") else s
        if isinstance(x, FImp):
            s = f"{go(x.left, 'or')} -> {go(x.right, 'imp')}"
            return f"({s})" if ctx != "imp" else s
        raise SortError(f"unknown FOL node {x!r}")

    return go(phi, "imp")


def parse(language: str, text: str, sig: Signature = EMPTY_SIGNATURE,
          free: dict[str, Sort] | None = None):
    if language == "lattice":
        return parse_lattice(text, sig)
    if language == "modal":
        return parse_modal(text, sig)
    if language == "fol":
        return parse_fol(text, sig, free)
    raise PreconditionError(f"unknown language {language!r}")


def print_formula(formula) -> str:
    if isinstance(formula, LatticeFormula):
        return print_lattice(formula)
    if isinstance(formula, ModalFormula):
        return print_modal(formula)
    if isinstance(formula, FolFormula):
        return print_fol(formula)
    raise SortError(f"not a formula: {formula!r}")
