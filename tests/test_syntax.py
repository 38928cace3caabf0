"""Parsers, printers and sort checking for the three languages."""

import ast
import dataclasses
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import gen, syntax
from polarmodal.catalog import D1_1, D1D_D, D11_1, DD_D
from polarmodal.errors import ParseError, PolarModalError, SortError
from polarmodal.frames import Sort, SortingType
from polarmodal.syntax import (
    FAnd, FEq, FExists, FForall, FImp, FInc, FOr, FolFormula, FPred, FRelApp,
    FVar, LAnd, LApp, LBot, LOr, LTop, LVar, LatticeFormula, MAnd, MBbox,
    MBdia, MDbox, MDdia, MImp, MNot, MOr, MVar, ModalFormula, Signature,
    fol_all_var_names, fol_free_vars, fol_subst, mapp, modal_depth, modal_vars,
    parse_fol, parse_lattice, parse_modal, print_fol, print_lattice,
    print_modal,
)
from polarmodal.transform import std_translate

from conftest import modal_depth_oracle, modal_vars_oracle

SIG = Signature.of({"f": D1_1, "g": DD_D, "h": D11_1, "r": D1D_D})


def test_signature():
    assert SIG.get("h").arity == 2
    assert "f" in SIG and "z" not in SIG
    with pytest.raises(SortError):
        SIG.get("z")
    assert SIG.names() == ["f", "g", "h", "r"]


@pytest.mark.parametrize("name", [",g", "f g", "", "(", "[b]", "f-1", "I", "P0",
                                  "Q12", "P00"])
def test_signature_rejects_names_that_do_not_read_back(name):
    # one tokenizer word, and not read as I(u, v) or P0(u) by the FOL parser
    with pytest.raises(ParseError, match="bad operator name"):
        Signature.of({"f": D1_1, name: DD_D})


def test_signature_accepts_names_read_by_position():
    names = ["top", "bot", "tt", "ff", "p0", "all1", "exd", "u", "U1", "Ud",
             "x_1", "f*", "g'", "I1", "P", "Qa"]
    assert Signature.of({n: D1_1 for n in names}).names() == sorted(names)


def test_distribution_type_parse():
    assert SortingType.parse_distribution("1,d->d") == SortingType.parse("d;1d")
    assert str(SortingType.parse_distribution("1,d->d")) == "d;1d"
    with pytest.raises(SortError, match="bad distribution type '1;d'"):
        SortingType.parse_distribution("1;d")
    with pytest.raises(SortError):
        SortingType.parse("1,d->d")


# ---------------------------------------------------------------- lattice

def test_parse_lattice_examples():
    assert parse_lattice("p0") == LVar(0)
    assert parse_lattice("top /\\ bot") == LAnd(LTop(), LBot())
    # /\ binds tighter than \/
    assert parse_lattice("p0 \\/ p1 /\\ p2") == \
        LOr(LVar(0), LAnd(LVar(1), LVar(2)))
    assert parse_lattice("(p0 \\/ p1) /\\ p2") == \
        LAnd(LOr(LVar(0), LVar(1)), LVar(2))
    assert parse_lattice("h(p0, f(p1))", SIG) == \
        LApp("h", (LVar(0), LApp("f", (LVar(1),))))


def test_parse_lattice_errors():
    with pytest.raises(ParseError):
        parse_lattice("p0 \\/")
    with pytest.raises(ParseError):
        parse_lattice("f(p0)")  # undeclared operator
    with pytest.raises(ParseError):
        parse_lattice("h(p0)", SIG)  # wrong arity
    err = None
    try:
        parse_lattice("p0 /\\ ?")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 1 and err.column == 7


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 4))
def test_lattice_roundtrip(seed, depth):
    phi = gen.random_lattice_formula(seed, depth, 3, SIG)
    assert parse_lattice(print_lattice(phi), SIG) == phi


# ---------------------------------------------------------------- modal

def test_parse_modal_examples():
    assert parse_modal("P0") == MVar(Sort.ONE, 0)
    assert parse_modal("Q3") == MVar(Sort.DEL, 3)
    assert parse_modal("[b] Q0") == MBbox(MVar(Sort.DEL, 0))
    assert parse_modal("<d> P0") == MDdia(MVar(Sort.ONE, 0))
    assert parse_modal("~P0 & P1 -> P0 | P1") == MImp(
        MAnd(MNot(MVar(Sort.ONE, 0)), MVar(Sort.ONE, 1)),
        MOr(MVar(Sort.ONE, 0), MVar(Sort.ONE, 1)))
    # -> is right-associative
    assert parse_modal("P0 -> P1 -> P2") == MImp(
        MVar(Sort.ONE, 0), MImp(MVar(Sort.ONE, 1), MVar(Sort.ONE, 2)))
    assert parse_modal("tt").sort is Sort.DEL
    assert parse_modal("g(Q0)", SIG) == mapp(SIG, "g", [MVar(Sort.DEL, 0)])


def test_modal_sort_errors():
    with pytest.raises(SortError):
        MBbox(MVar(Sort.ONE, 0))
    with pytest.raises(SortError):
        MAnd(MVar(Sort.ONE, 0), MVar(Sort.DEL, 0))
    with pytest.raises(SortError):
        mapp(SIG, "f", [MVar(Sort.DEL, 0)])
    with pytest.raises(ParseError):
        parse_modal("P0 & Q0")
    with pytest.raises(ParseError):
        parse_modal("f(Q0)", SIG)


def test_modal_measures():
    theta = parse_modal("[b] (Q0 | [d] P1)")
    assert theta.sort is Sort.ONE
    assert modal_vars(theta) == {(Sort.DEL, 0), (Sort.ONE, 1)}
    assert modal_depth(theta) == 2
    assert modal_depth(parse_modal("g(Q0)", SIG)) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5),
       st.sampled_from([Sort.ONE, Sort.DEL]))
def test_modal_depth_matches_recursion(seed, depth, sort):
    theta = gen.random_modal_formula(seed, depth, sort, 2, SIG)
    assert modal_depth(theta) == modal_depth_oracle(theta)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5),
       st.sampled_from([Sort.ONE, Sort.DEL]), st.integers(1, 4))
def test_modal_vars_matches_recursion(seed, depth, sort, num_vars):
    theta = gen.random_modal_formula(seed, depth, sort, num_vars, SIG)
    assert modal_vars(theta) == modal_vars_oracle(theta)


def _shared_chain(k):
    """x_0 = P0, x_(i+1) = [b] <d> x_i | f(x_i): k levels, each naming the
    one object x_i twice, so the tree has about 2**k nodes and depth 2k."""
    x = MVar(Sort.ONE, 0)
    for _ in range(k):
        x = MOr(MBbox(MDdia(x)), mapp(SIG, "f", [x]))
    return x


def test_modal_depth_visits_shared_subformulas_once():
    for k in range(8):
        assert modal_depth(_shared_chain(k)) == modal_depth_oracle(_shared_chain(k)) \
            == 2 * k
    # 2**3000 tree nodes and 6,000 levels: past any tree walk and past
    # Python's recursion limit
    assert modal_depth(_shared_chain(3000)) == 6000


def test_modal_vars_visits_shared_subformulas_once():
    for k in range(8):
        assert modal_vars(_shared_chain(k)) == modal_vars_oracle(_shared_chain(k)) \
            == {(Sort.ONE, 0)}
    start = time.perf_counter()
    assert modal_vars(_shared_chain(3000)) == {(Sort.ONE, 0)}
    assert time.perf_counter() - start < 1.0


_SORT_REPRS = {"1": "<Sort.ONE: '1'>", "d": "<Sort.DEL: 'd'>"}


@pytest.mark.parametrize("cls, dual, token, arg, out", [
    (MBbox, MBdia, "[b]", "d", "1"), (MDbox, MDdia, "[d]", "1", "d"),
    (MBdia, MBbox, "<b>", "d", "1"), (MDdia, MDbox, "<d>", "1", "d")])
def test_box_family_layout(cls, dual, token, arg, out):
    # result digests read the dataclass fields and repr; errors, the token
    assert [f.name for f in dataclasses.fields(cls)] == ["arg", "sort"]
    var = MVar(Sort(arg), 0)
    theta = cls(var)
    assert repr(theta) == (f"{cls.__name__}(arg=MVar(sort={_SORT_REPRS[arg]}, "
                           f"index=0), sort={_SORT_REPRS[out]})")
    assert theta == cls(MVar(Sort(arg), 0))
    assert hash(theta) == hash(cls(MVar(Sort(arg), 0)))
    assert theta != dual(var)
    assert print_modal(theta) == f"{token} {var.name}"
    with pytest.raises(SortError) as err:
        cls(MVar(Sort(out), 0))
    assert str(err.value) == f"{token}: expected a sort-{arg} argument, got sort-{out}"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 4),
       st.sampled_from([Sort.ONE, Sort.DEL]))
def test_modal_roundtrip(seed, depth, sort):
    theta = gen.random_modal_formula(seed, depth, sort, 2, SIG)
    reparsed = parse_modal(print_modal(theta), SIG)
    assert reparsed == theta
    assert reparsed.sort is theta.sort


# ---------------------------------------------------------------- FOL

def test_parse_fol_examples():
    u, v = FVar("u", Sort.ONE), FVar("v", Sort.DEL)
    assert parse_fol("all1 u . exd v . I(u, v)") == \
        FForall(u, FExists(v, FInc(u, v)))
    phi = parse_fol("alld v . I(u, v) -> Q0(v)", free={"u": Sort.ONE})
    assert phi == FForall(v, FImp(FInc(u, v), FPred("Q0", v)))
    assert parse_fol("u = z", free={"u": Sort.ONE, "z": Sort.ONE}) == \
        FEq(u, FVar("z", Sort.ONE))
    rel = parse_fol("h(u, z, w)", SIG,
                    free={"u": Sort.ONE, "z": Sort.ONE, "w": Sort.ONE})
    assert rel == FRelApp("h", u, (FVar("z", Sort.ONE), FVar("w", Sort.ONE)))


def test_parse_fol_errors():
    with pytest.raises(ParseError):
        parse_fol("P0(u)")  # u undeclared
    with pytest.raises(ParseError):
        parse_fol("P0(v)", free={"v": Sort.DEL})  # wrong sort
    with pytest.raises(ParseError):
        parse_fol("I(v, v)", free={"v": Sort.DEL})
    with pytest.raises(ParseError):
        parse_fol("u = v", free={"u": Sort.ONE, "v": Sort.DEL})
    with pytest.raises(ParseError):
        parse_fol("r(u, u, v)", SIG, free={"u": Sort.ONE, "v": Sort.DEL})
    # a binder keyword names no variable: `all1 = all1` could not use it
    with pytest.raises(ParseError, match="bad variable name 'all1'"):
        parse_fol("ex1 all1 . P0(all1)")
    with pytest.raises(ParseError, match="bad variable name 'all1'"):
        parse_fol("P0(all1)", free={"all1": Sort.ONE})
    # every atom's argument list has the length of its sorts
    for text in ["I(u)", "I(u, v, v)", "P0(u, u)", "P0()", "f(u)",
                 "h(u, u, u, u)", "I(u v)", "P0(u"]:
        with pytest.raises(ParseError):
            parse_fol(text, SIG, free={"u": Sort.ONE, "v": Sort.DEL})


def test_a_word_before_a_bracket_applies_an_operator():
    """A word followed by `(` is an application in all three languages, so
    operators may be named like constants, variables, binders and FOL
    variables; elsewhere the word keeps its usual reading."""
    sig = Signature.of({"top": D1_1, "p0": D11_1, "all1": D1D_D, "f": D1_1})
    p0, one = MVar(Sort.ONE, 0), Sort.ONE
    assert parse_lattice("top(top) \\/ p0(p0, bot)", sig) == LOr(
        LApp("top", (LTop(),)), LApp("p0", (LVar(0), LBot())))
    assert parse_modal("top(P0) & p0(top, P0)", sig) == MAnd(
        mapp(sig, "top", [p0]), mapp(sig, "p0", [parse_modal("top"), p0]))
    f, v = FVar("f", one), FVar("v", Sort.DEL)
    assert parse_fol("f = f & f(f, f) | all1(v, f, v)", sig,
                     free={"f": one, "v": Sort.DEL}) == FOr(
        FAnd(FEq(f, f), FRelApp("f", f, (f,))), FRelApp("all1", v, (f, v)))
    assert parse_fol("ex1 f . top(f, f)", sig) == \
        FExists(f, FRelApp("top", f, (f,)))
    # I and the P/Q predicates are read before the signature
    assert parse_fol("I(f, v) & P0(f)", sig, free={"f": one, "v": Sort.DEL}) \
        == FAnd(FInc(f, v), FPred("P0", f))


def test_fol_helpers():
    phi = parse_fol("alld v . I(u, v) -> Q0(v)", free={"u": Sort.ONE})
    u, z = FVar("u", Sort.ONE), FVar("z", Sort.ONE)
    assert fol_free_vars(phi) == frozenset({u})
    assert fol_all_var_names(phi) == {"u", "v"}
    shifted = fol_subst(phi, u, z)
    assert fol_free_vars(shifted) == frozenset({z})
    assert print_fol(shifted) == "alld v . I(z, v) -> Q0(v)"
    with pytest.raises(SortError):
        fol_subst(phi, u, FVar("v", Sort.DEL))  # would be captured


def test_fol_subst_captures_only_where_old_is_free():
    u, z = FVar("u", Sort.ONE), FVar("z", Sort.ONE)
    free = {"u": Sort.ONE}
    # a binder named z with no u below it captures nothing
    apart = parse_fol("(ex1 z . P0(z)) & P0(u)", free=free)
    assert print_fol(fol_subst(apart, u, z)) == "(ex1 z . P0(z)) & P0(z)"
    # a binder named z of the other sort would capture the new z
    with pytest.raises(SortError, match="capture z"):
        fol_subst(parse_fol("exd z . I(u, z)", free=free), u, z)
    # a binder of u shadows it: its body is left as it is
    shadow = parse_fol("P0(u) & (ex1 u . P1(u))", free=free)
    assert print_fol(fol_subst(shadow, u, z)) == "P0(z) & (ex1 u . P1(u))"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_fol_roundtrip(seed, depth):
    phi = gen.random_fol_sentence(seed, depth, SIG)
    assert fol_free_vars(phi) == frozenset()
    assert parse_fol(print_fol(phi), SIG) == phi


# operator names that every parser also reads otherwise: as constants,
# lattice variables, binders, FOL variables or sort-reduction guards; the
# last four are no operator names
ROUND_TRIP_NAMES = ["f", "top", "bot", "tt", "ff", "p0", "u1", "all1", "alld",
                    "ex1", "exd", "u", "v", "U1", "Ud", "x_1", "f*",
                    "I", "P0", "Q1", ",g"]
NOT_OPERATOR_NAMES = {"I", "P0", "Q1", ",g"}


def test_printed_formulas_parse_back_under_any_signature():
    """Each of 500 seeded two-operator signatures is rejected when it is
    declared, or its lattice, modal and FOL formulas and its standard
    translations, at a free variable named like an operator, print to
    text that parses back equal."""
    sorts = [Sort.ONE, Sort.DEL]
    for seed in range(500):
        rng = random.Random(seed)
        names = rng.sample(ROUND_TRIP_NAMES, 2)
        mapping = {}
        for n in names:
            inputs = tuple(rng.choices(sorts, k=rng.randint(1, 2)))
            mapping[n] = SortingType(rng.choice(sorts), inputs)
        if NOT_OPERATOR_NAMES & set(names):
            with pytest.raises(ParseError, match="bad operator name"):
                Signature.of(mapping)
            continue
        sig = Signature.of(mapping)
        phi = gen.random_lattice_formula(seed, 3, 3, sig)
        assert parse_lattice(print_lattice(phi), sig) == phi, seed
        sort = rng.choice(sorts)
        theta = gen.random_modal_formula(seed, 3, sort, 2, sig)
        assert parse_modal(print_modal(theta), sig) == theta, seed
        var = rng.choice(["u", "f", "top", "x_1", "u1", "p0"])
        translated = std_translate(theta, var)
        assert parse_fol(print_fol(translated), sig, {var: sort}) == translated, seed
        chi = gen.random_fol_sentence(seed, 3, sig)
        assert parse_fol(print_fol(chi), sig) == chi, seed


FREE = {"u": Sort.ONE, "v": Sort.DEL}


def _parse_lattice(text):
    return parse_lattice(text, SIG)


def _parse_modal(text):
    return parse_modal(text, SIG)


def _parse_fol(text):
    return parse_fol(text, SIG, FREE)


LANGUAGES = [(_parse_lattice, print_lattice, LatticeFormula),
             (_parse_modal, print_modal, ModalFormula),
             (_parse_fol, print_fol, FolFormula)]


@pytest.mark.parametrize("parse, show, text", [
    (_parse_lattice, print_lattice, text) for text in [
        "p0 \\/ p1 /\\ p2", "(p0 \\/ p1) /\\ p2", "p0 /\\ p1 /\\ p2",
        "p0 /\\ (p1 /\\ p2)", "p0 \\/ p1 \\/ p2", "p0 \\/ (p1 \\/ p2)",
        "h(p0 \\/ p1, f(top)) /\\ bot"]
] + [
    (_parse_modal, print_modal, text) for text in [
        "P0 -> P1 -> P2", "(P0 -> P1) -> P2", "~(P0 & P1)", "~P0 & P1 -> P0 | P1",
        "P0 & P1 & P2", "P0 & (P1 & P2)", "(P0 | P1) & P2", "P0 | P1 & P2",
        "P0 | (P1 | P2)", "(P0 -> P1) | top", "[b] (Q0 | [d] P1)",
        "<b> <d> ~P0", "g(Q0 -> Q1) & ff", "h(P0 | P1, bot) -> ~[b] tt"]
] + [
    (_parse_fol, print_fol, text) for text in [
        "P0(u) & (all1 w . I(w, v))", "(ex1 w . P0(w)) -> P0(u)",
        "all1 w . exd z . I(w, z) & Q0(z) | r(z, w, v)",
        "~I(u, v) -> P0(u) -> Q0(v)", "(P0(u) -> P0(u)) -> Q0(v)",
        "~u = u | (P0(u) | Q0(v)) & v = v"]
], ids=lambda x: x if isinstance(x, str) else "")
def test_canonical_text_prints_back(parse, show, text):
    assert show(parse(text)) == text


LEXER_ALPHABET = ["(", ")", "~", "&", "|", ",", ".", "=", "->", "/\\", "\\/",
                  "[b]", "[d]", "<b>", "<d>", "P0", "Q1", "p0", "top", "bot", "tt",
                  "ff", "f", "g", "h", "r", "I", "u", "v", "all1", "exd", "?"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEXER_ALPHABET), max_size=30),
       st.sampled_from([" ", "\n"]))
def test_parsers_return_a_formula_or_a_package_error(tokens, sep):
    text = sep.join(tokens)
    for parse, show, kind in LANGUAGES:
        try:
            phi = parse(text)
        except PolarModalError:
            continue
        assert isinstance(phi, kind)
        assert parse(show(phi)) == phi


# ---------------------------------------------------------------- tokens

# token soup: mostly tokens and token-like pieces, now and then a
# character that starts no token (non-ASCII ones among them), joined by
# nothing or by runs of spaces, tabs and line breaks
SOUP_PIECES = ["(", ")", "(", ")", "[b]", "[d]", "<b>", "<d>", "~", "&", "|",
               "->", "/\\", "\\/", ",", ".", "=", "P0", "Q1", "p0", "p12",
               "top", "bot", "tt", "ff", "f", "g", "h", "I", "u", "v", "x", "x1'",
               "a*b", "all1", "alld", "ex1", "exd", "P0(u)", "I(u, v)", "u = u",
               "f(", "h("]
SOUP_STRAYS = ["[", "]", "<", ">", "-", "/", "\\", ":", "7", "é", "λ", "∧",
               "$", "\u00a0x"]
SOUP_GAPS = ["", " ", " ", "  ", "\t", "\n", " \n\t", "\r\n", "\x0b"]


def _soup(rng):
    """Token soup, or every other time a printed formula whose spaces are
    replaced by gaps and which, half the time, has one piece of soup put in."""
    if rng.random() < 0.5:
        return "".join(rng.choice(SOUP_PIECES if rng.random() < 0.97 else SOUP_STRAYS)
                       + rng.choice(SOUP_GAPS) for _ in range(rng.randint(0, 14)))
    seed = rng.randrange(10 ** 6)
    text = rng.choice([
        lambda: print_lattice(gen.random_lattice_formula(seed, 3, 2, SIG)),
        lambda: print_modal(gen.random_modal_formula(seed, 3, Sort.ONE, 2, SIG)),
        lambda: print_fol(std_translate(
            gen.random_modal_formula(seed, 2, Sort.ONE, 2, SIG), "u")),
        lambda: print_fol(gen.random_fol_sentence(seed, 2, SIG))])()
    text = re.sub(" ", lambda _: rng.choice(SOUP_GAPS[1:]), text)
    if rng.random() < 0.5:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(SOUP_PIECES + SOUP_STRAYS) + text[at:]
    return text


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except PolarModalError as e:
        return f"{type(e).__name__}: {e}"


def _scanned_tokens(text):
    return [tok for tok, _, _ in syntax._scan(text)]


def test_tokenize_matches_the_position_tracking_scan():
    rng = random.Random(29)
    texts = [_soup(rng) for _ in range(4000)]
    fast = [_outcome(syntax._tokenize, text) for text in texts]
    assert fast == [_outcome(_scanned_tokens, text) for text in texts]
    errors = sum(out.startswith("ParseError") for out in fast)
    assert 400 < errors < 3600  # both paths are exercised


# `message` names the token that its error is placed at
_NAMED_TOKEN = re.compile(r"(?:character|found|token|input|name|variable) "
                          r"('[^']*'|\"[^\"]*\")|^(\w+) (?:expects|argument)")


def test_parsers_match_the_position_tracking_scan(monkeypatch):
    # an error is placed at the start of a token that `_scan` finds, and
    # at the token its message names; every outcome is the same when the
    # parsers read their tokens from `_scan`
    rng = random.Random(29)
    texts = [_soup(rng) for _ in range(3000)]
    named = 0
    for text in texts:
        for parse, _, _ in LANGUAGES:
            try:
                parse(text)
            except PolarModalError as e:
                if not isinstance(e, ParseError) or e.column is None:
                    continue
                at = text.split("\n")[e.line - 1][e.column - 1:]
                m = _NAMED_TOKEN.search(e.message)
                if m is not None:
                    token = ast.literal_eval(m.group(1)) if m.group(1) else m.group(2)
                    assert at.startswith(token), (text, str(e))
                    named += 1
                if not e.message.startswith("unexpected character"):
                    starts = {(line, col) for _, line, col in syntax._scan(text)}
                    assert (e.line, e.column) in starts, (text, str(e))
    assert named > 3000
    fast = [[_outcome(parse, text) for parse, _, _ in LANGUAGES] for text in texts]
    monkeypatch.setattr(syntax, "_tokenize", _scanned_tokens)
    assert fast == [[_outcome(parse, text) for parse, _, _ in LANGUAGES]
                    for text in texts]


@pytest.mark.parametrize("parse, text, error", [
    (_parse_fol, "P0(u) &\n  v = u", "line 2, col 3: equality between different sorts"),
    (_parse_fol, "ex1 x .\n\tI(x, v) & r(x, u, v)",
     "line 2, col 12: r expects variables of sorts d, 1, d"),
    (_parse_fol, "all1 x . P0(x) ->\n ~$", "line 2, col 3: unexpected character '$'"),
    (_parse_fol, "u = u =", "line 1, col 7: trailing input '='"),
    (_parse_lattice, "p0 /\\\n  h(p0)", "line 2, col 3: h expects 2 arguments"),
    (_parse_modal, "[b] Q0 &\n  f(Q0)",
     "line 2, col 3: f argument 0: expected a sort-1 argument, got sort-d"),
    # a sort clash is placed at its operator, which the message names
    (_parse_modal, "P0 & Q0", "line 1, col 4: &: expected a sort-1 argument, got sort-d"),
    (_parse_modal, "Q0 |\n  ~P0", "line 1, col 4: |: expected a sort-d argument, got sort-1"),
    (_parse_modal, "P1 -> P0 -> tt",
     "line 1, col 10: ->: expected a sort-1 argument, got sort-d"),
    (_parse_modal, "P0 & [d] tt", "line 1, col 6: [d]: expected a sort-1 argument, got sort-d"),
    (_parse_modal, "~\t<b> P0", "line 1, col 3: <b>: expected a sort-d argument, got sort-1"),
    (_parse_modal, "P0 | (Q0", "unexpected end of input"),
])
def test_errors_are_placed_at_their_token(parse, text, error):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == error


def test_long_chains_of_connectives_know_their_sort():
    # a connective's sort is stored, not read down its left spine
    chain = MVar(Sort.DEL, 0)
    for _ in range(5000):
        chain = MAnd(chain, MVar(Sort.DEL, 1))
    assert chain.sort is Sort.DEL and MNot(chain).sort is Sort.DEL
    assert MImp(MOr(chain, chain), chain).sort is Sort.DEL
