"""Parsers, printers and sort checking for the three languages."""

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import gen
from polarmodal.catalog import D1_1, D1D_D, D11_1, DD_D
from polarmodal.errors import ParseError, PolarModalError, SortError
from polarmodal.frames import DistributionType, Sort, SortingType
from polarmodal.syntax import (
    FEq, FExists, FForall, FImp, FInc, FolFormula, FPred, FRelApp, FVar, LAnd,
    LApp, LBot, LOr, LTop, LVar, LatticeFormula, MAnd, MBbox, MDdia,
    MImp, MNot, MOr, MVar, ModalFormula, Signature, fol_all_var_names,
    fol_free_vars, fol_subst, mapp, modal_depth, modal_vars, parse_fol,
    parse_lattice, parse_modal, print_fol, print_lattice, print_modal,
)

SIG = Signature.of({"f": D1_1, "g": DD_D, "h": D11_1, "r": D1D_D})


def test_signature():
    assert SIG.get("h").arity == 2
    assert "f" in SIG and "z" not in SIG
    with pytest.raises(SortError):
        SIG.get("z")
    assert SIG.names() == ["f", "g", "h", "r"]


def test_distribution_type_parse():
    assert str(DistributionType.parse("1,d->d")) == "1,d->d"
    assert DistributionType.parse("1,d->d").sorting() == \
        SortingType.parse("d;1d")
    with pytest.raises(SortError):
        DistributionType.parse("1;d")
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
    with pytest.raises(SortError):
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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_fol_roundtrip(seed, depth):
    phi = gen.random_fol_sentence(seed, depth, SIG)
    assert fol_free_vars(phi) == frozenset()
    assert parse_fol(print_fol(phi), SIG) == phi


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
