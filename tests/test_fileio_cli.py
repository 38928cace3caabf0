"""File formats and the command-line front end."""

import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polarmodal import catalog, cli, fileio, semantics
from polarmodal.errors import ParseError, PreconditionError
from polarmodal.frames import Sort
from polarmodal.semantics import LatticeModel, ModalModel
from polarmodal.syntax import MAX_NESTING

from conftest import hash_seed_env


F0_TEXT = """\
# reference frame
sorts A: a0 a1  B: b0 b1
I: a0 b1 , a1 b0
"""

MODEL_TEXT = F0_TEXT + """\
val P0 : a0
val Q0 : b0
val p0 : a0
"""

CHAIN3_TEXT = """\
elems c0 c1 c2
leq: c0 c0 , c0 c1 , c0 c2 , c1 c1 , c1 c2 , c2 c2
op f type 1->1 table: c0 -> c0 , c1 -> c1 , c2 -> c2
"""


# ---------------------------------------------------------------- fileio

def test_load_frame(f0):
    frame = fileio.load_frame(F0_TEXT)
    assert frame.points_a == f0.points_a
    assert frame.incidence == f0.incidence
    with_rel = fileio.load_frame(
        F0_TEXT + "rel R sort 1;11 : a0 a0 a1 , a1 a1 a0\n")
    assert with_rel.relations["R"].tuples == {("a0", "a0", "a1"),
                                              ("a1", "a1", "a0")}
    with pytest.raises(ParseError):
        fileio.load_frame(MODEL_TEXT)  # valuation lines


def test_frame_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        fileio.load_frame("bogus x y\n")
    with pytest.raises(ParseError, match="line 2"):
        fileio.load_frame("sorts A: a0  B: b0\nI: a0\n")
    with pytest.raises(ParseError, match="arity"):
        fileio.load_frame("sorts A: a0  B: b0\nrel R sort 1;1 : a0\n")
    with pytest.raises(ParseError):
        fileio.load_frame("I: a0 b0\n")  # no sorts line


def test_parse_error_without_column():
    err = ParseError("unknown directive 'foo'", 2)
    assert str(err) == "line 2: unknown directive 'foo'"
    assert str(ParseError("bad token", 1, 4)) == "line 1, col 4: bad token"


@pytest.mark.parametrize("text, line, what", [
    ("sorts A: a0 a0  B: b0\n", 1, "point 'a0' is listed twice"),
    ("sorts A: a0  B: b0 a0\n", 1, "point 'a0' is listed twice"),
    ("sorts A: a0  B: b0\nsorts A: a1  B: b1\n", 2, "repeated 'sorts' line"),
    ("sorts A: a0  B: b0\nrel R sort 1;1 : a0 a0\nrel R sort 1;1 :\n", 3,
     "relation 'R' is defined twice"),
    (F0_TEXT + "val P0 : a0\nval P0 : a1\n", 5, "variable 'P0' is valued twice"),
    (F0_TEXT + "val Q1 : b0\nval Q01 : b1\n", 5,
     "variable 'Q01' is valued twice"),
    (F0_TEXT + "val p0 : a0\nval p0 : a1\n", 5, "variable 'p0' is valued twice"),
    ("elems c0 c1\nelems c0\n", 2, "repeated 'elems' line"),
    ("elems c0 c1 c0\n", 1, "element 'c0' is listed twice"),
    (CHAIN3_TEXT + "op f type 1->1 table: c0 -> c0 , c1 -> c1 , c2 -> c2\n", 4,
     "operator 'f' is defined twice"),
    ("elems c0\nleq: c0 c0\nop f type 1->1 table: c0 -> c0 , c0 -> c0\n", 3,
     "operator f: arguments 'c0' have two rows"),
    ("p0 := Q0\np1 := Q1\np0 := Q1\n", 3, "variable 'p0' is assigned twice"),
    ("p1 := Q0\np01 := Q1\n", 2, "variable 'p01' is assigned twice"),
    ("sig: f 1->1 , f d->d\np0 := f(Q0)\n", 1,
     "operator 'f' is declared twice"),
])
def test_loaders_reject_repeats(text, line, what):
    # lattice expansion files start with their elems line, assignment
    # files hold ':=' lines
    if text.startswith("elems"):
        load = fileio.load_lattice_expansion
    elif ":=" in text:
        load = fileio.load_assignment
    else:
        load = fileio.load_model
    with pytest.raises(ParseError) as info:
        load(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {what}"


def test_load_model():
    modal, lattice = fileio.load_model(MODEL_TEXT)
    assert modal.var(Sort.ONE, 0) == {"a0"}
    assert modal.var(Sort.DEL, 0) == {"b0"}
    assert lattice.valuation[0] == {"a0"}
    only_lattice, _ = fileio.load_model(F0_TEXT + "val p0 : a0\n")
    assert only_lattice is None
    with pytest.raises(PreconditionError):
        fileio.load_modal_model(F0_TEXT + "val p0 : a0\n")


def test_model_roundtrip():
    modal = fileio.load_modal_model(MODEL_TEXT)
    again = fileio.load_modal_model(fileio.dump_modal_model(modal))
    assert again.valuation == modal.valuation
    assert again.frame.incidence == modal.frame.incidence


def test_frame_roundtrip():
    frame = fileio.load_frame(
        F0_TEXT + "rel R sort d;1d : b0 a0 b1\n")
    again = fileio.load_frame(fileio.dump_frame(frame))
    assert again.incidence == frame.incidence
    assert again.relations["R"].tuples == frame.relations["R"].tuples
    assert again.relations["R"].sorting == frame.relations["R"].sorting


def test_lattice_expansion_roundtrip():
    exp = fileio.load_lattice_expansion(CHAIN3_TEXT)
    assert exp.lattice.bottom == "c0" and exp.lattice.top == "c2"
    assert exp.operators["f"][1][("c1",)] == "c1"
    again = fileio.load_lattice_expansion(fileio.dump_lattice_expansion(exp))
    assert again.lattice.leq_pairs == exp.lattice.leq_pairs
    assert again.operators["f"] == exp.operators["f"]
    for name in catalog.catalog_names():
        exp = catalog.catalog_expansion(name)
        round_ = fileio.load_lattice_expansion(fileio.dump_lattice_expansion(exp))
        assert set(round_.operators) == set(exp.operators)


def test_lattice_parse_errors():
    with pytest.raises(ParseError):
        fileio.load_lattice_expansion("leq: c0 c0\n")  # no elems
    with pytest.raises(ParseError, match="row"):
        fileio.load_lattice_expansion(
            "elems c0\nleq: c0 c0\nop f type 1->1 table: c0 c0\n")


def test_signature_line():
    sig = fileio.parse_signature_line("f 1,1->1 , g d->d")
    assert sig.get("f").arity == 2 and sig.get("g").output is Sort.DEL
    sig2 = fileio.parse_signature_line("f 1,1->1, g d->d")
    assert sig2 == sig
    with pytest.raises(ParseError):
        fileio.parse_signature_line("f")
    with pytest.raises(ParseError, match="operator 'f' is declared twice"):
        fileio.parse_signature_line("f 1->1 , f d->d")


def test_load_assignment():
    asg, sig = fileio.load_assignment("sig: g d->d\np0 := g(Q0)\np1 := [d] P0\n")
    assert set(asg) == {0, 1}
    assert all(beta.sort is Sort.DEL for beta in asg.values())
    with pytest.raises(ParseError):
        fileio.load_assignment("p0 := P0\n")  # wrong sort
    with pytest.raises(ParseError):
        fileio.load_assignment("x := Q0\n")
    # errors carry the file line, and a column within that line
    for text, where, what in [
        ("sig: f 1->1\np0 := f(Q0)\n", "line 2, col 7",
         "f argument 0: expected a sort-1 argument, got sort-d"),
        ("p0 := Q0\n  p1 := Q0 & P0\n", "line 2",
         "MAnd: expected a sort-d argument, got sort-1"),
        ("p0 := Q0\np1 := Q0 &\n", "line 2", "unexpected end of input"),
        ("p0 :=  Q0 ?\n", "line 1, col 11", "unexpected character '?'"),
        ("sig: f 1->x\n", "line 1", "unknown sort 'x' (expected '1' or 'd')"),
    ]:
        with pytest.raises(ParseError) as info:
            fileio.load_assignment(text)
        assert str(info.value) == f"{where}: {what}"


# ---------------------------------------------------------------- CLI

@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "model.txt"
    p.write_text(MODEL_TEXT)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_eval(model_file, capsys):
    code, out, _ = run(capsys, "eval", model_file, "[b] Q0", "--point", "a1")
    assert code == 0 and "verdict: true" in out
    code, out, _ = run(capsys, "eval", model_file, "[b] Q0", "--point", "a0")
    assert code == 1 and "verdict: false" in out
    code, out, _ = run(capsys, "eval", model_file, "P0 | ~P0")
    assert code == 0 and "truth-set: a0 a1" in out


def test_cli_eval_errors(model_file, capsys):
    code, _, err = run(capsys, "eval", model_file, "[b] P0")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "eval", "/nonexistent/m.txt", "P0")
    assert code == 2


def test_cli_extent(model_file, capsys):
    code, out, _ = run(capsys, "extent", model_file, "p0")
    assert code == 0
    assert "extent: a0" in out and "intent: b0" in out


def test_cli_translate(tmp_path, capsys):
    asg = tmp_path / "asg.txt"
    asg.write_text("p0 := Q0\np1 := [d] P0\n")
    code, out, _ = run(capsys, "translate", "p0 \\/ p1", "--asg", str(asg))
    assert code == 0
    assert out.strip() == "[b] (<d> [b] Q0 | <d> [b] [d] P0)"


def test_cli_sttrans(capsys):
    code, out, _ = run(capsys, "sttrans", "[b] Q0")
    assert code == 0 and out.strip() == "alld v1 . I(u, v1) -> Q0(v1)"


def test_cli_stable(capsys):
    code, out, _ = run(capsys, "stable", "P0")
    assert code == 1 and "stable: false" in out
    code, out, _ = run(capsys, "stable", "[b] Q0")
    assert code == 0 and "stable: true" in out
    code, out, _ = run(capsys, "stable", "--fol", "P0(u)")
    assert code == 1 and "stable: false" in out


def test_cli_stable_fol_is_capped(capsys, monkeypatch):
    # fourteen binders over the catalog family: far more instances than the cap
    formula = "all1 w . " * 14 + "(P0(u) | ~P0(u))"
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 1000)
    code, out, err = run(capsys, "stable", "--fol", formula)
    assert code == 2 and out == ""
    assert err == ("error: resource cap exceeded: "
                   "quantifier instances exceed cap 1000\n")


@pytest.mark.parametrize("cap", ["abc", "-5"])
def test_cli_rejects_a_malformed_cap(cap):
    env = {**hash_seed_env("0"), "POLARMODAL_CAP": cap}
    done = subprocess.run([sys.executable, "-c", "import polarmodal"], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    done = subprocess.run([sys.executable, "-m", "polarmodal.cli", "stable", "P0"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == \
        f"error: POLARMODAL_CAP must be a positive integer, not {cap!r}\n"


def test_cli_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("sorts A: a0  B: b0\nfoo bar\n")
    code, out, err = run(capsys, "bisim", str(bad), str(bad))
    assert code == 2 and out == ""
    assert err == "error: line 2: unknown directive 'foo'\n"
    bad.write_text(MODEL_TEXT + "val P0 : a1\n")
    code, _, err = run(capsys, "bisim", str(bad), str(bad))
    assert code == 2 and err == "error: line 7: variable 'P0' is valued twice\n"


NESTING_SHAPES = {"lattice": ("brackets", "arguments", "chain", "sunk"),
                  "modal": ("prefix", "brackets", "arguments", "chain", "sunk"),
                  "fol": ("prefix", "brackets", "chain", "sunk")}


def _nested_command(language, shape, tmp_path, levels):
    """A CLI command whose formula nests `levels` deep in `shape`.

    Returns the command and the column of the formula's last atom, where
    a formula one level too deep is reported.  A chain nests `levels`
    connectives, so it has `levels + 1` operands; "sunk" is a bracketed
    operand that a connective pushes one level deeper.
    """
    atom, joiner = {"lattice": ("p0", " /\\ "), "modal": ("P0", " & "),
                    "fol": ("P0(u)", " & ")}[language]
    if shape == "prefix":
        formula = "~" * levels + atom
    elif shape == "brackets":
        formula = "(" * levels + atom + ")" * levels
    elif shape == "arguments":
        formula = "f(" * levels + atom + ")" * levels
    elif shape == "chain":
        formula = joiner.join([atom] * (levels + 1))
    else:
        formula = ("(" * (levels - 1) + atom + ")" * (levels - 1)
                   + joiner + atom)
    model = tmp_path / "model_f.txt"
    model.write_text(MODEL_TEXT + "rel f sort 1;1 : a0 a0 , a1 a1\n")
    argv = {"lattice": ["extent", str(model)], "modal": ["sttrans"],
            "fol": ["stable", "--fol"]}[language] + [formula]
    if shape == "arguments":
        argv += ["--sig", "f 1->1"]
    return argv, formula.rindex(atom) + 1


@pytest.mark.parametrize("language", ["lattice", "modal", "fol"])
def test_cli_rejects_formulas_nested_too_deep(language, tmp_path, capsys):
    for shape in NESTING_SHAPES[language]:
        argv, column = _nested_command(language, shape, tmp_path,
                                       MAX_NESTING + 1)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", shape
        assert err == (f"error: line 1, col {column}: "
                       f"formula nested deeper than {MAX_NESTING} levels\n"), shape


@pytest.mark.parametrize("language", ["lattice", "modal", "fol"])
def test_cli_evaluates_formulas_at_the_nesting_limit(language, tmp_path,
                                                      capsys):
    for shape in NESTING_SHAPES[language]:
        argv, _ = _nested_command(language, shape, tmp_path, MAX_NESTING)
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and err == "", shape
        if language == "lattice":
            assert "extent: a0" in out, shape
        if language == "modal" and shape in ("prefix", "chain"):
            assert out.strip() == argv[-1].replace("P0", "P0(u)"), shape
        if language == "fol":
            assert out.startswith("stable: "), shape


def test_cli_bisim(model_file, capsys, tmp_path):
    code, out, _ = run(capsys, "bisim", model_file, model_file)
    assert code == 0
    assert "a0 a0" in out and "sort-1 pairs" in out
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a0 a0\nb1 b1\n")
    code, out, _ = run(capsys, "bisim", model_file, model_file,
                       "--pairs", str(pairs))
    assert code == 0 and "bisimulation: true" in out
    pairs.write_text("a0 a1\n")
    code, out, _ = run(capsys, "bisim", model_file, model_file,
                       "--pairs", str(pairs))
    assert code == 1 and "violation" in out


def test_cli_bisim_reports_the_least_violation(tmp_path, capsys):
    # every pair but (a0, c0) and (b0, d0) fails, in a different clause
    # for each sort
    m1 = tmp_path / "m1.txt"
    m1.write_text("sorts A: a0 a1 a2 a3  B: b0 b1\n"
                  "I: a0 b0 , a1 b0 , a2 b1 , a3 b1\nval P0 : a0\n")
    m2 = tmp_path / "m2.txt"
    m2.write_text("sorts A: c0 c1 c2 c3  B: d0 d1\nI: c0 d0\nval P0 : c0\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(f"a{i} c{i}\n" for i in (3, 1, 2, 0))
                     + "b1 d1\nb0 d0\n")
    argv = ["bisim", str(m1), str(m2), "--pairs", str(pairs)]
    least = ("violation (forth): clause I-forth-A at pair ('a1', 'c1') "
             "with witness b0\n")
    assert run(capsys, *argv) == (1, least, "")
    for hash_seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-m", "polarmodal.cli", *argv],
                              env=hash_seed_env(hash_seed),
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (1, least)


@pytest.mark.parametrize("sorts", [
    "sorts A: a0 A: a1  B: b0",
    "sorts A: a0  B: b0 B: b1",
    "sorts x A: a0  B: b0",
    "sorts B: b0  A: a0",
    "sorts a0  B: b0",
    "sorts",
])
def test_cli_rejects_a_malformed_sorts_line(tmp_path, capsys, sorts):
    # each marker once, A: first; nothing is read as a point or dropped
    path = tmp_path / "frame.txt"
    path.write_text(f"# frame\n{sorts}\nI: a0 b0\n")
    assert run(capsys, "concepts", str(path)) == \
        (2, "", "error: line 2: expected 'sorts A: points  B: points'\n")


@pytest.mark.parametrize("command, text, error", [
    ("concepts", "sorts A: a0 a1  B: b0 b1\nI: a0 zz , a1 yy , xx b0\n",
     "incidence pair (a0,zz) is not in A x B"),
    ("concepts", "sorts A: a0 a1  B: b0 b1\nI: a0 b0\n"
                 "rel f sort 1;1 : a0 b0 , a1 b1 , b0 a0\n",
     "relation f: argument b0 ill-sorted"),
    ("canon", "elems a b c d\n"
              "leq: a a , b b , c c , d d , a b , b a , c d , d c\n",
     "order not antisymmetric on a,b"),
    ("canon", "elems a b c d\nleq: a a , b b , c c , d d , d c , c b , b a\n",
     "order not transitive on c,b,a"),
])
def test_cli_reports_the_least_invalid_input(tmp_path, capsys, command, text,
                                             error):
    # several pairs or tuples are bad; the least one is named under
    # every hash seed
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert run(capsys, command, str(path)) == (2, "", f"error: {error}\n")
    for hash_seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-m", "polarmodal.cli",
                               command, str(path)],
                              env=hash_seed_env(hash_seed),
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (2, f"error: {error}\n")


def test_cli_canon_rejects_tables_outside_the_carrier(tmp_path, capsys):
    head = "elems c0 c1\nleq: c0 c0 , c0 c1 , c1 c1\nop f type 1->1 table: "
    lat = tmp_path / "lattice.txt"
    for rows, what in (
            ("c0 -> c0 , c1 -> zz",
             "value 'zz' at ('c1',) is not a lattice element"),
            ("c0 -> c0 , c1 -> c1 , zz -> c1",
             "table entry ('zz',) is not a tuple of 1 lattice elements")):
        lat.write_text(head + rows + "\n")
        assert run(capsys, "canon", str(lat)) == \
            (2, "", f"error: operator f: {what}\n")


def test_cli_canon(tmp_path, capsys):
    lat = tmp_path / "chain3.txt"
    lat.write_text(CHAIN3_TEXT)
    code, out, _ = run(capsys, "canon", str(lat))
    assert code == 0
    assert out.splitlines()[0] == "sorts A: c0 c1 c2  B: c0* c1* c2*"
    assert any(line.startswith("rel f") for line in out.splitlines())


def test_cli_concepts(tmp_path, capsys):
    frame = tmp_path / "frame.txt"
    frame.write_text(F0_TEXT)
    code, out, _ = run(capsys, "concepts", str(frame))
    assert code == 0 and "# 4 concepts" in out


def test_cli_gen_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "frame", "--seed", "3")
    assert code == 0
    frame = fileio.load_frame(out)
    assert len(frame.points_a) == 3
    code, out2, _ = run(capsys, "gen", "frame", "--seed", "3")
    assert out2 == out
    code, out, _ = run(capsys, "gen", "model", "--seed", "3")
    assert code == 0
    fileio.load_modal_model(out)
    code, out, _ = run(capsys, "gen", "formula", "--lang", "modal",
                       "--sort", "d", "--seed", "5")
    assert code == 0
    from polarmodal.syntax import parse_modal
    assert parse_modal(out.strip()).sort is Sort.DEL


def test_cli_verify(capsys):
    code, out, _ = run(capsys, "verify", "galois", "--count", "5")
    assert code == 0
    assert "result: PASS" in out
    lines = out.splitlines()
    assert lines[-1].startswith("# wall time")
    # determinism modulo the timing line
    code, out2, _ = run(capsys, "verify", "galois", "--count", "5")
    assert out.splitlines()[:-1] == out2.splitlines()[:-1]


def test_cli_verify_rejects_small_size_bounds(capsys):
    assert run(capsys, "verify", "galois", "--maxA", "1") == \
        (2, "", "error: sort size bounds must be at least 2, not 1 and 4\n")


# ---------------------------------------------------------------- fuzz

FUZZ_TOKENS = ["", " ", "\n", ",", ":", ";", "(", ")", "->", "&", "|", "~",
               "[b]", "<d>", "\\/", "/\\", "P0", "Q1", "p0", "a0", "b1", "zz",
               "val", "sorts", "A:", "B:", "I:", "rel f sort 1;1 :", "elems",
               "leq:", "op", "type", "table:", "1->1", "d", "1", "all1 x .",
               "exd y .", "I(u, y)", "P0(u)", "f", "g(", ":="]

FUZZ_BASES = [MODEL_TEXT, F0_TEXT, CHAIN3_TEXT, "p0 := [d] P0\np1 := Q0\n",
              "a0 a0\nb1 b1\n",
              MODEL_TEXT + "rel f sort 1;1 : a0 a1 , a1 a1\nval P1 : a1\n"]
FUZZ_FORMULAS = ["P0 | ~P0", "[b] Q0", "<d> P0 -> P1", "p0 \\/ p1", "p0 /\\ 1",
                 "P0(u)", "all1 x . exd y . I(x, y)", "f(P0)", "Q0"]


@st.composite
def mutated(draw, bases):
    text = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        text = text[:i] + draw(st.sampled_from(FUZZ_TOKENS)) + text[j:]
    return text


def fuzz_commands(files, formula, n):
    f1, f2, f3 = files
    return [
        ["eval", f1, formula], ["eval", f1, formula, "--point", "a0"],
        ["eval", f1, formula, "--sig", "f 1->1"],
        ["extent", f1, formula], ["extent", f1, formula, "--close"],
        ["translate", formula, "--asg", f1],
        ["translate", formula, "--asg", f1, "--mode", "circle"],
        ["sttrans", formula], ["stable", formula], ["stable", formula, "--frame", f1],
        ["stable", "--fol", formula], ["bisim", f1, f2],
        ["bisim", f1, f2, "--pairs", f3], ["canon", f1], ["concepts", f1],
        ["gen", "frame", "--seed", n, "--size-a", n, "--density", "0.5"],
        ["gen", "model", "--size-b", n, "--sig", formula],
        ["gen", "formula", "--lang", "fol", "--depth", n],
        ["verify", "galois", "--count", "1", "--maxA", n],
        ["verify", "stability", "--count", "1", "--seed", n],
        ["eval", f1], ["bisim"], [formula],
    ]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(mutated(FUZZ_BASES), min_size=3, max_size=3),
       mutated(FUZZ_FORMULAS), st.sampled_from(["-1", "0", "1", "3", "x"]),
       st.integers(0, 22))
def test_cli_fuzz_exits_with_a_status(tmp_path, monkeypatch, texts, formula, n, pick):
    # any input gives a report or an error line, never a traceback
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 4096)
    files = []
    for k, text in enumerate(texts):
        path = tmp_path / f"input{k}.txt"
        path.write_text(text, encoding="utf-8")
        files.append(str(path))
    argv = fuzz_commands(files, formula, n)[pick]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
