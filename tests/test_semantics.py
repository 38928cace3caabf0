"""Concept semantics, sorted modal truth sets and FOL evaluation."""

import dataclasses
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import gen, semantics
from polarmodal.catalog import D1_1, D1D_D, DD_D
from polarmodal.errors import CapExceeded, PreconditionError, SortError
from polarmodal.frames import Concept, Sort, SortedFrame, random_frame
from polarmodal.semantics import (
    LatticeModel, ModalModel, b_axioms, d_axioms, eval_fol, frame_valid_modal,
    k_axioms, lattice_consequence, lattice_extent,
    sat_lattice, sat_modal, sort_reduce, sorting_constraint_sentences,
    truth_set,
)
from polarmodal.syntax import (
    MAX_NESTING, FAnd, FForall, FImp, FNot, FolFormula, FPred, FVar, LAnd, LApp,
    LOr, LVar, MBbox, MBdia, MDbox, MDdia, MNot, ModalFormula, Signature,
    fol_all_var_names, fol_free_vars, fol_subst, lattice_vars, modal_depth,
    modal_vars, parse_fol, parse_lattice, parse_modal, print_fol, print_modal,
)
from polarmodal.transform import is_stable_fol, is_stable_modal, std_translate

from conftest import (
    ALL_TYPES, SetKernels, fol_oracle, fol_subst_oracle, galois_dual, make_rel,
    oracle_frames, sort_reduce_oracle, stable_by_sets, with_relation,
)
from test_syntax import _shared_chain

SIG = Signature.of({"f": D1_1})


def lmodel(f0):
    return LatticeModel(f0, {0: {"a0"}, 1: {"a1"}})


# ---------------------------------------------------------------- lattice

def test_extent_variables_and_bounds(f0):
    m = lmodel(f0)
    c = lattice_extent(m, parse_lattice("p0"))
    assert c.extent == {"a0"} and c.intent == {"b0"}
    top = lattice_extent(m, parse_lattice("top"))
    assert top.extent == f0.points_a and top.intent == frozenset()
    bot = lattice_extent(m, parse_lattice("bot"))
    assert bot.extent == frozenset() and bot.intent == f0.points_b
    with pytest.raises(PreconditionError):
        lattice_extent(m, parse_lattice("p7"))


def test_extent_meet_join(f0):
    m = lmodel(f0)
    meet = lattice_extent(m, parse_lattice("p0 /\\ p1"))
    assert meet.extent == frozenset() and meet.intent == f0.points_b
    join = lattice_extent(m, parse_lattice("p0 \\/ p1"))
    # {b0} n {b1} is empty, so the join is the top concept
    assert join.intent == frozenset() and join.extent == f0.points_a


def test_extent_operator(f0):
    frame = with_relation(f0, make_rel("f", "1;1", [("a0", "a0")]))
    m = LatticeModel(frame, {0: {"a0"}})
    c = lattice_extent(m, parse_lattice("f(p0)", SIG))
    assert c.extent == {"a0"} and c.intent == {"b0"}
    # coincides with the closed image operator on this instance
    assert c.extent == frame.closed_op("f", [frozenset({"a0"})])


def test_extent_checks_the_arity_before_the_arguments(f0):
    frame = with_relation(f0, make_rel("k", "1;11", [("a0", "a0", "a0")]))
    m = LatticeModel(frame, {0: {"a0"}})
    # p5 has no valuation, but the missing second argument is found first
    with pytest.raises(SortError, match="k arity mismatch"):
        lattice_extent(m, LApp("k", (LVar(5),)))


def operator_by_tuples(frame, name, parts):
    """Reference concept of an operator node, by enumerating argument tuples.

    `parts` holds the extent (input sort 1) or intent (input sort d) of
    each argument.  Every argument tuple inside `parts` contributes the
    Galois dual of its section; the dual's sort carries their meet.
    """
    rel = frame.relation(name)
    tuples = itertools.product(*(sorted(frame.carrier(s))
                                 for s in rel.sorting.inputs))
    duals = [galois_dual(frame, name, u) for u in tuples
             if all(w in p for w, p in zip(u, parts))]
    if rel.sorting.output is Sort.ONE:
        intent = frame.points_b
        for d in duals:
            intent &= d
        return Concept(frame.galois_left(intent), intent)
    ext = frame.points_a
    for d in duals:
        ext &= d
    return Concept(ext, frame.galois_right(ext))


def operator_nodes(phi):
    if isinstance(phi, (LAnd, LOr)):
        yield from operator_nodes(phi.left)
        yield from operator_nodes(phi.right)
    elif isinstance(phi, LApp):
        yield phi
        for arg in phi.args:
            yield from operator_nodes(arg)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.floats(0.0, 1.0),
       st.integers(0, 10 ** 6))
def test_operator_extent_matches_tuple_enumeration(size_a, size_b, density,
                                                    seed):
    frame = random_frame(size_a, size_b, ALL_TYPES, density, seed)
    model = gen.random_lattice_model(frame, range(3), seed)
    for k in range(4):
        phi = gen.random_lattice_formula(seed + k, 3, 3,
                                         Signature.of(ALL_TYPES))
        for node in operator_nodes(phi):
            inputs = frame.relation(node.name).sorting.inputs
            parts = [c.extent if s is Sort.ONE else c.intent
                     for c, s in zip((lattice_extent(model, a)
                                      for a in node.args), inputs)]
            assert lattice_extent(model, node) == \
                operator_by_tuples(frame, node.name, parts)


def test_sat_and_consequence(f0):
    m = lmodel(f0)
    assert sat_lattice(m, "a0", parse_lattice("p0"))
    assert not sat_lattice(m, "a1", parse_lattice("p0"))
    assert sat_lattice(m, "b0", parse_lattice("p0"))  # intent membership
    assert lattice_consequence(m, parse_lattice("p0 /\\ p1"), parse_lattice("p0"))
    assert not lattice_consequence(m, parse_lattice("p0"), parse_lattice("p1"))


def test_lattice_model_stability():
    skew = SortedFrame(["a0", "a1"], ["b0", "b1"],
                       [("a0", "b0"), ("a0", "b1")])
    with pytest.raises(PreconditionError):
        LatticeModel(skew, {0: {"a0"}})
    closed = LatticeModel(skew, {0: {"a0"}}, close=True)
    assert closed.valuation[0] == skew.points_a
    with pytest.raises(SortError):
        LatticeModel(skew, {0: {"b0"}})


# ---------------------------------------------------------------- modal

def mmodel(f0):
    return ModalModel(f0, {(Sort.ONE, 0): {"a0"}, (Sort.DEL, 0): {"b0"}})


def test_truth_set_boxes(f0):
    m = mmodel(f0)
    assert truth_set(m, parse_modal("[b] Q0")) == {"a1"}
    assert truth_set(m, parse_modal("<b> Q0")) == {"a1"}
    assert truth_set(m, parse_modal("[d] P0")) == {"b1"}
    assert truth_set(m, parse_modal("<d> P0")) == {"b1"}
    assert truth_set(m, parse_modal("~P0 | P0")) == f0.points_a
    assert truth_set(m, parse_modal("ff")) == frozenset()


def test_truth_set_named_diamond(f0):
    frame = with_relation(f0, make_rel("f", "1;1", [("a1", "a0")]))
    m = ModalModel(frame, {(Sort.ONE, 0): {"a0"}})
    assert truth_set(m, parse_modal("f(P0)", SIG)) == {"a1"}
    bad = with_relation(f0, make_rel("f", "d;d", []))
    with pytest.raises(SortError):
        truth_set(ModalModel(bad, {}), parse_modal("f(P0)", SIG))


def test_sat_modal(f0):
    m = mmodel(f0)
    assert sat_modal(m, "a1", parse_modal("[b] Q0"))
    assert not sat_modal(m, "a0", parse_modal("[b] Q0"))
    with pytest.raises(SortError):
        sat_modal(m, "b0", parse_modal("P0"))


def test_an_evaluated_formula_stays_as_it_was(f0):
    """The listing an evaluation keeps on its formula lies outside the
    dataclass fields: the formula prints, compares and hashes as before,
    and a second evaluation reads the kept listing."""
    frame = with_relation(f0, make_rel("f", "1;1", [("a1", "a0")]))
    model = ModalModel(frame, {(Sort.ONE, 0): {"a0"}, (Sort.DEL, 0): {"b0"}})
    text = "[b] (Q0 | <d> P0) & f(P0) -> [b] (Q0 | <d> P0)"
    theta, fresh = parse_modal(text, SIG), parse_modal(text, SIG)

    def seen(x):
        return repr(x), hash(x), dataclasses.fields(x), print_modal(x)

    before = seen(theta)
    found = truth_set(model, theta)
    kept = theta._below
    assert kept is not None and fresh._below is None
    assert truth_set(model, theta) == found and theta._below is kept
    assert sat_modal(model, "a1", theta) == ("a1" in found)
    assert theta._below is kept
    assert seen(theta) == before == seen(fresh) and theta == fresh


@dataclasses.dataclass(frozen=True)
class _Unknown(ModalFormula):
    """A modal node the library does not know."""

    sort: Sort


def test_unknown_modal_nodes_are_rejected(f0):
    """An unknown node, alone or below a known one, is a SortError of every
    walk of a modal formula, and no other exception."""
    model = mmodel(f0)
    for theta in (_Unknown(Sort.ONE), MNot(_Unknown(Sort.ONE)),
                  MBbox(_Unknown(Sort.DEL))):
        for walk in (lambda: truth_set(model, theta),
                     lambda: sat_modal(model, "a0", theta),
                     lambda: frame_valid_modal(f0, theta, [(Sort.ONE, 0)]),
                     lambda: modal_vars(theta), lambda: modal_depth(theta)):
            with pytest.raises(SortError, match="^unknown modal node _Unknown"):
                walk()


@dataclasses.dataclass(frozen=True)
class _Stranger:
    """A node neither the lattice nor the FOL language has."""


def test_unknown_lattice_and_fol_nodes_are_rejected():
    """An unknown node, alone or below a known one, is a SortError of every
    walk of a lattice or FOL formula, and no other exception."""
    for phi in (_Stranger(), LAnd(LVar(0), _Stranger()),
                LApp("f", (LOr(_Stranger(), LVar(1)),))):
        with pytest.raises(SortError, match="^unknown lattice node _Stranger"):
            lattice_vars(phi)
    with pytest.raises(SortError, match="^unknown lattice node 'junk'"):
        lattice_vars(LAnd(LVar(0), "junk"))
    u, v, z = FVar("u", Sort.ONE), FVar("v", Sort.DEL), FVar("z", Sort.ONE)
    for phi in (_Stranger(), FNot(_Stranger()), FAnd(FPred("P0", u), _Stranger()),
                FForall(v, FImp(_Stranger(), FPred("P0", u)))):
        for walk in (lambda: fol_free_vars(phi), lambda: fol_all_var_names(phi),
                     lambda: fol_subst(phi, u, z), lambda: sort_reduce(phi)):
            with pytest.raises(SortError, match="^unknown FOL node _Stranger"):
                walk()


@settings(max_examples=80, deadline=None)
@given(oracle_frames, st.integers(0, 10 ** 6), st.integers(0, 3))
def test_modal_duality(frame, seed, depth):
    """Each diamond is the dual of its box: <b> phi is ~[b] ~phi and
    <d> psi is ~[d] ~psi."""
    m = gen.random_modal_model(frame, [(Sort.ONE, 0), (Sort.ONE, 1),
                                       (Sort.DEL, 0), (Sort.DEL, 1)], seed)
    phi = gen.random_modal_formula(seed, depth, Sort.DEL, 2)
    psi = gen.random_modal_formula(seed + 1, depth, Sort.ONE, 2)
    assert truth_set(m, MBdia(phi)) == truth_set(m, MNot(MBbox(MNot(phi))))
    assert truth_set(m, MDdia(psi)) == truth_set(m, MNot(MDbox(MNot(psi))))


def test_frame_valid_modal_cap(f0, monkeypatch):
    """The cap bounds the number of valuations before any is tried."""
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 4)
    tautology = parse_modal("P0 -> P0")
    assert frame_valid_modal(f0, tautology, [(Sort.ONE, 0)]) == (True, None)
    with pytest.raises(CapExceeded, match="16 valuations exceed cap 4"):
        frame_valid_modal(f0, tautology, [(Sort.ONE, 0), (Sort.DEL, 0)])


def test_searches_reject_a_variable_missing_from_vars_in_use():
    """A variable of the formula that vars_in_use lacks raises, naming the
    least such variable by sort and index, not the first the walk meets;
    extra variables are allowed."""
    frame = random_frame(2, 2, {}, 0.5, seed=1)
    cases = [("~P0", [], "P0"),
             ("P0 -> P0 & ~P1", [(Sort.ONE, 0)], "P1"),
             ("P2 & [b] Q1 & [b] Q0 & P1", [(Sort.ONE, 1)], "P2"),
             ("P2 & [b] Q1 & [b] Q0 & P1", [(Sort.ONE, 1), (Sort.ONE, 2)], "Q0")]
    for text, vars_in_use, least in cases:
        theta = parse_modal(text)
        for search in (lambda: frame_valid_modal(frame, theta, vars_in_use),
                       lambda: is_stable_modal(theta, [frame], vars_in_use)):
            with pytest.raises(PreconditionError,
                               match=f"^{least} is not among the variables in use$"):
                search()
    theta = parse_modal("P0 -> P0")
    assert frame_valid_modal(frame, theta, [(Sort.ONE, 0), (Sort.DEL, 3)]) == (True, None)
    assert is_stable_modal(parse_modal("[b] <d> P0"), [frame],
                           [(Sort.ONE, 0), (Sort.ONE, 1)])


def test_frame_validity(f0):
    for name, axiom, vars_ in k_axioms() + b_axioms() + d_axioms():
        ok, witness = frame_valid_modal(f0, axiom, vars_)
        assert ok, (name, witness)
    nonserial = SortedFrame(["a0"], ["b0"], [])
    for name, axiom, vars_ in d_axioms():
        ok, witness = frame_valid_modal(nonserial, axiom, vars_)
        assert not ok, name
    # K and B do not need seriality
    for name, axiom, vars_ in k_axioms() + b_axioms():
        ok, _ = frame_valid_modal(nonserial, axiom, vars_)
        assert ok, name


# ---------------------------------------------------------------- FOL

def test_eval_fol(f0):
    phi = parse_fol("alld v . I(u, v) -> Q0(v)", free={"u": Sort.ONE})
    predval = {"Q0": {"b1"}}
    assert eval_fol(f0, predval, {"u": "a0"}, phi)
    assert not eval_fol(f0, predval, {"u": "a1"}, phi)
    closed = parse_fol("ex1 u . alld v . I(u, v) -> Q0(v)")
    assert eval_fol(f0, predval, {}, closed)
    eq = parse_fol("u = z", free={"u": Sort.ONE, "z": Sort.ONE})
    assert eval_fol(f0, {}, {"u": "a0", "z": "a0"}, eq)
    with pytest.raises(PreconditionError):
        eval_fol(f0, predval, {}, phi)  # u unassigned
    with pytest.raises(SortError):
        eval_fol(f0, predval, {"u": "b0"}, phi)
    # an unsorted free variable, as sort reduction leaves it, takes any
    # point of A | B, and nothing else
    unsorted = sort_reduce(parse_fol("u = u", free={"u": Sort.ONE}))
    for evaluate in (eval_fol, fol_oracle):
        assert evaluate(f0, {}, {"u": "b0"}, unsorted)
        with pytest.raises(SortError, match="^assignment of u is not a point"):
            evaluate(f0, {}, {"u": "nonexistent"}, unsorted)


def test_eval_fol_errors_name_the_least_variable(f0):
    """Of several offending free variables, the least by name is named,
    whatever the string hash seed."""
    phi = parse_fol("u = z & w = w",
                    free={"u": Sort.ONE, "z": Sort.ONE, "w": Sort.DEL})
    for evaluate in (eval_fol, fol_oracle):
        assert outcome(evaluate, f0, {}, {}, phi) == \
            (PreconditionError, "free variable u is unassigned")
        assert outcome(evaluate, f0, {}, {"u": "b0", "w": "a0", "z": "b1"}, phi) \
            == (SortError, "assignment of u has the wrong sort")
        assert outcome(evaluate, f0, {}, {"u": "a0", "w": "a0", "z": "b1"}, phi) \
            == (SortError, "assignment of w has the wrong sort")


def test_eval_fol_counts_quantifier_instances(f0, monkeypatch):
    # two points for x, then two for y under each: 2 + 4 instances
    phi = parse_fol("all1 x . all1 y . P0(x) | ~P0(x)")
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 6)
    assert eval_fol(f0, {"P0": {"a0"}}, {}, phi)
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 5)
    with pytest.raises(CapExceeded):
        eval_fol(f0, {"P0": {"a0"}}, {}, phi)
    # an existential stops at its first witness, and so does the count
    assert eval_fol(f0, {"P0": {"a0"}}, {}, parse_fol("ex1 x . ex1 y . P0(x)"))


def test_eval_fol_relation(f0):
    frame = with_relation(f0, make_rel("f", "1;1", [("a1", "a0")]))
    phi = parse_fol("ex1 z . f(u, z) & P0(z)", SIG, free={"u": Sort.ONE})
    assert eval_fol(frame, {"P0": {"a0"}}, {"u": "a1"}, phi)
    assert not eval_fol(frame, {"P0": {"a0"}}, {"u": "a0"}, phi)


def test_sort_reduce_shape():
    phi = parse_fol("alld v . I(u, v) -> Q0(v)", free={"u": Sort.ONE})
    red = sort_reduce(phi)
    assert isinstance(red, FForall)
    assert red.var == FVar("v", None)
    assert isinstance(red.body, FImp) and red.body.left == FPred("Ud", FVar("v", None))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_sort_reduce_agreement(seed, depth):
    frame = SortedFrame(["a0", "a1"], ["b0", "b1"],
                        [("a0", "b1"), ("a1", "b0")])
    phi = gen.random_fol_sentence(seed, depth)
    predval = {"P0": {"a0"}, "P1": {"a1"}, "Q0": {"b0"}, "Q1": frozenset()}
    assert eval_fol(frame, predval, {}, phi) == \
        eval_fol(frame, predval, {}, sort_reduce(phi))


def test_fol_walkers_read_every_atom_class():
    """One sentence with an equality, an incidence, a relation atom whose
    head is also an argument, and a predicate, through each FOL walker."""
    text = "all1 u . exd v . u = u & I(u, v) & h(v, u, v) & P0(u)"
    phi = parse_fol(text, Signature.of({"h": D1D_D}))
    matrix = phi.body.body
    u, v = FVar("u", Sort.ONE), FVar("v", Sort.DEL)
    assert print_fol(phi) == text
    assert fol_free_vars(phi) == frozenset()
    assert fol_free_vars(matrix) == frozenset({u, v})
    assert fol_all_var_names(phi) == {"u", "v"}
    assert print_fol(fol_subst(matrix, u, FVar("z", Sort.ONE))) == \
        "z = z & I(z, v) & h(v, z, v) & P0(z)"
    assert print_fol(fol_subst(matrix, v, FVar("w", Sort.DEL))) == \
        "u = u & I(u, w) & h(w, u, w) & P0(u)"
    assert print_fol(sort_reduce(phi)) == \
        "all u . U1(u) -> ex v . Ud(v) & (u = u & I(u, v) & h(v, u, v) & P0(u))"
    assert fol_free_vars(sort_reduce(matrix)) == \
        frozenset({FVar("u", None), FVar("v", None)})


def _subformulas(phi):
    """phi and each of its subformulas, read through the dataclass fields."""
    yield phi
    for field in dataclasses.fields(phi):
        child = getattr(phi, field.name)
        if isinstance(child, FolFormula):
            yield from _subformulas(child)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from(Sort))
def test_free_vars_agree_with_the_compiler(seed, depth, sort):
    """`fol_free_vars` and the compiler collect free variables in two
    independent walks; they agree on random sentences, standard
    translations, their sort reductions and every subformula of each."""
    sig = Signature.of(ALL_TYPES)
    theta = gen.random_modal_formula(seed, depth, sort, 2, sig)
    for phi in (gen.random_fol_sentence(seed, depth, sig),
                std_translate(theta, "u" if sort is Sort.ONE else "v")):
        for top in (phi, sort_reduce(phi)):
            for sub in _subformulas(top):
                assert fol_free_vars(sub) == semantics._compile_fol(sub).free


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from(Sort))
def test_fol_rebuilds_match_the_recursive_oracles(seed, depth, sort):
    """`sort_reduce` and `fol_subst` build what a recursion over each
    compound class builds, on random sentences, standard translations and
    every subformula of each: `fol_subst` of each free variable by a fresh
    variable and by every name the subformula uses, in either sort, so
    that some substitutions would capture and raise."""
    sig = Signature.of(ALL_TYPES)
    theta = gen.random_modal_formula(seed, depth, sort, 2, sig)
    for phi in (gen.random_fol_sentence(seed, depth, sig),
                std_translate(theta, "u" if sort is Sort.ONE else "v")):
        assert sort_reduce(phi) == sort_reduce_oracle(phi)
        for sub in _subformulas(phi):
            names = {"fresh", *fol_all_var_names(sub)}
            for old in fol_free_vars(sub):
                for new in (FVar(n, s) for n in sorted(names) for s in Sort):
                    assert outcome(fol_subst, sub, old, new) == \
                        outcome(fol_subst_oracle, sub, old, new)


def test_constraint_sentences(f0):
    frame = with_relation(f0, make_rel("f", "d;1d", [("b0", "a0", "b1")]))
    sentences = sorting_constraint_sentences(frame)
    assert len(sentences) == 3
    for s in sentences:
        assert eval_fol(frame, {}, {}, s)


def random_predval(frame, seed):
    rng = random.Random(seed)
    return {f"{name}{i}": frozenset(p for p in sorted(frame.carrier(sort))
                                    if rng.random() < 0.5)
            for name, sort in (("P", Sort.ONE), ("Q", Sort.DEL)) for i in range(2)}


def outcome(evaluate, *args):
    """The value of `evaluate(*args)`, or the type and text of its error."""
    try:
        return evaluate(*args)
    except (CapExceeded, PreconditionError, SortError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(oracle_frames, st.integers(0, 10 ** 6), st.integers(1, 3))
def test_eval_fol_matches_the_recursive_oracle(frame, seed, depth):
    """Sentences with relation atoms, their sort reductions (unsorted
    quantifiers, U1/Ud guards) and standard translations at every point."""
    sig = Signature.of(ALL_TYPES)
    predval = random_predval(frame, seed)
    phi = gen.random_fol_sentence(seed, depth, sig)
    for psi in (phi, sort_reduce(phi)):
        assert eval_fol(frame, predval, {}, psi) == \
            fol_oracle(frame, predval, {}, psi)
    st_u = std_translate(gen.random_modal_formula(seed, depth, Sort.ONE, 2, sig), "u")
    for a in sorted(frame.points_a):
        assert eval_fol(frame, predval, {"u": a}, st_u) == \
            fol_oracle(frame, predval, {"u": a}, st_u)


@settings(max_examples=40, deadline=None)
@given(oracle_frames, st.integers(0, 10 ** 6))
def test_eval_fol_exceeds_the_cap_at_the_oracle_count(frame, seed):
    """The least cap under which a sentence evaluates is the same for the
    compiled evaluator and the oracle."""
    phi = gen.random_fol_sentence(seed, 2)
    predval = random_predval(frame, seed)
    with pytest.MonkeyPatch.context() as mp:
        def under(cap, evaluate):
            mp.setattr(semantics, "DEFAULT_CAP", cap)
            return outcome(evaluate, frame, predval, {}, phi)

        low, high = 1, 10 ** 6  # the oracle raises below `low`, passes at `high`
        while low < high:
            mid = (low + high) // 2
            if under(mid, fol_oracle) in (True, False):
                high = mid
            else:
                low = mid + 1
        assert under(low, eval_fol) == under(low, fol_oracle)
        assert under(low, eval_fol) in (True, False)
        if low > 1:
            assert under(low - 1, eval_fol) == under(low - 1, fol_oracle) == \
                (CapExceeded, f"quantifier instances exceed cap {low - 1}")


def test_eval_fol_gives_each_binder_its_own_slot(f0):
    predval = {"P0": {"a0"}, "Q0": {"b1"}}
    for text, expect in [
            # the inner x ranges on its own; the outer x is intact after it
            ("all1 x . (ex1 x . ~P0(x)) & P0(x)", False),
            ("ex1 x . (all1 x . P0(x) | ~P0(x)) & P0(x)", True),
            # a sort-d x shadows a sort-1 x
            ("ex1 x . (alld x . Q0(x) | ~Q0(x)) & P0(x)", True),
            ("all1 x . ex1 x . P0(x)", True),
            ("ex1 x . all1 x . P0(x)", False)]:
        phi = parse_fol(text)
        assert eval_fol(f0, predval, {}, phi) is expect, text
        assert fol_oracle(f0, predval, {}, phi) is expect, text
    # a binder that shadows the free variable leaves its assignment alone
    phi = parse_fol("(ex1 u . ~P0(u)) & P0(u)", free={"u": Sort.ONE})
    assert eval_fol(f0, predval, {"u": "a0"}, phi)
    assert not eval_fol(f0, predval, {"u": "a1"}, phi)


def test_eval_fol_raises_on_uninterpreted_names_only_when_reached(f0):
    predval = {"P0": {"a0"}}
    unknown = PreconditionError, "predicate P7 has no interpretation"
    no_f = PreconditionError, "no relation named 'f' in frame"
    for text, expect in [
            ("ex1 x . P0(x) | P7(x)", True),   # a0 is a witness
            ("all1 x . ~P0(x) & P7(x)", False),  # a0 is a counterexample
            ("ex1 x . ~P0(x) & P7(x)", unknown),  # a1 reaches P7
            ("all1 x . P7(x) | P0(x)", unknown),
            ("ex1 x . P0(x) | f(x, x)", True),
            ("all1 x . P0(x) & f(x, x)", no_f)]:
        phi = parse_fol(text, SIG)
        assert outcome(eval_fol, f0, predval, {}, phi) == expect, text
        assert outcome(fol_oracle, f0, predval, {}, phi) == expect, text


def test_eval_fol_rejects_atoms_of_another_sorting_when_reached(f0):
    """A relation atom whose arity, or the sort of one of whose sorted
    variables, disagrees with the frame relation raises SortError when
    evaluation reaches it.  Unsorted variables, as `sort_reduce` leaves
    them, have their arity checked only."""
    predval = {"P0": {"a0"}}
    binary = with_relation(f0, make_rel("f", "d;1d", [("b0", "a0", "b1")]))
    unary = with_relation(f0, make_rel("f", "1;1", [("a1", "a0")]))
    mismatch = SortError, "atom f does not match the frame relation sorting"
    dd = Signature.of({"f": DD_D})
    for frame, sig, text, expect in [
            (binary, SIG, "ex1 x . ex1 y . f(x, y)", mismatch),
            (binary, SIG, "all1 x . all1 y . ~f(x, y)", mismatch),
            (binary, SIG, "ex1 x . P0(x) | f(x, x)", True),  # a0 is a witness
            (unary, dd, "exd v . exd w . f(v, w)", mismatch),
            (unary, dd, "alld v . ~f(v, v)", mismatch),
            (unary, dd, "ex1 x . P0(x) | (exd v . f(v, v))", True),
            (unary, SIG, "ex1 x . ex1 y . f(x, y)", True)]:
        phi = parse_fol(text, sig)
        assert outcome(eval_fol, frame, predval, {}, phi) == expect, text
        assert outcome(fol_oracle, frame, predval, {}, phi) == expect, text
    for frame, sig, text, expect in [
            (binary, SIG, "ex1 x . ex1 y . f(x, y)", mismatch),
            (unary, dd, "exd v . exd w . f(v, w)", False),
            (unary, SIG, "ex1 x . ex1 y . f(x, y)", True)]:
        phi = sort_reduce(parse_fol(text, sig))
        assert outcome(eval_fol, frame, predval, {}, phi) == expect, text
        assert outcome(fol_oracle, frame, predval, {}, phi) == expect, text


def test_is_stable_fol_rejects_atoms_of_another_sorting_first(f0):
    """`is_stable_fol` rejects a mismatched atom on any family model before
    it evaluates anything, and still reports the least name first."""
    predval = {"P0": {"a0"}}
    unary = with_relation(f0, make_rel("f", "1;1", [("a1", "a0")]))
    binary = with_relation(f0, make_rel("f", "d;1d", [("b0", "a0", "b1")]))
    family = [(unary, predval), (binary, predval)]
    sig = Signature.of({"f": D1_1, "h": D1_1})
    for text, error, message in [
            # the contradiction never reaches f, P7 or h
            ("P0(u) & ~P0(u) & f(u, u)", SortError,
             "atom f does not match the frame relation sorting"),
            ("P0(u) & ~P0(u) & f(u, u) & P7(u)", PreconditionError,
             "predicate P7 has no interpretation"),
            ("P0(u) & ~P0(u) & h(u, u) & f(u, u)", SortError,
             "atom f does not match the frame relation sorting")]:
        phi = parse_fol(text, sig, free={"u": Sort.ONE})
        with pytest.raises(error) as caught:
            is_stable_fol(phi, "u", family)
        assert str(caught.value) == message, text
    phi = parse_fol("P0(u) & ~P0(u) & f(u, u)", SIG, free={"u": Sort.ONE})
    assert is_stable_fol(phi, "u", family[:1]) == (True, None)


def test_eval_fol_compiles_a_formula_once_for_every_point(fol_compiles):
    frame = random_frame(5, 4, {"f": D1_1}, 0.5, seed=3)
    predval = random_predval(frame, 3)
    phi = std_translate(parse_modal("[b] <d> (P0 | f(P1))", SIG), "u")
    for a in sorted(frame.points_a):
        assert eval_fol(frame, predval, {"u": a}, phi) == \
            fol_oracle(frame, predval, {"u": a}, phi)
    assert fol_compiles == [phi]
    # the formula is kept by identity: an equal copy is compiled afresh
    copy = std_translate(parse_modal("[b] <d> (P0 | f(P1))", SIG), "u")
    assert copy == phi and copy is not phi
    eval_fol(frame, predval, {"u": "a0"}, copy)
    assert len(fol_compiles) == 2


def test_eval_fol_keeps_no_model_between_calls(f0):
    """One formula object on a model that interprets f and P1, then on
    one that interprets neither, and back: every answer and every lazy
    error is the oracle's, so no slot of one binding reaches the next."""
    full = with_relation(f0, make_rel("f", "1;1", [("a1", "a0")]))
    models = [(full, {"P0": {"a0"}, "P1": {"a1"}}), (f0, {"P0": {"a1"}})]
    texts = ["ex1 x . P0(x) & (f(u, x) | P1(x))",
             "all1 x . P0(x) | f(x, u)",
             "ex1 x . ~P0(x) | P1(x)"]
    for phi in [parse_fol(t, SIG, free={"u": Sort.ONE}) for t in texts]:
        for frame, predval in models + models:
            for a in sorted(frame.points_a):
                asg = {"u": a}
                assert outcome(eval_fol, frame, predval, asg, phi) == \
                    outcome(fol_oracle, frame, predval, asg, phi)
    # formulas X, Y, X: the compiled X is not disturbed by Y's
    x, y = (parse_fol(t, SIG, free={"u": Sort.ONE}) for t in texts[:2])
    frame, predval = models[0]
    for phi in (x, y, x):
        for a in sorted(frame.points_a):
            assert eval_fol(frame, predval, {"u": a}, phi) == \
                fol_oracle(frame, predval, {"u": a}, phi)


def test_eval_fol_from_many_threads():
    """Threads evaluating two formulas in turn share the compiled one
    `eval_fol` keeps; every answer stays the single-threaded one."""
    frame = random_frame(4, 4, {}, 0.5, seed=2)
    predval = random_predval(frame, 2)
    phis = [std_translate(parse_modal(t), "u")
            for t in ("[b] <d> P0", "<b> (Q0 & [d] P1)")]
    expect = {(i, a): fol_oracle(frame, predval, {"u": a}, phi)
              for i, phi in enumerate(phis) for a in frame.points_a}
    wrong = []

    def work():
        for _ in range(50):
            for (i, a), value in expect.items():
                if eval_fol(frame, predval, {"u": a}, phis[i]) != value:
                    wrong.append((i, a))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# ------------------------------------------------------------ depth limit

def nested(language, shape):
    """A formula whose syntax tree is `MAX_NESTING` nodes deep."""
    atom, joiner = {"modal": ("P0", " & "), "fol": ("P0(u)", " & ")}[language]
    if shape == "prefix":
        return "~" * MAX_NESTING + atom
    if shape == "boxes":
        return "[b] <d> " * (MAX_NESTING // 2) + atom
    if shape == "binders":
        return "ex1 x . " * MAX_NESTING + atom
    return joiner.join([atom] * (MAX_NESTING + 1))


@pytest.mark.parametrize("shape", ["prefix", "boxes", "chain"])
def test_modal_searches_at_the_nesting_limit(f0, shape):
    theta = parse_modal(nested("modal", shape))
    vars_in_use = modal_vars(theta)
    model = mmodel(f0)
    oracle = SetKernels(f0)
    assert truth_set(model, theta) == oracle.truth_set(model.valuation, theta)
    assert frame_valid_modal(f0, theta, vars_in_use) == \
        oracle.frame_valid_modal(theta, vars_in_use)
    assert is_stable_modal(theta, [f0], vars_in_use) == \
        stable_by_sets(theta, [f0], vars_in_use)


def test_modal_evaluators_past_the_nesting_limit():
    """`_shared_chain(3000)` nests 6,000 levels, far past Python's recursion
    limit, and every modal evaluator answers it.  Each level contains the
    one below, as `[b] <d>` is a closure, so on three points per sort the
    levels stop changing within three steps: the deep chain answers as
    `_shared_chain(4)` does, which the set kernels check."""
    frame = random_frame(3, 3, {"f": D1_1}, 0.5, seed=2)
    deep, shallow = _shared_chain(3000), _shared_chain(4)
    oracle = SetKernels(frame)
    vars_in_use = [(Sort.ONE, 0)]
    for points in ({"a0"}, {"a1", "a2"}):
        model = ModalModel(frame, {(Sort.ONE, 0): points})
        expect = oracle.truth_set(model.valuation, shallow)
        assert truth_set(model, deep) == expect
        assert {a for a in frame.points_a if sat_modal(model, a, deep)} == expect
    assert frame_valid_modal(frame, deep, vars_in_use) == \
        oracle.frame_valid_modal(shallow, vars_in_use)
    assert is_stable_modal(deep, [frame], vars_in_use) == \
        stable_by_sets(shallow, [frame], vars_in_use)


@pytest.mark.parametrize("shape", ["prefix", "binders", "chain"])
def test_fol_searches_at_the_nesting_limit(f0, shape):
    """Bound the stack, not the time: the binders shape nests a hundred
    quantifiers, so it runs on one point per sort."""
    frame = f0 if shape != "binders" else SortedFrame(["a0"], ["b0"], [])
    phi = parse_fol(nested("fol", shape), free={"u": Sort.ONE})
    predval = {"P0": {"a0"}}
    for a in sorted(frame.points_a):
        assert eval_fol(frame, predval, {"u": a}, phi) == \
            fol_oracle(frame, predval, {"u": a}, phi)
    assert is_stable_fol(phi, "u", [(frame, predval)])[0] in (True, False)
