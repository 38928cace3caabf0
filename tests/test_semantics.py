"""Concept semantics, sorted modal truth sets and FOL evaluation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import gen, semantics
from polarmodal.catalog import D1_1
from polarmodal.errors import CapExceeded, PreconditionError, SortError
from polarmodal.frames import Concept, Sort, SortedFrame, random_frame
from polarmodal.semantics import (
    LatticeModel, ModalModel, b_axioms, d_axioms, eval_fol, frame_valid_modal,
    k_axioms, lattice_consequence, lattice_extent,
    sat_lattice, sat_modal, sort_reduce, sorting_constraint_sentences,
    truth_set,
)
from polarmodal.syntax import (
    FForall, FImp, FPred, FVar, LAnd, LApp, LOr, MBbox, MBdia, MDbox, MDdia,
    MNot, Signature, parse_fol, parse_lattice, parse_modal,
)

from conftest import (
    ALL_TYPES, galois_dual, make_rel, oracle_frames, with_relation,
)

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
    sorting = {name: dist.sorting() for name, dist in ALL_TYPES.items()}
    frame = random_frame(size_a, size_b, sorting, density, seed)
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


def test_constraint_sentences(f0):
    frame = with_relation(f0, make_rel("f", "d;1d", [("b0", "a0", "b1")]))
    sentences = sorting_constraint_sentences(frame)
    assert len(sentences) == 3
    for s in sentences:
        assert eval_fol(frame, {}, {}, s)
