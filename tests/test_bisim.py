"""Sorted bisimulations, modal equivalence and distinguishing formulas."""

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import gen
from polarmodal.bisim import (
    SortedPairRelation, all_bisimulations_union, equivalence_depth_bound,
    is_bisimulation, is_model_bisimulation, is_simulation,
    largest_bisimulation, modal_equiv,
)
from polarmodal.errors import PreconditionError, SortError
from polarmodal.frames import Sort, SortedFrame, SortingType, random_frame
from polarmodal.semantics import ModalModel, sat_modal, truth_set
from polarmodal.syntax import modal_depth

from conftest import make_rel, with_relation

VARS = [(Sort.ONE, 0), (Sort.DEL, 0)]
SIG = {name: SortingType.parse(sorting)
       for name, sorting in (("f", "1;1"), ("g", "d;d"), ("h", "d;1d"))}


def identity_rel(frame):
    return SortedPairRelation(
        frozenset((a, a) for a in frame.points_a),
        frozenset((b, b) for b in frame.points_b))


def empty_rel():
    return SortedPairRelation(frozenset(), frozenset())


# ---------------------------------------------------------------- simulations

def test_empty_relation_is_simulation(f0):
    ok, witness = is_simulation(f0, f0, empty_rel())
    assert ok and witness is None
    assert is_bisimulation(f0, f0, empty_rel())


def test_identity_is_bisimulation(f0):
    assert is_bisimulation(f0, f0, identity_rel(f0))
    frame = with_relation(f0, make_rel("f", "1;1", [("a0", "a1")]))
    assert is_bisimulation(frame, frame, identity_rel(frame))


def test_simulation_violations(f0):
    bare = SortedFrame(["c0"], ["d0"], [])
    with pytest.raises(PreconditionError):
        is_simulation(with_relation(f0, make_rel("f", "1;1", [])), bare,
                      empty_rel())
    rel = SortedPairRelation(frozenset({("a0", "c0")}), frozenset())
    ok, violation = is_simulation(f0, bare, rel)
    assert not ok
    clause, pair, witness = violation
    # a0 I b1 has no matching successor of c0
    assert clause == "I-forth-A" and pair == ("a0", "c0") and witness == "b1"
    rel_b = SortedPairRelation(frozenset(), frozenset({("b0", "d0")}))
    ok, violation = is_simulation(f0, bare, rel_b)
    assert not ok and violation[0] == "I-forth-B"


def test_relation_forth_clause(f0):
    f = with_relation(f0, make_rel("f", "1;1", [("a0", "a1")]))
    g = with_relation(f0, make_rel("f", "1;1", []))
    rel = identity_rel(f0)
    ok, violation = is_simulation(f, g, rel)
    assert not ok
    assert violation == ("f-forth", ("a0", "a0"), ("a0", "a1"))
    # the other direction has nothing to match, so it passes
    ok, _ = is_simulation(g, f, rel.inverse())
    assert ok


def test_ill_sorted_pairs(f0):
    with pytest.raises(SortError):
        is_simulation(f0, f0, SortedPairRelation(
            frozenset({("b0", "a0")}), frozenset()))


# ---------------------------------------------------------------- largest

def test_largest_contains_identity(f0):
    m = ModalModel(f0, {(Sort.ONE, 0): {"a0"}, (Sort.DEL, 0): {"b1"}})
    big = largest_bisimulation(m, m)
    for a in f0.points_a:
        assert (a, a) in big.pairs_a
    for b in f0.points_b:
        assert (b, b) in big.pairs_b
    assert is_model_bisimulation(m, m, big)


def test_largest_respects_valuation(f0):
    m = ModalModel(f0, {(Sort.ONE, 0): {"a0"}})
    m2 = ModalModel(f0, {(Sort.ONE, 0): frozenset()})
    big = largest_bisimulation(m, m2)
    assert ("a0", "a0") not in big.pairs_a


def test_largest_handles_structure():
    # a1 has no I-successor in f but every point of g has one
    f = SortedFrame(["a0", "a1"], ["b0"], [("a0", "b0")])
    g = SortedFrame(["a0"], ["b0"], [("a0", "b0")])
    m, m2 = ModalModel(f, {}), ModalModel(g, {})
    big = largest_bisimulation(m, m2)
    assert ("a0", "a0") in big.pairs_a
    assert ("a1", "a0") not in big.pairs_a


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_largest_matches_exhaustive_union(seed):
    frame = random_frame(2, 2, SIG, 0.5, seed)
    frame2 = random_frame(2, 2, SIG, 0.5, seed + 1)
    m = gen.random_modal_model(frame, VARS, seed)
    m2 = gen.random_modal_model(frame2, VARS, seed + 2)
    # the model against itself keeps pairs, so both sides are compared
    for other in (m2, m):
        big = largest_bisimulation(m, other)
        union = all_bisimulations_union(m, other)
        assert big.pairs_a == union.pairs_a
        assert big.pairs_b == union.pairs_b
        assert is_model_bisimulation(m, other, big)


# ---------------------------------------------------------------- equivalence

def test_modal_equiv_self(f0):
    m = ModalModel(f0, {(Sort.ONE, 0): {"a0"}})
    ok, theta = modal_equiv(m, "a0", m, "a0", 3)
    assert ok and theta is None
    with pytest.raises(SortError):
        modal_equiv(m, "a0", m, "b0", 1)
    with pytest.raises(PreconditionError):
        modal_equiv(m, "a0", m, "a0", -1)


def test_modal_equiv_depth_zero(f0):
    m = ModalModel(f0, {(Sort.ONE, 0): {"a0"}})
    ok, theta = modal_equiv(m, "a0", m, "a1", 0)
    assert not ok
    assert sat_modal(m, "a0", theta) and not sat_modal(m, "a1", theta)
    assert modal_depth(theta) == 0


def test_modal_equiv_needs_depth():
    # the two sort-1 points differ only through their I-successors
    f = SortedFrame(["a0", "a1"], ["b0", "b1"], [("a0", "b0"), ("a1", "b1")])
    m = ModalModel(f, {(Sort.DEL, 0): {"b0"}})
    ok, _ = modal_equiv(m, "a0", m, "a1", 0)
    assert ok
    ok, theta = modal_equiv(m, "a0", m, "a1", 1)
    assert not ok
    assert sat_modal(m, "a0", theta) and not sat_modal(m, "a1", theta)
    assert modal_depth(theta) <= 1


def test_modal_equiv_relation_witness(f0):
    f = with_relation(f0, make_rel("f", "1;1", [("a0", "a0")]))
    m = ModalModel(f, {(Sort.ONE, 0): {"a0"}})
    g = with_relation(f0, make_rel("f", "1;1", []))
    m2 = ModalModel(g, {(Sort.ONE, 0): {"a0"}})
    ok, theta = modal_equiv(m, "a0", m2, "a0", 2)
    assert not ok
    assert sat_modal(m, "a0", theta) and not sat_modal(m2, "a0", theta)


def test_depth_bound(f0):
    m = ModalModel(f0, {})
    assert equivalence_depth_bound(m, m) == 8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_bisimilar_points_agree_on_formulas(seed):
    frame = random_frame(2, 3, None, 0.5, seed)
    frame2 = random_frame(3, 2, None, 0.5, seed + 1)
    m = gen.random_modal_model(frame, VARS, seed)
    m2 = gen.random_modal_model(frame2, VARS, seed + 2)
    big = largest_bisimulation(m, m2)
    corpus = [gen.random_modal_formula(seed + k, 3, sort, 1)
              for k in range(20)
              for sort in (Sort.ONE, Sort.DEL)]
    for theta in corpus:
        pairs = big.pairs_a if theta.sort is Sort.ONE else big.pairs_b
        for w, w2 in pairs:
            assert sat_modal(m, w, theta) == sat_modal(m2, w2, theta)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_equivalence_stops_at_the_fixpoint(seed):
    # a depth far beyond any refinement is answered from the stable
    # partition, exactly as at the a-priori bound
    frame = random_frame(2, 3, SIG, 0.5, seed)
    frame2 = random_frame(3, 2, SIG, 0.5, seed + 1)
    m = gen.random_modal_model(frame, VARS, seed)
    m2 = gen.random_modal_model(frame2, VARS, seed + 2)
    depth = equivalence_depth_bound(m, m2)
    for points, points2 in ((frame.points_a, frame2.points_a),
                            (frame.points_b, frame2.points_b)):
        for w in sorted(points):
            for w2 in sorted(points2):
                assert modal_equiv(m, w, m2, w2, 10 ** 6) == \
                    modal_equiv(m, w, m2, w2, depth)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_excluded_pairs_have_verified_witnesses(seed):
    frame = random_frame(2, 2, SIG, 0.5, seed)
    frame2 = random_frame(2, 2, SIG, 0.5, seed + 1)
    m = gen.random_modal_model(frame, VARS, seed)
    m2 = gen.random_modal_model(frame2, VARS, seed + 2)
    # the model against itself keeps pairs, so both branches are taken
    for other in (m2, m):
        big = largest_bisimulation(m, other)
        depth = equivalence_depth_bound(m, other)
        for a in frame.points_a:
            for a2 in other.frame.points_a:
                ok, theta = modal_equiv(m, a, other, a2, depth)
                if (a, a2) in big.pairs_a:
                    assert ok
                else:
                    assert not ok
                    assert sat_modal(m, a, theta) and \
                        not sat_modal(other, a2, theta)
