"""Sorted bisimulations, modal equivalence and distinguishing formulas."""

import itertools
import random
import subprocess
import sys
from pathlib import Path

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

from conftest import ALL_TYPES, hash_seed_env, make_rel, with_relation

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


def tuples_unmatched(f, g, name, head, head2, pairs):
    """The least tuple of f's relation at `head` with no match at `head2`."""
    inputs = f.relations[name].sorting.inputs
    tuples2 = [t2 for t2 in g.relations[name].tuples if t2[0] == head2]
    for t in sorted(t for t in f.relations[name].tuples if t[0] == head):
        if not any(all((w, w2) in pairs[s] for w, w2, s in zip(t[1:], t2[1:], inputs))
                   for t2 in tuples2):
            return t
    return None


def simulation_by_tuples(f, g, rel):
    """Reference `is_simulation`: one half per sort, scanning I and every tuple.

    Pairs are taken in sorted order, sort-1 pairs first.
    """
    pairs = {Sort.ONE: rel.pairs_a, Sort.DEL: rel.pairs_b}
    for a, a2 in sorted(rel.pairs_a):
        for b in sorted(b for x, b in f.incidence if x == a):
            if not any((b, b2) in rel.pairs_b and (a2, b2) in g.incidence
                       for b2 in g.points_b):
                return False, ("I-forth-A", (a, a2), b)
        for name, r in sorted(f.relations.items()):
            if r.sorting.output is Sort.ONE:
                t = tuples_unmatched(f, g, name, a, a2, pairs)
                if t is not None:
                    return False, (f"{name}-forth", (a, a2), t)
    for b, b2 in sorted(rel.pairs_b):
        for a in sorted(a for a, y in f.incidence if y == b):
            if not any((a, a2) in rel.pairs_a and (a2, b2) in g.incidence
                       for a2 in g.points_a):
                return False, ("I-forth-B", (b, b2), a)
        for name, r in sorted(f.relations.items()):
            if r.sorting.output is Sort.DEL:
                t = tuples_unmatched(f, g, name, b, b2, pairs)
                if t is not None:
                    return False, (f"{name}-forth", (b, b2), t)
    return True, None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.floats(0.0, 1.0),
       st.integers(0, 10 ** 6), st.booleans())
def test_simulation_matches_tuple_scan(size_a, size_b, density, seed, same):
    sorting = {name: dist.sorting() for name, dist in ALL_TYPES.items()}
    f = random_frame(size_a, size_b, sorting, density, seed)
    g = f if same else random_frame(size_a, size_b, sorting, density, seed + 1)
    big = largest_bisimulation(ModalModel(f, {}), ModalModel(g, {}))
    assert is_simulation(f, g, big) == (True, None)
    # the largest bisimulation with one pair toggled, and random relations
    cand_a = sorted(itertools.product(f.points_a, g.points_a))
    cand_b = sorted(itertools.product(f.points_b, g.points_b))
    rels = [SortedPairRelation(big.pairs_a ^ {p}, big.pairs_b) for p in cand_a]
    rels += [SortedPairRelation(big.pairs_a, big.pairs_b ^ {p}) for p in cand_b]
    rng = random.Random(seed)
    for _ in range(4):
        rels.append(SortedPairRelation(
            frozenset(p for p in cand_a if rng.random() < 0.5),
            frozenset(p for p in cand_b if rng.random() < 0.5)))
    for rel in [big] + rels:
        assert is_simulation(f, g, rel) == simulation_by_tuples(f, g, rel)
        back = rel.inverse()
        assert is_simulation(g, f, back) == simulation_by_tuples(g, f, back)


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


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_modal_equiv_at_every_depth(seed):
    """At each depth up to the bound a verdict of False comes with a
    formula of at most that depth that separates the points; a separated
    pair stays separated at every larger depth, and at the bound the
    verdict is bisimilarity."""
    frame = random_frame(2, 2, SIG, 0.5, seed)
    frame2 = random_frame(2, 2, SIG, 0.5, seed + 1)
    m = gen.random_modal_model(frame, VARS, seed)
    m2 = gen.random_modal_model(frame2, VARS, seed + 2)
    # the model against itself keeps pairs, so both verdicts occur
    for other in (m2, m):
        big = largest_bisimulation(m, other)
        bound = equivalence_depth_bound(m, other)
        for sort, pairs in ((Sort.ONE, big.pairs_a), (Sort.DEL, big.pairs_b)):
            for w in sorted(frame.carrier(sort)):
                for w2 in sorted(other.frame.carrier(sort)):
                    separated = False
                    for k in range(bound + 1):
                        ok, theta = modal_equiv(m, w, other, w2, k)
                        assert not (ok and separated)
                        if not ok:
                            separated = True
                            assert modal_depth(theta) <= k
                            assert sat_modal(m, w, theta) and \
                                not sat_modal(other, w2, theta)
                    assert ok == ((w, w2) in pairs)


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


# ---------------------------------------------------------------- pinned

PINS = Path(__file__).parent / "data" / "modal_equiv_pins.txt"

# For 20 seeded model pairs (3+3 points against 3+3 or 3+4, relations of
# SIG), the distinguishing formulas of the first two separated pairs of
# each sort, at the a-priori depth bound.
PIN_SCRIPT = """
from polarmodal import gen
from polarmodal.bisim import equivalence_depth_bound, modal_equiv
from polarmodal.frames import Sort, SortingType, random_frame
from polarmodal.syntax import print_modal

SIG = {n: SortingType.parse(s) for n, s in (("f", "1;1"), ("g", "d;d"), ("h", "d;1d"))}
VARS = [(Sort.ONE, 0), (Sort.DEL, 0)]
for seed in range(20):
    m = gen.random_modal_model(random_frame(3, 3, SIG, 0.5, seed), VARS, seed)
    frame2 = random_frame(3, 3 + seed % 2, SIG, 0.5, seed + 1000)
    m2 = gen.random_modal_model(frame2, VARS, seed + 1)
    depth = equivalence_depth_bound(m, m2)
    for sort in Sort:
        found = 0
        for w in sorted(m.frame.carrier(sort)):
            for w2 in sorted(m2.frame.carrier(sort)):
                ok, theta = modal_equiv(m, w, m2, w2, depth)
                if not ok and found < 2:
                    found += 1
                    print(seed, w, w2, print_modal(theta))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "7"])
def test_distinguishing_formulas_are_pinned(hash_seed):
    out = subprocess.run([sys.executable, "-c", PIN_SCRIPT],
                         env=hash_seed_env(hash_seed), capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == PINS.read_text().splitlines()
