"""Sorted bisimulations, modal equivalence and distinguishing formulas."""

import dataclasses
import itertools
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import bisim, catalog, gen
from polarmodal.bisim import (
    SortedPairRelation, all_bisimulations_union, equivalence_depth_bound,
    is_bisimulation, is_model_bisimulation, is_simulation,
    largest_bisimulation, modal_equiv,
)
from polarmodal.errors import PreconditionError, SortError
from polarmodal.frames import Sort, SortedFrame, SortingType, random_frame
from polarmodal.semantics import ModalModel, sat_modal, truth_set
from polarmodal.syntax import ModalFormula, modal_depth, modal_vars

from conftest import (
    ALL_TYPES, hash_seed_env, make_rel, modal_depth_oracle, modal_vars_oracle,
    refinement_levels_oracle, with_relation,
)

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


def _check_against_tuple_scan(f, g, seed, toggled=None):
    """`is_simulation` agrees with `simulation_by_tuples`, both ways, on
    the largest bisimulation between f and g, on it with one candidate
    pair toggled (every pair, or `toggled` pairs picked at random), and
    on four random relations."""
    big = largest_bisimulation(ModalModel(f, {}), ModalModel(g, {}))
    assert is_simulation(f, g, big) == (True, None)
    cand_a = sorted(itertools.product(f.points_a, g.points_a))
    cand_b = sorted(itertools.product(f.points_b, g.points_b))
    rng = random.Random(seed)
    if toggled is not None:
        cand_a, cand_b = rng.sample(cand_a, toggled), rng.sample(cand_b, toggled)
    rels = [SortedPairRelation(big.pairs_a ^ {p}, big.pairs_b) for p in cand_a]
    rels += [SortedPairRelation(big.pairs_a, big.pairs_b ^ {p}) for p in cand_b]
    for _ in range(4):
        rels.append(SortedPairRelation(
            frozenset(p for p in cand_a if rng.random() < 0.5),
            frozenset(p for p in cand_b if rng.random() < 0.5)))
    for rel in [big] + rels:
        assert is_simulation(f, g, rel) == simulation_by_tuples(f, g, rel)
        back = rel.inverse()
        assert is_simulation(g, f, back) == simulation_by_tuples(g, f, back)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.floats(0.0, 1.0),
       st.integers(0, 10 ** 6), st.booleans())
def test_simulation_matches_tuple_scan(size_a, size_b, density, seed, same):
    f = random_frame(size_a, size_b, ALL_TYPES, density, seed)
    g = f if same else random_frame(size_a, size_b, ALL_TYPES, density, seed + 1)
    _check_against_tuple_scan(f, g, seed)


def test_simulation_matches_tuple_scan_past_ten_points():
    """Frames of 12 and 11 points per sort against a renamed clone, so
    that name order ("a10" before "a2") is not the order of creation."""
    m = ModalModel(random_frame(12, 11, SIG, 0.3, 3), {})
    assert sorted(m.frame.points_a)[:3] == ["a0", "a1", "a10"]
    for perturb in (False, True):
        clone = _renamed_clone(m, random.Random(perturb), perturb).frame
        _check_against_tuple_scan(m.frame, clone, 3, toggled=12)


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


def test_largest_across_frames_typed_from_signature_and_relation_notation():
    """A catalog entry, which types signatures, and the relation notation
    give one sorting, so a frame typed either way relates to itself."""
    for entry, text in ((catalog.D1_1, "1;1"), (catalog.D1D_D, "d;1d")):
        m = ModalModel(random_frame(2, 2, {"f": entry}, 0.5, seed=1), {})
        other = random_frame(2, 2, {"f": SortingType.parse(text)}, 0.5, seed=1)
        big = largest_bisimulation(m, ModalModel(other, {}))
        assert big == largest_bisimulation(m, m), text
        assert identity_rel(m.frame).pairs_a <= big.pairs_a, text


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


def _union_by_candidates(m, m2):
    """The union of every relation that `is_model_bisimulation` accepts,
    each candidate checked on its own."""
    f, g = m.frame, m2.frame
    cand_a = sorted(itertools.product(sorted(f.points_a), sorted(g.points_a)))
    cand_b = sorted(itertools.product(sorted(f.points_b), sorted(g.points_b)))
    union_a, union_b = set(), set()
    for keep_a in itertools.product([False, True], repeat=len(cand_a)):
        pa = frozenset(itertools.compress(cand_a, keep_a))
        for keep_b in itertools.product([False, True], repeat=len(cand_b)):
            pb = frozenset(itertools.compress(cand_b, keep_b))
            if is_model_bisimulation(m, m2, SortedPairRelation(pa, pb)):
                union_a |= pa
                union_b |= pb
    return SortedPairRelation(frozenset(union_a), frozenset(union_b))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_union_reads_both_frames_once(seed):
    """The union oracle checks every candidate relation, both ways, on one
    interned view of the two frames, and finds what checking each
    candidate on its own finds."""
    m = gen.random_modal_model(random_frame(2, 2, SIG, 0.5, seed=seed), VARS, seed)
    m2 = gen.random_modal_model(random_frame(2, 3, SIG, 0.5, seed=seed + 100),
                                VARS, seed + 1)
    reads = []
    interned = bisim._interned
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bisim, "_interned", lambda frames: reads.append(frames)
                   or interned(frames))
        union = all_bisimulations_union(m, m2)
    assert reads == [(m.frame, m2.frame)]
    assert union == _union_by_candidates(m, m2)
    # the model against itself keeps pairs of both sorts
    assert all_bisimulations_union(m, m) == _union_by_candidates(m, m)


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


# ---------------------------------------------------------------- shared refinement

def _model(seed, size_a, size_b, sig=SIG):
    return gen.random_modal_model(random_frame(size_a, size_b, sig, 0.5, seed),
                                  VARS, seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.integers(0, 99)),
                min_size=1, max_size=12))
def test_shared_refinement_matches_a_fresh_one(seed, calls):
    """Interleaved calls on several ordered pairs, one of them a rebuilt
    copy of a model, answer as a fresh `_Refinement` per call does; an
    incompatible pair raises every time, so no failure is kept."""
    m, m2 = _model(seed, 2, 3), _model(seed + 1, 3, 2)
    pairs = [(m, m2), (m2, m), (m, m), (m, _model(seed + 1, 3, 2))]
    odd = _model(seed + 2, 2, 2, sig=None)
    for which, largest, pick in calls:
        a, b = pairs[which]
        if largest:
            got = largest_bisimulation(a, b)
            with mock.patch.object(bisim, "_refinement", bisim._Refinement):
                assert got == largest_bisimulation(a, b)
        else:
            sort = (Sort.ONE, Sort.DEL)[pick % 2]
            points = sorted(a.frame.carrier(sort))
            points2 = sorted(b.frame.carrier(sort))
            w, w2 = points[pick % len(points)], points2[pick % len(points2)]
            depth = pick % (equivalence_depth_bound(a, b) + 2)
            got = modal_equiv(a, w, b, w2, depth)
            with mock.patch.object(bisim, "_refinement", bisim._Refinement):
                assert got == modal_equiv(a, w, b, w2, depth)
        assert bisim._refinement(a, b) is bisim._refinement(a, b)
        with pytest.raises(PreconditionError):
            largest_bisimulation(m, odd)
        with pytest.raises(PreconditionError):
            modal_equiv(odd, "a0", m, "a0", pick)


def _path(n):
    """a0 - b0 - a1 - b1 - ... with n points per sort, P0 true at a0 only."""
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    incidence = list(zip(a, b)) + list(zip(a[1:], b))
    return ModalModel(SortedFrame(a, b, incidence), {(Sort.ONE, 0): ["a0"]})


def _distinct_subformulas(theta):
    seen, todo = set(), [theta]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        for field in dataclasses.fields(x):
            value = getattr(x, field.name)
            todo.extend(v for v in (value if isinstance(value, tuple) else (value,))
                        if isinstance(v, ModalFormula))
    return len(seen)


@pytest.mark.parametrize("n", [*range(3, 8), 40])
def test_path_formulas_share_subformulas(n):
    # as a tree the formula grows exponentially in n (about 3 * 10**11 nodes
    # at n=7); each characteristic subformula is built once, so the
    # distinct objects stay quadratic in n, and evaluation, which visits
    # each distinct subformula once, follows them; at n=40 the formula
    # nests 158 modal levels, past Python's recursion limit for a walk
    # that recursed once per level
    m, m2 = _path(n), _path(n + 1)
    ok, theta = modal_equiv(m, "a0", m2, "a0", equivalence_depth_bound(m, m2))
    assert not ok
    assert _distinct_subformulas(theta) <= 30 * n ** 2
    start = time.perf_counter()
    assert sat_modal(m, "a0", theta) and not sat_modal(m2, "a0", theta)
    assert time.perf_counter() - start < 1.0


def test_modal_depth_of_path_formulas():
    """`modal_depth` follows the shared subformulas of distinguishing
    formulas: it agrees with the tree walk where that is feasible, and at
    n=6 (a tree of about 1.7 * 10**9 nodes) it returns at once."""
    for n in range(1, 4):
        m, m2 = _path(n), _path(n + 1)
        ok, theta = modal_equiv(m, "a0", m2, "a0", equivalence_depth_bound(m, m2))
        assert not ok and modal_depth(theta) == modal_depth_oracle(theta)
    m, m2 = _path(6), _path(7)
    bound = equivalence_depth_bound(m, m2)
    ok, theta = modal_equiv(m, "a0", m2, "a0", bound)
    start = time.perf_counter()
    depth = modal_depth(theta)
    assert time.perf_counter() - start < 1.0
    assert not ok and 0 < depth <= bound


def test_modal_vars_of_path_formulas():
    """`modal_vars` follows the shared subformulas too: it agrees with the
    tree walk up to n=4, and at n=5, where a tree walk takes seconds, it
    returns at once."""
    for n in range(1, 5):
        m, m2 = _path(n), _path(n + 1)
        ok, theta = modal_equiv(m, "a0", m2, "a0", equivalence_depth_bound(m, m2))
        assert not ok and modal_vars(theta) == modal_vars_oracle(theta)
    m, m2 = _path(5), _path(6)
    ok, theta = modal_equiv(m, "a0", m2, "a0", equivalence_depth_bound(m, m2))
    start = time.perf_counter()
    assert modal_vars(theta) == {(Sort.ONE, 0)}
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- refinement oracle

def _renamed_clone(m, rng, perturb):
    """m with its points renamed at random plus a clone of one point of
    each sort (its incidence, the tuples it heads and its valuation), so
    bisimilar to m; with perturb, one random relation tuple is toggled."""
    f = m.frame
    pa, pb = sorted(f.points_a), sorted(f.points_b)
    name = dict(zip(pa, (f"x{k}" for k in rng.sample(range(len(pa)), len(pa)))))
    name.update(zip(pb, (f"y{k}" for k in rng.sample(range(len(pb)), len(pb)))))
    images = {p: [q] for p, q in name.items()}
    images[rng.choice(pa)].append(f"x{len(pa)}")
    images[rng.choice(pb)].append(f"y{len(pb)}")
    frame = SortedFrame(
        [q for p in pa for q in images[p]], [q for p in pb for q in images[p]],
        {(x, y) for a, b in f.incidence for x in images[a] for y in images[b]},
        {r: dataclasses.replace(rel, tuples=frozenset(
            (head,) + tuple(name[w] for w in t[1:])
            for t in rel.tuples for head in images[t[0]]))
         for r, rel in f.relations.items()})
    if perturb:
        rel = frame.relations[rng.choice(sorted(frame.relations))]
        t = tuple(rng.choice(sorted(frame.carrier(s)))
                  for s in (rel.sorting.output, *rel.sorting.inputs))
        frame = with_relation(frame, dataclasses.replace(rel, tuples=rel.tuples ^ {t}))
    return ModalModel(frame, {v: {q for p in s for q in images[p]}
                              for v, s in m.valuation.items()})


def _splits_from_ten(levels):
    """Whether some class numbered 10 or more splits at the next level."""
    return any(len({nxt[p] for p in cls if cls[p] == c}) > 1
               for cls, nxt in zip(levels, levels[1:])
               for c in set(cls.values()) if c >= 10)


def test_refinement_matches_the_dict_oracle():
    """The interned rounds give the levels, class numbers included, of
    the dict and `repr` refinement: on models against their renamed
    clones, perturbed or not, on unrelated pairs, on a relation with
    empty rows, on pairs that number and split classes from 10 up,
    where `repr` order ("(1, " before "(10, " before "(2, ") is not int
    order, and on models of more than ten points per sort."""
    rng = random.Random(0)
    pairs = []
    for seed in range(60):
        size_a, size_b = rng.randint(2, 8), rng.randint(2, 8)
        m = gen.random_modal_model(
            random_frame(size_a, size_b, SIG, rng.choice([0.2, 0.4, 0.6]), seed),
            VARS, seed)
        other = _model(seed + 1, rng.randint(2, 8), rng.randint(2, 8))
        pairs += [(m, _renamed_clone(m, rng, False)),
                  (m, _renamed_clone(m, rng, True)), (m, other)]
    frame = with_relation(random_frame(4, 3, SIG, 0.5, 1),
                          make_rel("k", "1;d1", [("a0", "b0", "a1")]))
    m = gen.random_modal_model(frame, VARS, 1)
    pairs.append((m, _renamed_clone(m, rng, False)))
    pairs.append((_path(5), _path(6)))
    assert _splits_from_ten(refinement_levels_oracle(_path(5), _path(6)))
    # 12 and 11 points per sort: name order ("a10" before "a2") is not
    # the order of creation
    m = gen.random_modal_model(random_frame(12, 11, SIG, 0.3, 2), VARS, 2)
    assert sorted(m.frame.points_b)[:3] == ["b0", "b1", "b10"]
    pairs += [(m, _renamed_clone(m, rng, False)), (m, _renamed_clone(m, rng, True))]
    for m, m2 in pairs:
        ref = bisim._Refinement(m, m2)
        assert [dict(zip(ref.points, cls)) for cls in ref.classes] == \
            refinement_levels_oracle(m, m2)


def test_numbering_is_repr_order():
    rng = random.Random(0)
    for _ in range(300):
        keys = {(c, frozenset(rng.sample(range(30), rng.randint(0, 3))),
                 (("f", frozenset(rng.sample(range(12), rng.randint(0, 2)))),))
                for c in rng.sample(range(120), rng.randint(1, 25))
                for _ in range(rng.randint(1, 4))}
        assert bisim._numbering(keys) == \
            {k: n for n, k in enumerate(sorted(keys, key=repr))}


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
