"""The bitset frame kernels against the set-based reference kernels."""

import functools
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import frames, gen, semantics, transform
from polarmodal.frames import Sort, SortedFrame, random_frame
from polarmodal.semantics import (
    ModalModel, frame_valid_modal, lattice_extent, sat_modal, truth_set,
    b_axioms, d_axioms, k_axioms,
)
from polarmodal.syntax import (
    MAnd, MBbox, MBdia, MDbox, MDdia, MImp, MNot, MOr, Signature, mapp,
    modal_vars, parse_modal,
)
from polarmodal.transform import is_stable_modal

from conftest import ALL_TYPES, SetKernels, image_op, oracle_frames, stable_by_sets

SIG = Signature.of(ALL_TYPES)
VARS = [(Sort.ONE, 0), (Sort.ONE, 1), (Sort.DEL, 0), (Sort.DEL, 1)]


def random_subset(rng, points):
    return frozenset(p for p in sorted(points) if rng.random() < 0.5)


@settings(max_examples=40, deadline=None)
@given(oracle_frames, st.integers(0, 10 ** 6))
def test_galois_maps_boxes_and_diamonds_match_sets(frame, seed):
    rng = random.Random(seed)
    oracle = SetKernels(frame)
    assert frame.check_seriality() == (all(oracle.succ.values())
                                       and all(oracle.pred.values()))
    for _ in range(4):
        u = random_subset(rng, frame.points_a)
        v = random_subset(rng, frame.points_b)
        for op, arg in (("galois_right", u), ("galois_left", v),
                        ("dia_ab", u), ("box_ba", v), ("box_ab", u), ("dia_ba", v)):
            assert getattr(frame, op)(arg) == getattr(oracle, op)(arg), op
        for sort, s in ((Sort.ONE, u), (Sort.DEL, v)):
            assert frame.closure(sort, s) == oracle.closure(sort, s)
            assert frame.is_stable(sort, s) == oracle.is_stable(sort, s)


@settings(max_examples=40, deadline=None)
@given(oracle_frames, st.integers(0, 10 ** 6))
def test_image_and_closed_operators_match_sets(frame, seed):
    rng = random.Random(seed)
    oracle = SetKernels(frame)
    for name in sorted(ALL_TYPES):
        inputs = frame.relation(name).sorting.inputs
        for _ in range(3):
            args = [random_subset(rng, frame.carrier(s)) for s in inputs]
            assert image_op(frame, name, args) == oracle.image_op(name, args)
            closed = [oracle.closure(s, w) for w, s in zip(args, inputs)]
            assert frame.closed_op(name, closed) == oracle.closed_op(name, closed)


@settings(max_examples=40, deadline=None)
@given(oracle_frames)
def test_closed_set_lists_match_the_frontier_loop(frame):
    oracle = SetKernels(frame)
    assert frame.stable_sets() == oracle.stable_sets()
    assert frame.costable_sets() == oracle.costable_sets()


# closed sets are read through tables of 8 bits or fewer per plane: these
# sizes have one to five planes, and each side of every plane boundary
PLANE_SIZES = [1, 7, 8, 9, 16, 17, 24, 25, 32, 33]


@pytest.mark.parametrize("n", PLANE_SIZES)
def test_closed_set_lists_across_plane_boundaries_match_sets(n):
    """No incidence (A is the only stable set), full incidence (the empty
    set and A), and a random density in between."""
    for density in (0.0, 1.0, random.Random(n).uniform(0.5, 0.8)):
        frame = random_frame(n, n, {}, density, seed=n)
        oracle = SetKernels(frame)
        assert frame.stable_sets() == oracle.stable_sets(), density
        assert frame.costable_sets() == oracle.costable_sets(), density


def test_point_sets_of_many_masks_match_one_at_a_time():
    rng = random.Random(0)
    for n in itertools.chain(range(1, 42), [63, 64, 65, 80]):
        side = frames._Side(Sort.ONE, frozenset(f"p{i}" for i in range(n)))
        masks = [0, side.full, *(1 << i for i in range(n)),
                 *(rng.getrandbits(n) for _ in range(40))]
        assert side._point_sets(masks) == [side.points(m) for m in masks], n


def _held(frame):
    """What a frame and its index hold: each attribute, and each slot of
    both sides, as the object and, for a dict, its keys."""
    index = frame._index
    held = {("frame", k): v for k, v in vars(frame).items()}
    held.update((("index", k), v) for k, v in vars(index).items())
    for side in (index.a, index.b):
        assert not hasattr(side, "__dict__")
        held.update(((side.sort.value, slot), getattr(side, slot, None))
                    for slot in type(side).__slots__)
    return {k: (v, list(v) if isinstance(v, dict) else None) for k, v in held.items()}


@pytest.mark.parametrize("n", [9, 33])
def test_closed_set_lists_leave_nothing_on_the_frame(n):
    """Enumeration builds its tables for the call: afterwards the frame,
    its index, the relation heads and every slot of both sides are the
    same objects, dicts with the same keys."""
    frame = random_frame(n, n, {"f": ALL_TYPES["f"].sorting()}, 0.7, seed=n)
    image_op(frame, "f", [frame.points_a])
    before = _held(frame)
    assert list(frame._index._heads) == ["f"]
    for _ in range(2):
        frame.stable_sets()
        frame.costable_sets()
    after = _held(frame)
    assert list(after) == list(before)
    for key, (value, keys) in before.items():
        assert after[key][0] is value and after[key][1] == keys, key


@settings(max_examples=40, deadline=None)
@given(oracle_frames, st.integers(0, 10 ** 6))
def test_evaluators_match_sets(frame, seed):
    oracle = SetKernels(frame)
    model = gen.random_modal_model(frame, VARS, seed)
    for k, sort in enumerate((Sort.ONE, Sort.DEL, Sort.ONE, Sort.DEL)):
        theta = gen.random_modal_formula(seed + k, 3, sort, 2, SIG)
        expect = oracle.truth_set(model.valuation, theta)
        assert truth_set(model, theta) == expect
        assert {p for p in frame.carrier(sort) if sat_modal(model, p, theta)} == expect
    lattice_model = gen.random_lattice_model(frame, range(3), seed)
    for k in range(4):
        phi = gen.random_lattice_formula(seed + k, 3, 3, SIG)
        assert lattice_extent(lattice_model, phi) == \
            oracle.lattice_extent(lattice_model.valuation, phi)


@settings(max_examples=30, deadline=None)
@given(oracle_frames.filter(lambda f: len(f.points_a) <= 3 and len(f.points_b) <= 3),
       st.integers(0, 10 ** 6))
def test_frame_validity_counterexamples_match_sets(frame, seed):
    oracle = SetKernels(frame)
    formulas = [(theta, vars_in_use)
                for _, theta, vars_in_use in k_axioms() + b_axioms() + d_axioms()]
    for k, sort in enumerate((Sort.ONE, Sort.DEL)):
        theta = gen.random_modal_formula(seed + k, 3, sort, 1, SIG)
        formulas.append((theta, modal_vars(theta)))
    for theta, vars_in_use in formulas:
        assert frame_valid_modal(frame, theta, vars_in_use) == \
            oracle.frame_valid_modal(theta, vars_in_use)


@settings(max_examples=30, deadline=None)
@given(oracle_frames.filter(lambda f: len(f.points_a) <= 3 and len(f.points_b) <= 3),
       st.integers(0, 10 ** 6), st.sampled_from([1, 2, 7]))
def test_valuation_batches_of_any_size_match_sets(frame, seed, batch):
    """Searches cut into small batches find what one set-based walk per
    valuation finds, whichever batch the first counterexample falls in."""
    oracle = SetKernels(frame)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_BATCH", batch)
        for k, sort in enumerate((Sort.ONE, Sort.DEL, Sort.ONE)):
            theta = gen.random_modal_formula(seed + k, 3, sort, 2, SIG)
            vars_in_use = modal_vars(theta)
            assert frame_valid_modal(frame, theta, vars_in_use) == \
                oracle.frame_valid_modal(theta, vars_in_use)
            if sort is Sort.ONE:
                assert is_stable_modal(theta, [frame], vars_in_use) == \
                    stable_by_sets(theta, [frame], vars_in_use)


# every point of A is incident to every point of B, so [b][d] P0 holds
# everywhere when P0 = A and nowhere otherwise
FULL_6 = SortedFrame([f"a{i}" for i in range(6)], [f"b{i}" for i in range(6)],
                     itertools.product([f"a{i}" for i in range(6)],
                                       [f"b{i}" for i in range(6)]))
P01 = [(Sort.ONE, 0), (Sort.ONE, 1)]


def test_batches_double_up_to_the_cap():
    """A search stops early at small cost: batches grow 1, 2, 4, ... and
    only then run `_BATCH` valuations at a time."""
    keys, valuations = semantics._valuations(FULL_6, P01)
    sizes = [len(batch) for batch, _ in semantics._batches(keys, valuations)]
    assert sizes == [2 ** i for i in range(11)] + [1024, 1024, 1]
    assert semantics._BATCH == 1024 and sum(sizes) == 64 * 64


def test_searches_past_the_first_batch_match_sets():
    """On 6+6 points two variables have 4,096 valuations, fourteen batches.
    P0 = A is the last of P0's 64 masks, so the first counterexample below
    is valuation 4,033, in the thirteenth."""
    oracle = SetKernels(FULL_6)
    theta = parse_modal("~([b] [d] P0 & P1)")
    found = frame_valid_modal(FULL_6, theta, P01)
    assert found == oracle.frame_valid_modal(theta, P01)
    assert found == (False, ({(Sort.ONE, 0): FULL_6.points_a,
                              (Sort.ONE, 1): frozenset({"a0"})}, "a0"))
    # unstable exactly when P0 = A and P1 is neither empty nor A
    alpha = parse_modal("[b] [d] P0 & P1")
    assert is_stable_modal(alpha, [FULL_6], P01) is False
    assert stable_by_sets(alpha, [FULL_6], P01) is False
    assert is_stable_modal(parse_modal("[b] [d] P0 & [b] <d> P1"), [FULL_6], P01)
    frame = random_frame(6, 6, {}, 0.4, seed=3)
    for _, axiom, vars_in_use in k_axioms():
        assert frame_valid_modal(frame, axiom, vars_in_use) == \
            SetKernels(frame).frame_valid_modal(axiom, vars_in_use) == (True, None)


# ------------------------------------------------- per-column kernel reuse

def _contexts(a, d):
    """Sort-1 formulas that each put the one sort-1 subformula a, or the one
    sort-d subformula d, under a box, a diamond or a named diamond of every
    relation; boxes and diamonds of both sides, and relations of one arity
    on both sorts, meet the same masks."""
    return [MBbox(MDdia(a)), MBdia(MDbox(a)), MBbox(d), MBdia(d),
            mapp(SIG, "f", [a]), mapp(SIG, "k", [a, a]),
            MBbox(mapp(SIG, "g", [d])), MBdia(mapp(SIG, "m", [d, d])),
            MBbox(mapp(SIG, "h", [a, d])), MBdia(mapp(SIG, "n", [d, a]))]


small_frames = oracle_frames.filter(
    lambda f: len(f.points_a) <= 3 and len(f.points_b) <= 3)


@settings(max_examples=30, deadline=None)
@given(small_frames, st.integers(0, 10 ** 6), st.sampled_from([1, 2, 7]),
       st.permutations(range(10)),
       st.lists(st.sampled_from([MAnd, MOr, MImp]), min_size=9, max_size=9))
def test_shared_subformulas_under_kernels_match_sets(
        frame, seed, batch, order, joins):
    """One subformula under many boxes, diamonds and named diamonds: every
    kernel sees the same column of masks, and must still answer for its
    own side and relation."""
    a = gen.random_modal_formula(seed, 1, Sort.ONE, 1, SIG)
    d = gen.random_modal_formula(seed + 1, 1, Sort.DEL, 1, SIG)
    contexts = _contexts(a, d)
    parts = [contexts[i] for i in order]
    theta = functools.reduce(lambda x, step: step[0](x, step[1]),
                             zip(joins, parts[1:]), parts[0])
    oracle = SetKernels(frame)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_BATCH", batch)
        for phi in (theta, MNot(theta), MDdia(theta)):
            vars_in_use = modal_vars(phi)
            assert frame_valid_modal(frame, phi, vars_in_use) == \
                oracle.frame_valid_modal(phi, vars_in_use)
        for alpha in (theta, parts[0], MNot(parts[-1])):
            vars_in_use = modal_vars(alpha)
            assert is_stable_modal(alpha, [frame], vars_in_use) == \
                stable_by_sets(alpha, [frame], vars_in_use)


def _counting_kernels(mp, calls):
    """Count every box, diamond and relation image computed, by kernel,
    side or relation, and argument, and mark the start of every batch a
    search evaluates with None."""
    def counted(kernel, key):
        def run(self, *args):
            calls.append((kernel.__name__, key(self, *args)))
            return kernel(self, *args)
        return run
    for name in ("box", "dia"):
        mp.setattr(frames._Side, name, counted(
            getattr(frames._Side, name), lambda side, m: (side.sort.value, m)))
    mp.setattr(frames._BitIndex, "image", counted(
        frames._BitIndex.image, lambda index, rel, masks: (rel.name, tuple(masks))))
    batches = semantics._batches

    def marked(keys, valuations):
        for batch in batches(keys, valuations):
            calls.append(None)
            yield batch
    for module in (semantics, transform):
        mp.setattr(module, "_batches", marked)


def _runs(calls):
    """The kernel calls between batch marks."""
    runs = [[]]
    for call in calls:
        if call is None:
            runs.append([])
        else:
            runs[-1].append(call)
    return runs


def _twin(frame):
    return SortedFrame(frame.points_a, frame.points_b, frame.incidence,
                       frame.relations)


def test_searches_leave_nothing_behind():
    """Two searches and a `truth_set`, back to back on one frame, each give
    what they give on a fresh frame and compute every kernel value afresh;
    each batch of a search computes afresh what it needs."""
    frame = random_frame(3, 3, {n: d.sorting() for n, d in ALL_TYPES.items()},
                         0.5, seed=4)
    # same points and relations, other incidence: a memo kept across
    # frames would answer for the wrong one
    other = random_frame(3, 3, {n: d.sorting() for n, d in ALL_TYPES.items()},
                         0.5, seed=5)
    theta = functools.reduce(MOr, _contexts(parse_modal("P0"),
                                            parse_modal("Q0 -> [d] P1")))
    # stable, so its search runs through every batch
    alpha = parse_modal("[b] <d> (P0 & f(P0) | <b> Q0)", SIG)
    valuation = {(Sort.ONE, 0): ["a0", "a2"], (Sort.DEL, 0): ["b1"],
                 (Sort.ONE, 1): ["a1"]}
    # each query, and whether it is a search
    queries = [
        (lambda f: frame_valid_modal(f, theta, modal_vars(theta)), True),
        (lambda f: is_stable_modal(alpha, [f], modal_vars(alpha)), True),
        (lambda f: truth_set(ModalModel(f, valuation), theta), False),
    ]
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        _counting_kernels(mp, calls)
        for query, search in queries + queries:
            for f in (frame, other):
                del calls[:]
                found = query(f)
                used = list(calls)
                del calls[:]
                assert query(_twin(f)) == found
                assert sorted(calls, key=repr) == sorted(used, key=repr)
                runs = _runs(used)
                if search:
                    # every batch reads its kernels afresh
                    assert runs[0] == [] and len(runs) > 2 and all(runs[1:])
                else:
                    assert len(runs) == 1


def test_each_box_computes_each_distinct_mask_of_its_column_once():
    """In every batch of a search, a box is computed once per distinct mask
    of its argument's column: batches whose column repeats a mask share
    its result, and the others compute every entry."""
    frame = random_frame(3, 3, {}, 0.5, seed=4)
    theta = parse_modal("(P0 | ~P0) | [b] Q0")
    vars_in_use = modal_vars(theta)
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        _counting_kernels(mp, calls)
        assert frame_valid_modal(frame, theta, vars_in_use) == (True, None)
    runs = _runs(calls)[1:]
    keys, valuations = semantics._valuations(frame, vars_in_use)
    columns = [c[(Sort.DEL, 0)] for _, c in semantics._batches(keys, valuations)]
    assert len(runs) == len(columns) == 7
    assert any(len(set(c)) < len(c) for c in columns)
    for run, column in zip(runs, columns):
        assert sorted(run) == sorted(("box", ("d", m)) for m in set(column))


def test_a_frame_is_freed_when_its_last_search_returns():
    """A search leaves no reference cycle through its frame: with the
    cycle collector off, dropping the last reference to the frame frees
    it at once."""
    frame = random_frame(3, 3, {n: d.sorting() for n, d in ALL_TYPES.items()},
                         0.5, seed=4)
    theta = functools.reduce(MOr, _contexts(parse_modal("P0"), parse_modal("Q0")))
    model = ModalModel(frame, {(Sort.ONE, 0): ["a0"]})
    gone = weakref.ref(frame)
    gc.disable()
    try:
        frame_valid_modal(frame, theta, modal_vars(theta))
        is_stable_modal(theta, [frame], modal_vars(theta))
        truth_set(model, theta)
        sat_modal(model, "a0", theta)
        del frame, model
        assert gone() is None
    finally:
        gc.enable()
