"""The bitset frame kernels against the set-based reference kernels."""

import functools
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import frames, gen, semantics
from polarmodal.frames import Sort, SortedFrame, random_frame
from polarmodal.semantics import (
    ModalModel, eval_fol, frame_valid_modal, lattice_extent, sat_modal,
    truth_set, b_axioms, d_axioms, k_axioms,
)
from polarmodal.syntax import (
    MAnd, MBbox, MBdia, MDbox, MDdia, MImp, MNot, MOr, ModalFormula, Signature,
    mapp, modal_vars, parse_fol, parse_modal,
)
from polarmodal.transform import is_stable_fol, is_stable_modal

from conftest import ALL_TYPES, SetKernels, image_op, oracle_frames, stable_by_sets
from test_syntax import _shared_chain

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
    frame = random_frame(n, n, {"f": ALL_TYPES["f"]}, 0.7, seed=n)
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
    # random formulas, and chains that name each level's one subformula twice
    formulas = [gen.random_modal_formula(seed + k, 3, sort, 2, SIG)
                for k, sort in enumerate((Sort.ONE, Sort.DEL, Sort.ONE, Sort.DEL))]
    for theta in formulas + [_shared_chain(k) for k in range(4)]:
        expect = oracle.truth_set(model.valuation, theta)
        assert truth_set(model, theta) == expect
        assert {p for p in frame.carrier(theta.sort)
                if sat_modal(model, p, theta)} == expect
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
       st.integers(0, 10 ** 6), st.sampled_from([1, 2, 8]))
def test_valuation_batches_of_any_size_match_sets(frame, seed, batch):
    """Searches cut into small batches find what one set-based walk per
    valuation finds, whichever batch the first counterexample falls in."""
    oracle = SetKernels(frame)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_BATCH", batch)
        formulas = [gen.random_modal_formula(seed + k, 3, sort, 2, SIG)
                    for k, sort in enumerate((Sort.ONE, Sort.DEL, Sort.ONE))]
        for theta in formulas + [_shared_chain(seed % 4)]:
            vars_in_use = modal_vars(theta)
            assert frame_valid_modal(frame, theta, vars_in_use) == \
                oracle.frame_valid_modal(theta, vars_in_use)
            if theta.sort is Sort.ONE:
                assert is_stable_modal(theta, [frame], vars_in_use) == \
                    stable_by_sets(theta, [frame], vars_in_use)


# every point of A is incident to every point of B, so [b][d] P0 holds
# everywhere when P0 = A and nowhere otherwise
FULL_6 = SortedFrame([f"a{i}" for i in range(6)], [f"b{i}" for i in range(6)],
                     itertools.product([f"a{i}" for i in range(6)],
                                       [f"b{i}" for i in range(6)]))
P01 = [(Sort.ONE, 0), (Sort.ONE, 1)]


def test_batches_are_windows_of_the_batch_size():
    """A search walks its formula once per `_BATCH` valuations, the last
    batch taking what is left.  A walk costs about the same for one
    valuation or thousands, so every search of up to 16,384 valuations,
    which includes every K axiom on 7+7 points, is one walk.  `_BATCH` is
    a power of two, so the batches are equal and aligned."""
    assert semantics._BATCH == 16384
    assert semantics._BATCH.bit_count() == 1
    for sizes, vars_in_use, batches in (((6, 6), P01, [4096]),
                                        ((7, 7), P01, [16384]),
                                        ((15, 1), P01[:1], [16384, 16384]),
                                        ((6, 6), P01[:1], [64]),
                                        ((6, 6), [], [1])):
        frame = random_frame(*sizes, {}, 0.5, seed=1)
        search = semantics._Search(frame, vars_in_use)
        assert [(start, ones.bit_length()) for start, ones, _ in search.batches()] \
            == list(zip(itertools.accumulate(batches[:-1], initial=0), batches))


def test_periodic_masks_match_index_bits():
    """Entry g of `_periodic(l)` is the column of index bit g over a batch
    of 2**l valuations: bit i is set iff bit g of i is."""
    for l in range(15):
        assert semantics._periodic(l) == tuple(
            sum(1 << i for i in range(1 << l) if i >> g & 1)
            for g in range(l)), l


# sides of one to three points, and variables of both sorts
LAYOUTS = [
    ((1, 1), [(Sort.ONE, 0)]),
    ((3, 2), [(Sort.DEL, 0)]),
    ((2, 3), [(Sort.ONE, 0), (Sort.DEL, 0)]),
    ((3, 1), [(Sort.ONE, 0), (Sort.ONE, 1), (Sort.DEL, 0)]),
    ((2, 2), [(Sort.ONE, 0), (Sort.ONE, 1), (Sort.DEL, 0), (Sort.DEL, 1)]),
    ((1, 3), [(Sort.ONE, 0), (Sort.DEL, 0), (Sort.DEL, 1), (Sort.DEL, 2)]),
]


@pytest.mark.parametrize("sizes, vars_in_use", LAYOUTS)
@pytest.mark.parametrize("batch", [1, 2, 4, 8, 16, 32, 128, 4096])
def test_batch_columns_transpose_the_valuations(sizes, vars_in_use, batch):
    """Each batch's columns, read by point, are the valuations' masks read
    by valuation, in the order of the product of every variable's masks
    counted in binary, the first variable slowest."""
    frame = random_frame(*sizes, {}, 0.5, seed=sum(sizes))
    keys = sorted(vars_in_use, key=lambda v: (v[0].value, v[1]))
    sides = [frame._index.side(sort) for sort, _ in keys]
    choices = [range(side.full + 1) for side in sides]
    valuations = list(itertools.product(*choices))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_BATCH", batch)
        search = semantics._Search(frame, vars_in_use)
        starts = []
        for start, ones, columns in search.batches():
            starts.append(start)
            window = valuations[start:start + ones.bit_length()]
            assert ones == (1 << len(window)) - 1
            for i, ((sort, index), side) in enumerate(zip(keys, sides)):
                assert columns[(sort is Sort.ONE, index)] == [
                    sum(1 << k for k, v in enumerate(window) if v[i] >> j & 1)
                    for j in range(len(side.bit))]
    assert starts == list(range(0, len(valuations), batch))
    checked = range(len(valuations)) if len(valuations) <= 256 else \
        (0, 1, len(valuations) // 3, len(valuations) - 1)
    for k in checked:
        assert search.valuation(k) == {
            var: side.points(m) for var, side, m in zip(keys, sides, valuations[k])}


def test_searches_past_the_first_batch_match_sets():
    """On 6+6 points two variables have 4,096 valuations, which are one
    batch.  P0 = A is the last of P0's 64 masks, and P1 = {a5} the first
    non-empty mask of P1, so the first counterexample below is valuation
    63 * 64 + 1 = 4,033."""
    oracle = SetKernels(FULL_6)
    theta = parse_modal("~([b] [d] P0 & P1)")
    found = frame_valid_modal(FULL_6, theta, P01)
    assert found == oracle.frame_valid_modal(theta, P01)
    assert found == (False, ({(Sort.ONE, 0): FULL_6.points_a,
                              (Sort.ONE, 1): frozenset({"a5"})}, "a5"))
    # unstable exactly when P0 = A and P1 is neither empty nor A
    alpha = parse_modal("[b] [d] P0 & P1")
    assert is_stable_modal(alpha, [FULL_6], P01) is False
    assert stable_by_sets(alpha, [FULL_6], P01) is False
    assert is_stable_modal(parse_modal("[b] [d] P0 & [b] <d> P1"), [FULL_6], P01)
    frame = random_frame(6, 6, {}, 0.4, seed=3)
    for _, axiom, vars_in_use in k_axioms():
        assert frame_valid_modal(frame, axiom, vars_in_use) == \
            SetKernels(frame).frame_valid_modal(axiom, vars_in_use) == (True, None)


def test_a_counterexample_in_the_last_batch(monkeypatch):
    """On 10+10 points two variables have 2**20 valuations, 64 batches.
    P0 = A is the last of P0's 1,024 masks, and P1 = {a9} the first
    non-empty mask of P1, so the first counterexample is valuation
    1023 * 1024 + 1 = 1,047,553, in the last batch."""
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 2 ** 20)
    points_a = [f"a{i}" for i in range(10)]
    points_b = [f"b{i}" for i in range(10)]
    full = SortedFrame(points_a, points_b, itertools.product(points_a, points_b))
    search = semantics._Search(full, P01)
    assert [start for start, _, _ in search.batches()] == \
        list(range(0, 2 ** 20, 16384))
    found = (False, ({(Sort.ONE, 0): full.points_a,
                      (Sort.ONE, 1): frozenset({"a9"})}, "a9"))
    assert frame_valid_modal(full, parse_modal("~([b] [d] P0 & P1)"), P01) == found
    assert search.valuation(1_047_553) == found[1][0]


def test_stability_past_the_first_batch(monkeypatch):
    """At the real `_BATCH`, stability on 10+10 points with P0 and P1 runs
    through 64 batches: [b] [d] P0 & P1 is unstable exactly when P0 = A,
    in the last batch, and the stable formula reads every batch."""
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 2 ** 20)
    points_a = [f"a{i}" for i in range(10)]
    points_b = [f"b{i}" for i in range(10)]
    full = SortedFrame(points_a, points_b, itertools.product(points_a, points_b))
    assert len(list(semantics._Search(full, P01).batches())) == 64
    assert is_stable_modal(parse_modal("[b] [d] P0 & P1"), [full], P01) is False
    assert is_stable_modal(parse_modal("[b] [d] P0 & [b] <d> P1"), [full], P01)


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
@given(small_frames, st.integers(0, 10 ** 6), st.sampled_from([1, 2, 8]),
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


def _twin(frame):
    return SortedFrame(frame.points_a, frame.points_b, frame.incidence,
                       frame.relations)


def _distinct(theta):
    """The ids of theta's distinct subformula objects."""
    seen, todo = set(), [theta]
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen.add(id(x))
            todo.extend(v for v in vars(x).values() if isinstance(v, ModalFormula))
            todo.extend(v for v in getattr(x, "args", ()))
    return seen


def test_searches_leave_nothing_behind():
    """Two searches and a `truth_set`, back to back on one frame, each give
    what they give on a fresh frame.  Every batch of a search is one walk,
    a loop over its formula's listing that evaluates each distinct
    subformula once, afresh, and the searches leave the frame, its index
    and both sides as they found them."""
    frame = random_frame(3, 3, ALL_TYPES, 0.5, seed=4)
    # same points and relations, other incidence: a memo kept across
    # frames would answer for the wrong one
    other = random_frame(3, 3, ALL_TYPES, 0.5, seed=5)
    theta = functools.reduce(MOr, _contexts(parse_modal("P0"),
                                            parse_modal("Q0 -> [d] P1")))
    # stable, so its search runs through every batch
    alpha = parse_modal("[b] <d> (P0 & f(P0) | <b> Q0)", SIG)
    valuation = {(Sort.ONE, 0): ["a0", "a2"], (Sort.DEL, 0): ["b1"],
                 (Sort.ONE, 1): ["a1"]}
    # each query; the formula whose subformulas each walk evaluates, with
    # how many nodes the search adds to it ([b] <d> alpha -> alpha); and the
    # least number of batches: 64 valuations of alpha, 8 at a time, and
    # none for `truth_set`, which walks once
    queries = [
        (lambda f: frame_valid_modal(f, theta, modal_vars(theta)), theta, 0, 1),
        (lambda f: is_stable_modal(alpha, [f], modal_vars(alpha)), alpha, 3, 8),
        (lambda f: truth_set(ModalModel(f, valuation), theta), theta, 0, 0),
    ]
    listing, batches = semantics._listing, semantics._Search.batches
    # each walk's root, the nodes of its listing and what it left unread;
    # and each batch the searches cut
    walks, cut = [], []

    def listed(phi):
        entries = list(listing(phi))
        unread = iter(entries)
        walks.append((phi, [x for x, _ in entries], unread))
        return unread

    def counted(search):
        for batch in batches(search):
            cut.append(batch)
            yield batch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_BATCH", 8)
        mp.setattr(semantics, "_listing", listed)
        mp.setattr(semantics._Search, "batches", counted)
        for query, root, added, least in queries + queries:
            for f in (frame, other):
                before = _held(f)
                del walks[:], cut[:]
                found = query(f)
                if least:  # `truth_set` may fill the index's relation heads
                    after = _held(f)
                    assert list(after) == list(before)
                    for key, (value, keys) in before.items():
                        assert after[key][0] is value and after[key][1] == keys, key
                # one walk per batch, or one for `truth_set`, each over the
                # one root and to the end of its listing
                assert len(walks) == max(len(cut), 1) and len(cut) >= least
                assert len({id(phi) for phi, _, _ in walks}) == 1
                for _, nodes, unread in walks:
                    assert next(unread, None) is None
                    ids = set(map(id, nodes))
                    assert len(ids) == len(nodes) == len(_distinct(root)) + added
                    assert ids >= _distinct(root)
                assert query(_twin(f)) == found


def test_a_frame_is_freed_when_its_last_search_returns():
    """A search leaves no reference cycle through its frame: with the
    cycle collector off, dropping the last reference to the frame frees
    it at once."""
    frame = random_frame(3, 3, ALL_TYPES, 0.5, seed=4)
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


def test_a_frame_is_freed_when_its_last_fol_evaluation_returns():
    """FOL compilation leaves no reference cycle through its frame either:
    with the cycle collector off, dropping the last reference to a frame
    that `eval_fol` and `is_stable_fol` have read frees it at once."""
    frame = random_frame(3, 3, ALL_TYPES, 0.5, seed=4)
    predval = {"P0": ["a0"], "Q0": ["b1"]}
    sentence = parse_fol("all1 u . (P0(u) | exd v . (I(u, v) & Q0(v)))")
    phi = parse_fol("ex1 w . (P0(w) & exd v . (I(u, v) & I(w, v)))",
                    free={"u": Sort.ONE})
    gone = weakref.ref(frame)
    gc.disable()
    try:
        assert eval_fol(frame, predval, {}, sentence) in (True, False)
        assert eval_fol(frame, predval, {"u": "a1"}, phi) in (True, False)
        assert is_stable_fol(phi, "u", [(frame, predval)])[0] in (True, False)
        del frame
        assert gone() is None
    finally:
        gc.enable()
