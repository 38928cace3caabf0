"""Galois machinery, concept lattices and canonical frames."""

import collections
import gc
import itertools
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import bisim, catalog, fileio, frames, gen, semantics
from polarmodal.errors import CapExceeded, NormalityError, PreconditionError, SortError
from polarmodal.frames import (
    Concept, FiniteLattice, FiniteLatticeExpansion, Sort,
    SortedFrame, canonical_frame, random_frame,
)

from polarmodal.suites import _SUITE_SORTINGS, _complex_algebra

from conftest import (
    ALL_TYPES, SetKernels, canonical_relation_oracle, galois_dual, image_op,
    hash_seed_env, make_rel, oracle_frames, with_relation,
)


def subsets(points):
    points = sorted(points)
    for r in range(len(points) + 1):
        for combo in itertools.combinations(points, r):
            yield frozenset(combo)


small_frames = st.builds(
    random_frame,
    st.integers(1, 4), st.integers(1, 4),
    st.none(), st.floats(0.0, 1.0), st.integers(0, 10 ** 6),
)


# ---------------------------------------------------------------- basics

def test_sort_validation():
    with pytest.raises(SortError):
        SortedFrame([], ["b0"], [])
    with pytest.raises(SortError):
        SortedFrame(["x"], ["x"], [])
    with pytest.raises(SortError):
        SortedFrame(["a0"], ["b0"], [("a0", "a0")])


@pytest.mark.parametrize("bad, named", [
    ([("a0", "b0", "zz")], "('a0', 'b0', 'zz')"), ([("a0",)], "('a0',)"),
    ([("a0",), ("a0", "b0", "zz")], "('a0', 'b0', 'zz')")])  # least by repr
def test_incidence_entries_must_be_pairs(bad, named):
    # a longer tuple linked its first two points while `polarity` looked
    # for the whole entry; a shorter one failed with IndexError
    with pytest.raises(SortError,
                       match=re.escape(f"incidence entry {named} is not a pair")):
        SortedFrame(["a0"], ["b0"], [("a0", "b0"), *bad])


@pytest.mark.parametrize("bad, error", [
    ([("a0",), ("a1", "b0"), ("b0", "a0")], "tuple ('a0',) has wrong arity"),
    ([("a0", "b0"), ("a1",), ("b0", "a0")], "argument b0 ill-sorted"),
    ([("a1", "a1", "a1"), ("a1", "b0"), ("b1",)], "tuple ('a1', 'a1', 'a1') has wrong arity"),
    ([("b0", "a0"), ("b1",), ("b0", "a0", "a0")], "head b0 ill-sorted")])
def test_relations_name_their_least_bad_tuple(bad, error):
    # wrong arities and ill-sorted points mixed: the least tuple is named
    rel = make_rel("f", "1;1", [("a0", "a1"), ("a1", "a1"), *bad])
    with pytest.raises(SortError) as info:
        SortedFrame(["a0", "a1"], ["b0", "b1"], [("a0", "b0")], {"f": rel})
    assert str(info.value) == f"relation f: {error}"


def test_polarity(f0):
    assert f0.polarity("a0", "b0")
    assert not f0.polarity("a0", "b1")
    full = SortedFrame(["a0"], ["b0"], [("a0", "b0")])
    assert not full.polarity("a0", "b0")
    empty = SortedFrame(["a0"], ["b0"], [])
    assert empty.polarity("a0", "b0")
    with pytest.raises(SortError, match="'b0' is not a sort-1 point"):
        f0.polarity("b0", "b0")
    with pytest.raises(SortError, match="'a1' is not a sort-d point"):
        f0.polarity("a0", "a1")


def test_galois_examples(f0):
    assert f0.galois_right(frozenset()) == f0.points_b
    assert f0.galois_right({"a0"}) == {"b0"}
    assert f0.galois_left({"b0"}) == {"a0"}
    with pytest.raises(SortError):
        f0.galois_right({"b0"})


def test_residop_examples(f0):
    assert f0.dia_ab(frozenset()) == frozenset()
    assert f0.box_ba(f0.points_b) == f0.points_a
    assert f0.dia_ab({"a0"}) == {"b1"}
    assert f0.box_ba({"b1"}) == {"a0"}


def test_closure_examples(f0):
    assert f0.closure(Sort.ONE, f0.points_a) == f0.points_a
    assert f0.closure(Sort.ONE, {"a0"}) == {"a0"}
    assert f0.closure(Sort.ONE, frozenset()) == frozenset()


@settings(max_examples=60, deadline=None)
@given(small_frames, st.integers(0, 10 ** 6))
def test_galois_laws(frame, seed):
    import random
    rng = random.Random(seed)
    u = frozenset(p for p in frame.points_a if rng.random() < 0.5)
    u2 = u | frozenset(p for p in frame.points_a if rng.random() < 0.5)
    # antitone
    assert frame.galois_right(u2) <= frame.galois_right(u)
    # extensive, idempotent
    c = frame.closure(Sort.ONE, u)
    assert u <= c
    assert frame.closure(Sort.ONE, c) == c
    # triple application
    assert frame.galois_right(c) == frame.galois_right(u)


@settings(max_examples=40, deadline=None)
@given(small_frames)
def test_closure_coincidence(frame):
    for u in subsets(frame.points_a):
        assert frame.box_ba(frame.dia_ab(u)) == frame.closure(Sort.ONE, u)
    for v in subsets(frame.points_b):
        assert frame.box_ab(frame.dia_ba(v)) == frame.closure(Sort.DEL, v)


@settings(max_examples=25, deadline=None)
@given(small_frames)
def test_residuation(frame):
    for u in subsets(frame.points_a):
        for v in subsets(frame.points_b):
            assert (frame.dia_ab(u) <= v) == (u <= frame.box_ba(v))
        assert frame.is_stable(Sort.ONE, frame.box_ba(frame.dia_ab(u)))


def test_stable_sets_intersection_closed(f0):
    stable = f0.stable_sets()
    assert frozenset() in stable and f0.points_a in stable
    for x in stable:
        for y in stable:
            assert (x & y) in stable


@settings(max_examples=40, deadline=None)
@given(small_frames)
def test_costable_sets_are_the_intents(frame):
    costable = frame.costable_sets()
    intents = sorted({frame.galois_right(e) for e in frame.stable_sets()},
                     key=lambda s: (len(s), sorted(s)))
    assert costable == intents
    for x in costable:
        for y in costable:
            assert (x & y) in costable


# ---------------------------------------------------------------- concepts

def test_concepts_full_incidence():
    # I = A x B makes the Galois relation empty: stable sets are {} and A
    frame = SortedFrame(["a0", "a1"], ["b0"],
                        [("a0", "b0"), ("a1", "b0")])
    lat = frame.all_concepts()
    assert len(lat.carrier) == 2
    extents = {c.extent for c in lat.carrier}
    assert extents == {frozenset(), frame.points_a}


def test_concepts_empty_incidence():
    # total Galois relation: every subset closes to A
    frame = SortedFrame(["a0", "a1"], ["b0"], [])
    assert frame.stable_sets() == [frame.points_a]
    assert len(frame.all_concepts().carrier) == 1


def test_closed_set_enumeration_is_capped(monkeypatch):
    """On the diagonal frame every subset of either side is closed, 16 on
    4+4 points: a cap of 16 lets them through, and a cap of 15 stops the
    enumeration with CapExceeded."""
    points_a, points_b = [f"a{i}" for i in range(4)], [f"b{i}" for i in range(4)]
    frame = SortedFrame(points_a, points_b, zip(points_a, points_b))
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 16)
    assert len(frame.stable_sets()) == len(frame.costable_sets()) == 16
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 15)
    for enumerate_sets in (frame.stable_sets, frame.costable_sets):
        with pytest.raises(CapExceeded, match="^closed sets exceed cap 15$"):
            enumerate_sets()


def test_concepts_f0(f0):
    lat = f0.all_concepts()
    assert len(lat.carrier) == 4
    extents = {c.extent for c in lat.carrier}
    assert extents == {frozenset(), frozenset({"a0"}), frozenset({"a1"}),
                       f0.points_a}
    assert lat.bottom.extent == frozenset()
    assert lat.top.extent == f0.points_a


@pytest.mark.parametrize("seed", range(40))
def test_concept_lattice_matches_galois_theory(seed):
    # meets intersect extents, joins intersect intents (Ganter & Wille)
    size_a, size_b = 1 + seed % 6, 1 + seed // 6 % 6
    frame = random_frame(size_a, size_b, None, 0.2 + seed % 5 * 0.15, seed)
    lat = frame.all_concepts()
    assert len(lat.carrier) == len(frame.stable_sets())
    assert lat.bottom.extent == frame.closure(Sort.ONE, ())
    assert lat.top.extent == frame.points_a
    assert lat.top.intent == frame.closure(Sort.DEL, ())
    for c in lat.carrier:
        for d in lat.carrier:
            assert lat.meet(c, d).extent == c.extent & d.extent
            assert lat.join(c, d).intent == c.intent & d.intent
            assert lat.leq(c, d) == (c.extent <= d.extent)


# ---------------------------------------------------------------- relations

def test_galois_dual(f0):
    frame = with_relation(f0, make_rel("R", "1;1", [("a0", "a0")]))
    assert galois_dual(frame, "R", ("a0",)) == {"b0"}
    assert galois_dual(frame, "R", ("a1",)) == frame.points_b
    empty = with_relation(f0, make_rel("E", "1;1", []))
    assert galois_dual(empty, "E", ("a0",)) == frame.points_b


def test_image_op(f0):
    frame = with_relation(f0, make_rel("R", "1;1",
                                       [("a0", "a0"), ("a1", "a0")]))
    assert image_op(frame, "R", [{"a0"}]) == {"a0", "a1"}
    assert image_op(frame, "R", [frozenset()]) == frozenset()
    assert image_op(frame, "R", [frame.points_a]) == {"a0", "a1"}
    with pytest.raises(SortError):
        image_op(frame, "R", [{"b0"}])


@settings(max_examples=60, deadline=None)
@given(oracle_frames)
def test_section_stability_matches_dual_scan(frame):
    oracle = SetKernels(frame)
    for name in sorted(ALL_TYPES):
        assert frame.is_section_stable(name) == \
            oracle.is_section_stable(name), name


def test_section_stable_trivial(f0):
    frame = with_relation(f0, make_rel("E", "1;1", []))
    ok, witness = frame.is_section_stable("E")
    assert ok and witness is None


def test_section_stable_counterexample():
    # closure({}) = {a1} on this frame, and R's dual sections are empty
    frame = SortedFrame(["a0", "a1"], ["b0", "b1"],
                        [("a0", "b0"), ("a0", "b1")])
    frame = with_relation(frame, make_rel("R", "1;1",
                                          [("a0", "a0"), ("a0", "a1")]))
    ok, witness = frame.is_section_stable("R")
    assert not ok
    position, fixed = witness
    assert position >= 1 and "_" in fixed


def test_closed_op_modes(f0):
    frame = with_relation(f0, make_rel("R", "1;1", [("a0", "a0")]))
    out = frame.closed_op("R", [frozenset({"a0"})])
    assert out == frame.closure(Sort.ONE, {"a0"})
    skew = SortedFrame(["a0", "a1"], ["b0", "b1"],
                       [("a0", "b0"), ("a0", "b1")])
    skew = with_relation(skew, make_rel("R", "1;1", [("a0", "a0")]))
    with pytest.raises(PreconditionError):
        # {} is not stable on this frame: its closure is {a1}
        skew.closed_op("R", [frozenset()])


def test_check_seriality(f0):
    assert f0.check_seriality()
    assert SortedFrame(["a"], ["b"], [("a", "b")]).check_seriality()
    assert not SortedFrame(["a"], ["b"], []).check_seriality()


# ---------------------------------------------------------------- lattices

def test_lattice_tables():
    lat = catalog.boolean4()
    assert lat.bottom == "o" and lat.top == "i"
    assert lat.meet("x", "y") == "o"
    assert lat.join("x", "y") == "i"
    assert lat.downset("x") == {"o", "x"}
    assert lat.sorted_join(Sort.DEL, "x", "y") == "o"
    assert lat.sorted_bottom(Sort.DEL) == "i"


def test_is_isomorphic_by():
    two, three = catalog.chain(2), catalog.chain(3)
    assert two.is_isomorphic_by(two, {"c0": "c0", "c1": "c1"})
    # not order-preserving, not onto, not a bijection, not from the carrier
    assert not two.is_isomorphic_by(two, {"c0": "c1", "c1": "c0"})
    assert not two.is_isomorphic_by(three, {"c0": "c0", "c1": "c2"})
    assert not three.is_isomorphic_by(two, {"c0": "c0", "c1": "c1", "c2": "c1"})
    assert not two.is_isomorphic_by(two, {"c0": "c0"})


def test_not_a_lattice():
    with pytest.raises(PreconditionError):
        FiniteLattice(["a", "b"], [("a", "a"), ("b", "b")])


def test_order_validation():
    with pytest.raises(PreconditionError):
        FiniteLattice(["a"], [])  # not reflexive
    with pytest.raises(PreconditionError):
        FiniteLattice(["a", "b"],
                      [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])


def lattice_by_scan(carrier, leq):
    """Meet and join tables, bottom and top of the order, by brute force.

    The glb/lub scan of the former table-building constructor.  Each
    check walks the elements sorted by repr and raises PreconditionError
    with the constructor's text at the least offending elements.
    """
    carrier, pairs = set(carrier), set(leq)
    elems = sorted(carrier, key=repr)

    def le(x, y):
        return (x, y) in pairs

    for x, y in sorted(pairs, key=repr):
        if x not in carrier or y not in carrier:
            raise PreconditionError(f"leq pair ({x},{y}) outside carrier")
    for x in elems:
        if not le(x, x):
            raise PreconditionError(f"order not reflexive at {x}")
    for x, y in itertools.product(elems, repeat=2):
        if x != y and le(x, y) and le(y, x):
            raise PreconditionError(f"order not antisymmetric on {x},{y}")
    for x, y, z in itertools.product(elems, repeat=3):
        if le(x, y) and le(y, z) and not le(x, z):
            raise PreconditionError(f"order not transitive on {x},{y},{z}")
    meet, join = {}, {}
    for x, y in itertools.product(elems, repeat=2):
        lower = [z for z in elems if le(z, x) and le(z, y)]
        glb = [z for z in lower if all(le(w, z) for w in lower)]
        upper = [z for z in elems if le(x, z) and le(y, z)]
        lub = [z for z in upper if all(le(z, w) for w in upper)]
        if len(glb) != 1 or len(lub) != 1:
            raise PreconditionError(f"no meet/join for {x},{y}: not a lattice")
        meet[x, y], join[x, y] = glb[0], lub[0]
    bottom = next(x for x in elems if all(le(x, y) for y in elems))
    top = next(x for x in elems if all(le(y, x) for y in elems))
    return meet, join, bottom, top


def random_order(rng):
    """A random relation closed reflexively and transitively; now and
    then a pair is dropped or a pair outside the carrier added."""
    n = rng.randint(1, 6)
    elems = rng.sample("abcdefgh", n)  # repr order is not the order
    acyclic = rng.random() < 0.7
    pairs = {(x, x) for x in elems}
    pairs |= {(x, y) for i, x in enumerate(elems) for y in elems[i + 1:]
              if rng.random() < 0.4}
    if not acyclic:
        pairs |= {(y, x) for x, y in list(pairs) if rng.random() < 0.2}
    if rng.random() < 0.5:  # a bottom and a top make lattices common
        pairs |= {(elems[0], y) for y in elems} | {(x, elems[-1]) for x in elems}
    changed = True
    while changed:
        extra = {(x, z) for x, y in pairs for y2, z in pairs if y == y2} - pairs
        pairs |= extra
        changed = bool(extra)
    if rng.random() < 0.25:
        kept = {(x, x) for x in elems} if rng.random() < 0.7 else set()
        pairs.discard(rng.choice(sorted(pairs - kept) or sorted(pairs)))
    if rng.random() < 0.05:
        pairs.add((rng.choice(elems), "zz"))
    return elems, pairs


ORDER_FAULTS = ("outside", "reflexive", "antisymmetric", "transitive", "meet/join")


def test_lattice_matches_brute_force_scan():
    rng = random.Random(7)
    outcomes = collections.Counter()
    for _ in range(600):
        elems, pairs = random_order(rng)
        try:
            meet, join, bottom, top = lattice_by_scan(elems, pairs)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as info:
                FiniteLattice(elems, pairs)
            assert str(info.value) == str(exc), (elems, sorted(pairs))
            outcomes[next(k for k in ORDER_FAULTS if k in str(exc))] += 1
            continue
        lat = FiniteLattice(elems, pairs)
        assert (lat.bottom, lat.top) == (bottom, top)
        for x, y in itertools.product(elems, repeat=2):
            assert lat.meet(x, y) == meet[x, y]
            assert lat.join(x, y) == join[x, y]
            assert lat.leq(x, y) == ((x, y) in pairs)
        for x in elems:
            assert lat.downset(x) == {y for y in elems if (y, x) in pairs}
            assert lat.upset(x) == {y for y in elems if (x, y) in pairs}
        outcomes["lattice"] += 1
    # every branch is exercised: lattices and each kind of error
    assert set(outcomes) == {"lattice", *ORDER_FAULTS}, outcomes


def normality_by_full_product(lat, name, dist, table):
    """The former normality loop: every argument tuple, with coordinate j
    overwritten, so each context of coordinate j is checked n times."""
    elems = sorted(lat.carrier, key=repr)
    for j, s in enumerate(dist.inputs):
        for args in itertools.product(elems, repeat=dist.arity):
            zero = lat.sorted_bottom(s)
            at_zero = table[args[:j] + (zero,) + args[j + 1:]]
            if at_zero != lat.sorted_bottom(dist.output):
                raise NormalityError(
                    f"operator {name} does not preserve the sorted bottom "
                    f"in coordinate {j}",
                    operator=name, coordinate=j,
                    witness=args[:j] + (zero,) + args[j + 1:],
                )
            for x in elems:
                for y in elems:
                    joined = lat.sorted_join(s, x, y)
                    lhs = table[args[:j] + (joined,) + args[j + 1:]]
                    rhs = lat.sorted_join(
                        dist.output,
                        table[args[:j] + (x,) + args[j + 1:]],
                        table[args[:j] + (y,) + args[j + 1:]],
                    )
                    if lhs != rhs:
                        raise NormalityError(
                            f"operator {name} fails join distribution "
                            f"in coordinate {j}",
                            operator=name, coordinate=j,
                            witness=(args, x, y),
                        )


def test_normality_matches_full_product_loop():
    rng = random.Random(3)
    outcomes = collections.Counter()
    for lat_name in catalog.catalog_names():
        exp = catalog.catalog_expansion(lat_name)
        elems = sorted(exp.lattice.carrier)
        for name, (dist, table) in sorted(exp.operators.items()):
            for _ in range(12):
                mutated = dict(table)
                for key in rng.sample(sorted(table), rng.randint(1, 2)):
                    mutated[key] = rng.choice(elems)
                try:
                    normality_by_full_product(exp.lattice, name, dist, mutated)
                    want = None
                except NormalityError as exc:
                    want = (str(exc), exc.operator, exc.coordinate, exc.witness)
                try:
                    FiniteLatticeExpansion(exp.lattice, {name: (dist, mutated)})
                    got = None
                except NormalityError as exc:
                    got = (str(exc), exc.operator, exc.coordinate, exc.witness)
                assert got == want, (lat_name, name, mutated)
                outcomes[want and ("bottom" in want[0], want[2])] += 1
    # both kinds of failure, in both coordinates of binary operators
    assert {(True, 0), (True, 1), (False, 0), (False, 1), None} \
        <= set(outcomes), outcomes


def test_normality_rejects_join_as_output_one():
    # join preserves binary joins but not the empty join: 0 v y = y
    lat = catalog.chain(2)
    table = {(x, y): lat.join(x, y) for x in lat.carrier for y in lat.carrier}
    dist = catalog.D11_1
    with pytest.raises(NormalityError):
        FiniteLatticeExpansion(lat, {"j": (dist, table)})


def test_normality_rejects_partial_table():
    lat = catalog.chain(2)
    dist = catalog.D1_1
    with pytest.raises(NormalityError):
        FiniteLatticeExpansion(lat, {"f": (dist, {("c0",): "c0"})})


def test_normality_rejects_tables_outside_the_carrier():
    lat = catalog.chain(2)
    dist = catalog.D1_1
    total = {("c0",): "c0", ("c1",): "c1"}
    for table, what in (({("c0",): "c0", ("c1",): "zz"}, "value 'zz'"),
                        ({**total, ("zz",): "c1"}, "entry ('zz',)"),
                        ({**total, ("c0", "c1"): "c1"}, "entry ('c0', 'c1')")):
        with pytest.raises(NormalityError) as info:
            FiniteLatticeExpansion(lat, {"f": (dist, table)})
        assert what in str(info.value)


def test_catalog_expansions_are_normal():
    for name in catalog.catalog_names():
        exp = catalog.catalog_expansion(name)  # raises if not normal
        assert "f" in exp.operators and "g" in exp.operators


# ---------------------------------------------------------------- canonical

def test_canonical_two_chain():
    lat = catalog.chain(2)
    ident = {(x,): x for x in lat.carrier}
    exp = FiniteLatticeExpansion(
        lat, {"f": (catalog.D1_1, ident)})
    frame = canonical_frame(exp)
    assert frame.points_a == {"c0", "c1"}
    assert frame.points_b == {"c0*", "c1*"}
    # incidence is the complement of leq: only c1 <= c0 fails
    assert frame.incidence == {("c1", "c0*")}
    assert frame.stable_sets() == [frozenset({"c0"}), frozenset({"c0", "c1"})]
    assert frame.relations["f"].tuples == {
        ("c0", "c0"), ("c0", "c1"), ("c1", "c1")}
    assert frame.closed_op("f", [frozenset({"c0"})]) == frozenset({"c0"})


def test_canonical_frame_needs_string_named_elements():
    lat = FiniteLattice([0, 1], [(0, 0), (0, 1), (1, 1)])
    exp = FiniteLatticeExpansion(lat, {})
    with pytest.raises(PreconditionError, match="string-named elements"):
        canonical_frame(exp)


def test_canonical_oracle_agreement():
    for name in catalog.catalog_names():
        exp = catalog.catalog_expansion(name)
        frame = canonical_frame(exp)
        for op in exp.operators:
            oracle = canonical_relation_oracle(exp, op)
            assert frame.relations[op].tuples == oracle.tuples, (name, op)


def test_canonical_section_stability():
    for name in ("chain3", "b4", "m3"):
        frame = canonical_frame(catalog.catalog_expansion(name))
        for op in frame.relations:
            ok, witness = frame.is_section_stable(op)
            assert ok, (name, op, witness)


# ---------------------------------------------------------------- complex algebra

def test_section_stable_frames_have_normal_complex_algebras():
    """Prop 2.1 beyond the catalog: a frame whose relations are all
    section-stable has a normal complex algebra."""
    rng = random.Random(5)
    outcomes = collections.Counter()
    for _ in range(200):
        frame = random_frame(rng.randint(1, 4), rng.randint(1, 4),
                             _SUITE_SORTINGS, rng.random(),
                             rng.randrange(10 ** 9))
        stable = all(frame.is_section_stable(name)[0] for name in frame.relations)
        try:
            algebra = _complex_algebra(frame)
        except NormalityError:
            assert not stable, fileio.dump_frame(frame)
            outcomes["not normal"] += 1
            continue
        assert algebra.lattice.carrier == frame.all_concepts().carrier
        outcomes["stable" if stable else "normal"] += 1
    # both verdicts occur
    assert outcomes["stable"] and outcomes["not normal"], outcomes


def test_concept_repr_lists_points_sorted():
    concept = Concept(frozenset({"a1", "a0"}), frozenset())
    assert repr(concept) == \
        "Concept(extent=frozenset(['a0', 'a1']), intent=frozenset([]))"
    # normality witnesses are concepts ordered by repr: the same one under
    # every string hash seed (frozenset order gave two for this frame)
    code = ("from polarmodal.frames import random_frame\n"
            "from polarmodal.suites import _SUITE_SORTINGS, _complex_algebra\n"
            "from polarmodal.errors import NormalityError\n"
            "try:\n"
            "    _complex_algebra(random_frame(4, 3, _SUITE_SORTINGS, 0.5, 23))\n"
            "except NormalityError as exc:\n"
            "    print(exc, exc.witness)\n")
    outs = {subprocess.run([sys.executable, "-c", code], env=hash_seed_env(seed),
                           capture_output=True, text=True, check=True).stdout
            for seed in ("0", "1")}
    assert outs == {
        "operator h does not preserve the sorted bottom in coordinate 0 "
        "(Concept(extent=frozenset(['a0']), intent=frozenset(['b0', 'b1', 'b2'])), "
        "Concept(extent=frozenset(['a0', 'a1']), intent=frozenset(['b1'])))\n"}


# ---------------------------------------------------------------- random

def test_random_frame_determinism():
    sig = {"R": catalog.D11_1}
    one = random_frame(3, 2, sig, 0.5, seed=11)
    two = random_frame(3, 2, sig, 0.5, seed=11)
    assert one.incidence == two.incidence
    assert one.relations["R"].tuples == two.relations["R"].tuples
    assert random_frame(2, 2, None, 0.0, 1).incidence == frozenset()
    full = random_frame(2, 2, None, 1.0, 1)
    assert len(full.incidence) == 4
    with pytest.raises(PreconditionError):
        random_frame(0, 2, None, 0.5, 1)
    with pytest.raises(PreconditionError):
        random_frame(2, 2, None, 1.5, 1)


# ---------------------------------------------------------------- collector

@pytest.fixture
def collector():
    """Leave the cycle collector as the test found it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def _paused_sites(seed):
    """Each call that pauses the cycle collector, by name, on seeded
    random input: the decorated functions and the public calls that
    reach them."""
    rng = random.Random(seed)
    sig = {"f": catalog.D11_1, "g": catalog.DD_D, "h": catalog.D1D_D}
    frame = random_frame(rng.randint(2, 7), rng.randint(2, 7), sig,
                         rng.choice([0.2, 0.4, 0.6]), seed)
    model = gen.random_modal_model(frame, [(Sort.ONE, 0), (Sort.DEL, 0)], seed)
    model_text = fileio.dump_modal_model(model) + "val p0 : a0\n"
    clone = fileio.load_modal_model(model_text)

    def refined(read):
        # the refinement is cached by model pair: start and end with it cleared
        def call():
            bisim._refinement.cache_clear()
            try:
                return read(model, clone)
            finally:
                bisim._refinement.cache_clear()
        return call

    return {
        "stable_sets": frame.stable_sets,
        "costable_sets": frame.costable_sets,
        "random_frame": lambda: random_frame(6, 5, sig, 0.4, seed),
        "refinement": refined(bisim._refinement),
        "largest_bisimulation": refined(bisim.largest_bisimulation),
    }


SITES = sorted(_paused_sites(0))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", SITES)
def test_paused_calls_restore_the_collector(collector, name, enabled):
    call = _paused_sites(1)[name]
    (gc.enable if enabled else gc.disable)()
    call()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_paused_calls_restore_the_collector_when_they_raise(
        collector, monkeypatch, enabled):
    frame = random_frame(5, 5, None, 0.3, seed=2)
    monkeypatch.setattr(semantics, "DEFAULT_CAP", 1)
    calls = [
        (CapExceeded, frame.stable_sets),
        (CapExceeded, frame.costable_sets),
        (PreconditionError, lambda: random_frame(0, 1)),
    ]
    for error, call in calls:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(error):
            call()
        assert gc.isenabled() is enabled


def test_the_collector_is_paused_inside_and_a_nested_pause_keeps_it(collector):
    seen = []

    @frames._collector_paused
    def inner():
        seen.append(gc.isenabled())

    @frames._collector_paused
    def outer():
        inner()
        seen.append(gc.isenabled())

    gc.enable()
    outer()
    assert seen == [False, False] and gc.isenabled()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", SITES)
def test_paused_calls_leave_no_cyclic_garbage(collector, name, seed):
    """The premise of the pause: the calls build no reference cycle, so a
    collection during them could free nothing.  With the collector off,
    a call's dropped result leaves nothing for `gc.collect` to find."""
    call = _paused_sites(seed)[name]
    gc.disable()
    gc.collect()
    result = call()
    del result
    assert gc.collect() == 0
