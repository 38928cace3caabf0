"""Sorted simulations, bisimulations and bounded modal equivalence.

One partition refinement over the disjoint union of two models serves
both the largest model bisimulation and bounded modal equivalence.  Its
level-k classes are modal equivalence at depth k; run to its fixpoint,
it gives the coarsest stable partition, whose cross-model pairs form the
largest bisimulation on finite models.  When two points separate, a
distinguishing formula is synthesised from the refinement witness.

The refinement interns the points of both models as positions once:
one reader, `_interned`, scans each frame's incidence and relation
tuples and gives every position its I-neighbours and, per relation, one
column of positions per argument place.  Positions are given out in
sorted name order within each model, so every list comes in the order
of the sorted name tuples.  A round maps the previous classes, one list
by position, over those lists, so its inner loops run in C.  Classes
are numbered in the `repr` order of their signatures: that order picks
the witnesses of distinguishing formulas, so keeping it keeps every
formula.  Since a signature leads with the point's previous class, the
order is found by sorting the previous classes by `str` and calling
`repr` only within a class that splits; the round that confirms the
fixpoint numbers nothing.

The refinement of the last ordered model pair is kept, keyed by the
identity of the two models, so `largest_bisimulation` and every
`modal_equiv` call on that pair share one run to the fixpoint.  Within
it, each characteristic formula is built once per (position, depth):
equal subformulas of a distinguishing formula are one shared object.
`is_simulation` checks its forth clauses on the same interned view,
turning positions back into names only for the violation it reports;
`all_bisimulations_union` reads its two frames once and checks every
candidate relation, both ways, on that one view.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import PreconditionError, SortError
from .frames import Sort, SortedFrame, _collector_paused
from .semantics import ModalModel
from .syntax import (MApp, MBdia, MConst, MDdia, MNot, MVar, MAnd, ModalFormula,
                     modal_var_key)


@dataclass(frozen=True)
class SortedPairRelation:
    """A sort-respecting relation between the points of two frames."""

    pairs_a: frozenset[tuple[str, str]]
    pairs_b: frozenset[tuple[str, str]]

    def inverse(self) -> "SortedPairRelation":
        return SortedPairRelation(
            frozenset((y, x) for x, y in self.pairs_a),
            frozenset((y, x) for x, y in self.pairs_b),
        )

    def __len__(self):
        return len(self.pairs_a) + len(self.pairs_b)


def _check_sorted(f: SortedFrame, g: SortedFrame, rel: SortedPairRelation):
    for sort, pairs in ((Sort.ONE, rel.pairs_a), (Sort.DEL, rel.pairs_b)):
        for w, w2 in sorted(pairs):
            if w not in f.carrier(sort) or w2 not in g.carrier(sort):
                raise SortError(
                    f"pair ({w},{w2}) is not a sort-{sort} pair of the frames")


def _check_compatible(f: SortedFrame, g: SortedFrame):
    if set(f.relations) != set(g.relations):
        raise PreconditionError("frames carry different relation names")
    for name in f.relations:
        if f.relations[name].sorting != g.relations[name].sorting:
            raise PreconditionError(f"relation {name} has different sortings")


def is_simulation(f: SortedFrame, g: SortedFrame, rel: SortedPairRelation):
    """Check the forth clauses; returns (True, None) or (False, violation).

    A violation is (clause, pair, witness): the least pair that fails,
    which clause it fails, and the unmatched incidence point or relation
    tuple.  Sort-1 pairs come before sort-d pairs.
    """
    _check_sorted(f, g, rel)
    _check_compatible(f, g)
    (at, at2), near, rows = _interned((f, g))
    return _forth(at, at2, [*at, *at2], near, rows, rel)


def _forth(at, at2, names, near, rows, rel: SortedPairRelation):
    """`is_simulation` on an interned view of both frames: `at` and `at2`
    map the names of the simulated and simulating frame to positions,
    `names` maps positions back, and `near` and `rows` are `_interned`'s."""
    kept = {(at[w], at2[w2]) for w, w2 in rel.pairs_a | rel.pairs_b}
    for side, sort_pairs in (("A", rel.pairs_a), ("B", rel.pairs_b)):
        for x, x2 in sorted(sort_pairs):
            n, n2 = at[x], at2[x2]
            for (name, cols), (_, cols2) in zip([(None, [near[n]])] + rows[n],
                                                [(None, [near[n2]])] + rows[n2]):
                tuples2 = list(zip(*cols2))
                for t in zip(*cols):
                    if not any(all(map(kept.__contains__, zip(t, t2)))
                               for t2 in tuples2):
                        if name is None:
                            return False, (f"I-forth-{side}", (x, x2), names[t[0]])
                        return False, (f"{name}-forth", (x, x2),
                                       (x, *map(names.__getitem__, t)))
    return True, None


def is_bisimulation(f: SortedFrame, g: SortedFrame, rel: SortedPairRelation) -> bool:
    ok, _ = is_simulation(f, g, rel)
    if not ok:
        return False
    ok, _ = is_simulation(g, f, rel.inverse())
    return ok


def _valuations_agree(m: ModalModel, m2: ModalModel, rel: SortedPairRelation) -> bool:
    vars_all = set(m.valuation) | set(m2.valuation)
    for sort, i in vars_all:
        pairs = rel.pairs_a if sort is Sort.ONE else rel.pairs_b
        for w, w2 in pairs:
            if (w in m.var(sort, i)) != (w2 in m2.var(sort, i)):
                return False
    return True


def is_model_bisimulation(m: ModalModel, m2: ModalModel,
                          rel: SortedPairRelation) -> bool:
    """Frame bisimulation plus valuation transfer along both directions."""
    return is_bisimulation(m.frame, m2.frame, rel) and \
        _valuations_agree(m, m2, rel)


def largest_bisimulation(m: ModalModel, m2: ModalModel) -> SortedPairRelation:
    """The largest model bisimulation between m and m2.

    On finite models it is the coarsest stable partition of the disjoint
    union: the cross-model pairs that share a class once refinement has
    reached its fixpoint.
    """
    ref = _refinement(m, m2)
    cls, (at, at2) = ref.classes[-1], ref.positions

    def shared(points, points2):
        return frozenset((w, w2) for w in points for w2 in points2
                         if cls[at[w]] == cls[at2[w2]])

    f, g = m.frame, m2.frame
    return SortedPairRelation(shared(f.points_a, g.points_a),
                              shared(f.points_b, g.points_b))


# ----------------------------------------------------------------------
# Partition refinement and distinguishing formulas

def _interned(frames):
    """Each frame's points as positions, read once from I and the tuples.

    Returns one name-to-position dict per frame, numbered on from the
    frame before and in sorted name order within a frame, so sorted
    position tuples come in the order of sorted name tuples.  Then, by
    position, the sorted I-neighbours, and one row (name, columns) per
    relation of the point's output sort in name order, empty rows kept:
    the sorted argument tuples the point heads, as one column of
    positions per argument place.
    """
    positions, size = [], 0
    for frame in frames:
        points = sorted(frame.points_a | frame.points_b)
        positions.append(dict(zip(points, range(size, size + len(points)))))
        size += len(points)
    near = [[] for _ in range(size)]
    rows = [[] for _ in range(size)]
    for frame, at in zip(frames, positions):
        at = at.__getitem__
        for a, b in _sorted_positions(frame.incidence, 2, at):
            near[a].append(b)
            near[b].append(a)
        for name, rel in sorted(frame.relations.items()):
            heads = dict.fromkeys(map(at, frame.carrier(rel.sorting.output)), ())
            tuples = _sorted_positions(rel.tuples, rel.sorting.arity + 1, at)
            for head, run in itertools.groupby(tuples, itemgetter(0)):
                heads[head] = list(zip(*run))[1:]
            for p, cols in heads.items():
                rows[p].append((name, cols))
    return positions, near, rows


def _sorted_positions(tuples, width, at):
    """Name tuples of `width` places as sorted position tuples, converted
    one place at a time."""
    return sorted(zip(*[map(at, map(itemgetter(j), tuples)) for j in range(width)]))


class _Refinement:
    """Partition refinement over the disjoint union of two models.

    `points` lists the points of both models as (model_index, point),
    and a point's position is its index there; `positions` maps each
    model's names to positions, and `sorts` gives each position's sort.
    The frames are read once, through `_interned`.  Level k classes, one
    list by position in `classes`, identify points satisfying the same
    modal formulas of depth at most k.  Refinement runs to its fixpoint;
    the last level then stands for every deeper one.

    A signature is (class, I-neighbour classes, ((name, class vectors),
    ...)), each set filled in the order of the sorted argument tuples,
    which fixes its `repr`.  Classes are numbered in the `repr` order of
    the signatures (`_numbering`), because `distinguish` takes the least
    class vector as its witness.
    """

    def __init__(self, m: ModalModel, m2: ModalModel):
        _check_compatible(m.frame, m2.frame)
        self.models = [m, m2]
        self.vars = sorted(set(m.valuation) | set(m2.valuation), key=modal_var_key)
        self.positions, self._near, self._rows = _interned([m.frame, m2.frame])
        self.points = [(i, p) for i, at in enumerate(self.positions) for p in at]
        self.sorts = [Sort.ONE if p in self.models[i].frame.points_a else Sort.DEL
                      for i, p in self.points]
        self.classes: list[list[int]] = []
        self._characteristic: dict = {}
        self._profiles = list(map(self._profile, range(len(self.points))))
        self._refine()

    def _profile(self, n):
        i, p = self.points[n]
        mod, sort = self.models[i], self.sorts[n]
        return (sort.value,
                tuple(p in mod.var(s, j) for s, j in self.vars if s is sort))

    def _vectors(self, n, cls):
        """Each row of position n as (name, {class vector: least tuple}).

        cls is a level's class list; the tuples hold positions."""
        get = cls.__getitem__
        rows = []
        for name, cols in [(None, [self._near[n]])] + self._rows[n]:
            vecs = {}
            for t in zip(*cols):
                vecs.setdefault(tuple(map(get, t)), t)
            rows.append((name, vecs))
        return rows

    def _refine(self):
        keys = self._profiles
        ids = {k: n for n, k in enumerate(sorted(set(keys)))}
        while True:
            cls = list(map(ids.__getitem__, keys))
            self.classes.append(cls)
            get = cls.__getitem__
            keys = [(c, frozenset(map(get, near)),
                     tuple((name, frozenset(dict.fromkeys(
                         zip(*[map(get, col) for col in cols]))))
                           for name, cols in rows))
                    for c, near, rows in zip(cls, self._near, self._rows)]
            distinct = set(keys)
            # each level refines the one before, so an equal class count
            # means an equal partition, and every later level equals it too
            if len(distinct) == len(ids):
                return
            ids = _numbering(distinct)

    def level(self, k) -> list[int]:
        """The class list at depth k; past the fixpoint, the last one."""
        return self.classes[min(k, len(self.classes) - 1)]

    def first_difference(self, x, y, k) -> int | None:
        for j, cls in enumerate(self.classes[:k + 1]):
            if cls[x] != cls[y]:
                return j
        return None

    # ------------------------------------------------------------------

    def characteristic(self, x, d: int) -> ModalFormula:
        """A depth-d formula true exactly on x's level-d class.

        Built once per (x, d): every later request returns that object."""
        phi = self._characteristic.get((x, d))
        if phi is None:
            phi = self._characteristic[(x, d)] = self._conjoin(x, d)
        return phi

    def _conjoin(self, x, d: int) -> ModalFormula:
        sort, cls = self.sorts[x], self.level(d)
        conjuncts = [
            self.distinguish(x, q, d)
            for q, (s, c) in enumerate(zip(self.sorts, cls))
            if s is sort and c != cls[x]
        ]
        if not conjuncts:
            return MConst(sort, True)
        out = conjuncts[0]
        for c in conjuncts[1:]:
            out = MAnd(out, c)
        return out

    def distinguish(self, x, y, k: int) -> ModalFormula:
        """A depth <= k formula true at x and false at y (same sort)."""
        j = self.first_difference(x, y, k)
        if j is None:
            raise PreconditionError("points are equivalent at this depth")
        sort = self.sorts[x]
        if j == 0:
            own = [(s, idx) for s, idx in self.vars if s is sort]
            for (s, idx), in_x, in_y in zip(own, self._profiles[x][1],
                                            self._profiles[y][1]):
                if in_x != in_y:
                    return MVar(s, idx) if in_x else MNot(MVar(s, idx))
            raise PreconditionError("profiles differ without a witness variable")
        prev = self.classes[j - 1]
        dia = MBdia if sort is Sort.ONE else MDdia
        for (name, vx), (_, vy) in zip(self._vectors(x, prev), self._vectors(y, prev)):
            for own, other, negate in ((vx, vy, False), (vy, vx, True)):
                for vec, tup in sorted(own.items()):
                    if vec not in other:
                        args = tuple(self.characteristic(w, j - 1) for w in tup)
                        phi = dia(*args) if name is None else MApp(name, sort, args)
                        return MNot(phi) if negate else phi
        raise PreconditionError("signatures differ without a modal witness")


def _numbering(keys: set) -> dict:
    """Number distinct keys, each a tuple led by an int c, in `repr` order.

    A key's repr starts with "(" + str(c) + ",", and "," sorts below
    every digit, so repr order is str(c) order first ("(1, " before
    "(10, ") and repr order only among the keys of one c.  `repr` is
    called only where one c leads more than one key.
    """
    one = dict(zip(map(itemgetter(0), keys), keys))
    split = {}
    for key in keys.difference(one.values()):
        split.setdefault(key[0], [one[key[0]]]).append(key)
    order = []
    for c in sorted(one, key=str):
        order += sorted(split[c], key=repr) if c in split else (one[c],)
    return dict(zip(order, range(len(order))))


@functools.lru_cache(maxsize=1)
@_collector_paused
def _refinement(m: ModalModel, m2: ModalModel) -> _Refinement:
    """The refinement of the ordered pair (m, m2), kept for the last pair.

    Models hash by identity and are immutable after construction; the
    single slot keeps at most one pair alive.  A pair that raises is not
    kept.  A refinement holds no reference cycle, so it is built with the
    cycle collector paused; a cached pair returns without touching it."""
    return _Refinement(m, m2)


def modal_equiv(m: ModalModel, w: str, m2: ModalModel, w2: str, depth: int):
    """Agreement on all modal formulas of depth <= depth.

    Returns (True, None), or (False, theta) with theta satisfied at w
    and refuted at w2.  Both read the refinement's classes up to depth.
    """
    if depth < 0:
        raise PreconditionError("depth must be >= 0")
    if m.frame.sort_of(w) is not m2.frame.sort_of(w2):
        raise SortError("points must have the same sort")
    ref = _refinement(m, m2)
    x, y = ref.positions[0][w], ref.positions[1][w2]
    cls = ref.level(depth)
    if cls[x] == cls[y]:
        return True, None
    return False, ref.distinguish(x, y, depth)


def equivalence_depth_bound(m: ModalModel, m2: ModalModel) -> int:
    """An a-priori depth at which modal equivalence is bisimilarity.

    A refinement round that changes the partition adds a class, and the
    partition starts with at least one class per sort, so at most
    |A|+|A'|+|B|+|B'|-2 rounds change it; |A|*|A'| + |B|*|B'| is never
    smaller.  Refinement stops as soon as the partition is stable,
    usually far earlier than this bound.
    """
    f, g = m.frame, m2.frame
    return (len(f.points_a) * len(g.points_a)
            + len(f.points_b) * len(g.points_b))


def all_bisimulations_union(m: ModalModel, m2: ModalModel) -> SortedPairRelation:
    """Union of all model bisimulations by exhaustive relation enumeration.

    Exponential in the number of point pairs; an oracle for tiny models.
    """
    f, g = m.frame, m2.frame
    _check_compatible(f, g)
    (at, at2), near, rows = _interned((f, g))
    names = [*at, *at2]

    def bisimulation(rel):
        return _forth(at, at2, names, near, rows, rel)[0] and \
            _forth(at2, at, names, near, rows, rel.inverse())[0] and \
            _valuations_agree(m, m2, rel)

    cand_a = sorted((a, a2) for a in f.points_a for a2 in g.points_a)
    cand_b = sorted((b, b2) for b in f.points_b for b2 in g.points_b)
    union_a, union_b = set(), set()
    for mask_a in itertools.product([False, True], repeat=len(cand_a)):
        pa = frozenset(p for p, keep in zip(cand_a, mask_a) if keep)
        for mask_b in itertools.product([False, True], repeat=len(cand_b)):
            pb = frozenset(p for p, keep in zip(cand_b, mask_b) if keep)
            rel = SortedPairRelation(pa, pb)
            if bisimulation(rel):
                union_a |= pa
                union_b |= pb
    return SortedPairRelation(frozenset(union_a), frozenset(union_b))
