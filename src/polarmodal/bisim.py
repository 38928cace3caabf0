"""Sorted simulations, bisimulations and bounded modal equivalence.

One partition refinement over the disjoint union of two models serves
both the largest model bisimulation and bounded modal equivalence.  Its
level-k classes are modal equivalence at depth k; run to its fixpoint,
it gives the coarsest stable partition, whose cross-model pairs form the
largest bisimulation on finite models.  When two points separate, a
distinguishing formula is synthesised from the refinement witness.

The refinement interns the points of both models as positions once and
reads each frame through `SortedFrame.edges()`, where I and every
relation have one row shape, as lists of positions.  A round maps the
previous classes over those lists, so its inner loops run in C.  Classes
are numbered in the `repr` order of their signatures: that order picks
the witnesses of distinguishing formulas, so keeping it keeps every
formula.  Since a signature leads with the point's previous class, the
order is found by sorting the previous classes by `str` and calling
`repr` only within a class that splits; the round that confirms the
fixpoint numbers nothing.

The refinement of the last ordered model pair is kept, keyed by the
identity of the two models, so `largest_bisimulation` and every
`modal_equiv` call on that pair share one run to the fixpoint.  Within
it, each characteristic formula is built once per (point, depth): equal
subformulas of a distinguishing formula are one shared object.  The
forth clauses of `is_simulation` read the same `edges()` rows.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import PreconditionError, SortError
from .frames import Sort, SortedFrame
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
    for sort, pairs in _pair_sets(rel).items():
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


def _pair_sets(rel: SortedPairRelation):
    return {Sort.ONE: rel.pairs_a, Sort.DEL: rel.pairs_b}


def is_simulation(f: SortedFrame, g: SortedFrame, rel: SortedPairRelation):
    """Check the forth clauses; returns (True, None) or (False, violation).

    A violation is (clause, pair, witness): the least pair that fails,
    which clause it fails, and the unmatched incidence point or relation
    tuple.  Sort-1 pairs come before sort-d pairs.
    """
    _check_sorted(f, g, rel)
    _check_compatible(f, g)
    pairs = _pair_sets(rel)
    edges, edges2 = f.edges(), g.edges()
    for sort, sort_pairs in pairs.items():
        for x, x2 in sorted(sort_pairs):
            for (name, inputs, tuples), (_, _, tuples2) in zip(edges[x], edges2[x2]):
                for t in tuples:
                    if not any(all((w, w2) in pairs[s]
                                   for w, w2, s in zip(t, t2, inputs))
                               for t2 in tuples2):
                        if name is None:
                            side = "A" if sort is Sort.ONE else "B"
                            return False, (f"I-forth-{side}", (x, x2), t[0])
                        return False, (f"{name}-forth", (x, x2), (x,) + t)
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
    cls = _refinement(m, m2).levels[-1]

    def shared(points, points2):
        return frozenset((w, w2) for w in points for w2 in points2
                         if cls[(0, w)] == cls[(1, w2)])

    f, g = m.frame, m2.frame
    return SortedPairRelation(shared(f.points_a, g.points_a),
                              shared(f.points_b, g.points_b))


# ----------------------------------------------------------------------
# Partition refinement and distinguishing formulas

class _Refinement:
    """Partition refinement over the disjoint union of two models.

    Points are tagged (model_index, point) and interned once: a point's
    position is its index in `points`, and its edge rows become lists of
    positions, its I-neighbours in one list and each relation's tuples
    as one list per argument place.  A round holds the classes as a list
    by position and maps it over those lists.  Level k classes identify
    points satisfying the same modal formulas of depth at most k;
    `levels` holds them as dicts keyed by tagged points.  Refinement
    runs to its fixpoint; the last level then stands for every deeper
    one.

    A signature is (class, I-neighbour classes, ((name, class vectors),
    ...)), each set filled in the order of the sorted edge tuples, which
    fixes its `repr`.  Classes are numbered in the `repr` order of the
    signatures (`_numbering`), because `distinguish` takes the least
    class vector as its witness.
    """

    def __init__(self, m: ModalModel, m2: ModalModel):
        _check_compatible(m.frame, m2.frame)
        self.models = [m, m2]
        self.vars = sorted(set(m.valuation) | set(m2.valuation), key=modal_var_key)
        self.points = [
            (i, p) for i, mod in enumerate(self.models)
            for p in sorted(mod.frame.points_a | mod.frame.points_b)
        ]
        self._positions = [{}, {}]
        for n, (i, p) in enumerate(self.points):
            self._positions[i][p] = n
        self._near, self._rows = [], []
        edges = [mod.frame.edges() for mod in self.models]
        for i, p in self.points:
            at = self._positions[i].__getitem__
            (_, _, near), *rows = edges[i][p]
            self._near.append([at(q) for q, in near])
            self._rows.append([(name, [list(map(at, col)) for col in zip(*tuples)])
                               for name, _, tuples in rows])
        self.levels: list[dict] = []
        self._classes: list[list[int]] = []
        self._characteristic: dict = {}
        self._refine()

    def sort_of(self, tagged):
        i, p = tagged
        return self.models[i].frame.sort_of(p)

    def _profile(self, tagged):
        i, p = tagged
        mod = self.models[i]
        sort = mod.frame.sort_of(p)
        return (sort.value,
                tuple(p in mod.var(s, j) for s, j in self.vars if s is sort))

    def _vectors(self, tagged, cls):
        """Each edge row of a point as (name, {class vector: least tuple}).

        cls is a level's class list; the tuples hold positions."""
        i, p = tagged
        n = self._positions[i][p]
        get = cls.__getitem__
        rows = []
        for name, cols in [(None, [self._near[n]])] + self._rows[n]:
            vecs = {}
            for t in zip(*cols):
                vecs.setdefault(tuple(map(get, t)), t)
            rows.append((name, vecs))
        return rows

    def _refine(self):
        keys = list(map(self._profile, self.points))
        ids = {k: n for n, k in enumerate(sorted(set(keys)))}
        while True:
            cls = list(map(ids.__getitem__, keys))
            self._classes.append(cls)
            self.levels.append(dict(zip(self.points, cls)))
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

    def equivalent(self, x, y, k) -> bool:
        k = min(k, len(self.levels) - 1)
        return self.levels[k][x] == self.levels[k][y]

    def first_difference(self, x, y, k) -> int | None:
        for j in range(min(k, len(self.levels) - 1) + 1):
            if self.levels[j][x] != self.levels[j][y]:
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
        sort = self.sort_of(x)
        conjuncts = [
            self.distinguish(x, q, d)
            for q in self.points
            if self.sort_of(q) is sort and not self.equivalent(x, q, d)
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
        if j == 0:
            i, p = x
            i2, p2 = y
            sort = self.sort_of(x)
            for s, idx in self.vars:
                if s is not sort:
                    continue
                in_x = p in self.models[i].var(s, idx)
                in_y = p2 in self.models[i2].var(s, idx)
                if in_x and not in_y:
                    return MVar(s, idx)
                if in_y and not in_x:
                    return MNot(MVar(s, idx))
            raise PreconditionError("profiles differ without a witness variable")
        prev = self._classes[j - 1]
        sort = self.sort_of(x)
        dia = MBdia if sort is Sort.ONE else MDdia
        for (name, vx), (_, vy) in zip(self._vectors(x, prev), self._vectors(y, prev)):
            for own, other, negate in ((vx, vy, False), (vy, vx, True)):
                for vec, tup in sorted(own.items()):
                    if vec not in other:
                        args = tuple(self.characteristic(self.points[w], j - 1)
                                     for w in tup)
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
def _refinement(m: ModalModel, m2: ModalModel) -> _Refinement:
    """The refinement of the ordered pair (m, m2), kept for the last pair.

    Models hash by identity and are immutable after construction; the
    single slot keeps at most one pair alive.  A pair that raises is not
    kept."""
    return _Refinement(m, m2)


def modal_equiv(m: ModalModel, w: str, m2: ModalModel, w2: str, depth: int):
    """Agreement on all modal formulas of depth <= depth.

    Returns (True, None), or (False, theta) with theta satisfied at w
    and refuted at w2.  Both read the refinement's levels up to depth.
    """
    if depth < 0:
        raise PreconditionError("depth must be >= 0")
    if m.frame.sort_of(w) is not m2.frame.sort_of(w2):
        raise SortError("points must have the same sort")
    ref = _refinement(m, m2)
    x, y = (0, w), (1, w2)
    if ref.equivalent(x, y, depth):
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
    cand_a = sorted((a, a2) for a in f.points_a for a2 in g.points_a)
    cand_b = sorted((b, b2) for b in f.points_b for b2 in g.points_b)
    union_a, union_b = set(), set()
    for mask_a in itertools.product([False, True], repeat=len(cand_a)):
        pa = frozenset(p for p, keep in zip(cand_a, mask_a) if keep)
        for mask_b in itertools.product([False, True], repeat=len(cand_b)):
            pb = frozenset(p for p, keep in zip(cand_b, mask_b) if keep)
            rel = SortedPairRelation(pa, pb)
            if is_model_bisimulation(m, m2, rel):
                union_a |= pa
                union_b |= pb
    return SortedPairRelation(frozenset(union_a), frozenset(union_b))
