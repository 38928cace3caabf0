"""Two-sorted polarity frames and their Galois machinery.

A frame carries two disjoint point sets A (sort 1) and B (sort d), an
incidence relation I between them, and finitely many sorted relations.
The Galois connection is generated by the complement of I; stable sets,
formal concepts, relation-induced operators and canonical frames of
finite lattice expansions are all computed here.

Each frame interns its points once into a private int-bitset index.
Within a sort, bit i of a mask is the i-th point in reverse name order,
so the public (size, sorted points) order of point sets is the order of
masks by (popcount, -mask).  Incidence rows and relation sections are
ints; the Galois maps, boxes, diamonds, image operators, concept
enumeration and section stability all work on them, and convert to
frozensets once, at the public boundary.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from operator import lshift
from typing import Iterable, Mapping, Sequence

from .errors import NormalityError, PreconditionError, SortError

class Sort(Enum):
    ONE = "1"
    DEL = "d"

    @property
    def opposite(self) -> "Sort":
        return Sort.DEL if self is Sort.ONE else Sort.ONE

    def __str__(self):
        return self.value

    @staticmethod
    def parse(text: str) -> "Sort":
        if text == "1":
            return Sort.ONE
        if text in ("d", "D"):
            return Sort.DEL
        raise SortError(f"unknown sort {text!r} (expected '1' or 'd')")


# the kernels read a module global; an enum member lookup costs far more
_ONE = Sort.ONE

@dataclass(frozen=True)
class SortingType:
    """Sorting of a frame relation: output sort, then input sorts."""

    output: Sort
    inputs: tuple[Sort, ...]

    def __post_init__(self):
        if len(self.inputs) < 1:
            raise SortError("sorting type needs at least one input sort")

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def __str__(self):
        return f"{self.output};{''.join(str(s) for s in self.inputs)}"

    @staticmethod
    def parse(text: str) -> "SortingType":
        try:
            out, ins = text.split(";")
        except ValueError:
            raise SortError(f"bad sorting type {text!r}, expected '<out>;<inputs>'")
        return SortingType(Sort.parse(out), tuple(Sort.parse(c) for c in ins))


@dataclass(frozen=True)
class DistributionType:
    """Input/output polarities of a lattice operator."""

    inputs: tuple[Sort, ...]
    output: Sort

    def __post_init__(self):
        if len(self.inputs) < 1:
            raise SortError("distribution type needs n >= 1 inputs")

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def sorting(self) -> SortingType:
        return SortingType(self.output, self.inputs)

    def __str__(self):
        return ",".join(str(s) for s in self.inputs) + "->" + str(self.output)

    @staticmethod
    def parse(text: str) -> "DistributionType":
        try:
            ins, out = text.split("->")
        except ValueError:
            raise SortError(f"bad distribution type {text!r}, expected 'i1,..,in->o'")
        return DistributionType(
            tuple(Sort.parse(c) for c in ins.split(",")), Sort.parse(out)
        )


@dataclass(frozen=True)
class SortedRelation:
    name: str
    sorting: SortingType
    tuples: frozenset[tuple[str, ...]]


@dataclass(frozen=True)
class Concept:
    """A formal concept: extent and intent determine each other."""

    extent: frozenset[str]
    intent: frozenset[str]


class SortedFrame:
    """Finite two-sorted frame (A, I, B, relations).

    The frame stores the incidence relation I; the Galois relation is
    always its complement.  Both sorts must be non-empty and disjoint.
    Instances are immutable after construction.

    Every kernel runs on one private `_BitIndex` (see the module
    docstring), built in a single pass over I; a relation is indexed on
    its first use.
    """

    def __init__(
        self,
        points_a: Iterable[str],
        points_b: Iterable[str],
        incidence: Iterable[tuple[str, str]],
        relations: Mapping[str, SortedRelation] | None = None,
    ):
        self.points_a = frozenset(points_a)
        self.points_b = frozenset(points_b)
        self.incidence = frozenset(incidence)
        self.relations = dict(relations or {})
        if not self.points_a or not self.points_b:
            raise SortError("both sorts must be non-empty")
        if self.points_a & self.points_b:
            raise SortError("point sets of the two sorts must be disjoint")
        index = self._index = _BitIndex(self.points_a, self.points_b)
        # every check reports the least bad pair or tuple; only then sorts
        if not index.link(self.incidence):
            a, b = min(p for p in self.incidence
                       if p[0] not in self.points_a or p[1] not in self.points_b)
            raise SortError(f"incidence pair ({a},{b}) is not in A x B")
        for name, rel in self.relations.items():
            if rel.name != name:
                raise SortError(f"relation {name} registered under wrong key")
            self._check_relation(rel)

    def _check_relation(self, rel: SortedRelation):
        places = [self.carrier(s) for s in (rel.sorting.output, *rel.sorting.inputs)]
        bad = [t for t in rel.tuples if len(t) != len(places)
               or not all(map(frozenset.__contains__, places, t))]
        if bad:
            tup = min(bad)
            if len(tup) != len(places):
                raise SortError(f"relation {rel.name}: tuple {tup} has wrong arity")
            i = next(i for i, w in enumerate(tup) if w not in places[i])
            role = "argument" if i else "head"
            raise SortError(f"relation {rel.name}: {role} {tup[i]} ill-sorted")

    def carrier(self, sort: Sort) -> frozenset[str]:
        return self.points_a if sort is Sort.ONE else self.points_b

    def sort_of(self, point: str) -> Sort:
        if point in self.points_a:
            return Sort.ONE
        if point in self.points_b:
            return Sort.DEL
        raise SortError(f"point {point!r} is not in the frame")

    # ------------------------------------------------------------------
    # Galois connection (over the complement of I)

    def polarity(self, a: str, b: str) -> bool:
        """The Galois relation: true iff (a, b) is not an incidence pair."""
        if a not in self.points_a:
            raise SortError(f"{a!r} is not a sort-1 point")
        if b not in self.points_b:
            raise SortError(f"{b!r} is not a sort-d point")
        return (a, b) not in self.incidence

    def _lift(self, op, sort: Sort, s: Iterable[str]) -> frozenset[str]:
        """Apply a `_Side` operator from `sort` to its opposite to a point set."""
        index = self._index
        side = index.side(sort)
        return index.side(sort.opposite).points(op(side, side.mask(s)))

    def galois_right(self, u: Iterable[str]) -> frozenset[str]:
        """U |-> {b | a polar b for all a in U}."""
        return self._lift(_Side.polar, Sort.ONE, u)

    def galois_left(self, v: Iterable[str]) -> frozenset[str]:
        """V |-> {a | a polar b for all b in V}."""
        return self._lift(_Side.polar, Sort.DEL, v)

    def closure(self, sort: Sort, s: Iterable[str]) -> frozenset[str]:
        """Galois closure on the given sort."""
        side = self._index.side(sort)
        return side.points(side.close(side.mask(s)))

    def is_stable(self, sort: Sort, s: Iterable[str]) -> bool:
        side = self._index.side(sort)
        m = side.mask(s)
        return side.close(m) == m

    # ------------------------------------------------------------------
    # Residuated operators generated by I

    def dia_ab(self, u: Iterable[str]) -> frozenset[str]:
        """{b | some a in U with aIb}; left half of the residuated pair."""
        return self._lift(_Side.dia, Sort.ONE, u)

    def box_ba(self, v: Iterable[str]) -> frozenset[str]:
        """{a | every I-successor of a lies in V}; right half of the pair."""
        return self._lift(_Side.box, Sort.DEL, v)

    def box_ab(self, u: Iterable[str]) -> frozenset[str]:
        """Complement-conjugate of dia_ab: {b | every I-predecessor is in U}."""
        return self._lift(_Side.box, Sort.ONE, u)

    def dia_ba(self, v: Iterable[str]) -> frozenset[str]:
        """Complement-conjugate of box_ba: {a | some I-successor is in V}."""
        return self._lift(_Side.dia, Sort.DEL, v)

    def check_seriality(self) -> bool:
        index = self._index
        return all(index.a.rows.values()) and all(index.b.rows.values())

    # ------------------------------------------------------------------
    # Relation-induced operators

    def relation(self, name: str) -> SortedRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise PreconditionError(f"no relation named {name!r} in frame")

    def edges(self) -> dict[str, list[tuple]]:
        """Each point's rows (name, input sorts, sorted argument tuples).

        The incidence row comes first: its name is None and it holds the
        point's I-neighbours as 1-tuples.  Then comes one row per relation
        whose output sort is the point's, in name order, empty rows kept.
        Built afresh on each call; nothing is stored on the frame.
        """
        args = {}
        for name, rel in self.relations.items():
            for t in rel.tuples:
                args.setdefault((name, t[0]), []).append(t[1:])
        rows = {}
        for sort in Sort:
            side, other = self._index.side(sort), self._index.side(sort.opposite)
            own = [rel for _, rel in sorted(self.relations.items())
                   if rel.sorting.output is sort]
            for bit, p in side.name.items():
                nbrs = other.points(side.rows[bit])
                rows[p] = [(None, (sort.opposite,), sorted((q,) for q in nbrs))]
                rows[p] += [(rel.name, rel.sorting.inputs,
                             sorted(args.get((rel.name, p), ()))) for rel in own]
        return rows

    def image_op(self, name: str, args: Sequence[Iterable[str]]) -> frozenset[str]:
        """Existential image operator of the named relation."""
        rel = self.relation(name)
        if len(args) != rel.sorting.arity:
            raise SortError(f"relation {name} expects {rel.sorting.arity} arguments")
        index = self._index
        masks = [index.side(s).mask(w) for w, s in zip(args, rel.sorting.inputs)]
        return index.side(rel.sorting.output).points(index.image(rel, masks))

    def is_section_stable(self, name: str):
        """Check that every section of the Galois dual relation is closed.

        Returns (True, None) or (False, (position, fixed_tuple)); position 0
        is the head place of the dual relation.  Its sections are Galois
        images, closed by construction, so only positions 1..n can fail.
        """
        rel = self.relation(name)
        index = self._index
        offsets, heads = index.heads(rel)
        sides = [index.side(s) for s in rel.sorting.inputs]
        dual = index.side(rel.sorting.output.opposite)
        for j, side in enumerate(sides):
            others, shifts = sides[:j] + sides[j + 1:], offsets[:j] + offsets[j + 1:]
            axis, shift = side.order(), offsets[j]
            rests = list(itertools.product(*(o.order() for o in others)))
            # the heads at each argument tuple along axis j, one list per rest
            lines = []
            for rest in rests:
                key = sum(map(lshift, rest, shifts))
                lines.append([heads.get(key | w << shift, 0) for w in axis])
            closed = {}
            for h in dual.order():
                row = dual.rows[h]
                for rest, line in zip(rests, lines):
                    # w is in the section iff h is polar to every head at w
                    sec = sum(w for w, hs in zip(axis, line) if not row & hs)
                    if sec not in closed:
                        closed[sec] = side.close(sec) == sec
                    if not closed[sec]:
                        fixed = [o.name[w] for o, w in zip(others, rest)]
                        fixed.insert(j, "_")
                        return False, (j + 1, (dual.name[h], *fixed))
        return True, None

    def closed_op(self, name: str, args: Sequence[Iterable[str]]) -> frozenset[str]:
        """Galois closure of the image operator on the relation's output sort.

        Argument j must be a stable subset of A when the relation's input
        sort j is 1, and a co-stable subset of B when it is d.  The result
        is the closed set of the output sort: stable on A for output 1,
        co-stable on B for output d.
        """
        rel = self.relation(name)
        if len(args) != rel.sorting.arity:
            raise SortError(f"relation {name} expects {rel.sorting.arity} arguments")
        index = self._index
        masks = []
        for j, (w, s) in enumerate(zip(args, rel.sorting.inputs)):
            side = index.side(s)
            m = side.mask(w)
            if side.close(m) != m:
                kind = "stable" if s is Sort.ONE else "co-stable"
                raise PreconditionError(f"argument {j} of {name} must be a {kind} set")
            masks.append(m)
        out = index.side(rel.sorting.output)
        return out.points(out.close(index.image(rel, masks)))

    # ------------------------------------------------------------------
    # Concepts

    def stable_sets(self) -> list[frozenset[str]]:
        """All Galois-stable subsets of A, ordered by (size, sorted points).

        Every stable set is an intersection of single-attribute extents,
        so the closure system is generated by those plus A itself.
        """
        return self._index.a.closed_sets()

    def costable_sets(self) -> list[frozenset[str]]:
        """All co-stable subsets of B, dually to `stable_sets`."""
        return self._index.b.closed_sets()

    def all_concepts(self) -> "FiniteLattice":
        """The concept lattice, ordered by extent inclusion."""
        concepts = [Concept(c, self.galois_right(c)) for c in self.stable_sets()]
        return FiniteLattice(concepts, ((x, y) for x in concepts for y in concepts
                                        if x.extent <= y.extent))


class _BitIndex:
    """A frame's two sorts as `_Side`s, and its relations indexed by bits.

    A relation's argument tuples are packed into one int: each argument
    place owns a run of bits, one per point of its sort.  So a tuple lies
    in the argument sets iff its packed bits lie in theirs.  A relation is
    indexed on first use, from tuples the frame has already checked.
    """

    def __init__(self, points_a: frozenset[str], points_b: frozenset[str]):
        self.a, self.b = _Side(Sort.ONE, points_a), _Side(Sort.DEL, points_b)
        # each side reads the other's carrier and rows but holds no reference
        # to the other side, so a dropped frame is freed at once, not by the
        # cycle collector
        self.a.co_full, self.a.co_rows = self.b.full, self.b.rows
        self.b.co_full, self.b.co_rows = self.a.full, self.a.rows
        self._heads: dict[str, tuple[list[int], dict[int, int]]] = {}

    def side(self, sort: Sort) -> "_Side":
        return self.a if sort is _ONE else self.b

    def link(self, incidence: Iterable[tuple[str, str]]) -> bool:
        """Fill both sides' incidence rows; False if a pair is outside A x B."""
        bit_a, bit_b = self.a.bit, self.b.bit
        succ, pred = self.a.rows, self.b.rows
        try:
            for p in incidence:
                a, b = bit_a[p[0]], bit_b[p[1]]
                succ[a] |= b
                pred[b] |= a
        except KeyError:
            return False
        return True

    def heads(self, rel: SortedRelation) -> tuple[list[int], dict[int, int]]:
        """The bit offset of each argument place, and the mask of the heads
        of each argument tuple, keyed by its points' bits shifted to those
        offsets and summed."""
        index = self._heads.get(rel.name)
        if index is None:
            sides = [self.side(s) for s in rel.sorting.inputs]
            offsets = list(itertools.accumulate(
                (len(side.bit) for side in sides[:-1]), initial=0))
            head_bit = self.side(rel.sorting.output).bit
            by_args = {}
            for t in rel.tuples:
                args = t[1:]
                by_args[args] = by_args.get(args, 0) | head_bit[t[0]]
            # each argument place's column of names, read as shifted bits
            places = [map({p: b << off for p, b in side.bit.items()}.__getitem__, names)
                      for side, off, names in zip(sides, offsets, zip(*by_args))]
            keys = map(sum, zip(*places))
            index = self._heads[rel.name] = offsets, dict(zip(keys, by_args.values()))
        return index

    def image(self, rel: SortedRelation, masks: Sequence[int]) -> int:
        """Heads of the relation's tuples whose arguments lie in `masks`."""
        offsets, heads = self.heads(rel)
        packed = sum(map(lshift, masks, offsets))
        out = 0
        for args, hs in heads.items():
            if args & packed == args and hs & ~out:
                out |= hs
        return out


class _Side:
    """One sort of a frame as int masks.

    Bit i stands for the i-th point in reverse name order, so among sets
    of one size the first in sorted-points order has the larger mask, and
    a mask's highest bit is its least point.  Maps keyed by a point are
    keyed by its single-bit mask; `rows` holds each point's I-neighbours
    as a mask on the other side, whose carrier and rows are `co_full`
    and `co_rows`.
    """

    __slots__ = ("sort", "bit", "name", "full", "rows", "co_full", "co_rows")

    def __init__(self, sort: Sort, points: frozenset[str]):
        self.sort = sort
        bits = [1 << i for i in range(len(points))]
        names = sorted(points, reverse=True)
        self.bit = dict(zip(names, bits))
        self.name = dict(zip(bits, names))
        self.full = (1 << len(points)) - 1
        self.rows = dict.fromkeys(bits, 0)
        self.co_full: int
        self.co_rows: dict[int, int]

    def order(self) -> list[int]:
        """Each point's bit, in name order."""
        return sorted(self.name, reverse=True)

    def mask(self, s: Iterable[str]) -> int:
        """The mask of a point set, which must lie in this side's carrier."""
        s = frozenset(s)
        try:
            return sum(map(self.bit.__getitem__, s))
        except KeyError:
            extra = sorted(s.difference(self.bit))
            raise SortError(f"points {extra} are not of sort {self.sort}") from None

    def points(self, m: int) -> frozenset[str]:
        name = self.name
        out = []
        while m:
            low = m & -m
            out.append(name[low])
            m ^= low
        return frozenset(out)

    def least(self, m: int) -> str:
        """The least point, by name, of a non-empty mask."""
        return self.name[1 << (m.bit_length() - 1)]

    def dia(self, m: int) -> int:
        """The I-neighbours, on the other side, of the points in m."""
        return _union(self.rows, m)

    def box(self, m: int) -> int:
        """The other side's points whose I-neighbours all lie in m."""
        return self.co_full & ~_union(self.rows, self.full & ~m)

    def polar(self, m: int) -> int:
        """The Galois map: the other side's points polar to all of m."""
        return self.co_full & ~_union(self.rows, m)

    def close(self, m: int) -> int:
        return self.full & ~_union(self.co_rows, self.polar(m))

    def closed_sets(self) -> list[frozenset[str]]:
        """The closed sets of this side, ordered by (size, sorted points).

        They are the carrier and every intersection of the Galois images of
        the other side's single points; each image is intersected once with
        every set found so far.
        """
        closed = {self.full}
        for row in set(self.co_rows.values()):
            gen = self.full & ~row
            closed |= {c & gen for c in closed}
        masks = sorted(closed, reverse=True)
        masks.sort(key=int.bit_count)
        return [self.points(m) for m in masks]



def _union(rows: dict[int, int], m: int) -> int:
    """The union of the rows of the points in m."""
    out = 0
    while m:
        low = m & -m
        out |= rows[low]
        m ^= low
    return out


class FiniteLattice:
    """A finite bounded lattice given by its order relation.

    Each element's downset and upset are indexed once; meets and joins are
    read off that index on demand, and construction verifies that every
    pair has them.  An order error names the least elements by repr.
    """

    def __init__(self, carrier: Iterable, leq: Iterable[tuple]):
        self.carrier = frozenset(carrier)
        self.leq_pairs = frozenset(leq)
        if not self.carrier:
            raise PreconditionError("lattice carrier must be non-empty")
        outside = [p for p in self.leq_pairs if not self.carrier.issuperset(p)]
        if outside:
            x, y = min(outside, key=repr)
            raise PreconditionError(f"leq pair ({x},{y}) outside carrier")
        down = {x: set() for x in self.carrier}
        up = {x: set() for x in self.carrier}
        for x, y in self.leq_pairs:
            down[y].add(x)
            up[x].add(y)
        self._down = {x: frozenset(s) for x, s in down.items()}
        self._up = {x: frozenset(s) for x, s in up.items()}
        elems = sorted(self.carrier, key=repr)
        self._validate_order(elems)
        for i, x in enumerate(elems):
            for y in elems[i + 1:]:
                if self.meet(x, y) is None or self.join(x, y) is None:
                    raise PreconditionError(f"no meet/join for {x},{y}: not a lattice")
        self.bottom = next(x for x in elems if self._up[x] == self.carrier)
        self.top = next(x for x in elems if self._down[x] == self.carrier)

    def _validate_order(self, elems):
        for x in elems:
            if x not in self._down[x]:
                raise PreconditionError(f"order not reflexive at {x}")
        for x in elems:
            twins = (self._up[x] & self._down[x]) - {x}
            if twins:
                y = min(twins, key=repr)
                raise PreconditionError(f"order not antisymmetric on {x},{y}")
        for x in elems:
            above = self._up[x]
            bad = [y for y in above if not self._up[y] <= above]
            if bad:
                y = min(bad, key=repr)
                z = min(self._up[y] - above, key=repr)
                raise PreconditionError(f"order not transitive on {x},{y},{z}")

    def leq(self, x, y) -> bool:
        return x in self._down[y]

    def meet(self, x, y):
        return _greatest(self._down[x] & self._down[y], self._down)

    def join(self, x, y):
        return _greatest(self._up[x] & self._up[y], self._up)

    def join_all(self, xs: Iterable):
        out = self.bottom
        for x in xs:
            out = self.join(out, x)
        return out

    def downset(self, x) -> frozenset:
        return self._down[x]

    def upset(self, x) -> frozenset:
        return self._up[x]

    # sorted views: sort d is the opposite order
    def sorted_join(self, sort: Sort, x, y):
        return self.join(x, y) if sort is Sort.ONE else self.meet(x, y)

    def sorted_bottom(self, sort: Sort):
        return self.bottom if sort is Sort.ONE else self.top

    def is_isomorphic_by(self, other: "FiniteLattice", mapping: Mapping) -> bool:
        """Check that `mapping` is an order bijection onto `other`."""
        values = set(mapping.values())
        if mapping.keys() != self.carrier or values != other.carrier \
                or len(values) != len(self.carrier):
            return False
        return all(
            self.leq(x, y) == other.leq(mapping[x], mapping[y])
            for x in self.carrier
            for y in self.carrier
        )


def _greatest(common: frozenset, index: dict):
    """The z in `common` whose downset (or upset) in `index` is `common`,
    or None.  Each such set lies inside `common`, so only the largest can."""
    z = max(common, key=lambda w: len(index[w]), default=None)
    return z if common and index[z] == common else None


@dataclass
class FiniteLatticeExpansion:
    """A finite lattice with normal operators tagged by distribution types.

    Operator tables map argument tuples (of lattice elements) to lattice
    elements.  Normality, including preservation of the empty join in
    every coordinate, is verified at construction.
    """

    lattice: FiniteLattice
    operators: dict[str, tuple[DistributionType, dict[tuple, object]]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        for name, (dist, table) in self.operators.items():
            self._check_normal(name, dist, table)

    def _check_normal(self, name, dist, table):
        lat = self.lattice
        elems = sorted(lat.carrier, key=repr)
        for args, value in sorted(table.items(), key=repr):
            if not isinstance(args, tuple) or len(args) != dist.arity \
                    or not lat.carrier.issuperset(args):
                raise NormalityError(
                    f"operator {name}: table entry {args} is not a tuple of "
                    f"{dist.arity} lattice elements", operator=name, witness=args)
            if value not in lat.carrier:
                raise NormalityError(
                    f"operator {name}: value {value!r} at {args} is not a lattice "
                    "element", operator=name, witness=args)
        for args in itertools.product(elems, repeat=dist.arity):
            if args not in table:
                raise NormalityError(
                    f"operator {name}: table missing entry {args}", operator=name
                )
        # one visit per context of coordinate j; a witness puts elems[0] there
        for j, s in enumerate(dist.inputs):
            zero = lat.sorted_bottom(s)
            for rest in itertools.product(elems, repeat=dist.arity - 1):
                def at(w):
                    return table[rest[:j] + (w,) + rest[j:]]

                # empty join of the j-th sorted coordinate
                if at(zero) != lat.sorted_bottom(dist.output):
                    raise NormalityError(
                        f"operator {name} does not preserve the sorted bottom "
                        f"in coordinate {j}",
                        operator=name, coordinate=j,
                        witness=rest[:j] + (zero,) + rest[j:],
                    )
                for x in elems:
                    for y in elems:
                        lhs = at(lat.sorted_join(s, x, y))
                        rhs = lat.sorted_join(dist.output, at(x), at(y))
                        if lhs != rhs:
                            raise NormalityError(
                                f"operator {name} fails join distribution "
                                f"in coordinate {j}",
                                operator=name, coordinate=j,
                                witness=(rest[:j] + (elems[0],) + rest[j:], x, y),
                            )


B_SUFFIX = "*"


def canonical_frame(exp: FiniteLatticeExpansion) -> SortedFrame:
    """Canonical frame of a finite lattice expansion.

    Both sorts are copies of the carrier (sort-d points carry a name
    suffix), the Galois relation is the lattice order, so the incidence
    relation is its complement.  Each operator phi contributes one
    relation: for output sort 1, u R w1..wn iff u <= phi(w),
    for output sort d, v S w1..wn iff phi(w) <= v.
    """
    lat = exp.lattice
    elems = sorted(lat.carrier, key=str)
    for x in elems:
        if not isinstance(x, str):
            raise PreconditionError("canonical_frame needs string-named elements")
    a_points = list(elems)
    b_points = [x + B_SUFFIX for x in elems]
    incidence = [
        (x, y + B_SUFFIX) for x in elems for y in elems if not lat.leq(x, y)
    ]
    relations = {}
    for name, (dist, table) in exp.operators.items():
        sorting = dist.sorting()

        def point(elem, sort):
            return elem if sort is Sort.ONE else elem + B_SUFFIX

        tuples = set()
        for args in itertools.product(elems, repeat=dist.arity):
            val = table[args]
            for u in elems:
                holds = lat.leq(u, val) if dist.output is Sort.ONE else lat.leq(val, u)
                if holds:
                    head = point(u, dist.output)
                    tuples.add(
                        (head,) + tuple(point(w, s) for w, s in zip(args, dist.inputs))
                    )
        relations[name] = SortedRelation(name, sorting, frozenset(tuples))
    return SortedFrame(a_points, b_points, incidence, relations)


def canonical_relation_oracle(exp: FiniteLatticeExpansion,
                              name: str) -> SortedRelation:
    """The canonical relation computed from the filter/ideal condition.

    Points of sort 1 stand for principal filters, points of sort d for
    principal ideals.  The relation condition quantifies over all members
    of the argument filters/ideals verbatim:
    u R w1..wn iff for all a1..an, (every aj in wj) implies phi(a) in u.
    Used as an independent cross-check of `canonical_frame`.
    """
    lat = exp.lattice
    dist, table = exp.operators[name]
    elems = sorted(lat.carrier, key=str)

    def members(gen, sort):
        # principal filter of the generator on sort 1, principal ideal on d
        return lat.upset(gen) if sort is Sort.ONE else lat.downset(gen)

    def point(elem, sort):
        return elem if sort is Sort.ONE else elem + B_SUFFIX

    tuples = set()
    for args in itertools.product(elems, repeat=dist.arity):
        arg_members = [members(w, s) for w, s in zip(args, dist.inputs)]
        for u in elems:
            target = members(u, dist.output)
            if all(
                table[a] in target
                for a in itertools.product(*arg_members)
            ):
                tuples.add(
                    (point(u, dist.output),)
                    + tuple(point(w, s) for w, s in zip(args, dist.inputs))
                )
    return SortedRelation(name, dist.sorting(), frozenset(tuples))


# ----------------------------------------------------------------------
# Random generation

def random_frame(size_a: int, size_b: int,
                 signature: Mapping[str, SortingType] | None = None,
                 density: float = 0.5, seed: int = 0) -> SortedFrame:
    """Deterministic random frame; well-sorted by construction."""
    if size_a < 1 or size_b < 1:
        raise PreconditionError("sort sizes must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise PreconditionError("density must lie in [0, 1]")
    rng = random.Random(seed)
    points_a = [f"a{i}" for i in range(size_a)]
    points_b = [f"b{i}" for i in range(size_b)]
    incidence = [
        (a, b) for a in points_a for b in points_b if rng.random() < density
    ]
    carrier = {Sort.ONE: points_a, Sort.DEL: points_b}
    relations = {}
    for name, sorting in (signature or {}).items():
        tuples = set()
        for head in carrier[sorting.output]:
            for args in itertools.product(*(carrier[s] for s in sorting.inputs)):
                if rng.random() < density:
                    tuples.add((head,) + args)
        relations[name] = SortedRelation(name, sorting, frozenset(tuples))
    return SortedFrame(points_a, points_b, incidence, relations)
