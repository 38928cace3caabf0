"""Two-sorted polarity frames and their Galois machinery.

A frame carries two disjoint point sets A (sort 1) and B (sort d), an
incidence relation I between them, and finitely many sorted relations.
The Galois connection is generated by the complement of I; stable sets,
formal concepts, relation-induced operators and canonical frames of
finite lattice expansions are all computed here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
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
        # every check reports the least bad pair or tuple; only then sorts
        bad = [p for p in self.incidence
               if p[0] not in self.points_a or p[1] not in self.points_b]
        if bad:
            a, b = min(bad)
            raise SortError(f"incidence pair ({a},{b}) is not in A x B")
        for name, rel in self.relations.items():
            if rel.name != name:
                raise SortError(f"relation {name} registered under wrong key")
            self._check_relation(rel)
        # successor/predecessor maps for I, used constantly
        self._succ = {a: frozenset(b for x, b in self.incidence if x == a)
                      for a in self.points_a}
        self._pred = {b: frozenset(a for a, y in self.incidence if y == b)
                      for b in self.points_b}

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

    def galois_right(self, u: Iterable[str]) -> frozenset[str]:
        """U |-> {b | a polar b for all a in U}."""
        u = self._check_subset(u, Sort.ONE)
        return self.points_b.difference(*(self._succ[a] for a in u))

    def galois_left(self, v: Iterable[str]) -> frozenset[str]:
        """V |-> {a | a polar b for all b in V}."""
        v = self._check_subset(v, Sort.DEL)
        return self.points_a.difference(*(self._pred[b] for b in v))

    def closure(self, sort: Sort, s: Iterable[str]) -> frozenset[str]:
        """Galois closure on the given sort."""
        if sort is Sort.ONE:
            return self.galois_left(self.galois_right(s))
        return self.galois_right(self.galois_left(s))

    def is_stable(self, sort: Sort, s: Iterable[str]) -> bool:
        s = frozenset(s)
        return self.closure(sort, s) == s

    def _check_subset(self, s: Iterable[str], sort: Sort) -> frozenset[str]:
        s = frozenset(s)
        extra = s - self.carrier(sort)
        if extra:
            raise SortError(f"points {sorted(extra)} are not of sort {sort}")
        return s

    # ------------------------------------------------------------------
    # Residuated operators generated by I

    def dia_ab(self, u: Iterable[str]) -> frozenset[str]:
        """{b | some a in U with aIb}; left half of the residuated pair."""
        u = self._check_subset(u, Sort.ONE)
        return frozenset(b for b in self.points_b if self._pred[b] & u)

    def box_ba(self, v: Iterable[str]) -> frozenset[str]:
        """{a | every I-successor of a lies in V}; right half of the pair."""
        v = self._check_subset(v, Sort.DEL)
        return frozenset(a for a in self.points_a if self._succ[a] <= v)

    def box_ab(self, u: Iterable[str]) -> frozenset[str]:
        """Complement-conjugate of dia_ab: {b | every I-predecessor is in U}."""
        u = self._check_subset(u, Sort.ONE)
        return frozenset(b for b in self.points_b if self._pred[b] <= u)

    def dia_ba(self, v: Iterable[str]) -> frozenset[str]:
        """Complement-conjugate of box_ba: {a | some I-successor is in V}."""
        v = self._check_subset(v, Sort.DEL)
        return frozenset(a for a in self.points_a if self._succ[a] & v)

    def check_seriality(self) -> bool:
        return all(self._succ[a] for a in self.points_a) and all(
            self._pred[b] for b in self.points_b
        )

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
        for sort, near in ((Sort.ONE, self._succ), (Sort.DEL, self._pred)):
            own = [rel for _, rel in sorted(self.relations.items())
                   if rel.sorting.output is sort]
            for p, nbrs in near.items():
                rows[p] = [(None, (sort.opposite,), sorted((q,) for q in nbrs))]
                rows[p] += [(rel.name, rel.sorting.inputs,
                             sorted(args.get((rel.name, p), ()))) for rel in own]
        return rows

    def image_op(self, name: str, args: Sequence[Iterable[str]]) -> frozenset[str]:
        """Existential image operator of the named relation."""
        rel = self.relation(name)
        if len(args) != rel.sorting.arity:
            raise SortError(f"relation {name} expects {rel.sorting.arity} arguments")
        sets = [self._check_subset(w, s) for w, s in zip(args, rel.sorting.inputs)]
        out = set()
        for tup in rel.tuples:
            if all(w in ws for w, ws in zip(tup[1:], sets)):
                out.add(tup[0])
        return frozenset(out)

    def _arg_tuples(self, sorting: SortingType):
        return itertools.product(*(sorted(self.carrier(s)) for s in sorting.inputs))

    def is_section_stable(self, name: str):
        """Check that every section of the Galois dual relation is closed.

        Returns (True, None) or (False, (position, fixed_tuple)); position 0
        is the head place of the dual relation.
        """
        rel = self.relation(name)
        dual_sort = rel.sorting.output.opposite
        galois = self.galois_right if dual_sort is Sort.DEL else self.galois_left
        heads = {}
        for t in rel.tuples:
            heads.setdefault(t[1:], []).append(t[0])
        dual = {args: galois(heads.get(args, ()))
                for args in self._arg_tuples(rel.sorting)}
        # head sections are Galois images, closed by construction; checked anyway
        for args, sec in dual.items():
            if not self.is_stable(dual_sort, sec):
                return False, (0, tuple(args))
        for j, s in enumerate(rel.sorting.inputs):
            others = [sorted(self.carrier(t)) for i, t in enumerate(rel.sorting.inputs)
                      if i != j]
            for head in sorted(self.carrier(dual_sort)):
                for rest in itertools.product(*others):
                    sec = frozenset(
                        w for w in self.carrier(s)
                        if head in dual[rest[:j] + (w,) + rest[j:]]
                    )
                    if not self.is_stable(s, sec):
                        fixed = (head,) + rest[:j] + ("_",) + rest[j:]
                        return False, (j + 1, fixed)
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
        sets = []
        for j, (w, s) in enumerate(zip(args, rel.sorting.inputs)):
            w = self._check_subset(w, s)
            if not self.is_stable(s, w):
                kind = "stable" if s is Sort.ONE else "co-stable"
                raise PreconditionError(f"argument {j} of {name} must be a {kind} set")
            sets.append(w)
        return self.closure(rel.sorting.output, self.image_op(name, sets))

    # ------------------------------------------------------------------
    # Concepts

    def stable_sets(self) -> list[frozenset[str]]:
        """All Galois-stable subsets of A, ordered by (size, sorted points).

        Every stable set is an intersection of single-attribute extents,
        so the closure system is generated by those plus A itself.
        """
        return _intersection_closure(
            {self.galois_left({b}) for b in self.points_b}, self.points_a)

    def costable_sets(self) -> list[frozenset[str]]:
        """All co-stable subsets of B, dually to `stable_sets`."""
        return _intersection_closure(
            {self.galois_right({a}) for a in self.points_a}, self.points_b)

    def all_concepts(self) -> "FiniteLattice":
        """The concept lattice, ordered by extent inclusion."""
        concepts = [Concept(c, self.galois_right(c)) for c in self.stable_sets()]
        return FiniteLattice(concepts, ((x, y) for x in concepts for y in concepts
                                        if x.extent <= y.extent))


def _intersection_closure(gens: set[frozenset[str]],
                          top: frozenset[str]) -> list[frozenset[str]]:
    """`top` and every intersection of members of `gens`, by (size, sorted)."""
    gens = gens | {top}
    closed = set(gens)
    frontier = gens
    while frontier:
        frontier = {x & y for x in frontier for y in gens} - closed
        closed |= frontier
    return sorted(closed, key=lambda s: (len(s), sorted(s)))


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

    def apply(self, name: str, args: tuple):
        dist, table = self.operators[name]
        return table[tuple(args)]


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
