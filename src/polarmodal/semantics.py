"""Model checking for the three languages over finite frames.

Lattice formulas are interpreted as formal concepts (extent, intent),
modal formulas as arbitrary subsets of their sort's carrier, and FOL
formulas by Tarskian evaluation with sorted quantifier ranges.  Frame
validity enumerates all valuations of the variables in use, capped by a
configurable resource limit.

A single evaluation (`truth_set`, `sat_modal`) walks its formula once on
int masks, one bit per point, through the frame's kernels.  A valuation
search (`frame_valid_modal`, run by `transform.is_stable_modal` on
`[b]<d> alpha -> alpha`) is bit-sliced (`_Search`, known only here): it
walks its formula once per batch of up to `_BATCH` valuations, and a
node's value is one int per point with one bit per valuation of the
batch, so each connective is one map of ands and ors over the points
and each box or diamond one and or or over every point's I-neighbours.
Valuations are counted in binary, one bit of the count per point of
each variable, so a variable's column in a batch is a fixed periodic
mask or a constant per point (`_periodic`), not an enumeration.  Both
are loops over `syntax._listing`, with no depth limit below memory, and
evaluate a shared subformula once.  Both read a named diamond's relation
through the frame's one relation index (`_BitIndex.heads`), which reads
the relation's tuples on first use and keeps their heads by argument
tuple; that is all either keeps on the frame.  Both key a variable by
(sort, index), as `ModalModel.valuation` does.

A FOL formula is compiled once, for any model (`_Fol`): its closures
read variables and model data from slots of an environment list, which
one bind per model fills.  `eval_fol` keeps the last formula object it
compiled, so evaluating one formula at every point compiles it once;
`transform.is_stable_fol` compiles once per call.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache, reduce
from operator import and_, attrgetter, itemgetter, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CapExceeded, PolarModalError, PreconditionError, SortError
from .frames import Concept, Sort, SortedFrame
from .syntax import (
    FAnd, FEq, FExists, FForall, FImp, FInc, FNot, FOr, FPred, FRelApp, FVar,
    FolFormula, LApp, LAnd, LBot, LOr, LTop, LVar, LatticeFormula, MAnd, MApp,
    MBbox, MBdia, MDbox, MDdia, MImp, MNot, MOr, MVar, ModalFormula,
    _atom_vars, _listing, _rebuild, _with_vars, modal_var_key, modal_vars,
    parse_modal,
)

# read by `resource_cap`, which rejects a setting that is not a positive integer
DEFAULT_CAP = os.environ.get("POLARMODAL_CAP", 2 ** 20)


class LatticeModel:
    """A frame with a Galois-stable valuation of the p-variables.

    Instances are immutable after construction: the valuation's masks
    are computed once, here.
    """

    def __init__(self, frame: SortedFrame, valuation: Mapping[int, Iterable[str]],
                 close: bool = False):
        self.frame = frame
        self.valuation = {}
        self._masks = {}
        for i, s in valuation.items():
            s = frozenset(s)
            if not s <= frame.points_a:
                raise SortError(f"valuation of p{i} is not a subset of A")
            if not frame.is_stable(Sort.ONE, s):
                if not close:
                    raise PreconditionError(
                        f"valuation of p{i} is not Galois-stable "
                        "(pass close=True to close it)"
                    )
                s = frame.closure(Sort.ONE, s)
            self.valuation[i] = s
            self._masks[i] = frame._index.a.mask(s)


class ModalModel:
    """A frame with an unrestricted sorted valuation of P/Q variables.

    Instances are immutable after construction: `bisim` keeps the
    refinement of the last model pair keyed by model identity, and the
    valuation's masks are computed once, here.  Evaluation is one loop
    over the formula's listing on those masks through the frame's
    kernels, at any depth of nesting, and keeps no table of their results.
    """

    def __init__(self, frame: SortedFrame,
                 valuation: Mapping[tuple[Sort, int], Iterable[str]]):
        self.frame = frame
        self.valuation = {}
        # each variable's mask, keyed as `_truth` reads it
        self._masks = {}
        for (sort, i), s in valuation.items():
            s = frozenset(s)
            if not s <= frame.carrier(sort):
                raise SortError(
                    f"valuation of {MVar(sort, i).name} ill-sorted for {sort}")
            self.valuation[(sort, i)] = s
            self._masks[(sort, i)] = frame._index.side(sort).mask(s)

    def var(self, sort: Sort, i: int) -> frozenset[str]:
        return self.valuation.get((sort, i), frozenset())


# ----------------------------------------------------------------------
# Lattice language

def lattice_extent(model: LatticeModel, phi: LatticeFormula) -> Concept:
    """Interpret phi as a formal concept; intent is always extent's image."""
    a = model.frame._index.a
    ext = _extent(model.frame, model._masks, phi)
    return Concept(a.points(ext), model.frame._index.b.points(a.polar(ext)))


def _extent(frame: SortedFrame, masks: Mapping[int, int],
            phi: LatticeFormula) -> int:
    """The extent mask of phi; its intent is the extent's Galois image.
    Operator arguments are concept extents or intents, so closed:
    `closed_op` would find nothing to reject."""
    index = frame._index
    a, b = index.a, index.b
    if isinstance(phi, LVar):
        ext = masks.get(phi.index)
        if ext is None:
            raise PreconditionError(f"p{phi.index} has no valuation")
        return ext
    if isinstance(phi, LTop):
        return a.full
    if isinstance(phi, LBot):
        return b.polar(b.full)
    if isinstance(phi, LAnd):
        return _extent(frame, masks, phi.left) & _extent(frame, masks, phi.right)
    if isinstance(phi, LOr):
        return b.polar(a.polar(_extent(frame, masks, phi.left))
                       & a.polar(_extent(frame, masks, phi.right)))
    if isinstance(phi, LApp):
        rel = frame.relation(phi.name)
        if len(phi.args) != rel.sorting.arity:
            raise SortError(f"{phi.name} arity mismatch with frame relation")
        parts = []
        for arg, s in zip(phi.args, rel.sorting.inputs):
            ext = _extent(frame, masks, arg)
            parts.append(ext if s is Sort.ONE else a.polar(ext))
        out = index.side(rel.sorting.output)
        closed = out.close(index.image(rel, parts))
        return closed if out is a else b.polar(closed)
    raise SortError(f"unknown lattice node {phi!r}")


def sat_lattice(model: LatticeModel, point: str, phi: LatticeFormula) -> bool:
    concept = lattice_extent(model, phi)
    sort = model.frame.sort_of(point)
    return point in (concept.extent if sort is Sort.ONE else concept.intent)


def lattice_consequence(model: LatticeModel, phi: LatticeFormula,
                        psi: LatticeFormula) -> bool:
    """Model-level consequence: extent inclusion."""
    return lattice_extent(model, phi).extent <= lattice_extent(model, psi).extent


# ----------------------------------------------------------------------
# Sorted modal language

def truth_set(model: ModalModel, theta: ModalFormula) -> frozenset[str]:
    """All points of theta's sort where theta holds."""
    side = model.frame._index.side(theta.sort)
    return side.points(_truth(model.frame, model._masks, theta))


def _truth(frame: SortedFrame, masks: Mapping[tuple[Sort, int], int],
           theta: ModalFormula) -> int:
    """The mask of `truth_set` under one valuation: one loop over
    `_listing(theta)` that writes one mask per slot.

    `masks` holds each variable's mask, keyed by (sort, index); a
    variable it lacks is false everywhere.
    """
    index = frame._index
    a, b = index.a, index.b
    got = []
    put = got.append
    for x, at in _listing(theta):
        t = type(x)
        if t is MVar:
            put(masks.get((x.sort, x.index), 0))
        elif t is MAnd:
            put(got[at[0]] & got[at[1]])
        elif t is MOr:
            put(got[at[0]] | got[at[1]])
        elif t is MImp:
            # masks lie inside the carrier, so xor with it is complement
            put((index.side(x.sort).full ^ got[at[0]]) | got[at[1]])
        elif t is MNot:
            put(index.side(x.sort).full ^ got[at[0]])
        elif t is MBbox:
            put(b.box(got[at[0]]))
        elif t is MDbox:
            put(a.box(got[at[0]]))
        elif t is MBdia:
            put(b.dia(got[at[0]]))
        elif t is MDdia:
            put(a.dia(got[at[0]]))
        elif t is MApp:
            put(index.image(_diamond_relation(frame, x), [got[j] for j in at]))
        else:  # MConst: `_listing` lists no other node
            put(index.side(x.sort).full if x.truth else 0)
    return got[-1]


def _diamond_relation(frame: SortedFrame, theta: MApp):
    """The frame relation of a named diamond, whose sorting it must match."""
    rel = frame.relation(theta.name)
    if rel.sorting.output is not theta.sort or \
            tuple(rel.sorting.inputs) != tuple(a.sort for a in theta.args):
        raise SortError(
            f"diamond {theta.name} does not match the frame relation sorting"
        )
    return rel


def sat_modal(model: ModalModel, point: str, theta: ModalFormula) -> bool:
    frame = model.frame
    if frame.sort_of(point) is not theta.sort:
        raise SortError(f"point {point} has the wrong sort for this formula")
    side = frame._index.side(theta.sort)
    return bool(side.bit[point] & _truth(frame, model._masks, theta))


def resource_cap() -> int:
    """The bound on valuations and quantifier instances: POLARMODAL_CAP,
    which must be a positive integer, or 2**20 when it is unset."""
    try:
        cap = int(DEFAULT_CAP)
    except ValueError:
        cap = 0
    if cap < 1:
        raise PolarModalError(
            f"POLARMODAL_CAP must be a positive integer, not {DEFAULT_CAP!r}")
    return cap


# the most valuations one walk evaluates; a power of two, so batches align
_BATCH = 16384


@lru_cache(maxsize=None)
def _periodic(l: int) -> tuple[int, ...]:
    """The columns of index bits 0 .. l-1 over a batch of 2**l valuations:
    bit i of entry g is set iff bit g of i is, so entry g repeats 2**g
    zeros then 2**g ones.  Kept: at most 15 tuples, about 60 KB."""
    ones = (1 << (1 << l)) - 1
    return tuple(ones // ((1 << (1 << g)) + 1) << (1 << g) for g in range(l))


class _Search:
    """The valuations of a frame's variables, searched bit-sliced.

    Valuations are counted in binary: valuation k gives each variable, in
    key order, the points of bits shift .. shift + n - 1 of k, n the size
    of its side and shift the points of the variables after it.  A batch
    is `min(_BATCH, total)` consecutive valuations, a power of two
    starting at a multiple of itself, and a node's value under it is a
    list with one int per point of the node's sort, in bit order, whose
    bit i is set iff the point satisfies the node under the batch's i-th
    valuation.  So a batch costs one loop over the formula's listing: each
    connective is one C-level map over the points, and each box, diamond
    or named diamond one and or or per I-neighbour, or per argument tuple
    of the frame's relation index (`_BitIndex.heads`).

    The number of valuations is checked against the cap before anything
    else.  Built for one search and dropped with it, it keeps nothing on
    the frame but the heads of the relations it reads, which the index
    keeps for every evaluator.
    """

    def __init__(self, frame: SortedFrame, vars_in_use):
        keys = sorted(vars_in_use, key=modal_var_key)
        index = frame._index
        sides = [index.side(sort) for sort, _ in keys]
        sizes = [len(side.bit) for side in sides]
        self.total = 1 << sum(sizes)
        cap = resource_cap()
        if self.total > cap:
            raise CapExceeded(f"{self.total} valuations exceed cap {cap}")
        self.frame, self.index = frame, index
        shifts = [sum(sizes[i + 1:]) for i in range(len(sizes))]
        # per variable: key, side, size and shift
        self.layout = list(zip(keys, sides, sizes, shifts))
        a, b = index.a, index.b
        # each point's I-neighbours, as positions on the other side
        self.near_a = [_positions(a.rows[1 << j]) for j in range(len(a.bit))]
        self.near_b = [_positions(b.rows[1 << j]) for j in range(len(b.bit))]

    def batches(self):
        """Each batch as (start, ones, columns): `ones` has one bit per
        valuation, and `columns` maps each variable, keyed as `_truth`'s
        masks, to its value.  Index bit g of the batch's i-th valuation is
        bit g of i below the batch length 2**l, and bit g of start above."""
        l = min(_BATCH, self.total).bit_length() - 1
        ones, periodic = (1 << (1 << l)) - 1, _periodic(l)
        for start in range(0, self.total, 1 << l):
            columns = {key: [periodic[g] if g < l else ones if start >> g & 1 else 0
                             for g in range(shift, shift + n)]
                       for key, _, n, shift in self.layout}
            yield start, ones, columns

    def valuation(self, k: int) -> dict:
        """Valuation k, as point sets by variable."""
        return {key: side.points(k >> shift & side.full)
                for key, side, _, shift in self.layout}

    def walk(self, theta: ModalFormula, columns: Mapping, ones: int) -> list[int]:
        """theta's value under the batch of `columns` and `ones`, as
        `batches` gives them: one loop over `_listing(theta)` that writes
        one value per slot.  A variable of theta that the search lacks
        raises PreconditionError naming the least such variable."""
        index, near_a, near_b = self.index, self.near_a, self.near_b
        got = []
        put = got.append
        for x, at in _listing(theta):
            t = type(x)
            if t is MVar:
                column = columns.get((x.sort, x.index))
                if column is None:
                    lacked = modal_vars(theta).difference(key for key, *_ in self.layout)
                    least = MVar(*min(lacked, key=modal_var_key))
                    raise PreconditionError(
                        f"{least.name} is not among the variables in use")
                put(column)
            elif t is MAnd:
                put(list(map(and_, got[at[0]], got[at[1]])))
            elif t is MOr:
                put(list(map(or_, got[at[0]], got[at[1]])))
            elif t is MImp:
                put(list(map(or_, map(ones.__xor__, got[at[0]]), got[at[1]])))
            elif t is MNot:
                put(list(map(ones.__xor__, got[at[0]])))
            elif t is MBbox:
                put(_meets(got[at[0]], near_a, ones))
            elif t is MDbox:
                put(_meets(got[at[0]], near_b, ones))
            elif t is MBdia:
                put(_joins(got[at[0]], near_a))
            elif t is MDdia:
                put(_joins(got[at[0]], near_b))
            elif t is MApp:
                # into each head of an argument tuple, the AND of the
                # arguments' values at the tuple's points; an argument's
                # field of the packed tuple has one bit per point of its sort
                offsets, heads = index.heads(_diamond_relation(self.frame, x))
                places = [(got[j], offset, (1 << len(got[j])) - 1)
                          for j, offset in zip(at, offsets)]
                value = [0] * len(index.side(x.sort).bit)
                for key, hs in heads.items():
                    w = ones
                    for arg, offset, full in places:
                        w &= arg[(key >> offset & full).bit_length() - 1]
                    while hs:  # one step per head, not per bit of the side
                        low = hs & -hs
                        value[low.bit_length() - 1] |= w
                        hs ^= low
                put(value)
            else:  # MConst: `_listing` lists no other node
                put([ones if x.truth else 0] * len(index.side(x.sort).bit))
        return got[-1]


def _meets(values: list[int], groups: list[list[int]], ones: int) -> list[int]:
    """For each group of positions, the AND of the values there."""
    out = []
    for group in groups:
        v = ones
        for j in group:
            v &= values[j]
        out.append(v)
    return out


def _joins(values: list[int], groups: list[list[int]]) -> list[int]:
    """For each group of positions, the OR of the values there."""
    out = []
    for group in groups:
        v = 0
        for j in group:
            v |= values[j]
        out.append(v)
    return out


def _positions(m: int) -> list[int]:
    """The positions of the bits set in m."""
    return [j for j in range(m.bit_length()) if m >> j & 1]


def frame_valid_modal(frame: SortedFrame, theta: ModalFormula, vars_in_use):
    """Validity on one frame: theta holds at all points under all valuations.

    Returns (True, None) or (False, (valuation, point)) for the first
    valuation, in `_Search`'s binary-counting order, that misses a point,
    and the least point, by name, that it misses.  A variable of theta
    missing from vars_in_use raises PreconditionError.
    """
    side = frame._index.side(theta.sort)
    search = _Search(frame, vars_in_use)
    for start, ones, columns in search.batches():
        truths = search.walk(theta, columns, ones)
        fail = ones & ~reduce(and_, truths, ones)
        if fail:
            k = (fail & -fail).bit_length() - 1
            missed = sum(1 << j for j, t in enumerate(truths) if not t >> k & 1)
            return False, (search.valuation(start + k), side.least(missed))
    return True, None


# ----------------------------------------------------------------------
# Sorted first-order language

def eval_fol(frame: SortedFrame, predval: Mapping[str, Iterable[str]],
             assignment: Mapping[str, str], phi: FolFormula) -> bool:
    """Tarskian evaluation; quantifiers of sort None range over A | B.

    `predval` interprets the unary predicates P_i / Q_i; the guards U1/Ud
    default to the carriers when not given.  A free variable of sort None
    may take any point of A | B.  Every point a quantifier tries counts
    against the cap; passing it raises CapExceeded.  The last formula
    object evaluated stays compiled, so evaluating one formula at every
    point compiles it once.
    """
    global _last_fol
    last, fol = _last_fol
    if last is not phi:
        fol = _compile_fol(phi)
        _last_fol = (phi, fol)
    # by name, so an error names the least offending variable
    free = sorted(fol.free, key=attrgetter("name"))
    for var in free:
        if var.name not in assignment:
            raise PreconditionError(f"free variable {var.name} is unassigned")
    budget = _instance_budget()
    for var in free:
        point = assignment[var.name]
        if var.sort is None:
            if point not in frame.points_a and point not in frame.points_b:
                raise SortError(
                    f"assignment of {var.name} is not a point of the frame")
        elif point not in frame.carrier(var.sort):
            raise SortError(f"assignment of {var.name} has the wrong sort")
    env = fol.bind(frame, predval, budget)
    for name, slot in fol.slots.items():
        env[slot] = assignment[name]
    return fol.root(env)


def _instance_budget() -> tuple[int, Iterator[bool]]:
    """One budget of quantifier instances: the cap, and an iterator that
    yields True once per instance the cap allows and then runs dry.  Every
    environment bound to one budget draws on it."""
    cap = resource_cap()
    return cap, itertools.repeat(True, cap)


# the slots that start every environment: the budget's iterator, and the
# text CapExceeded carries when it runs dry
_TICKS, _CAP = 0, 1


class _Fol:
    """A FOL formula compiled once, for any model.

    `root` maps an environment, a list of slots, to the formula's truth.
    After `_TICKS` and `_CAP`, each variable has a slot, a binder its own
    even when it shadows another, and so has each piece of model data the
    formula reads: the domain of each quantified sort, each predicate's
    points, the incidence and each relation's tuples, keyed by name and
    the sorts of an atom's variables.  `bind` makes an environment with a
    model's data in place; the caller then fills the free variables'
    slots, `slots` by name.  Nothing here refers to a model or changes
    when the formula is evaluated.
    """

    __slots__ = ("root", "free", "slots", "size", "domains", "preds",
                 "relations", "incidence")

    def __init__(self, phi: FolFormula):
        self.free: set[FVar] = set()
        self.slots: dict[str, int] = {}
        self.size = 2
        self.domains: dict[Sort | None, int] = {}
        self.preds: dict[str, int] = {}
        self.relations: dict[tuple[str, tuple], int] = {}
        self.incidence: int | None = None
        self.root = self._node(phi, {})
        self.free = frozenset(self.free)

    def _new(self) -> int:
        self.size += 1
        return self.size - 1

    def _slot(self, table: dict, key) -> int:
        """The slot of `key` in one of the tables, new on first use."""
        slot = table.get(key)
        if slot is None:
            slot = table[key] = self._new()
        return slot

    def _var(self, v: FVar, scope: dict) -> int:
        """The slot an occurrence of v reads.  `scope` maps a bound name to
        its binder's slot and sort.  Slots go by name, so a binder captures
        every occurrence of its name below it; v is free, as
        `fol_free_vars` has it, unless the binder has v's sort too."""
        bound = scope.get(v.name)
        if bound is not None and bound[1] is v.sort:
            return bound[0]
        self.free.add(v)
        slot = self._slot(self.slots, v.name)
        return slot if bound is None else bound[0]

    def _node(self, x: FolFormula, scope: dict) -> Callable[[list], bool]:
        if isinstance(x, FNot):
            arg = self._node(x.arg, scope)
            return lambda env: not arg(env)
        if isinstance(x, (FAnd, FOr, FImp)):
            left, right = self._node(x.left, scope), self._node(x.right, scope)
            if isinstance(x, FAnd):
                return lambda env: left(env) and right(env)
            if isinstance(x, FOr):
                return lambda env: left(env) or right(env)
            return lambda env: not left(env) or right(env)
        if isinstance(x, (FForall, FExists)):
            k = self._new()
            body = self._node(x.body, {**scope, x.var.name: (k, x.var.sort)})
            d = self._slot(self.domains, x.var.sort)
            # the body value that settles the quantifier early
            stop = isinstance(x, FExists)

            def quantify(env):
                ticks = env[_TICKS]
                for p in env[d]:
                    if not next(ticks, False):
                        raise CapExceeded(env[_CAP])
                    env[k] = p
                    if body(env) is stop:
                        return stop
                return not stop
            return quantify
        vs = _atom_vars(x)
        if vs is None:
            raise SortError(f"unknown FOL node {x!r}")
        if isinstance(x, FRelApp):
            row = itemgetter(*[self._var(v, scope) for v in vs])
            s = self._slot(self.relations, (x.name, tuple(v.sort for v in vs)))
            return lambda env: row(env) in env[s]
        if isinstance(x, FPred):
            i, s = self._var(vs[0], scope), self._slot(self.preds, x.name)
            return lambda env: env[i] in env[s]
        i, j = self._var(vs[0], scope), self._var(vs[1], scope)
        if isinstance(x, FEq):
            return lambda env: env[i] == env[j]
        if self.incidence is None:
            self.incidence = self._new()
        s = self.incidence
        return lambda env: (env[i], env[j]) in env[s]

    def bind(self, frame: SortedFrame, predval: Mapping[str, Iterable[str]],
             budget: tuple[int, Iterator[bool]]) -> list:
        """A fresh environment for evaluating on the model (frame, predval)
        against `budget`.  A name the model does not interpret, or a
        relation atom whose arity or sorted variables do not fit the frame
        relation, gets an `_Uninterpreted`, so it raises only when
        evaluation reaches it."""
        cap, ticks = budget
        env = [None] * self.size
        env[_TICKS] = ticks
        env[_CAP] = f"quantifier instances exceed cap {cap}"
        a, b = frame.points_a, frame.points_b
        for sort, slot in self.domains.items():
            env[slot] = sorted(a | b if sort is None else frame.carrier(sort))
        guards = {"U1": a, "Ud": b}
        for name, slot in self.preds.items():
            if name in predval:
                env[slot] = frozenset(predval[name])
            elif name in guards:
                env[slot] = guards[name]
            else:
                env[slot] = _Uninterpreted(
                    (name, True), PreconditionError,
                    f"predicate {name} has no interpretation")
        if self.incidence is not None:
            env[self.incidence] = frame.incidence
        for (name, sorts), slot in self.relations.items():
            try:
                rel = frame.relation(name)
            except PreconditionError as exc:
                env[slot] = _Uninterpreted((name, False), PreconditionError, str(exc))
                continue
            want = (rel.sorting.output, *rel.sorting.inputs)
            if len(sorts) == len(want) and all(
                    s is None or s is w for s, w in zip(sorts, want)):
                env[slot] = rel.tuples
            else:
                env[slot] = _Uninterpreted((name, False), SortError, f"atom {name} "
                                           "does not match the frame relation sorting")
        return env

    def bind_family(self, models: Sequence[tuple[SortedFrame, Mapping]],
                    budget: tuple[int, Iterator[bool]]) -> list[list]:
        """One environment per model (frame, predval), all against
        `budget`.  The least name that some model leaves uninterpreted,
        by (name, is a predicate), raises here, before any evaluation."""
        envs = [self.bind(frame, predval, budget) for frame, predval in models]
        missing = {x.key: x for env in envs for x in env
                   if isinstance(x, _Uninterpreted)}
        if missing:
            first = missing[min(missing)]
            raise first.error(first.message)
        return envs


class _Uninterpreted:
    """What a predicate or relation name binds to on a model that does not
    interpret it, or not at the atom's sorting: a membership test raises
    the `error` that evaluation gives for that name."""

    __slots__ = ("key", "error", "message")

    def __init__(self, key: tuple[str, bool], error: type, message: str):
        self.key, self.error, self.message = key, error, message

    def __contains__(self, point) -> bool:
        raise self.error(self.message)


def _compile_fol(phi: FolFormula) -> _Fol:
    """phi compiled in one walk, which also collects its free variables."""
    return _Fol(phi)


# the formula `eval_fol` evaluated last and its compilation, rebound as
# one tuple; the formula is held, so its identity cannot be reused
_last_fol: tuple[FolFormula | None, _Fol | None] = (None, None)


def sort_reduce(phi: FolFormula) -> FolFormula:
    """Relativise sorted quantifiers with the guards U1/Ud.

    Variables lose their sort tags; the two equalities merge into one.
    """

    def strip(v: FVar) -> FVar:
        return FVar(v.name, None)

    joins = {FForall: FImp, FExists: FAnd}  # what joins a guard to its body

    def go(x):
        vs = _atom_vars(x)
        if vs is not None:
            return _with_vars(x, map(strip, vs))
        join = joins.get(type(x))
        if join is None:
            return _rebuild(x, go)
        var = strip(x.var)
        guard = FPred("U1" if x.var.sort is Sort.ONE else "Ud", var)
        return type(x)(var, join(guard, go(x.body)))

    return go(phi)


def sorting_constraint_sentences(frame: SortedFrame) -> list[FolFormula]:
    """Unsorted sentences every sort-reduced structure validates.

    One guard sentence per relation (including I), plus the sentence
    forcing equal elements to lie in the same sort.
    """
    sentences = []
    u = FVar("x1", None)
    v = FVar("x2", None)
    sentences.append(
        FForall(u, FForall(v, FImp(
            FInc(u, v), FAnd(FPred("U1", u), FPred("Ud", v))
        )))
    )
    for name, rel in sorted(frame.relations.items()):
        head = FVar("x0", None)
        args = [FVar(f"x{j+1}", None) for j in range(rel.sorting.arity)]
        guards = FPred("U1" if rel.sorting.output is Sort.ONE else "Ud", head)
        for a, s in zip(args, rel.sorting.inputs):
            guards = FAnd(guards, FPred("U1" if s is Sort.ONE else "Ud", a))
        body = FImp(FRelApp(name, head, tuple(args)), guards)
        phi = body
        for var in reversed([head] + args):
            phi = FForall(var, phi)
        sentences.append(phi)
    same_sort = FImp(
        FEq(u, v),
        FOr(FAnd(FPred("U1", u), FPred("U1", v)),
            FAnd(FPred("Ud", u), FPred("Ud", v))),
    )
    sentences.append(FForall(u, FForall(v, same_sort)))
    return sentences


# ----------------------------------------------------------------------
# Axiom schemata of the minimal sorted systems

def _schemata(*rows) -> list[tuple[str, ModalFormula, list]]:
    """Each (name, text) row parsed, with its variables in key order."""
    parsed = [(name, parse_modal(text)) for name, text in rows]
    return [(name, theta, sorted(modal_vars(theta), key=modal_var_key))
            for name, theta in parsed]


_K = _schemata(("K-sort1", "[b] (Q0 -> Q1) -> [b] Q0 -> [b] Q1"),
               ("K-sortd", "[d] (P0 -> P1) -> [d] P0 -> [d] P1"))
_B = _schemata(("B-sort1", "P0 -> [b] <d> P0"), ("B-sortd", "Q0 -> [d] <b> Q0"))
_D = _schemata(("D-sort1", "[b] Q0 -> <b> Q0"), ("D-sortd", "[d] P0 -> <d> P0"))


def k_axioms() -> list[tuple[str, ModalFormula, list]]:
    return [(name, theta, list(vs)) for name, theta, vs in _K]


def b_axioms() -> list[tuple[str, ModalFormula, list]]:
    return [(name, theta, list(vs)) for name, theta, vs in _B]


def d_axioms() -> list[tuple[str, ModalFormula, list]]:
    return [(name, theta, list(vs)) for name, theta, vs in _D]
