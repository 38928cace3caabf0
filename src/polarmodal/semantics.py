"""Model checking for the three languages over finite frames.

Lattice formulas are interpreted as formal concepts (extent, intent),
modal formulas as arbitrary subsets of their sort's carrier, and FOL
formulas by Tarskian evaluation with sorted quantifier ranges.  Frame
validity enumerates all valuations of the variables in use, capped by a
configurable resource limit.

A valuation search walks its formula once per batch of valuations.  At
a box, diamond or named diamond the walk computes the frame kernel once
per distinct argument in that node's column of masks (`_each`): the
table that shares the results lives only for that one call, so it never
outgrows the batch and nothing is stored on the frame.  A column without
repeats, which includes every single evaluation (`truth_set`,
`sat_modal`, a batch of one), maps the kernel directly.
"""

from __future__ import annotations

import itertools
import os
from functools import partial
from operator import and_, itemgetter, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CapExceeded, PolarModalError, PreconditionError, SortError
from .frames import Concept, Sort, SortedFrame
from .syntax import (
    FAnd, FEq, FExists, FForall, FImp, FInc, FNot, FOr, FPred, FRelApp, FVar,
    FolFormula, LApp, LAnd, LBot, LOr, LTop, LVar, LatticeFormula, MAnd, MApp,
    MBbox, MBdia, MConst, MDbox, MDdia, MImp, MNot, MOr, MVar, ModalFormula,
    fol_free_vars, modal_var_key,
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
    valuation's masks are computed once, here.  Evaluation reads the
    frame's kernels through the same walk as a valuation search, on a
    batch of one; it keeps no table of their results.
    """

    def __init__(self, frame: SortedFrame,
                 valuation: Mapping[tuple[Sort, int], Iterable[str]]):
        self.frame = frame
        self.valuation = {}
        # each variable's mask as a batch of one, as `_truths` reads it
        self._masks = {}
        for (sort, i), s in valuation.items():
            s = frozenset(s)
            if not s <= frame.carrier(sort):
                raise SortError(f"valuation of variable {i} ill-sorted for {sort}")
            self.valuation[(sort, i)] = s
            self._masks[(sort, i)] = [frame._index.side(sort).mask(s)]

    def var(self, sort: Sort, i: int) -> frozenset[str]:
        return self.valuation.get((sort, i), frozenset())


# ----------------------------------------------------------------------
# Lattice language

def lattice_extent(model: LatticeModel, phi: LatticeFormula) -> Concept:
    """Interpret phi as a formal concept; intent is always extent's image."""
    index = model.frame._index
    ext, intent = _concept(model.frame, model._masks, phi)
    return Concept(index.a.points(ext), index.b.points(intent))


def _concept(frame: SortedFrame, masks: Mapping[int, int],
             phi: LatticeFormula) -> tuple[int, int]:
    """Extent and intent masks of phi.  Operator arguments are concept
    extents or intents, so closed: `closed_op` would find nothing to reject."""
    index = frame._index
    a, b = index.a, index.b
    if isinstance(phi, LVar):
        ext = masks.get(phi.index)
        if ext is None:
            raise PreconditionError(f"p{phi.index} has no valuation")
        return ext, a.polar(ext)
    if isinstance(phi, LTop):
        return a.full, a.polar(a.full)
    if isinstance(phi, LBot):
        return b.polar(b.full), b.full
    if isinstance(phi, LAnd):
        ext = _concept(frame, masks, phi.left)[0] & _concept(frame, masks, phi.right)[0]
        return ext, a.polar(ext)
    if isinstance(phi, LOr):
        intent = _concept(frame, masks, phi.left)[1] & \
            _concept(frame, masks, phi.right)[1]
        return b.polar(intent), intent
    if isinstance(phi, LApp):
        rel = frame.relation(phi.name)
        parts = []
        for arg, s in zip(phi.args, rel.sorting.inputs):
            ext, intent = _concept(frame, masks, arg)
            parts.append(ext if s is Sort.ONE else intent)
        if len(phi.args) != rel.sorting.arity:
            raise SortError(f"{phi.name} arity mismatch with frame relation")
        out = index.side(rel.sorting.output)
        closed = out.close(index.image(rel, parts))
        if out is a:
            return closed, a.polar(closed)
        return b.polar(closed), closed
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
    return side.points(_truths(model.frame, model._masks, theta, 1)[0])


def _each(kernel: Callable, column: list) -> list:
    """kernel applied to every entry of a column, once per distinct entry."""
    distinct = set(column)
    # with nothing to share a table is pure cost, as for every batch of one
    if len(distinct) == len(column):
        return list(map(kernel, column))
    table = dict(zip(distinct, map(kernel, distinct)))
    return list(map(table.__getitem__, column))


def _truths(frame: SortedFrame, columns: Mapping[tuple[Sort, int], list[int]],
            theta: ModalFormula, n: int) -> list[int]:
    """The masks of `truth_set` under a batch of n valuations.

    `columns` holds each variable's n masks, one per valuation; a
    variable it lacks is false everywhere.  Each node is one list
    operation over the whole batch, so a search walks theta once per
    batch rather than once per valuation.  Boxes, diamonds and relation
    images are computed once per distinct argument of the node (`_each`).
    """
    index = frame._index
    if isinstance(theta, MVar):
        column = columns.get((theta.sort, theta.index))
        return [0] * n if column is None else column
    if isinstance(theta, MConst):
        return [index.side(theta.sort).full if theta.truth else 0] * n
    if isinstance(theta, MNot):
        # masks lie inside the carrier, so xor with it is complement
        flip = index.side(theta.sort).full.__xor__
        return list(map(flip, _truths(frame, columns, theta.arg, n)))
    if isinstance(theta, MAnd):
        return list(map(and_, _truths(frame, columns, theta.left, n),
                        _truths(frame, columns, theta.right, n)))
    if isinstance(theta, MOr):
        return list(map(or_, _truths(frame, columns, theta.left, n),
                        _truths(frame, columns, theta.right, n)))
    if isinstance(theta, MImp):
        flip = index.side(theta.sort).full.__xor__
        return list(map(or_, map(flip, _truths(frame, columns, theta.left, n)),
                        _truths(frame, columns, theta.right, n)))
    if isinstance(theta, MBbox):
        return _each(index.b.box, _truths(frame, columns, theta.arg, n))
    if isinstance(theta, MDbox):
        return _each(index.a.box, _truths(frame, columns, theta.arg, n))
    if isinstance(theta, MBdia):
        return _each(index.b.dia, _truths(frame, columns, theta.arg, n))
    if isinstance(theta, MDdia):
        return _each(index.a.dia, _truths(frame, columns, theta.arg, n))
    if isinstance(theta, MApp):
        rel = frame.relation(theta.name)
        if rel.sorting.output is not theta.sort or \
                tuple(rel.sorting.inputs) != tuple(a.sort for a in theta.args):
            raise SortError(
                f"diamond {theta.name} does not match the frame relation sorting"
            )
        args = [_truths(frame, columns, a, n) for a in theta.args]
        return _each(partial(index.image, rel), list(zip(*args)))
    raise SortError(f"unknown modal node {theta!r}")


def sat_modal(model: ModalModel, point: str, theta: ModalFormula) -> bool:
    frame = model.frame
    if frame.sort_of(point) is not theta.sort:
        raise SortError(f"point {point} has the wrong sort for this formula")
    side = frame._index.side(theta.sort)
    truths = _truths(frame, model._masks, theta, 1)
    return bool(side.bit[point] & truths[0])


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


# the most valuations a search evaluates in one walk of its formula
_BATCH = 1024


def _valuations(frame: SortedFrame, vars_in_use):
    """The variables in key order, and an iterator over every valuation of
    them as a tuple of masks in that order, each variable's masks by size
    and then by sorted points.  The number of valuations is checked
    against the cap before the first one."""
    keys = sorted(vars_in_use, key=modal_var_key)
    total = 1
    for sort, _ in keys:
        total *= 2 ** len(frame.carrier(sort))
    cap = resource_cap()
    if total > cap:
        raise CapExceeded(f"{total} valuations exceed cap {cap}")
    index = frame._index
    # descending masks, stably sorted by size: a mask's high bits are its
    # least points, so each size comes in sorted-points order
    choices = [sorted(range(index.side(sort).full, -1, -1), key=int.bit_count)
               for sort, _ in keys]
    return keys, itertools.product(*choices)


def _batches(keys, valuations):
    """Cut the valuations into batches of 1, 2, 4, ... up to `_BATCH`, each
    given as its list of mask tuples and as the columns `_truths` reads.
    Doubling bounds the work before a search stops at its k-th valuation
    by about 2k valuations, however large the space."""
    size = 1
    while batch := list(itertools.islice(valuations, size)):
        yield batch, dict(zip(keys, map(list, zip(*batch))))
        size = min(2 * size, _BATCH)


def frame_valid_modal(frame: SortedFrame, theta: ModalFormula, vars_in_use):
    """Validity on one frame: theta holds at all points under all valuations.

    Returns (True, None) or (False, (valuation, point)) for the first
    valuation, in `_valuations` order, that misses a point.
    """
    index = frame._index
    side = index.side(theta.sort)
    keys, valuations = _valuations(frame, vars_in_use)
    for batch, columns in _batches(keys, valuations):
        truths = _truths(frame, columns, theta, len(batch))
        if truths.count(side.full) < len(batch):
            k = next(k for k, m in enumerate(truths) if m != side.full)
            valuation = {var: index.side(var[0]).points(m)
                         for var, m in zip(keys, batch[k])}
            return False, (valuation, side.least(side.full & ~truths[k]))
    return True, None


# ----------------------------------------------------------------------
# Sorted first-order language

def eval_fol(frame: SortedFrame, predval: Mapping[str, Iterable[str]],
             assignment: Mapping[str, str], phi: FolFormula) -> bool:
    """Tarskian evaluation; quantifiers of sort None range over A | B.

    `predval` interprets the unary predicates P_i / Q_i; the guards U1/Ud
    default to the carriers when not given.  Every point a quantifier
    tries counts against the cap; passing it raises CapExceeded.
    """
    free = fol_free_vars(phi)
    for var in free:
        if var.name not in assignment:
            raise PreconditionError(f"free variable {var.name} is unassigned")
    budget = _instance_budget()
    for var in free:
        if var.sort is not None and \
                assignment[var.name] not in frame.carrier(var.sort):
            raise SortError(f"assignment of {var.name} has the wrong sort")
    names = sorted({var.name for var in free})
    run = _compile_fol(frame, predval, phi, names, budget)
    return run(*(assignment[name] for name in names))


def _instance_budget() -> tuple[int, Iterator[bool]]:
    """One budget of quantifier instances: the cap, and an iterator that
    yields True once per instance the cap allows and then runs dry.  Every
    formula compiled against one budget draws on it."""
    cap = resource_cap()
    return cap, itertools.repeat(True, cap)


def _compile_fol(frame: SortedFrame, predval: Mapping[str, Iterable[str]],
                 phi: FolFormula, free: Sequence[str],
                 budget: tuple[int, Iterator[bool]],
                 missing: dict | None = None) -> Callable[..., bool]:
    """phi as a function of the points assigned to the variables `free`,
    which must include phi's free variables, in that order.

    phi is walked once.  Each variable, free or bound, gets a slot in one
    list, a binder its own slot even when it shadows another, and every
    node becomes a closure over the slots.  Domains and the sets that
    atoms test are looked up here; an unknown relation or an
    uninterpreted predicate raises only when evaluation reaches it.  Its
    node's closure, which raises, is also recorded in `missing` under
    (name, is_pred).
    """
    if missing is None:
        missing = {}
    cap, ticks = budget
    domains = {None: sorted(frame.points_a | frame.points_b),
               Sort.ONE: sorted(frame.points_a), Sort.DEL: sorted(frame.points_b)}
    preds = {"U1": frame.points_a, "Ud": frame.points_b}
    preds.update((name, frozenset(s)) for name, s in predval.items())
    incidence = frame.incidence
    env = [None] * len(free)

    def comp(x, scope):
        if isinstance(x, FEq):
            i, j = scope[x.left.name], scope[x.right.name]
            return lambda: env[i] == env[j]
        if isinstance(x, FInc):
            i, j = scope[x.u.name], scope[x.v.name]
            return lambda: (env[i], env[j]) in incidence
        if isinstance(x, FRelApp):
            rel = frame.relations.get(x.name)
            if rel is None:
                fail = missing[(x.name, False)] = lambda: frame.relation(x.name)
                return fail
            tuples = rel.tuples
            row = itemgetter(*(scope[v.name] for v in (x.head, *x.args)))
            return lambda: row(env) in tuples
        if isinstance(x, FPred):
            points = preds.get(x.name)
            if points is None:
                def uninterpreted():
                    raise _uninterpreted(x.name)
                missing[(x.name, True)] = uninterpreted
                return uninterpreted
            i = scope[x.arg.name]
            return lambda: env[i] in points
        if isinstance(x, FNot):
            arg = comp(x.arg, scope)
            return lambda: not arg()
        if isinstance(x, (FAnd, FOr, FImp)):
            left, right = comp(x.left, scope), comp(x.right, scope)
            if isinstance(x, FAnd):
                return lambda: left() and right()
            if isinstance(x, FOr):
                return lambda: left() or right()
            return lambda: not left() or right()
        if isinstance(x, (FForall, FExists)):
            k = len(env)
            env.append(None)
            body = comp(x.body, {**scope, x.var.name: k})
            domain = domains[x.var.sort]
            exceeded = f"quantifier instances exceed cap {cap}"
            # the body value that settles the quantifier early
            stop = isinstance(x, FExists)

            def quantify():
                for p in domain:
                    if not next(ticks, False):
                        raise CapExceeded(exceeded)
                    env[k] = p
                    if body() is stop:
                        return stop
                return not stop
            return quantify
        raise SortError(f"unknown FOL node {x!r}")

    root = comp(phi, {name: k for k, name in enumerate(free)})
    arity = len(free)

    def run(*points):
        env[:arity] = points
        return root()
    return run


def _uninterpreted(name: str) -> PreconditionError:
    return PreconditionError(f"predicate {name} has no interpretation")


def sort_reduce(phi: FolFormula) -> FolFormula:
    """Relativise sorted quantifiers with the guards U1/Ud.

    Variables lose their sort tags; the two equalities merge into one.
    """

    def strip(v: FVar) -> FVar:
        return FVar(v.name, None)

    def guard(v: FVar) -> FPred:
        return FPred("U1" if v.sort is Sort.ONE else "Ud", strip(v))

    def go(x):
        if isinstance(x, FEq):
            return FEq(strip(x.left), strip(x.right))
        if isinstance(x, FInc):
            return FInc(strip(x.u), strip(x.v))
        if isinstance(x, FRelApp):
            return FRelApp(x.name, strip(x.head), tuple(strip(a) for a in x.args))
        if isinstance(x, FPred):
            return FPred(x.name, strip(x.arg))
        if isinstance(x, FNot):
            return FNot(go(x.arg))
        if isinstance(x, FAnd):
            return FAnd(go(x.left), go(x.right))
        if isinstance(x, FOr):
            return FOr(go(x.left), go(x.right))
        if isinstance(x, FImp):
            return FImp(go(x.left), go(x.right))
        if isinstance(x, FForall):
            return FForall(strip(x.var), FImp(guard(x.var), go(x.body)))
        if isinstance(x, FExists):
            return FExists(strip(x.var), FAnd(guard(x.var), go(x.body)))
        raise SortError(f"unknown FOL node {x!r}")

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

def k_axioms() -> list[tuple[str, ModalFormula, list]]:
    b0, b1 = MVar(Sort.DEL, 0), MVar(Sort.DEL, 1)
    a0, a1 = MVar(Sort.ONE, 0), MVar(Sort.ONE, 1)
    k1 = MImp(MBbox(MImp(b0, b1)), MImp(MBbox(b0), MBbox(b1)))
    kd = MImp(MDbox(MImp(a0, a1)), MImp(MDbox(a0), MDbox(a1)))
    return [
        ("K-sort1", k1, [(Sort.DEL, 0), (Sort.DEL, 1)]),
        ("K-sortd", kd, [(Sort.ONE, 0), (Sort.ONE, 1)]),
    ]


def b_axioms() -> list[tuple[str, ModalFormula, list]]:
    a0 = MVar(Sort.ONE, 0)
    b0 = MVar(Sort.DEL, 0)
    b1 = MImp(a0, MBbox(MDdia(a0)))
    bd = MImp(b0, MDbox(MBdia(b0)))
    return [
        ("B-sort1", b1, [(Sort.ONE, 0)]),
        ("B-sortd", bd, [(Sort.DEL, 0)]),
    ]


def d_axioms() -> list[tuple[str, ModalFormula, list]]:
    a0 = MVar(Sort.ONE, 0)
    b0 = MVar(Sort.DEL, 0)
    d1 = MImp(MBbox(b0), MBdia(b0))
    dd = MImp(MDbox(a0), MDdia(a0))
    return [
        ("D-sort1", d1, [(Sort.DEL, 0)]),
        ("D-sortd", dd, [(Sort.ONE, 0)]),
    ]
