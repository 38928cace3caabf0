"""Model checking for the three languages over finite frames.

Lattice formulas are interpreted as formal concepts (extent, intent),
modal formulas as arbitrary subsets of their sort's carrier, and FOL
formulas by Tarskian evaluation with sorted quantifier ranges.  Frame
validity enumerates all valuations of the variables in use, capped by a
configurable resource limit.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable, Mapping

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
    """A frame with a Galois-stable valuation of the p-variables."""

    def __init__(self, frame: SortedFrame, valuation: Mapping[int, Iterable[str]],
                 close: bool = False):
        self.frame = frame
        self.valuation = {}
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


class ModalModel:
    """A frame with an unrestricted sorted valuation of P/Q variables."""

    def __init__(self, frame: SortedFrame,
                 valuation: Mapping[tuple[Sort, int], Iterable[str]]):
        self.frame = frame
        self.valuation = {}
        for (sort, i), s in valuation.items():
            s = frozenset(s)
            if not s <= frame.carrier(sort):
                raise SortError(f"valuation of variable {i} ill-sorted for {sort}")
            self.valuation[(sort, i)] = s

    def var(self, sort: Sort, i: int) -> frozenset[str]:
        return self.valuation.get((sort, i), frozenset())


# ----------------------------------------------------------------------
# Lattice language

def lattice_extent(model: LatticeModel, phi: LatticeFormula) -> Concept:
    """Interpret phi as a formal concept; intent is always extent's image."""
    index = model.frame._index
    masks = {i: index.a.mask(s) for i, s in model.valuation.items()}
    ext, intent = _concept(model.frame, masks, phi)
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
    return side.points(_truth(model.frame, _masks(model), theta))


def _masks(model: ModalModel) -> dict[tuple[Sort, int], int]:
    index = model.frame._index
    return {(sort, i): index.side(sort).mask(s)
            for (sort, i), s in model.valuation.items()}


def _truth(frame: SortedFrame, masks: Mapping[tuple[Sort, int], int],
           theta: ModalFormula) -> int:
    """The mask of `truth_set` under a valuation of masks."""
    index = frame._index
    if isinstance(theta, MVar):
        return masks.get((theta.sort, theta.index), 0)
    if isinstance(theta, MConst):
        return index.side(theta.sort).full if theta.truth else 0
    if isinstance(theta, MNot):
        return index.side(theta.sort).full & ~_truth(frame, masks, theta.arg)
    if isinstance(theta, MAnd):
        return _truth(frame, masks, theta.left) & _truth(frame, masks, theta.right)
    if isinstance(theta, MOr):
        return _truth(frame, masks, theta.left) | _truth(frame, masks, theta.right)
    if isinstance(theta, MImp):
        return (index.side(theta.sort).full & ~_truth(frame, masks, theta.left)) | \
            _truth(frame, masks, theta.right)
    if isinstance(theta, MBbox):
        return index.b.box(_truth(frame, masks, theta.arg))
    if isinstance(theta, MDbox):
        return index.a.box(_truth(frame, masks, theta.arg))
    if isinstance(theta, MBdia):
        return index.b.dia(_truth(frame, masks, theta.arg))
    if isinstance(theta, MDdia):
        return index.a.dia(_truth(frame, masks, theta.arg))
    if isinstance(theta, MApp):
        rel = frame.relation(theta.name)
        if rel.sorting.output is not theta.sort or \
                tuple(rel.sorting.inputs) != tuple(a.sort for a in theta.args):
            raise SortError(
                f"diamond {theta.name} does not match the frame relation sorting"
            )
        return index.image(rel, [_truth(frame, masks, a) for a in theta.args])
    raise SortError(f"unknown modal node {theta!r}")


def sat_modal(model: ModalModel, point: str, theta: ModalFormula) -> bool:
    if model.frame.sort_of(point) is not theta.sort:
        raise SortError(f"point {point} has the wrong sort for this formula")
    side = model.frame._index.side(theta.sort)
    return bool(side.bit[point] & _truth(model.frame, _masks(model), theta))


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


def _valuations(frame: SortedFrame, vars_in_use):
    """Every valuation of the variables as a {var: mask} dict, each
    variable's masks by size and then by sorted points.  The number of
    valuations is checked against the cap before the first one."""
    vars_in_use = sorted(vars_in_use, key=modal_var_key)
    total = 1
    for sort, _ in vars_in_use:
        total *= 2 ** len(frame.carrier(sort))
    cap = resource_cap()
    if total > cap:
        raise CapExceeded(f"{total} valuations exceed cap {cap}")
    index = frame._index
    # descending masks, stably sorted by size: a mask's high bits are its
    # least points, so each size comes in sorted-points order
    choices = [sorted(range(index.side(sort).full, -1, -1), key=int.bit_count)
               for sort, _ in vars_in_use]
    for masks in itertools.product(*choices):
        yield dict(zip(vars_in_use, masks))


def frame_valid_modal(frame: SortedFrame, theta: ModalFormula, vars_in_use):
    """Validity on one frame: theta holds at all points under all valuations.

    Returns (True, None) or (False, (valuation, point)).
    """
    index = frame._index
    side = index.side(theta.sort)
    for masks in _valuations(frame, vars_in_use):
        missing = side.full & ~_truth(frame, masks, theta)
        if missing:
            valuation = {var: index.side(var[0]).points(m)
                         for var, m in masks.items()}
            return False, (valuation, side.least(missing))
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
    predval = {k: frozenset(v) for k, v in predval.items()}
    for var in fol_free_vars(phi):
        if var.name not in assignment:
            raise PreconditionError(f"free variable {var.name} is unassigned")
    cap = resource_cap()
    tried = 0
    domains = {None: sorted(frame.points_a | frame.points_b),
               Sort.ONE: sorted(frame.points_a), Sort.DEL: sorted(frame.points_b)}

    def instances(x, env):
        nonlocal tried
        for p in domains[x.var.sort]:
            tried += 1
            if tried > cap:
                raise CapExceeded(f"quantifier instances exceed cap {cap}")
            yield ev(x.body, {**env, x.var.name: p})

    def pred_set(name):
        if name in predval:
            return predval[name]
        if name == "U1":
            return frame.points_a
        if name == "Ud":
            return frame.points_b
        raise PreconditionError(f"predicate {name} has no interpretation")

    def ev(x, env):
        if isinstance(x, FEq):
            return env[x.left.name] == env[x.right.name]
        if isinstance(x, FInc):
            return (env[x.u.name], env[x.v.name]) in frame.incidence
        if isinstance(x, FRelApp):
            rel = frame.relation(x.name)
            tup = (env[x.head.name],) + tuple(env[a.name] for a in x.args)
            return tup in rel.tuples
        if isinstance(x, FPred):
            return env[x.arg.name] in pred_set(x.name)
        if isinstance(x, FNot):
            return not ev(x.arg, env)
        if isinstance(x, FAnd):
            return ev(x.left, env) and ev(x.right, env)
        if isinstance(x, FOr):
            return ev(x.left, env) or ev(x.right, env)
        if isinstance(x, FImp):
            return (not ev(x.left, env)) or ev(x.right, env)
        if isinstance(x, FForall):
            return all(instances(x, env))
        if isinstance(x, FExists):
            return any(instances(x, env))
        raise SortError(f"unknown FOL node {x!r}")

    env = {}
    for var in fol_free_vars(phi):
        point = assignment[var.name]
        if var.sort is not None and point not in frame.carrier(var.sort):
            raise SortError(f"assignment of {var.name} has the wrong sort")
        env[var.name] = point
    return ev(phi, env)


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
