"""Translations between the three languages and the stability transform.

The bullet/circle translations take lattice formulas into the sorted
modal language; the standard translation takes modal formulas into
sorted FOL.  The stability transform is the first-order counterpart of
Galois closure; stability of a formula is checked relative to a finite
model family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError, SortError
from .frames import Sort, SortedFrame
from .semantics import (
    LatticeModel, ModalModel, _compile_fol, _instance_budget, frame_valid_modal,
    lattice_extent, truth_set,
)
from .syntax import (
    FAnd, FEq, FExists, FForall, FImp, FInc, FNot, FOr, FPred, FRelApp, FVar,
    FolFormula, LApp, LAnd, LBot, LOr, LTop, LVar, LatticeFormula, MAnd, MApp,
    MBbox, MBdia, MConst, MDbox, MDdia, MImp, MNot, MOr, MVar, ModalFormula,
    Signature, _MModal, _is_fol_name, fol_all_var_names, fol_free_vars,
    fol_subst, lattice_vars, mapp,
)


def _check_assignment(asg: Mapping[int, ModalFormula], phi: LatticeFormula):
    missing = lattice_vars(phi) - set(asg)
    if missing:
        raise PreconditionError(f"assignment missing p-variables {sorted(missing)}")
    for i, beta in asg.items():
        if beta.sort is not Sort.DEL:
            raise SortError(f"assignment for p{i} must be a sort-d formula")


_MODES = {"bullet": Sort.ONE, "circle": Sort.DEL}


def translate(mode: str, phi: LatticeFormula, asg: Mapping[int, ModalFormula],
              sig: Signature) -> ModalFormula:
    """The bullet translation (sort 1) or circle co-translation (sort d)."""
    _check_assignment(asg, phi)
    if mode not in _MODES:
        raise PreconditionError(f"unknown translation mode {mode!r}")
    return _translate(_MODES[mode], phi, asg, sig)


def _translate(sort, phi, asg, sig):
    """The translation of phi into a formula of the given sort."""
    bullet = sort is Sort.ONE
    if isinstance(phi, LVar):
        beta = asg[phi.index]
        return MBbox(beta) if bullet else MDbox(MBdia(MNot(beta)))
    if isinstance(phi, LTop):
        return MConst(Sort.ONE, True) if bullet else MDbox(MConst(Sort.ONE, False))
    if isinstance(phi, LBot):
        return MBbox(MConst(Sort.DEL, False)) if bullet else MConst(Sort.DEL, True)
    if isinstance(phi, (LAnd, LOr)):
        left = _translate(sort, phi.left, asg, sig)
        right = _translate(sort, phi.right, asg, sig)
        if isinstance(phi, LAnd):
            return MAnd(left, right) if bullet else MDbox(MOr(MBdia(left), MBdia(right)))
        return MBbox(MOr(MDdia(left), MDdia(right))) if bullet else MAnd(left, right)
    if isinstance(phi, LApp):
        dist = sig.get(phi.name)
        args = tuple(_translate(s, a, asg, sig) for a, s in zip(phi.args, dist.inputs))
        diamond = mapp(sig, phi.name, args)
        if dist.output is Sort.ONE:
            form = MBbox(MDdia(diamond))
        else:
            form = MDbox(MBdia(diamond))
        if dist.output is sort:
            return form
        return MBbox(MNot(form)) if bullet else MDbox(MNot(form))
    raise SortError(f"unknown lattice node {phi!r}")


def induced_model(model: ModalModel, asg: Mapping[int, ModalFormula]) -> LatticeModel:
    """Lattice model on the same frame with V(p_i) the box of asg's intent."""
    valuation = {}
    for i, beta in asg.items():
        if beta.sort is not Sort.DEL:
            raise SortError(f"assignment for p{i} must be a sort-d formula")
        valuation[i] = model.frame.box_ba(truth_set(model, beta))
    return LatticeModel(model.frame, valuation)


@dataclass
class TranslationReport:
    """One 4-element equality chain per formula and side, plus the
    three-way consequence agreement."""

    extent_chains: tuple[list[frozenset], list[frozenset]]
    intent_chains: tuple[list[frozenset], list[frozenset]]
    consequence_triple: tuple[bool, bool, bool]

    @property
    def ok(self) -> bool:
        chains = list(self.extent_chains) + list(self.intent_chains)
        return (
            all(all(s == chain[0] for s in chain) for chain in chains)
            and len(set(self.consequence_triple)) == 1
        )


def verify_translation_theorem(model: ModalModel, asg: Mapping[int, ModalFormula],
                               sig: Signature, phi: LatticeFormula,
                               psi: LatticeFormula) -> TranslationReport:
    """Check the three equality chains relating a formula to its translations."""
    induced = induced_model(model, asg)

    def chains(formula):
        concept = lattice_extent(induced, formula)
        tb = translate("bullet", formula, asg, sig)
        tc = translate("circle", formula, asg, sig)
        extents = [
            concept.extent,
            truth_set(model, tb),
            truth_set(model, MBbox(MNot(tc))),
            truth_set(model, MBbox(MDdia(tb))),
        ]
        intents = [
            concept.intent,
            truth_set(model, tc),
            truth_set(model, MDbox(MNot(tb))),
            truth_set(model, MDbox(MBdia(tc))),
        ]
        return extents, intents

    ext_phi, int_phi = chains(phi)
    ext_psi, int_psi = chains(psi)
    triple = (
        ext_phi[0] <= ext_psi[0],
        ext_phi[1] <= ext_psi[1],
        int_psi[1] <= int_phi[1],
    )
    return TranslationReport((ext_phi, ext_psi), (int_phi, int_psi), triple)


# ----------------------------------------------------------------------
# Standard translation

class _FreshVars:
    def __init__(self, used: Iterable[str] = ()):
        self.used = set(used)
        self.counter = {Sort.ONE: 0, Sort.DEL: 0}

    def fresh(self, sort: Sort) -> FVar:
        stem = "u" if sort is Sort.ONE else "v"
        while True:
            self.counter[sort] += 1
            name = f"{stem}{self.counter[sort]}"
            if name not in self.used:
                self.used.add(name)
                return FVar(name, sort)


def std_translate(theta: ModalFormula, free_var: str) -> FolFormula:
    """Standard translation at the given free variable.

    Bound variables come from a counter that restarts on every call, so
    output text is reproducible.  A free_var that the FOL parser would not
    read as a variable name raises PreconditionError.
    """
    if not _is_fol_name(free_var):
        raise PreconditionError(f"bad variable name {free_var!r}")
    fresh = _FreshVars({free_var})
    var = FVar(free_var, theta.sort)
    return _st(theta, var, fresh)


_ST_CONNECTIVES = {MAnd: FAnd, MOr: FOr, MImp: FImp}


def _st(theta: ModalFormula, at: FVar, fresh: _FreshVars) -> FolFormula:
    if isinstance(theta, MVar):
        return FPred(theta.name, at)
    if isinstance(theta, MConst):
        taut = FEq(at, at)
        return taut if theta.truth else FNot(taut)
    if isinstance(theta, MNot):
        return FNot(_st(theta.arg, at, fresh))
    cls = _ST_CONNECTIVES.get(type(theta))
    if cls is not None:
        return cls(_st(theta.left, at, fresh), _st(theta.right, at, fresh))
    if isinstance(theta, _MModal):
        w = fresh.fresh(theta._ARG)
        inc = FInc(at, w) if theta.sort is Sort.ONE else FInc(w, at)
        body = _st(theta.arg, w, fresh)
        if isinstance(theta, (MBbox, MDbox)):
            return FForall(w, FImp(inc, body))
        return FExists(w, FAnd(inc, body))
    if isinstance(theta, MApp):
        arg_vars = [fresh.fresh(a.sort) for a in theta.args]
        body = FRelApp(theta.name, at, tuple(arg_vars))
        out: FolFormula = body
        for w, a in zip(arg_vars, theta.args):
            out = FAnd(out, _st(a, w, fresh))
        for w in reversed(arg_vars):
            out = FExists(w, out)
        return out
    raise SortError(f"unknown modal node {theta!r}")


# ----------------------------------------------------------------------
# Stability

def stability_transform(phi: FolFormula, free_var: str) -> FolFormula:
    """Close a one-free-variable formula under the Galois pattern.

    Returns alld v . (I(u,v) -> ex1 z . (I(z,v) & phi[u:=z])) with fresh
    v, z and capture-avoiding substitution.
    """
    u = _one_free_var(fol_free_vars(phi), free_var)
    used = fol_all_var_names(phi)
    v = _pick_fresh("v", used)
    used.add(v)
    z = _pick_fresh("z", used)
    vvar = FVar(v, Sort.DEL)
    zvar = FVar(z, Sort.ONE)
    inner = FExists(zvar, FAnd(FInc(zvar, vvar), fol_subst(phi, u, zvar)))
    return FForall(vvar, FImp(FInc(u, vvar), inner))


def _one_free_var(free: frozenset[FVar], free_var: str) -> FVar:
    """The sort-1 variable free_var, which must be the only one in `free`,
    a formula's free variables."""
    u = FVar(free_var, Sort.ONE)
    if free != frozenset({u}):
        raise PreconditionError(
            f"formula must have exactly the free sort-1 variable {free_var}, "
            f"has {sorted(v.name for v in free)}"
        )
    return u


def _pick_fresh(stem: str, used: set[str]) -> str:
    if stem not in used:
        return stem
    i = 1
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"


ModelFamily = Sequence[tuple[SortedFrame, Mapping[str, frozenset]]]


def is_stable_fol(phi: FolFormula, free_var: str, model_family: ModelFamily):
    """Stability of phi relative to a finite family of models.

    Returns (True, None) or (False, (family_index, point)), the point being
    the least one where phi and its stability transform differ.  On a
    finite model the transform holds exactly on [b]<d> of phi's extension,
    so phi is evaluated once per point of A, and the transform is never
    evaluated.  phi is compiled once per call and bound to each model;
    the evaluations draw on one budget of `resource_cap()` quantifier
    instances.  The least predicate or relation name that some model
    leaves uninterpreted is rejected before anything is evaluated.
    """
    if not model_family:
        raise PreconditionError("model family must be non-empty")
    fol = _compile_fol(phi)
    _one_free_var(fol.free, free_var)
    envs = fol.bind_family(model_family, _instance_budget())
    at, root = fol.slots[free_var], fol.root
    for idx, ((frame, _), env) in enumerate(zip(model_family, envs)):
        a, b = frame._index.a, frame._index.b
        ext = 0
        for bit in a.order():
            env[at] = a.name[bit]
            if root(env):
                ext |= bit
        differ = ext ^ b.box(a.dia(ext))
        if differ:
            return False, (idx, a.least(differ))
    return True, None


def is_stable_modal(alpha: ModalFormula, frames: Sequence[SortedFrame],
                    vars_in_use) -> bool:
    """True iff alpha and [b]<d> alpha agree under every valuation: as the
    closure contains alpha, iff [b]<d> alpha -> alpha is valid."""
    if alpha.sort is not Sort.ONE:
        raise SortError("stability is defined for sort-1 formulas")
    closed_in = MImp(MBbox(MDdia(alpha)), alpha)
    return all(frame_valid_modal(f, closed_in, vars_in_use)[0] for f in frames)
