"""Seeded random generators for formulas and models.

All generators are deterministic functions of their seed (or of a
caller-supplied Random instance) and never produce ill-sorted output.
"""

from __future__ import annotations

import random
from typing import Iterable

from .errors import PreconditionError
from .frames import Sort, SortedFrame
from .semantics import LatticeModel, ModalModel
from .syntax import (
    EMPTY_SIGNATURE, FAnd, FEq, FExists, FForall, FImp, FInc, FNot, FOr,
    FPred, FRelApp, FVar, FolFormula, LAnd, LApp, LBot, LOr, LTop, LVar,
    LatticeFormula, MAnd, MBbox, MBdia, MConst, MDbox, MDdia, MImp, MNot,
    MOr, MVar, ModalFormula, Signature, mapp, modal_var_key,
)


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_lattice_formula(seed, depth: int, num_vars: int = 3,
                           sig: Signature = EMPTY_SIGNATURE) -> LatticeFormula:
    rng = _rng(seed)

    def go(d):
        if d <= 0 or rng.random() < 0.25:
            roll = rng.random()
            if roll < 0.7:
                return LVar(rng.randrange(num_vars))
            return LTop() if roll < 0.85 else LBot()
        choices = ["and", "or"] + list(sig.names())
        pick = rng.choice(choices)
        if pick == "and":
            return LAnd(go(d - 1), go(d - 1))
        if pick == "or":
            return LOr(go(d - 1), go(d - 1))
        dist = sig.get(pick)
        return LApp(pick, tuple(go(d - 1) for _ in range(dist.arity)))

    return go(depth)


def random_modal_formula(seed, depth: int, sort: Sort, num_vars: int = 2,
                         sig: Signature = EMPTY_SIGNATURE) -> ModalFormula:
    rng = _rng(seed)

    def go(d, s):
        if d <= 0 or rng.random() < 0.2:
            if rng.random() < 0.85:
                return MVar(s, rng.randrange(num_vars))
            return MConst(s, rng.random() < 0.5)
        ops = ["not", "and", "or", "imp", "box", "dia"]
        ops += [n for n in sig.names() if sig.get(n).output is s]
        pick = rng.choice(ops)
        if pick == "not":
            return MNot(go(d - 1, s))
        if pick == "and":
            return MAnd(go(d - 1, s), go(d - 1, s))
        if pick == "or":
            return MOr(go(d - 1, s), go(d - 1, s))
        if pick == "imp":
            return MImp(go(d - 1, s), go(d - 1, s))
        if pick == "box":
            return (MBbox if s is Sort.ONE else MDbox)(go(d - 1, s.opposite))
        if pick == "dia":
            return (MBdia if s is Sort.ONE else MDdia)(go(d - 1, s.opposite))
        dist = sig.get(pick)
        return mapp(sig, pick, [go(d - 1, t) for t in dist.inputs])

    return go(depth, sort)


def random_assignment(seed, indices: Iterable[int], depth: int = 2,
                      num_vars: int = 2,
                      sig: Signature = EMPTY_SIGNATURE) -> dict:
    """A translation assignment: each p-index gets a sort-d formula."""
    rng = _rng(seed)
    return {i: random_modal_formula(rng, depth, Sort.DEL, num_vars, sig)
            for i in sorted(set(indices))}


def random_fol_sentence(seed, depth: int,
                        sig: Signature = EMPTY_SIGNATURE) -> FolFormula:
    """A closed sorted FOL sentence with at least one quantifier, over the
    predicates P0, P1, Q0 and Q1."""
    rng = _rng(seed)
    counter = [0]

    def fresh(sort):
        counter[0] += 1
        return FVar(f"x{counter[0]}", sort)

    def atom(env):
        ones = [v for v in env if v.sort is Sort.ONE]
        dels = [v for v in env if v.sort is Sort.DEL]
        picks = []
        if ones and dels:
            picks.append("inc")
        if ones:
            picks.append("p")
        if dels:
            picks.append("q")
        for n in sig.names():
            sorting = sig.get(n).sorting()
            pool = ones if sorting.output is Sort.ONE else dels
            if pool and all((ones if s is Sort.ONE else dels)
                            for s in sorting.inputs):
                picks.append(("rel", n))
        if len(ones) >= 2:
            picks.append("eq1")
        if len(dels) >= 2:
            picks.append("eqd")
        pick = rng.choice(picks)
        if pick == "inc":
            return FInc(rng.choice(ones), rng.choice(dels))
        if pick == "p":
            return FPred(f"P{rng.randrange(2)}", rng.choice(ones))
        if pick == "q":
            return FPred(f"Q{rng.randrange(2)}", rng.choice(dels))
        if pick == "eq1":
            return FEq(rng.choice(ones), rng.choice(ones))
        if pick == "eqd":
            return FEq(rng.choice(dels), rng.choice(dels))
        _, name = pick
        sorting = sig.get(name).sorting()
        head = rng.choice(ones if sorting.output is Sort.ONE else dels)
        args = tuple(rng.choice(ones if s is Sort.ONE else dels)
                     for s in sorting.inputs)
        return FRelApp(name, head, args)

    def go(d, env):
        if d <= 0:
            return atom(env)
        roll = rng.random()
        if roll < 0.4 or len(env) < 2:
            sort = Sort.ONE if rng.random() < 0.5 else Sort.DEL
            var = fresh(sort)
            cls = FForall if rng.random() < 0.5 else FExists
            return cls(var, go(d - 1, env + [var]))
        if roll < 0.55:
            return FNot(go(d - 1, env))
        if roll < 0.7:
            return FAnd(go(d - 1, env), go(d - 1, env))
        if roll < 0.85:
            return FOr(go(d - 1, env), go(d - 1, env))
        return FImp(go(d - 1, env), go(d - 1, env))

    sort = Sort.ONE if rng.random() < 0.5 else Sort.DEL
    var = fresh(sort)
    cls = FForall if rng.random() < 0.5 else FExists
    return cls(var, go(depth - 1, [var]))


def random_modal_model(frame: SortedFrame, vars_in_use, seed) -> ModalModel:
    """Arbitrary sorted valuation of the given (sort, index) variables."""
    rng = _rng(seed)
    valuation = {}
    for sort, i in sorted(vars_in_use, key=modal_var_key):
        carrier = sorted(frame.carrier(sort))
        valuation[(sort, i)] = frozenset(
            p for p in carrier if rng.random() < 0.5
        )
    return ModalModel(frame, valuation)


def random_lattice_model(frame: SortedFrame, indices: Iterable[int],
                         seed) -> LatticeModel:
    """Random valuation, Galois-closed so the model invariant holds."""
    rng = _rng(seed)
    valuation = {}
    for i in sorted(set(indices)):
        picked = frozenset(a for a in sorted(frame.points_a)
                           if rng.random() < 0.5)
        valuation[i] = picked
    return LatticeModel(frame, valuation, close=True)


def random_modal_corpus(seed, count: int, depth: int, num_vars: int = 2,
                        sig: Signature = EMPTY_SIGNATURE) -> list[ModalFormula]:
    """Fixed-size corpus with both sorts represented."""
    if count < 1:
        raise PreconditionError("corpus size must be at least 1")
    rng = _rng(seed)
    corpus = []
    for k in range(count):
        sort = Sort.ONE if k % 2 == 0 else Sort.DEL
        corpus.append(random_modal_formula(rng, rng.randrange(depth + 1),
                                           sort, num_vars, sig))
    return corpus
