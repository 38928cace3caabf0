"""Seeded random generators for formulas and models.

All generators are deterministic functions of their seed (or of a
caller-supplied Random instance) and never produce ill-sorted output.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from .errors import CapExceeded, PreconditionError
from .frames import Sort, SortedFrame
from .semantics import LatticeModel, ModalModel, resource_cap
from .syntax import (
    EMPTY_SIGNATURE, FAnd, FEq, FExists, FForall, FImp, FInc, FNot, FOr,
    FPred, FRelApp, FVar, FolFormula, LAnd, LApp, LBot, LOr, LTop, LVar,
    LatticeFormula, MAX_NESTING, MAnd, MBbox, MBdia, MConst, MDbox, MDdia,
    MImp, MNot, MOr, MVar, ModalFormula, Signature, _MModal, _with_vars,
    mapp, modal_var_key,
)


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _check_sizes(depth: int, num_vars: int = 1):
    if depth < 0:
        raise PreconditionError(f"formula depth must be at least 0, not {depth}")
    if depth > MAX_NESTING:
        raise PreconditionError(
            f"formula depth must be at most {MAX_NESTING}, not {depth}")
    if num_vars < 1:
        raise PreconditionError(
            f"formulas need at least 1 variable, not {num_vars}")


def _node_budget():
    """A tick to call once per node a generator draws: past `resource_cap()`
    nodes it raises CapExceeded.  It draws no random number."""
    cap, drawn = resource_cap(), itertools.count(1)

    def tick():
        if next(drawn) > cap:
            raise CapExceeded(f"generated nodes exceed cap {cap}")
    return tick


def random_lattice_formula(seed, depth: int, num_vars: int = 3,
                           sig: Signature = EMPTY_SIGNATURE) -> LatticeFormula:
    _check_sizes(depth, num_vars)
    rng, tick = _rng(seed), _node_budget()

    def go(d):
        tick()
        if d <= 0 or rng.random() < 0.25:
            roll = rng.random()
            if roll < 0.7:
                return LVar(rng.randrange(num_vars))
            return LTop() if roll < 0.85 else LBot()
        pick = rng.choice([LAnd, LOr, *sig.names()])
        if isinstance(pick, str):
            return LApp(pick, tuple(go(d - 1) for _ in range(sig.get(pick).arity)))
        return pick(go(d - 1), go(d - 1))

    return go(depth)


def random_modal_formula(seed, depth: int, sort: Sort, num_vars: int = 2,
                         sig: Signature = EMPTY_SIGNATURE) -> ModalFormula:
    _check_sizes(depth, num_vars)
    rng, tick = _rng(seed), _node_budget()

    def go(d, s):
        tick()
        if d <= 0 or rng.random() < 0.2:
            if rng.random() < 0.85:
                return MVar(s, rng.randrange(num_vars))
            return MConst(s, rng.random() < 0.5)
        box, dia = (MBbox, MBdia) if s is Sort.ONE else (MDbox, MDdia)
        pick = rng.choice([MNot, MAnd, MOr, MImp, box, dia,
                           *(n for n in sig.names() if sig.get(n).output is s)])
        if isinstance(pick, str):
            return mapp(sig, pick, [go(d - 1, t) for t in sig.get(pick).inputs])
        if pick is MNot:
            return MNot(go(d - 1, s))
        if issubclass(pick, _MModal):
            return pick(go(d - 1, pick._ARG))
        return pick(go(d - 1, s), go(d - 1, s))

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
    _check_sizes(depth)
    rng, tick = _rng(seed), _node_budget()
    counter = [0]

    def fresh(sort):
        counter[0] += 1
        return FVar(f"x{counter[0]}", sort)

    def atom(env):
        pools = {sort: [v for v in env if v.sort is sort] for sort in Sort}
        ones, dels = pools[Sort.ONE], pools[Sort.DEL]

        def draw(*sorts):
            return [rng.choice(pools[s]) for s in sorts]

        makers = []
        if ones and dels:
            makers.append(lambda: FInc(*draw(Sort.ONE, Sort.DEL)))
        if ones:
            makers.append(lambda: FPred(f"P{rng.randrange(2)}", *draw(Sort.ONE)))
        if dels:
            makers.append(lambda: FPred(f"Q{rng.randrange(2)}", *draw(Sort.DEL)))
        for n, sorting in sig.operators:
            sorts = (sorting.output, *sorting.inputs)
            if all(pools[s] for s in sorts):
                makers.append(lambda n=n, sorts=sorts:
                              _with_vars(FRelApp(n, None, ()), draw(*sorts)))
        if len(ones) >= 2:
            makers.append(lambda: FEq(*draw(Sort.ONE, Sort.ONE)))
        if len(dels) >= 2:
            makers.append(lambda: FEq(*draw(Sort.DEL, Sort.DEL)))
        return rng.choice(makers)()

    def go(d, env):
        tick()
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
    tick()
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
    _check_sizes(depth, num_vars)
    rng = _rng(seed)
    corpus = []
    for k in range(count):
        sort = Sort.ONE if k % 2 == 0 else Sort.DEL
        corpus.append(random_modal_formula(rng, rng.randrange(depth + 1),
                                           sort, num_vars, sig))
    return corpus
