"""Bundled lattices, expansions and frames used by the CLI and suites.

Chains of sizes 2-5, the 4-element Boolean lattice b4, and the two
minimal non-distributive lattices m3 and n5.  Every expansion carries
identity operators on both sorts; the distributive lattices also get
meet as a (1,1;1) operator, join as a (d,d;d) operator, and the two
residuals of meet.
"""

from __future__ import annotations

from .errors import PreconditionError
from .frames import (
    DistributionType, FiniteLattice, FiniteLatticeExpansion, Sort,
    SortedFrame, SortedRelation, SortingType, canonical_frame, random_frame,
)
from .syntax import Signature

D1_1 = DistributionType((Sort.ONE,), Sort.ONE)
DD_D = DistributionType((Sort.DEL,), Sort.DEL)
D11_1 = DistributionType((Sort.ONE, Sort.ONE), Sort.ONE)
DDD_D = DistributionType((Sort.DEL, Sort.DEL), Sort.DEL)
D1D_D = DistributionType((Sort.ONE, Sort.DEL), Sort.DEL)
DD1_D = DistributionType((Sort.DEL, Sort.ONE), Sort.DEL)


def chain(n: int) -> FiniteLattice:
    if n < 2:
        raise PreconditionError("chain needs at least 2 elements")
    elems = [f"c{i}" for i in range(n)]
    leq = [(elems[i], elems[j]) for i in range(n) for j in range(i, n)]
    return FiniteLattice(elems, leq)


def _lattice_from_covers(elems, covers):
    leq = {(x, x) for x in elems}
    leq |= set(covers)
    changed = True
    while changed:
        changed = False
        for x, y in list(leq):
            for y2, z in list(leq):
                if y2 == y and (x, z) not in leq:
                    leq.add((x, z))
                    changed = True
    return FiniteLattice(elems, leq)


def boolean4() -> FiniteLattice:
    return _lattice_from_covers(
        ["o", "x", "y", "i"], [("o", "x"), ("o", "y"), ("x", "i"), ("y", "i")]
    )


def m3() -> FiniteLattice:
    return _lattice_from_covers(
        ["o", "x", "y", "z", "i"],
        [("o", "x"), ("o", "y"), ("o", "z"), ("x", "i"), ("y", "i"), ("z", "i")],
    )


def n5() -> FiniteLattice:
    return _lattice_from_covers(
        ["o", "x", "y", "z", "i"],
        [("o", "x"), ("x", "z"), ("z", "i"), ("o", "y"), ("y", "i")],
    )


def _identity_tables(lat: FiniteLattice):
    table = {(x,): x for x in lat.carrier}
    return {"f": (D1_1, dict(table)), "g": (DD_D, dict(table))}


def _meet_table(lat: FiniteLattice):
    return {(x, y): lat.meet(x, y) for x in lat.carrier for y in lat.carrier}


def _join_table(lat: FiniteLattice):
    return {(x, y): lat.join(x, y) for x in lat.carrier for y in lat.carrier}


def _implication(lat: FiniteLattice, x, y):
    # relative pseudo-complement; total on the distributive catalog members
    candidates = [z for z in lat.carrier if lat.leq(lat.meet(x, z), y)]
    best = lat.join_all(candidates)
    if not lat.leq(lat.meet(x, best), y):
        raise PreconditionError(f"no relative pseudo-complement for {x},{y}")
    return best


def _distributive_operators(lat: FiniteLattice):
    impl = {(x, y): _implication(lat, x, y)
            for x in lat.carrier for y in lat.carrier}
    return {
        "m": (D11_1, _meet_table(lat)),
        "w": (DDD_D, _join_table(lat)),
        "r": (D1D_D, dict(impl)),
        "l": (DD1_D, {(y, x): v for (x, y), v in impl.items()}),
    }


def _expansion(lat: FiniteLattice, distributive: bool) -> FiniteLatticeExpansion:
    ops = _identity_tables(lat)
    if distributive:
        ops.update(_distributive_operators(lat))
    return FiniteLatticeExpansion(lat, ops)


_BUILDERS = {
    "chain2": (lambda: chain(2), True),
    "chain3": (lambda: chain(3), True),
    "chain4": (lambda: chain(4), True),
    "chain5": (lambda: chain(5), True),
    "b4": (boolean4, True),
    "m3": (m3, False),
    "n5": (n5, False),
}


def catalog_names() -> list[str]:
    return list(_BUILDERS)


def catalog_lattice(name: str) -> FiniteLattice:
    try:
        builder, _ = _BUILDERS[name]
    except KeyError:
        raise PreconditionError(f"unknown catalog lattice {name!r}")
    return builder()


def catalog_expansion(name: str) -> FiniteLatticeExpansion:
    try:
        builder, distributive = _BUILDERS[name]
    except KeyError:
        raise PreconditionError(f"unknown catalog lattice {name!r}")
    return _expansion(builder(), distributive)


def catalog_canonical_frames() -> dict[str, SortedFrame]:
    return {name: canonical_frame(catalog_expansion(name))
            for name in _BUILDERS}


def reference_frame() -> SortedFrame:
    """The 2+2 frame used throughout the examples: I = {(a0,b1), (a1,b0)}."""
    return SortedFrame(["a0", "a1"], ["b0", "b1"], [("a0", "b1"), ("a1", "b0")])


def unstable_control_frame() -> SortedFrame:
    """Empty incidence, so the only Galois-stable subset of A is A itself."""
    return SortedFrame(["a0", "a1"], ["b0"], [])


def default_signature() -> Signature:
    """One operator of each unary sorting type, matching the model family."""
    return Signature.of({"f": D1_1, "g": DD_D})


def default_model_family():
    """Frames with predicate interpretations, for FOL stability checks.

    Each interprets P0, P1, Q0 and Q1.  One frame has a V(P0) that is not
    Galois-stable, so the bare atom P0(u) is a guaranteed unstable control.
    """
    sig = {"f": D1_1.sorting(), "g": DD_D.sorting()}
    f0 = reference_frame()
    f0 = SortedFrame(f0.points_a, f0.points_b, f0.incidence, _unary_relations(f0))
    f1 = unstable_control_frame()
    f1 = SortedFrame(f1.points_a, f1.points_b, f1.incidence, _unary_relations(f1))
    frames = [f0, f1,
              random_frame(3, 2, sig, density=0.5, seed=5),
              random_frame(2, 3, sig, density=0.6, seed=9)]
    family = []
    for k, frame in enumerate(frames):
        pa, pb = sorted(frame.points_a), sorted(frame.points_b)
        predval = {}
        for i in range(2):
            predval[f"P{i}"] = frozenset(pa[(k + i) % len(pa):])
            predval[f"Q{i}"] = frozenset(pb[(k + i + 1) % len(pb):])
        family.append((frame, predval))
    return family


def _unary_relations(frame: SortedFrame):
    # identity-shaped relations of sortings 1;1 and d;d
    r = frozenset((a, a) for a in frame.points_a)
    s = frozenset((b, b) for b in frame.points_b)
    return {
        "f": SortedRelation("f", SortingType(Sort.ONE, (Sort.ONE,)), r),
        "g": SortedRelation("g", SortingType(Sort.DEL, (Sort.DEL,)), s),
    }
