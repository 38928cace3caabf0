"""Named verification suites run by the CLI `verify` subcommand.

Each suite checks one family of semantic identities on randomized and
catalog instances and returns a deterministic report (for a fixed seed).
Failure entries carry replayable witnesses in the file formats of
`fileio`.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field
from itertools import combinations, product

from . import catalog, fileio, gen
from .errors import NormalityError, PreconditionError
from .frames import (
    FiniteLatticeExpansion, Sort, SortedFrame, canonical_frame, random_frame,
)
from .semantics import (
    b_axioms, d_axioms, eval_fol, frame_valid_modal, k_axioms, sat_modal,
    sort_reduce, sorting_constraint_sentences, truth_set,
)
from .bisim import (
    all_bisimulations_union, equivalence_depth_bound, is_model_bisimulation,
    largest_bisimulation, modal_equiv,
)
from .syntax import (
    FPred, FVar, LVar, MBbox, MVar, Signature, modal_vars, print_fol,
    print_lattice, print_modal,
)
from .transform import (
    is_stable_fol, is_stable_modal, std_translate, translate,
    verify_translation_theorem,
)


@dataclass
class SuiteReport:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def note(self, line: str):
        self.lines.append(line)

    def fail(self, message: str, witness: str = ""):
        entry = message if not witness else message + "\n" + witness.rstrip()
        self.failures.append(entry)

    def render(self) -> str:
        out = [f"suite {self.name}"]
        out.extend(self.lines)
        for f in self.failures:
            out.append("FAIL " + f)
        verdict = "PASS" if self.ok else "FAIL"
        out.append(f"result: {verdict} checked={self.checked} "
                   f"failures={len(self.failures)}")
        out.append(f"# wall time {self.elapsed:.2f}s")
        return "\n".join(out) + "\n"


_SUITE_SORTINGS = {"f": catalog.D1_1, "g": catalog.DD_D, "h": catalog.D1D_D}

_SUITE_SIGNATURE = Signature.of(_SUITE_SORTINGS)

_VARS4 = [(Sort.ONE, 0), (Sort.ONE, 1), (Sort.DEL, 0), (Sort.DEL, 1)]


def _sample_frames(rng, count, max_a, max_b, sortings=None):
    if min(max_a, max_b) < 2:
        raise PreconditionError(
            f"sort size bounds must be at least 2, not {max_a} and {max_b}")
    return [
        random_frame(rng.randrange(2, max_a + 1), rng.randrange(2, max_b + 1),
                     sortings, density=rng.random(), seed=rng.randrange(10 ** 9))
        for _ in range(count)
    ]


# ----------------------------------------------------------------------

def suite_galois(rng, report, count=200, max_a=4, max_b=4):
    frames = _sample_frames(rng, count, max_a, max_b)
    frames += list(catalog.catalog_canonical_frames().values())
    report.note(f"frames: {len(frames)} ({count} random + catalog canonical)")
    for idx, frame in enumerate(frames):
        for base, close_via, box_dia in (
            (frame.points_a, lambda s: frame.closure(Sort.ONE, s),
             lambda s: frame.box_ba(frame.dia_ab(s))),
            (frame.points_b, lambda s: frame.closure(Sort.DEL, s),
             lambda s: frame.box_ab(frame.dia_ba(s))),
        ):
            items = sorted(base)
            for r in range(len(items) + 1):
                for combo in combinations(items, r):
                    s = frozenset(combo)
                    report.checked += 1
                    if box_dia(s) != close_via(s):
                        report.fail(
                            f"closure coincidence on subset {sorted(s)}",
                            fileio.dump_frame(frame))
    return report


def _complex_algebra(frame):
    """The concept lattice of a frame, with each relation's closed operator
    as a table on concepts (a sort-1 argument or value is a concept's
    extent, a sort-d one its intent); NormalityError if one is not normal."""
    lat = frame.all_concepts()
    by_side = {Sort.ONE: {c.extent: c for c in lat.carrier},
               Sort.DEL: {c.intent: c for c in lat.carrier}}
    operators = {}
    for name, rel in frame.relations.items():
        output = by_side[rel.sorting.output]
        table = {}
        for args in product(lat.carrier, repeat=rel.sorting.arity):
            parts = [c.extent if s is Sort.ONE else c.intent
                     for c, s in zip(args, rel.sorting.inputs)]
            table[args] = output[frame.closed_op(name, parts)]
        operators[name] = (rel.sorting, table)
    return FiniteLatticeExpansion(lat, operators)


def _principal(lat, concepts):
    """Each element of `lat` mapped to the concept whose extent is its
    downset, or to None."""
    by_extent = {c.extent: c for c in concepts}
    return {x: by_extent.get(lat.downset(x)) for x in lat.carrier}


def suite_concepts(rng, report):
    for name in catalog.catalog_names():
        lat = catalog.catalog_lattice(name)
        frame = canonical_frame(FiniteLatticeExpansion(lat, {}))
        concepts = _complex_algebra(frame).lattice
        report.checked += 1
        # a downset that is not an extent maps to None, which fails here
        if lat.is_isomorphic_by(concepts, _principal(lat, concepts.carrier)):
            report.note(f"{name}: {len(lat.carrier)} concepts, isomorphism ok")
        else:
            report.fail(f"{name}: concept lattice not isomorphic via "
                        "principal downsets")
    return report


def suite_prop21(rng, report):
    for name in catalog.catalog_names():
        exp = catalog.catalog_expansion(name)
        frame = canonical_frame(exp)
        lat = exp.lattice
        for op in exp.operators:
            # section stability of the Galois dual relation
            report.checked += 1
            ok, witness = frame.is_section_stable(op)
            if not ok:
                report.fail(f"{name}/{op}: dual section not closed at {witness}")
        try:
            algebra = _complex_algebra(frame)
        except NormalityError as exc:
            report.fail(f"{name}: {exc}")
            continue
        # in a canonical frame every downset is an extent
        principal = _principal(lat, algebra.lattice.carrier)
        m = len(algebra.lattice.carrier)
        for op, (dist, table) in exp.operators.items():
            # the constructor's join distribution checks: one per coordinate,
            # context and pair of concepts
            report.checked += dist.arity * m ** (dist.arity + 1)
            closed = algebra.operators[op][1]
            # canonical round trip on principal concepts
            for args in product(sorted(lat.carrier), repeat=dist.arity):
                report.checked += 1
                got = closed[tuple(principal[w] for w in args)]
                want = principal[table[args]]
                if got != want:
                    report.fail(f"{name}/{op}: closed_op round trip at "
                                f"{args} gave {sorted(got.extent)}, "
                                f"expected {sorted(want.extent)}")
        report.note(f"{name}: operators {sorted(exp.operators)} ok")
    return report


def suite_thm31(rng, report, count=100, max_a=4, max_b=4):
    sig = _SUITE_SIGNATURE
    for k in range(count):
        frame = _sample_frames(rng, 1, max_a, max_b, _SUITE_SORTINGS)[0]
        model = gen.random_modal_model(frame, _VARS4, rng.randrange(10 ** 9))
        asg = gen.random_assignment(rng.randrange(10 ** 9), range(3),
                                    depth=2, num_vars=2, sig=sig)
        phi = gen.random_lattice_formula(rng.randrange(10 ** 9), 3, 3, sig)
        psi = gen.random_lattice_formula(rng.randrange(10 ** 9), 3, 3, sig)
        report.checked += 1
        rep = verify_translation_theorem(model, asg, sig, phi, psi)
        if not rep.ok:
            report.fail(
                f"instance {k}: phi={print_lattice(phi)} "
                f"psi={print_lattice(psi)}",
                fileio.dump_modal_model(model))
    report.note(f"instances: {count}")
    return report


def suite_cor31(rng, report, count=50):
    sig = _SUITE_SIGNATURE
    frames = [random_frame(2, 2, _SUITE_SORTINGS, 0.5, seed=101),
              random_frame(3, 2, _SUITE_SORTINGS, 0.4, seed=102),
              random_frame(2, 3, _SUITE_SORTINGS, 0.7, seed=103)]
    for k in range(count):
        phi = gen.random_lattice_formula(rng.randrange(10 ** 9), 3, 3, sig)
        asg = gen.random_assignment(rng.randrange(10 ** 9), range(3),
                                    depth=1, num_vars=1, sig=sig)
        alpha = translate("bullet", phi, asg, sig)
        report.checked += 1
        if not is_stable_modal(alpha, frames, modal_vars(alpha)):
            report.fail(f"unstable bullet translation of {print_lattice(phi)}")
        # range constructor: every boxed formula is a translation output
        beta = gen.random_modal_formula(rng.randrange(10 ** 9), 2, Sort.DEL,
                                        2, sig)
        report.checked += 1
        if translate("bullet", LVar(0), {0: beta}, sig) != MBbox(beta):
            report.fail(f"range constructor missed [b] {print_modal(beta)}")
    report.note(f"instances: {count}, frames: {len(frames)}")
    return report


def _predval_of(model):
    return {MVar(s, i).name: model.var(s, i) for (s, i) in model.valuation}


def suite_prop41(rng, report, count=200, max_a=4, max_b=4):
    sig = _SUITE_SIGNATURE
    for k in range(count):
        frame = _sample_frames(rng, 1, max_a, max_b, _SUITE_SORTINGS)[0]
        model = gen.random_modal_model(frame, _VARS4, rng.randrange(10 ** 9))
        sort = Sort.ONE if k % 2 == 0 else Sort.DEL
        theta = gen.random_modal_formula(rng.randrange(10 ** 9), 3, sort,
                                         2, sig)
        st = std_translate(theta, "u")
        point = rng.choice(sorted(frame.carrier(sort)))
        report.checked += 1
        if sat_modal(model, point, theta) != eval_fol(
                frame, _predval_of(model), {"u": point}, st):
            report.fail(f"ST disagreement at {point} for "
                        f"{print_modal(theta)}",
                        fileio.dump_modal_model(model))
    report.note(f"instances: {count}")
    return report


def suite_sortreduce(rng, report, count=200, max_a=4, max_b=4):
    sig = _SUITE_SIGNATURE
    for k in range(count):
        frame = _sample_frames(rng, 1, max_a, max_b, _SUITE_SORTINGS)[0]
        model = gen.random_modal_model(frame, _VARS4, rng.randrange(10 ** 9))
        predval = _predval_of(model)
        phi = gen.random_fol_sentence(rng.randrange(10 ** 9), 4, sig)
        report.checked += 1
        if eval_fol(frame, predval, {}, phi) != \
                eval_fol(frame, predval, {}, sort_reduce(phi)):
            report.fail(f"sort reduction disagreement for {print_fol(phi)}",
                        fileio.dump_frame(frame))
        for sentence in sorting_constraint_sentences(frame):
            report.checked += 1
            if not eval_fol(frame, predval, {}, sentence):
                report.fail(f"constraint sentence fails: "
                            f"{print_fol(sentence)}",
                            fileio.dump_frame(frame))
    report.note(f"instances: {count}")
    return report


def suite_axioms(rng, report, count=100, max_a=4, max_b=4,
                 serial_only=False):
    frames = _sample_frames(rng, count, max_a, max_b)
    non_serial = SortedFrame(["a0", "a1"], ["b0", "b1"], [])
    frames.append(non_serial)
    serial_count = 0
    d_refuted = 0
    for frame in frames:
        serial = frame.check_seriality()
        if serial_only and not serial:
            continue
        for name, axiom, vars_in_use in k_axioms() + b_axioms():
            report.checked += 1
            ok, witness = frame_valid_modal(frame, axiom, vars_in_use)
            if not ok:
                report.fail(f"{name} fails", fileio.dump_frame(frame))
        for name, axiom, vars_in_use in d_axioms():
            report.checked += 1
            ok, _ = frame_valid_modal(frame, axiom, vars_in_use)
            if serial:
                serial_count += 1
                if not ok:
                    report.fail(f"{name} fails on serial frame",
                                fileio.dump_frame(frame))
            elif not ok:
                d_refuted += 1
    report.note(f"frames: {len(frames)}, serial D-checks: {serial_count}, "
                f"D refutations on non-serial frames: {d_refuted}")
    if not serial_only and d_refuted == 0:
        report.fail("no non-serial frame refuted a D-axiom")
    return report


# formulas checked on every model pair of the bisim-invariance suite
_CORPUS_SIZE = 500


def suite_bisim_invariance(rng, report, count=50):
    sig = _SUITE_SIGNATURE
    vars_ = [(Sort.ONE, 0), (Sort.DEL, 0)]
    corpus = gen.random_modal_corpus(rng.randrange(10 ** 9), _CORPUS_SIZE,
                                     depth=3, num_vars=1, sig=sig)
    union_checked = 0
    for k in range(count):
        small = k % 5 == 0
        hi = 2 if small else 3
        f1 = random_frame(rng.randrange(2, hi + 1), rng.randrange(2, hi + 1),
                          _SUITE_SORTINGS, rng.random(), rng.randrange(10 ** 9))
        f2 = random_frame(rng.randrange(2, hi + 1), rng.randrange(2, hi + 1),
                          _SUITE_SORTINGS, rng.random(), rng.randrange(10 ** 9))
        m1 = gen.random_modal_model(f1, vars_, rng.randrange(10 ** 9))
        m2 = gen.random_modal_model(f2, vars_, rng.randrange(10 ** 9))
        big = largest_bisimulation(m1, m2)
        report.checked += 1
        if not is_model_bisimulation(m1, m2, big):
            report.fail(f"instance {k}: fixpoint output is not a bisimulation")
            continue
        # invariance over the formula corpus
        for theta in corpus:
            t1, t2 = truth_set(m1, theta), truth_set(m2, theta)
            pairs = big.pairs_a if theta.sort is Sort.ONE else big.pairs_b
            for w, w2 in pairs:
                report.checked += 1
                if (w in t1) != (w2 in t2):
                    report.fail(f"instance {k}: {print_modal(theta)} "
                                f"separates bisimilar pair ({w},{w2})")
        # distinguishing formulas for excluded pairs
        bound = equivalence_depth_bound(m1, m2)
        candidates = [(a, a2) for a in f1.points_a for a2 in f2.points_a
                      if (a, a2) not in big.pairs_a]
        candidates += [(b, b2) for b in f1.points_b for b2 in f2.points_b
                       if (b, b2) not in big.pairs_b]
        for w, w2 in sorted(candidates):
            report.checked += 1
            try:
                eq, theta = modal_equiv(m1, w, m2, w2, bound)
            except PreconditionError as exc:
                report.fail(f"instance {k}: no distinguishing formula for "
                            f"excluded pair ({w},{w2}): {exc}")
                continue
            if eq or not sat_modal(m1, w, theta) or sat_modal(m2, w2, theta):
                report.fail(f"instance {k}: bad distinguishing formula for "
                            f"({w},{w2})")
        if small:
            union_checked += 1
            union = all_bisimulations_union(m1, m2)
            report.checked += 1
            if (big.pairs_a, big.pairs_b) != (union.pairs_a, union.pairs_b):
                report.fail(f"instance {k}: fixpoint differs from the union "
                            "of all bisimulations")
    report.note(f"model pairs: {count}, corpus: {_CORPUS_SIZE}, "
                f"exhaustive union checks: {union_checked}")
    return report


def suite_stability(rng, report, count=50):
    sig = catalog.default_signature()
    family = catalog.default_model_family()
    for k in range(count):
        phi = gen.random_lattice_formula(rng.randrange(10 ** 9), 3, 3, sig)
        asg = gen.random_assignment(rng.randrange(10 ** 9), range(3),
                                    depth=2, num_vars=2, sig=sig)
        alpha = translate("bullet", phi, asg, sig)
        st = std_translate(alpha, "u")
        report.checked += 1
        ok, witness = is_stable_fol(st, "u", family)
        if not ok:
            report.fail(f"translation of {print_lattice(phi)} unstable "
                        f"at {witness}")
    # unstable control: a bare predicate with a non-closed interpretation
    report.checked += 1
    ok, witness = is_stable_fol(FPred("P0", FVar("u", Sort.ONE)), "u", family)
    if ok:
        report.fail("control formula P0(u) unexpectedly stable")
    else:
        report.note(f"control P0(u) unstable with witness {witness}")
    report.note(f"instances: {count}, family size: {len(family)}")
    return report


_SUITES = {
    "galois": suite_galois,
    "concepts": suite_concepts,
    "prop21": suite_prop21,
    "thm31": suite_thm31,
    "cor31": suite_cor31,
    "prop41": suite_prop41,
    "sortreduce": suite_sortreduce,
    "axioms": suite_axioms,
    "bisim-invariance": suite_bisim_invariance,
    "stability": suite_stability,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, **params) -> SuiteReport:
    """Run one suite.  A parameter given as None takes the suite's
    default; one the suite does not take, or a count below 1, is rejected."""
    if name not in _SUITES:
        raise PreconditionError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = _SUITES[name]
    params = {k: v for k, v in params.items() if v is not None}
    # every suite's first two parameters are the generator and the report
    takes = list(inspect.signature(suite).parameters)[2:]
    unknown = sorted(params.keys() - takes)
    if unknown:
        raise PreconditionError(
            f"suite {name} does not take {', '.join(unknown)}")
    if params.get("count", 1) < 1:
        raise PreconditionError(f"count must be at least 1, not {params['count']}")
    rng = random.Random(seed)
    report = SuiteReport(name)
    start = time.monotonic()
    suite(rng, report, **params)
    report.elapsed = time.monotonic() - start
    return report
