"""Command-line front end.

Exit codes: 0 = success / property holds, 1 = property fails (witness in
the report), 2 = usage, parse, sort or resource errors.  The environment
variable POLARMODAL_CAP bounds exhaustive valuation searches, the
quantifier instances of one FOL evaluation, or of the whole search for
`stable --fol`, the closed sets `concepts` enumerates, the subsets
`verify galois` checks and the nodes of a formula `gen` draws; a value
that is not a positive integer fails every command with exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import catalog, fileio, gen, suites
from .errors import CapExceeded, PolarModalError, PreconditionError
from .frames import Sort, canonical_frame, random_frame
from .semantics import lattice_extent, resource_cap, sat_modal, truth_set
from .bisim import SortedPairRelation, is_simulation, largest_bisimulation
from .syntax import (
    EMPTY_SIGNATURE, modal_vars, parse_fol, parse_lattice, parse_modal,
    print_fol, print_lattice, print_modal,
)
from .transform import is_stable_fol, is_stable_modal, std_translate, translate


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _signature(args):
    if getattr(args, "sig", None):
        return fileio.parse_signature_line(args.sig)
    return EMPTY_SIGNATURE


def cmd_eval(args) -> int:
    model = fileio.load_modal_model(_read(args.model))
    sig = _signature(args)
    theta = parse_modal(args.formula, sig)
    if args.point is not None:
        verdict = sat_modal(model, args.point, theta)
        print(f"formula: {print_modal(theta)}")
        print(f"point: {args.point}")
        print(f"verdict: {str(verdict).lower()}")
        return 0 if verdict else 1
    holds = truth_set(model, theta)
    carrier = model.frame.carrier(theta.sort)
    print(f"formula: {print_modal(theta)}")
    print("truth-set: " + " ".join(sorted(holds)))
    print(f"verdict: {str(holds == carrier).lower()}")
    return 0 if holds == carrier else 1


def cmd_extent(args) -> int:
    try:
        _, lattice_model = fileio.load_model(_read(args.model), close=args.close)
    except PreconditionError as exc:  # an unstable valuation; the remedy is a flag
        raise PreconditionError(str(exc).replace("close=True", "--close")) from None
    if lattice_model is None:
        raise PolarModalError("model file has no lattice valuation lines "
                              "(val p0 : ...)")
    sig = _signature(args)
    phi = parse_lattice(args.formula, sig)
    concept = lattice_extent(lattice_model, phi)
    print(f"formula: {args.formula.strip()}")
    print("extent: " + " ".join(sorted(concept.extent)))
    print("intent: " + " ".join(sorted(concept.intent)))
    return 0


def cmd_translate(args) -> int:
    sig = _signature(args)
    asg, sig = fileio.load_assignment(_read(args.asg), sig)
    phi = parse_lattice(args.formula, sig)
    print(print_modal(translate(args.mode, phi, asg, sig)))
    return 0


def cmd_sttrans(args) -> int:
    sig = _signature(args)
    theta = parse_modal(args.formula, sig)
    print(print_fol(std_translate(theta, args.var)))
    return 0


def cmd_stable(args) -> int:
    sig = _signature(args)
    if args.fol:
        free = {args.var: Sort.ONE}
        phi = parse_fol(args.formula, sig, free)
        family = catalog.default_model_family()
        ok, witness = is_stable_fol(phi, args.var, family)
        if ok:
            print("stable: true")
            return 0
        idx, point = witness
        print(f"stable: false (family model {idx}, point {point})")
        return 1
    alpha = parse_modal(args.formula, sig)
    if args.frame:
        frames = [fileio.load_frame(_read(p)) for p in args.frame]
    else:
        # the control frame has non-closed subsets, so bare variables
        # are correctly reported unstable by default
        frames = [catalog.reference_frame(), catalog.unstable_control_frame()]
    ok = is_stable_modal(alpha, frames, modal_vars(alpha))
    print(f"stable: {str(ok).lower()}")
    return 0 if ok else 1


def _load_pairs(text: str, f1) -> SortedPairRelation:
    pairs_a, pairs_b = set(), set()
    for lineno, line in fileio._lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise PolarModalError(f"pair line {lineno}: expected two points")
        w, w2 = tokens
        if w not in f1.points_a and w not in f1.points_b:
            raise PolarModalError(
                f"pair line {lineno}: point {w!r} is not in the first model")
        (pairs_a if w in f1.points_a else pairs_b).add((w, w2))
    return SortedPairRelation(frozenset(pairs_a), frozenset(pairs_b))


def cmd_bisim(args) -> int:
    m1 = fileio.load_modal_model(_read(args.model1))
    m2 = fileio.load_modal_model(_read(args.model2))
    if args.pairs:
        rel = _load_pairs(_read(args.pairs), m1.frame)
        for direction, f, g, r in (("forth", m1.frame, m2.frame, rel),
                                   ("back", m2.frame, m1.frame, rel.inverse())):
            ok, violation = is_simulation(f, g, r)
            if not ok:
                clause, pair, witness = violation
                print(f"violation ({direction}): clause {clause} at pair "
                      f"{pair} with witness {witness}")
                return 1
        print("bisimulation: true")
        return 0
    big = largest_bisimulation(m1, m2)
    for a, a2 in sorted(big.pairs_a):
        print(f"{a} {a2}")
    for b, b2 in sorted(big.pairs_b):
        print(f"{b} {b2}")
    print(f"# {len(big.pairs_a)} sort-1 pairs, {len(big.pairs_b)} sort-d pairs")
    return 0


def cmd_canon(args) -> int:
    exp = fileio.load_lattice_expansion(_read(args.lattice))
    print(fileio.dump_frame(canonical_frame(exp)), end="")
    return 0


def cmd_concepts(args) -> int:
    frame = fileio.load_frame(_read(args.frame))
    extents = frame.stable_sets()
    for extent in extents:
        print("extent: " + " ".join(sorted(extent))
              + " | intent: " + " ".join(sorted(frame.galois_right(extent))))
    print(f"# {len(extents)} concepts")
    return 0


def cmd_gen(args) -> int:
    sig = _signature(args)
    sortings = dict(sig.operators)
    if args.kind == "frame":
        frame = random_frame(args.size_a, args.size_b, sortings,
                             args.density, args.seed)
        print(fileio.dump_frame(frame), end="")
        return 0
    if args.kind == "model":
        if args.vars < 0:
            raise PreconditionError(f"--vars must be at least 0, not {args.vars}")
        frame = random_frame(args.size_a, args.size_b, sortings,
                             args.density, args.seed)
        vars_ = [(Sort.ONE, i) for i in range(args.vars)] + \
            [(Sort.DEL, i) for i in range(args.vars)]
        model = gen.random_modal_model(frame, vars_, args.seed + 1)
        print(fileio.dump_modal_model(model), end="")
        return 0
    if args.lang == "lattice":
        phi = gen.random_lattice_formula(args.seed, args.depth, 3, sig)
        print(print_lattice(phi))
    elif args.lang == "modal":
        sort = Sort.parse(args.sort)
        print(print_modal(gen.random_modal_formula(
            args.seed, args.depth, sort, 2, sig)))
    else:
        print(print_fol(gen.random_fol_sentence(args.seed, args.depth, sig)))
    return 0


def cmd_verify(args) -> int:
    report = suites.run_suite(
        args.suite, seed=args.seed, count=args.count,
        max_a=args.max_a, max_b=args.max_b, serial_only=args.serial_only,
    )
    print(report.render(), end="")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarmodal",
        description="Semantics and translations of lattice logics over "
                    "two-sorted polarity frames.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sig(p):
        p.add_argument("--sig", help="inline signature, e.g. 'f 1,1->1 , g d->d'")

    p = sub.add_parser("eval", help="evaluate a modal formula on a model")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--point")
    add_sig(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("extent", help="concept of a lattice formula on a model")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--close", action="store_true",
                   help="Galois-close non-stable valuations instead of rejecting")
    add_sig(p)
    p.set_defaults(func=cmd_extent)

    p = sub.add_parser("translate", help="modal translation of a lattice formula")
    p.add_argument("formula")
    p.add_argument("--mode", choices=["bullet", "circle"], default="bullet")
    p.add_argument("--asg", required=True, help="assignment file (p0 := ...)")
    add_sig(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("sttrans", help="standard translation into sorted FOL")
    p.add_argument("formula")
    p.add_argument("--var", default="u", help="free variable name")
    add_sig(p)
    p.set_defaults(func=cmd_sttrans)

    p = sub.add_parser("stable", help="stability of a modal or FOL formula")
    p.add_argument("formula")
    p.add_argument("--fol", action="store_true",
                   help="treat the input as FOL and use the catalog family")
    p.add_argument("--var", default="u")
    p.add_argument("--frame", action="append",
                   help="frame file (repeatable; modal mode only)")
    add_sig(p)
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("bisim", help="largest bisimulation or candidate check")
    p.add_argument("model1")
    p.add_argument("model2")
    p.add_argument("--pairs", help="candidate relation file (point pairs)")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("canon", help="canonical frame of a lattice expansion")
    p.add_argument("lattice")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("concepts", help="concept lattice of a frame")
    p.add_argument("frame")
    p.set_defaults(func=cmd_concepts)

    p = sub.add_parser("gen", help="generate random frames, models, formulas")
    p.add_argument("kind", choices=["frame", "model", "formula"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size-a", type=int, default=3)
    p.add_argument("--size-b", type=int, default=3)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--vars", type=int, default=2)
    p.add_argument("--lang", choices=["lattice", "modal", "fol"],
                   default="modal")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--sort", choices=["1", "d"], default="1")
    add_sig(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(suites.SUITE_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int)
    p.add_argument("--maxA", dest="max_a", type=int)
    p.add_argument("--maxB", dest="max_b", type=int)
    p.add_argument("--serial-only", action="store_true", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        resource_cap()
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except PolarModalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
