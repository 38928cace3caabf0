"""Bullet/circle translations, standard translation and stability."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import catalog, gen
from polarmodal.catalog import D1_1, D11_1, DD_D
from polarmodal.errors import PreconditionError, SortError
from polarmodal.frames import Sort, SortedFrame, random_frame
from polarmodal.semantics import eval_fol, truth_set
from polarmodal.syntax import (
    FForall, FImp, FInc, FPred, FVar, MBbox, MDdia, Signature, modal_vars,
    parse_fol, parse_lattice, parse_modal, print_fol, print_modal,
)
from polarmodal.transform import (
    induced_model, is_stable_fol, is_stable_modal, stability_transform,
    std_translate, translate, verify_translation_theorem,
)

from conftest import SetKernels, powerset

SIG = Signature.of({"f": D1_1, "g": DD_D, "h": D11_1})


def asg_of(*texts):
    return {i: parse_modal(t) for i, t in enumerate(texts)}


# ---------------------------------------------------------------- bullet/circle

def test_translate_variable_is_box():
    beta = parse_modal("Q0")
    out = translate("bullet", parse_lattice("p0"), {0: beta}, SIG)
    assert print_modal(out) == "[b] Q0"
    circ = translate("circle", parse_lattice("p0"), {0: beta}, SIG)
    assert print_modal(circ) == "[d] <b> ~Q0"
    assert out.sort is Sort.ONE and circ.sort is Sort.DEL


def test_translate_connectives():
    asg = asg_of("Q0", "Q1")
    join = translate("bullet", parse_lattice("p0 \\/ p1"), asg, SIG)
    assert print_modal(join) == "[b] (<d> [b] Q0 | <d> [b] Q1)"
    meet = translate("bullet", parse_lattice("p0 /\\ p1"), asg, SIG)
    assert print_modal(meet) == "[b] Q0 & [b] Q1"
    top = translate("circle", parse_lattice("top"), asg, SIG)
    assert print_modal(top) == "[d] bot"


def test_translate_operator_sorts():
    asg = asg_of("Q0", "Q1")
    out = translate("bullet", parse_lattice("g(p0)", SIG), asg, SIG)
    # output-d operator: bullet side goes through the circle form
    assert print_modal(out) == "[b] ~[d] <b> g([d] <b> ~Q0)"
    assert out.sort is Sort.ONE
    both = translate("bullet", parse_lattice("h(p0, p1)", SIG), asg, SIG)
    assert print_modal(both) == "[b] <d> h([b] Q0, [b] Q1)"


def test_translate_preconditions():
    with pytest.raises(PreconditionError):
        translate("bullet", parse_lattice("p0"), {}, SIG)
    with pytest.raises(SortError):
        translate("bullet", parse_lattice("p0"), {0: parse_modal("P0")}, SIG)
    with pytest.raises(PreconditionError):
        translate("sideways", parse_lattice("p0"), asg_of("Q0"), SIG)


def test_induced_model(f0):
    from polarmodal.semantics import ModalModel
    m = ModalModel(f0, {(Sort.DEL, 0): {"b1"}})
    induced = induced_model(m, asg_of("Q0"))
    # box of {b1} on this frame is {a0}
    assert induced.valuation[0] == {"a0"}
    with pytest.raises(SortError):
        induced_model(m, {0: parse_modal("P0")})


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_translation_theorem_random(seed):
    sortings = {n: SIG.get(n).sorting() for n in SIG.names()}
    frame = random_frame(3, 3, sortings, 0.5, seed)
    phi = gen.random_lattice_formula(seed, 3, 2, SIG)
    psi = gen.random_lattice_formula(seed + 1, 3, 2, SIG)
    asg = gen.random_assignment(seed + 2, [0, 1], 2, 2, SIG)
    model = gen.random_modal_model(frame, [(Sort.DEL, 0), (Sort.DEL, 1)], seed)
    report = verify_translation_theorem(model, asg, SIG, phi, psi)
    assert report.ok, (report.extent_chains, report.consequence_triple)


def test_translation_report_detects_mismatch(f0):
    from polarmodal.transform import TranslationReport
    bad = TranslationReport(
        ([frozenset(), frozenset({"a0"})], [frozenset()]),
        ([frozenset()], [frozenset()]),
        (True, True, True))
    assert not bad.ok
    uneven = TranslationReport(
        ([frozenset()], [frozenset()]), ([frozenset()], [frozenset()]),
        (True, False, True))
    assert not uneven.ok


# ---------------------------------------------------------------- standard

def test_std_translate_examples():
    assert print_fol(std_translate(parse_modal("[b] Q0"), "u")) == \
        "alld v1 . I(u, v1) -> Q0(v1)"
    assert print_fol(std_translate(parse_modal("<d> P0"), "v")) == \
        "ex1 u1 . I(u1, v) & P0(u1)"
    assert print_fol(std_translate(parse_modal("P0 -> P1"), "u")) == \
        "P0(u) -> P1(u)"
    assert print_fol(std_translate(parse_modal("h(P0, P1)", SIG), "u")) == \
        "ex1 u1 . ex1 u2 . h(u, u1, u2) & P0(u1) & P1(u2)"


def test_std_translate_fresh_variables():
    phi = std_translate(parse_modal("[b] [d] [b] Q0"), "u")
    assert print_fol(phi) == \
        "alld v1 . I(u, v1) -> all1 u1 . I(u1, v1) -> " \
        "alld v2 . I(u1, v2) -> Q0(v2)"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 3),
       st.sampled_from([Sort.ONE, Sort.DEL]))
def test_std_translate_agreement(seed, depth, sort):
    frame = random_frame(3, 2, {n: SIG.get(n).sorting() for n in SIG.names()},
                         0.5, seed)
    theta = gen.random_modal_formula(seed, depth, sort, 2, SIG)
    model = gen.random_modal_model(
        frame, [(s, i) for s in (Sort.ONE, Sort.DEL) for i in range(2)], seed)
    predval = {("P" if s is Sort.ONE else "Q") + str(i): pts
               for (s, i), pts in model.valuation.items()}
    fol = std_translate(theta, "w")
    for point in sorted(frame.carrier(sort)):
        assert (point in truth_set(model, theta)) == \
            eval_fol(frame, predval, {"w": point}, fol)


# ---------------------------------------------------------------- stability

def test_stability_transform_shape():
    phi = parse_fol("P0(u)", free={"u": Sort.ONE})
    closed = stability_transform(phi, "u")
    assert print_fol(closed) == "alld v . I(u, v) -> ex1 z . I(z, v) & P0(z)"
    # bound names are picked fresh against the input
    reuse = parse_fol("alld v . I(u, v)", free={"u": Sort.ONE})
    assert "v1" in print_fol(stability_transform(reuse, "u"))


def test_stability_transform_preconditions():
    with pytest.raises(PreconditionError):
        stability_transform(parse_fol("ex1 u . P0(u)"), "u")  # no free u
    two = parse_fol("P0(u) & P0(z)", free={"u": Sort.ONE, "z": Sort.ONE})
    with pytest.raises(PreconditionError):
        stability_transform(two, "u")


def test_is_stable_fol_control():
    family = catalog.default_model_family()
    bare = parse_fol("P0(u)", free={"u": Sort.ONE})
    ok, witness = is_stable_fol(bare, "u", family)
    assert not ok
    idx, point = witness
    assert point in family[idx][0].points_a
    boxed = std_translate(parse_modal("[b] Q0"), "u")
    ok, _ = is_stable_fol(boxed, "u", family)
    assert ok
    with pytest.raises(PreconditionError):
        is_stable_fol(bare, "u", [])


def test_is_stable_modal():
    frames = [catalog.reference_frame(), catalog.unstable_control_frame()]
    assert is_stable_modal(parse_modal("[b] Q0"), frames, [(Sort.DEL, 0)])
    assert not is_stable_modal(parse_modal("P0"), frames, [(Sort.ONE, 0)])
    with pytest.raises(SortError):
        is_stable_modal(parse_modal("Q0"), frames, [(Sort.DEL, 0)])


def stable_by_sets(alpha, frames, vars_in_use):
    """`is_stable_modal` by set kernels, one powerset valuation at a time."""
    boxed = MBbox(MDdia(alpha))
    keys = list(vars_in_use)
    for frame in frames:
        kernels = SetKernels(frame)
        subsets = [list(powerset(frame.carrier(sort))) for sort, _ in keys]
        for choice in itertools.product(*subsets):
            valuation = dict(zip(keys, choice))
            if kernels.truth_set(valuation, alpha) != \
                    kernels.truth_set(valuation, boxed):
                return False
    return True


def test_is_stable_modal_matches_set_oracle():
    sig = catalog.default_signature()
    sortings = {name: sig.get(name).sorting() for name in sig.names()}
    verdicts = set()
    for seed in range(60):
        rng = random.Random(seed)
        frames = [random_frame(rng.randint(1, 3), rng.randint(1, 3), sortings,
                               rng.random(), rng.randrange(10 ** 6))
                  for _ in range(rng.randint(1, 2))]
        alpha = gen.random_modal_formula(rng, rng.randint(0, 3), Sort.ONE, 2, sig)
        vars_in_use = modal_vars(alpha)
        verdict = is_stable_modal(alpha, frames, vars_in_use)
        assert verdict == stable_by_sets(alpha, frames, vars_in_use), seed
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_stability_transform_agrees_with_closure(f0):
    # on any model, the transform of P0(u) holds exactly on closure(V(P0))
    for frame in (f0, catalog.unstable_control_frame()):
        for val in ([], ["a0"], ["a0", "a1"]):
            predval = {"P0": frozenset(val)}
            closed = stability_transform(
                parse_fol("P0(u)", free={"u": Sort.ONE}), "u")
            holds = frozenset(
                a for a in frame.points_a
                if eval_fol(frame, predval, {"u": a}, closed))
            assert holds == frame.closure(Sort.ONE, frozenset(val))
