"""Bullet/circle translations, standard translation and stability."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from polarmodal import catalog, gen, semantics
from polarmodal.catalog import D1_1, D11_1, DD_D
from polarmodal.errors import CapExceeded, PreconditionError, SortError
from polarmodal.frames import Sort, SortedFrame, random_frame
from polarmodal.semantics import eval_fol, truth_set
from polarmodal.syntax import (
    FForall, FImp, FInc, FPred, FVar, Signature, modal_vars,
    parse_fol, parse_lattice, parse_modal, print_fol, print_modal,
)
from polarmodal.transform import (
    induced_model, is_stable_fol, is_stable_modal, stability_transform,
    std_translate, translate, verify_translation_theorem,
)

from conftest import SetKernels, stable_by_sets, stable_fol_oracle

SIG = Signature.of({"f": D1_1, "g": DD_D, "h": D11_1})
SORTINGS = dict(SIG.operators)


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
    frame = random_frame(3, 3, SORTINGS, 0.5, seed)
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
    # a free variable named like a bound one moves the counter past it
    phi = std_translate(parse_modal("[b] <d> P0"), "u1")
    assert print_fol(phi) == "alld v1 . I(u1, v1) -> ex1 u2 . I(u2, v1) & P0(u2)"
    assert parse_fol(print_fol(phi), free={"u1": Sort.ONE}) == phi


@pytest.mark.parametrize("name", ["u u", "all1", "exd", "U", "1u", "u-v", "u\n", ""])
def test_std_translate_rejects_names_that_do_not_parse_back(name):
    # FOL variable names follow the parser's rule: a binder keyword is none
    with pytest.raises(PreconditionError, match="bad variable name"):
        std_translate(parse_modal("P0"), name)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 3),
       st.sampled_from([Sort.ONE, Sort.DEL]))
def test_std_translate_agreement(seed, depth, sort):
    frame = random_frame(3, 2, SORTINGS, 0.5, seed)
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
    # past a taken suffix too: v and v1, z and z1 are all bound in phi
    taken = parse_fol("alld v . alld v1 . ex1 z . ex1 z1 . "
                      "I(u, v) & I(z, v1) & P0(z1)", free={"u": Sort.ONE})
    assert print_fol(stability_transform(taken, "u")) == (
        "alld v2 . I(u, v2) -> ex1 z2 . I(z2, v2) & (alld v . alld v1 . "
        "ex1 z . ex1 z1 . I(z2, v) & I(z, v1) & P0(z1))")


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


def test_is_stable_fol_compiles_once_per_call(fol_compiles):
    family = catalog.default_model_family()
    assert len(family) == 4
    phi = std_translate(parse_modal("[b] <d> P0"), "u")
    assert is_stable_fol(phi, "u", family) == (True, None)
    assert fol_compiles == [phi]
    bare = parse_fol("P0(u)", free={"u": Sort.ONE})
    assert is_stable_fol(bare, "u", family)[0] is False
    assert fol_compiles == [phi, bare]


def test_is_stable_fol_draws_on_one_budget(monkeypatch):
    """Two copies of a model need exactly twice the quantifier instances
    of one: the cap bounds the whole search, not each model or point."""
    family = catalog.default_model_family()[:1]
    boxed = std_translate(parse_modal("[b] Q0"), "u")

    def verdict(cap, models):
        monkeypatch.setattr(semantics, "DEFAULT_CAP", cap)
        try:
            return is_stable_fol(boxed, "u", models)
        except CapExceeded:
            return None

    need = next(cap for cap in itertools.count(1)
                if verdict(cap, family) is not None)
    assert need > 2  # more than one evaluation's worth
    assert verdict(2 * need - 1, family * 2) is None
    assert verdict(2 * need, family * 2) == (True, None)


def test_is_stable_modal():
    frames = [catalog.reference_frame(), catalog.unstable_control_frame()]
    assert is_stable_modal(parse_modal("[b] Q0"), frames, [(Sort.DEL, 0)])
    assert not is_stable_modal(parse_modal("P0"), frames, [(Sort.ONE, 0)])
    with pytest.raises(SortError):
        is_stable_modal(parse_modal("Q0"), frames, [(Sort.DEL, 0)])


def test_is_stable_modal_matches_set_oracle():
    sig = catalog.default_signature()
    sortings = dict(sig.operators)
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


def random_family(rng):
    """One to three random frames of 1-4 points per sort over SIG, each
    with P0, P1, Q0 and Q1 valued at random.  Density 0 or a low one
    leaves points without I-neighbours, so some frames are not serial."""
    family = []
    for _ in range(rng.randint(1, 3)):
        frame = random_frame(rng.randint(1, 4), rng.randint(1, 4), SORTINGS,
                             rng.choice([0.0, 0.2, rng.random()]),
                             rng.randrange(10 ** 6))
        predval = {}
        for stem, carrier in (("P", frame.points_a), ("Q", frame.points_b)):
            for i in range(2):
                predval[f"{stem}{i}"] = frozenset(
                    p for p in sorted(carrier) if rng.random() < 0.5)
        family.append((frame, predval))
    return family


def random_stability_input(seed):
    """A sort-1 FOL formula with free u: the bare P0(u) control, the
    standard translation of a random modal formula or that of a bullet
    translation, which is always stable."""
    rng = random.Random(seed)
    if seed % 10 == 0:
        return parse_fol("P0(u)", free={"u": Sort.ONE})
    if seed % 2:
        alpha = gen.random_modal_formula(rng, rng.randint(0, 3), Sort.ONE, 2, SIG)
    else:
        phi = gen.random_lattice_formula(rng, rng.randint(0, 2), 2, SIG)
        asg = gen.random_assignment(rng, range(2), 1, 2, SIG)
        alpha = translate("bullet", phi, asg, SIG)
    return std_translate(alpha, "u")


def test_is_stable_fol_matches_oracle():
    verdicts = set()
    for seed in range(300):
        phi = random_stability_input(seed)
        family = random_family(random.Random(10 ** 6 + seed))
        answer = is_stable_fol(phi, "u", family)
        assert answer == stable_fol_oracle(phi, "u", family), seed
        verdicts.add(answer[0])
    assert verdicts == {True, False}


def test_is_stable_fol_least_cap_sums_the_points(monkeypatch):
    """On a one-model family the cap counts phi's quantifier instances
    at each point of A and nothing else.  phi starts with a quantifier,
    so every point needs at least one instance."""
    phi = std_translate(parse_modal("<b> (Q0 & <d> P0) | [b] <d> P1"), "u")

    def least_cap(call):
        for cap in itertools.count(1):
            monkeypatch.setattr(semantics, "DEFAULT_CAP", cap)
            try:
                call()
            except CapExceeded:
                continue
            return cap

    for frame, predval in catalog.default_model_family():
        per_point = [least_cap(lambda: eval_fol(frame, predval, {"u": a}, phi))
                     for a in sorted(frame.points_a)]
        assert least_cap(lambda: is_stable_fol(
            phi, "u", [(frame, predval)])) == sum(per_point)


def test_is_stable_fol_rejects_uninterpreted_names():
    """Names are checked on every model before any is evaluated: the
    first model here is unstable for phi, and only the second lacks h."""
    control, predval = catalog.default_model_family()[1]
    h = random_frame(2, 1, {"h": SORTINGS["h"]}, 0.5, 0).relation("h")
    with_h = SortedFrame(control.points_a, control.points_b,
                         control.incidence, {"h": h})
    family = [(with_h, predval), catalog.default_model_family()[0]]
    phi = parse_fol("P0(u) & (h(u, u, u) | ~h(u, u, u))", SIG,
                    free={"u": Sort.ONE})
    assert stable_fol_oracle(phi, "u", family) == (False, (0, "a0"))
    with pytest.raises(PreconditionError,
                       match="^no relation named 'h' in frame$"):
        is_stable_fol(phi, "u", family)
    # the least missing name is reported, P7 before h
    phi = parse_fol("P7(u) | h(u, u, u)", SIG, free={"u": Sort.ONE})
    with pytest.raises(PreconditionError,
                       match="^predicate P7 has no interpretation$"):
        is_stable_fol(phi, "u", family)
    # the sorting guards need no interpretation
    guard = FPred("U1", FVar("u", Sort.ONE))
    assert is_stable_fol(guard, "u", family) == (True, None)


def test_stability_transform_agrees_with_closure(f0):
    """The lemma `is_stable_fol` rests on: on any model, the transform of
    phi holds exactly on [b]<d> of phi's extension, which is its closure."""
    bare = parse_fol("P0(u)", free={"u": Sort.ONE})
    cases = [(bare, [(frame, {"P0": frozenset(val)})
                     for frame in (f0, catalog.unstable_control_frame())
                     for val in ([], ["a0"], ["a0", "a1"])])]
    cases += [(random_stability_input(seed),
               random_family(random.Random(10 ** 6 + seed)))
              for seed in range(100)]
    for phi, family in cases:
        closed = stability_transform(phi, "u")
        for frame, predval in family:
            kernels = SetKernels(frame)

            def extension(psi):
                return frozenset(a for a in frame.points_a
                                 if eval_fol(frame, predval, {"u": a}, psi))
            ext = extension(phi)
            assert extension(closed) == kernels.box_ba(kernels.dia_ab(ext)) \
                == frame.closure(Sort.ONE, ext), print_fol(phi)
