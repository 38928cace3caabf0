"""Bundled lattices, default frames and the random generators."""

import pytest

from polarmodal import catalog, gen
from polarmodal.errors import PreconditionError
from polarmodal.frames import Sort
from polarmodal.syntax import Signature, modal_depth, modal_vars


def test_catalog_names():
    names = catalog.catalog_names()
    assert "chain2" in names and "b4" in names and "n5" in names
    with pytest.raises(PreconditionError):
        catalog.catalog_lattice("chain99")


def test_catalog_lattices():
    assert len(catalog.chain(4).carrier) == 4
    b4 = catalog.boolean4()
    assert b4.join("x", "y") == "i"
    m3 = catalog.m3()
    # m3 is modular but not distributive
    x, y, z = "x", "y", "z"
    assert m3.meet(x, m3.join(y, z)) != m3.join(m3.meet(x, y), m3.meet(x, z))
    n5 = catalog.n5()
    assert len(n5.carrier) == 5


def test_distributive_members_have_residuals():
    for name in ("chain3", "b4"):
        exp = catalog.catalog_expansion(name)
        assert {"m", "w", "r", "l"} <= set(exp.operators)
    for name in ("m3", "n5"):
        exp = catalog.catalog_expansion(name)
        assert "r" not in exp.operators


def test_canonical_frames_and_signature():
    frames = catalog.catalog_canonical_frames()
    assert set(frames) == set(catalog.catalog_names())
    exp = catalog.catalog_expansion("b4")
    sig = Signature.of({n: d for n, (d, _) in exp.operators.items()})
    assert "m" in sig and sig.get("m").arity == 2


def test_default_frames():
    ref = catalog.reference_frame()
    assert ref.incidence == {("a0", "b1"), ("a1", "b0")}
    control = catalog.unstable_control_frame()
    assert control.incidence == frozenset()
    assert control.stable_sets() == [control.points_a]


def test_default_model_family():
    family = catalog.default_model_family()
    assert len(family) == 4
    for frame, predval in family:
        assert "P0" in predval and "Q0" in predval
        assert predval["P0"] <= frame.points_a
        assert predval["Q0"] <= frame.points_b


def test_formula_generators_deterministic():
    one = gen.random_modal_formula(7, 3, Sort.ONE, 2)
    assert one == gen.random_modal_formula(7, 3, Sort.ONE, 2)
    assert one.sort is Sort.ONE
    assert modal_depth(gen.random_modal_formula(7, 0, Sort.DEL, 2)) == 0
    phi = gen.random_lattice_formula(7, 3, 2)
    assert phi == gen.random_lattice_formula(7, 3, 2)


def test_assignment_generator():
    asg = gen.random_assignment(3, [0, 1, 2])
    assert set(asg) == {0, 1, 2}
    assert all(beta.sort is Sort.DEL for beta in asg.values())


def test_model_generators():
    frame = catalog.reference_frame()
    vars_ = [(Sort.ONE, 0), (Sort.DEL, 0)]
    m = gen.random_modal_model(frame, vars_, 5)
    assert m.valuation == gen.random_modal_model(frame, vars_, 5).valuation
    assert m.var(Sort.ONE, 0) <= frame.points_a
    lm = gen.random_lattice_model(frame, [0, 1], 5)
    assert set(lm.valuation) == {0, 1}


def test_corpus_alternates_sorts():
    corpus = gen.random_modal_corpus(0, 10, 2, 1)
    assert len(corpus) == 10
    assert {theta.sort for theta in corpus} == {Sort.ONE, Sort.DEL}
    for theta in corpus:
        assert modal_depth(theta) <= 2
        assert all(i < 1 for _, i in modal_vars(theta))
