"""End-to-end verification suites, one test per guaranteed property.

Each test runs the corresponding suite at its default sizes and asserts
the aggregate verdict, so `pytest -v` gives one pass/fail line per
property.
"""

import functools
from pathlib import Path

import pytest

from polarmodal import semantics
from polarmodal.errors import CapExceeded
from polarmodal.frames import SortedFrame
from polarmodal.suites import SUITE_NAMES, run_suite

REPORTS = Path(__file__).parent / "data" / "suite_reports.txt"


@functools.cache
def report(name):
    """One run per suite at its defaults, shared by every test here."""
    return run_suite(name)


@pytest.fixture(scope="module")
def prop21_report():
    # the closed-operator and distribution checks share one suite run
    return report("prop21")


def _check(report):
    assert report.ok, "\n".join(str(f) for f in report.failures)
    assert report.checked > 0


def test_criterion_01_galois_closure_coincidence():
    _check(report("galois"))


def test_galois_subsets_draw_on_one_budget(monkeypatch):
    """The cap bounds the subsets of one run, not of each frame: a cap of
    exactly the run's subsets passes with the same report, one less raises
    before any subset of the side that would pass it is checked."""
    full = run_suite("galois", seed=3, count=6, max_a=6, max_b=6)
    monkeypatch.setattr(semantics, "DEFAULT_CAP", full.checked)
    assert run_suite("galois", seed=3, count=6, max_a=6, max_b=6).checked == \
        full.checked
    monkeypatch.setattr(semantics, "DEFAULT_CAP", full.checked - 1)
    with pytest.raises(CapExceeded,
                       match=f"^galois subsets exceed cap {full.checked - 1}$"):
        run_suite("galois", seed=3, count=6, max_a=6, max_b=6)


def test_criterion_02_concept_lattice_isomorphism():
    _check(report("concepts"))


def test_criterion_03_canonical_closed_operators(prop21_report):
    _check(prop21_report)


def test_criterion_04_join_distribution(prop21_report):
    _check(prop21_report)


def test_prop21_reports_an_operator_that_is_not_normal(monkeypatch):
    # every closed operator constant at its output carrier: the top for
    # output 1 and the bottom for output d, neither of them the sorted bottom
    def carrier(frame, name, args):
        return frame.carrier(frame.relation(name).sorting.output)

    monkeypatch.setattr(SortedFrame, "closed_op", carrier)
    bad = run_suite("prop21")
    assert not bad.ok
    assert all("does not preserve the sorted bottom" in f for f in bad.failures)


def test_criterion_05_translation_equalities():
    _check(report("thm31"))


def test_criterion_06_translation_range_stability():
    _check(report("cor31"))


def test_criterion_07_standard_translation_and_sort_reduction():
    _check(report("prop41"))
    _check(report("sortreduce"))


def test_criterion_08_bisimulation_invariance():
    _check(report("bisim-invariance"))


def test_criterion_09_stability_of_translations():
    _check(report("stability"))


def test_criterion_10_axiom_validity():
    _check(report("axioms"))


def test_reports_match_the_recorded_text():
    """Every line of the ten default reports but `# wall time`, as
    recorded in tests/data/suite_reports.txt."""
    recorded = {}
    for block in REPORTS.read_text(encoding="utf-8").split("suite ")[1:]:
        recorded[block.split("\n", 1)[0]] = "suite " + block
    assert list(recorded) == list(SUITE_NAMES)
    for name in SUITE_NAMES:
        lines = report(name).render().splitlines(keepends=True)
        assert lines[-1].startswith("# wall time ")
        assert "".join(lines[:-1]) == recorded[name], name
