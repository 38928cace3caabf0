import os
from pathlib import Path

import pytest

import polarmodal
from polarmodal import catalog
from polarmodal.frames import Sort, SortedFrame, SortedRelation, SortingType

# one relation of each catalog distribution type
ALL_TYPES = {"f": catalog.D1_1, "g": catalog.DD_D, "k": catalog.D11_1,
             "m": catalog.DDD_D, "h": catalog.D1D_D, "n": catalog.DD1_D}


@pytest.fixture
def f0():
    """The 2+2 reference frame: I = {(a0,b1), (a1,b0)}."""
    return SortedFrame(["a0", "a1"], ["b0", "b1"], [("a0", "b1"), ("a1", "b0")])


def make_rel(name, sorting, tuples):
    return SortedRelation(name, SortingType.parse(sorting),
                          frozenset(tuple(t) for t in tuples))


def with_relation(frame, rel):
    return SortedFrame(frame.points_a, frame.points_b, frame.incidence,
                       {**frame.relations, rel.name: rel})


def galois_dual(frame, name, args):
    """Galois image of the relation's section at `args`, by a tuple scan.

    The section is the set of heads of the tuples with arguments `args`;
    its image lies on the sort opposite to the relation's output.
    """
    rel = frame.relation(name)
    section = frozenset(t[0] for t in rel.tuples if t[1:] == tuple(args))
    if rel.sorting.output is Sort.ONE:
        return frame.galois_right(section)
    return frame.galois_left(section)


def hash_seed_env(hash_seed):
    """The environment for a child Python that imports this polarmodal
    under the given string hash seed."""
    src = str(Path(polarmodal.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
