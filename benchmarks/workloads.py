"""The three benchmark workloads: input generation, queries and checks.

Every workload has the same shape:

* `setup(seed, call, tiny)` builds a pool of queries from the seed alone;
* `query(item, call)` is one user request, timed from outside;
* `check(item, result)` compares the result with an expectation that
  does not come from the call under test, and returns a problem or None;
* `counts(item, result)` gives the per-layer work counts of one query;
* `TRACED` is the number of queries the traced run replays.

`call(fn, *args)` is the tracing hook of `tracing.py`; every call into
the library goes through it, so spans cover each layer from outside.
The library sees only frames, models and formula text.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
from collections import defaultdict
from enum import Enum

from polarmodal import bisim, catalog, fileio, gen, semantics, syntax, transform
from polarmodal.frames import Sort, SortedFrame, SortingType, random_frame

SORTINGS = {"f": SortingType(Sort.ONE, (Sort.ONE,)),
            "g": SortingType(Sort.DEL, (Sort.DEL,)),
            "h": SortingType(Sort.DEL, (Sort.ONE, Sort.DEL))}
SIG_FGH = syntax.Signature.of({"f": catalog.D1_1, "g": catalog.DD_D,
                               "h": catalog.D1D_D})
SIG_FG = catalog.default_signature()
SORTINGS_FG = {k: SORTINGS[k] for k in ("f", "g")}
VARS2 = [(Sort.ONE, 0), (Sort.DEL, 0)]
VARS4 = [(Sort.ONE, 0), (Sort.ONE, 1), (Sort.DEL, 0), (Sort.DEL, 1)]


def _seed(rng):
    return rng.randrange(1 << 30)


def _var_key(v):
    return (v[0].value, v[1])


def _grid(index, sizes):
    """The index-th (|A|, |B|) cell of the size grid.

    Inputs walk the grid instead of drawing sizes at random, so every run
    sees the same mix of sizes and costs have no gaps between sizes.
    Each run of len(sizes)**2 inputs visits every cell once, in steps of
    about 0.618 of the grid, so that any stretch of inputs, such as the
    queries a run has time for, mixes small and large cells evenly.
    """
    cells = len(sizes) ** 2
    step = next(s for s in range(round(cells * 0.618), cells)
                if math.gcd(s, cells) == 1)
    cell = index * step % cells
    return sizes[cell % len(sizes)], sizes[cell // len(sizes)]


# ----------------------------------------------------------------------
# Result digests, formula sizes and an independent Galois kernel

def canon(x) -> str:
    """A compact, order-free text rendering of a result, for digests."""
    if isinstance(x, (set, frozenset)):
        if x and _plain(next(iter(x))):
            return repr(sorted(x))
        return "{" + ",".join(sorted(canon(e) for e in x)) + "}"
    if isinstance(x, dict):
        return "{" + ",".join(sorted(canon(k) + ":" + canon(v)
                                     for k, v in x.items())) + "}"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(canon(e) for e in x) + ")"
    if isinstance(x, Enum):
        return str(x.value)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return type(x).__name__ + canon(
            [getattr(x, f.name) for f in dataclasses.fields(x)])
    if hasattr(x, "__dict__") and not callable(x):
        # frames and models: their public attributes define them
        return type(x).__name__ + canon(
            [(k, v) for k, v in sorted(vars(x).items()) if not k.startswith("_")])
    return repr(x)


def _plain(x) -> bool:
    """Points and point tuples, which sort correctly as they are."""
    return type(x) is str or (type(x) is tuple and all(type(e) is str for e in x))


def digest(x) -> str:
    return hashlib.sha256(canon(x).encode()).hexdigest()[:16]


def nodes(x) -> int:
    """Number of formula nodes (variables and constants included)."""
    if isinstance(x, (tuple, list)):
        return sum(nodes(e) for e in x)
    if not dataclasses.is_dataclass(x) or isinstance(x, syntax.FVar):
        return 0
    return 1 + sum(nodes(getattr(x, f.name)) for f in dataclasses.fields(x))


class Polarity:
    """Galois maps of a frame on int bitsets, written apart from `frames`."""

    def __init__(self, frame):
        self.a = {p: i for i, p in enumerate(sorted(frame.points_a))}
        self.b = {p: i for i, p in enumerate(sorted(frame.points_b))}
        self.succ = [0] * len(self.a)
        self.pred = [0] * len(self.b)
        for x, y in frame.incidence:
            self.succ[self.a[x]] |= 1 << self.b[y]
            self.pred[self.b[y]] |= 1 << self.a[x]
        self.full_a = (1 << len(self.a)) - 1
        self.full_b = (1 << len(self.b)) - 1

    @staticmethod
    def _mask(index, points):
        return sum(1 << index[p] for p in points)

    def right(self, mask):
        hit = 0
        for i, row in enumerate(self.succ):
            if mask >> i & 1:
                hit |= row
        return self.full_b & ~hit

    def left(self, mask):
        hit = 0
        for j, col in enumerate(self.pred):
            if mask >> j & 1:
                hit |= col
        return self.full_a & ~hit

    def stable_a(self, points):
        m = self._mask(self.a, points)
        return self.left(self.right(m)) == m

    def stable_b(self, points):
        m = self._mask(self.b, points)
        return self.right(self.left(m)) == m

    def right_of(self, points):
        r = self.right(self._mask(self.a, points))
        return frozenset(p for p, j in self.b.items() if r >> j & 1)

    def closed(self, in_a, mask):
        if in_a:
            return self.left(self.right(mask)) == mask
        return self.right(self.left(mask)) == mask

    def _index(self, sort):
        return self.a if sort is Sort.ONE else self.b

    def dual(self, rel):
        """Mask of the Galois image of each section of `rel`, by arguments."""
        out_a = rel.sorting.output is Sort.ONE
        heads = defaultdict(int)
        for t in rel.tuples:
            heads[t[1:]] |= 1 << self._index(rel.sorting.output)[t[0]]
        return {args: (self.right if out_a else self.left)(heads[args])
                for args in itertools.product(
                    *(sorted(self._index(s)) for s in rel.sorting.inputs))}

    def places(self, rel):
        """Every (position, fixed) section of the dual relation, as
        `SortedFrame.is_section_stable` names its witnesses."""
        inputs = rel.sorting.inputs
        for args in itertools.product(*(sorted(self._index(s)) for s in inputs)):
            yield 0, args
        heads = sorted(self._index(rel.sorting.output.opposite))
        for j in range(len(inputs)):
            others = [sorted(self._index(s))
                      for i, s in enumerate(inputs) if i != j]
            for head in heads:
                for rest in itertools.product(*others):
                    yield j + 1, (head,) + rest[:j] + ("_",) + rest[j:]

    def section(self, rel, dual, position, fixed):
        """(lies in A, mask) of one section of the dual relation."""
        dual_in_a = rel.sorting.output is Sort.DEL
        if position == 0:
            return dual_in_a, dual[fixed]
        j, sort = position - 1, rel.sorting.inputs[position - 1]
        bit = 1 << self._index(rel.sorting.output.opposite)[fixed[0]]
        args = list(fixed[1:])
        mask = 0
        for w, i in self._index(sort).items():
            args[j] = w
            if dual[tuple(args)] & bit:
                mask |= 1 << i
        return sort is Sort.ONE, mask

    def section_stable(self, rel, witness):
        """None if `(stable, witness)` is the right verdict for `rel`,
        else the problem."""
        dual = self.dual(rel)
        stable = all(self.closed(*self.section(rel, dual, *place))
                     for place in self.places(rel))
        if witness is None:
            return None if stable else "an unstable section was missed"
        if stable:
            return f"section {witness} is reported unstable, but all are closed"
        if self.closed(*self.section(rel, dual, *witness)):
            return f"witness section {witness} is closed"
        return None


# ----------------------------------------------------------------------
# frame-analysis: one mid-sized random frame per query

@dataclasses.dataclass
class FrameItem:
    frame: SortedFrame
    lattice_model: semantics.LatticeModel
    modal_model: semantics.ModalModel
    lattice_formulas: list
    modal_formulas: list


class FrameAnalysis:
    name = "frame-analysis"
    SIZES, TINY_SIZES = range(12, 21), range(4, 7)
    POOL, TINY_POOL = 2 * len(SIZES) ** 2, 6  # two frames per grid cell
    TRACED = 100
    DENSITY = 0.3

    def setup(self, seed, call, tiny=False):
        rng = random.Random(seed)
        sizes = self.TINY_SIZES if tiny else self.SIZES
        pool = []
        for k in range(self.TINY_POOL if tiny else self.POOL):
            frame = call(random_frame, *_grid(k, sizes),
                         SORTINGS, self.DENSITY, _seed(rng))
            lmodel = call(gen.random_lattice_model,
                          frame, range(3), _seed(rng))
            mmodel = call(gen.random_modal_model, frame, VARS4, _seed(rng))
            lformulas = [call(gen.random_lattice_formula, _seed(rng), 3, 3,
                              SIG_FGH) for _ in range(4)]
            mformulas = [call(gen.random_modal_formula, _seed(rng), 3,
                              Sort.ONE if j % 2 == 0 else Sort.DEL, 2, SIG_FGH)
                         for j in range(8)]
            pool.append(FrameItem(frame, lmodel, mmodel, lformulas, mformulas))
        return pool

    def query(self, item, call):
        frame = item.frame
        stable = call(frame.stable_sets)
        costable = call(frame.costable_sets)
        sections = [call(frame.is_section_stable, r)
                    for r in sorted(SORTINGS)]
        extents = [call(semantics.lattice_extent,
                        item.lattice_model, phi) for phi in item.lattice_formulas]
        truths = [call(semantics.truth_set,
                       item.modal_model, th) for th in item.modal_formulas]
        return stable, costable, sections, extents, truths

    def check(self, item, result):
        stable, costable, sections, extents, truths = result
        pol = Polarity(item.frame)
        for name, (verdict, witness) in zip(sorted(SORTINGS), sections):
            if verdict is not (witness is None):
                return f"{name}: section verdict {verdict} with witness {witness}"
            problem = pol.section_stable(item.frame.relations[name], witness)
            if problem:
                return f"{name}: {problem}"
        if len(stable) != len(costable):
            return f"{len(stable)} stable sets but {len(costable)} co-stable sets"
        if len(set(stable)) != len(stable) or len(set(costable)) != len(costable):
            return "an enumerated set occurs twice"
        if not all(pol.stable_a(s) for s in stable):
            return "an enumerated stable set is not closed"
        if not all(pol.stable_b(s) for s in costable):
            return "an enumerated co-stable set is not closed"
        for c in extents:
            if not pol.stable_a(c.extent) or c.intent != pol.right_of(c.extent):
                return "a lattice extent is not a concept"
        for th, t in zip(item.modal_formulas, truths):
            if not t <= item.frame.carrier(th.sort):
                return "a truth set leaves its sort's carrier"
        return None

    def counts(self, item, result):
        return {"frames.concepts": len(result[0])}


# ----------------------------------------------------------------------
# valuation-search: many tiny text queries, five kinds in equal shares

AXIOMS = {
    "K-sort1": "[b] (Q0 -> Q1) -> [b] Q0 -> [b] Q1",
    "K-sortd": "[d] (P0 -> P1) -> [d] P0 -> [d] P1",
    "B-sort1": "P0 -> [b] <d> P0",
    "B-sortd": "Q0 -> [d] <b> Q0",
    "D-sort1": "[b] Q0 -> <b> Q0",
    "D-sortd": "[d] P0 -> <d> P0",
}
CONTROL_FOL = "P0(u)"


@dataclasses.dataclass
class TextItem:
    """A query as a user sends it: files for `fileio`, formulas for `syntax`."""

    kind: str
    files: tuple
    formulas: tuple
    expect: object = None
    sizes: tuple = ()


def _predval(model):
    return {("P" if s is Sort.ONE else "Q") + str(i): model.var(s, i)
            for s, i in model.valuation}


def _vars_in_use(call, theta):
    return sorted(call(syntax.modal_vars, theta), key=_var_key)


def _bounded(make, limit):
    while True:
        formula = make()
        if nodes(formula) <= limit:
            return formula


class ValuationSearch:
    name = "valuation-search"
    KINDS = ("axiom", "bullet_stable", "std_translation", "fol_stable",
             "sort_reduction")
    POOL, TINY_POOL = 3000, 10
    TRACED = 1000
    SIZES, TINY_SIZES = (3, 4, 5, 6), (2, 3)
    STABILITY_SIZES = (2, 3)
    CONTROL_EVERY = 4
    # inputs are redrawn until they fall under these bounds, so that no
    # single query dominates a run
    MAX_SPACE = 2 ** 12
    MAX_LATTICE_NODES = 7
    MAX_ASSIGNMENT_NODES = 4
    MAX_MODAL_NODES = 12
    MAX_FOL_NODES = 14

    def setup(self, seed, call, tiny=False):
        rng = random.Random(seed)
        sizes = self.TINY_SIZES if tiny else self.SIZES
        self.family = call(catalog.default_model_family)
        pool = []
        for k in range(self.TINY_POOL if tiny else self.POOL):
            kind = self.KINDS[k % len(self.KINDS)]
            rank = k // len(self.KINDS)
            pool.append(getattr(self, "_make_" + kind)(call, rng, sizes, rank))
        return pool

    @staticmethod
    def _frame(call, rng, sizes, sortings, shape=None):
        size_a, size_b = shape or (rng.choice(sizes), rng.choice(sizes))
        return call(random_frame, size_a, size_b,
                    sortings, rng.uniform(0.2, 0.7), _seed(rng))

    def _model_text(self, call, rng, sizes):
        frame = self._frame(call, rng, sizes, SORTINGS_FG)
        model = call(gen.random_modal_model, frame, VARS4, _seed(rng))
        return call(fileio.dump_modal_model, model)

    def _translation_input(self, call, rng):
        """A lattice formula and an assignment file for it."""
        phi = _bounded(lambda: call(
            gen.random_lattice_formula, _seed(rng), 2, 2, SIG_FG),
            self.MAX_LATTICE_NODES)
        asg = [_bounded(lambda: call(
            gen.random_modal_formula, _seed(rng), 1, Sort.DEL, 1, SIG_FG),
            self.MAX_ASSIGNMENT_NODES)
            for _ in range(2)]
        asg_text = "".join(
            f"p{i} := " + call(syntax.print_modal, beta)
            + "\n" for i, beta in enumerate(asg))
        return call(syntax.print_lattice, phi), asg_text

    def _make_axiom(self, call, rng, sizes, rank):
        name = sorted(AXIOMS)[rank % len(AXIOMS)]
        # the search space grows as 4 ** size for K, so each axiom walks
        # the size grid
        shape = _grid(rank // len(AXIOMS), sizes)
        frame = self._frame(call, rng, sizes, SORTINGS_FG, shape)
        # seriality from the incidence pairs, not through check_seriality
        if name == "D-sort1":
            expect = {a for a, _ in frame.incidence} == set(frame.points_a)
        elif name == "D-sortd":
            expect = {b for _, b in frame.incidence} == set(frame.points_b)
        else:
            expect = True
        text = call(fileio.dump_frame, frame)
        return TextItem("axiom", (text,), (AXIOMS[name],), expect,
                        ((len(frame.points_a), len(frame.points_b)),))

    def _make_bullet_stable(self, call, rng, sizes, rank):
        while True:
            frames = [self._frame(call, rng, self.STABILITY_SIZES, SORTINGS_FG)
                      for _ in range(2)]
            # both P0 and Q0 may occur, so bound the space as if they do
            space = sum(2 ** (len(f.points_a) + len(f.points_b)) for f in frames)
            if space <= self.MAX_SPACE:
                break
        phi_text, asg_text = self._translation_input(call, rng)
        texts = tuple(call(fileio.dump_frame, f)
                      for f in frames)
        sizes = tuple((len(f.points_a), len(f.points_b)) for f in frames)
        return TextItem("bullet_stable", (asg_text,) + texts, (phi_text,),
                        True, sizes)

    def _make_std_translation(self, call, rng, sizes, rank):
        sort = Sort.ONE if rank % 2 == 0 else Sort.DEL
        theta = _bounded(lambda: call(
            gen.random_modal_formula, _seed(rng), 3, sort, 2, SIG_FG),
            self.MAX_MODAL_NODES)
        text = call(syntax.print_modal, theta)
        return TextItem("std_translation", (self._model_text(call, rng, sizes),),
                        (text,), True)

    def _make_fol_stable(self, call, rng, sizes, rank):
        if rank % self.CONTROL_EVERY == 0:
            return TextItem("fol_stable", (), (CONTROL_FOL,), False)
        phi_text, asg_text = self._translation_input(call, rng)
        return TextItem("fol_stable", (asg_text,), (phi_text,), True)

    def _make_sort_reduction(self, call, rng, sizes, rank):
        phi = _bounded(lambda: call(
            gen.random_fol_sentence, _seed(rng), 3, SIG_FG),
            self.MAX_FOL_NODES)
        text = call(syntax.print_fol, phi)
        return TextItem("sort_reduction", (self._model_text(call, rng, sizes),),
                        (text,), True)

    # ------------------------------------------------------------------

    def query(self, item, call):
        return getattr(self, "_q_" + item.kind)(item, call)

    def _q_axiom(self, item, call):
        frame = call(fileio.load_frame, item.files[0])
        theta = call(syntax.parse_modal, item.formulas[0])
        vars_in_use = _vars_in_use(call, theta)
        return call(semantics.frame_valid_modal,
                    frame, theta, vars_in_use), vars_in_use

    def _translation(self, call, phi_text, asg_text):
        phi = call(syntax.parse_lattice, phi_text, SIG_FG)
        asg, sig = call(fileio.load_assignment, asg_text, SIG_FG)
        return call(transform.translate, "bullet", phi, asg, sig)

    def _q_bullet_stable(self, item, call):
        alpha = self._translation(call, item.formulas[0], item.files[0])
        vars_in_use = _vars_in_use(call, alpha)
        frames = [call(fileio.load_frame, text)
                  for text in item.files[1:]]
        return call(transform.is_stable_modal,
                    alpha, frames, vars_in_use), vars_in_use

    def _q_std_translation(self, item, call):
        model = call(fileio.load_modal_model, item.files[0])
        theta = call(syntax.parse_modal, item.formulas[0], SIG_FG)
        st = call(transform.std_translate, theta, "u")
        predval = _predval(model)
        out = []
        for point in sorted(model.frame.carrier(theta.sort)):
            modal = call(semantics.sat_modal, model, point, theta)
            fol = call(semantics.eval_fol, model.frame,
                       predval, {"u": point}, st)
            out.append((point, modal, fol))
        return out

    def _q_fol_stable(self, item, call):
        if item.files:
            alpha = self._translation(call, item.formulas[0], item.files[0])
            st = call(transform.std_translate, alpha, "u")
        else:
            st = call(syntax.parse_fol, item.formulas[0],
                      SIG_FG, {"u": Sort.ONE})
        return call(transform.is_stable_fol, st, "u", self.family)

    def _q_sort_reduction(self, item, call):
        model = call(fileio.load_modal_model, item.files[0])
        phi = call(syntax.parse_fol, item.formulas[0], SIG_FG)
        predval = _predval(model)
        before = call(semantics.eval_fol, model.frame, predval, {}, phi)
        reduced = call(semantics.sort_reduce, phi)
        after = call(semantics.eval_fol, model.frame, predval, {}, reduced)
        return before, after

    def check(self, item, result):
        kind = item.kind
        if kind == "axiom":
            (valid, _), _ = result
            if valid != item.expect:
                return (f"{item.formulas[0]}: validity {valid}, "
                        f"expected {item.expect}")
        elif kind == "bullet_stable":
            if result[0] is not True:
                return "a bullet translation is not stable (Cor. 3.1)"
        elif kind == "std_translation":
            for point, modal, fol in result:
                if modal != fol:
                    return f"standard translation disagrees at {point}"
        elif kind == "fol_stable":
            if result[0] != item.expect:
                return f"FOL stability {result[0]}, expected {item.expect}"
        elif result[0] != result[1]:
            return "sort reduction changed the truth value"
        return None

    def counts(self, item, result):
        space = 0
        if item.kind in ("axiom", "bullet_stable"):
            space = _space(result[1], item.sizes)
        return {"syntax.chars": sum(len(t) for t in item.formulas),
                "fileio.bytes": sum(len(t.encode()) for t in item.files),
                "semantics.valuations": space}


def _space(vars_in_use, sizes):
    """Valuations enumerated over frames of the given (|A|, |B|) sizes."""
    total = 0
    for size_a, size_b in sizes:
        space = 1
        for sort, _ in vars_in_use:
            space *= 2 ** (size_a if sort is Sort.ONE else size_b)
        total += space
    return total


# ----------------------------------------------------------------------
# bisim-refine: a model and a renamed copy with cloned points per query

@dataclasses.dataclass
class PairItem:
    m1: semantics.ModalModel
    m2: semantics.ModalModel
    renaming: bisim.SortedPairRelation
    perturbed: bool
    small: bool


def _renamed_clone(call, rng, model, clone_a, clone_b):
    """A copy of `model` with fresh names plus clones of some points.

    A clone copies its original's incidence and the relation tuples it
    heads, and its valuation, so the copy is bisimilar to the original.
    """
    frame = model.frame
    pa, pb = sorted(frame.points_a), sorted(frame.points_b)
    perm_a, perm_b = rng.sample(range(len(pa)), len(pa)), \
        rng.sample(range(len(pb)), len(pb))
    name = {p: f"x{perm_a[i]}" for i, p in enumerate(pa)}
    name.update({p: f"y{perm_b[i]}" for i, p in enumerate(pb)})
    images = {p: [name[p]] for p in pa + pb}
    for k, p in enumerate(rng.sample(pa, clone_a)):
        images[p].append(f"x{len(pa) + k}")
    for k, p in enumerate(rng.sample(pb, clone_b)):
        images[p].append(f"y{len(pb) + k}")
    incidence = {(x, y) for a, b in frame.incidence
                 for x in images[a] for y in images[b]}
    relations = {}
    for rname, rel in frame.relations.items():
        tuples = frozenset(
            (head,) + tuple(name[w] for w in t[1:])
            for t in rel.tuples for head in images[t[0]])
        relations[rname] = dataclasses.replace(rel, tuples=tuples)
    points_a = [q for p in pa for q in images[p]]
    points_b = [q for p in pb for q in images[p]]
    copy = call(SortedFrame, points_a, points_b, incidence, relations)
    valuation = {v: frozenset(q for p in s for q in images[p])
                 for v, s in model.valuation.items()}
    renaming = bisim.SortedPairRelation(
        frozenset((p, name[p]) for p in pa), frozenset((p, name[p]) for p in pb))
    return call(semantics.ModalModel, copy, valuation), renaming


def _perturbed(call, rng, model, flip_valuation):
    """The model with one valuation bit or one relation tuple toggled."""
    frame = model.frame
    if flip_valuation:
        var = rng.choice(sorted(model.valuation, key=_var_key))
        point = rng.choice(sorted(frame.carrier(var[0])))
        valuation = dict(model.valuation)
        valuation[var] = valuation[var] ^ {point}
        return call(semantics.ModalModel, frame, valuation)
    rname = rng.choice(sorted(frame.relations))
    rel = frame.relations[rname]
    tup = tuple(rng.choice(sorted(frame.carrier(s)))
                for s in (rel.sorting.output, *rel.sorting.inputs))
    relations = dict(frame.relations)
    relations[rname] = dataclasses.replace(rel, tuples=rel.tuples ^ {tup})
    copy = call(SortedFrame, frame.points_a,
                frame.points_b, frame.incidence, relations)
    return call(semantics.ModalModel, copy, model.valuation)


def _excluded(m1, m2, big, limit):
    """Up to `limit` pairs outside the relation, spread over the candidates."""
    f1, f2 = m1.frame, m2.frame
    out = [(a, a2) for a in sorted(f1.points_a) for a2 in sorted(f2.points_a)
           if (a, a2) not in big.pairs_a]
    out += [(b, b2) for b in sorted(f1.points_b) for b2 in sorted(f2.points_b)
            if (b, b2) not in big.pairs_b]
    step = max(1, len(out) // limit)
    return out[::step][:limit]


class BisimRefine:
    name = "bisim-refine"
    SIZES, TINY_SIZES = (4, 5, 6, 7, 8), (2, 3)
    POOL, TINY_POOL = 200, 6
    TRACED = 50
    SMALL_EVERY, TINY_SMALL_EVERY = 20, 3
    DENSITY = 0.4
    CORPUS, CORPUS_DEPTH = 24, 3
    EXCLUDED = 3

    def setup(self, seed, call, tiny=False):
        rng = random.Random(seed)
        sizes = self.TINY_SIZES if tiny else self.SIZES
        self.corpus = call(gen.random_modal_corpus,
                           _seed(rng), self.CORPUS, self.CORPUS_DEPTH, 1, SIG_FGH)
        every = self.TINY_SMALL_EVERY if tiny else self.SMALL_EVERY
        pool = []
        for k in range(self.TINY_POOL if tiny else self.POOL):
            small = k % every == every - 1
            shape = (2, 2) if small else _grid(k, sizes)
            frame = call(random_frame, *shape, SORTINGS,
                         self.DENSITY, _seed(rng))
            m1 = call(gen.random_modal_model, frame, VARS2, _seed(rng))
            m2, renaming = _renamed_clone(call, rng, m1, 1, 0 if small else 1)
            perturbed = k % 2 == 1
            if perturbed:
                m2 = _perturbed(call, rng, m2, flip_valuation=k % 4 == 1)
            pool.append(PairItem(m1, m2, renaming, perturbed, small))
        return pool

    def query(self, item, call):
        m1, m2 = item.m1, item.m2
        big = call(bisim.largest_bisimulation, m1, m2)
        bound = call(bisim.equivalence_depth_bound, m1, m2)
        distinguished = [
            (w, w2, call(bisim.modal_equiv, m1, w, m2, w2, bound))
            for w, w2 in _excluded(m1, m2, big, self.EXCLUDED)]
        truths = [(call(semantics.truth_set, m1, th),
                   call(semantics.truth_set, m2, th))
                  for th in self.corpus]
        return big, bound, distinguished, truths

    def check(self, item, result):
        big, _, distinguished, truths = result
        m1, m2 = item.m1, item.m2
        if not bisim.is_model_bisimulation(m1, m2, big):
            return "the largest bisimulation is not a model bisimulation"
        if not item.perturbed and not (
                item.renaming.pairs_a <= big.pairs_a
                and item.renaming.pairs_b <= big.pairs_b):
            return "the renaming is missing from the largest bisimulation"
        for w, w2, (equivalent, theta) in distinguished:
            if equivalent:
                return f"excluded pair ({w},{w2}) is modally equivalent"
            if not semantics.sat_modal(m1, w, theta) or \
                    semantics.sat_modal(m2, w2, theta):
                return f"bad distinguishing formula for ({w},{w2})"
        for th, (t1, t2) in zip(self.corpus, truths):
            pairs = big.pairs_a if th.sort is Sort.ONE else big.pairs_b
            if any((w in t1) != (w2 in t2) for w, w2 in pairs):
                return "a corpus formula separates a bisimilar pair"
        if item.small:
            union = bisim.all_bisimulations_union(m1, m2)
            if (union.pairs_a, union.pairs_b) != (big.pairs_a, big.pairs_b):
                return "result differs from the union of all bisimulations"
        return None

    def counts(self, item, result):
        big, bound, distinguished, _ = result
        f1, f2 = item.m1.frame, item.m2.frame
        return {
            "bisim.depth": bound * len(distinguished),
            "bisim.formula_nodes": sum(nodes(theta)
                                       for _, _, (_, theta) in distinguished),
            "bisim.pairs_kept": len(big),
            "bisim.pairs_candidate": len(f1.points_a) * len(f2.points_a)
            + len(f1.points_b) * len(f2.points_b),
        }


WORKLOADS = {w.name: w for w in (FrameAnalysis, ValuationSearch, BisimRefine)}
