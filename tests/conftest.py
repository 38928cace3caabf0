import itertools
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import polarmodal
from polarmodal import catalog, semantics, transform
from polarmodal.errors import CapExceeded, PreconditionError, SortError
from polarmodal.frames import (
    B_SUFFIX, Concept, FiniteLatticeExpansion, Sort, SortedFrame, SortedRelation,
    SortingType, random_frame,
)
from polarmodal.semantics import resource_cap
from polarmodal.syntax import (
    FAnd, FEq, FExists, FForall, FImp, FInc, FNot, FOr, FPred, FRelApp, FVar,
    LAnd, LApp, LBot, LOr, LTop, LVar, MAnd, MApp, MBbox, MBdia, MConst, MDbox,
    MDdia, MImp, MNot, MOr, MVar, ModalFormula, _atom_vars, _with_vars,
    fol_free_vars, modal_var_key,
)
from polarmodal.transform import stability_transform

# one relation of each catalog distribution type
ALL_TYPES = {"f": catalog.D1_1, "g": catalog.DD_D, "k": catalog.D11_1,
             "m": catalog.DDD_D, "h": catalog.D1D_D, "n": catalog.DD1_D}

# random frames of 1-8 points per sort with one relation of each type, often
# with empty or full incidence
oracle_frames = st.builds(
    random_frame, st.integers(1, 8), st.integers(1, 8),
    st.just(ALL_TYPES),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), st.integers(0, 10 ** 6),
)


@pytest.fixture
def f0():
    """The 2+2 reference frame: I = {(a0,b1), (a1,b0)}."""
    return SortedFrame(["a0", "a1"], ["b0", "b1"], [("a0", "b1"), ("a1", "b0")])


@pytest.fixture
def fol_compiles(monkeypatch):
    """The formulas the FOL compiler is called on from now on, one entry
    per call, from `semantics` and `transform` alike."""
    calls = []
    compile_fol = semantics._compile_fol

    def counting(phi, *rest):
        calls.append(phi)
        return compile_fol(phi, *rest)
    monkeypatch.setattr(semantics, "_compile_fol", counting)
    monkeypatch.setattr(transform, "_compile_fol", counting)
    return calls


def image_op(frame, name, args):
    """The existential image of the named relation at the argument point
    sets, read through the frame's bitset kernel `_BitIndex.image`."""
    rel = frame.relation(name)
    if len(args) != rel.sorting.arity:
        raise SortError(f"relation {name} expects {rel.sorting.arity} arguments")
    index = frame._index
    masks = [index.side(s).mask(w) for w, s in zip(args, rel.sorting.inputs)]
    return index.side(rel.sorting.output).points(index.image(rel, masks))


def make_rel(name, sorting, tuples):
    return SortedRelation(name, SortingType.parse(sorting),
                          frozenset(tuple(t) for t in tuples))


def with_relation(frame, rel):
    return SortedFrame(frame.points_a, frame.points_b, frame.incidence,
                       {**frame.relations, rel.name: rel})


class SetKernels:
    """Reference frame kernels on frozensets, read straight from I and the
    relation tuples: the Galois maps, closure, boxes and diamonds,
    `image_op`, the intersection closure with its sort, and the two
    evaluators.  The library computes all of them on int bitsets."""

    def __init__(self, frame):
        self.frame = frame
        self.succ = {a: frozenset(b for x, b in frame.incidence if x == a)
                     for a in frame.points_a}
        self.pred = {b: frozenset(a for a, y in frame.incidence if y == b)
                     for b in frame.points_b}

    def galois_right(self, u):
        return self.frame.points_b.difference(*(self.succ[a] for a in u))

    def galois_left(self, v):
        return self.frame.points_a.difference(*(self.pred[b] for b in v))

    def closure(self, sort, s):
        if sort is Sort.ONE:
            return self.galois_left(self.galois_right(s))
        return self.galois_right(self.galois_left(s))

    def is_stable(self, sort, s):
        return self.closure(sort, s) == frozenset(s)

    def dia_ab(self, u):
        return frozenset(b for b in self.frame.points_b if self.pred[b] & u)

    def box_ba(self, v):
        return frozenset(a for a in self.frame.points_a if self.succ[a] <= v)

    def box_ab(self, u):
        return frozenset(b for b in self.frame.points_b if self.pred[b] <= u)

    def dia_ba(self, v):
        return frozenset(a for a in self.frame.points_a if self.succ[a] & v)

    def image_op(self, name, args):
        return frozenset(t[0] for t in self.frame.relation(name).tuples
                         if all(w in ws for w, ws in zip(t[1:], args)))

    def closed_op(self, name, args):
        sort = self.frame.relation(name).sorting.output
        return self.closure(sort, self.image_op(name, args))

    def stable_sets(self):
        return intersection_closure(
            {self.galois_left({b}) for b in self.frame.points_b}, self.frame.points_a)

    def costable_sets(self):
        return intersection_closure(
            {self.galois_right({a}) for a in self.frame.points_a}, self.frame.points_b)

    def galois_dual(self, name, args):
        """Galois image of the relation's section at `args`, by a tuple scan.

        The section is the set of heads of the tuples with arguments
        `args`; its image lies on the sort opposite to the relation's
        output.
        """
        rel = self.frame.relation(name)
        section = frozenset(t[0] for t in rel.tuples if t[1:] == tuple(args))
        if rel.sorting.output is Sort.ONE:
            return self.galois_right(section)
        return self.galois_left(section)

    def is_section_stable(self, name):
        """`is_section_stable` from the Galois dual of every argument
        tuple's heads, with the head sections checked too."""
        frame = self.frame
        rel = frame.relation(name)
        dual_sort = rel.sorting.output.opposite
        galois = self.galois_right if dual_sort is Sort.DEL else self.galois_left
        heads = {}
        for t in rel.tuples:
            heads.setdefault(t[1:], set()).add(t[0])
        carriers = [sorted(frame.carrier(s)) for s in rel.sorting.inputs]
        dual = {args: galois(heads.get(args, ()))
                for args in itertools.product(*carriers)}
        for args, sec in dual.items():
            if not self.is_stable(dual_sort, sec):
                return False, (0, args)
        for j, s in enumerate(rel.sorting.inputs):
            others = carriers[:j] + carriers[j + 1:]
            for head in sorted(frame.carrier(dual_sort)):
                for rest in itertools.product(*others):
                    sec = frozenset(w for w in frame.carrier(s)
                                    if head in dual[rest[:j] + (w,) + rest[j:]])
                    if not self.is_stable(s, sec):
                        return False, (j + 1, (head,) + rest[:j] + ("_",) + rest[j:])
        return True, None

    def truth_set(self, valuation, theta):
        frame = self.frame
        go = self.truth_set
        if isinstance(theta, MVar):
            return valuation.get((theta.sort, theta.index), frozenset())
        if isinstance(theta, MConst):
            return frame.carrier(theta.sort) if theta.truth else frozenset()
        if isinstance(theta, MNot):
            return frame.carrier(theta.sort) - go(valuation, theta.arg)
        if isinstance(theta, MAnd):
            return go(valuation, theta.left) & go(valuation, theta.right)
        if isinstance(theta, MOr):
            return go(valuation, theta.left) | go(valuation, theta.right)
        if isinstance(theta, MImp):
            return (frame.carrier(theta.sort) - go(valuation, theta.left)) \
                | go(valuation, theta.right)
        if isinstance(theta, MBbox):
            return self.box_ba(go(valuation, theta.arg))
        if isinstance(theta, MDbox):
            return self.box_ab(go(valuation, theta.arg))
        if isinstance(theta, MBdia):
            return self.dia_ba(go(valuation, theta.arg))
        if isinstance(theta, MDdia):
            return self.dia_ab(go(valuation, theta.arg))
        assert isinstance(theta, MApp)
        return self.image_op(theta.name, [go(valuation, a) for a in theta.args])

    def lattice_extent(self, valuation, phi):
        frame = self.frame

        def concept(ext=None, intent=None):
            if ext is None:
                return Concept(self.galois_left(intent), intent)
            return Concept(ext, self.galois_right(ext))

        if isinstance(phi, LVar):
            return concept(ext=valuation[phi.index])
        if isinstance(phi, LTop):
            return concept(ext=frame.points_a)
        if isinstance(phi, LBot):
            return concept(intent=frame.points_b)
        if isinstance(phi, LAnd):
            return concept(ext=self.lattice_extent(valuation, phi.left).extent
                           & self.lattice_extent(valuation, phi.right).extent)
        if isinstance(phi, LOr):
            return concept(intent=self.lattice_extent(valuation, phi.left).intent
                           & self.lattice_extent(valuation, phi.right).intent)
        assert isinstance(phi, LApp)
        rel = frame.relation(phi.name)
        parts = []
        for arg, s in zip(phi.args, rel.sorting.inputs):
            c = self.lattice_extent(valuation, arg)
            parts.append(c.extent if s is Sort.ONE else c.intent)
        closed = self.closed_op(phi.name, parts)
        if rel.sorting.output is Sort.ONE:
            return concept(ext=closed)
        return concept(intent=closed)

    def frame_valid_modal(self, theta, vars_in_use):
        """The first valuation, counting k = 0, 1, ... in binary, and the
        least point at which theta fails.  Valuation k gives each variable,
        in key order, the subset of bits shift .. shift + n - 1 of k, where
        shift counts the points of the variables after it and bit j stands
        for the j-th point in reverse name order."""
        keys = sorted(vars_in_use, key=modal_var_key)
        names = [sorted(self.frame.carrier(sort), reverse=True) for sort, _ in keys]
        shifts = [sum(map(len, names[i + 1:])) for i in range(len(names))]
        for k in range(1 << sum(map(len, names))):
            valuation = {key: frozenset(p for j, p in enumerate(points)
                                        if k >> shift + j & 1)
                         for key, points, shift in zip(keys, names, shifts)}
            missing = self.frame.carrier(theta.sort) - self.truth_set(valuation, theta)
            if missing:
                return False, (valuation, sorted(missing)[0])
        return True, None


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


def canonical_relation_oracle(exp: FiniteLatticeExpansion,
                              name: str) -> SortedRelation:
    """The canonical relation computed from the filter/ideal condition.

    Points of sort 1 stand for principal filters, points of sort d for
    principal ideals.  The relation condition quantifies over all members
    of the argument filters/ideals verbatim:
    u R w1..wn iff for all a1..an, (every aj in wj) implies phi(a) in u.
    Used as an independent cross-check of `canonical_frame`.
    """
    lat = exp.lattice
    dist, table = exp.operators[name]
    elems = sorted(lat.carrier, key=str)

    def members(gen, sort):
        # principal filter of the generator on sort 1, principal ideal on d
        return lat.upset(gen) if sort is Sort.ONE else lat.downset(gen)

    def point(elem, sort):
        return elem if sort is Sort.ONE else elem + B_SUFFIX

    tuples = set()
    for args in itertools.product(elems, repeat=dist.arity):
        arg_members = [members(w, s) for w, s in zip(args, dist.inputs)]
        for u in elems:
            target = members(u, dist.output)
            if all(
                table[a] in target
                for a in itertools.product(*arg_members)
            ):
                tuples.add(
                    (point(u, dist.output),)
                    + tuple(point(w, s) for w, s in zip(args, dist.inputs))
                )
    return SortedRelation(name, dist, frozenset(tuples))


def dump_lattice_expansion(exp: FiniteLatticeExpansion) -> str:
    """A lattice expansion in the lattice file format, for round trips
    through `fileio.load_lattice_expansion`."""
    lat = exp.lattice
    elems = sorted(lat.carrier)
    out = ["elems " + " ".join(elems)]
    out.append("leq: " + " , ".join(f"{x} {y}" for x, y in sorted(lat.leq_pairs)))
    for name in sorted(exp.operators):
        dist, table = exp.operators[name]
        rows = " , ".join(
            " ".join(args) + " -> " + table[args] for args in sorted(table)
        )
        arrow = ",".join(map(str, dist.inputs)) + f"->{dist.output}"
        out.append(f"op {name} type {arrow} table: {rows}")
    return "\n".join(out) + "\n"


def modal_depth_oracle(theta: ModalFormula) -> int:
    """`syntax.modal_depth` by plain recursion, one visit per tree node."""
    if isinstance(theta, (MVar, MConst)):
        return 0
    if isinstance(theta, MNot):
        return modal_depth_oracle(theta.arg)
    if isinstance(theta, (MAnd, MOr, MImp)):
        return max(modal_depth_oracle(theta.left), modal_depth_oracle(theta.right))
    if isinstance(theta, (MBbox, MDbox, MBdia, MDdia)):
        return 1 + modal_depth_oracle(theta.arg)
    assert isinstance(theta, MApp)
    return 1 + max((modal_depth_oracle(a) for a in theta.args), default=0)


def modal_vars_oracle(theta: ModalFormula) -> set:
    """`syntax.modal_vars` by plain recursion, one visit per tree node."""
    if isinstance(theta, MVar):
        return {(theta.sort, theta.index)}
    if isinstance(theta, MConst):
        return set()
    if isinstance(theta, (MNot, MBbox, MDbox, MBdia, MDdia)):
        return modal_vars_oracle(theta.arg)
    if isinstance(theta, (MAnd, MOr, MImp)):
        return modal_vars_oracle(theta.left) | modal_vars_oracle(theta.right)
    assert isinstance(theta, MApp)
    return set().union(*map(modal_vars_oracle, theta.args))


def fol_subst_oracle(phi, old, new):
    """`syntax.fol_subst` by a recursion over each compound class."""
    vs = _atom_vars(phi)
    if vs is not None:
        return _with_vars(phi, [new if v == old else v for v in vs])
    if isinstance(phi, FNot):
        return FNot(fol_subst_oracle(phi.arg, old, new))
    if isinstance(phi, (FAnd, FOr, FImp)):
        return type(phi)(fol_subst_oracle(phi.left, old, new),
                         fol_subst_oracle(phi.right, old, new))
    if isinstance(phi, (FForall, FExists)):
        if phi.var == old:
            return phi
        if phi.var.name == new.name and old in fol_free_vars(phi.body):
            raise SortError(f"substitution would capture {new.name}")
        return type(phi)(phi.var, fol_subst_oracle(phi.body, old, new))
    raise SortError(f"unknown FOL node {phi!r}")


def sort_reduce_oracle(phi):
    """`semantics.sort_reduce` by a recursion over each compound class."""

    def strip(v: FVar) -> FVar:
        return FVar(v.name, None)

    def guard(v: FVar) -> FPred:
        return FPred("U1" if v.sort is Sort.ONE else "Ud", strip(v))

    def go(x):
        vs = _atom_vars(x)
        if vs is not None:
            return _with_vars(x, map(strip, vs))
        if isinstance(x, FNot):
            return FNot(go(x.arg))
        if isinstance(x, (FAnd, FOr, FImp)):
            return type(x)(go(x.left), go(x.right))
        if isinstance(x, FForall):
            return FForall(strip(x.var), FImp(guard(x.var), go(x.body)))
        if isinstance(x, FExists):
            return FExists(strip(x.var), FAnd(guard(x.var), go(x.body)))
        raise SortError(f"unknown FOL node {x!r}")

    return go(phi)


def name_rows(frame):
    """Each point's rows by name, from a scan of I and of every tuple:
    first (None, its I-neighbours as sorted 1-tuples), then one (name,
    sorted argument tuples) per relation of its output sort, in name
    order, empty rows kept."""
    rows = {}
    for p in frame.points_a | frame.points_b:
        sort = frame.sort_of(p)
        near = sorted((b,) if a == p else (a,) for a, b in frame.incidence
                      if p in (a, b))
        rows[p] = [(None, near)] + [
            (name, sorted(t[1:] for t in rel.tuples if t[0] == p))
            for name, rel in sorted(frame.relations.items())
            if rel.sorting.output is sort]
    return rows


def refinement_levels_oracle(m, m2):
    """The levels of `bisim._Refinement(m, m2)` by dicts keyed by tagged
    points: every round builds each signature from the point's
    `name_rows`, numbers the classes by sorting all signatures by `repr`,
    and stops at the first round that adds no class."""
    models = [m, m2]
    variables = sorted(set(m.valuation) | set(m2.valuation), key=modal_var_key)
    points = [(i, p) for i, mod in enumerate(models)
              for p in sorted(mod.frame.points_a | mod.frame.points_b)]
    by_name = [name_rows(mod.frame) for mod in models]

    def profile(tagged):
        i, p = tagged
        sort = models[i].frame.sort_of(p)
        return (sort.value,
                tuple(p in models[i].var(s, j) for s, j in variables if s is sort))

    def signature(tagged, cls):
        i, p = tagged
        rows = []
        for name, tuples in by_name[i][p]:
            vecs = {}
            for t in tuples:
                vecs.setdefault(tuple(cls[(i, w)] for w in t), t)
            rows.append((name, vecs))
        (_, near), *rows = rows
        return (cls[tagged], frozenset(c for c, in near),
                tuple((name, frozenset(vecs)) for name, vecs in rows))

    keys = {p: profile(p) for p in points}
    ids = {k: n for n, k in enumerate(sorted(set(keys.values())))}
    levels = [{p: ids[keys[p]] for p in points}]
    while True:
        count = len(ids)
        keys = {p: signature(p, levels[-1]) for p in points}
        ids = {k: n for n, k in enumerate(sorted(set(keys.values()), key=repr))}
        if len(ids) == count:
            return levels
        levels.append({p: ids[keys[p]] for p in points})


def fol_oracle(frame, predval, assignment, phi, tried=None):
    """`eval_fol` by recursion over phi with a dict environment, copied at
    every binder: the same checks, instance count and errors, one tree
    walk per visit.  Calls that share `tried`, a one-item list, share
    one count of instances against the cap."""
    predval = {k: frozenset(v) for k, v in predval.items()}
    free = sorted(fol_free_vars(phi), key=lambda v: v.name)
    for var in free:
        if var.name not in assignment:
            raise PreconditionError(f"free variable {var.name} is unassigned")
    cap = resource_cap()
    tried = [0] if tried is None else tried
    domains = {None: sorted(frame.points_a | frame.points_b),
               Sort.ONE: sorted(frame.points_a), Sort.DEL: sorted(frame.points_b)}

    def instances(x, env):
        for p in domains[x.var.sort]:
            tried[0] += 1
            if tried[0] > cap:
                raise CapExceeded(f"quantifier instances exceed cap {cap}")
            yield ev(x.body, {**env, x.var.name: p})

    def pred_set(name):
        if name in predval:
            return predval[name]
        if name == "U1":
            return frame.points_a
        if name == "Ud":
            return frame.points_b
        raise PreconditionError(f"predicate {name} has no interpretation")

    def ev(x, env):
        if isinstance(x, FEq):
            return env[x.left.name] == env[x.right.name]
        if isinstance(x, FInc):
            return (env[x.u.name], env[x.v.name]) in frame.incidence
        if isinstance(x, FRelApp):
            rel = frame.relation(x.name)
            atom = (x.head, *x.args)
            want = (rel.sorting.output, *rel.sorting.inputs)
            if len(atom) != len(want) or \
                    any(v.sort not in (None, w) for v, w in zip(atom, want)):
                raise SortError(
                    f"atom {x.name} does not match the frame relation sorting")
            return tuple(env[v.name] for v in atom) in rel.tuples
        if isinstance(x, FPred):
            return env[x.arg.name] in pred_set(x.name)
        if isinstance(x, FNot):
            return not ev(x.arg, env)
        if isinstance(x, FAnd):
            return ev(x.left, env) and ev(x.right, env)
        if isinstance(x, FOr):
            return ev(x.left, env) or ev(x.right, env)
        if isinstance(x, FImp):
            return (not ev(x.left, env)) or ev(x.right, env)
        if isinstance(x, FForall):
            return all(instances(x, env))
        if isinstance(x, FExists):
            return any(instances(x, env))
        raise SortError(f"unknown FOL node {x!r}")

    env = {}
    for var in free:
        point = assignment[var.name]
        if var.sort is None:
            if point not in frame.points_a | frame.points_b:
                raise SortError(
                    f"assignment of {var.name} is not a point of the frame")
        elif point not in frame.carrier(var.sort):
            raise SortError(f"assignment of {var.name} has the wrong sort")
        env[var.name] = point
    return ev(phi, env)


def stable_fol_oracle(phi, free_var, model_family):
    """`is_stable_fol` by evaluating phi and its stability transform with
    `fol_oracle` at every point of every model, on one instance count,
    and stopping at the first point where they differ.  It reports no
    uninterpreted name that evaluation does not reach."""
    if not model_family:
        raise PreconditionError("model family must be non-empty")
    closed = stability_transform(phi, free_var)
    tried = [0]
    for idx, (frame, predval) in enumerate(model_family):
        for a in sorted(frame.points_a):
            at = {free_var: a}
            if fol_oracle(frame, predval, at, phi, tried) != \
                    fol_oracle(frame, predval, at, closed, tried):
                return False, (idx, a)
    return True, None


def intersection_closure(gens, top):
    """`top` and every intersection of members of `gens`, by (size, sorted),
    grown by intersecting a frontier with every generator until nothing
    new appears."""
    gens = gens | {top}
    closed = set(gens)
    frontier = gens
    while frontier:
        frontier = {x & y for x in frontier for y in gens} - closed
        closed |= frontier
    return sorted(closed, key=lambda s: (len(s), sorted(s)))


def powerset(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def galois_dual(frame, name, args):
    """`SetKernels.galois_dual` on the given frame."""
    return SetKernels(frame).galois_dual(name, args)


def hash_seed_env(hash_seed):
    """The environment for a child Python that imports this polarmodal
    under the given string hash seed."""
    src = str(Path(polarmodal.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
