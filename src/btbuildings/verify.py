"""Named verification suites, one per module invariant.

Every suite takes a Config and returns a JSON-serializable report with a
boolean "passed" and enough detail to locate the first counterexample.
The CLI's `verify <suite>` command runs one suite and exits nonzero on
failure; the acceptance tests drive the same functions.
"""

import random
from fractions import Fraction
from itertools import product

from .autdecomp import (AutWord, ProductGraph, decompose_hom,
                        expected_aut_order, graph_automorphisms_bruteforce,
                        label_action, normal_form)
from .building import (ApartmentPoint, BuildingDescriptor, PolyVertex, act,
                       apartment_point_of_vertex, ball, basic_chamber,
                       distance_f, factor_window_fvals, in_standard_apartment,
                       involution_lambda, is_directed_edge, is_face,
                       labelling_C, project_apartment)
from .drinfeld import (Poly, RigidPoint, deform, diagonalize_norm, eval_abs,
                       gauss_eval, membership_depth, omega_membership,
                       verify_diagonal, GaussSeminorm)
from .errors import BudgetError
from .field import (INF, ExtensionDescriptor, LaurentModel, PAdicModel,
                    enumerate_residues, valuation)
from .lattice import (action, canonical_form, column_class, digit_ops,
                      gaussian_binomial, guard_precision,
                      inverse_column_minima, neighbors_by_colength,
                      pair_index_normalized, skeleton_distance,
                      standard_vertex, vertex_from_diagonal)
from .linalg import det, identity, matmul
from .subdivision import (Marking, delta_restrict, eta_chambers,
                          eta_membership, nu_embed, nu_embed_point,
                          subdivide_ball, verify_induced_structure)


class Config:
    """Suite configuration: the budget and the seed of the suite's RNG."""

    def __init__(self, budget=20000, seed=0):
        self.budget = budget
        self.seed = seed

    def rng(self):
        return random.Random(self.seed)


# ---------------------------------------------------------------------------
# random fixtures, shared with the tests
# ---------------------------------------------------------------------------

def random_element(model, rng):
    if isinstance(model, PAdicModel):
        num = rng.randrange(-400, 400)
        den = rng.randrange(1, 400)
        return model.element(Fraction(num, den))
    deg = rng.randrange(0, 4)
    num = tuple(rng.randrange(model.q) for _ in range(deg + 1))
    den = ()
    while not any(den):
        den = tuple(rng.randrange(model.q) for _ in range(rng.randrange(0, 4) + 1))
    return model.element(num, den)


def random_o_element(model, rng):
    if isinstance(model, PAdicModel):
        return model.element(rng.randrange(0, 8))
    return model.from_digits([rng.randrange(model.q) for _ in range(3)])


def random_unimodular(model, n, rng, steps=6):
    """A product of random elementary column operations over O."""
    mat = identity(model, n)
    for _ in range(steps):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        c = random_o_element(model, rng)
        for i in range(n):
            mat[i][a] = mat[i][a] + c * mat[i][b]
    return mat


def random_vertex(model, n, rng, spread=2):
    """[g D] for a random diagonal lattice D and unimodular g."""
    exps = tuple(rng.randrange(0, spread + 1) for _ in range(n))
    diag = vertex_from_diagonal(model, exps)
    g = random_unimodular(model, n, rng)
    return action(model, g)(diag)


def window_exps(n, spread):
    """Primitive exponent vectors in [0, spread]^n with minimum 0."""
    out = []
    for exps in product(range(spread + 1), repeat=n):
        if min(exps) == 0:
            out.append(exps)
    return out


def least_containing_shift(v, j):
    """The least c with pi^c e_j in L, L the primitive lattice of the class
    v, by reduction alone: an oracle for -w_j, w the column minima of
    v(T^-1).  Adjoining pi^c e_j to the columns of T spans L' >= L inside
    O^n, and L' = L iff v(det L') = D = v(det L); as pi^D O^n <= L, some
    c <= D works.  The generators are exact and v(det L') <= D, so
    `guard_precision(D)` digits make each reduction exact."""
    n, D = v.n, v.det_valuation()
    ops = digit_ops(v.model, guard_precision(D))
    for c in range(D + 1):
        extra = [ops.shift_up(ops.residue_coeff(1), c) if i == j
                 else ops.zero() for i in range(n)]
        cls, _minval = column_class(ops, v.digit_columns(ops) + [extra])
        if cls.det_valuation() == D:
            return c
    raise ArithmeticError(f"pi^{D} e_{j} is not in a lattice of colength {D}")


# ---------------------------------------------------------------------------
# field suites
# ---------------------------------------------------------------------------

def suite_valuation_axioms(config):
    rng = config.rng()
    models = [PAdicModel.get(2), PAdicModel.get(3), LaurentModel.get(2),
              LaurentModel.get(3), LaurentModel.get(4)]
    checked = 0
    for model in models:
        for _ in range(1000):
            x = random_element(model, rng)
            y = random_element(model, rng)
            vx, vy = valuation(x), valuation(y)
            if valuation(x * y) != vx + vy:
                return _fail("product rule", model=repr(model))
            s = valuation(x + y)
            if not s >= min(vx, vy):
                return _fail("ultrametric", model=repr(model))
            if vx != vy and s != min(vx, vy):
                return _fail("ultrametric equality", model=repr(model))
            checked += 1
    return _ok(pairs_checked=checked)


def suite_residues(config):
    cases = [(PAdicModel.get(2), 3), (PAdicModel.get(3), 2),
             (LaurentModel.get(2), 3), (LaurentModel.get(3), 2),
             (LaurentModel.get(4), 2)]
    total = 0
    for model, mmax in cases:
        for m in range(1, mmax + 1):
            reps = enumerate_residues(model, m)
            if len(reps) != model.residue_size ** m:
                return _fail("count", model=repr(model), m=m)
            if len(reps) <= 256:
                for i in range(len(reps)):
                    for j in range(i + 1, len(reps)):
                        if valuation(reps[i] - reps[j]) >= m:
                            return _fail("congruent pair", model=repr(model),
                                         m=m, i=i, j=j)
                        total += 1
    return _ok(pairs_checked=total)


def suite_embed(config):
    rng = config.rng()
    base = LaurentModel.get(2)
    count = 0
    for e, f in [(1, 2), (2, 1), (2, 2), (3, 1)]:
        ext = ExtensionDescriptor(base, e=e, f=f)
        seen = {}
        for _ in range(80):
            x = random_element(base, rng)
            y = ext.embed(x)
            vx = valuation(x)
            if valuation(y) != (INF if vx == INF else e * vx):
                return _fail("valuation scaling", e=e, f=f)
            if y in seen and seen[y] != x:
                return _fail("injectivity", e=e, f=f)
            seen[y] = x
            count += 1
    return _ok(samples=count)


# ---------------------------------------------------------------------------
# lattice suites
# ---------------------------------------------------------------------------

def suite_canonical_stability(config):
    rng = config.rng()
    cases = [(PAdicModel.get(2), 2), (PAdicModel.get(2), 3),
             (LaurentModel.get(2), 2), (LaurentModel.get(3), 3)]
    total = 0
    for model, n in cases:
        pi = model.uniformizer()
        for _ in range(125):
            v = random_vertex(model, n, rng)
            g = random_unimodular(model, n, rng)
            scale = pi ** rng.randrange(-2, 3)
            cols = [[x * scale for x in row]
                    for row in matmul(model, v.primitive_matrix(), g)]
            if canonical_form(model, cols) != v:
                return _fail("canonical form changed", model=repr(model), n=n)
            total += 1
    return _ok(triples_checked=total)


def suite_index_bfs(config):
    for model in (PAdicModel.get(2), LaurentModel.get(3)):
        root = standard_vertex(model, 2)
        seen = {root: 0}
        frontier = [root]
        for step in range(1, 4):
            new = []
            for u in frontier:
                for nb in neighbors_by_colength(u, 1):
                    if nb not in seen:
                        seen[nb] = step
                        new.append(nb)
            frontier = new
        for v, dist in seen.items():
            if pair_index_normalized(root, v) != dist:
                return _fail("index != BFS distance", model=repr(model),
                             vertex=v.serialize())
    return _ok(vertices_checked=len(seen))


def suite_gaussian_binomials(config, qs=(2, 3), dmax=3):
    """Enumerated neighbor counts against [d+1, w]_q.  Each enumeration is
    charged its count, known before it runs, against the budget."""
    report = {"counts": []}
    work = 0
    for q in qs:
        model = LaurentModel.get(q) if q != 2 else PAdicModel.get(2)
        for d in range(1, dmax + 1):
            n = d + 1
            v = standard_vertex(model, n)
            for w in range(1, n):
                formula = gaussian_binomial(n, w, q)
                work += formula
                if work > config.budget:
                    raise BudgetError(
                        f"enumerating the neighbors up to q={q}, d={d}, w={w} "
                        f"takes {work} (> budget {config.budget})")
                enumerated = len(neighbors_by_colength(v, w))
                # both candidate formulas are reported; the enumeration is
                # the ground truth and matches binomial(d+1, w)
                report["counts"].append({
                    "q": q, "d": d, "w": w,
                    "enumerated": enumerated,
                    "binomial(d+1,w)": formula,
                    "binomial(d,w)": gaussian_binomial(d, w, q),
                })
                if enumerated != formula:
                    return _fail("count mismatch", q=q, d=d, w=w, **report)
                if formula != gaussian_binomial(n, n - w, q):
                    return _fail("symmetry", q=q, d=d, w=w)
            half = [gaussian_binomial(n, w, q) for w in range(1, n // 2 + 1)]
            if any(half[i] >= half[i + 1] for i in range(len(half) - 1)):
                return _fail("unimodality", q=q, d=d)
            if d == 1 and gaussian_binomial(2, 1, q) != q + 1:
                return _fail("tree degree", q=q)
    return _ok(**report)


def suite_label_shift(config):
    rng = config.rng()
    total = 0
    for model, n in [(PAdicModel.get(2), 2), (PAdicModel.get(2), 3),
                     (LaurentModel.get(3), 3)]:
        for _ in range(6):
            v = random_vertex(model, n, rng)
            for w in range(1, n):
                for nb in neighbors_by_colength(v, w):
                    if nb.label() != (v.label() + w) % n:
                        return _fail("label shift", model=repr(model), w=w)
                    total += 1
    return _ok(neighbors_checked=total)


# ---------------------------------------------------------------------------
# building suites
# ---------------------------------------------------------------------------

def _ball_cases():
    model = PAdicModel.get(2)
    return [BuildingDescriptor([(model, 1)]), BuildingDescriptor([(model, 2)]),
            BuildingDescriptor([(model, 1), (model, 1)])]


def suite_labelling_propagation(config):
    for descriptor in _ball_cases():
        b = ball(descriptor, descriptor.origin(), 2, detail="faces",
                 budget=config.budget)
        result = _gallery_propagate(b)
        if result is not True:
            return _fail("propagated label mismatch", detail=result)
    return _ok()


def _gallery_propagate(b):
    """Propagate per-factor labels from the basic chamber through facet-
    adjacent chambers; compare with labelling_C."""
    descriptor = b.descriptor
    chambers = list(b.chambers)
    delta = basic_chamber(descriptor)
    if delta not in chambers:
        return "basic chamber not among ball chambers"
    # facet adjacency: drop one vertex from one factor component
    buckets = {}
    for ci, ch in enumerate(chambers):
        for i in range(descriptor.r):
            comp = ch.factors[i]
            for drop in range(len(comp)):
                key = (i, ch.factors[:i],
                       tuple(c for k, c in enumerate(comp) if k != drop),
                       ch.factors[i + 1:])
                buckets.setdefault(key, []).append(ci)
    adj = {ci: set() for ci in range(len(chambers))}
    for lst in buckets.values():
        for a in lst:
            for c in lst:
                if a != c:
                    adj[a].add(c)
    # seed with C on the basic chamber, then propagate the missing residue
    assigned = [dict() for _ in range(descriptor.r)]
    for i in range(descriptor.r):
        for c in delta.factors[i]:
            assigned[i][c] = c.label()
    start = chambers.index(delta)
    seen = {start}
    queue = [start]
    while queue:
        ci = queue.pop(0)
        ch = chambers[ci]
        for i in range(descriptor.r):
            comp = ch.factors[i]
            m = len(comp)
            known = [c for c in comp if c in assigned[i]]
            unknown = [c for c in comp if c not in assigned[i]]
            if len(unknown) == 1:
                missing = (set(range(m)) - {assigned[i][c] for c in known})
                if len(missing) != 1:
                    return f"chamber {ci}: inconsistent factor labels"
                assigned[i][unknown[0]] = missing.pop()
            elif len(unknown) > 1:
                return f"chamber {ci}: reached with {len(unknown)} unknowns"
        for nb in sorted(adj[ci]):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if len(seen) != len(chambers):
        return f"gallery reached {len(seen)} of {len(chambers)} chambers"
    for i in range(descriptor.r):
        for c, lab in assigned[i].items():
            if lab != c.label():
                return f"factor {i}: propagated {lab} != C {c.label()}"
    return True


def suite_apartment_rigidity(config):
    """Word pairs that agree pointwise on the basic chamber must agree on
    the whole apartment window (thin complex, so the uniqueness lemma
    applies)."""
    rng = config.rng()
    descriptor = BuildingDescriptor([(PAdicModel.get(2), 2)])
    b = ball(descriptor, descriptor.origin(), 2, detail="vertices",
             budget=config.budget)
    window = [v for v in b.vertices if in_standard_apartment(v)]
    delta_vs = basic_chamber(descriptor).vertices()
    model = PAdicModel.get(2)
    pi = model.uniformizer()

    def monomial(perm, exps, units):
        return [[units[j] * pi ** exps[j] if perm[j] == i else model.zero()
                 for j in range(3)] for i in range(3)]

    pool = []
    for _ in range(6):
        perm = list(range(3))
        rng.shuffle(perm)
        exps = [rng.randrange(0, 2) for _ in range(3)]
        units = [model.element(1 + 2 * rng.randrange(0, 4)) for _ in range(3)]
        pool.append(AutWord(descriptor, [
            {"kind": "group", "matrices": [monomial(perm, exps, units)]}]))
    pool.append(AutWord(descriptor, [{"kind": "lambda", "mask": [1]},
                                     {"kind": "lambda", "mask": [1]}]))
    pool.append(AutWord(descriptor, [{"kind": "shift", "factor": 0, "power": 3}]))
    pool.append(AutWord(descriptor, []))
    pairs = agreeing = 0
    for a in range(len(pool)):
        for c in range(a + 1, len(pool)):
            f, g = pool[a], pool[c]
            if all(f.apply(v) == g.apply(v) for v in delta_vs):
                agreeing += 1
                for v in window:
                    if f.apply(v) != g.apply(v):
                        return _fail("maps agree on the chamber but not the window",
                                     vertex=[cc.serialize() for cc in v.components])
            pairs += 1
    if agreeing == 0:
        return _fail("no agreeing pairs generated")
    return _ok(pairs=pairs, agreeing_pairs=agreeing,
               window_vertices=len(window))


def _window_argmin(window):
    """c -> the index of the unique minimizer of f(c, y) over the diagonal
    classes y with primitive exponents in `window`, or None if there are
    several.  `factor_window_fvals` reads c only through its column minima
    w and v(det T), and v(det T) shifts every value equally, so the window
    is scanned once per distinct w."""
    memo = {}

    def argmin(c):
        w = tuple(inverse_column_minima(c))
        if w not in memo:
            fvals = factor_window_fvals(c, window)
            best = min(fvals)
            arg = [k for k, f in enumerate(fvals) if f == best]
            memo[w] = arg[0] if len(arg) == 1 else None
        return memo[w]

    return argmin


def suite_projection_agreement(config):
    """Every window vertex's `project_apartment` against the argmin of
    f(c, y) over the diagonal window, scanned once per distinct column
    minima vector (`_window_argmin`); on sampled vertices, the column minima
    against `least_containing_shift` and windowed f values against
    `distance_f`."""
    checked = 0
    for q, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]:
        model = LaurentModel.get(q) if q != 2 else PAdicModel.get(2)
        descriptor = BuildingDescriptor([(model, d)])
        b = ball(descriptor, descriptor.origin(), 2, detail="vertices",
                 budget=config.budget)
        window = window_exps(d + 1, 3)
        argmin = _window_argmin(window)
        for x in b.vertices:
            c = x.components[0]
            k = argmin(c)
            if k is None:
                return _fail("minimizer not unique", q=q, d=d,
                             vertex=c.serialize())
            want = ApartmentPoint([(None, tuple(-m for m in window[k]))])
            got = project_apartment(x)
            if got != want:
                return _fail("projection disagrees with f-argmin", q=q, d=d,
                             vertex=c.serialize())
            checked += 1
        # on samples: w against containment, windowed f against distance_f
        rng = config.rng()
        for _ in range(5):
            x = b.vertices[rng.randrange(len(b.vertices))]
            k = rng.randrange(len(window))
            c = x.components[0]
            if inverse_column_minima(c) != [-least_containing_shift(c, j)
                                            for j in range(c.n)]:
                return _fail("column minima vs least containing shift", q=q,
                             d=d, vertex=c.serialize())
            y = PolyVertex((vertex_from_diagonal(model, window[k]),))
            if factor_window_fvals(c, [window[k]])[0] != \
                    distance_f(x, y):
                return _fail("window f vs distance_f", q=q, d=d)
    # r = 2: the product projection is the tuple of factor argmins
    model = PAdicModel.get(2)
    descriptor = BuildingDescriptor([(model, 1), (model, 1)])
    bp = ball(descriptor, descriptor.origin(), 2, detail="vertices",
              budget=config.budget)
    window = window_exps(2, 3)
    argmin = _window_argmin(window)
    for x in bp.vertices:
        ks = [argmin(c) for c in x.components]
        if None in ks:
            return _fail("product minimizer not unique")
        want = ApartmentPoint([(None, tuple(-m for m in window[k]))
                               for k in ks])
        if project_apartment(x) != want:
            return _fail("product projection disagrees with f-argmin")
        checked += 1
    return _ok(vertices_checked=checked)


def suite_label_equivariance(config):
    rng = config.rng()
    model = PAdicModel.get(2)
    for _ in range(50):
        x = PolyVertex((random_vertex(model, 3, rng),))
        g = random_unimodular(model, 3, rng)
        k = rng.randrange(0, 3)
        pi = model.uniformizer()
        g = [[g[i][j] * (pi ** k if j == 0 else model.one()) for j in range(3)]
             for i in range(3)]
        vdet = det(model, g).valuation()
        if labelling_C(act([g], x))[0] != (labelling_C(x)[0] + vdet) % 3:
            return _fail("label equivariance", k=k)
    return _ok(samples=50)


def suite_directed_edges(config):
    for descriptor in _ball_cases():
        b = ball(descriptor, descriptor.origin(), 1, budget=config.budget)
        edge_set = {(a, c) for (a, c, _f) in b.edges} | \
                   {(c, a) for (a, c, _f) in b.edges}
        for i, x in enumerate(b.vertices):
            for j, y in enumerate(b.vertices):
                if i == j:
                    continue
                de = is_directed_edge(x, y)
                lx, ly = labelling_C(x), labelling_C(y)
                diffs = [(b_ - a_) % (dd + 1) for a_, b_, dd in
                         zip(lx, ly, descriptor.dims)]
                unit = (sum(1 for t in diffs if t) == 1
                        and any(t == 1 for t in diffs if t))
                want = (i, j) in edge_set and unit
                if de != want:
                    return _fail("directed-edge characterization", i=i, j=j)
    return _ok()


def suite_involution(config):
    rng = config.rng()
    model = PAdicModel.get(2)
    # lambda^2 = id and label reversal on r <= 2 products, d <= 2
    descriptor = BuildingDescriptor([(model, 2), (model, 1)])
    for _ in range(200):
        x = PolyVertex((random_vertex(model, 3, rng),
                        random_vertex(model, 2, rng)))
        if involution_lambda(involution_lambda(x, [1, 1]), [1, 1]) != x:
            return _fail("lambda^2 != id")
    for _ in range(50):
        x = PolyVertex((random_vertex(model, 3, rng),
                        random_vertex(model, 2, rng)))
        lx = involution_lambda(x, [1, 0])
        cl, c = labelling_C(lx), labelling_C(x)
        if cl[0] != (-c[0]) % 3 or cl[1] != c[1]:
            return _fail("label reversal")
    # face preservation on radius-2 balls (d <= 2, q = 2, r <= 2)
    b2 = BuildingDescriptor([(model, 2)])
    b = ball(b2, b2.origin(), 2, detail="faces", budget=config.budget)
    faces_checked = 0
    for fb_face in b.faces:
        img = [involution_lambda(v, [1]) for v in fb_face.vertices()]
        if not is_face(b2, img):
            return _fail("involution image is not a face")
        faces_checked += 1
    b11 = BuildingDescriptor([(model, 1), (model, 1)])
    bp = ball(b11, b11.origin(), 2, detail="faces", budget=config.budget)
    for fb_face in bp.faces:
        for mask in ([1, 1], [1, 0]):
            img = [involution_lambda(v, mask) for v in fb_face.vertices()]
            if not is_face(b11, img):
                return _fail("involution image is not a face (product)")
            faces_checked += 1
    # exponent negation on the apartment
    for exps in [(0, 1, 2), (0, 0, 1), (2, 1, 0)]:
        v = PolyVertex((vertex_from_diagonal(model, exps),))
        pt = apartment_point_of_vertex(v)
        lv = involution_lambda(v, [1])
        neg = ApartmentPoint([(None, tuple(-x for x in pt.exponents(0)))])
        if apartment_point_of_vertex(lv) != neg:
            return _fail("apartment symmetry")
    return _ok(faces_checked=faces_checked)


# ---------------------------------------------------------------------------
# subdivision suites
# ---------------------------------------------------------------------------

def suite_eta_counts(config):
    for d in range(1, 4):
        for N in range(1, 4):
            got = len(eta_chambers(d, N))
            if got != N ** d:
                return _fail("count", d=d, N=N, got=got, want=N ** d)
    return _ok()


def suite_eta_coverage(config):
    for d, N in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        charts = eta_chambers(d, N)
        den = 2 * N
        for z_rest in product(range(0, N * den + 1), repeat=d):
            z = (Fraction(0),) + tuple(Fraction(x, den) for x in z_rest)
            if not eta_membership(z, N):
                continue
            inside = [ci for ci, chart in enumerate(charts)
                      if _in_closed_chart(chart, z)]
            if not inside:
                return _fail("uncovered point", d=d, N=N, point=[str(x) for x in z])
            fracs = sorted(x - int(x) for x in z)
            if len(set(fracs)) == d + 1 and len(inside) != 1:
                return _fail("interior point covered twice", d=d, N=N,
                             point=[str(x) for x in z])
    return _ok()


def _in_closed_chart(chart, z):
    d = chart.d
    y = [z[chart.sigma[i]] + chart.a[i] for i in range(d + 1)]
    return all(y[i] <= y[i + 1] for i in range(d)) and y[d] <= y[0] + 1


def suite_marking_extension(config):
    """Factor-exchange maps with equal markings induce chambered maps of the
    subdivided product window; unequal markings are the negative control."""
    model = PAdicModel.get(2)
    descriptor = BuildingDescriptor([(model, 1), (model, 1)])
    b = ball(descriptor, descriptor.origin(), 2, detail="faces",
             budget=config.budget)
    if not b.chambers:
        return _fail("window has no chambers")

    def subchambers(marking):
        """Each subchamber as its set of carrier pairs, and exchanged."""
        sub = subdivide_ball(b, Marking(marking))
        keys = [tuple(fp[f] for fp, f in zip(sub.factor_points, key))
                for key in sub.points]
        return [(frozenset(keys[pid] for pid in ch),
                 frozenset(keys[pid][::-1] for pid in ch))
                for ch in sub.subchambers]

    sub_eq = subchambers([2, 2])
    chamber_keys = {ch for ch, _img in sub_eq}
    if any(img not in chamber_keys for _ch, img in sub_eq):
        return _fail("exchange image is not a subchamber (equal markings)")
    sub_neq = subchambers([2, 1])
    neq_keys = {ch for ch, _img in sub_neq}
    broken = sum(img not in neq_keys for _ch, img in sub_neq)
    if broken == 0:
        return _fail("negative control: unequal markings still chambered")
    return _ok(equal_marking_chambers=len(sub_eq),
               unequal_marking_violations=broken)


def suite_nu_distance(config):
    rng = config.rng()
    base = LaurentModel.get(2)
    for e in (2, 3):
        ext = ExtensionDescriptor(base, e=e, f=1)
        for _ in range(20):
            e1 = tuple(rng.randrange(0, 3) for _ in range(3))
            e2 = tuple(rng.randrange(0, 3) for _ in range(3))
            x = vertex_from_diagonal(base, e1)
            y = vertex_from_diagonal(base, e2)
            if skeleton_distance(nu_embed(x, ext), nu_embed(y, ext)) != \
                    e * skeleton_distance(x, y):
                return _fail("nu distance scaling", e=e)
    return _ok()


def suite_extension(config):
    """delta o nu = id; unramified nu simplicial; ramified nu stretches by e;
    induced structure equals the e-fold subdivision."""
    rng = config.rng()
    base = LaurentModel.get(2)
    ram = ExtensionDescriptor(base, e=2, f=1)
    unram = ExtensionDescriptor(base, e=1, f=2)
    # delta o nu = id on 100 random apartment vertices
    for _ in range(100):
        exps = tuple(rng.randrange(-2, 3) for _ in range(3))
        pt = ApartmentPoint([(None, exps)])
        if delta_restrict(nu_embed_point(pt, ram), ram) != pt:
            return _fail("delta o nu != id", exps=exps)
    # unramified nu is simplicial on a radius-1 ball
    B = BuildingDescriptor([(base, 1)])
    b = ball(B, B.origin(), 1, detail="faces", budget=config.budget)
    big = BuildingDescriptor([(unram.extension, 1)])
    imgs = [nu_embed(v.components[0], unram) for v in b.vertices]
    if len(set(imgs)) != len(imgs):
        return _fail("nu not injective")
    for (a, c, _f) in b.edges:
        if skeleton_distance(imgs[a], imgs[c]) != 1:
            return _fail("unramified nu not simplicial")
        if not is_face(big, [PolyVertex((imgs[a],)), PolyVertex((imgs[c],))]):
            return _fail("unramified nu image edge is not a face")
    # ramified nu maps adjacent vertices to distance e
    for (a, c, _f) in b.edges:
        ia = nu_embed(b.vertices[a].components[0], ram)
        ic = nu_embed(b.vertices[c].components[0], ram)
        if skeleton_distance(ia, ic) != 2:
            return _fail("ramified nu edge stretch")
    # induced structure = B[e] for (d, e) in {(1,2), (2,2)}
    rep1 = verify_induced_structure(b, ram)
    if not rep1["passed"]:
        return _fail("induced structure (d=1,e=2)", detail=rep1)
    B2 = BuildingDescriptor([(base, 2)])

    class _Shim:
        descriptor = B2
        chambers = [basic_chamber(B2)]
    rep2 = verify_induced_structure(_Shim(), ram)
    if not rep2["passed"]:
        return _fail("induced structure (d=2,e=2)", detail=rep2)
    return _ok(d1=rep1["subchambers_checked"], d2=rep2["subchambers_checked"])


# ---------------------------------------------------------------------------
# autdecomp suites
# ---------------------------------------------------------------------------

def suite_aut_decomposition(config):
    rng = config.rng()
    for _ in range(200):
        r = rng.randrange(1, 4)
        sizes = tuple(rng.randrange(2, 5) for _ in range(r))
        mu = [None] * r
        buckets = {}
        for i in range(r):
            buckets.setdefault(sizes[i], []).append(i)
        for a, idxs in buckets.items():
            img = idxs[:]
            rng.shuffle(img)
            for i, j in zip(idxs, img):
                mu[i] = j
        ps = []
        for i in range(r):
            p = list(range(sizes[i]))
            rng.shuffle(p)
            ps.append(p)
        f = {}
        for u in ProductGraph(sizes).vertices():
            out = [None] * r
            for i in range(r):
                out[mu[i]] = ps[mu[i]][u[i]]
            f[u] = tuple(out)
        dec = decompose_hom(f, sizes, sizes)
        for u in ProductGraph(sizes).vertices():
            if dec.apply(u) != f[u]:
                return _fail("roundtrip", sizes=sizes)
    return _ok(automorphisms_checked=200)


_AUT_ORDER_CAP = 500000
_AUT_DECOMPOSE_SAMPLE = 400


def suite_aut_order(config):
    """Exhaustive counts vs the closed formula for every factor profile with
    product <= 16 whose automorphism count is within the cap, and
    decompose_hom reconstruction of the exhaustively-found automorphisms
    (all of them below the sample size, a deterministic sample above)."""
    profiles = []

    def gen(prefix, prod, last):
        if prefix and prod <= 16:
            profiles.append(tuple(prefix))
        for a in range(2, 17):
            if prod * a <= 16 and a >= last:
                gen(prefix + [a], prod * a, a)
    gen([], 1, 2)
    checked = []
    skipped = []
    for sizes in sorted(profiles):
        want = expected_aut_order(sizes)
        if want > _AUT_ORDER_CAP:
            skipped.append({"sizes": list(sizes), "formula": want})
            continue
        auts = graph_automorphisms_bruteforce(sizes, cap=_AUT_ORDER_CAP)
        if len(auts) != want:
            return _fail("order mismatch", sizes=list(sizes), got=len(auts),
                         want=want)
        step = max(1, len(auts) // _AUT_DECOMPOSE_SAMPLE)
        decomposed = 0
        for f in auts[::step]:
            dec = decompose_hom(f, sizes, sizes)
            if not dec.is_automorphism():
                return _fail("exhaustive automorphism failed to decompose",
                             sizes=list(sizes))
            decomposed += 1
        checked.append({"sizes": list(sizes), "order": len(auts),
                        "decomposed": decomposed})
    if not checked:
        return _fail("no profiles checked")
    return _ok(profiles_checked=checked, beyond_cap=skipped)


def suite_label_action_stability(config):
    rng = config.rng()
    model = PAdicModel.get(2)
    descriptor = BuildingDescriptor([(model, 2)])
    b = ball(descriptor, descriptor.origin(), 2, budget=config.budget)
    base_words = {
        "identity": [],
        "lambda": [{"kind": "lambda", "mask": [1]}],
        "shift": [{"kind": "shift", "factor": 0, "power": 1}],
    }
    for name, gens in base_words.items():
        _, _, cls0 = label_action(AutWord(descriptor, gens or
                                          [{"kind": "shift", "factor": 0,
                                            "power": 0}]), b)
        for _ in range(4):
            g = random_unimodular(model, 3, rng, steps=3)
            word = AutWord(descriptor,
                           [{"kind": "group", "matrices": [g]}] + gens)
            _, _, cls = label_action(word, b)
            if [k for k, _ in cls] != [k for k, _ in cls0]:
                return _fail("classification changed under G pre-composition",
                             word=name)
    return _ok()


def suite_normal_form(config):
    rng = config.rng()
    model = PAdicModel.get(2)
    d2 = BuildingDescriptor([(model, 2)])
    d11 = BuildingDescriptor([(model, 1), (model, 1)])
    b2 = ball(d2, d2.origin(), 2, budget=config.budget)
    b11 = ball(d11, d11.origin(), 2, budget=config.budget)
    pi = model.uniformizer()
    cases = []
    perm = [1, 2, 0]
    mono = [[pi ** rng.randrange(0, 2) if perm[j] == i else model.zero()
             for j in range(3)] for i in range(3)]
    cases.append((d2, b2, [{"kind": "lambda", "mask": [1]},
                           {"kind": "group", "matrices": [mono]}], [1]))
    cases.append((d2, b2, [{"kind": "shift", "factor": 0, "power": 2}], [0]))
    cases.append((d11, b11, [{"kind": "exchange", "mu": [1, 0]}], [0, 0]))
    cases.append((d11, b11, [{"kind": "exchange", "mu": [1, 0]},
                             {"kind": "shift", "factor": 1, "power": 1}], [0, 0]))
    for descriptor, bb, gens, want_r in cases:
        word = AutWord(descriptor, gens)
        g, r, mu, report = normal_form(word, bb)
        if not report["passed"]:
            return _fail("phi' != sigma_mu on the window", gens=str(gens),
                         violations=report["violations"][:1])
        if r != want_r:
            return _fail("wrong involution mask", gens=str(gens), got=r)
    return _ok(cases=len(cases))


# ---------------------------------------------------------------------------
# drinfeld suites
# ---------------------------------------------------------------------------

def _drinfeld_fixtures():
    base = LaurentModel.get(2)
    ram = ExtensionDescriptor(base, e=2, f=1)
    quartic = ExtensionDescriptor(base, e=2, f=2)
    B1 = BuildingDescriptor([(base, 1)])
    B2 = BuildingDescriptor([(base, 2)])
    return base, ram, quartic, B1, B2


def suite_rigid_axioms(config):
    rng = config.rng()
    base, ram, quartic, B1, B2 = _drinfeld_fixtures()
    K = quartic.extension
    x = RigidPoint(B2, K, [[K.element("w"), K.element("s*w")]])
    keys = [(0, 1), (0, 2)]

    def rand_poly():
        p = Poly.const(K, 0)
        for _ in range(rng.randrange(1, 4)):
            term = Poly.const(K, K.from_digits(
                [rng.randrange(4) for _ in range(3)], shift=rng.randrange(-1, 2)))
            for k in keys:
                for _ in range(rng.randrange(0, 2)):
                    term = term * Poly.var(K, k)
            p = p + term
        return p

    for _ in range(1000):
        p, q = rand_poly(), rand_poly()
        vp, vq, vpq = eval_abs(x, p), eval_abs(x, q), eval_abs(x, p * q)
        if vpq.exponent != (vp * vq).exponent:
            return _fail("multiplicativity")
        vs = eval_abs(x, p + q)
        if not vs.exponent >= min(vp.exponent, vq.exponent):
            return _fail("ultrametric")
        if vp.exponent != vq.exponent and \
                vs.exponent != min(vp.exponent, vq.exponent):
            return _fail("ultrametric equality")
    return _ok(triples=1000)


def suite_filtration(config):
    base, ram, quartic, B1, B2 = _drinfeld_fixtures()
    K = ram.extension
    Ku = ExtensionDescriptor(base, e=1, f=2).extension
    pts = [RigidPoint(B1, K, [[K.element("s")]]),
           RigidPoint(B1, K, [[K.element("s^3")]]),
           RigidPoint(B1, Ku, [[Ku.element("w")]]),
           RigidPoint(B1, Ku, [[Ku.element("s*w")]])]
    for x in pts:
        for n in range(1, 4):
            closed = omega_membership(x, n, closed=True, budget=config.budget)
            strict = omega_membership(x, n, closed=False, budget=config.budget)
            if strict and not closed:
                return _fail("X(n) not inside X[n]", n=n)
            if closed:
                for m in range(n + 1, 4):
                    if not omega_membership(x, m, budget=config.budget):
                        return _fail("filtration not increasing", n=n, m=m)
    return _ok(points=len(pts))


def suite_omega_existence(config):
    rng = config.rng()
    base, ram, quartic, B1, B2 = _drinfeld_fixtures()
    K = quartic.extension
    found = 0
    attempts = 0
    while found < 50 and attempts < 500:
        attempts += 1
        digits = [rng.randrange(4) for _ in range(4)]
        shift = rng.randrange(0, 4)
        c = K.from_digits(digits, shift=shift - 1)
        try:
            x = RigidPoint(B1, K, [[c]])
        except ValueError:
            continue
        n = membership_depth(x, max_n=3, budget=config.budget)
        if n is None:
            return _fail("no membership depth within budget",
                         coord=K.elem_str(c))
        found += 1
    if found < 50:
        return _fail("could not generate 50 valid points", found=found)
    return _ok(points=found)


def suite_diagonalize_reverify(config):
    base, ram, quartic, B1, B2 = _drinfeld_fixtures()
    K = ram.extension
    K4 = quartic.extension
    cases = [
        (RigidPoint(B1, K, [[K.element("s")]]), 1),
        (RigidPoint(B1, K, [[K.element("1+s")]]), 1),
        (RigidPoint(B1, K, [[K.element("s^3")]]), 2),
        (RigidPoint(B2, K4, [[K4.element("w"), K4.element("s*w")]]), 1),
    ]
    for x, n in cases:
        basis, exps = diagonalize_norm(x, 0, n, budget=config.budget)
        if not verify_diagonal(x, 0, basis, n + 1, budget=config.budget):
            return _fail("re-verification failed", n=n)
    return _ok(cases=len(cases))


def suite_deform_path(config):
    base, ram, quartic, B1, B2 = _drinfeld_fixtures()
    K = quartic.extension
    x = RigidPoint(B2, K, [[K.element("w"), K.element("s*w")]])
    t_exps = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    for cs in [("1", "1", "0"), ("s", "w", "1"), ("0", "1", "w")]:
        p = (Poly.const(K, K.element(cs[0]))
             + Poly.var(K, (0, 1)).scale(K.element(cs[1]))
             + Poly.var(K, (0, 2)).scale(K.element(cs[2])))
        base_val = eval_abs(x, p).exponent
        for t in t_exps + [INF]:
            if deform(x, t, p).exponent != base_val:
                return _fail("linear form moved along the path", t=str(t))
    # endpoints on a quadratic polynomial
    Kr = ram.extension
    xr = RigidPoint(B1, Kr, [[Kr.element("s")]])
    t11 = Poly.var(Kr, (0, 1))
    p = t11 * t11 + t11.scale(Kr.element("s^2")) + Poly.const(Kr, Kr.element("s^2"))
    if deform(xr, INF, p).exponent != eval_abs(xr, p).exponent:
        return _fail("rho_0 != evaluation")
    vx = eval_abs(xr, t11).exponent
    if deform(xr, 0, p).exponent != min(2 * vx, 1 + vx, 1):
        return _fail("rho_1 != Gauss value")
    return _ok()


def suite_tau_j(config):
    base, ram, quartic, B1, B2 = _drinfeld_fixtures()
    K = ram.extension
    for exps in [(0, Fraction(1, 2), 1), (0, 0, 0), (0, 2, 1)]:
        b = GaussSeminorm(B2, [(None, exps)])
        for j in range(3):
            got = gauss_eval(b, Poly.var(K, (0, j)), K).exponent
            if got != exps[j]:
                return _fail("tau o j != id", j=j)
    return _ok()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _ok(**details):
    return {"passed": True, **details}


def _fail(reason, **details):
    return {"passed": False, "reason": reason, **details}


SUITES = {
    "valuation-axioms": suite_valuation_axioms,
    "residues": suite_residues,
    "embed": suite_embed,
    "canonical-stability": suite_canonical_stability,
    "index-bfs": suite_index_bfs,
    "gaussian-binomials": suite_gaussian_binomials,
    "label-shift": suite_label_shift,
    "labelling-propagation": suite_labelling_propagation,
    "apartment-rigidity": suite_apartment_rigidity,
    "projection-agreement": suite_projection_agreement,
    "label-equivariance": suite_label_equivariance,
    "directed-edges": suite_directed_edges,
    "involution": suite_involution,
    "eta-counts": suite_eta_counts,
    "eta-coverage": suite_eta_coverage,
    "marking-extension": suite_marking_extension,
    "nu-distance": suite_nu_distance,
    "extension": suite_extension,
    "aut-decomposition": suite_aut_decomposition,
    "aut-order": suite_aut_order,
    "label-action-stability": suite_label_action_stability,
    "normal-form": suite_normal_form,
    "rigid-axioms": suite_rigid_axioms,
    "filtration": suite_filtration,
    "omega-existence": suite_omega_existence,
    "diagonalize-reverify": suite_diagonalize_reverify,
    "deform-path": suite_deform_path,
    "tau-j": suite_tau_j,
}


def run_suite(name, config, **kwargs):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    report = SUITES[name](config, **kwargs)
    report["suite"] = name
    report["seed"] = config.seed
    return report
