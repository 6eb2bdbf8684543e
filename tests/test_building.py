import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from btbuildings import building
from btbuildings.building import (
    ApartmentPoint, Ball, BuildingDescriptor, FactorBall, PolyFace, PolyVertex,
    _chain_order, act, apartment_point_of_vertex, ball,
    basic_chamber, distance_f, in_standard_apartment, involution_lambda,
    is_directed_edge, is_face, labelling_C, labelling_D,
    neighbor_steps, project_apartment, shift_generator, sigma_mu)
from btbuildings.errors import BudgetError
from btbuildings.field import (INF, ExtensionDescriptor, LaurentModel,
                               PAdicModel)
from btbuildings.lattice import (
    all_neighbors, canonical_form, class_pair_residue, inverse_column_minima,
    neighbors_by_colength, pair_index_normalized, skeleton_distance,
    standard_vertex, vertex_from_diagonal)
from btbuildings.linalg import det, identity, matmul, solve, transpose
from btbuildings.verify import (least_containing_shift, random_unimodular,
                                random_vertex, window_exps)

Q2 = PAdicModel.get(2)
Q3 = PAdicModel.get(3)
F2T = LaurentModel.get(2)
F3T = LaurentModel.get(3)
F4T = LaurentModel.get(4)

F2S = ExtensionDescriptor(F2T, e=2, f=1).extension   # F_2((s)), s^2 = t

B1 = BuildingDescriptor([(Q2, 1)])
B2 = BuildingDescriptor([(Q2, 2)])
B11 = BuildingDescriptor([(Q2, 1), (Q2, 1)])


def test_basic_chamber_examples():
    ch = basic_chamber(B1)
    vs = {v.components[0] for v in ch.vertices()}
    assert vs == {standard_vertex(Q2, 2), vertex_from_diagonal(Q2, (0, 1))}

    ch2 = basic_chamber(B2)
    labels = sorted(labelling_C(v)[0] for v in ch2.vertices())
    assert labels == [0, 1, 2]

    ch11 = basic_chamber(B11)
    assert len(ch11.vertices()) == 4


def test_is_face_examples():
    ch = basic_chamber(B1)
    assert is_face(B1, ch.vertices())
    v0 = B1.origin()
    assert not is_face(B1, [v0, v0])
    # two vertices at f-distance >= 3 are not a face (BFS oracle below
    # pins distance_f; here diag exponents force distance 3)
    far = PolyVertex((vertex_from_diagonal(Q2, (0, 3)),))
    assert distance_f(v0, far) == 3
    assert not is_face(B1, [v0, far])
    # in a product, a face is the full product of its projections: the
    # edge x edge square is one, its diagonal is not
    (a, b), (x, y) = basic_chamber(B11).factors
    square = [PolyVertex(t) for t in itertools.product((a, b), (x, y))]
    assert is_face(B11, square)
    assert not is_face(B11, [PolyVertex((a, x)), PolyVertex((b, y))])
    assert not is_face(B11, [PolyVertex((a, y)), PolyVertex((b, x))])


def test_ball_counts():
    b = ball(B1, B1.origin(), 1)
    assert len(b.vertices) == 1 + 3
    b0 = ball(B1, B1.origin(), 0)
    assert len(b0.vertices) == 1
    b11 = ball(B11, B11.origin(), 1)
    assert len(b11.vertices) == 1 + 6


def test_ball_budget():
    with pytest.raises(BudgetError):
        ball(B2, B2.origin(), 3, budget=5)


def test_ball_edge_closure_and_determinism():
    b1 = ball(B1, B1.origin(), 2)
    b2 = ball(B1, B1.origin(), 2)
    assert [v.sort_key() for v in b1.vertices] == [v.sort_key() for v in b2.vertices]
    assert b1.edges == b2.edges
    # tree: 1 + 3 + 6 vertices, edges = 9 (tree on 10 vertices)
    assert len(b1.vertices) == 10
    assert len(b1.edges) == 9


def test_distance_f_examples():
    v0 = B1.origin()
    assert distance_f(v0, v0) == 0
    v1 = PolyVertex((vertex_from_diagonal(Q2, (0, 1)),))
    assert distance_f(v0, v1) == 1
    B2_ = BuildingDescriptor([(Q2, 2)])
    x = B2_.origin()
    y = PolyVertex((vertex_from_diagonal(Q2, (1, 1, 0)),))
    assert distance_f(x, y) == 2


def test_distance_f_directed_bfs_oracle():
    # directed BFS distance equals distance_f on a radius-3 ball (d=2, q=2)
    b = ball(B2, B2.origin(), 3, budget=5000)
    adj = {i: [] for i in range(len(b.vertices))}
    for (a, c, _f) in b.edges:
        if is_directed_edge(b.vertices[a], b.vertices[c]):
            adj[a].append(c)
        if is_directed_edge(b.vertices[c], b.vertices[a]):
            adj[c].append(a)
    import collections
    dist = {0: 0}
    dq = collections.deque([0])
    while dq:
        u = dq.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    x = b.vertices[0]
    for vid, d_bfs in dist.items():
        if b.dist[vid] <= 2:  # interior: every minimal path stays in the window
            assert distance_f(x, b.vertices[vid]) == d_bfs


def test_project_apartment_identity_on_lambda():
    for exps in [(0, 0, 0), (0, 1, 2), (2, 0, 1)]:
        v = PolyVertex((vertex_from_diagonal(Q3, exps),))
        pt = project_apartment(v)
        assert pt == apartment_point_of_vertex(v)


def test_project_apartment_example_and_argmin_oracle():
    v = PolyVertex((canonical_form(Q2, [["1", "0"], ["1", "2"]]),))
    pt = project_apartment(v)
    assert pt == apartment_point_of_vertex(B1.origin())

    # f-argmin oracle over the apartment window for every vertex of a radius-2 ball
    b = ball(B1, B1.origin(), 2, detail="vertices")
    window = [vertex_from_diagonal(Q2, e) for e in window_exps(2, 3)]
    for x in b.vertices:
        pt = project_apartment(x)
        fvals = sorted((distance_f(x, PolyVertex((y,))), y.sort_key(), y)
                       for y in window)
        assert fvals[0][0] < fvals[1][0], "minimizer must be unique"
        best = fvals[0][2]
        assert apartment_point_of_vertex(PolyVertex((best,))) == pt


def test_project_commutes_with_diagonal_torus():
    rng = random.Random(606)
    pi = Q2.uniformizer()
    for _ in range(100):
        x = PolyVertex((random_vertex(Q2, 3, rng),))
        a = [rng.randrange(-2, 3) for _ in range(3)]
        g = [[pi ** a[i] if i == j else Q2.zero() for j in range(3)] for i in range(3)]
        gx = act([g], x)
        pt = project_apartment(x)
        pt_g = project_apartment(gx)
        shifted = ApartmentPoint([(None, tuple(e - ai for e, ai in
                                               zip(pt.exponents(0), a)))])
        assert pt_g == shifted


def _rational_valuation(r, p):
    if r == 0:
        return INF
    return sympy.multiplicity(p, r.p) - sympy.multiplicity(p, r.q)


# seeded single-factor windows (model, d, radius)
_INVERSE_WINDOWS = [(Q2, 1, 3), (Q2, 2, 2), (Q3, 2, 1), (F4T, 2, 1),
                    (Q2, 3, 1)]


def test_inverse_column_minima_are_the_least_containing_shifts():
    """The column minima w of v(T^{-1}) that the projection and the window
    f-values read: -w_j is the least c with pi^c e_j in L on every vertex of
    seeded windows, and for p-adic classes w are the column minima of the
    exact rational T^{-1} (sympy)."""
    rng = random.Random(1111)
    checked = 0
    for model, d, radius in _INVERSE_WINDOWS:
        B = BuildingDescriptor([(model, d)])
        center = PolyVertex((random_vertex(model, d + 1, rng),))
        window = Ball(B, center, radius, detail="vertices", budget=10**6)
        for x in window.vertices:
            v = x.components[0]
            w = inverse_column_minima(v)
            assert project_apartment(x) == ApartmentPoint([(None, w)])
            assert w == [-least_containing_shift(v, j) for j in range(v.n)]
            if isinstance(model, PAdicModel):
                inv = sympy.Matrix([[int(e.raw) for e in row]
                                    for row in v.primitive_matrix()]).inv()
                assert w == [min(_rational_valuation(inv[i, j], model.p)
                                 for i in range(v.n)) for j in range(v.n)]
            checked += 1
    assert checked > 250


def test_act_examples():
    v0 = B2.origin()
    ident = [[Q2.one() if i == j else Q2.zero() for j in range(3)] for i in range(3)]
    assert act([ident], v0) == v0

    # shift generator cyclically permutes the basic chamber vertices
    f = shift_generator(Q2, 3)
    ch = basic_chamber(B2)
    verts = ch.vertices()
    images = {act([f], v) for v in verts}
    assert images == set(verts)
    # and the label shifts by one
    for v in verts:
        assert labelling_C(act([f], v))[0] == (labelling_C(v)[0] + 1) % 3

    rng = random.Random(11)
    for _ in range(100):
        x = PolyVertex((random_vertex(Q2, 2, rng),))
        y = PolyVertex((random_vertex(Q2, 2, rng),))
        g = random_unimodular(Q2, 2, rng)
        assert distance_f(act([g], x), act([g], y)) == distance_f(x, y)


def test_act_singular_rejected():
    z = [[Q2.zero(), Q2.zero()], [Q2.zero(), Q2.zero()]]
    with pytest.raises(ValueError):
        act([z], B1.origin())


def test_label_equivariance_under_g():
    rng = random.Random(909)
    pi = Q2.uniformizer()
    for _ in range(50):
        x = PolyVertex((random_vertex(Q2, 3, rng),))
        g = random_unimodular(Q2, 3, rng)
        k = rng.randrange(0, 3)
        g = [[g[i][j] * (pi ** k if j == 0 else Q2.one()) for j in range(3)]
             for i in range(3)]
        vdet = det(Q2, g).valuation()
        assert labelling_C(act([g], x))[0] == (labelling_C(x)[0] + vdet) % 3


def test_involution_examples():
    assert involution_lambda(B2.origin(), [1]) == B2.origin()
    rng = random.Random(2020)
    for _ in range(200):
        x = PolyVertex((random_vertex(Q2, 2, rng), random_vertex(Q2, 3, rng)))
        xx = involution_lambda(involution_lambda(x, [1, 1]), [1, 1])
        assert xx == x
    for _ in range(40):
        x = PolyVertex((random_vertex(Q2, 2, rng), random_vertex(Q2, 3, rng)))
        lx = involution_lambda(x, [1, 0])
        cl, c = labelling_C(lx), labelling_C(x)
        assert cl[0] == (-c[0]) % 2 and cl[1] == c[1]


def test_involution_on_lambda_is_exponent_negation():
    v = PolyVertex((vertex_from_diagonal(Q3, (0, 1, 2)),))
    lv = involution_lambda(v, [1])
    pt, lpt = apartment_point_of_vertex(v), apartment_point_of_vertex(lv)
    e = pt.exponents(0)
    neg = ApartmentPoint([(None, tuple(-x for x in e))])
    assert lpt == neg


def test_involution_preserves_faces():
    b = ball(B2, B2.origin(), 1, detail="faces")
    for face in b.faces:
        img = [involution_lambda(v, [1]) for v in face.vertices()]
        assert is_face(B2, img)


def test_sigma_mu():
    D = BuildingDescriptor([(Q2, 1), (F3T, 1)])
    pt = ApartmentPoint([(None, (0, 2)), (None, (0, -1))])
    assert sigma_mu(pt, [0, 1]) == pt
    swapped = sigma_mu(pt, [1, 0])
    assert swapped.exponents(0) == (0, -1) and swapped.exponents(1) == (0, 2)
    assert sigma_mu(swapped, [1, 0]) == pt
    with pytest.raises(ValueError):
        sigma_mu(ApartmentPoint([(None, (0, 1)), (None, (0, 1, 2))]), [1, 0])

    # swap maps the basic chamber of a square product to itself, permuting labels
    ch = basic_chamber(B11)
    for v in ch.vertices():
        pt = apartment_point_of_vertex(v)
        sw = sigma_mu(pt, [1, 0]).to_vertex(B11)
        assert sw in set(ch.vertices())
        assert labelling_C(sw) == tuple(reversed(labelling_C(v)))


def test_labelling_C_D():
    assert labelling_C(B11.origin()) == (0, 0)
    assert labelling_D(B11, (0, 0)) == B11.origin()
    D = BuildingDescriptor([(Q2, 2), (Q3, 1)])
    for l0 in range(3):
        for l1 in range(2):
            v = labelling_D(D, (l0, l1))
            assert labelling_C(v) == (l0, l1)
    ch = basic_chamber(D)
    for v in ch.vertices():
        assert labelling_D(D, labelling_C(v)) == v
    # C(act(f_i, x)) = C(x) + unit_i
    f0 = shift_generator(Q2, 3)
    x = labelling_D(D, (1, 1))
    assert labelling_C(act([f0, None], x)) == (2, 1)


def test_directed_edge_characterization():
    # x -> y iff undirected-adjacent and C(y) - C(x) is a single unit vector
    b = ball(B11, B11.origin(), 1)
    n_checked = 0
    for i, x in enumerate(b.vertices):
        for j, y in enumerate(b.vertices):
            if i == j:
                continue
            de = is_directed_edge(x, y)
            adj_edge = any({a, c} == {i, j} for (a, c, _f) in b.edges)
            lx, ly = labelling_C(x), labelling_C(y)
            diffs = [(lyk - lxk) % (d + 1)
                     for (lyk, lxk, d) in zip(ly, lx, b.descriptor.dims)]
            unit = sum(1 for t in diffs if t) == 1 and any(t == 1 for t in diffs if t)
            assert de == (adj_edge and unit)
            n_checked += 1
    assert n_checked > 10


def test_ball_json_and_dot():
    b = ball(B1, B1.origin(), 1, detail="faces")
    obj = b.to_json_obj()
    assert {v["id"] for v in obj["vertices"]} == set(range(4))
    assert all(len(e["matrix_per_factor"][0]) == 4 for e in obj["vertices"])
    assert all(ed["factor"] == 0 for ed in obj["edges"])
    assert "chambers" in obj and len(obj["chambers"]) == 3
    dot = b.to_dot()
    assert dot.startswith("graph ball {") and "--" in dot


@pytest.mark.parametrize("model", [Q2, F2T, LaurentModel.get(9)],
                         ids=["Q2", "F2T", "F9T"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shift_powers_equal_the_products_of_the_generator(model, n):
    f = shift_generator(model, n)
    for k in range(n):
        want = reduce(lambda a, b: matmul(model, a, b), [f] * k,
                      identity(model, n))
        assert shift_generator(model, n, k) == want
    for k in (-1, n):
        with pytest.raises(ValueError):
            shift_generator(model, n, k)


# ---------------------------------------------------------------------------
# oracles for chain order, faces, assembly and edge export
# ---------------------------------------------------------------------------

def _containment_shift(x, y):
    """Minimal c with pi^c L_y <= L_x (primitive representatives)."""
    return -class_pair_residue(x, y)[0]


def _chain_order_by_permutations(comps):
    """Reference: the first of all m! orderings whose consecutive minimal
    containment shifts close up to L_0 > .. > L_m > pi L_0."""
    for perm in itertools.permutations(range(len(comps))):
        shifts = sum(_containment_shift(comps[a], comps[b])
                     for a, b in zip(perm, perm[1:]))
        if 1 - shifts >= _containment_shift(comps[perm[-1]], comps[perm[0]]):
            return perm
    return None


def _chain_filtered_faces(fb):
    """Reference: clique extension that keeps a clique only if the
    permutation search finds a chain order for it."""
    faces = []
    adjset = {u: set(vs) for u, vs in fb.adj.items()}

    def extend(clique, candidates):
        for idx, c in enumerate(candidates):
            new = clique + (c,)
            if _chain_order_by_permutations([fb.vertices[i] for i in new]) is None:
                continue
            faces.append(new)
            if len(new) < fb.d + 1:
                extend(new, [x for x in candidates[idx + 1:] if x in adjset[c]])

    for u in range(len(fb.vertices)):
        extend((u,), [v for v in fb.adj[u] if v > u])
    return faces


def _faces_by_lookup(b):
    """Reference: every product of factor simplices all of whose product
    vertices are window vertices, in lexicographic order of the choices."""
    fbs = b.factor_balls
    per_factor = [[(u,) for u in range(len(fb.vertices))] + list(fb.faces)
                  for fb in fbs]
    faces, chambers = [], []
    for t in itertools.product(*per_factor):
        if all(len(c) == 1 for c in t):
            continue
        if all(PolyVertex(tuple(fb.vertices[u] for fb, u in zip(fbs, combo)))
               in b.vid for combo in itertools.product(*t)):
            face = PolyFace([[fb.vertices[u] for u in c] for fb, c in zip(fbs, t)])
            faces.append(face)
            if face.dim_vector() == b.descriptor.dims:
                chambers.append(face)
    return faces, chambers


# single-factor windows (model, d, radius) around seeded centers
_WINDOWS = [(Q2, 2, 2), (Q3, 2, 2), (Q2, 3, 1), (F2T, 3, 1), (F4T, 2, 1)]


@pytest.fixture(scope="module")
def windows():
    rng = random.Random(404)
    out = []
    for model, d, radius in _WINDOWS:
        D = BuildingDescriptor([(model, d)])
        center = PolyVertex((random_vertex(model, d + 1, rng),))
        out.append(Ball(D, center, radius, detail="faces", budget=10**6))
    return out


def _chain_samples(fb, rng):
    """Grown cliques, arbitrary subsets, sets with a repeated label and
    singletons of distinct window vertices."""
    n = fb.d + 1
    verts = fb.vertices
    samples = [[rng.randrange(len(verts))] for _ in range(5)]
    for _ in range(30):
        clique = [rng.randrange(len(verts))]
        size = rng.randrange(2, n + 1)
        while len(clique) < size:
            common = set(fb.adj[clique[0]]).intersection(*(fb.adj[u] for u in clique[1:]))
            if not common:
                break
            clique.append(rng.choice(sorted(common)))
        rng.shuffle(clique)
        samples.append(clique)
    for _ in range(40):
        samples.append(rng.sample(range(len(verts)), rng.randrange(2, n + 1)))
    by_label = {}
    for u, c in enumerate(verts):
        by_label.setdefault(c.label(), []).append(u)
    repeatable = [us for us in by_label.values() if len(us) > 1]
    for _ in range(15):
        pair = rng.sample(rng.choice(repeatable), 2)
        rest = rng.sample(range(len(verts)), rng.randrange(0, n - 1))
        samples.append(pair + [u for u in rest if u not in pair])
    return [[verts[u] for u in s] for s in samples]


def test_chain_order_matches_permutation_search(windows):
    rng = random.Random(505)
    chains = non_chains = repeated = 0
    for b in windows:
        fb = b.factor_balls[0]
        for comps in _chain_samples(fb, rng):
            ref = _chain_order_by_permutations(comps)
            got = _chain_order(comps)
            assert (None if got is None else got[0]) == ref
            if len({c.label() for c in comps}) < len(comps):
                repeated += 1
                assert ref is None
            elif ref is None:
                non_chains += 1
            elif len(comps) > 1:
                chains += 1
    assert chains >= 100 and non_chains >= 50 and repeated >= 50


def test_chain_shifts_are_the_minimal_containment_shifts(windows):
    """Along every chain the representative shifts are the cumulative
    minimal containment shifts, and pi^(c_k) P_k has colength o_k, the label
    offset, in P_0 (the valuation of the determinant of its coordinates)."""
    rng = random.Random(505)
    chains = 0
    for b in windows:
        fb = b.factor_balls[0]
        for comps in _chain_samples(fb, rng):
            got = _chain_order(comps)
            if got is None:
                continue
            order, shifts = got
            chain = [comps[k] for k in order]
            model, n = chain[0].model, chain[0].n
            pi = model.uniformizer()
            T0 = chain[0].primitive_matrix()
            cumulative = 0
            for k, (cls, c) in enumerate(zip(chain, shifts)):
                if k:
                    cumulative += _containment_shift(chain[k - 1], cls)
                assert c == cumulative
                y = solve(model, T0, [[x * pi ** c for x in col]
                                      for col in transpose(cls.primitive_matrix())])
                assert min(x.valuation() for col in y for x in col) >= 0
                offset = (cls.label() - chain[0].label()) % n
                assert det(model, y).valuation() == offset
            chains += len(comps) > 1
    assert chains >= 100


def test_clique_faces_equal_chain_filtered_faces(windows):
    for b in windows:
        fb = b.factor_balls[0]
        assert fb.faces == _chain_filtered_faces(fb)
        assert len(fb.faces) > len(b.edges)


# radius r: a chamber of r factor edges reaches distance r
@pytest.mark.parametrize("factors", [
    [(Q2, 2), (Q2, 2)],
    [(F2T, 1), (Q3, 1), (F3T, 1)],
])
def test_ball_faces_equal_per_combination_lookup(factors):
    D = BuildingDescriptor(factors)
    b = Ball(D, D.origin(), D.r, detail="faces", budget=10**6)
    faces, chambers = _faces_by_lookup(b)
    assert list(b.faces) == faces
    assert list(b.chambers) == chambers
    assert [b.faces[k] for k in range(len(b.faces))] == faces
    assert [b.chambers[k] for k in range(len(b.chambers))] == chambers
    assert b.chambers[-1] == chambers[-1] and b.faces[1:4] == faces[1:4]
    assert chambers and all(b.contains_face(f) for f in faces)


def test_window_faces_are_built_only_when_read(monkeypatch):
    faces, chambers = _faces_by_lookup(Ball(B11, B11.origin(), 2, "faces"))
    built = []
    init = PolyFace.__init__

    def spy(self, factors):
        built.append(factors)
        init(self, factors)

    monkeypatch.setattr(PolyFace, "__init__", spy)
    b = Ball(B11, B11.origin(), 2, detail="faces")
    assert len(b.faces) == len(faces) and len(b.chambers) == len(chambers)
    assert b.faces and b.chambers and "chambers" in b.to_json_obj()
    assert built == []
    assert b.chambers[0].dim_vector() == (1, 1) and len(built) == 1


def test_exported_edges_follow_directed_distance(windows):
    D = BuildingDescriptor([(F2T, 1), (Q3, 1), (F3T, 1)])
    balls = windows + [Ball(D, D.origin(), 2), ball(B11, B11.origin(), 2)]
    for b in balls:
        edges = b.to_json_obj()["edges"]
        assert len(edges) == len(b.edges) > 0
        for (a, c, i), e in zip(b.edges, edges):
            fac = pair_index_normalized(b.vertices[a].components[i],
                                        b.vertices[c].components[i])
            fca = pair_index_normalized(b.vertices[c].components[i],
                                        b.vertices[a].components[i])
            u, v, f = (a, c, fac) if fac <= fca else (c, a, fca)
            assert (e["from"], e["to"], e["factor"], e["directed"]) == (u, v, i, f == 1)


# ---------------------------------------------------------------------------
# windows by residue classification against the full-closure search
# ---------------------------------------------------------------------------

def _window_by_full_closure(model, d, center, radius):
    """Reference: the breadth-first window that computes every neighbor of
    every window vertex, the last level included (the edge closure).
    Returns (vertices, dist, adj, faces) with faces the cliques of adj."""
    vertices, vid, dist, adj = [center], {center: 0}, [0], {0: set()}
    frontier = [0]
    for depth in range(1, radius + 2):
        new = []
        for uid in frontier:
            for nb in all_neighbors(vertices[uid]):
                v = vid.get(nb)
                if v is None and depth <= radius:
                    v = vid[nb] = len(vertices)
                    vertices.append(nb)
                    dist.append(depth)
                    adj[v] = set()
                    new.append(v)
                if v is not None:
                    adj[uid].add(v)
                    adj[v].add(uid)
        frontier = new
    adj = {u: sorted(vs) for u, vs in adj.items()}
    faces = []

    def extend(clique, candidates):
        for idx, c in enumerate(candidates):
            faces.append(clique + (c,))
            if len(clique) + 1 <= d:
                extend(clique + (c,),
                       [x for x in candidates[idx + 1:] if x in adj[c]])

    for u in range(len(vertices)):
        extend((u,), [v for v in adj[u] if v > u])
    return vertices, dist, adj, faces


@pytest.mark.parametrize("model, d, radius", [
    (Q2, 3, 0), (Q2, 3, 1), (Q2, 3, 2), (Q3, 2, 1), (Q3, 2, 2),
    (F4T, 2, 1), (F2T, 3, 1), (Q2, 2, 3), (F2S, 2, 2), (F2S, 2, 3),
    (F2T, 3, 2)],
    ids=repr)
def test_classified_window_equals_the_full_closure(model, d, radius):
    center = random_vertex(model, d + 1, random.Random(f"{model!r}:{d}:{radius}"))
    vertices, dist, adj, faces = _window_by_full_closure(model, d, center, radius)
    for detail in ("vertices", "edges", "faces"):
        fb = FactorBall(model, d, center, radius, detail, budget=10**6)
        assert fb.vertices == vertices and fb.dist == dist
        if detail == "vertices":
            # only the edges between consecutive levels are searched
            assert fb.adj == {u: [v for v in vs if abs(dist[u] - dist[v]) == 1]
                              for u, vs in adj.items()}
        else:
            assert fb.adj == adj
        assert fb.faces == (faces if detail == "faces" else None)


def _spy_computed_neighbors(monkeypatch):
    """The (vertex, neighbor) pairs that windows compute, in order."""
    computed = []

    def spy(v, w, indices=None):
        nbs = neighbors_by_colength(v, w, indices)
        computed.extend((v, nb) for nb in nbs)
        return nbs

    monkeypatch.setattr(building, "neighbors_by_colength", spy)
    return computed


def _edge_count(adj, dist=None):
    """Edges of a window's adj; with dist, only those between consecutive
    levels."""
    return sum(dist is None or abs(dist[u] - dist[v]) == 1
               for u, vs in adj.items() for v in vs if u < v)


@pytest.mark.parametrize("model, d", [(Q2, 3), (F2T, 3), (Q3, 2), (F4T, 2)],
                         ids=repr)
def test_each_window_edge_is_computed_once(model, d, monkeypatch):
    """Around seeded centers at radius 2, a window computes each of its
    edges once, from one end: same-level edges at colength w = n/2 (n = 4
    over Q_2 and F_2((t))) included.  At detail "vertices" it computes the
    edges between consecutive levels, each once."""
    center = random_vertex(model, d + 1, random.Random(f"{model!r}:{d}:2"))
    computed = _spy_computed_neighbors(monkeypatch)
    edges_adj = None
    for detail in ("edges", "faces", "vertices"):
        computed.clear()
        fb = FactorBall(model, d, center, 2, detail, budget=10**6)
        assert len({frozenset(pair) for pair in computed}) == len(computed)
        if detail == "edges":
            edges_adj = fb.adj
            want = _edge_count(fb.adj)
        elif detail == "faces":
            assert fb.adj == edges_adj
        else:
            want = _edge_count(edges_adj, fb.dist)
        assert len(computed) == want


def test_product_window_computes_each_factor_edge_once(monkeypatch):
    """A two-factor window computes each edge of each factor window once."""
    rng = random.Random(21)
    factors = [(Q3, 2), (F2T, 3)]
    B = BuildingDescriptor(factors)
    center = PolyVertex(tuple(random_vertex(m, d + 1, rng) for m, d in factors))
    computed = _spy_computed_neighbors(monkeypatch)
    b = Ball(B, center, 2, detail="edges", budget=10**6)
    assert len({frozenset(pair) for pair in computed}) == len(computed)
    assert len(computed) == sum(_edge_count(fb.adj) for fb in b.factor_balls)


STEP_FIELDS = [Q2, Q3, F2T, F4T, F2S]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(STEP_FIELDS), st.integers(1, 3), st.integers(0, 10**6),
       st.integers(0, 3))
def test_neighbor_steps_predict_the_skeleton_distance(model, d, seed, walk):
    """For a random center o and a vertex u at the end of a seeded walk of
    `walk` steps from o (u = o for none), the predicted distance of every
    neighbor of u equals its skeleton distance from o."""
    rng = random.Random(seed)
    o = random_vertex(model, d + 1, rng)
    u = o
    for _ in range(walk):
        u = rng.choice(neighbors_by_colength(u, rng.randrange(1, d + 1)))
    here = skeleton_distance(o, u)
    steps = neighbor_steps(o, u)
    assert len(steps) == d
    for w, row in enumerate(steps, 1):
        near = neighbors_by_colength(u, w)
        assert len(row) == len(near)
        assert [here + s for s in row] == [skeleton_distance(o, nb) for nb in near]
