import random
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace

import pytest

from btbuildings.building import (
    ApartmentPoint, Ball, BuildingDescriptor, PolyVertex, _chain_order,
    apartment_point_of_vertex, ball, basic_chamber, is_face, project_apartment)
from btbuildings.errors import BudgetError
from btbuildings.field import ExtensionDescriptor, LaurentModel, PAdicModel
from btbuildings.gf import rref
from btbuildings import building, drinfeld, subdivision
from btbuildings.drinfeld import diagonalize_norm, membership_depth
from btbuildings.lattice import (all_neighbors, canonical_form,
                                 class_pair_residue, pair_index_normalized,
                                 skeleton_distance, standard_vertex,
                                 vertex_from_diagonal)
from btbuildings.linalg import solve, transpose
from btbuildings.subdivision import (
    AlcoveChart, Marking, chamber_chart, delta_restrict, eta_chambers,
    eta_integer_points, eta_membership, nu_embed, nu_embed_point,
    subdivide_ball, subdivide_chambers, verify_induced_structure)
from btbuildings.verify import random_unimodular, random_vertex

Q2 = PAdicModel.get(2)
Q3 = PAdicModel.get(3)
F2T = LaurentModel.get(2)
F3T = LaurentModel.get(3)
F4T = LaurentModel.get(4)


# -- eta charts -------------------------------------------------------------

def test_eta_chambers_counts():
    assert len(eta_chambers(1, 3)) == 3
    assert len(eta_chambers(2, 2)) == 4
    assert len(eta_chambers(3, 2)) == 8
    for d in range(1, 4):
        for N in range(1, 4):
            assert len(eta_chambers(d, N)) == N ** d


def test_eta_chambers_budget():
    with pytest.raises(BudgetError):
        eta_chambers(5, 2)


def _eta_chambers_by_search(d, N):
    """Oracle for `eta_chambers`: every naming (sigma, a) with a_0 = 0 and
    a in a window box, kept when its vertices lie in eta_N, and per alcove
    the lexicographically least naming."""
    seen = {}
    window = range(-(N + 1), N + 2)
    for sigma in permutations(range(d + 1)):
        for a_rest in product(window, repeat=d):
            chart = AlcoveChart(d, sigma, (0,) + a_rest)
            verts = chart.vertices()
            if all(eta_membership(v, N) for v in verts):
                key = tuple(sorted(verts))
                prev = seen.get(key)
                if prev is None or (chart.sigma, chart.a) < (prev.sigma, prev.a):
                    seen[key] = chart
    return [seen[k] for k in sorted(seen)]


@pytest.mark.parametrize("d,N", [(d, N) for d in (1, 2, 3) for N in range(1, 7)]
                         + [(4, 1), (4, 2)])
def test_eta_chambers_equal_the_search_oracle(d, N):
    assert eta_chambers(d, N) == _eta_chambers_by_search(d, N)


def test_eta_charts_disjoint_and_cover():
    for d, N in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        charts = eta_chambers(d, N)
        keys = [c.key() for c in charts]
        assert len(set(keys)) == len(keys)
        # sample rational points of eta_N with denominator 2N
        den = 2 * N
        interior_hits = {}
        for z_rest in product(range(0, N * den + 1), repeat=d):
            z = (Fraction(0),) + tuple(Fraction(x, den) for x in z_rest)
            if not eta_membership(z, N):
                continue
            inside = []
            for ci, chart in enumerate(charts):
                if _in_closed_chart(chart, z):
                    inside.append(ci)
            assert len(inside) >= 1, f"uncovered point {z}"
            fracs = sorted(x - int(x) for x in z)
            if len(set(fracs)) == d + 1:
                assert len(inside) == 1, f"interior point {z} in several charts"


def _in_closed_chart(chart, z):
    d = chart.d
    y = [z[chart.sigma[i]] + chart.a[i] for i in range(d + 1)]
    return all(y[i] <= y[i + 1] for i in range(d)) and y[d] <= y[0] + 1


def test_eta_integer_point_count():
    from math import comb
    for d, N in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        assert len(eta_integer_points(d, N)) == comb(N + d, d)


# -- chamber charts ----------------------------------------------------------

def test_chamber_chart_on_random_chambers():
    rng = random.Random(17)
    B2 = BuildingDescriptor([(Q2, 2)])
    b = ball(B2, B2.origin(), 1, detail="faces")
    chambers = [ch for ch in b.chambers]
    assert chambers
    for ch in chambers[:10]:
        comps = list(ch.factors[0])
        B, order, js = chamber_chart(comps)  # verifies the chart itself
        assert js == [0, 1, 2]


def _chart_by_solves(comps):
    """Reference chart: the chain order from the labels, the consecutive
    minimal containment shifts summed along it, one solve per chain member
    for its residue flag in L_0 / pi L_0, js from the flag dimensions, and
    the adapted basis picked from the flags' reduced row-echelon bases
    against a separately kept echelon form."""
    model, n = comps[0].model, comps[0].n
    l0 = comps[0].label()
    order = tuple(sorted(range(len(comps)),
                         key=lambda k: (comps[k].label() - l0) % n))
    chain = [comps[k] for k in order]
    steps = [-class_pair_residue(a, b)[0] for a, b in zip(chain, chain[1:])]
    if (len({c.label() for c in comps}) < len(comps) or 1 - sum(steps)
            < -class_pair_residue(chain[-1], chain[0])[0]):
        raise ValueError("vertex set is not a face chain")
    T0 = chain[0].primitive_matrix()
    gf = model.residue_gf()
    pi = model.uniformizer()
    flags = []
    shift = 0
    for k in range(1, len(chain)):
        shift += steps[k - 1]
        rhs = [[x * pi ** shift for x in col]
               for col in transpose(chain[k].primitive_matrix())]
        flags.append(rref(
            gf, [[model.to_digits(x, 1)[0] for x in sol]
                 for sol in solve(model, T0, rhs)]))
    js = [0] + [n - len(f) for f in flags]
    picked, echelon = [], []
    unit = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    for space in flags[::-1] + [unit]:
        for cand in space:
            grown = rref(gf, [*echelon, cand])
            if len(grown) > len(echelon):
                picked.append(cand)
                echelon = grown
    picked.reverse()
    B = [[sum((model.lift_residue(coeff) * T0[i][c]
               for c, coeff in enumerate(r) if coeff), model.zero())
          for r in picked] for i in range(n)]
    return B, order, js


# seeded single-factor windows (model, d, radius); one d = 3 window, as
# its 1391 faces take most of the test's time
_CHART_WINDOWS = [(Q2, 1, 2), (Q3, 1, 1), (F2T, 1, 2), (F4T, 1, 1),
                  (Q2, 2, 1), (Q3, 2, 1), (F2T, 2, 1), (F4T, 2, 1),
                  (Q2, 3, 1)]


def test_chamber_chart_equals_the_solve_reference():
    """Every face of every size of seeded windows, in window order and
    reversed (so that the chain starts elsewhere and needs pi-shifts)."""
    rng = random.Random(909)
    sizes = set()
    for model, d, radius in _CHART_WINDOWS:
        B = BuildingDescriptor([(model, d)])
        center = PolyVertex((random_vertex(model, d + 1, rng),))
        fb = Ball(B, center, radius, detail="faces", budget=10**6).factor_balls[0]
        for face in [(u,) for u in range(len(fb.vertices))] + list(fb.faces):
            comps = [fb.vertices[u] for u in face]
            sizes.add((d, len(comps)))
            for cs in (comps, comps[::-1]):
                assert chamber_chart(cs) == _chart_by_solves(cs)
    assert sizes == {(d, m) for d in (1, 2, 3) for m in range(1, d + 2)}


def test_norm_ball_charts_equal_the_solve_reference(monkeypatch):
    """The chains of norm balls that `diagonalize_norm` charts, on the
    points of the diagonalization tests."""
    from test_drinfeld import (_DIAGONAL_CASES, _point_quartic, _point_ram,
                               _point_unram, _seeded_points)
    cases = [(_point_unram("w"), 1), (_point_ram("s"), 1),
             (_point_ram("1+s"), 1), (_point_ram("s^3"), 2),
             (_point_quartic(["w", "s*w"]), 1)]
    for case, (q, tower, d, N) in enumerate(_DIAGONAL_CASES):
        for x in _seeded_points(q, tower, d, 6, seed=40 + case):
            n = membership_depth(x, max_n=N)
            if n is not None:
                cases.append((x, n))
    charted = []

    def spy(comps):
        got = chamber_chart(comps)
        assert got == _chart_by_solves(comps)
        charted.append(len(comps))
        return got

    monkeypatch.setattr(drinfeld, "chamber_chart", spy)
    for x, n in cases:
        diagonalize_norm(x, 0, n)
    assert len(charted) == len(cases) and max(charted) > 1


def test_chamber_chart_rejects_a_wrong_class(monkeypatch):
    """The chart check is an explicit raise, so it also runs under -O."""
    B2 = BuildingDescriptor([(Q2, 2)])
    b = ball(B2, B2.origin(), 1, detail="faces")
    comps = list(b.chambers[0].factors[0])
    far = vertex_from_diagonal(Q2, (0, 5, 9))
    monkeypatch.setattr(subdivision, "action", lambda model, g: lambda v: far)
    with pytest.raises(ArithmeticError, match="chart verification failed"):
        chamber_chart(comps)


def test_chamber_chart_rejects_a_shift_that_is_not_minimal(monkeypatch):
    """The residue flag is read at the chain shifts c_k, which are the
    minimal containment shifts; any other shift is an explicit raise."""
    B2 = BuildingDescriptor([(Q2, 2)])
    b = ball(B2, B2.origin(), 1, detail="faces")
    comps = list(b.chambers[0].factors[0])
    order, shifts = _chain_order(comps)
    monkeypatch.setattr(subdivision, "_chain_order",
                        lambda cs: (order, [shifts[0]] + [c + 1 for c in shifts[1:]]))
    with pytest.raises(ArithmeticError, match="minimal containment shift"):
        chamber_chart(comps)


# -- subdivision -------------------------------------------------------------

def test_subdivide_marking_one_is_identity():
    B1 = BuildingDescriptor([(Q2, 1)])
    b = ball(B1, B1.origin(), 1, detail="faces")
    sub = subdivide_ball(b, Marking([1]))
    assert len(sub.points) == len(b.vertices)
    assert len(sub.edges) == len(b.edges)
    assert len(sub.subchambers) == len(b.chambers)


def test_subdivide_single_edge_midpoint():
    B1 = BuildingDescriptor([(Q2, 1)])
    ch = basic_chamber(B1)
    sub = subdivide_chambers(B1, [ch], Marking([2]))
    assert len(sub.points) == 3
    assert len(sub.edges) == 2
    assert len(sub.subchambers) == 2
    mids = [fp for fp in sub.factor_points[0] if len(fp) == 2]
    assert len(mids) == 1
    assert all(lam == Fraction(1, 2) for _, lam in mids[0])


def test_subdivide_square_chamber():
    B11 = BuildingDescriptor([(Q2, 1), (Q2, 1)])
    ch = basic_chamber(B11)
    sub = subdivide_chambers(B11, [ch], Marking([2, 1]))
    # 2 sub-squares: 3 x 2 vertex grid
    assert len(sub.subchambers) == 2
    assert len(sub.points) == 6
    assert all(len(c) == 4 for c in sub.subchambers)


def test_subdivision_glues_across_shared_faces():
    B1 = BuildingDescriptor([(Q2, 1)])
    b = ball(B1, B1.origin(), 1, detail="faces")
    sub = subdivide_ball(b, Marking([2]))
    # 3 edges, each bisected: 4 + 3 points, 6 edges, 6 subchambers
    assert len(sub.points) == 7
    assert len(sub.edges) == 6
    assert len(sub.subchambers) == 6


def test_subdivided_vertex_coords_are_m_integral():
    B2 = BuildingDescriptor([(F3T, 2)])
    ch = basic_chamber(B2)
    sub = subdivide_chambers(B2, [ch], Marking([2]))
    for coords in sub.coords:
        for factor in coords:
            for x in factor:
                assert (x * 2).denominator == 1


def test_subdivision_json():
    B1 = BuildingDescriptor([(Q2, 1)])
    sub = subdivide_chambers(B1, [basic_chamber(B1)], Marking([2]))
    obj = sub.to_json_obj()
    assert obj["marking"] == [2]
    assert len(obj["vertices"]) == 3
    assert all("coords" in v and "carrier" in v for v in obj["vertices"])


def _subdivide_by_charts(descriptor, chambers, marking):
    """Reference: the subdivision with the chain order and unit steps of
    every factor chamber taken from its `chamber_chart`, the alcove
    template rebuilt per chamber and factor, and product points keyed by
    their carriers.  Returns the complex and the carrier keys of its
    points."""
    sub = subdivision.SubdividedComplex(descriptor, marking)
    pid = {}
    charts = {}
    for chamber in chambers:
        factor_data = []
        for i, fverts in enumerate(chamber.factors):
            N = marking.per_factor[i]
            d = len(fverts) - 1
            if fverts not in charts:
                charts[fverts] = chamber_chart(list(fverts))
            _B, order, js = charts[fverts]
            assert js == list(range(d + 1))
            chain = [fverts[j] for j in order]
            pt_index, plist = {}, []
            for z in eta_integer_points(d, N):
                lam = subdivision._barycentric_of_point(z, N)
                key = tuple(sorted(((chain[m], lam[m]) for m in range(d + 1)
                                    if lam[m] > 0),
                                   key=lambda cl: cl[0].sort_key()))
                pt_index[z] = len(plist)
                plist.append((key, tuple(Fraction(zi, N) for zi in z)))
            alcoves = [[pt_index[v] for v in chart.vertices()]
                       for chart in eta_chambers(d, N)]
            factor_data.append((plist, alcoves))
        r = descriptor.r
        for combo in product(*(alcoves for _plist, alcoves in factor_data)):
            ids = {}
            for vt in product(*combo):
                key = tuple(factor_data[i][0][vt[i]][0] for i in range(r))
                if key not in pid:
                    pid[key] = len(sub.coords)
                    sub.coords.append(tuple(factor_data[i][0][vt[i]][1]
                                            for i in range(r)))
                ids[vt] = pid[key]
            sub.subchambers.append(tuple(sorted(set(ids.values()))))
            for vt in ids:
                for i in range(r):
                    for other in combo[i]:
                        b = ids[vt[:i] + (other,) + vt[i + 1:]]
                        if ids[vt] != b:
                            sub.edges.add((min(ids[vt], b), max(ids[vt], b), i))
    sub.subchambers = sorted(set(sub.subchambers))
    fids = [{} for _ in range(descriptor.r)]
    sub.points = [tuple(fids[i].setdefault(fp, len(fids[i]))
                        for i, fp in enumerate(key)) for key in pid]
    sub.factor_points = [list(f) for f in fids]
    return sub, list(pid)


@pytest.mark.parametrize("factors,radius,marking,flip", [
    ([(Q2, 2), (Q2, 2)], 2, [2, 2], False),
    ([(F2T, 2)], 1, [3], False),
    ([(F2T, 2)], 1, [3], True),
    # three factors (radius 2 has no chamber), mixed dimensions, and a
    # marking that leaves one factor whole while it cuts another in three
    ([(F2T, 1), (Q3, 1), (F3T, 1)], 3, [2, 3, 2], False),
    ([(F2T, 1), (Q3, 1), (F3T, 1)], 3, [2, 3, 2], True),
    ([(Q2, 2), (F2T, 1)], 2, [2, 3], False),
    ([(Q2, 2), (F2T, 1)], 2, [2, 3], True),
    ([(Q3, 1), (F2T, 2)], 2, [1, 3], False),
    ([(Q3, 1), (F2T, 2)], 2, [1, 3], True),
])
def test_subdivision_equals_the_chamber_chart_reference(factors, radius,
                                                        marking, flip):
    B = BuildingDescriptor(factors)
    b = ball(B, B.origin(), radius, detail="faces", budget=20000)
    chambers = b.chambers
    assert chambers
    if flip:
        # windows list factor chambers in chain order; reversed, the chain
        # order has to be found
        chambers = [SimpleNamespace(factors=tuple(f[::-1] for f in ch.factors))
                    for ch in chambers]
    want, _keys = _subdivide_by_charts(B, chambers, Marking(marking))
    got = subdivide_chambers(B, chambers, Marking(marking))
    assert got.to_json_obj() == want.to_json_obj()


def test_subdivision_orders_each_factor_chamber_once(monkeypatch):
    """On the product window of the `subsystems` benchmark, one chain order
    per distinct factor chamber of each factor, not one per product
    chamber and factor."""
    B = BuildingDescriptor([(Q2, 2), (Q2, 2)])
    b = ball(B, B.origin(), 2, detail="faces", budget=20000)
    calls = []

    def spy(comps):
        calls.append(tuple(comps))
        return _chain_order(comps)

    monkeypatch.setattr(subdivision, "_chain_order", spy)
    sub = subdivide_chambers(B, b.chambers, Marking([2, 2]))
    distinct = [{ch.factors[i] for ch in b.chambers} for i in range(2)]
    assert len(sub.subchambers) == 7056
    assert len(calls) == sum(map(len, distinct)) == 42
    assert set(calls) == distinct[0] | distinct[1]


# -- nu and delta ------------------------------------------------------------

EXT_RAM = ExtensionDescriptor(F2T, e=2, f=1)
EXT_UNRAM = ExtensionDescriptor(F2T, e=1, f=2)


def test_nu_standard_lattice():
    v = standard_vertex(F2T, 2)
    assert nu_embed(v, EXT_RAM) == standard_vertex(EXT_RAM.extension, 2)


def test_nu_ramified_distance():
    # [<T_0, t T_1>] -> [<T_0, s^2 T_1>], at distance 2 from the origin
    v = vertex_from_diagonal(F2T, (0, 1))
    img = nu_embed(v, EXT_RAM)
    assert img == vertex_from_diagonal(EXT_RAM.extension, (0, 2))
    origin = standard_vertex(EXT_RAM.extension, 2)
    assert skeleton_distance(origin, img) == 2
    # adjacent vertices map to vertices at distance e
    for nb in all_neighbors(v):
        assert skeleton_distance(nu_embed(v, EXT_RAM), nu_embed(nb, EXT_RAM)) == 2


def test_nu_unramified_simplicial_and_missing_neighbors():
    B = BuildingDescriptor([(F2T, 1)])
    b = ball(B, B.origin(), 1)
    big = BuildingDescriptor([(EXT_UNRAM.extension, 1)])
    imgs = [nu_embed(v.components[0], EXT_UNRAM) for v in b.vertices]
    assert len(set(imgs)) == len(imgs)  # injective
    for (a, c, _f) in b.edges:
        assert skeleton_distance(imgs[a], imgs[c]) == 1
        assert is_face(big, [PolyVertex((imgs[a],)), PolyVertex((imgs[c],))])
    # the extension tree has q^2 + 1 = 5 neighbors; the image hits q + 1 = 3
    big_nb = set(all_neighbors(standard_vertex(EXT_UNRAM.extension, 2)))
    assert len(big_nb) == 5
    hit = {i for i in imgs[1:]}
    assert hit <= big_nb
    assert len(big_nb - hit) == 5 - 3  # q^2 - q = 2 missing


def test_nu_apartment_distance_scaling():
    rng = random.Random(404)
    for _ in range(20):
        e1 = tuple(rng.randrange(0, 3) for _ in range(3))
        e2 = tuple(rng.randrange(0, 3) for _ in range(3))
        x = vertex_from_diagonal(F2T, e1)
        y = vertex_from_diagonal(F2T, e2)
        dist = skeleton_distance(x, y)
        assert skeleton_distance(nu_embed(x, EXT_RAM), nu_embed(y, EXT_RAM)) == 2 * dist


def test_delta_nu_identity_on_vertices():
    rng = random.Random(123)
    B = BuildingDescriptor([(F2T, 2)])
    for _ in range(100):
        exps = tuple(rng.randrange(-2, 3) for _ in range(3))
        pt = ApartmentPoint([(None, exps)])
        assert delta_restrict(nu_embed_point(pt, EXT_RAM), EXT_RAM) == pt
    # with a nonstandard basis defined over the base
    basis = random_unimodular(F2T, 2, random.Random(9))
    pt = ApartmentPoint([(basis, (0, 2))])
    back = delta_restrict(nu_embed_point(pt, EXT_RAM), EXT_RAM)
    assert back.exponents(0) == pt.exponents(0)


def test_delta_midpoint_and_unramified():
    pt_k = ApartmentPoint([(None, (0, 1))])  # odd coordinate over k
    half = delta_restrict(pt_k, EXT_RAM)
    assert half.exponents(0) == (Fraction(0), Fraction(1, 2))
    same = delta_restrict(pt_k, EXT_UNRAM)
    assert same.exponents(0) == (0, 1)


def test_delta_rejects_non_base_basis():
    E = EXT_RAM.extension
    basis = [[E.element("1"), E.element("0")], [E.element("s"), E.element("1")]]
    pt = ApartmentPoint([(basis, (0, 1))])
    with pytest.raises(ValueError):
        delta_restrict(pt, EXT_RAM)


# -- induced structure -------------------------------------------------------

def test_induced_structure_trivial_e1():
    B = BuildingDescriptor([(F2T, 1)])
    b = ball(B, B.origin(), 1, detail="faces")
    ext1 = ExtensionDescriptor(F2T, e=1, f=1, var="s")
    rep = verify_induced_structure(b, ext1)
    assert rep["passed"]


def test_induced_structure_d1_e2():
    B = BuildingDescriptor([(F2T, 1)])
    b = ball(B, B.origin(), 1, detail="faces")
    rep = verify_induced_structure(b, EXT_RAM)
    assert rep["passed"]
    # each k'-edge becomes 2 k-edges: 3 chambers x 2 subchambers
    assert rep["subchambers_checked"] == 6


def test_induced_structure_d2_e2():
    B = BuildingDescriptor([(F2T, 2)])
    ch = basic_chamber(B)
    sub_descriptor = B
    from btbuildings.subdivision import subdivide_chambers

    class _Shim:
        descriptor = B
        chambers = [ch]
    rep = verify_induced_structure(_Shim(), EXT_RAM)
    assert rep["passed"]
    assert rep["subchambers_checked"] == 4  # e^d sub-chambers


def _chart_image(fpoint, ext):
    """Reference nu-image of a factor point: its chart coordinates over the
    carrier's `chamber_chart`, scaled by e, on the embedded chart basis."""
    carrier = [c for c, _ in fpoint]
    if len(carrier) == 1:
        return canonical_form(ext.extension,
                              [[ext.embed(x) for x in row]
                               for row in carrier[0].primitive_matrix()])
    n = carrier[0].n
    B, order, js = chamber_chart(carrier)
    pos = {carrier[k]: p for p, k in enumerate(order)}
    coords = [Fraction(0)] * n
    for cls, lam in fpoint:
        for j in range(js[pos[cls]], n):
            coords[j] += lam
    s = ext.extension.uniformizer()
    cols = [[ext.embed(B[i][j]) * s ** (-int(coords[j] * ext.e))
             for j in range(n)] for i in range(n)]
    return canonical_form(ext.extension, cols)


def _induced_by_product_images(b, ext):
    """Reference: the induced-structure check on the product, subchamber by
    subchamber.  Every point of the `_subdivide_by_charts` subdivision gets
    the product of its factors' chart images; a subchamber passes if its
    images are distinct, form a face of the extension's building and have
    that building's dimensions.  The report stops at the first failure."""
    sub, keys = _subdivide_by_charts(b.descriptor, b.chambers,
                                     Marking([ext.e] * b.descriptor.r))
    big = BuildingDescriptor([(ext.extension, d) for d in b.descriptor.dims])
    charted = {fp: _chart_image(fp, ext) for fp in {fp for key in keys
                                                    for fp in key}}
    image = [PolyVertex(tuple(charted[fp] for fp in key)) for key in keys]
    failures = []
    checked = 0
    for ch in sub.subchambers:
        checked += 1
        img = [image[pid] for pid in ch]
        if len(set(img)) != len(img):
            failures.append({"subchamber": list(ch), "reason": "image not injective"})
        elif not is_face(big, img):
            failures.append({"subchamber": list(ch), "reason": "image is not a face"})
        else:
            dims = [len(set(v.components[i] for v in img)) - 1
                    for i in range(big.r)]
            if tuple(dims) != big.dims:
                failures.append({"subchamber": list(ch),
                                 "reason": f"image has dimension {dims}, not a chamber"})
        if failures:
            break
    return {
        "passed": not failures,
        "subchambers_checked": checked,
        "points": len(sub.points),
        "failures": failures,
    }


@pytest.mark.parametrize("factors,seed,radius,e,f", [
    ([(F2T, 1)], None, 1, 2, 1),
    ([(F2T, 1)], 7, 2, 3, 1),
    ([(F2T, 2)], 3, 1, 2, 1),
    ([(F2T, 2)], 5, 1, 2, 2),
    ([(F2T, 1), (F2T, 1)], None, 2, 2, 1),
])
def test_induced_structure_equals_the_product_reference(factors, seed, radius,
                                                        e, f):
    """The per-factor-alcove check gives the report of the product check."""
    B = BuildingDescriptor(factors)
    center = B.origin()
    if seed is not None:
        rng = random.Random(seed)
        center = PolyVertex(tuple(random_vertex(m, d + 1, rng)
                                  for m, d in factors))
    b = ball(B, center, radius, detail="faces", budget=20000)
    ext = ExtensionDescriptor(F2T, e=e, f=f)
    want = _induced_by_product_images(b, ext)
    assert want["passed"] and want["subchambers_checked"] > 0
    assert verify_induced_structure(b, ext) == want


def test_induced_structure_names_each_failing_factor_alcove(monkeypatch):
    """Negative controls: images shared within an alcove, and distinct
    images that are not a chain, fail every factor alcove by name."""
    B = BuildingDescriptor([(F2T, 1), (F2T, 1)])
    b = ball(B, B.origin(), 2, detail="faces")
    sub = subdivide_ball(b, Marking([2, 2]))
    alcoves = [(i, list(a)) for i in range(2) for a in sub.factor_alcoves[i]]
    K = EXT_RAM.extension
    far = {}
    for image, reason in [
            (lambda fp, ext: standard_vertex(K, 2), "image not injective"),
            (lambda fp, ext: far.setdefault(
                fp, vertex_from_diagonal(K, (0, 3 * len(far)))),
             "image is not a face")]:
        monkeypatch.setattr(subdivision, "_image_vertex_of_factor_point", image)
        rep = verify_induced_structure(b, EXT_RAM)
        assert rep["passed"] is False
        assert rep["failures"] == [{"factor": i, "alcove": a, "reason": reason}
                                   for i, a in alcoves]


def test_induced_structure_decides_each_directed_image_edge_once(monkeypatch):
    """On a seeded F_2((t)), d = 2, radius-2 plane window with e = 2, the
    alcove check decides exactly the distinct label-successor pairs of the
    alcove images, each once, and reports what the product check reports."""
    B = BuildingDescriptor([(F2T, 2)])
    center = PolyVertex((random_vertex(F2T, 3, random.Random(1)),))
    b = ball(B, center, 2, detail="faces", budget=20000)
    ext = ExtensionDescriptor(F2T, e=2, f=1)
    calls = []

    def spy(x, y):
        calls.append((x, y))
        return pair_index_normalized(x, y)

    monkeypatch.setattr(subdivision, "pair_index_normalized", spy)
    rep = verify_induced_structure(b, ext)
    sub = subdivide_ball(b, Marking([2]))
    alcoves = sub.factor_alcoves[0]
    image = [subdivision._image_vertex_of_factor_point(fp, ext)
             for fp in sub.factor_points[0]]
    edges = set()
    for alcove in alcoves:
        by_label = sorted((image[k] for k in alcove), key=lambda c: c.label())
        edges.update(zip(by_label, by_label[1:] + by_label[:1]))
    assert len(calls) == len(set(calls)) == len(edges) < 3 * len(alcoves)
    assert set(calls) == edges
    assert rep == _induced_by_product_images(b, ext)
    assert rep["passed"] and rep["subchambers_checked"] == 4 * len(b.chambers)


def test_nu_image_reads_the_chain_order_off_the_labels(monkeypatch):
    """On the seeded plane window of the test above, the nu-images of all
    subdivided points make no pair decision: each carrier is a face of a
    chamber that the subdivision has checked, with d + 1 decisions per
    distinct chamber (693).  Ordering each carrier again with
    `_chain_order` took 686 more."""
    B = BuildingDescriptor([(F2T, 2)])
    center = PolyVertex((random_vertex(F2T, 3, random.Random(1)),))
    b = ball(B, center, 2, detail="faces", budget=20000)
    ext = ExtensionDescriptor(F2T, e=2, f=1)
    calls = []

    def spy(x, y):
        calls.append((x, y))
        return pair_index_normalized(x, y)

    monkeypatch.setattr(building, "pair_index_normalized", spy)
    sub = subdivide_ball(b, Marking([2]))
    assert len(calls) == 3 * len({ch.factors[0] for ch in b.chambers}) == 693
    calls.clear()
    for fp in sub.factor_points[0]:
        subdivision._image_vertex_of_factor_point(fp, ext)
    assert calls == []
    assert verify_induced_structure(b, ext)["passed"]
    assert len(calls) == 693


def test_nu_image_rejects_a_class_off_the_base():
    """The digit nu-image reads classes over the extension's base only."""
    B = BuildingDescriptor([(F3T, 1)])
    b = ball(B, B.origin(), 1, detail="faces")
    with pytest.raises(ValueError, match="not over the extension's base"):
        verify_induced_structure(b, EXT_RAM)
    with pytest.raises(ValueError, match="not over the extension's base"):
        nu_embed(standard_vertex(F3T, 2), EXT_RAM)


@pytest.mark.parametrize("model,d,radius,e,f", [
    (F2T, 1, 2, 3, 1),
    (F2T, 2, 1, 2, 1),
    (F3T, 2, 1, 2, 1),
    (F2T, 2, 1, 2, 2),
    (F2T, 3, 1, 2, 1),
    (F4T, 1, 1, 3, 1),
])
def test_nu_image_equals_the_chamber_chart_reference(model, d, radius, e, f):
    """The sum of embedded chain lattices gives the chart image on every
    point of the e-fold subdivision of a window around a seeded center.
    The chain starts at the carrier's first class, so the reversed carrier
    starts it elsewhere, where representatives need a pi-shift."""
    ext = ExtensionDescriptor(model, e=e, f=f)
    B = BuildingDescriptor([(model, d)])
    center = PolyVertex((random_vertex(model, d + 1, random.Random(d + e)),))
    b = ball(B, center, radius, detail="faces", budget=20000)
    sub = subdivide_ball(b, Marking([e]))
    fpoints = set(sub.factor_points[0])
    assert max(len(fp) for fp in fpoints) == min(d + 1, e)
    for fpoint in fpoints:
        want = _chart_image(fpoint, ext)
        for fp in (fpoint, fpoint[::-1]):
            assert subdivision._image_vertex_of_factor_point(fp, ext) == want


def test_subdivide_rejects_a_factor_face_that_is_not_a_chamber():
    B2 = BuildingDescriptor([(Q2, 2)])
    a, b, _c = basic_chamber(B2).factors[0]
    far = vertex_from_diagonal(Q2, (0, 0, 3))
    for fverts in [(a, b), (a, b, far)]:
        with pytest.raises(ValueError, match="factor face is not a chamber"):
            subdivide_chambers(B2, [SimpleNamespace(factors=(fverts,))],
                               Marking([2]))


def test_marking_validation():
    with pytest.raises(ValueError):
        Marking([0])
    with pytest.raises(ValueError):
        subdivide_chambers(BuildingDescriptor([(Q2, 1)]),
                           [basic_chamber(BuildingDescriptor([(Q2, 1)]))],
                           Marking([1, 1]))
