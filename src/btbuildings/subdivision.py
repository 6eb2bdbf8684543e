"""Subdivision machinery: dilated simplices eta_N and their alcove charts,
markings and the subdivided complex B[M], extension embeddings nu and
restrictions delta, and the check that the structure induced from the
bigger building equals the e-fold subdivision.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .building import ApartmentPoint, _chain_order, _label_order
from .errors import BudgetError
from .gf import row_space
from .lattice import (action, class_pair_residue, column_class, digit_ops,
                      embed_digits, guard_precision, pair_index_normalized,
                      vertex_from_diagonal)


# ---------------------------------------------------------------------------
# alcove charts of the dilated simplex eta_N
# ---------------------------------------------------------------------------

class AlcoveChart:
    """Chamber eta(sigma, a) of the standard apartment, named canonically
    (a_0 = 0, lexicographically least among the namings of its chamber,
    which is the one with sigma_0 = 0: see `eta_chambers`)."""

    __slots__ = ("d", "sigma", "a")

    def __init__(self, d, sigma, a):
        self.d = d
        self.sigma = tuple(sigma)
        self.a = tuple(a)
        if self.a[0] != 0:
            raise ValueError("canonical naming requires a_0 = 0")

    def __repr__(self):
        return f"AlcoveChart(sigma={self.sigma}, a={self.a})"

    def __eq__(self, other):
        return (isinstance(other, AlcoveChart) and self.d == other.d
                and self.sigma == other.sigma and self.a == other.a)

    def __hash__(self):
        return hash((self.d, self.sigma, self.a))

    def vertices(self):
        """The d+1 vertices as shift-normalized integer coordinate tuples."""
        d = self.d
        out = []
        for m in range(d + 1):
            x = [0] * (d + 1)
            for i in range(d + 1):
                x[self.sigma[i]] = (1 if i >= d + 1 - m else 0) - self.a[i]
            x0 = x[0]
            out.append(tuple(xi - x0 for xi in x))
        return out

    def key(self):
        return tuple(sorted(self.vertices()))


def eta_membership(vertex, N):
    """Closed condition x_0 <= x_1 <= .. <= x_d <= x_0 + N on a coordinate
    tuple (shift-invariant)."""
    d = len(vertex) - 1
    for i in range(d):
        if not vertex[i] <= vertex[i + 1]:
            return False
    return vertex[d] <= vertex[0] + N


_ETA_D_BOUND = 4
_ETA_N_BOUND = 6


def eta_chambers(d, N):
    """The alcoves whose closed chamber lies inside eta_N, canonical names,
    ordered by their sorted vertex sets.  |result| = N^d.

    An alcove has d + 1 namings, one per vertex z taken as its base vertex
    (m = 0), so that a_i = z_(sigma_0) - z_(sigma_i) (a_0 = 0).  The base
    vertex z + e_(sigma_d) + .. + e_(sigma_(d+1-m)) of name m names the
    alcove with sigma rotated m places, so the namings' sigma are the d + 1
    cyclic rotations of one of them, exactly one has sigma_0 = 0, and it is
    the least.  An alcove inside eta_N has its base vertices in eta_N, so
    its canonical name comes from one sigma with sigma_0 = 0 and one
    integer point z of eta_N, a_i = z_0 - z_(sigma_i)."""
    if d > _ETA_D_BOUND or N > _ETA_N_BOUND:
        raise BudgetError(f"eta_chambers bounds exceeded: d={d}, N={N}")
    if N < 1:
        raise ValueError("N must be >= 1")
    charts = []
    for rest, z in product(permutations(range(1, d + 1)),
                           eta_integer_points(d, N)):
        sigma = (0,) + rest
        chart = AlcoveChart(d, sigma, [z[0] - z[j] for j in sigma])
        if all(eta_membership(v, N) for v in chart.vertices()):
            charts.append(chart)
    return sorted(charts, key=AlcoveChart.key)


def eta_integer_points(d, N):
    """Integer points of eta_N, normalized z_0 = 0: 0 <= z_1 <= .. <= z_d <= N."""
    out = []
    for z_rest in product(range(N + 1), repeat=d):
        z = (0,) + z_rest
        if all(z[i] <= z[i + 1] for i in range(d)):
            out.append(z)
    return out


def _barycentric_of_point(z, N):
    """Weights lambda_m (m = 0..d) of z over the corners of eta_N."""
    d = len(z) - 1
    lam = [Fraction(0)] * (d + 1)
    for m in range(1, d + 1):
        lam[m] = Fraction(z[d + 1 - m] - z[d - m], N)
    lam[0] = 1 - sum(lam[1:])
    if any(x < 0 for x in lam) or sum(lam) != 1:
        raise ArithmeticError("point lies outside the dilated simplex")
    return tuple(lam)


# ---------------------------------------------------------------------------
# markings and the subdivided complex
# ---------------------------------------------------------------------------

class Marking:
    """Per-factor edge numbers; product-complex edges inherit their factor's
    number, which is the required coherence on every closed face."""

    __slots__ = ("per_factor",)

    def __init__(self, per_factor):
        per_factor = tuple(int(m) for m in per_factor)
        if any(m < 1 for m in per_factor):
            raise ValueError("marking numbers must be positive")
        self.per_factor = per_factor

    def __repr__(self):
        return f"Marking({self.per_factor})"


def chamber_chart(comps):
    """Adapted apartment chart for a factor face: a basis matrix B (columns
    u_1..u_n over the factor field), the chain order, and the cumulative
    colengths js, so that the k-th chain vertex is
    [<pi u_1,..,pi u_{js[k]}, u_{js[k]+1},..,u_n>].

    The order and the representatives L_k = pi^(c_k) P_k come from
    `_chain_order`, and js are the label offsets.  The residue flag of the
    L_k in L_0 / pi L_0 is the column space of the residue matrix of
    `class_pair_residue(L_0, L_k)`, read at the shift c_k: on a chain,
    pi^(c_k) P_k lies in L_0 but not in pi L_0, so c_k is the minimal
    containment shift, and anything else is an ArithmeticError.  The flag
    is diagonalized over the residue field and lifted through the
    primitive basis T_0 of L_0."""
    model = comps[0].model
    n = comps[0].n
    found = _chain_order(comps)
    if found is None:
        raise ValueError("vertex set is not a face chain")
    order, shifts = found
    chain = [comps[i] for i in order]
    L0 = chain[0]
    T0 = L0.primitive_matrix()
    gf = model.residue_gf()
    flags = []
    for c, cls in zip(shifts[1:], chain[1:]):
        m, A = class_pair_residue(L0, cls)
        if m != -c:
            raise ArithmeticError("chain member is not at its minimal "
                                  "containment shift")
        flags.append(row_space(gf, zip(*A)))
    l0 = L0.label()
    js = [(cls.label() - l0) % n for cls in chain]
    # adapted residue basis: the last n - js[k] vectors span W_k; a
    # candidate is picked when it raises the rank of the picked vectors
    picked = []
    spans = flags[::-1] + [row_space(gf, [[1 if i == j else 0 for i in range(n)]
                                          for j in range(n)])]
    for space in spans:
        for cand in space:
            if len(row_space(gf, picked + [cand])) > len(picked):
                picked.append(cand)
    if len(picked) != n:
        raise ArithmeticError("flag vectors do not span the residue space")
    picked.reverse()
    B = [[None] * n for _ in range(n)]
    for j, r in enumerate(picked):
        for i in range(n):
            acc = model.zero()
            for c, coeff in enumerate(r):
                if coeff:
                    acc = acc + model.lift_residue(coeff) * T0[i][c]
            B[i][j] = acc
    # verify the chart reproduces the chain
    chart = action(model, B)
    for k, cls in enumerate(chain):
        exps = (1,) * js[k] + (0,) * (n - js[k])
        if chart(vertex_from_diagonal(model, exps)) != cls:
            raise ArithmeticError("chart verification failed")
    return B, order, js


class SubdividedComplex:
    """Result of subdividing the chambers of a window, built from its
    factors.  Per factor: the subdivided points, as barycentric keys over
    building vertices (chart-independent), and the distinct alcoves, as
    sorted tuples of their point ids.  A product point is the tuple of its
    factor point ids, with the exact rational chart coordinates of the
    chamber where it first appears, for export."""

    def __init__(self, descriptor, marking):
        self.descriptor = descriptor
        self.marking = marking
        self.factor_points = [[] for _ in range(descriptor.r)]
        self.factor_alcoves = [[] for _ in range(descriptor.r)]
        self.points = []
        self.coords = []
        self.edges = set()
        self.subchambers = []

    def to_json_obj(self):
        verts = []
        for i, key in enumerate(self.points):
            carriers = []
            for fpoints, fid in zip(self.factor_points, key):
                carriers.append([{"vertex": c.serialize(), "weight": str(lam)}
                                 for c, lam in fpoints[fid]])
            verts.append({
                "id": i,
                "carrier": carriers,
                "coords": [[str(x) for x in factor_coords]
                           for factor_coords in self.coords[i]],
            })
        return {
            "marking": list(self.marking.per_factor),
            "vertices": verts,
            "edges": sorted([a, b, f] for (a, b, f) in self.edges),
            "chambers": sorted(sorted(ch) for ch in self.subchambers),
        }


def _alcove_template(d, N):
    """The subdivision of one chamber of a d-dimensional factor with edge
    number N, independent of the chamber: per integer point of eta_N its
    barycentric weights over the chain vertices and its chart coordinates,
    and per alcove the indices of its points."""
    points = eta_integer_points(d, N)
    pt_index = {z: k for k, z in enumerate(points)}
    lams = [_barycentric_of_point(z, N) for z in points]
    coords = [tuple(Fraction(zi, N) for zi in z) for z in points]
    alcoves = [[pt_index[v] for v in chart.vertices()]
               for chart in eta_chambers(d, N)]
    return lams, coords, alcoves


def subdivide_chambers(descriptor, chambers, marking):
    """Replace each closed chamber product(F_i) by product(F_i[M_i]): each
    distinct factor chamber is subdivided once, and the product of the
    factor templates is built once and mapped into every chamber."""
    r = descriptor.r
    if len(marking.per_factor) != r:
        raise ValueError("marking factor count mismatch")
    sub = SubdividedComplex(descriptor, marking)
    if not chambers:  # eta_chambers rejects a marking only when it is used
        return sub
    lams, coords, alcoves = zip(*(_alcove_template(d, N) for d, N
                                  in zip(descriptor.dims, marking.per_factor)))
    # the product template: points (tuples of factor template points) in
    # order of first appearance, alcoves (products of factor alcoves), and
    # edges (a, b, i) that vary factor i within one of its alcoves, a simplex
    tindex, talcoves, tedges = {}, [], set()
    for combo in product(*alcoves):
        talcoves.append([tindex.setdefault(vt, len(tindex))
                         for vt in product(*combo)])
        tedges.update((tindex[vt], tindex[vt[:i] + (other,) + vt[i + 1:]], i)
                      for vt in product(*combo) for i in range(r)
                      for other in combo[i] if other > vt[i])
    fids = [{} for _ in range(r)]
    # per factor and distinct factor chamber: factor point id per template point
    fplists = [{} for _ in range(r)]
    pid = {}
    for chamber in chambers:
        for i, (fverts, d) in enumerate(zip(chamber.factors, descriptor.dims)):
            if fverts in fplists[i]:
                continue
            # a chain of d + 1 distinct classes has label offsets 0..d
            found = _chain_order(list(fverts)) if len(fverts) == d + 1 else None
            if found is None:
                raise ValueError("factor face is not a chamber")
            chain = [fverts[j] for j in found[0]]
            plist = fplists[i][fverts] = []
            for lam in lams[i]:
                key = tuple(sorted(((c, w) for c, w in zip(chain, lam) if w > 0),
                                   key=lambda cl: cl[0].sort_key()))
                plist.append(fids[i].setdefault(key, len(fids[i])))
            sub.factor_alcoves[i].extend(tuple(sorted(plist[k] for k in a))
                                         for a in alcoves[i])
        # template points are distinct in a chamber: new ids follow their order
        plists = [fplists[i][fverts] for i, fverts in enumerate(chamber.factors)]
        ids = []
        for tp in tindex:
            key = tuple(plist[k] for plist, k in zip(plists, tp))
            if key not in pid:
                pid[key] = len(sub.points)
                sub.points.append(key)
                sub.coords.append(tuple(c[k] for c, k in zip(coords, tp)))
            ids.append(pid[key])
        sub.subchambers.extend(tuple(sorted(ids[k] for k in a)) for a in talcoves)
        sub.edges.update((min(ids[a], ids[b]), max(ids[a], ids[b]), i)
                         for a, b, i in tedges)
    sub.subchambers = sorted(set(sub.subchambers))
    sub.factor_points = [list(f) for f in fids]
    sub.factor_alcoves = [sorted(set(a)) for a in sub.factor_alcoves]
    return sub


def subdivide_ball(b, marking):
    """Subdivide every chamber of the ball; requires detail='faces'."""
    if b.chambers is None:
        raise ValueError("ball was built without chambers; use detail='faces'")
    return subdivide_chambers(b.descriptor, b.chambers, marking)


# ---------------------------------------------------------------------------
# extension embedding nu and restriction delta
# ---------------------------------------------------------------------------

def nu_embed(v, ext):
    """[L] -> [L (x) O_k]: the nu-image of the factor point of weight one
    on v, which embeds its primitive basis entrywise."""
    return _image_vertex_of_factor_point(((v, Fraction(1)),), ext)


def nu_embed_point(p, ext):
    """nu on apartment points: exponents scale by e, bases embed."""
    factors = []
    for basis, exps in p.factors:
        nb = None
        if basis is not None:
            nb = [[ext.embed(x) for x in row] for row in basis]
        factors.append((nb, tuple(Fraction(x) * ext.e for x in exps)))
    return ApartmentPoint(factors)


def delta_restrict(p, ext):
    """Restriction of a norm on the extension side to the base: divides
    exponent coordinates by e.  The basis must be defined over the base."""
    factors = []
    for basis, exps in p.factors:
        nb = None
        if basis is not None:
            nb = []
            for row in basis:
                nrow = []
                for x in row:
                    y = ext.in_base(x)
                    if y is None:
                        raise ValueError("apartment basis is not defined over the base")
                    nrow.append(y)
                nb.append(nrow)
        factors.append((nb, tuple(Fraction(x) / ext.e for x in exps)))
    return ApartmentPoint(factors)


def verify_induced_structure(b, ext):
    """Check that nu maps every subdivided chamber of B_{k'}[e] to a chamber
    of B_k.  nu acts factor by factor and a product of factor chambers is a
    chamber, so it suffices that the d + 1 images of every factor alcove
    are distinct and form a face chain, in which each directed edge (f = 1)
    of a factor's images is decided once.  Returns a report dict with
    pass/fail and every failing factor alcove."""
    sub = subdivide_ball(b, Marking([ext.e] * b.descriptor.r))
    failures = []
    for i, fpoints in enumerate(sub.factor_points):
        image = [_image_vertex_of_factor_point(fp, ext) for fp in fpoints]
        pair_index = lru_cache(maxsize=None)(pair_index_normalized)
        for alcove in sub.factor_alcoves[i]:
            img = [image[k] for k in alcove]
            if len(set(img)) != len(img):
                reason = "image not injective"
            elif _chain_order(img, pair_index) is None:
                reason = "image is not a face"
            else:
                continue
            failures.append({"factor": i, "alcove": list(alcove),
                             "reason": reason})
    return {
        "passed": not failures,
        "subchambers_checked": len(sub.subchambers),
        "points": len(sub.points),
        "failures": failures,
    }


def _image_vertex_of_factor_point(fpoint, ext):
    """nu-image of a barycentric factor point with 1/e-integral weights
    lambda_k on its carrier chain L_0 > .. > L_m > pi L_0: the class of
    G = sum_k s^(e - C_k) nu(L_k), C_k = e (lambda_0 + .. + lambda_k), where
    the representatives L_k = pi^(c_k) P_k are those of `_label_order` and
    nu embeds a basis entrywise: the primitive digit columns of P_k are
    t-polynomials, and t -> s^e maps them to s-polynomials
    (`lattice.embed_digits`).

    In a basis u adapted to the chain, L_k = <pi u_j (j < js_k), u_j
    (j >= js_k)> and min_k (e [j < js_k] + e - C_k) = e - e x_j, x the
    point's chart coordinates, so G = s^e <s^(-e x_j) nu(u_j)>: the chart
    image.  C_m = e gives s^e nu(L_0) <= G <= nu(L_0), so v(det G) <=
    e (D(L_0) + n) bounds the precision of the reduction.

    The carrier must be a face: a single vertex, or a face of a chamber
    that `subdivide_chambers` has checked.  So its order and shifts are
    read off the labels (`_label_order`), with no pair decision."""
    e = ext.e
    carrier = [c for c, _ in fpoint]
    if any(c.model is not ext.base for c in carrier):
        raise ValueError("vertex is not over the extension's base model")
    found = _label_order(carrier)
    if found is None:
        raise ValueError("carrier is not a face chain")
    order, shifts = found
    n, D0 = carrier[0].n, carrier[0].det_valuation()
    M = guard_precision(e * (D0 + n))
    # the primitive entries have degree <= max exps, so these digits are exact
    base_ops = digit_ops(ext.base, guard_precision(max(max(c.exps) for c in carrier)))
    ops = digit_ops(ext.extension, M)
    cols = []
    C = 0
    for k, shift in zip(order, shifts):
        cls, lam = fpoint[k]
        C += e * lam
        if C.denominator != 1:
            raise ArithmeticError("point is not 1/e-integral")
        pad = e * shift + e - int(C)
        for col in cls.digit_columns(base_ops):
            cols.append([ops.shift_up(embed_digits(ext, x, base_ops, ops), pad)
                         for x in col])
    return column_class(ops, cols)[0]
