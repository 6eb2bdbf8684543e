"""The building B^d_k and products B as polysimplicial complexes.

Vertices of a product building are tuples of lattice classes, one per
factor.  Balls are undirected 1-skeleton windows around a center, built
factor by factor and assembled with the L1 distance; the directed-edge
structure, labelling and projections are computed inside such windows.
"""

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import BudgetError
from .gf import row_space, rref
from .lattice import (
    action, class_pair_residue, dual, inverse_column_minima,
    neighbors_by_colength, pair_index_normalized, standard_neighbor_subspaces,
    standard_vertex, vertex_from_diagonal,
)


class BuildingDescriptor:
    """Product of the buildings of SL_{d_i+1} over the fields k_i."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("at least one factor required")
        for model, d in factors:
            if d < 1:
                raise ValueError("factor dimension must be >= 1")
        self.factors = factors
        self.r = len(factors)
        self.dims = tuple(d for _, d in factors)
        self.models = tuple(m for m, _ in factors)

    def __repr__(self):
        return f"BuildingDescriptor({self.factors!r})"

    def origin(self):
        return PolyVertex(tuple(standard_vertex(m, d + 1) for m, d in self.factors))

    def label_moduli(self):
        return tuple(d + 1 for d in self.dims)

    def check_vertex(self, x):
        if len(x.components) != self.r:
            raise ValueError("component count mismatch")
        for (m, d), c in zip(self.factors, x.components):
            if c.model is not m or c.n != d + 1:
                raise ValueError("component does not belong to this building")


class PolyVertex:
    """Per-factor tuple of canonical lattice classes."""

    __slots__ = ("components", "_hash")

    def __init__(self, components):
        self.components = tuple(components)
        self._hash = hash(self.components)

    def __eq__(self, other):
        return isinstance(other, PolyVertex) and self.components == other.components

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PolyVertex({self.components!r})"

    def sort_key(self):
        return tuple(c.sort_key() for c in self.components)


class PolyFace:
    """Product of per-factor simplicial faces, stored by sorted vertex tuples."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors):
        self.factors = tuple(tuple(sorted(f, key=lambda v: v.sort_key()))
                             for f in factors)
        self._hash = hash(self.factors)

    def __eq__(self, other):
        return isinstance(other, PolyFace) and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PolyFace(dim={self.dim_vector()})"

    def dim_vector(self):
        return tuple(len(f) - 1 for f in self.factors)

    def dim(self):
        return sum(self.dim_vector())

    def vertices(self):
        """All product vertices of the face, in lexicographic factor order."""
        return [PolyVertex(t) for t in product(*self.factors)]


class FaceList(Sequence):
    """The faces of a window as a read-only sequence of PolyFaces, stored as
    tuples of per-factor vertex id tuples into the factor balls; a PolyFace
    is built only when its item is read."""

    __slots__ = ("factor_balls", "ids")

    def __init__(self, factor_balls, ids):
        self.factor_balls = factor_balls
        self.ids = ids

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._face(t) for t in self.ids[k]]
        return self._face(self.ids[k])

    def __iter__(self):
        return map(self._face, self.ids)

    def _face(self, t):
        return PolyFace([[fb.vertices[u] for u in c]
                         for fb, c in zip(self.factor_balls, t)])


class ApartmentPoint:
    """Point of an apartment: per factor a basis (None = standard) and a
    rational exponent vector, normalized so the first exponent is 0.

    The exponent of basis vector v_j is -log_q rho(v_j); a vertex whose
    lattice is <pi^{m_0} v_0, .., pi^{m_d} v_d> sits at exponents (-m_j)."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        norm = []
        for basis, exps in factors:
            exps = tuple(Fraction(e) for e in exps)
            shift = exps[0]
            norm.append((basis, tuple(e - shift for e in exps)))
        self.factors = tuple(norm)

    def exponents(self, i=0):
        return self.factors[i][1]

    def __eq__(self, other):
        return isinstance(other, ApartmentPoint) and all(
            (b1 is b2 or b1 == b2) and e1 == e2
            for (b1, e1), (b2, e2) in zip(self.factors, other.factors))

    def __hash__(self):
        return hash(tuple(e for _, e in self.factors))

    def __repr__(self):
        return f"ApartmentPoint({[e for _, e in self.factors]!r})"

    def is_integral(self):
        return all(all(x.denominator == 1 for x in e) for _, e in self.factors)

    def to_vertex(self, descriptor):
        if not self.is_integral():
            raise ValueError("non-integral apartment point is not a vertex")
        comps = []
        for m, (basis, exps) in zip(descriptor.models, self.factors):
            diag = vertex_from_diagonal(m, tuple(-int(x) for x in exps))
            comps.append(diag if basis is None else action(m, basis)(diag))
        return PolyVertex(comps)


def apartment_point_of_vertex(x):
    """The apartment point of a vertex whose components are all diagonal."""
    factors = []
    for c in x.components:
        exps = c.diagonal_exponents()
        if exps is None:
            raise ValueError("vertex is not in the standard apartment")
        factors.append((None, tuple(-m for m in exps)))
    return ApartmentPoint(factors)


def in_standard_apartment(x):
    return all(c.is_diagonal() for c in x.components)


# ---------------------------------------------------------------------------
# basic chamber, labelling
# ---------------------------------------------------------------------------

def basic_chamber_factor(model, d):
    """Vertices [L_i], L_i = <T_0,..,T_{d-i}, pi T_{d+1-i},..,pi T_d>."""
    out = []
    for i in range(d + 1):
        exps = (0,) * (d + 1 - i) + (1,) * i
        out.append(vertex_from_diagonal(model, exps))
    return out


def basic_chamber(descriptor):
    return PolyFace([basic_chamber_factor(m, d) for m, d in descriptor.factors])


def labelling_C(x):
    return tuple(c.label() for c in x.components)


def labelling_D(descriptor, lab):
    """Inverse of C restricted to the basic chamber."""
    comps = []
    for (m, d), l in zip(descriptor.factors, lab):
        l = l % (d + 1)
        comps.append(vertex_from_diagonal(m, (0,) * (d + 1 - l) + (1,) * l))
    return PolyVertex(comps)


# ---------------------------------------------------------------------------
# chains and faces
# ---------------------------------------------------------------------------

def _label_order(comps):
    """The only candidate chain order of distinct classes, starting at
    comps[0], with its representatives, read off the labels alone, or None
    when two labels are equal.  On a face it is the chain order of
    `_chain_order`; on any other set it decides nothing.

    Returns (order, shifts): the k-th chain member is comps[order[k]], and
    its representative is L_k = pi^(shifts[k]) P_k, P_k the primitive one
    (shifts[0] = 0).  Along a chain L_0 > .. > L_m > pi L_0 the colength of
    L_k in L_0 is the label offset o_k = (label(L_k) - label(L_0)) mod n,
    and it strictly increases.  So the labels fix the order (equal labels
    rule out a chain), and o_k = n c_k + v(det P_k) - v(det P_0) fixes
    every c_k."""
    if len(comps) == 1:
        return (0,), [0]
    n, l0, D0 = comps[0].n, comps[0].label(), comps[0].det_valuation()
    offsets = [(c.label() - l0) % n for c in comps]
    if len(set(offsets)) < len(comps):
        return None
    order = tuple(sorted(range(len(comps)), key=offsets.__getitem__))
    return order, [(offsets[k] + D0 - comps[k].det_valuation()) // n
                   for k in order]


def _chain_order(comps, pair_index=None):
    """The ordering of distinct classes, starting at comps[0], that realizes
    L_0 > .. > L_m > pi L_0, with its representatives, as `_label_order`
    gives them, or None.  A step x -> y of label offset o in 1..n-1 holds
    iff f < n, f the positive `pair_index_normalized(x, y)` (or
    pair_index), o mod n, since y's representatives inside x have
    colengths f + n j, j >= 0."""
    found = _label_order(comps)
    if found is None or len(comps) == 1:
        return found
    order, n = found[0], comps[0].n
    f = pair_index or pair_index_normalized
    if any(f(comps[a], comps[b]) >= n
           for a, b in zip(order, order[1:] + order[:1])):
        return None
    return found


def is_face(descriptor, vertices):
    """True iff the set is a face: it is a full product of its per-factor
    projections and each projection admits the required chain."""
    vertices = list(vertices)
    for v in vertices:
        descriptor.check_vertex(v)
    seen = set(vertices)
    if not vertices or len(seen) != len(vertices):
        return False
    per_factor = [list(dict.fromkeys(v.components[i] for v in vertices))
                  for i in range(descriptor.r)]
    if {PolyVertex(t) for t in product(*per_factor)} != seen:
        return False
    return all(_chain_order(comps) is not None for comps in per_factor)


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _containing(model, n, span):
    """Per colength w = 1..n-1, the flags [span <= W] over the standard
    neighbors' residue subspaces W; span is a reduced row-echelon basis."""
    gf = model.residue_gf()
    return tuple(tuple(len(row_space(gf, W + span)) == len(W)
                       for W in standard_neighbor_subspaces(model, n, w))
                 for w in range(1, n))


@lru_cache(maxsize=None)
def _annihilated(model, n, rows):
    """Per colength w = 1..n-1, the flags [K W = 0] over the standard
    neighbors' residue subspaces W, for any K whose row space has the
    reduced row-echelon basis rows."""
    gf = model.residue_gf()

    def dot(a, b):
        acc = 0
        for x, y in zip(a, b):
            if x and y:
                acc = gf.add(acc, gf.mul(x, y))
        return acc

    return tuple(tuple(all(dot(k, b) == 0 for k in rows for b in W)
                       for W in standard_neighbor_subspaces(model, n, w))
                 for w in range(1, n))


def neighbor_steps(o, u):
    """Per colength w = 1..n-1, the step dist(o, [T_u U_W]) - dist(o, u) in
    {-1, 0, 1} of each neighbor of u, in `neighbors_by_colength` order (U_W
    the standard neighbor of residue subspace W, T_u the primitive matrix of
    u), read off residue linear algebra before any neighbor is computed.

    With R = dist(o, u), U_bot the column space of (pi^s(o,u) T_u^-1 T_o
    mod pi) and H_top the kernel of (pi^s(u,o) T_o^-1 T_u mod pi), both in
    T_u coordinates (`class_pair_residue`), the neighbor of W lies at
    distance R + [U_bot not <= W] - [W <= H_top].  Proof: scale L_o so that
    L_o <= L_u and L_o not <= pi L_u; then U_bot is the image of L_o in
    L_u / pi L_u, and the elementary divisors of L_o against L_u span
    [0, R], so pi^R L_u <= L_o and pi^(R-1) L_u not <= L_o.  The coordinates
    of pi^R L_u in L_o are pi^s(u,o) T_o^-1 T_u, so for x in L_u,
    pi^(R-1) x lies in L_o iff x mod pi lies in H_top.  Let
    pi L_u <= L' <= L_u with L' / pi L_u = W.  Then L_o <= L' iff U_bot <= W,
    and pi L_o <= pi L_u <= L' always.  Since pi^R L_u <= L_o,
    pi^(R-1) L' <= L_o iff W <= H_top, and pi^(R-2) L' contains
    pi^(R-1) L_u, so it is not inside L_o.  So the elementary divisors of L_o
    against L' span [-[U_bot not <= W], R - [W <= H_top]], and the distance
    is their spread.  At R = 0, U_bot is the whole residue space and H_top
    is 0, and every step is 1."""
    model, n = u.model, u.n
    gf = model.residue_gf()
    bot = class_pair_residue(u, o)[1]
    top = class_pair_residue(o, u)[1]
    outside = _containing(model, n, rref(gf, zip(*bot)))
    inside = _annihilated(model, n, rref(gf, top))
    return [[(not a) - b for a, b in zip(contains, kills)]
            for contains, kills in zip(outside, inside)]


class FactorBall:
    """Undirected 1-skeleton window of one factor building.

    A breadth-first search from the center.  The neighbors of a vertex at
    distance k lie at distance k-1, k or k+1, and `neighbor_steps` says
    which before any is computed.  Expanding a vertex at distance k < radius
    computes the neighbors at k+1, which are the new vertices, and, when
    edges are wanted, those at k; the edge closure at the radius computes
    only the neighbors at the radius.  The neighbors at k-1 are never
    computed: their edges are known from the level before.  At detail
    "vertices", `adj` holds only the edges between consecutive levels.

    Each same-level edge is computed from one end only: u computes its
    neighbors at k of colength w iff 2w < n, or 2w = n and 2 label(u) < n.
    Exactly one end of every edge qualifies.  If v is u's colength-w
    neighbor, then pi L_u < L_v < L_u gives pi L_v < pi L_u < L_v, so u is
    v's colength-(n - w) neighbor, and label(v) = label(u) + w mod n.  For
    2w != n, exactly one of w and n - w is below n/2.  For 2w = n, the two
    labels differ by n/2 mod n, so exactly one of them is below n/2.  So
    every edge is computed once and `adj` still records both directions."""

    def __init__(self, model, d, center, radius, detail, budget):
        self.model = model
        self.d = d
        self.center = center
        self.radius = radius
        cost = radius * d * model.residue_size
        if cost > budget:
            raise BudgetError(
                f"ball cost {cost} exceeds budget {budget} (radius*d*q)")
        self.vertices = [center]
        self.vid = {center: 0}
        self.dist = [0]
        adj = {0: set()}
        n = d + 1
        frontier = [0]
        for k in range(radius + 1):
            wanted = {1} if k < radius else set()
            if detail != "vertices":
                wanted.add(0)
            if not wanted:
                break
            new = []
            for uid in frontier:
                u = self.vertices[uid]
                low = 2 * u.label() < n
                for w, steps in enumerate(neighbor_steps(center, u), 1):
                    own = 2 * w < n or 2 * w == n and low
                    picked = [j for j, s in enumerate(steps)
                              if s in wanted and (s or own)]
                    for j, nb in zip(picked, neighbors_by_colength(u, w, picked)):
                        vid = self.vid.get(nb)
                        if vid is None and steps[j] == 1:
                            vid = len(self.vertices)
                            self.vertices.append(nb)
                            self.vid[nb] = vid
                            self.dist.append(k + 1)
                            adj[vid] = set()
                            new.append(vid)
                        elif vid is None or self.dist[vid] != k + steps[j]:
                            raise ArithmeticError(
                                "residue classification disagrees with the "
                                "breadth-first distance")
                        adj[uid].add(vid)
                        adj[vid].add(uid)
            frontier = new
        self.adj = {u: sorted(vs) for u, vs in adj.items()}
        self.faces = None
        if detail == "faces":
            self.faces = self._enumerate_faces()

    def _enumerate_faces(self):
        """All faces with >= 2 vertices inside the window, as sorted id
        tuples.  The building is a flag complex, so these are the cliques of
        the window's 1-skeleton; a clique has at most d+1 vertices."""
        faces = []
        n = self.d + 1
        adjset = {u: set(vs) for u, vs in self.adj.items()}

        def extend(clique, candidates):
            for idx, c in enumerate(candidates):
                new = clique + (c,)
                faces.append(new)
                if len(new) < n:
                    extend(new, [x for x in candidates[idx + 1:] if x in adjset[c]])

        for u in range(len(self.vertices)):
            extend((u,), [v for v in self.adj[u] if v > u])
        return faces


class Ball:
    """Window of a product building: vertices at L1 1-skeleton distance
    <= radius from the center, edges closed within the window, and faces
    up to chambers when requested."""

    def __init__(self, descriptor, center, radius, detail="edges", budget=2000):
        if detail not in ("vertices", "edges", "faces"):
            raise ValueError(f"unknown detail level {detail!r}")
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        descriptor.check_vertex(center)
        self.descriptor = descriptor
        self.center = center
        self.radius = radius
        self.detail = detail
        self.factor_balls = [
            FactorBall(m, d, center.components[i], radius, detail, budget)
            for i, (m, d) in enumerate(descriptor.factors)]
        self._assemble()

    def _assemble(self):
        r = self.descriptor.r
        fbs = self.factor_balls
        tuples = [((), 0)]
        for fb in fbs:
            tuples = [(t + (i,), dtot + fb.dist[i])
                      for t, dtot in tuples
                      for i in range(len(fb.vertices))
                      if dtot + fb.dist[i] <= self.radius]
        tuples.sort(key=lambda td: (td[1], td[0]))
        self.vertices = []
        self.vid = {}
        self.dist = []
        self._tid = tid = {}  # factor id tuple -> vertex id, in id order
        for t, dtot in tuples:
            v = PolyVertex(tuple(fbs[i].vertices[t[i]] for i in range(r)))
            tid[t] = self.vid[v] = len(self.vertices)
            self.vertices.append(v)
            self.dist.append(dtot)
        self.labels = [labelling_C(v) for v in self.vertices]
        self.edges = []
        if self.detail != "vertices":
            for t, uid in tid.items():
                for i in range(r):
                    for nb in fbs[i].adj[t[i]]:
                        vid = tid.get(t[:i] + (nb,) + t[i + 1:])
                        if vid is not None and vid > uid:
                            self.edges.append((uid, vid, i))
        self.chambers = None
        self.faces = None
        if self.detail == "faces":
            self._assemble_faces()

    def _assemble_faces(self):
        """Products of factor faces inside the window, as tuples of factor
        id tuples.  The window holds the index tuples with
        sum_i dist_i <= radius, so a product of factor faces t_i lies in it
        iff sum_i max_{u in t_i} dist_i(u) <= radius.  A factor face has at
        most d_i + 1 vertices, so a product is a chamber iff its dimension
        is sum_i d_i."""
        stack = [((), 0, 0)]
        for fb in self.factor_balls:
            choices = [(c, max(fb.dist[u] for u in c))
                       for c in [(u,) for u in range(len(fb.vertices))] + fb.faces]
            stack = [(t + (c,), dim + len(c) - 1, reach + far)
                     for t, dim, reach in stack for c, far in choices
                     if reach + far <= self.radius]
        top = sum(self.descriptor.dims)
        self.faces = FaceList(self.factor_balls,
                              [t for t, dim, _reach in stack if dim])
        self.chambers = FaceList(self.factor_balls,
                                 [t for t, dim, _reach in stack if dim == top])

    def __contains__(self, v):
        return v in self.vid

    def contains_face(self, face):
        return all(v in self.vid for v in face.vertices())

    # -- export --

    def to_json_obj(self):
        desc = []
        for m, d in self.descriptor.factors:
            kind = {"kind": m.kind, "d": d}
            if m.kind == "padic":
                kind["p"] = m.p
            else:
                kind["q"] = m.q
                kind["var"] = m.var
            desc.append(kind)
        strs = [[c.serialize() for c in fb.vertices] for fb in self.factor_balls]
        verts = [{"id": i,
                  "matrix_per_factor": [s[u] for s, u in zip(strs, t)],
                  "label": list(self.labels[i])}
                 for i, t in enumerate(self._tid)]
        lengths = [str(Fraction(1, m.ramification))
                   for m in self.descriptor.models]
        edges = []
        for (a, b, i) in self.edges:
            # on an edge f(a, b) lies in 1..n-1 and is congruent to the
            # label difference mod n, and f(a, b) + f(b, a) = n
            n = self.descriptor.dims[i] + 1
            fab = (self.labels[b][i] - self.labels[a][i]) % n
            fba = n - fab
            u, v_, fuv = (a, b, fab) if fab <= fba else (b, a, fba)
            edges.append({
                "from": u, "to": v_, "factor": i,
                "directed": fuv == 1,
                "length": lengths[i],
            })
        obj = {"descriptor": desc,
               "center": 0,
               "radius": self.radius,
               "vertices": verts,
               "edges": edges}
        if self.chambers is not None:
            tid = self._tid
            obj["chambers"] = sorted(
                sorted(tid[combo] for combo in product(*t))
                for t in self.chambers.ids)
        return obj

    def to_dot(self):
        palette = ["black", "red", "blue", "green", "orange", "purple"]
        lines = ["graph ball {"]
        for i, v in enumerate(self.vertices):
            lab = self.labels[i]
            color = palette[sum(lab) % len(palette)]
            lines.append(f'  v{i} [label="{",".join(map(str, lab))}", color={color}];')
        for (a, b, i) in self.edges:
            lines.append(f"  v{a} -- v{b} [label=\"f{i}\"];")
        lines.append("}")
        return "\n".join(lines)


def ball(descriptor, center, radius, detail="edges", budget=2000):
    return Ball(descriptor, center, radius, detail=detail, budget=budget)


# ---------------------------------------------------------------------------
# metric structure
# ---------------------------------------------------------------------------

def distance_f(x, y):
    """Directed distance: sum over factors of [M_i : L_i] on normalized
    representatives.  Not symmetric."""
    return sum(pair_index_normalized(a, b)
               for a, b in zip(x.components, y.components))


def factor_window_fvals(c, window_exps):
    """f(c, y) for every diagonal class y in the window, sharing one
    scaled inverse: for y with primitive exponents m, the minimal
    containment shift is -min_j(m_j + w_j), w_j the column minima of
    v(T^{-1}) (`inverse_column_minima`), and f = n*c + sum(m) - v(det T)."""
    n = c.n
    w = inverse_column_minima(c)
    D = c.det_valuation()
    out = []
    for m in window_exps:
        shift = -min(mj + wj for mj, wj in zip(m, w))
        out.append(n * shift + sum(m) - D)
    return out


def is_directed_edge(x, y):
    """Edge x -> y: adjacent in one factor with f = 1 there, equal elsewhere."""
    diff = None
    for i, (a, b) in enumerate(zip(x.components, y.components)):
        if a != b:
            if diff is not None:
                return False
            diff = i
    if diff is None:
        return False
    return pair_index_normalized(x.components[diff], y.components[diff]) == 1


def project_apartment(x):
    """Norm-formula projection tau_Lambda onto the standard apartment: per
    factor, the exponent of the basis vector e_j is m_j = min_i v(u_i), u
    the j-th column of T^{-1} for the primitive basis T
    (`inverse_column_minima`); -m_j is the least c with pi^c e_j in L."""
    return ApartmentPoint([(None, tuple(inverse_column_minima(c)))
                           for c in x.components])


# ---------------------------------------------------------------------------
# group action, involution, factor exchange
# ---------------------------------------------------------------------------

def act(gs, x):
    """[L_i] -> [g_i L_i] per factor; g_i = None means identity."""
    return PolyVertex(tuple(c if g is None else action(c.model, g)(c)
                            for g, c in zip(gs, x.components)))


def shift_generator(model, n, k=1):
    """The k-th power (0 <= k < n) of the cyclic generator f: T_j -> T_{j-1}
    (j > 0), T_0 -> pi T_{n-1}.  f has det valuation 1 and permutes the
    basic chamber cyclically.  f^k maps T_j to T_{j-k} for j >= k and to
    pi T_{j-k+n} for j < k: by induction, f^(k+1) T_j = f(f^k T_j) is
    T_{j-k-1} for j > k, pi T_{n-1} for j = k (f T_0), and pi T_{j-k-1+n}
    for j < k (f T_{j-k+n} with j - k + n > 0)."""
    if not 0 <= k < n:
        raise ValueError("shift power must lie in 0..n-1")
    mat = [[model.zero() for _ in range(n)] for _ in range(n)]
    for j in range(n):
        mat[(j - k) % n][j] = model.one() if j >= k else model.uniformizer()
    return mat


def involution_lambda(x, mask):
    """Dual-lattice involution on the masked factors."""
    comps = []
    for c, m in zip(x.components, mask):
        comps.append(dual(c) if m else c)
    return PolyVertex(comps)


def sigma_mu(point, mu):
    """Formal factor-exchange on apartment points: component i of the image
    is the exchange-image of component mu(i).  mu must respect dimensions
    (the fields may differ; the exchange is defined on apartments only)."""
    r = len(point.factors)
    if sorted(mu) != list(range(r)):
        raise ValueError("mu is not a permutation")
    dims = [len(e) - 1 for _, e in point.factors]
    for i in range(r):
        if dims[mu[i]] != dims[i]:
            raise ValueError("mu does not respect dimensions")
    factors = [point.factors[mu[i]] for i in range(r)]
    return ApartmentPoint(factors)
