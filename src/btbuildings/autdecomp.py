"""Combinatorial automorphism analysis: decomposition of injective
homomorphisms of products of complete graphs, label-action classification
of building automorphisms given as generator words, and the normal form
that restores a word to a pure factor exchange on the standard apartment.
"""

from itertools import product

from .building import (PolyVertex, apartment_point_of_vertex, basic_chamber,
                       in_standard_apartment, labelling_D, shift_generator,
                       sigma_mu)
from .errors import BudgetError, WindowError
from .lattice import action, dual, gaussian_binomial
from .linalg import inverse, matmul, transpose
from .subdivision import chamber_chart


# ---------------------------------------------------------------------------
# product graphs and homomorphism decomposition
# ---------------------------------------------------------------------------

class ProductGraph:
    """Product of complete graphs K_{a_1} x .. x K_{a_n}: vertices are
    tuples, edges join tuples differing in exactly one coordinate."""

    def __init__(self, sizes):
        sizes = tuple(int(a) for a in sizes)
        if any(a < 1 for a in sizes):
            raise ValueError("factor sizes must be >= 1")
        self.sizes = sizes

    def vertices(self):
        return list(product(*[range(a) for a in self.sizes]))

    def is_vertex(self, u):
        return len(u) == len(self.sizes) and all(
            0 <= x < a for x, a in zip(u, self.sizes))

    def adjacent(self, u, v):
        return sum(1 for x, y in zip(u, v) if x != y) == 1

    def edges(self):
        verts = self.vertices()
        return [(u, v) for i, u in enumerate(verts)
                for v in verts[i + 1:] if self.adjacent(u, v)]


class HomDecomposition:
    """mu, per-factor injective maps g_i, and constants for the output
    coordinates outside Im(mu); reconstructs the homomorphism exactly."""

    def __init__(self, sizes_in, sizes_out, mu, gs, consts):
        self.sizes_in = tuple(sizes_in)
        self.sizes_out = tuple(sizes_out)
        self.mu = tuple(mu)
        self.gs = tuple(tuple(g) for g in gs)
        self.consts = dict(consts)

    def __repr__(self):
        return (f"HomDecomposition(mu={self.mu}, gs={self.gs}, "
                f"consts={self.consts})")

    def apply(self, u):
        out = [None] * len(self.sizes_out)
        for j, c in self.consts.items():
            out[j] = c
        for i, j in enumerate(self.mu):
            out[j] = self.gs[i][u[i]]
        return tuple(out)

    def is_automorphism(self):
        return (sorted(self.sizes_in) == sorted(self.sizes_out)
                and not self.consts
                and all(len(set(g)) == self.sizes_out[j]
                        for g, j in zip(self.gs, self.mu)))


def decompose_hom(f, sizes_in, sizes_out):
    """Decompose an injective graph homomorphism f (a dict on vertex tuples)
    into (mu, g_i, constants).  Verifies that f maps exactly the vertices of
    G to vertices of H, injectivity and edge preservation; raises ValueError
    with a certificate edge when f is not a homomorphism."""
    G = ProductGraph(sizes_in)
    H = ProductGraph(sizes_out)
    if any(a < 2 for a in sizes_in):
        raise ValueError("input factors of size < 2 are not supported")
    verts = G.vertices()
    missing = [u for u in verts if u not in f]
    if missing:
        raise ValueError(f"no image given for vertex {missing[0]}")
    for u, v in f.items():
        if not G.is_vertex(u):
            raise ValueError(f"{u} is not a vertex of the input graph {G.sizes}")
        if not H.is_vertex(v):
            raise ValueError(
                f"image {v} of {u} is not a vertex of the output graph {H.sizes}")
    images = [f[u] for u in verts]
    if len(set(images)) != len(images):
        raise ValueError("not injective")
    for (u, v) in G.edges():
        if not H.adjacent(f[u], f[v]):
            raise ValueError(f"not edge-preserving: certificate edge {u} -- {v}")
    base = verts[0]
    fb = f[base]
    mu = []
    gs = []
    for i, a in enumerate(sizes_in):
        axis = None
        g = [None] * a
        g[base[i]] = None
        for t in range(a):
            if t == base[i]:
                continue
            u = base[:i] + (t,) + base[i + 1:]
            img = f[u]
            diff = [j for j in range(len(sizes_out)) if img[j] != fb[j]]
            if len(diff) != 1:  # edge preservation already verified
                raise ArithmeticError(
                    "an edge image changes several coordinates")
            if axis is None:
                axis = diff[0]
            elif axis != diff[0]:
                raise ValueError(f"not decomposable: factor {i} moves several axes")
            g[t] = img[axis]
        g[base[i]] = fb[axis]
        mu.append(axis)
        gs.append(g)
    if len(set(mu)) != len(mu):
        raise ValueError("not decomposable: mu is not injective")
    consts = {j: fb[j] for j in range(len(sizes_out)) if j not in set(mu)}
    dec = HomDecomposition(sizes_in, sizes_out, mu, gs, consts)
    for u in verts:
        if dec.apply(u) != f[u]:
            raise ValueError(f"decomposition failed to reconstruct f at {u}")
    return dec


def graph_automorphisms_bruteforce(sizes, cap=500000):
    """All automorphisms of the product graph by backtracking over vertex
    bijections preserving adjacency.  Raises BudgetError beyond cap."""
    G = ProductGraph(sizes)
    verts = G.vertices()
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj = [[False] * n for _ in range(n)]
    for i, u in enumerate(verts):
        for j in range(i + 1, n):
            if G.adjacent(u, verts[j]):
                adj[i][j] = adj[j][i] = True
    out = []

    def extend(mapping, used):
        if len(out) > cap:
            raise BudgetError(f"automorphism enumeration exceeded cap {cap}")
        k = len(mapping)
        if k == n:
            out.append(tuple(mapping))
            return
        for img in range(n):
            if used[img]:
                continue
            ok = True
            for prev in range(k):
                if adj[k][prev] != adj[img][mapping[prev]]:
                    ok = False
                    break
            if ok:
                mapping.append(img)
                used[img] = True
                extend(mapping, used)
                mapping.pop()
                used[img] = False

    extend([], [False] * n)
    return [{verts[i]: verts[m[i]] for i in range(n)} for m in out]


def expected_aut_order(sizes):
    """(prod a_i!) * #{sigma : a_sigma(i) = a_i}."""
    from math import factorial
    total = 1
    for a in sizes:
        total *= factorial(a)
    mult = {}
    for a in sizes:
        mult[a] = mult.get(a, 0) + 1
    for m in mult.values():
        total *= factorial(m)
    return total


# ---------------------------------------------------------------------------
# automorphism words
# ---------------------------------------------------------------------------

class AutWord:
    """A word in the generators of the automorphism group, applied left to
    right.  A generator is a dict with exactly its kind's fields:
    {"kind": "group", "matrices": [g_i or None per factor]},
    {"kind": "lambda", "mask": [0 or 1 per factor]}, {"kind": "exchange",
    "mu": [a permutation of factors of equal dimension and field]} and
    {"kind": "shift", "factor": i, "power": k}.  The shift generator f has
    f^(d+1) = pi I, which fixes every class, so k acts mod d+1.  The
    generators are checked and composed once, here, into the main theorem's
    shape: output factor i applies the class maps maps[i], in order, to
    input factor source[i], each class once per word.  `gens` keeps the
    dicts, from which longer words are composed."""

    def __init__(self, descriptor, gens):
        self.descriptor = descriptor
        self.gens = list(gens)
        self.source = tuple(range(descriptor.r))
        self.maps = ((),) * descriptor.r
        for g in self.gens:
            perm, fmaps = _step(descriptor, g)
            self.source = tuple(self.source[j] for j in perm)
            self.maps = tuple(self.maps[j] + fs for j, fs in zip(perm, fmaps))
        self._images = [{} for _ in range(descriptor.r)]

    def image(self, i, c):
        """Output factor i of a class c of input factor source[i]."""
        if c not in self._images[i]:
            img = c
            for f in self.maps[i]:
                img = f(img)
            self._images[i][c] = img
        return self._images[i][c]

    def apply(self, x):
        return PolyVertex(tuple(self.image(i, x.components[j])
                                for i, j in enumerate(self.source)))

    @classmethod
    def from_json_obj(cls, descriptor, obj):
        """The word of a JSON list of generator objects, in which a group
        matrix is a flat row-major list of element strings."""
        if not isinstance(obj, list) or not all(isinstance(g, dict) for g in obj):
            raise ValueError("word must be a list of generator objects")
        gens = []
        for g in obj:
            mats = g.get("matrices") if g.get("kind") == "group" else None
            if isinstance(mats, list) and len(mats) == descriptor.r:
                g = dict(g, matrices=[
                    None if flat is None else _square_matrix(model, d + 1, flat)
                    for flat, (model, d) in zip(mats, descriptor.factors)])
            gens.append(g)
        return cls(descriptor, gens)


_GENERATOR_FIELDS = {"group": ("matrices",), "lambda": ("mask",),
                     "exchange": ("mu",), "shift": ("factor", "power")}


def _step(descriptor, g):
    """A generator dict, checked to fit the descriptor, as a factor
    permutation and a tuple of class maps per output factor."""
    kind = _generator_kind(g)
    r = descriptor.r
    if kind == "group":
        mats = g["matrices"]
        if not isinstance(mats, list) or len(mats) != r:
            raise ValueError("group generator factor count mismatch")
        return range(r), [() if g is None else (action(model, g),)
                          for g, model in zip(mats, descriptor.models)]
    if kind == "lambda":
        mask = _int_list(g["mask"], "mask")
        if len(mask) != r or any(m not in (0, 1) for m in mask):
            raise ValueError(f"lambda mask must list {r} entries, each 0 or 1")
        return range(r), [(dual,) if m else () for m in mask]
    if kind == "exchange":
        mu = _int_list(g["mu"], "mu")
        if sorted(mu) != list(range(r)):
            raise ValueError("exchange mu is not a permutation")
        if any(descriptor.dims[j] != descriptor.dims[i] for i, j in enumerate(mu)):
            raise ValueError("exchange does not respect dimensions")
        if any(descriptor.models[j] is not descriptor.models[i]
               for i, j in enumerate(mu)):
            raise ValueError("exchange between different fields is only defined "
                             "on apartment points")
        return mu, [()] * r
    i, power = _int_list([g["factor"], g["power"]], "shift factor and power")
    if not 0 <= i < r:
        raise ValueError("shift factor out of range")
    model, d = descriptor.factors[i]
    f = action(model, shift_generator(model, d + 1, power % (d + 1)))
    return range(r), [(f,) if j == i else () for j in range(r)]


def _generator_kind(g):
    """The kind of a generator dict, checked to be known and to come with
    exactly the fields that kind reads."""
    if "kind" not in g:
        raise ValueError("generator has no 'kind' field")
    kind = g["kind"]
    if not isinstance(kind, str) or kind not in _GENERATOR_FIELDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    for field in _GENERATOR_FIELDS[kind]:
        if field not in g:
            raise ValueError(f"{kind} generator has no {field!r} field")
    for field in g:
        if field != "kind" and field not in _GENERATOR_FIELDS[kind]:
            raise ValueError(f"{kind} generator has an unknown field {field!r}")
    return kind


def _square_matrix(model, n, flat):
    """The n x n matrix of a flat row-major JSON list of element strings."""
    if (not isinstance(flat, list) or len(flat) != n * n
            or not all(isinstance(x, str) for x in flat)):
        raise ValueError(f"matrix must be a list of {n * n} strings")
    return [[model.elem_parse(flat[i * n + j]) for j in range(n)]
            for i in range(n)]


def _int_list(obj, what):
    """obj, checked to be a JSON list of integers; a boolean is not one."""
    if not isinstance(obj, list) or not all(type(x) is int for x in obj):
        raise ValueError(f"{what} must be a list of integers")
    return obj


# ---------------------------------------------------------------------------
# label action of a word on a ball
# ---------------------------------------------------------------------------

def label_action(word, b):
    """Decomposition (mu, p_i) of C o phi o D and per-factor classification
    as rotation t -> a_i + t or reflection t -> a_i - t.  Verifies part 1
    (C o phi = C o phi o D o C on the ball) and cross-checks the rotation /
    reflection call against the neighbor-count signature; disagreement is a
    hard error."""
    descriptor = b.descriptor
    moduli = descriptor.label_moduli()
    # the label map C o phi o D on the product of complete graphs
    f = {}
    for lab in product(*[range(m) for m in moduli]):
        v = labelling_D(descriptor, lab)
        if v not in b.vid:
            raise WindowError("basic chamber is not inside the ball")
        img = word.apply(v)
        if img not in b.vid:
            raise WindowError("image of the basic chamber escapes the ball")
        f[lab] = b.labels[b.vid[img]]
    dec = decompose_hom(f, moduli, moduli)
    if not dec.is_automorphism():
        raise ValueError("label action is not an automorphism")
    classification = []
    for i, p in enumerate(dec.gs):
        m = moduli[dec.mu[i]]
        diffs = {(p[(t + 1) % m] - p[t]) % m for t in range(m)}
        if diffs == {1 % m}:
            kind = "rotation"
            a = p[0]
        elif diffs == {(-1) % m}:
            kind = "reflection"
            a = p[0]
        else:
            raise ValueError(f"label permutation {p} is neither rotation nor reflection")
        classification.append((kind, a))
    _signature_check(word, b, dec, classification)
    # part 1: C o phi = C o phi o D o C on the whole ball
    for vid, v in enumerate(b.vertices):
        img = word.apply(v)
        if img in b.vid:
            if b.labels[b.vid[img]] != dec.apply(b.labels[vid]):
                raise ArithmeticError("C o phi != C o phi o D o C")
    return dec.mu, dec.gs, classification


def _signature_check(word, b, dec, classification):
    """Neighbor-count signature: offsets w around the center map to offsets
    w (rotation) or d+1-w (reflection), with Gaussian-binomial counts."""
    center = b.center
    img_center = word.apply(center)
    if img_center not in b.vid or b.dist[b.vid[img_center]] + 1 > b.radius:
        need = (b.dist[b.vid[img_center]] + 1 if img_center in b.vid
                else b.radius + 1)
        raise WindowError("signature check needs the image center's neighbors "
                          f"in the window; radius >= {need} required")
    moduli = b.descriptor.label_moduli()
    counts = _offset_counts(b, center)
    img_counts = _offset_counts(b, img_center)
    for i in range(b.descriptor.r):
        j = dec.mu[i]
        kind, _a = classification[i]
        m = moduli[j]
        for w in range(1, m):
            expected_w = w if kind == "rotation" else (m - w) % m
            if counts[i].get(w) != img_counts[j].get(expected_w):
                raise ValueError(
                    f"signature disagreement in factor {i}: offset {w} count "
                    f"{counts[i].get(w)} vs image offset {expected_w} count "
                    f"{img_counts[j].get(expected_w)}")
            q = b.descriptor.models[i].residue_size
            if counts[i].get(w) != gaussian_binomial(m, w, q):
                raise ArithmeticError(
                    f"factor {i}: offset {w} count is not a Gaussian binomial")


def _offset_counts(b, v):
    """Per factor: {label offset w: number of neighbors of v with that
    offset}, counted on the ball's edge set."""
    vid = b.vid[v]
    lab = b.labels[vid]
    moduli = b.descriptor.label_moduli()
    counts = [{} for _ in range(b.descriptor.r)]
    for (a, c, i) in b.edges:
        if a == vid or c == vid:
            other = c if a == vid else a
            w = (b.labels[other][i] - lab[i]) % moduli[i]
            counts[i][w] = counts[i].get(w, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def _restoring_element(word, descriptor):
    """Per-factor matrices A with act(A) o word mapping the basic chamber to
    itself and the origin to itself.  The image chamber's factor i, the
    word's image of the basic chamber's factor source[i], has an adapted
    chart monomial on diagonal classes; its inverse with reversed rows lands
    on the basic chamber, and shift powers fix the origin."""
    delta = basic_chamber(descriptor).factors
    origin = descriptor.origin().components
    images = [[word.image(i, c) for c in delta[j]]
              for i, j in enumerate(word.source)]
    if not all(c.is_diagonal() for comps in images for c in comps):
        raise WindowError(
            "word does not preserve the standard apartment; the normal "
            "form is computed for apartment-preserving words only")
    g_full = []
    for i, (comps, (model, d)) in enumerate(zip(images, descriptor.factors)):
        g = inverse(model, chamber_chart(comps)[0])[::-1]
        ell = action(model, g)(word.image(i, origin[word.source[i]])).label()
        smat = shift_generator(model, d + 1, (-ell) % (d + 1))
        g_full.append(matmul(model, smat, g))
    return g_full


def normal_form(word, b):
    """Correctives (g, r, mu) with (prod lambda_i^{r_i}) g phi = sigma_mu on
    the window's standard apartment: an apartment-and-chamber-restoring
    element plus shift powers fixing the origin give a map whose label
    action determines the mask r; composing with lambda^r moves the basic
    chamber to the opposite chamber, so a second restoration is computed
    and conjugated across lambda (dual of g L is (g^T)^{-1} L*), keeping
    the corollary's lambda-g-phi shape.

    Returns (g_matrices, r_mask, mu, report)."""
    descriptor = b.descriptor
    apt_ids = [i for i, v in enumerate(b.vertices) if in_standard_apartment(v)]
    for i in apt_ids:
        if not in_standard_apartment(word.apply(b.vertices[i])):
            raise WindowError(
                "word does not preserve the standard apartment; the normal "
                "form is computed for apartment-preserving words only")
    g1 = _restoring_element(word, descriptor)
    corrected = AutWord(descriptor, word.gens + [{"kind": "group", "matrices": g1}])
    mu, gs, classification = label_action(corrected, b)
    r_mask = [1 if kind == "reflection" else 0 for kind, _a in classification]
    for (kind, a) in classification:
        if a != 0:
            raise ArithmeticError("origin fix failed; label action has a != 0")
    g_total = g1
    if any(r_mask):
        with_lambda = AutWord(descriptor, corrected.gens +
                              [{"kind": "lambda", "mask": r_mask}])
        g2 = _restoring_element(with_lambda, descriptor)
        mu, gs, cls2 = label_action(
            AutWord(descriptor, with_lambda.gens +
                    [{"kind": "group", "matrices": g2}]), b)
        if any(kind != "rotation" or a != 0 for kind, a in cls2):
            raise ArithmeticError(
                "restoring element leaves a reflection or shift")
        g_total = []
        for i, (model, d) in enumerate(descriptor.factors):
            g2i = inverse(model, transpose(g2[i])) if r_mask[i] else g2[i]
            g_total.append(matmul(model, g2i, g1[i]))
    final = AutWord(descriptor, word.gens +
                    [{"kind": "group", "matrices": g_total},
                     {"kind": "lambda", "mask": r_mask}])
    violations = []
    for i in apt_ids:
        v = b.vertices[i]
        img = final.apply(v)
        pt = apartment_point_of_vertex(v)
        want = sigma_mu(pt, list(mu))
        if not in_standard_apartment(img) or apartment_point_of_vertex(img) != want:
            violations.append({
                "vertex": [c.serialize() for c in v.components],
                "image": [c.serialize() for c in img.components],
            })
    report = {
        "passed": not violations,
        "apartment_vertices_checked": len(apt_ids),
        "violations": violations,
    }
    return g_total, r_mask, list(mu), report

