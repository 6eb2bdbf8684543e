"""The four workloads of the btbuildings benchmark.

Each workload is a closed loop with one caller: each operation starts when
the previous one returns.  A workload has three phases:

* ``setup()`` imports the package and builds the field models and GF tables
  it needs; the benchmark reports this as ``setup_s``.
* ``generate(seed)`` draws every input from the seed (raw basis strings,
  centers, automorphism words, rigid-point digits).  It is not timed; the
  timed calls receive only these generated inputs.
* ``ops()`` is the fixed operation list of one pass.  Each ``Op`` is timed
  on its own and checked after it returns, outside the timed region.

``sample_checks()`` runs the slower oracle checks on a sample after the
timed loop.  Every check that fails counts as one failed operation.
"""

import hashlib
import json
import os
import random
from collections import namedtuple
from fractions import Fraction
from itertools import product

INF = float("inf")

# Counts of the radius-2 windows.  The building is vertex-transitive, so they
# do not depend on the center.
PADIC_WINDOW = {"vertices": 1916, "edges": 15670, "faces": 61555,
                "chambers": 16065}
LAURENT_WINDOW = {"vertices": 1135, "edges": 5019, "faces": 8904,
                  "chambers": 3885}
PRODUCT_WINDOW = {"vertices": 421, "edges": 1666, "faces": 5852,
                  "chambers": 441}
PRODUCT_SUBCHAMBERS = 7056
PLANE_CHAMBERS = 231          # F_2((t)), d = 2, radius 2

QUERIES_PER_PASS = 2400
QUERY_EXPS = {3: (0, 1, 3), 4: (0, 1, 2, 3)}
# Rigid points of one pass: (dimension d, deepest membership depth n).
DRINFELD_POINTS = ((1, 6), (1, 6), (2, 5), (2, 5), (2, 6))


# One timed call and the check applied to its result.
Op = namedtuple("Op", "name call check")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _o_element(model, rng, digits):
    """A random element of the valuation ring with `digits` pi-adic digits."""
    return model.from_digits([rng.randrange(model.residue_size)
                              for _ in range(digits)])


def _matmul(model, a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), model.zero())
             for j in range(n)] for i in range(n)]


def _unimodular(model, n, rng, steps, digits):
    """A random element of GL_n(O): identity plus `steps` column operations."""
    mat = [[model.one() if i == j else model.zero() for j in range(n)]
           for i in range(n)]
    for _ in range(steps):
        a, b = rng.sample(range(n), 2)
        c = _o_element(model, rng, digits)
        for i in range(n):
            mat[i][a] = mat[i][a] + c * mat[i][b]
    return mat


def _diagonal(model, exps):
    pi = model.uniformizer()
    n = len(exps)
    return [[pi ** exps[i] if i == j else model.zero() for j in range(n)]
            for i in range(n)]


def _center(model, n, rng):
    """Row-major strings of a basis U D of a lattice class at distance 2
    from the origin: U is a random element of GL_n(O) and D = diag(pi^e)
    with e = (0, .., 0, 1, 2).  U fixes the origin, so every seed gives a
    window in the same position relative to the origin, with the same digit
    precisions, and the work does not depend on the seed."""
    exps = [0] * (n - 2) + [1, 2]
    g = _matmul(model, _unimodular(model, n, rng, 3 * n, 2),
                _diagonal(model, exps))
    return [model.elem_str(x) for row in g for x in row]


def _raw_basis(model, n, rng):
    """Rows of strings: U D V with U, V in GL_n(O) and D = diag(pi^e), e a
    random permutation of QUERY_EXPS[n], so queries of one building share
    their determinant valuation.  V does not change the lattice, only the
    raw basis."""
    exps = list(QUERY_EXPS[n])
    rng.shuffle(exps)
    g = _matmul(model, _matmul(model, _unimodular(model, n, rng, 4, 2),
                               _diagonal(model, exps)),
                _unimodular(model, n, rng, 3, 2))
    return [[model.elem_str(x) for x in row] for row in g]


def _window_exps(n, spread):
    return [e for e in product(range(spread + 1), repeat=n) if min(e) == 0]


# ---------------------------------------------------------------------------
# windows through the CLI
# ---------------------------------------------------------------------------

class Window:
    """`btb ball` with faces and a JSON artifact, around a seeded center."""

    query_is_op = False

    def __init__(self, name, field, d, expected, out_dir):
        self.name = name
        self.field = field
        self.d = d
        self.expected = expected
        self.out_path = os.path.join(out_dir, f"{name}.json")
        self.digests = []
        self.first_artifact = None
        self.last_counts = None

    def setup(self):
        from btbuildings import building, cli
        from btbuildings.gf import GF
        self.cli = cli
        self.model = cli.parse_field(self.field)
        GF.get(self.model.residue_size)

        # Record the sizes of each window the CLI builds (len() only).  The
        # call goes through the module attribute so a traced run sees it.
        def ball_and_count(*args, **kwargs):
            b = building.ball(*args, **kwargs)
            self.last_counts = {"vertices": len(b.vertices),
                                "edges": len(b.edges),
                                "faces": len(b.faces or ()),
                                "chambers": len(b.chambers or ())}
            return b
        cli.ball = ball_and_count

    def generate(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        self.vertex = json.dumps([_center(self.model, self.d + 1, rng)])
        self.argv = ["--field", self.field, "--d", str(self.d),
                     "--radius", "2", "--out", self.out_path,
                     "ball", "--vertex", self.vertex]

    def _run(self):
        self.last_counts = None
        return self.cli.main(self.argv)

    def _check(self, rc):
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        self.digests.append(hashlib.sha256(data).hexdigest())
        if self.first_artifact is None:
            self.first_artifact = data
        return rc == 0 and self.last_counts == self.expected

    def ops(self):
        return [Op("ball", self._run, self._check)]

    def sample_checks(self):
        """The artifact is byte-identical across passes, and its JSON holds
        the expected vertex, edge and chamber counts."""
        if self.first_artifact is None:
            return [False]
        obj = json.loads(self.first_artifact)
        return [len(set(self.digests)) == 1,
                len(obj["vertices"]) == self.expected["vertices"],
                len(obj["edges"]) == self.expected["edges"],
                len(obj["chambers"]) == self.expected["chambers"]]

    def summary(self):
        return {"artifact_sha256": self.digests[0] if self.digests else None}


# ---------------------------------------------------------------------------
# apartment queries
# ---------------------------------------------------------------------------

class Apartment:
    """Single-vertex queries round-robin over three buildings: canonical form
    of a raw basis, apartment projection, label, dual involution, and the
    directed distance to the previous vertex of the same building."""

    name = "apartment"
    query_is_op = True
    SAMPLE = 30       # queries per building checked against the oracles
    SPREAD = 3        # exponent box of the projection oracle's window

    def setup(self):
        from btbuildings import building, lattice
        from btbuildings.field import LaurentModel, PAdicModel
        self.building = building
        self.lattice = lattice
        self.buildings = [(PAdicModel.get(2), 3), (LaurentModel.get(3), 3),
                          (LaurentModel.get(4), 2)]

    def generate(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = []
        for k in range(QUERIES_PER_PASS):
            model, d = self.buildings[k % len(self.buildings)]
            self.inputs.append((k % len(self.buildings),
                                _raw_basis(model, d + 1, rng)))
        self.results = [None] * QUERIES_PER_PASS

    def ops(self):
        b = self.building
        canonical_form = self.lattice.canonical_form
        prev = [None] * len(self.buildings)
        results = self.results

        def query(k, which, raw):
            def call():
                model, _d = self.buildings[which]
                x = b.PolyVertex((canonical_form(model, raw),))
                proj = b.project_apartment(x)
                lab = b.labelling_C(x)
                img = b.involution_lambda(x, [1])
                y = prev[which]
                dist = None if y is None else b.distance_f(y, x)
                prev[which] = x
                results[k] = (x, proj, lab, img, y, dist)
                return results[k]
            return call

        return [Op("query", query(k, which, raw), self._check)
                for k, (which, raw) in enumerate(self.inputs)]

    @staticmethod
    def _check(result):
        """Labels of x and of its dual are opposite; f(y, x) >= 0 and is
        congruent to label(x) - label(y) mod n."""
        x, _proj, lab, img, y, dist = result
        c = x.components[0]
        n = c.n
        return (lab == (c.label(),)
                and img.components[0].label() == (-c.label()) % n
                and (y is None or (dist >= 0 and dist % n ==
                                   (c.label() - y.components[0].label()) % n)))

    def sample_checks(self):
        """Projection equals the argmin of f over a window of the standard
        apartment (the norm-formula oracle), and dual(dual(v)) == v."""
        b = self.building
        out = []
        for which in range(len(self.buildings)):
            sample = [r for (w, _raw), r in zip(self.inputs, self.results)
                      if w == which and r is not None][:self.SAMPLE]
            for x, proj, _lab, img, _y, _dist in sample:
                c = x.components[0]
                window = _window_exps(c.n, self.SPREAD)
                fvals = b.factor_window_fvals(c, window)
                best = min(fvals)
                arg = [i for i, f in enumerate(fvals) if f == best]
                want = b.ApartmentPoint(
                    [(None, tuple(-m for m in window[arg[0]]))])
                out.append(len(arg) == 1 and proj == want)
                out.append(self.lattice.dual(img.components[0]) == c)
        return out

    def summary(self):
        return {}


# ---------------------------------------------------------------------------
# subsystems
# ---------------------------------------------------------------------------

class Subsystems:
    """Product windows, subdivision, automorphism normal forms, the induced
    structure of a ramified extension, and Drinfeld rigid points."""

    name = "subsystems"
    query_is_op = False

    def setup(self):
        from btbuildings import (autdecomp, building, drinfeld, lattice,
                                 subdivision)
        from btbuildings.field import (ExtensionDescriptor, LaurentModel,
                                       PAdicModel)
        self.autdecomp = autdecomp
        self.building = building
        self.drinfeld = drinfeld
        self.lattice = lattice
        self.subdivision = subdivision
        self.q2 = PAdicModel.get(2)
        self.f2 = LaurentModel.get(2)
        self.ram = ExtensionDescriptor(self.f2, e=2, f=1)
        self.quartic = ExtensionDescriptor(self.f2, e=2, f=2)
        self.K = self.quartic.extension
        self.product = building.BuildingDescriptor([(self.q2, 2), (self.q2, 2)])
        self.plane = building.BuildingDescriptor([(self.f2, 2)])
        self.line = building.BuildingDescriptor([(self.f2, 1)])

    # -- inputs --

    def _monomial(self, rng):
        pi = self.q2.uniformizer()
        perm = list(range(3))
        rng.shuffle(perm)
        return [[pi ** rng.randrange(2) if perm[j] == i else self.q2.zero()
                 for j in range(3)] for i in range(3)]

    def _rigid_point(self, rng, descriptor):
        """Coordinates of a seeded rigid point in X[1]: the filtration is
        increasing, so every closed membership test of the pass enumerates
        all unimodular vectors and the work does not depend on the seed."""
        K = self.K
        dr = self.drinfeld
        while True:
            coords = [[K.elem_str(K.from_digits(
                [rng.randrange(K.q) for _ in range(4)],
                shift=rng.randrange(-1, 2)))
                for _ in range(d)] for _m, d in descriptor.factors]
            try:
                x = dr.RigidPoint(descriptor, K, coords)
            except ValueError:
                continue
            if dr.omega_membership(x, 1, closed=True):
                return coords

    def generate(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        exchange = {"kind": "exchange", "mu": [1, 0]}
        self.words = [
            [exchange, {"kind": "shift", "factor": rng.randrange(2),
                        "power": rng.randrange(1, 3)}],
            [exchange, {"kind": "group",
                        "matrices": [self._monomial(rng), self._monomial(rng)]}],
        ]
        self.action_word = [{"kind": "group", "matrices": [
            _unimodular(self.q2, 3, rng, 3, 3) for _ in range(2)]},
            {"kind": "lambda", "mask": [rng.randrange(2), 1]}]
        self.plane_center = _center(self.f2, 3, rng)
        self.points = []
        for d, depth in DRINFELD_POINTS:
            descriptor = self.line if d == 1 else self.plane
            coeffs = [self.K.elem_str(_o_element(self.K, rng, 2))
                      for _ in range(d + 1)]
            self.points.append((descriptor, self._rigid_point(rng, descriptor),
                                depth, coeffs))

    # -- operations --

    def _product_window(self):
        b = self.building.ball(self.product, self.product.origin(), 2,
                               detail="faces", budget=20000)
        self.window = b
        return {"vertices": len(b.vertices), "edges": len(b.edges),
                "faces": len(b.faces), "chambers": len(b.chambers)}

    def _subdivide(self):
        sub = self.subdivision.subdivide_ball(
            self.window, self.subdivision.Marking([2, 2]))
        return len(sub.subchambers)

    def _normal_forms(self):
        a = self.autdecomp
        reports = []
        for gens in self.words:
            _g, _r, _mu, report = a.normal_form(a.AutWord(self.product, gens),
                                                self.window)
            reports.append(report["passed"])
        mu, _gs, cls = a.label_action(a.AutWord(self.product, self.action_word),
                                      self.window)
        reports.append(sorted(mu) == [0, 1] and
                       all(k in ("rotation", "reflection") for k, _ in cls))
        return reports

    def _induced(self):
        rows = self.plane_center
        basis = [[rows[i * 3 + j] for j in range(3)] for i in range(3)]
        center = self.building.PolyVertex(
            (self.lattice.canonical_form(self.f2, basis),))
        b = self.building.ball(self.plane, center, 2, detail="faces",
                               budget=20000)
        report = self.subdivision.verify_induced_structure(b, self.ram)
        return report["passed"], report["subchambers_checked"], len(b.chambers)

    def _drinfeld(self):
        """Per point: closed and open membership in X[n] for n up to its
        depth, then a diagonal norm basis at the first closed depth, its
        re-verification one level deeper, and |p(x)| against the path
        rho_t(p) for the square p of a seeded linear form."""
        dr = self.drinfeld
        K = self.K
        out = []
        for descriptor, coords, depth, coeffs in self.points:
            x = dr.RigidPoint(descriptor, K, [[K.elem_parse(c) for c in f]
                                              for f in coords])
            closed = [dr.omega_membership(x, n, closed=True)
                      for n in range(1, depth + 1)]
            for n in range(1, depth + 1):
                dr.omega_membership(x, n, closed=False)
            first = closed.index(True) + 1 if True in closed else None
            if first is None or not all(closed[first - 1:]):
                out.append(False)
                continue
            basis, _exps = dr.diagonalize_norm(x, 0, first)
            out.append(dr.verify_diagonal(x, 0, basis, first + 1))
            p = dr.Poly.const(K, K.elem_parse(coeffs[0]))
            for j, c in enumerate(coeffs[1:], start=1):
                p = p + dr.Poly.var(K, (0, j)).scale(K.elem_parse(c))
            p = p * p
            value = dr.eval_abs(x, p).exponent
            path = [dr.deform(x, t, p).exponent
                    for t in (Fraction(0), Fraction(1, 2), Fraction(1))]
            # |p(x)| <= rho_t(p) on the path, with equality at t = 0.
            out.append(all(v <= value for v in path) and
                       dr.deform(x, INF, p).exponent == value)
        return out

    def ops(self):
        return [
            Op("product_window", self._product_window,
               lambda counts: counts == PRODUCT_WINDOW),
            Op("subdivide", self._subdivide,
               lambda n: n == PRODUCT_SUBCHAMBERS),
            Op("normal_form", self._normal_forms, all),
            Op("induced_structure", self._induced,
               lambda r: r == (True, 4 * PLANE_CHAMBERS, PLANE_CHAMBERS)),
            Op("drinfeld", self._drinfeld, all),
        ]

    def sample_checks(self):
        return []

    def summary(self):
        return {}


def make(name, out_dir):
    if name == "window-padic":
        return Window(name, "padic:2", 3, PADIC_WINDOW, out_dir)
    if name == "window-laurent":
        return Window(name, "laurent:4", 2, LAURENT_WINDOW, out_dir)
    if name == "apartment":
        return Apartment()
    if name == "subsystems":
        return Subsystems()
    raise KeyError(name)


NAMES = ("window-padic", "window-laurent", "apartment", "subsystems")
